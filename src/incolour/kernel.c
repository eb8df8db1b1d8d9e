/* The backtracking kernel for list colouring, in C: node for node the
 * search of kernel.py, which builds this file on first use and loads it
 * with ctypes.
 *
 * The caller passes the domains flattened (size[v] colours of variable v,
 * ascending and distinct, one after another in col) and the neighbour
 * lists flattened the same way (deg[v] ids in nbr).  Colours are only
 * compared for equality, so any order-keeping renumbering of them gives
 * the same search.
 *
 * There is one block count per (variable, domain position), cnt[], and
 * per (variable v, position p, neighbour index j) one slot, the count of
 * the colour at p within the j-th neighbour's domain, or -1 where that
 * domain lacks the colour: such a neighbour has nothing to block.  So the
 * memory is the sum over v of size[v] * (deg[v] + 1), whatever the number
 * of distinct colours.
 *
 * The variable order, the keys, the value order, the uniform cap `top`
 * and the node budget are those of kernel.search; its docstrings say what
 * they mean.  ks_run returns to the caller at every node whose count is a
 * multiple of 1,024 (after the budget check), with that node's assignment
 * still to apply, so the caller checks its deadline at the same nodes as
 * kernel.py and can stop a long search between calls.
 */

#include <stdint.h>
#include <stdlib.h>

enum { FOUND = 0, EXHAUSTED = 1, CUTOFF = 2, PAUSED = 3 };

typedef struct {
    int32_t nv;
    int64_t d, step, assigned_off;
    const int32_t *size, *deg, *nbr;   /* the caller's */
    int64_t *doff, *noff, *toff;       /* offsets into cnt, nbr and slot */
    int32_t *slot, *cnt;
    int64_t *key;
    int32_t *pos_of, *trail, *tops;
    int32_t ntrail, top;
    int64_t nodes;
    int32_t cur, pos;                  /* the node a pause left to apply */
    int paused;
} kstate;

void ks_free(kstate *s)
{
    if (!s)
        return;
    free(s->doff); free(s->noff); free(s->toff);
    free(s->slot); free(s->cnt); free(s->key);
    free(s->pos_of); free(s->trail); free(s->tops);
    free(s);
}

/* The state of a search that has not started, over nv >= 1 variables, or
 * NULL when memory runs out.  size, deg and nbr must stay alive until
 * ks_free; col is read only here. */
kstate *ks_new(int32_t nv, const int32_t *size, const int64_t *col,
               const int32_t *deg, const int32_t *nbr, int32_t uniform)
{
    kstate *s = calloc(1, sizeof *s);
    if (!s)
        return NULL;
    s->nv = nv;
    s->size = size;
    s->deg = deg;
    s->nbr = nbr;
    s->doff = malloc((nv + 1) * sizeof *s->doff);
    s->noff = malloc((nv + 1) * sizeof *s->noff);
    s->toff = malloc((nv + 1) * sizeof *s->toff);
    s->key = malloc(nv * sizeof *s->key);
    s->pos_of = calloc(nv, sizeof *s->pos_of);
    s->trail = malloc(nv * sizeof *s->trail);
    s->tops = malloc(nv * sizeof *s->tops);
    if (!s->doff || !s->noff || !s->toff || !s->key || !s->pos_of || !s->trail
        || !s->tops) {
        ks_free(s);
        return NULL;
    }
    int64_t dmax = 0, d = 0;
    s->doff[0] = s->noff[0] = s->toff[0] = 0;
    for (int32_t v = 0; v < nv; v++) {
        if (size[v] > dmax)
            dmax = size[v];
        if (deg[v] > d)
            d = deg[v];
        s->doff[v + 1] = s->doff[v] + size[v];
        s->noff[v + 1] = s->noff[v] + deg[v];
        s->toff[v + 1] = s->toff[v] + (int64_t)size[v] * deg[v];
    }
    s->cnt = calloc(s->doff[nv] ? s->doff[nv] : 1, sizeof *s->cnt);
    s->slot = malloc((s->toff[nv] ? s->toff[nv] : 1) * sizeof *s->slot);
    if (!s->cnt || !s->slot) {
        ks_free(s);
        return NULL;
    }
    for (int32_t v = 0; v < nv; v++) {
        const int64_t *cv = col + s->doff[v];
        int32_t *sl = s->slot + s->toff[v];
        for (int32_t j = 0; j < deg[v]; j++) {
            int32_t w = nbr[s->noff[v] + j];
            const int64_t *cw = col + s->doff[w];
            int32_t q = 0;
            for (int32_t p = 0; p < size[v]; p++) {   /* merge two ascending domains */
                while (q < size[w] && cw[q] < cv[p])
                    q++;
                sl[(int64_t)p * deg[v] + j] =
                    q < size[w] && cw[q] == cv[p] ? (int32_t)(s->doff[w] + q) : -1;
            }
        }
    }
    s->d = d;
    s->step = d + 1;                       /* one available colour in a key */
    s->assigned_off = (dmax + 1) * s->step;
    for (int32_t v = 0; v < nv; v++)
        s->key[v] = size[v] * s->step + d - deg[v];
    /* without the flag, top + 2 never caps a domain */
    s->top = uniform ? -1 : (int32_t)dmax;
    return s;
}

/* Block the colour at position pos of v on v's neighbours; whether some
 * unassigned neighbour is left with no available colour. */
static int assign(kstate *s, int32_t v, int32_t pos)
{
    const int32_t *ws = s->nbr + s->noff[v];
    const int32_t *sl = s->slot + s->toff[v] + (int64_t)pos * s->deg[v];
    int64_t *key = s->key;
    int wipeout = 0;
    for (int32_t j = 0; j < s->deg[v]; j++) {
        int32_t w = ws[j], c = sl[j];
        if (c >= 0 && s->cnt[c]++ == 0) {
            key[w] -= s->d;
            if (key[w] < s->step)
                wipeout = 1;
        } else {
            key[w] += 1;
        }
    }
    return wipeout;
}

static void undo(kstate *s, int32_t v, int32_t pos)
{
    const int32_t *ws = s->nbr + s->noff[v];
    const int32_t *sl = s->slot + s->toff[v] + (int64_t)pos * s->deg[v];
    int64_t *key = s->key;
    for (int32_t j = 0; j < s->deg[v]; j++) {
        int32_t w = ws[j], c = sl[j];
        if (c >= 0 && --s->cnt[c] == 0)
            key[w] += s->d;
        else
            key[w] -= 1;
    }
}

/* Search on until a colouring is found (FOUND), the tree is exhausted
 * (EXHAUSTED), the node count passes limit (CUTOFF) or reaches a multiple
 * of 1,024 (PAUSED; call again to go on).  *nodes is the count so far, and
 * after FOUND pos[v] is the domain position of v's colour. */
int32_t ks_run(kstate *s, int64_t limit, int64_t *nodes_out, int32_t *pos_out)
{
    const int32_t nv = s->nv;
    int64_t *key = s->key;
    int64_t nodes = s->nodes, least;
    int32_t top = s->top, ntrail = s->ntrail;
    int32_t cur, pos, size, hi, status;

    if (s->paused) {
        s->paused = 0;
        cur = s->cur;
        pos = s->pos;
        size = s->size[cur];
        hi = top + 2 < size ? top + 2 : size;
        goto apply;
    }
    for (;;) {
        /* the lowest id among the least keys */
        least = key[0];
        cur = 0;
        for (int32_t v = 1; v < nv; v++)
            if (key[v] < least) {
                least = key[v];
                cur = v;
            }
        size = s->size[cur];
        pos = 0;
        for (;;) {
            hi = top + 2 < size ? top + 2 : size;
            for (; pos < hi; pos++) {
                if (s->cnt[s->doff[cur] + pos] != 0)
                    continue;
                if (++nodes > limit) {
                    status = CUTOFF;
                    goto out;
                }
                if (nodes % 1024 == 0) {
                    s->paused = 1;
                    s->cur = cur;
                    s->pos = pos;
                    status = PAUSED;
                    goto out;
                }
            apply:
                if (!assign(s, cur, pos))
                    break;
                undo(s, cur, pos);
            }
            if (pos < hi)
                break;
            if (ntrail == 0) {
                status = EXHAUSTED;
                goto out;
            }
            cur = s->trail[--ntrail];
            top = s->tops[ntrail];
            size = s->size[cur];
            pos = s->pos_of[cur];
            key[cur] -= s->assigned_off;
            undo(s, cur, pos);
            pos++;
        }
        s->pos_of[cur] = pos;
        key[cur] += s->assigned_off;
        s->tops[ntrail] = top;
        s->trail[ntrail++] = cur;
        if (pos > top)
            top = pos;
        if (ntrail == nv) {
            status = FOUND;
            goto out;
        }
    }
out:
    s->nodes = nodes;
    s->top = top;
    s->ntrail = ntrail;
    *nodes_out = nodes;
    if (status == FOUND)
        for (int32_t v = 0; v < nv; v++)
            pos_out[v] = s->pos_of[v];
    return status;
}
