# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled backtracking kernel.

Mirror of ``incolour._pykernel`` (same variable order, value order, node
accounting); the two must stay bit-for-bit interchangeable.  The parity
tests compare them on random instances.
"""

import time

from libc.stdlib cimport free, malloc

FOUND = 0
EXHAUSTED = 1
CUTOFF = 2


cdef inline int _slot_of(int w, int colour, int* dom_off, int* dom_val) noexcept nogil:
    cdef int t
    for t in range(dom_off[w], dom_off[w + 1]):
        if dom_val[t] == colour:
            return t
    return -1


cdef inline bint _block(int v, int colour, int* assigned, int* blocked, int* navail,
                        int* dom_off, int* dom_val, int* adj_off, int* adj) noexcept nogil:
    cdef bint wipeout = False
    cdef int k, w, t
    for k in range(adj_off[v], adj_off[v + 1]):
        w = adj[k]
        t = _slot_of(w, colour, dom_off, dom_val)
        if t >= 0:
            blocked[t] += 1
            if blocked[t] == 1:
                navail[w] -= 1
                if navail[w] == 0 and assigned[w] < 0:
                    wipeout = True
    return wipeout


cdef inline void _unblock(int v, int colour, int* assigned, int* blocked, int* navail,
                          int* dom_off, int* dom_val, int* adj_off, int* adj) noexcept nogil:
    cdef int k, w, t
    for k in range(adj_off[v], adj_off[v + 1]):
        w = adj[k]
        t = _slot_of(w, colour, dom_off, dom_val)
        if t >= 0:
            blocked[t] -= 1
            if blocked[t] == 0:
                navail[w] += 1


cdef inline int _pick(int nv, bint use_mrv, int* assigned, int* navail) noexcept nogil:
    cdef int v, best = -1, best_avail = -1
    if use_mrv:
        for v in range(nv):
            if assigned[v] < 0 and (best < 0 or navail[v] < best_avail):
                best = v
                best_avail = navail[v]
        return best
    for v in range(nv):
        if assigned[v] < 0:
            return v
    return -1


def search(nv, dom_off, dom_val, adj_off, adj, use_mrv, node_budget, deadline):
    """Backtracking with forward checking over flat CSR arrays; returns
    (status, slots, nodes)."""
    cdef int n = nv
    if n == 0:
        return FOUND, [], 0
    cdef int ndom = len(dom_val)
    cdef int nadj = len(adj)
    cdef bint mrv = bool(use_mrv)
    cdef long long budget = -1 if node_budget is None else <long long> node_budget
    cdef double limit = -1.0 if deadline is None else <double> deadline

    # Every buffer starts NULL and is allocated inside the try, so a failed
    # allocation frees the ones before it (free(NULL) does nothing).
    cdef int* c_dom_off = NULL
    cdef int* c_dom_val = NULL
    cdef int* c_adj_off = NULL
    cdef int* c_adj = NULL
    cdef int* assigned = NULL
    cdef int* blocked = NULL
    cdef int* navail = NULL
    cdef int* trail = NULL
    cdef int i
    try:
        c_dom_off = <int*> malloc((n + 1) * sizeof(int))
        c_dom_val = <int*> malloc(max(ndom, 1) * sizeof(int))
        c_adj_off = <int*> malloc((n + 1) * sizeof(int))
        c_adj = <int*> malloc(max(nadj, 1) * sizeof(int))
        assigned = <int*> malloc(n * sizeof(int))
        blocked = <int*> malloc(max(ndom, 1) * sizeof(int))
        navail = <int*> malloc(n * sizeof(int))
        trail = <int*> malloc(n * sizeof(int))
        if (c_dom_off == NULL or c_dom_val == NULL or c_adj_off == NULL or c_adj == NULL
                or assigned == NULL or blocked == NULL or navail == NULL or trail == NULL):
            raise MemoryError()

        for i in range(n + 1):
            c_dom_off[i] = dom_off[i]
            c_adj_off[i] = adj_off[i]
        for i in range(ndom):
            c_dom_val[i] = dom_val[i]
            blocked[i] = 0
        for i in range(nadj):
            c_adj[i] = adj[i]
        for i in range(n):
            assigned[i] = -1
            navail[i] = c_dom_off[i + 1] - c_dom_off[i]

        return _run(n, mrv, budget, limit, c_dom_off, c_dom_val, c_adj_off, c_adj,
                    assigned, blocked, navail, trail)
    finally:
        free(c_dom_off)
        free(c_dom_val)
        free(c_adj_off)
        free(c_adj)
        free(assigned)
        free(blocked)
        free(navail)
        free(trail)


cdef _run(int n, bint mrv, long long budget, double limit,
          int* dom_off, int* dom_val, int* adj_off, int* adj,
          int* assigned, int* blocked, int* navail, int* trail):
    cdef long long nodes = 0
    cdef int depth = 0
    cdef int cur, cur_slot, s, hi, colour, prev, nxt, v
    cdef bint placed, wipeout

    cur = _pick(n, mrv, assigned, navail)
    cur_slot = dom_off[cur] - 1
    while True:
        placed = False
        s = cur_slot + 1
        hi = dom_off[cur + 1]
        while s < hi:
            if blocked[s] == 0:
                nodes += 1
                if budget >= 0 and nodes > budget:
                    return CUTOFF, None, nodes
                if limit >= 0.0 and nodes % 1024 == 0 and time.monotonic() > limit:
                    return CUTOFF, None, nodes
                colour = dom_val[s]
                wipeout = _block(cur, colour, assigned, blocked, navail,
                                 dom_off, dom_val, adj_off, adj)
                if wipeout:
                    _unblock(cur, colour, assigned, blocked, navail,
                             dom_off, dom_val, adj_off, adj)
                    s += 1
                    continue
                placed = True
                break
            s += 1
        if placed:
            assigned[cur] = s
            trail[depth] = cur
            depth += 1
            nxt = _pick(n, mrv, assigned, navail)
            if nxt < 0:
                return FOUND, [assigned[v] for v in range(n)], nodes
            cur = nxt
            cur_slot = dom_off[cur] - 1
        else:
            if depth == 0:
                return EXHAUSTED, None, nodes
            depth -= 1
            prev = trail[depth]
            s = assigned[prev]
            assigned[prev] = -1
            _unblock(prev, dom_val[s], assigned, blocked, navail,
                     dom_off, dom_val, adj_off, adj)
            cur = prev
            cur_slot = s
