"""The backtracking kernel for list colouring, in pure Python.

Inputs are flat CSR-style arrays:

* ``dom_off`` / ``dom_val``: per-variable sorted colour domains,
* ``adj_off`` / ``adj``: per-variable neighbour lists,
* ``uniform``: true only when every domain is the same list.

Under uniform domains colour names are interchangeable, so the search
breaks value symmetry: with ``top`` the largest position within a domain
used on the current trail, it never tries a position beyond ``top + 1``
(the standard rule of exact colouring, Brélaz 1979).  A pruned subtree is
a renaming of an exhausted sibling, so it holds no solution: statuses and
the first colouring found are those of the plain search, and only the node
count of an exhausted search drops.

Status codes: 0 found, 1 exhausted (unsatisfiable), 2 budget or deadline
hit (unknown).
"""

from __future__ import annotations

import time

FOUND = 0
EXHAUSTED = 1
CUTOFF = 2


def backend_name() -> str:
    """Name of the kernel implementation, as benchmark runs record it."""
    return "python"


def search(nv, dom_off, dom_val, adj_off, adj, uniform, node_budget, deadline):
    """Backtracking with forward checking.

    Variable order: minimum remaining values (most constrained first),
    the lowest id breaking ties.  Value order: ascending within each
    domain (the domains arrive sorted).  Returns ``(status, slots,
    nodes)`` where ``slots[v]`` indexes the chosen colour inside v's
    domain.  Equal domains (``uniform``) take :func:`_search_uniform`.
    """
    if uniform and nv:
        return _search_uniform(nv, dom_off, adj_off, adj, node_budget, deadline)
    assigned = [-1] * nv
    blocked = [0] * len(dom_val)
    navail = [dom_off[v + 1] - dom_off[v] for v in range(nv)]
    trail: list[int] = []
    nodes = 0

    def pick() -> int:
        best = -1
        best_avail = -1
        for v in range(nv):
            if assigned[v] < 0 and (best < 0 or navail[v] < best_avail):
                best = v
                best_avail = navail[v]
        return best

    if nv == 0:
        return FOUND, [], 0

    cur = pick()
    cur_slot = dom_off[cur] - 1
    while True:
        # advance cur to its next workable slot
        placed = False
        s = cur_slot + 1
        hi = dom_off[cur + 1]
        while s < hi:
            if blocked[s] == 0:
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    return CUTOFF, None, nodes
                if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
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
            trail.append(cur)
            nxt = pick()
            if nxt < 0:
                return FOUND, [assigned[v] for v in range(nv)], nodes
            cur = nxt
            cur_slot = dom_off[cur] - 1
        else:
            if not trail:
                return EXHAUSTED, None, nodes
            prev = trail.pop()
            s_prev = assigned[prev]
            assigned[prev] = -1
            _unblock(prev, dom_val[s_prev], assigned, blocked, navail,
                     dom_off, dom_val, adj_off, adj)
            cur = prev
            cur_slot = s_prev


def _block(v, colour, assigned, blocked, navail, dom_off, dom_val, adj_off, adj):
    """Mark ``colour`` blocked in every neighbour's domain; report wipeout
    of an unassigned neighbour."""
    wipeout = False
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


def _unblock(v, colour, assigned, blocked, navail, dom_off, dom_val, adj_off, adj):
    for k in range(adj_off[v], adj_off[v + 1]):
        w = adj[k]
        t = _slot_of(w, colour, dom_off, dom_val)
        if t >= 0:
            blocked[t] -= 1
            if blocked[t] == 0:
                navail[w] += 1


def _slot_of(w, colour, dom_off, dom_val):
    for t in range(dom_off[w], dom_off[w + 1]):
        if dom_val[t] == colour:
            return t
    return -1


def _search_uniform(nv, dom_off, adj_off, adj, node_budget, deadline):
    """:func:`search` over equal domains of size p, with value symmetry
    broken.  Variable v holds colour index j in slot ``dom_off[v] + j``, so
    the slot of a colour in any domain is found in O(1); block counts are
    kept per colour index, ``blocked[j][v]``.

    ``navail[v]`` carries an offset of p + 1 while v is assigned: a count
    of 0 is then always a wipeout of an unassigned variable, and the MRV
    pick is the first variable holding the smallest count in 1..p (a
    ``bytearray`` search while the counts fit in a byte).
    """
    p = dom_off[1]
    assigned_off = p + 1
    narrow = 2 * p + 1 < 256
    navail = bytearray([p]) * nv if narrow else [p] * nv
    nbrs = [adj[adj_off[v]:adj_off[v + 1]] for v in range(nv)]
    blocked = [[0] * nv for _ in range(p)]
    colour_of = [0] * nv
    trail: list[int] = []
    tops: list[int] = []     # top before each trail entry
    top = -1
    limit = node_budget if node_budget is not None else 1 << 62
    nodes = 0
    cur = 0                  # every count is p, so the first pick is id 0
    j = 0
    while True:
        hi = top + 2 if top + 2 < p else p
        while j < hi:
            row = blocked[j]
            if row[cur] == 0:
                nodes += 1
                if nodes > limit:
                    return CUTOFF, None, nodes
                if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
                    return CUTOFF, None, nodes
                ws = nbrs[cur]
                wipeout = False
                for w in ws:
                    b = row[w]
                    row[w] = b + 1
                    if b == 0:
                        b = navail[w] - 1
                        navail[w] = b
                        if b == 0:
                            wipeout = True
                if not wipeout:
                    break
                _unblock_uniform(ws, row, navail)
            j += 1
        if j < hi:
            colour_of[cur] = j
            navail[cur] += assigned_off
            trail.append(cur)
            tops.append(top)
            if j > top:
                top = j
            if len(trail) == nv:
                return FOUND, [dom_off[v] + colour_of[v] for v in range(nv)], nodes
            if narrow:
                k = 1
                cur = navail.find(1)
                while cur < 0:
                    k += 1
                    cur = navail.find(k)
            else:
                cur = navail.index(min(navail))
            j = 0
        else:
            if not trail:
                return EXHAUSTED, None, nodes
            cur = trail.pop()
            top = tops.pop()
            j = colour_of[cur]
            navail[cur] -= assigned_off
            _unblock_uniform(nbrs[cur], blocked[j], navail)
            j += 1


def _unblock_uniform(ws, row, navail):
    """Undo one colour's blocks (``row``) on the variables ``ws``."""
    for w in ws:
        b = row[w] - 1
        row[w] = b
        if b == 0:
            navail[w] += 1
