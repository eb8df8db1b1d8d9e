"""Pure-Python backtracking kernel for list colouring.

The compiled extension ``incolour._ckernel`` implements the identical
algorithm; :mod:`incolour.kernel` uses it when it is importable and this
module otherwise.  This module is also the parity reference: both must be
bit-for-bit interchangeable (same variable order, same value order, same
node counts), which ``tests/test_kernel_parity.py`` checks.

Inputs are flat CSR-style arrays:

* ``dom_off`` / ``dom_val``: per-variable sorted colour domains,
* ``adj_off`` / ``adj``: per-variable neighbour lists.

Status codes: 0 found, 1 exhausted (unsatisfiable), 2 budget or deadline
hit (unknown).
"""

from __future__ import annotations

import time

FOUND = 0
EXHAUSTED = 1
CUTOFF = 2


def search(nv, dom_off, dom_val, adj_off, adj, use_mrv, node_budget, deadline):
    """Backtracking with forward checking.

    Variable order: static ascending id, or minimum remaining values with
    ids breaking ties.  Value order: ascending within each domain (the
    domains arrive sorted).  Returns ``(status, slots, nodes)`` where
    ``slots[v]`` indexes the chosen colour inside v's domain.
    """
    assigned = [-1] * nv
    blocked = [0] * len(dom_val)
    navail = [dom_off[v + 1] - dom_off[v] for v in range(nv)]
    trail: list[int] = []
    nodes = 0

    def pick() -> int:
        if use_mrv:
            best = -1
            best_avail = -1
            for v in range(nv):
                if assigned[v] < 0 and (best < 0 or navail[v] < best_avail):
                    best = v
                    best_avail = navail[v]
            return best
        for v in range(nv):
            if assigned[v] < 0:
                return v
        return -1

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
