"""The backtracking kernel for list colouring, in pure Python.

Inputs are flat CSR-style arrays:

* ``dom_off`` / ``dom_val``: per-variable sorted colour domains,
* ``adj_off`` / ``adj``: per-variable neighbour lists,
* ``uniform``: true only when every domain is the same list.

One search serves every list assignment.  The distinct colours of
``dom_val``, in ascending order, are renumbered to rows ``0..C-1``, and
block counts are kept per row and variable, ``blocked[row][v]``.  Every
count starts at 1 except those of v's own colours, which start at 0, so a
colour outside v's domain never reaches 0: it is never available and never
tried, and a neighbour's colour is blocked in O(1) with no slot lookup.
The layout holds C × nv counters, which is small for the library's lists
(at most 3Δ-2 colours) but grows with the number of distinct colours: a
20x20 grid (1,520 incidences) with 3-lists drawn from 10,000 colours uses
3,658 of them, 5.6 million counters, about 45 MB.

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
    ties broken by the most uncoloured neighbours (the DSatur rule,
    Brélaz 1979), then by the lowest id.  Value order: ascending within
    each domain (the domains arrive sorted).  Returns ``(status, slots,
    nodes)`` where ``slots[v]`` indexes the chosen colour inside v's
    domain.

    Both criteria live in one key per variable, ``key[v] = navail * (D + 1)
    + (D - unc)``, with ``navail`` v's unblocked colours, ``unc`` its
    uncoloured neighbours and D the largest neighbour count.  Assigning a
    variable adds 1 to each neighbour's key (one fewer uncoloured
    neighbour) and takes D + 1 off it when the colour is newly blocked
    there; undoing reverses both.  A key below D + 1 is a wipeout.  While v
    is assigned its ``navail`` carries an offset of dmax + 1 (dmax the
    largest domain), which lifts its key above every unassigned one, so the
    pick is the first variable holding the smallest key.
    """
    if nv == 0:
        return FOUND, [], 0
    row_of = {c: r for r, c in enumerate(sorted(set(dom_val)))}
    blocked = [[1] * nv for _ in row_of]
    # rows[v][pos]: the block counts of the colour at position pos of v's domain
    rows = []
    for v in range(nv):
        own = [blocked[row_of[dom_val[s]]] for s in range(dom_off[v], dom_off[v + 1])]
        for row in own:
            row[v] = 0
        rows.append(own)
    sizes = [len(own) for own in rows]
    dmax = max(sizes)
    nbrs = [adj[adj_off[v]:adj_off[v + 1]] for v in range(nv)]
    d = max(map(len, nbrs))
    step = d + 1                       # one available colour in a key
    assigned_off = (dmax + 1) * step
    key = [sizes[v] * step + d - len(nbrs[v]) for v in range(nv)]
    pos_of = [0] * nv
    trail: list[int] = []
    tops: list[int] = []     # top before each trail entry
    # without the flag, top + 2 never caps a domain
    top = -1 if uniform else dmax
    limit = node_budget if node_budget is not None else 1 << 62
    nodes = 0
    while True:
        cur = key.index(min(key))
        own = rows[cur]
        size = sizes[cur]
        pos = 0
        while True:
            hi = top + 2 if top + 2 < size else size
            while pos < hi:
                row = own[pos]
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
                            b = key[w] - d
                            key[w] = b
                            if b < step:
                                wipeout = True
                        else:
                            key[w] += 1
                    if not wipeout:
                        break
                    _undo(ws, row, key, d)
                pos += 1
            if pos < hi:
                break
            if not trail:
                return EXHAUSTED, None, nodes
            cur = trail.pop()
            top = tops.pop()
            own = rows[cur]
            size = sizes[cur]
            pos = pos_of[cur]
            key[cur] -= assigned_off
            _undo(nbrs[cur], own[pos], key, d)
            pos += 1
        pos_of[cur] = pos
        key[cur] += assigned_off
        trail.append(cur)
        tops.append(top)
        if pos > top:
            top = pos
        if len(trail) == nv:
            return FOUND, [dom_off[v] + pos_of[v] for v in range(nv)], nodes


def _undo(ws, row, key, d):
    """Undo one assignment's key updates on its neighbours ``ws``: each
    regains an uncoloured neighbour, and the colour whose blocks ``row``
    holds is unblocked where its count returns to 0."""
    for w in ws:
        b = row[w] - 1
        row[w] = b
        if b == 0:
            key[w] += d
        else:
            key[w] -= 1
