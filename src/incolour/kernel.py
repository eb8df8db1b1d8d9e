"""The backtracking kernel for list colouring: one search, compiled from
``kernel.c`` and, node for node the same, in pure Python.

Inputs are the structures the library already holds:

* ``domains``: per-variable sorted colour lists, each colour once,
* ``nbrs``: per-variable neighbour ids (the graph's cached
  ``incidence_neighbour_ids``, which the kernel only reads),
* ``uniform``: true only when every domain is the same list (see
  :func:`search`).

:func:`search` runs the C kernel.  The first search builds it with the
system C compiler into a per-user cache and loads it with ``ctypes``
(:mod:`incolour._ckernel`); where no compiler runs or the build fails,
every search runs the Python kernel, which is also the reference the C
kernel is tested against.  :func:`backend_name` says which kernel
searches have run on, and ``None`` before the first search.  Both
kernels keep the one data layout that :func:`search` describes.

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
from itertools import accumulate
from typing import Optional

FOUND = 0
EXHAUSTED = 1
CUTOFF = 2

# the C kernel's search once the first search has tried to build it, and
# False where it could not be built or loaded
_c_search = None


def backend_name() -> Optional[str]:
    """The kernel searches have run on, ``"c"`` or ``"python"``, as
    benchmark runs record it, and ``None`` before the first search: it
    builds and loads nothing itself."""
    if _c_search is None:
        return None
    return "c" if _c_search else "python"


def search(domains, nbrs, uniform, node_budget, deadline):
    """Backtracking with forward checking.

    Variable order: minimum remaining values (most constrained first),
    ties broken by the most uncoloured neighbours (the DSatur rule,
    Brélaz 1979), then by the lowest id.  Value order: ascending within
    each domain (the domains arrive sorted).  Returns ``(status, colours,
    nodes)`` where ``colours[v]`` is the colour chosen for v when the
    search found a colouring, and ``colours`` is ``None`` otherwise.

    Both criteria live in one key per variable, ``key[v] = navail * (D + 1)
    + (D - unc)``, with ``navail`` v's unblocked colours, ``unc`` its
    uncoloured neighbours and D the largest neighbour count.  Assigning a
    variable adds 1 to each neighbour's key (one fewer uncoloured
    neighbour) and takes D + 1 off it when the colour is newly blocked
    there; undoing reverses both.  A key below D + 1 is a wipeout.  While v
    is assigned its ``navail`` carries an offset of dmax + 1 (dmax the
    largest domain), which lifts its key above every unassigned one, so the
    pick is the first variable holding the smallest key.

    The layout: one block count per (variable, domain position), ``cnt``,
    and per search a table of slots that gives, for each (variable,
    position, neighbour), the index in ``cnt`` of that colour's count in
    the neighbour's domain, or -1 where that domain lacks the colour.  So
    memory follows list size times degree, whatever the number of distinct
    colours.  Neighbour ids outside ``0..nv-1`` raise ValueError.

    Both kernels count a node per value tried, stop with ``CUTOFF`` as soon
    as the count passes ``node_budget``, and compare the clock with
    ``deadline`` (a ``time.monotonic`` value) at every node whose count is
    a multiple of 1,024.

    ``uniform`` promises that every domain is the same list.  The caller
    may then pass one list object for every variable, as the solver does,
    and the C kernel's marshaller copies ``domains[0]`` alone into its
    arrays.  So the flag set on unequal domains breaks the contract: the C
    search runs on the first domain everywhere.
    """
    c_search = _compiled()
    if c_search:
        return c_search(domains, nbrs, uniform, node_budget, deadline)
    return _search_python(domains, nbrs, uniform, node_budget, deadline)


def _compiled():
    """The C kernel's search, built and loaded on the first call; False
    where that fails."""
    global _c_search
    if _c_search is None:
        from . import _ckernel
        _c_search = _ckernel.load() or False
    return _c_search


def _search_python(domains, nbrs, uniform, node_budget, deadline):
    """:func:`search` in pure Python on ``kernel.c``'s arrays: the reference
    for the C kernel and the kernel of hosts without a C compiler."""
    nv = len(domains)
    if nv == 0:
        return FOUND, [], 0
    # ks_new: v's counts start at doff[v]; slots[v][pos][j] is the slot of
    # the colour at pos in v's j-th neighbour, from its {colour: index}
    if len(nbrs) != nv or not all(min(ws) >= 0 and max(ws) < nv for ws in nbrs if ws):
        raise ValueError("neighbour ids must name the variables 0..nv-1")
    doff = list(accumulate(map(len, domains), initial=0))
    index_of = [{c: o + p for p, c in enumerate(dom)}.get for dom, o in zip(domains, doff)]
    slots = []
    for dom, ws in zip(domains, nbrs):
        gets = [index_of[w] for w in ws]
        slots.append([[get(c, -1) for get in gets] for c in dom])
    cnt = [0] * doff[-1]
    sizes = list(map(len, domains))
    dmax = max(sizes)
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
    # ks_run
    while True:
        # the lowest id among the least keys
        cur = key.index(min(key))
        size = sizes[cur]
        pos = 0
        while True:
            hi = top + 2 if top + 2 < size else size
            while pos < hi:
                if cnt[doff[cur] + pos] == 0:
                    nodes += 1
                    if nodes > limit:
                        return CUTOFF, None, nodes
                    if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
                        return CUTOFF, None, nodes
                    # assign
                    ws = nbrs[cur]
                    sl = slots[cur][pos]
                    wipeout = False
                    for w, c in zip(ws, sl):
                        if c >= 0:
                            b = cnt[c]
                            cnt[c] = b + 1
                            if b == 0:
                                b = key[w] - d
                                key[w] = b
                                if b < step:
                                    wipeout = True
                                continue
                        key[w] += 1
                    if not wipeout:
                        break
                    _undo(ws, sl, cnt, key, d)
                pos += 1
            if pos < hi:
                break
            if not trail:
                return EXHAUSTED, None, nodes
            cur = trail.pop()
            top = tops.pop()
            size = sizes[cur]
            pos = pos_of[cur]
            key[cur] -= assigned_off
            _undo(nbrs[cur], slots[cur][pos], cnt, key, d)
            pos += 1
        pos_of[cur] = pos
        key[cur] += assigned_off
        trail.append(cur)
        tops.append(top)
        if pos > top:
            top = pos
        if len(trail) == nv:
            return FOUND, [domains[v][pos_of[v]] for v in range(nv)], nodes


def _undo(ws, sl, cnt, key, d):
    """kernel.c's undo: each neighbour in ``ws`` regains an uncoloured
    neighbour, and the colour is unblocked where its count, at index
    ``sl[j]`` of ``cnt`` (-1: none), returns to 0."""
    for w, c in zip(ws, sl):
        if c >= 0:
            b = cnt[c] - 1
            cnt[c] = b
            if b == 0:
                key[w] += d
                continue
        key[w] -= 1
