"""Exact engines: backtracking list incidence colouring, incidence
chromatic number, exhaustive small-scale choosability, and the degeneracy
greedy."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from . import kernel
from .graphs import (
    Graph,
    IncidenceColouring,
    IncolourError,
    InputError,
    ListAssignment,
    check_lists_cover,
    incidence_neighbour_ids,
    validate_colouring,
)

COLOURED = "coloured"
UNSATISFIABLE = "unsatisfiable"
UNKNOWN = "unknown"

# Colourings the choosability sweep keeps for reuse as witnesses.
WITNESS_CACHE_SIZE = 16


@dataclass(frozen=True)
class SolverConfig:
    """Search budgets.  ``None`` means no limit; ``time_budget=0`` sets a
    deadline that has already passed (the kernel checks it every 1,024
    nodes).  A hit budget or deadline yields the distinguishable
    ``unknown`` outcome, never a wrong ``unsatisfiable``.  Negative (or
    NaN) budgets are rejected as configuration errors."""

    node_budget: Optional[int] = None
    time_budget: Optional[float] = None     # seconds

    def __post_init__(self):
        for name in ("node_budget", "time_budget"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise InputError(f"{name} must be >= 0, got {value}")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class SolveResult:
    status: str
    colouring: Optional[IncidenceColouring]
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == COLOURED


class ChiUnknown(IncolourError):
    """Budget ran out before the chromatic number was bracketed exactly."""

    def __init__(self, lower: int, upper: Optional[int]):
        self.lower = lower
        self.upper = upper
        super().__init__(f"incidence chromatic number in [{lower}, {upper}] (budget hit)")


class EnumerationBudgetExceeded(IncolourError):
    """The canonical list enumeration outgrew its budget."""


def _flatten(g: Graph, lists: ListAssignment):
    """The kernel's inputs ``(nv, dom_off, dom_val, adj_off, adj, uniform)``.

    The adjacency arrays are built once per graph and cached on it (the
    kernel only reads them).  ``uniform`` is true when every list equals
    the first one; the tuple comparison stops at the first unequal list.
    """
    if "kernel_adjacency" not in g._cache:
        adj_off = [0]
        adj: list[int] = []
        for ids in incidence_neighbour_ids(g):
            adj.extend(ids)
            adj_off.append(len(adj))
        g._cache["kernel_adjacency"] = (adj_off, adj)
    adj_off, adj = g._cache["kernel_adjacency"]
    nv = len(adj_off) - 1
    dom_off = [0]
    dom_val: list[int] = []
    for i in range(nv):
        dom_val.extend(sorted(lists[i]))
        dom_off.append(len(dom_val))
    uniform = nv > 0 and lists.lists == (lists[0],) * nv
    return nv, dom_off, dom_val, adj_off, adj, uniform


def solve_list_colouring(
    g: Graph,
    lists: ListAssignment,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> SolveResult:
    """Find a total, proper, list-respecting incidence colouring of ``g``
    or prove there is none.

    Any returned colouring is re-checked with :func:`validate_colouring`
    before being handed back.
    """
    check_lists_cover(g, lists)
    nv, dom_off, dom_val, adj_off, adj, uniform = _flatten(g, lists)
    deadline = time.monotonic() + cfg.time_budget if cfg.time_budget is not None else None
    status, slots, nodes = kernel.search(
        nv, dom_off, dom_val, adj_off, adj, uniform, cfg.node_budget, deadline)
    if status == kernel.FOUND:
        colouring = IncidenceColouring({i: dom_val[slots[i]] for i in range(nv)})
        verdict = validate_colouring(g, lists, colouring)
        if not verdict.ok:  # pragma: no cover - kernel soundness guard
            raise IncolourError(f"kernel produced an invalid colouring: {verdict.violation}")
        return SolveResult(COLOURED, colouring, nodes)
    if status == kernel.EXHAUSTED:
        return SolveResult(UNSATISFIABLE, None, nodes)
    return SolveResult(UNKNOWN, None, nodes)


def incidence_chromatic_number(g: Graph, cfg: SolverConfig = DEFAULT_CONFIG) -> int:
    """Smallest p admitting an incidence colouring with colours {1..p}.

    The sweep climbs from the lower bound ``max_degree + 1``.  It stops at
    the largest colour that :func:`greedy_degenerate` uses on the lists
    ``{1..3*max_degree-2}`` (``{1, 2}`` when the maximum degree is 1): the
    re-validated greedy colouring proves that value without a search.  If
    the greedy gets stuck, the sweep runs up to ``3*max_degree - 2``.
    Raises :class:`ChiUnknown` with the tightest proven bracket if the
    budget runs out mid-sweep.
    """
    if not g.edges:
        return 0
    delta = g.max_degree
    hi = 2 if delta == 1 else 3 * delta - 2
    greedy = greedy_degenerate(g, ListAssignment.uniform(g, hi))
    proven = None
    if greedy.found:
        proven = hi = max(greedy.colouring.assignment.values())
        verdict = validate_colouring(g, ListAssignment.uniform(g, hi), greedy.colouring)
        if not verdict.ok:  # pragma: no cover - greedy soundness guard
            raise IncolourError(f"greedy produced an invalid colouring: {verdict.violation}")
    for p in range(delta + 1, hi + 1):
        if p == proven:
            return p
        res = solve_list_colouring(g, ListAssignment.uniform(g, p), cfg)
        if res.status == COLOURED:
            return p
        if res.status == UNKNOWN:
            raise ChiUnknown(p, hi)
    raise IncolourError("no colouring found within the guaranteed upper bound")  # pragma: no cover


@dataclass(frozen=True)
class ChoosabilityResult:
    choosable: bool
    counterexample: Optional[ListAssignment]
    assignments_checked: int


def check_choosability_exhaustive(
    g: Graph,
    k: int,
    universe_size: int,
    cfg: SolverConfig = DEFAULT_CONFIG,
    assignment_budget: int = 2_000_000,
) -> ChoosabilityResult:
    """Exhaustively test k-list colourability over all canonical k-list
    assignments drawn from ``{1..universe_size}``.

    Canonical means colour names are interchangeable: the first incidence
    gets the list {1..k} and later lists introduce new colours in
    increasing order without gaps.  Universes above ``k * #incidences``
    add nothing (the union of all lists can never use more colours) and
    are rejected.  Any counterexample is re-checked by a fresh solver run
    before being returned.

    Consecutive assignments differ only in their last lists, so a proper
    colouring found for one usually fits the next.  The sweep keeps the
    last ``WITNESS_CACHE_SIZE`` validated colourings, most recently used
    first.  An assignment that one of them fits (every colour lies in its
    incidence's list) is colourable and is counted without a solve.  No
    colouring fits an unsatisfiable assignment, so the counterexample and
    ``assignments_checked`` are those of solving every assignment.  A
    witness can settle an assignment whose solve would have hit the
    node or time budget of ``cfg``; that turns a raise of
    :class:`EnumerationBudgetExceeded` into the correct answer and never
    into ``choosable=False``.
    """
    m = 2 * len(g.edges)
    if k < 1 or universe_size < k:
        raise InputError("need universe_size >= k >= 1")
    if m and universe_size > k * m:
        raise InputError("universe larger than k * #incidences is pointless")
    if m == 0:
        return ChoosabilityResult(True, None, 0)

    checked = 0
    lists_so_far: list[frozenset[int]] = [frozenset(range(1, k + 1))]

    def extend(pos: int, used: int):
        nonlocal checked
        if pos == m:
            checked += 1
            if checked > assignment_budget:
                raise EnumerationBudgetExceeded(
                    f"more than {assignment_budget} canonical assignments")
            yield lists_so_far
            return
        for fresh in range(0, k + 1):
            if used + fresh > universe_size:
                break
            new_part = tuple(range(used + 1, used + fresh + 1))
            for olds in itertools.combinations(range(1, used + 1), k - fresh):
                lists_so_far.append(frozenset(olds + new_part))
                yield from extend(pos + 1, used + fresh)
                lists_so_far.pop()

    witnesses: list[tuple[int, ...]] = []
    for raw in extend(1, k):
        if _fitting_witness(witnesses, raw) is not None:
            continue
        assignment = ListAssignment(raw)
        res = solve_list_colouring(g, assignment, cfg)
        if res.status == COLOURED:
            witnesses.insert(0, tuple(res.colouring[i] for i in range(m)))
            del witnesses[WITNESS_CACHE_SIZE:]
        elif res.status == UNKNOWN:
            raise EnumerationBudgetExceeded("solver budget hit inside the sweep")
        else:
            recheck = solve_list_colouring(g, assignment, DEFAULT_CONFIG)
            if recheck.status != UNSATISFIABLE:  # pragma: no cover
                raise IncolourError("counterexample failed its re-check")
            return ChoosabilityResult(False, assignment, checked)
    return ChoosabilityResult(True, None, checked)


def _fitting_witness(
    witnesses: list[tuple[int, ...]], lists: Sequence[frozenset[int]],
) -> Optional[tuple[int, ...]]:
    """The first of ``witnesses`` (colours by incidence id) whose every
    colour lies in its incidence's list, moved to the front; ``None`` when
    none fits."""
    for i, witness in enumerate(witnesses):
        if all(map(frozenset.__contains__, lists, witness)):
            if i:
                del witnesses[i]
                witnesses.insert(0, witness)
            return witness
    return None


@dataclass(frozen=True)
class DegeneracyOrder:
    """Removal sequence of repeated minimum-degree deletion.

    ``back_degrees[i]`` is the degree of ``sequence[i]`` at its removal,
    i.e. its number of neighbours later in the sequence; the maximum of
    these is the degeneracy.
    """

    sequence: tuple[int, ...]
    back_degrees: tuple[int, ...]

    @property
    def degeneracy(self) -> int:
        return max(self.back_degrees, default=0)


def degeneracy_order(adjacency: Sequence[Sequence[int]]) -> DegeneracyOrder:
    """Min-degree peeling order of an adjacency structure.

    Bucket queue with lazy deletion: vertices are re-appended on every
    degree drop, so an entry is live only when its recorded degree matches
    the bucket it was popped from.
    """
    n = len(adjacency)
    deg = [len(a) for a in adjacency]
    maxdeg = max(deg, default=0)
    buckets: list[list[int]] = [[] for _ in range(maxdeg + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)
    removed = [False] * n
    seq: list[int] = []
    back: list[int] = []
    cursor = 0
    for _ in range(n):
        while True:
            while not buckets[cursor]:
                cursor += 1
            v = buckets[cursor].pop()
            if not removed[v] and deg[v] == cursor:
                break
        seq.append(v)
        back.append(cursor)
        removed[v] = True
        for w in adjacency[v]:
            if not removed[w]:
                deg[w] -= 1
                buckets[deg[w]].append(w)
        if cursor > 0:
            cursor -= 1
    return DegeneracyOrder(tuple(seq), tuple(back))


def graph_degeneracy(g: Graph) -> int:
    return degeneracy_order(g.adj).degeneracy


@dataclass(frozen=True)
class GreedyResult:
    colouring: Optional[IncidenceColouring]
    stuck_incidence: Optional[int]
    order: DegeneracyOrder

    @property
    def found(self) -> bool:
        return self.colouring is not None


def greedy_degenerate(g: Graph, lists: ListAssignment) -> GreedyResult:
    """Colour incidences along a reversed degeneracy order of the incidence
    graph, always taking the smallest available list colour.

    Succeeds whenever every list has at least degeneracy+1 colours; running
    out of colours is a legitimate outcome reported with the stuck
    incidence, not an error.
    """
    check_lists_cover(g, lists)
    neigh = incidence_neighbour_ids(g)
    order = degeneracy_order(neigh)
    colours: dict[int, int] = {}
    for v in reversed(order.sequence):
        taken = {colours[w] for w in neigh[v] if w in colours}
        choice = min((c for c in lists[v] if c not in taken), default=None)
        if choice is None:
            return GreedyResult(None, v, order)
        colours[v] = choice
    return GreedyResult(IncidenceColouring(colours), None, order)
