"""Exact engines: backtracking list incidence colouring, incidence
chromatic number, exhaustive small-scale choosability, and the degeneracy
greedy."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from . import kernel
from .constructive.report import ConstructiveReport, Painter, StuckError
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
    NaN) budgets, a node budget that is not an int, and a time budget that
    is not an int or float, are rejected as configuration errors; a bool
    is neither."""

    node_budget: Optional[int] = None
    time_budget: Optional[float] = None     # seconds

    def __post_init__(self):
        if self.node_budget is not None and type(self.node_budget) is not int:
            raise InputError(f"node_budget must be an integer, got {self.node_budget!r}")
        if self.time_budget is not None and (
                type(self.time_budget) is bool or not isinstance(self.time_budget, (int, float))):
            raise InputError(f"time_budget must be a number of seconds, got {self.time_budget!r}")
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
    sets = lists.lists
    # the tuple comparison stops at the first list unequal to the first
    uniform = bool(sets) and sets == (sets[0],) * len(sets)
    # uniform lists are sorted once, and the kernel is passed that one list
    domains = [sorted(sets[0])] * len(sets) if uniform else [sorted(l) for l in sets]
    deadline = time.monotonic() + cfg.time_budget if cfg.time_budget is not None else None
    status, colours, nodes = kernel.search(
        domains, incidence_neighbour_ids(g), uniform, cfg.node_budget, deadline)
    if status == kernel.FOUND:
        colouring = IncidenceColouring._unchecked(dict(enumerate(colours)))
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
    the greedy gets stuck (:class:`StuckError`), the sweep runs up to
    ``3*max_degree - 2``.
    Raises :class:`ChiUnknown` with the tightest proven bracket if the
    budget runs out mid-sweep.
    """
    if not g.edges:
        return 0
    delta = g.max_degree
    hi = 2 if delta == 1 else 3 * delta - 2
    try:
        greedy = greedy_degenerate(g, ListAssignment.uniform(g, hi)).colouring
    except StuckError:
        proven = None
    else:
        proven = hi = max(greedy.assignment.values())
        verdict = validate_colouring(g, ListAssignment.uniform(g, hi), greedy)
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
    solves: int     # assignments solved; a counterexample's re-check is not counted


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
    before being returned; ``solves`` counts the assignments solved, not
    that re-check.

    A later list's candidates depend only on how many colours the lists
    before it use, so each count's candidate lists are built once per
    call: fewer new colours first, then the old colours in combination
    order.  The positions before the last are walked by recursion, and the
    last position is one loop over its candidates.

    Consecutive assignments differ only in their last lists, so a proper
    colouring found for one usually fits the next.  The sweep keeps the
    last ``WITNESS_CACHE_SIZE`` validated colourings, most recently used
    first, and one set per recursion level of those that fit the lists
    set so far: a level filters its parent's set by the one list it sets
    (never the first, which is always {1..k}).  A new colouring joins
    every set, since it fits every list, and an evicted one leaves them
    all.  An assignment is colourable, and counted without a solve, when
    a kept colouring in the deepest set has its last colour in the last
    list; the first such colouring moves to the front.  No colouring fits
    an unsatisfiable assignment, so the counterexample and
    ``assignments_checked`` are those of solving every assignment.  A
    witness can settle an assignment whose solve would have hit the node
    or time budget of ``cfg``; that turns a raise of
    :class:`EnumerationBudgetExceeded` into the correct answer and
    never into ``choosable=False``.
    """
    m = 2 * len(g.edges)
    if k < 1 or universe_size < k:
        raise InputError("need universe_size >= k >= 1")
    if m and universe_size > k * m:
        raise InputError("universe larger than k * #incidences is pointless")
    if m == 0:
        return ChoosabilityResult(True, None, 0, 0)

    # (list, colours used after it) for each count of colours used before it
    options = {
        used: [(frozenset(olds + tuple(range(used + 1, used + fresh + 1))), used + fresh)
               for fresh in range(min(k, universe_size - used) + 1)
               for olds in itertools.combinations(range(1, used + 1), k - fresh)]
        for used in range(k, universe_size + 1)
    }
    last = m - 1
    lists = [frozenset(range(1, k + 1))] * m   # the walk sets every later list
    witnesses: list[tuple[int, ...]] = []
    fits: list[set[tuple[int, ...]]] = [set()]   # per level: the kept that fit lists[1:pos]
    checked = solves = 0

    def walk(pos: int, used: int) -> Optional[ListAssignment]:
        nonlocal checked, solves
        fit = fits[-1]
        if pos < last:
            for option, after in options[used]:
                lists[pos] = option
                fits.append({w for w in fit if w[pos] in option})
                found = walk(pos + 1, after)
                fits.pop()
                if found is not None:
                    return found
            return None
        for final, _ in options[used]:
            checked += 1
            if checked > assignment_budget:
                raise EnumerationBudgetExceeded(
                    f"more than {assignment_budget} canonical assignments")
            lists[last] = final
            if _fitting_witness(witnesses, fit, lists) is not None:
                continue
            # canonical k-sets of ints from 1 up: nothing to check
            assignment = ListAssignment._unchecked(tuple(lists))
            res = solve_list_colouring(g, assignment, cfg)
            solves += 1
            if res.status == COLOURED:
                witness = tuple(res.colouring[i] for i in range(m))
                witnesses.insert(0, witness)
                for s in fits:   # it fits every level; the evicted fit none
                    s.add(witness)
                    s.difference_update(witnesses[WITNESS_CACHE_SIZE:])
                del witnesses[WITNESS_CACHE_SIZE:]
            elif res.status == UNKNOWN:
                raise EnumerationBudgetExceeded("solver budget hit inside the sweep")
            else:
                recheck = solve_list_colouring(g, assignment, DEFAULT_CONFIG)
                if recheck.status != UNSATISFIABLE:  # pragma: no cover
                    raise IncolourError("counterexample failed its re-check")
                return assignment
        return None

    counterexample = walk(1, k)
    return ChoosabilityResult(counterexample is None, counterexample, checked, solves)


def _fitting_witness(
    witnesses: list[tuple[int, ...]],
    fit: set[tuple[int, ...]],
    lists: Sequence[frozenset[int]],
) -> Optional[tuple[int, ...]]:
    """The first colouring of ``witnesses`` (colours by incidence id) that
    is in ``fit``, the set of those whose other colours lie in their
    lists, and whose last colour lies in the last of ``lists``, moved to
    the front of ``witnesses``; ``None`` when none fits."""
    final = lists[-1]
    for i, witness in enumerate(witnesses):
        if witness in fit and witness[-1] in final:
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


def greedy_degenerate(g: Graph, lists: ListAssignment) -> ConstructiveReport:
    """Colour incidences along a reversed degeneracy order of the incidence
    graph, each with the least list colour that no painted neighbour holds:
    :meth:`Painter.fill` with the tag ``degenerate-greedy``.

    Succeeds whenever every list has at least degeneracy + 1 colours, and
    returns the colouring with its trace.  A list that runs out raises
    :class:`StuckError` with the incidence and the trace so far.
    """
    painter = Painter(g, lists)
    order = degeneracy_order(incidence_neighbour_ids(g))
    painter.fill(reversed(order.sequence), "degenerate-greedy")
    return painter.report()
