"""Shared machinery for the constructive colouring procedures: a painter
that applies one colour at a time with full validity checks (or a whole
ring at once, with the internals at its vertices, such as the leaf ends
of a Halin rim's spokes or a corona unit's pendant edges, by an exact
polynomial transfer), and the replayable report it produces.  Nothing
here searches exponentially: the constructive layer never calls the
solver."""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Container, Iterable, NamedTuple, Optional, Sequence

from ..graphs import (
    Graph,
    IncidenceColouring,
    IncolourError,
    ListAssignment,
    _vertex_index,
    check_lists_cover,
    incidence_id,
    validate_colouring,
)


class TraceStep(NamedTuple):
    incidence: int
    colour: int
    tag: str


def _trace(holder) -> tuple[TraceStep, ...]:
    """``holder._trace``, a list of ``(incidence, colour, tag)`` tuples, as
    a tuple of :class:`TraceStep`, built on the first read and kept: the
    painter records plain tuples, and a trace nobody reads never becomes
    steps."""
    if type(holder._trace) is list:
        holder._trace = tuple(map(TraceStep._make, holder._trace))
    return holder._trace


class StuckError(IncolourError):
    """A constructive step found its colour list exhausted, or a ring
    coloured whole has no colouring.

    The procedures are guaranteed to finish at their stated list sizes,
    so any escape of this exception is a faithful bug report; the
    partial trace identifies the failing step.
    """

    def __init__(self, incidence: int, tag: str, trace: Iterable[tuple]):
        self.incidence = incidence
        self.tag = tag
        self._trace = list(trace)   # the steps so far: the painter may go on
        super().__init__(f"no colour available for incidence {incidence} at step {tag!r}")

    trace = property(_trace)


class ConstructiveReport:
    """A colouring together with the ordered choices that produced it.

    Replaying the trace (each step on an incidence of the graph, none
    painted twice, and the result checked for list membership and
    adjacency by :func:`graphs.validate_colouring`) reproduces the
    colouring exactly.  ``trace`` is a tuple of :class:`TraceStep`, built
    from the given steps on its first read.
    """

    __slots__ = ("colouring", "_trace")

    def __init__(self, colouring: IncidenceColouring, trace: Iterable[tuple]):
        self.colouring = colouring
        self._trace = trace if type(trace) is list else list(trace)

    trace = property(_trace)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ConstructiveReport) and self.colouring == other.colouring
                and self.trace == other.trace)

    def replay(self, g: Graph, lists: ListAssignment) -> IncidenceColouring:
        check_lists_cover(g, lists)
        out = IncidenceColouring()
        for step in self.trace:
            if not 0 <= step.incidence < len(lists):
                raise IncolourError(f"replay: no incidence {step.incidence} in the graph at {step}")
            if step.incidence in out:
                raise IncolourError(f"replay: incidence {step.incidence} painted twice")
            out[step.incidence] = step.colour
        verdict = validate_colouring(g, lists, out)
        if not (verdict.proper and verdict.list_respecting):
            raise IncolourError(f"replay: {verdict.violation}")
        if out != self.colouring:
            raise IncolourError("replay does not reproduce the colouring")
        return out


class Painter:
    """Incremental colouring state for one constructive run.

    ``paint`` checks list membership and adjacency on every application.
    The painting rules the procedures share are written once here:
    ``fill`` (the least colour that survives the already-coloured
    neighbourhood, on whatever is still unpainted), ``greedy_tree`` (root
    to leaves, for trees and the inner tree of a Halin graph) and
    ``paint_ring`` (a cycle with its internals, exactly).

    The painter reads adjacency from the graph's per-vertex index
    (:func:`graphs._vertex_index`: ``off``, ``head``, ``mate``, ``tail``),
    never from :func:`graphs.incidence_neighbour_ids`, which only the
    solver (the exact search, and the order of its degeneracy greedy, which
    paints through :meth:`fill`) and the DOT export build, and
    :func:`graphs.validate_colouring` only when it reports a clash.
    :meth:`ConstructiveReport.replay` builds no table of its own: it hands
    adjacency to the validator.
    ``colour[i]`` is the colour of incidence ``i`` (None while unpainted).
    Two sets per vertex hold the colours painted around it: ``AT[v]`` those
    of the incidences at ``v``, and ``IN[v]`` those of the incidences
    ``(w, wv)`` into ``v``.  A run only ever adds colours, so the sets stay
    exact, and the colours that ``i = (v, vu)`` must avoid are ``AT[v] |
    IN[v] | AT[u]``, less ``i``'s own colour.  Colours are only compared
    and ordered, never computed with, so they may be any non-negative ints.
    Each paint records a plain ``(incidence, colour, tag)`` tuple.  Reading
    a trace builds its :class:`TraceStep` values from those tuples and
    leaves the painter's record as it is.
    """

    def __init__(self, g: Graph, lists: ListAssignment):
        check_lists_cover(g, lists)
        self.graph = g
        self.lists = lists
        self._off, self._head, self._mate, self._tail = _vertex_index(g)
        self.colour: list[Optional[int]] = [None] * len(self._head)
        self.AT: list[set[int]] = [set() for _ in range(g.n)]
        self.IN: list[set[int]] = [set() for _ in range(g.n)]
        self._steps: list[tuple] = []   # (incidence, colour, tag) per paint

    @property
    def trace(self) -> list[TraceStep]:
        """The steps painted so far, in order, as a new list; read it again
        after painting more."""
        return list(map(TraceStep._make, self._steps))

    def free(self, i: int) -> list[int]:
        v, u = self._tail[i], self._head[i]
        out = self.lists[i].difference(self.AT[v], self.IN[v], self.AT[u])
        # a painted i keeps its own colour, which no neighbour holds
        return sorted(out if self.colour[i] is None else out | {self.colour[i]})

    def paint(self, i: int, colour: int, tag: str) -> None:
        if self.colour[i] is not None:
            raise IncolourError(f"incidence {i} painted twice (step {tag!r})")
        if colour not in self.lists[i]:
            raise IncolourError(f"colour {colour} outside list of incidence {i} (step {tag!r})")
        v, u = self._tail[i], self._head[i]
        at_v = self.AT[v]
        if colour in at_v or colour in self.IN[v] or colour in self.AT[u]:
            raise IncolourError(f"colour {colour} conflicts at incidence {i} (step {tag!r})")
        self.colour[i] = colour
        at_v.add(colour)
        self.IN[u].add(colour)
        self._steps.append((i, colour, tag))

    def fill(self, ids: Iterable[int], tag: str) -> None:
        """Paint each of ``ids`` still unpainted, in order, with the least
        colour of its list that none of its neighbours holds."""
        colour, lists, head, tail = self.colour, self.lists, self._head, self._tail
        AT, IN, steps = self.AT, self.IN, self._steps
        for i in ids:
            if colour[i] is None:
                v, u = tail[i], head[i]
                choices = lists[i].difference(AT[v], IN[v], AT[u])
                if not choices:
                    raise StuckError(i, tag, steps)
                c = min(choices)
                colour[i] = c
                AT[v].add(c)
                IN[u].add(c)
                steps.append((i, c, tag))

    def greedy_tree(self, root: int, tag: str, outside: Container[int] = ()) -> None:
        """Paint root to leaves: breadth first from ``root`` over the
        vertices not in ``outside``, at each vertex its incidence towards its
        parent first, then the others in id order (those towards ``outside``
        included), by :meth:`fill`.  On a tree each step then sees at most
        the maximum degree's number of painted colours."""
        off, head, mate = self._off, self._head, self._mate
        up: dict[int, Optional[int]] = {root: None}
        order = [root]
        for v in order:
            ids = range(off[v], off[v + 1])
            for i in ids:
                if head[i] not in up and head[i] not in outside:
                    up[head[i]] = mate[i]
                    order.append(head[i])
            if up[v] is not None:
                self.fill((up[v],), tag)
            self.fill(ids, tag)

    def paint_ring(self, ring: Sequence[int], tag: str) -> None:
        """Colour the cycle ``ring`` exactly: its edges unpainted, and the
        internals at each ring vertex r_i, the unpainted incidences (r_i,
        r_i w) with w off the ring, in id order: the leaf end of a Halin
        spoke, or a cycle unit's pendant edges.  Every list is the
        incidence's free list (:meth:`free`), so colours painted before
        count wherever they lie.  Anything else they see is painted
        already, or later by a step that cannot get stuck, like a unit's
        externals (w, w r_i): they see only the d(r_i) incidences at r_i and
        go last with d(r_i) + 1 colours.

        Block i is (a_i, b_i), with a_i = (r_i, r_i r_{i+1}) and b_i =
        (r_{i+1}, r_{i+1} r_i).  A block sees only the blocks before and
        after it: a_i avoids a_{i-1} and b_{i-1}, b_i avoids b_{i-1} and
        a_i; block 0 follows the last.  An internal at r_i sees, of the
        ring, a_{i-1}, b_{i-1}, a_i and b_i, so the internals at r_i must
        keep distinct colours once those four are removed (Hall), a check on
        each pair of consecutive blocks.  The blocks are painted in order
        from the first start block, in sorted order, whose search closes the
        ring (:func:`_strip`), then the internals vertex by vertex; else
        StuckError, with nothing painted."""
        n = len(ring)
        g, off, head, colour = self.graph, self._off, self._head, self.colour
        ids = [(a := incidence_id(g, r, s), self._mate[a])
               for r, s in zip(ring, [*ring[1:], ring[0]])]
        on_ring = set(ring)
        rows = [[t for t in range(off[r], off[r + 1])
                 if head[t] not in on_ring and colour[t] is None] for r in ring]
        pend = [[self.free(t) for t in row] for row in rows]
        # exact: a colour outside an incidence's least free colours, one
        # more than its unpainted neighbours here (four on the ring, the
        # internals beside it), can always be swapped for one of them
        near = [4 + len(rows[i]) + len(rows[(i + 1) % n]) for i in range(n)]
        lists = [(self.free(a)[:k + 1], self.free(b)[:k + 1]) for (a, b), k in zip(ids, near)]
        # the internals' colours for (r_j, a_{j-1}, b_{j-1}, a_j, b_j), or None
        fits: dict[tuple, Optional[list[int]]] = {}

        def pair(j: int, before: tuple, block: tuple) -> bool:
            if not pend[j % n]:
                return True
            key = (j % n, *before, *block)
            if key not in fits:
                fits[key] = _distinct(pend[key[0]], key[1:])
            return fits[key] is not None

        for start in _blocks(*lists[0]):
            if blocks := _strip(lists, start, pair):
                for block_ids, block in zip(ids, blocks):
                    for i, c in zip(block_ids, block):
                        self.paint(i, c, tag)
                for j, row in enumerate(rows):
                    if row:
                        for t, c in zip(row, fits[(j, *blocks[j - 1], *blocks[j])]):
                            self.paint(t, c, tag)
                return
        raise StuckError(ids[0][0], tag, self._steps)

    def report(self) -> ConstructiveReport:
        if None in self.colour:
            missing = self.colour.index(None)
            raise IncolourError(f"colouring incomplete: incidence {missing} unpainted")
        colouring = IncidenceColouring(enumerate(self.colour))
        # nothing is painted after this, so the report may share the steps
        return ConstructiveReport(colouring, self._steps)


def _schedule(m: int, runs: Iterable[tuple[str, Iterable[int]]]) -> tuple:
    """``runs``, ``(tag, ids)`` pairs in painting order, as tuples, with
    consecutive runs of one tag joined, checked to name each of the ``m``
    incidences exactly once.  A rule that caches its schedule per graph
    checks it once here; a painter that starts unpainted
    (:func:`_check_unpainted`) then never paints one twice."""
    seen = bytearray(m)
    out = tuple((tag, tuple(i for _, ids in group for i in ids))
                for tag, group in groupby(runs, lambda run: run[0]))
    for tag, ids in out:
        for i in ids:
            if seen[i]:
                raise IncolourError(f"incidence {i} scheduled twice (step {tag!r})")
            seen[i] = 1
    if 0 in seen:
        raise IncolourError(f"incidence {seen.index(0)} never scheduled")
    return out


def _check_unpainted(painter: Painter, schedule: tuple) -> None:
    """Raise :class:`IncolourError`, as painting it again would, at the
    first incidence of ``schedule`` that ``painter`` holds painted."""
    colour = painter.colour
    if colour.count(None) < len(colour):
        tag, i = next((tag, i) for tag, ids in schedule for i in ids if colour[i] is not None)
        raise IncolourError(f"incidence {i} painted twice (step {tag!r})")


def _blocks(a_list, b_list, before=()):
    """The blocks (a, b) from these lists that may follow the block
    ``before``, or start the ring when it is empty."""
    return ((a, b) for a in a_list if a not in before
            for b in b_list if b != a and b not in before[1:])


def _strip(lists: Sequence[tuple], start: tuple,
           pair: Callable[[int, tuple, tuple], bool]) -> Optional[list[tuple]]:
    """Blocks 0, 1, ... from ``lists`` that begin with ``start`` and close
    the ring, or None; block j may follow block j - 1 only when
    ``pair(j, block_before, block)`` holds.  A depth-first search appends a
    copy of ``start`` as the block after the last, so reaching it closes
    the ring.  The future of block i depends only on block i, so a state
    (i, a_i, b_i) found dead is never entered again: at most |a_i| times
    |b_i| states per block, polynomial."""
    steps = [*lists[1:], [[c] for c in start]]
    path, dead = [start], set()
    todo = [_blocks(*steps[0], start)]
    while todo:
        for block in todo[-1]:
            if (len(path), *block) not in dead and pair(len(path), path[-1], block):
                path.append(block)
                if len(path) > len(steps):
                    return path[:-1]
                todo.append(_blocks(*steps[len(path) - 1], block))
                break
        else:
            # the pair check at the start's own vertex comes last: at the
            # first dead end, refute a start that no last block passes
            if not dead and not any(
                    pair(len(steps), last, start) for last in _blocks(*steps[-2])
                    if start in _blocks(*steps[-1], last)):
                return None
            todo.pop()
            dead.add((len(path) - 1, *path.pop()))
    return None


def _distinct(lists: Sequence[Sequence[int]], used: Container[int]) -> Optional[list[int]]:
    """One colour from each of ``lists``, all distinct and none in ``used``,
    or None when there is no such choice (Hall): each list's least free
    colour in turn, and an augmenting path (:func:`_augment`) only where
    that sticks."""
    owner: dict[int, int] = {}
    for t, options in enumerate(lists):
        for c in options:
            if c not in used and c not in owner:
                owner[c] = t
                break
        else:
            if not _augment(lists, used, owner, t, set()):
                return None
    return sorted(owner, key=owner.get)


def _augment(lists: Sequence[Sequence[int]], used: Container[int], owner: dict[int, int],
             t: int, seen: set) -> bool:
    """Give list ``t`` a colour of its own in ``owner`` (colour -> list),
    passing an owned colour on to another of its lists where needed;
    False when no augmenting path avoids ``seen``."""
    for c in lists[t]:
        if c not in used and c not in seen:
            seen.add(c)
            if c not in owner or _augment(lists, used, owner, owner[c], seen):
                owner[c] = t
                return True
    return False
