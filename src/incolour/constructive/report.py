"""Shared machinery for the constructive colouring procedures: a painter
that applies one colour at a time with full validity checks (or a whole
ring at once, with the leaf ends of its spokes, by an exact polynomial
transfer), and the replayable report it produces.  Nothing here searches
exponentially: the constructive layer never calls the solver."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from ..graphs import (
    Graph,
    GraphError,
    IncidenceColouring,
    IncolourError,
    ListAssignment,
    _vertex_index,
    check_lists_cover,
    incidence_neighbour_ids,
)


@dataclass(frozen=True, slots=True)
class TraceStep:
    incidence: int
    colour: int
    tag: str


class StuckError(IncolourError):
    """A constructive step found its colour list exhausted, or a ring
    coloured whole has no colouring.

    The procedures are guaranteed to finish at their stated list sizes,
    so any escape of this exception is a faithful bug report; the
    partial trace identifies the failing step.
    """

    def __init__(self, incidence: int, tag: str, trace: Sequence[TraceStep]):
        self.incidence = incidence
        self.tag = tag
        self.trace = tuple(trace)
        super().__init__(f"no colour available for incidence {incidence} at step {tag!r}")


@dataclass(frozen=True)
class ConstructiveReport:
    """A colouring together with the ordered choices that produced it.

    Replaying the trace greedily (checking list membership and adjacency
    at each application) reproduces the colouring exactly.
    """

    colouring: IncidenceColouring
    trace: tuple[TraceStep, ...]

    def replay(self, g: Graph, lists: ListAssignment) -> IncidenceColouring:
        neigh = incidence_neighbour_ids(g)
        out: dict[int, int] = {}
        for step in self.trace:
            if step.colour not in lists[step.incidence]:
                raise IncolourError(f"replay: colour outside list at {step}")
            if step.incidence in out:
                raise IncolourError(f"replay: incidence {step.incidence} painted twice")
            for w in neigh[step.incidence]:
                if out.get(w) == step.colour:
                    raise IncolourError(f"replay: conflict at {step}")
            out[step.incidence] = step.colour
        replayed = IncidenceColouring(out)
        if replayed != self.colouring:
            raise IncolourError("replay does not reproduce the colouring")
        return replayed


class Painter:
    """Incremental colouring state for one constructive run.

    ``paint`` checks list membership and adjacency on every application;
    ``greedy`` picks the smallest colour that survives the incidence's
    already-coloured neighbourhood plus any extra forbidden set.
    """

    def __init__(self, g: Graph, lists: ListAssignment):
        check_lists_cover(g, lists)
        self.graph = g
        self.lists = lists
        self.neigh = incidence_neighbour_ids(g)
        self._adj = g.adj
        self._off = _vertex_index(g)[0]
        self.colour: dict[int, int] = {}
        self.trace: list[TraceStep] = []

    def id_of(self, vertex: int, other: int) -> int:
        """:func:`graphs.incidence_id` on the painter's graph."""
        if 0 <= vertex < len(self._adj):
            nbrs = self._adj[vertex]
            pos = bisect_left(nbrs, other)
            if pos < len(nbrs) and nbrs[pos] == other:
                return self._off[vertex] + pos
        raise GraphError(f"({vertex}, {vertex}{other}) is not an incidence")

    def painted(self, i: int) -> bool:
        return i in self.colour

    def forbidden(self, i: int) -> set[int]:
        return {self.colour[w] for w in self.neigh[i] if w in self.colour}

    def free(self, i: int, extra: Iterable[int] = ()) -> list[int]:
        bad = self.forbidden(i)
        bad.update(extra)
        return sorted(self.lists[i] - bad)

    def paint(self, i: int, colour: int, tag: str) -> None:
        self._set(i, colour, tag, self.forbidden(i))

    def greedy(self, i: int, tag: str, extra: Iterable[int] = ()) -> int:
        bad = self.forbidden(i)
        bad.update(extra)
        choices = self.lists[i] - bad
        if not choices:
            raise StuckError(i, tag, self.trace)
        colour = min(choices)
        self._set(i, colour, tag, bad)
        return colour

    def _set(self, i: int, colour: int, tag: str, bad: set[int]) -> None:
        """Paint ``colour`` at ``i`` with every check of ``paint``; ``bad``
        holds every colour that a painted neighbour of ``i`` holds."""
        if i in self.colour:
            raise IncolourError(f"incidence {i} painted twice (step {tag!r})")
        if colour not in self.lists[i]:
            raise IncolourError(f"colour {colour} outside list of incidence {i} (step {tag!r})")
        if colour in bad:
            raise IncolourError(f"colour {colour} conflicts at incidence {i} (step {tag!r})")
        self.colour[i] = colour
        self.trace.append(TraceStep(i, colour, tag))

    def unpaint(self, i: int) -> None:
        del self.colour[i]
        for pos in range(len(self.trace) - 1, -1, -1):
            if self.trace[pos].incidence == i:
                del self.trace[pos]
                break

    def paint_ring(self, ring: Sequence[int], tag: str,
                   spokes: Optional[Mapping[int, int]] = None) -> None:
        """Colour the cycle ``ring`` exactly: its edges unpainted, with
        ``spokes`` also the incidence x_i = (r_i, r_i s_i) of each rim vertex
        on its spoke to s_i = ``spokes[r_i]``, and all else they see painted.

        Block i is (x_i, a_i, b_i), with a_i = (r_i, r_i r_{i+1}) and b_i =
        (r_{i+1}, r_{i+1} r_i), and no x_i without spokes.  A block sees
        only the blocks before and after it, and only their (a, b): x_i
        avoids a_{i-1} and b_{i-1}; a_i avoids a_{i-1}, b_{i-1} and x_i; b_i
        avoids b_{i-1}, a_i and x_i; block 0 follows the last.  The blocks
        are painted in order, x_i, a_i, b_i, from the first start block, in
        sorted order, whose search closes the ring (:func:`_strip`); else
        StuckError."""
        ids = [(None if spokes is None else self.id_of(r, spokes[r]),
                self.id_of(r, s), self.id_of(s, r))
               for r, s in zip(ring, [*ring[1:], ring[0]])]
        # exact: a spoke or a bare rim incidence has four ring neighbours and
        # a rim incidence beside spokes six, so a colour outside its five (or
        # seven) least free colours can always be swapped for one of them
        cut = 5 if spokes is None else 7
        lists = [([None] if x is None else self.free(x)[:5], self.free(a)[:cut],
                  self.free(b)[:cut]) for x, a, b in ids]
        for start in _blocks(*lists[0]):
            if blocks := _strip(lists, start):
                for block_ids, block in zip(ids, blocks):
                    for i, c in zip(block_ids, block):
                        if i is not None:
                            self.paint(i, c, tag)
                return
        raise StuckError(ids[0][1], tag, self.trace)

    def report(self) -> ConstructiveReport:
        if len(self.colour) != len(self.neigh):
            missing = next(i for i in range(len(self.neigh)) if i not in self.colour)
            raise IncolourError(f"colouring incomplete: incidence {missing} unpainted")
        return ConstructiveReport(IncidenceColouring(self.colour), tuple(self.trace))


def _blocks(x_list, a_list, b_list, before=()):
    """The blocks (x, a, b) from these lists that may follow a block ending
    in ``before`` = (a, b), or start the ring when it is empty."""
    return ((x, a, b) for x in x_list if x not in before
            for a in a_list if a != x and a not in before
            for b in b_list if b != x and b != a and b not in before[1:])


def _strip(lists: Sequence[tuple], start: tuple) -> Optional[list[tuple]]:
    """Blocks 0, 1, ... from ``lists`` that begin with ``start`` and close
    the ring, or None.  A depth-first search appends a copy of ``start`` as
    the block after the last, so reaching it closes the ring.  The future of
    block i depends only on (a_i, b_i), so a state (i, a_i, b_i) found dead
    is never entered again: at most 49 states per block, polynomial."""
    steps = [*lists[1:], [[c] for c in start]]
    path, dead = [start], set()
    todo = [_blocks(*steps[0], start[1:])]
    while todo:
        for block in todo[-1]:
            if (len(path), *block[1:]) not in dead:
                path.append(block)
                if len(path) > len(steps):
                    return path[:-1]
                todo.append(_blocks(*steps[len(path) - 1], block[1:]))
                break
        else:
            todo.pop()
            dead.add((len(path) - 1, *path.pop()[1:]))
    return None
