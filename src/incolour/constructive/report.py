"""Shared machinery for the constructive colouring procedures: a painter
that applies one colour at a time with full validity checks (or a whole
ring at once, exactly), and the replayable report it produces."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Collection, Iterable, Optional, Sequence

from ..graphs import (
    Graph,
    IncidenceColouring,
    IncolourError,
    ListAssignment,
    check_lists_cover,
    incidence_id,
    incidence_neighbour_ids,
)
from ..solver import solve_list_colouring


@dataclass(frozen=True)
class TraceStep:
    incidence: int
    colour: int
    tag: str


class StuckError(IncolourError):
    """A constructive step found its colour list exhausted, or a ring or
    graph coloured whole has no colouring.

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
        self.colour: dict[int, int] = {}
        self.trace: list[TraceStep] = []

    def id_of(self, vertex: int, other: int) -> int:
        return incidence_id(self.graph, vertex, other)

    def painted(self, i: int) -> bool:
        return i in self.colour

    def forbidden(self, i: int) -> set[int]:
        return {self.colour[w] for w in self.neigh[i] if w in self.colour}

    def free(self, i: int, extra: Iterable[int] = ()) -> list[int]:
        bad = self.forbidden(i)
        bad.update(extra)
        return sorted(c for c in self.lists[i] if c not in bad)

    def paint(self, i: int, colour: int, tag: str) -> None:
        if i in self.colour:
            raise IncolourError(f"incidence {i} painted twice (step {tag!r})")
        if colour not in self.lists[i]:
            raise IncolourError(f"colour {colour} outside list of incidence {i} (step {tag!r})")
        if colour in self.forbidden(i):
            raise IncolourError(f"colour {colour} conflicts at incidence {i} (step {tag!r})")
        self.colour[i] = colour
        self.trace.append(TraceStep(i, colour, tag))

    def greedy(self, i: int, tag: str, extra: Iterable[int] = ()) -> int:
        choices = self.free(i, extra)
        if not choices:
            raise StuckError(i, tag, self.trace)
        self.paint(i, choices[0], tag)
        return choices[0]

    def unpaint(self, i: int) -> None:
        del self.colour[i]
        for pos in range(len(self.trace) - 1, -1, -1):
            if self.trace[pos].incidence == i:
                del self.trace[pos]
                break

    def paint_ring(self, ring: Sequence[int], tag: str) -> None:
        """Colour the cycle ``ring`` exactly (its edges unpainted, all else
        they see painted) in the order a_0, b_0, a_1, ..., with a_i =
        (r_i, r_i r_{i+1}) and b_i = (r_{i+1}, r_{i+1} r_i), each adjacent to
        the two before and the two after it.  The first start pair, in sorted
        order, whose transfer sweep closes is painted; else StuckError."""
        order = [self.id_of(*pair) for r, s in zip(ring, [*ring[1:], ring[0]])
                 for pair in ((r, s), (s, r))]
        # exact: only four ring neighbours block an incidence, so a colour
        # outside its five least can always be swapped for one of them
        lists = [self.free(i)[:5] for i in order]
        for first, second in product(lists[0], lists[1]):
            if first != second and (colours := _ring_sweep(lists, first, second)):
                for i, c in zip(order, colours):
                    self.paint(i, c, tag)
                return
        raise StuckError(order[0], tag, self.trace)

    def finish_by_search(self, tag: str) -> None:
        """Colour the whole graph of an unpainted painter by exact search,
        painting in incidence-id order, or raise :class:`StuckError`."""
        res = solve_list_colouring(self.graph, self.lists)
        if not res.found:
            raise StuckError(0, tag, self.trace)
        for i in range(len(self.neigh)):
            self.paint(i, res.colouring[i], tag)

    def report(self) -> ConstructiveReport:
        if len(self.colour) != len(self.neigh):
            missing = next(i for i in range(len(self.neigh)) if i not in self.colour)
            raise IncolourError(f"colouring incomplete: incidence {missing} unpainted")
        return ConstructiveReport(IncidenceColouring(self.colour), tuple(self.trace))


def _ring_sweep(lists: Sequence[list[int]], first: int, second: int) -> Optional[list[int]]:
    """Ring colours from ``lists`` that start with ``first, second``, or
    None.  The sweep runs on through the start pair again, so the ring
    closes when that pair is reachable.  A layer maps each reachable colour
    to at most two colours that can come before it: enough to find one
    that differs from the colour after it."""
    layers = [{second: (first,)}]
    for options in [*lists[2:], [first], [second]]:
        layer = {}
        for s in options:
            before = tuple([r for r, qs in layers[-1].items() if r != s and qs != (s,)][:2])
            if before:
                layer[s] = before
        if not layer:
            return None
        layers.append(layer)
    colours = [second, first]
    for layer in reversed(layers[:-1]):
        colours.append(next(q for q in layer[colours[-1]] if q != colours[-2]))
    return colours[::-1][:-2]  # without the start pair swept again


def relabelled_subgraph(
    parent: Graph,
    parent_lists: ListAssignment,
    edges: Collection[tuple[int, int]],
) -> tuple[Graph, ListAssignment, list[int]]:
    """Subgraph on the endpoints of ``edges`` with dense relabelled
    vertices.  Returns the subgraph, its restricted lists, and the parent
    incidence id of each sub incidence."""
    verts = sorted({x for e in edges for x in e})
    remap = {v: i for i, v in enumerate(verts)}
    sub = Graph(len(verts), [(remap[x], remap[y]) for x, y in edges])
    parent_of = [incidence_id(parent, verts[v], verts[u]) for v in range(sub.n) for u in sub.adj[v]]
    return sub, ListAssignment([parent_lists[p] for p in parent_of]), parent_of
