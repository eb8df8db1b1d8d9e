"""Shared machinery for the constructive colouring procedures: a painter
that applies one colour at a time with full validity checks, and the
replayable report it produces."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from ..graphs import (
    Graph,
    IncidenceColouring,
    IncolourError,
    ListAssignment,
    check_lists_cover,
    incidence_id,
    incidence_neighbour_ids,
    incidences,
)
from ..solver import solve_list_colouring


@dataclass(frozen=True)
class TraceStep:
    incidence: int
    colour: int
    tag: str


class StuckError(IncolourError):
    """A constructive step found its colour list exhausted (for
    :meth:`Painter.finish_by_search`: a reduced list, or the whole
    remainder).

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

    def finish_by_search(self, tag: str) -> None:
        """Colour every unpainted incidence by exact search and paint the
        result in incidence-id order.

        With nothing painted yet the search runs on the painter's own graph
        and lists.  Otherwise it runs on the subgraph of the edges that
        still have an unpainted incidence (relabelled in host id order):
        painted incidences there keep their colour as a singleton list, the
        others lose their painted neighbours' colours.  An emptied list or
        a remainder with no colouring raises :class:`StuckError`."""
        g, lists, host_of = self.graph, self.lists, range(len(self.neigh))
        if self.colour:
            reduced = [{self.colour[h]} if h in self.colour else self.lists[h] - self.forbidden(h)
                       for h in host_of]
            for h, left in enumerate(reduced):
                if not left:
                    raise StuckError(h, tag, self.trace)
            incs = incidences(g)
            edges = {incs[h].edge for h in host_of if h not in self.colour}
            g, lists, host_of = relabelled_subgraph(g, ListAssignment(reduced), edges)
        res = solve_list_colouring(g, lists)
        if not res.found:
            raise StuckError(next(h for h in host_of if h not in self.colour), tag, self.trace)
        for sub_id, h in enumerate(host_of):
            if h not in self.colour:
                self.paint(h, res.colouring[sub_id], tag)

    def report(self) -> ConstructiveReport:
        if len(self.colour) != len(self.neigh):
            missing = next(i for i in range(len(self.neigh)) if i not in self.colour)
            raise IncolourError(f"colouring incomplete: incidence {missing} unpainted")
        return ConstructiveReport(IncidenceColouring(self.colour), tuple(self.trace))


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
    parent_of = [incidence_id(parent, verts[v], verts[u]) for v, u in _endpoints(sub)]
    return sub, ListAssignment([parent_lists[p] for p in parent_of]), parent_of


def _endpoints(g: Graph):
    """``(v, u)`` for each incidence ``(v, vu)`` of ``g``, in id order."""
    return ((v, u) for v in range(g.n) for u in g.adj[v])
