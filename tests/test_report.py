from __future__ import annotations

import random
import re

import pytest

from conftest import naive_satisfiable
from incolour.catalogue import default_fuzz_instances
from incolour.constructive import construct
from incolour.constructive import report as report_module
from incolour.constructive.report import ConstructiveReport, Painter, StuckError, TraceStep
from incolour.families import gen_basic, gen_random_graph, generate
from incolour.graphs import (
    IncidenceColouring,
    IncolourError,
    InputError,
    ListAssignment,
    incidence_neighbour_ids,
    incidences,
)

# three graphs of each constructive family's catalogue, plus a random graph
# with isolated vertices, which no family has
SCAN_GRAPHS = [generate(spec)[0]
               for family in ("grid", "tree", "cycle", "halin", "corona", "cactus", "ham_cubic")
               for spec in default_fuzz_instances(family)[-3:]] + [gen_random_graph(12, 5, 0.15)]

# the colours the scan test draws its lists from: a dense universe, and a
# sparse one with colour 0 and colours of 2^64 and beyond
DENSE, SPARSE = range(1, 9), (0, 1, 5, 2**64, 2**64 + 3, 3 * 2**70, 10**30, 2**100)


@pytest.fixture
def coloured_star():
    g, spec = gen_basic("star", 3)
    lists = ListAssignment.uniform(g, 4)
    return g, lists, construct(spec, lists)


def test_replay_round_trip(coloured_star):
    g, lists, rep = coloured_star
    assert rep.replay(g, lists) == rep.colouring


def test_replay_rejects_out_of_list_colour(coloured_star):
    g, lists, rep = coloured_star
    step = rep.trace[0]
    bad = ConstructiveReport(rep.colouring, (TraceStep(step.incidence, 99, step.tag),) + rep.trace[1:])
    with pytest.raises(IncolourError):
        bad.replay(g, lists)


def test_replay_rejects_duplicate_step(coloured_star, monkeypatch):
    """Refused while the steps are read, before any validation runs."""
    g, lists, rep = coloured_star

    def validate(*args):
        raise AssertionError("validated a trace that paints an incidence twice")

    monkeypatch.setattr(report_module, "validate_colouring", validate)
    again = rep.trace[0]
    bad = ConstructiveReport(rep.colouring, rep.trace + (again,))
    with pytest.raises(IncolourError, match=f"^replay: incidence {again.incidence} painted twice$"):
        bad.replay(g, lists)


def test_replay_rejects_injected_conflict(coloured_star):
    g, lists, rep = coloured_star
    # recolour the second step with the first step's colour: ids 0 and 3 are
    # the two incidences of the edge 01, hence adjacent, and the only pair
    # with one colour, which the validator names
    first, second = rep.trace[0], rep.trace[1]
    assert (first.incidence, second.incidence) == (0, 3)
    tampered = (first, TraceStep(second.incidence, first.colour, second.tag)) + rep.trace[2:]
    with pytest.raises(IncolourError, match=f"^replay: incidences 0 and 3 are adjacent "
                                            f"and share colour {first.colour}$"):
        ConstructiveReport(rep.colouring, tampered).replay(g, lists)


def test_replay_rejects_trace_colouring_mismatch(coloured_star):
    g, lists, rep = coloured_star
    other = dict(rep.colouring.assignment)
    other[rep.trace[0].incidence] = 99
    with pytest.raises(IncolourError):
        ConstructiveReport(IncidenceColouring(other), rep.trace[1:]).replay(g, lists)


def test_replay_against_lists_that_do_not_cover_the_graph_is_an_input_error():
    c5, spec = gen_basic("cycle", 5)
    rep = construct(spec, ListAssignment.uniform(c5, 4))
    c3, _ = gen_basic("cycle", 3)
    with pytest.raises(InputError, match="^list assignment does not cover the incidences$"):
        rep.replay(c5, ListAssignment.uniform(c3, 4))


@pytest.mark.parametrize("incidence", [8, 100, -1])
def test_replay_rejects_a_step_at_an_incidence_the_graph_lacks(coloured_star, incidence):
    g, lists, rep = coloured_star
    step = TraceStep(incidence, 1, "x")
    bad = ConstructiveReport(rep.colouring, rep.trace[:2] + (step,) + rep.trace[2:])
    with pytest.raises(IncolourError, match=rf"^replay: no incidence {incidence} in the graph "
                                            rf"at {re.escape(repr(step))}$"):
        bad.replay(g, lists)


def test_traces_are_steps_whenever_read(coloured_star):
    """The painter records plain tuples; every trace it hands out holds
    TraceSteps, and reading a trace twice gives equal tuples."""
    g, lists, rep = coloured_star
    painter = Painter(g, lists)
    painter.fill(range(3), "t")
    assert [type(s) for s in painter.trace] == [TraceStep] * 3
    painter.fill(range(6), "t")
    assert [type(s) for s in painter.trace] == [TraceStep] * 6
    again = painter.report()
    for report in (rep, again, ConstructiveReport(rep.colouring, [tuple(s) for s in rep.trace])):
        first = report.trace
        assert type(first) is tuple and {type(s) for s in first} == {TraceStep}
        assert report.trace == first and report.replay(g, lists) == report.colouring
    assert again.trace == tuple(painter.trace)


def test_reading_a_trace_leaves_the_painters_steps_plain(coloured_star):
    g, lists, _ = coloured_star
    painter = Painter(g, lists)
    painter.fill(range(len(lists)), "t")
    report = painter.report()
    assert len(report.trace) == len(lists) and len(painter.trace) == len(lists)
    assert {type(step) for step in painter._steps} == {tuple}


def test_stuck_trace_is_the_steps_before_the_error():
    g, _ = gen_basic("path", 3)
    painter = Painter(g, ListAssignment([{1}, {1}, {2}, {3}]))
    painter.paint(0, 1, "t")
    with pytest.raises(StuckError) as err:
        painter.fill(range(4), "t")
    painter.paint(2, 2, "u")
    trace = err.value.trace
    assert trace == (TraceStep(0, 1, "t"),) and type(trace[0]) is TraceStep
    assert err.value.trace is trace
    assert painter.trace == [TraceStep(0, 1, "t"), TraceStep(2, 2, "u")]


def test_painter_guards():
    g, _ = gen_basic("path", 3)
    painter = Painter(g, ListAssignment.uniform(g, 3))
    painter.paint(0, 1, "t")
    with pytest.raises(IncolourError, match="^incidence 0 painted twice"):
        painter.paint(0, 2, "t")
    with pytest.raises(IncolourError, match="^colour 9 outside list of incidence 1"):
        painter.paint(1, 9, "t")
    with pytest.raises(IncolourError, match="^colour 1 conflicts at incidence 1"):
        painter.paint(1, 1, "t")
    assert painter.free(1) == [2, 3] and painter.colour[1] is None
    painter.fill((1,), "t")
    assert painter.colour[1] == 2


def test_painter_greedy_stuck_reports_incidence():
    g, _ = gen_basic("path", 3)
    painter = Painter(g, ListAssignment([{1}, {1}, {2}, {3}]))
    painter.paint(0, 1, "t")
    with pytest.raises(StuckError) as err:
        painter.fill((1,), "t")
    assert err.value.incidence == 1
    assert err.value.trace == (TraceStep(0, 1, "t"),)


def test_report_requires_totality():
    g, _ = gen_basic("path", 3)
    painter = Painter(g, ListAssignment.uniform(g, 3))
    painter.paint(0, 1, "t")
    with pytest.raises(IncolourError):
        painter.report()
    assert painter.colour == [1, None, None, None]


def test_paint_ring_stuck_on_c4_with_uniform_three_lists():
    g, _ = gen_basic("cycle", 4)           # chi_i(C4) = 4
    painter = Painter(g, ListAssignment.uniform(g, 3))
    with pytest.raises(StuckError) as err:
        painter.paint_ring(range(4), "s")
    assert (err.value.incidence, err.value.tag) == (0, "s")
    assert painter.trace == []
    assert not naive_satisfiable(g, painter.lists)


@pytest.mark.parametrize(
    "g, universe", [(g, DENSE) for g in SCAN_GRAPHS] + [(g, SPARSE) for g in SCAN_GRAPHS],
    ids=[*map(str, range(len(SCAN_GRAPHS))), *(f"{i}-sparse" for i in range(len(SCAN_GRAPHS)))])
def test_forbidden_and_free_match_a_scan_of_the_neighbour_table(g, universe):
    """Walks that only paint, each on a fresh painter, at random incidences
    and by ``paint`` or ``fill`` at random: at every step the colours
    that ``free`` reads around i = (v, vu), ``AT[v] | IN[v] | AT[u]`` less
    i's own, and ``free`` itself agree with a scan of
    ``incidence_neighbour_ids`` over an independent record of the colours,
    and ``paint`` and ``fill`` with that scan.  After each walk the
    painter's colour sets ``AT[v]`` and ``IN[v]`` hold the colours of the
    incidences at and into each v."""
    neigh = incidence_neighbour_ids(g)
    m = len(neigh)
    ends = [(v, a + b - v) for v, (a, b) in incidences(g)]

    def forbidden(painter, i):
        # outside-list colours included
        v, u = ends[i]
        return (painter.AT[v] | painter.IN[v] | painter.AT[u]) - {painter.colour[i]}

    rng = random.Random(m)
    lists = ListAssignment([rng.sample(universe, 5) for _ in range(m)])
    for _ in range(3):
        painter = Painter(g, lists)
        held: dict[int, int] = {}
        for _ in range(2 * m):
            i = rng.randrange(m)
            want = {held[j] for j in neigh[i] if j in held}
            assert forbidden(painter, i) == want
            assert painter.free(i) == sorted(lists[i] - want)
            assert (painter.colour[i] is not None) == (i in held)
            if i in held:
                with pytest.raises(IncolourError, match="painted twice"):
                    painter.paint(i, held[i], "t")
            elif rng.random() < 0.5:
                if lists[i] - want:
                    painter.fill((i,), "t")
                    held[i] = painter.colour[i]
                    assert held[i] == min(lists[i] - want)
                else:
                    with pytest.raises(StuckError):
                        painter.fill((i,), "t")
            else:
                colour = rng.choice(sorted(lists[i]))
                if colour in want:
                    with pytest.raises(IncolourError, match="conflicts"):
                        painter.paint(i, colour, "t")
                else:
                    painter.paint(i, colour, "t")
                    held[i] = colour
        assert held, "the walk painted nothing"
        assert {s.incidence: s.colour for s in painter.trace} == held
        for i in range(m):
            assert forbidden(painter, i) == {held[j] for j in neigh[i] if j in held}
        at, into = [set() for _ in range(g.n)], [set() for _ in range(g.n)]
        for i, colour in held.items():
            v, u = ends[i]
            at[v].add(colour)
            into[u].add(colour)
        assert (painter.AT, painter.IN) == (at, into)
