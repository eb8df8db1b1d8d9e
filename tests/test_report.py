from __future__ import annotations

import re

import pytest

from conftest import naive_satisfiable
from incolour.constructive import colour_tree
from incolour.constructive.report import ConstructiveReport, Painter, StuckError, TraceStep
from incolour.families import gen_basic
from incolour.graphs import (
    GraphError,
    IncidenceColouring,
    IncolourError,
    ListAssignment,
    incidence_id,
)


@pytest.fixture
def coloured_star():
    g, _ = gen_basic("star", 3)
    lists = ListAssignment.uniform(g, 4)
    return g, lists, colour_tree(g, lists)


def test_replay_round_trip(coloured_star):
    g, lists, rep = coloured_star
    assert rep.replay(g, lists) == rep.colouring


def test_replay_rejects_out_of_list_colour(coloured_star):
    g, lists, rep = coloured_star
    step = rep.trace[0]
    bad = ConstructiveReport(rep.colouring, (TraceStep(step.incidence, 99, step.tag),) + rep.trace[1:])
    with pytest.raises(IncolourError):
        bad.replay(g, lists)


def test_replay_rejects_duplicate_step(coloured_star):
    g, lists, rep = coloured_star
    bad = ConstructiveReport(rep.colouring, rep.trace + (rep.trace[0],))
    with pytest.raises(IncolourError):
        bad.replay(g, lists)


def test_replay_rejects_injected_conflict(coloured_star):
    g, lists, rep = coloured_star
    # recolour the second step with the first step's colour: ids 0 and 1 are
    # both internal incidences of the star centre, hence adjacent
    first, second = rep.trace[0], rep.trace[1]
    tampered = (first, TraceStep(second.incidence, first.colour, second.tag)) + rep.trace[2:]
    with pytest.raises(IncolourError):
        ConstructiveReport(rep.colouring, tampered).replay(g, lists)


def test_replay_rejects_trace_colouring_mismatch(coloured_star):
    g, lists, rep = coloured_star
    other = dict(rep.colouring.assignment)
    other[rep.trace[0].incidence] = 99
    with pytest.raises(IncolourError):
        ConstructiveReport(IncidenceColouring(other), rep.trace[1:]).replay(g, lists)


def test_painter_guards():
    g, _ = gen_basic("path", 3)
    painter = Painter(g, ListAssignment.uniform(g, 3))
    painter.paint(0, 1, "t")
    with pytest.raises(IncolourError, match="^incidence 0 painted twice"):
        painter.paint(0, 2, "t")
    with pytest.raises(IncolourError, match="^incidence 0 painted twice"):
        painter.greedy(0, "t")
    with pytest.raises(IncolourError, match="^colour 9 outside list of incidence 1"):
        painter.paint(1, 9, "t")
    with pytest.raises(IncolourError, match="^colour 1 conflicts at incidence 1"):
        painter.paint(1, 1, "t")
    assert painter.free(1) == [2, 3] and painter.free(1, extra=[2]) == [3]
    assert painter.greedy(1, "t", extra=[2]) == 3
    painter.unpaint(1)
    painter.unpaint(0)
    assert not painter.painted(0)
    painter.paint(1, 1, "t")              # fine once the conflict is gone


def test_painter_id_of_matches_incidence_id():
    g = gen_basic("wheel", 5)[0]
    painter = Painter(g, ListAssignment.uniform(g, 3))
    for v in range(-1, g.n + 1):
        for u in range(-1, g.n + 1):
            try:
                want = incidence_id(g, v, u)
            except GraphError as exc:
                with pytest.raises(GraphError, match=f"^{re.escape(str(exc))}$"):
                    painter.id_of(v, u)
            else:
                assert painter.id_of(v, u) == want


def test_painter_greedy_stuck_reports_incidence():
    g, _ = gen_basic("path", 3)
    painter = Painter(g, ListAssignment([{1}, {1}, {2}, {3}]))
    painter.paint(0, 1, "t")
    with pytest.raises(StuckError) as err:
        painter.greedy(1, "t")
    assert err.value.incidence == 1
    assert err.value.trace == (TraceStep(0, 1, "t"),)


def test_report_requires_totality():
    g, _ = gen_basic("path", 3)
    painter = Painter(g, ListAssignment.uniform(g, 3))
    painter.paint(0, 1, "t")
    with pytest.raises(IncolourError):
        painter.report()
    assert len(painter.colour) == 1


def test_paint_ring_stuck_on_c4_with_uniform_three_lists():
    g, _ = gen_basic("cycle", 4)           # chi_i(C4) = 4
    painter = Painter(g, ListAssignment.uniform(g, 3))
    with pytest.raises(StuckError) as err:
        painter.paint_ring(range(4), "s")
    assert (err.value.incidence, err.value.tag) == (0, "s")
    assert painter.trace == []
    assert not naive_satisfiable(g, painter.lists)
