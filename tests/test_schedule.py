"""The per-graph structures of a constructive run: the incidence id map and
the cached painting schedules of grids and Hamiltonian cubic graphs.

A schedule is built and checked once per generated graph, kept in the
graph's cache and replayed by every later run on that graph; each trial
then makes only the colour decisions."""

from __future__ import annotations

import os
import pickle
from types import MappingProxyType

import pytest

import incolour.constructive.grids as grids
import incolour.constructive.hamcubic as hamcubic
from incolour.constructive import Painter, construct, guaranteed_bound
from incolour.families import FamilySpec, generate, grid_vertex
from incolour.graphs import IncolourError, incidence_id
from incolour.harness import FuzzCampaign, random_list_assignment, run_campaign

GRID_5x4 = FamilySpec("grid", {"m": 5, "n": 4})
GRID_6x2 = FamilySpec("grid", {"m": 6, "n": 2})
HAM_10 = FamilySpec("ham_cubic", {"n": 10, "seed": 3})


def _schedule_of(g, spec):
    """The schedule a run on ``g`` has cached."""
    p = spec.params
    if spec.family == "grid":
        return g._cache["grid", p["m"], p["n"]]
    return g._cache["ham_cubic", p["matching"]]


def _run(spec, seed):
    g, spec = generate(spec)
    k = guaranteed_bound(spec)
    return construct(spec, random_list_assignment(g, k, 3 * k, seed))


@pytest.mark.parametrize("spec", [GRID_5x4, GRID_6x2, HAM_10], ids=lambda s: s.family)
def test_a_second_construct_reuses_the_schedule(spec):
    g, spec = generate(spec)
    _run(spec, 1)
    schedule = _schedule_of(g, spec)
    _run(spec, 2)
    assert _schedule_of(g, spec) is schedule
    # an equal spec built afresh has its own graph, and so its own schedule
    fresh, fresh_spec = generate(FamilySpec.from_json(spec.to_json()))
    assert fresh is not g and not fresh._cache
    _run(fresh_spec, 1)
    assert _schedule_of(fresh, spec) == schedule
    assert _schedule_of(fresh, spec) is not schedule


@pytest.mark.parametrize("spec", [GRID_5x4, GRID_6x2, HAM_10], ids=lambda s: s.family)
def test_schedule_and_id_map_are_read_only(spec):
    g, spec = generate(spec)
    _run(spec, 1)
    schedule = _schedule_of(g, spec)
    assert type(schedule) is tuple
    for tag, ids in schedule:
        assert type(tag) is str and type(ids) is tuple
        assert all(type(i) is int for i in ids)
    # each incidence exactly once
    assert sorted(i for _, ids in schedule for i in ids) == list(range(2 * len(g.edges)))
    ids = g._cache["incidence_ids"]
    assert type(ids) is MappingProxyType
    with pytest.raises(TypeError):
        ids[0, 1] = 7
    assert all(incidence_id(g, v, u) == i for (v, u), i in ids.items())


def test_grid_trace_replays_the_schedule():
    g, spec = generate(GRID_5x4)
    report = _run(spec, 4)
    runs = _schedule_of(g, spec)
    assert [step.incidence for step in report.trace] == [i for _, ids in runs for i in ids]
    assert [step.tag for step in report.trace] == [tag for tag, ids in runs for _ in ids]


@pytest.mark.parametrize("spec, runs_of", [(GRID_6x2, "_two_rows"), (GRID_5x4, "_five_passes")],
                         ids=["two-rows", "five-passes"])
def test_a_schedule_that_repeats_an_incidence_fails_at_build_time(monkeypatch, spec, runs_of):
    real = getattr(grids, runs_of)

    def repeat_one(*args):
        runs = list(real(*args))
        tag, ids = runs[-1]
        return [*runs, (tag, [ids[0]])]

    monkeypatch.setattr(grids, runs_of, repeat_one)
    g, spec = generate(FamilySpec.from_json(spec.to_json()))
    repeated = list(real(*_runs_args(g, spec, runs_of)))[-1][1][0]
    with pytest.raises(IncolourError, match=f"^incidence {repeated} scheduled twice"):
        _run(spec, 1)
    assert not any(type(key) is tuple for key in g._cache)


@pytest.mark.parametrize("spec, runs_of", [(GRID_6x2, "_two_rows"), (GRID_5x4, "_five_passes")],
                         ids=["two-rows", "five-passes"])
def test_a_schedule_that_drops_an_incidence_fails_at_build_time(monkeypatch, spec, runs_of):
    real = getattr(grids, runs_of)
    monkeypatch.setattr(grids, runs_of, lambda *args: list(real(*args))[1:])
    g, spec = generate(FamilySpec.from_json(spec.to_json()))
    dropped = min(next(real(*_runs_args(g, spec, runs_of)))[1])
    with pytest.raises(IncolourError, match=f"^incidence {dropped} never scheduled"):
        _run(spec, 1)


def _runs_args(g, spec, runs_of):
    m, n = spec.params["m"], spec.params["n"]

    def iid(i1, j1, i2, j2):
        return incidence_id(g, grid_vertex(i1, j1, n), grid_vertex(i2, j2, n))

    return (m, iid) if runs_of == "_two_rows" else (g, m, n, iid)


@pytest.mark.parametrize("spec, rule", [
    (GRID_5x4, lambda p, s: grids.paint_grid(p, s.params["m"], s.params["n"])),
    (GRID_6x2, lambda p, s: grids.paint_grid(p, s.params["m"], s.params["n"])),
    (HAM_10, hamcubic.paint_ham_cubic),
], ids=["five-passes", "two-rows", "ham_cubic"])
def test_a_painted_incidence_is_refused_before_any_step(spec, rule):
    """The schedule paints every incidence, so a painter that holds one
    already is refused as painting it twice would be, and nothing more is
    painted."""
    g, spec = generate(spec)
    k = guaranteed_bound(spec)
    lists = random_list_assignment(g, k, 3 * k, 5)
    painter = Painter(g, lists)
    last = 2 * len(g.edges) - 1
    painter.paint(last, min(lists[last]), "t")
    with pytest.raises(IncolourError, match=f"^incidence {last} painted twice") as err:
        rule(painter, spec)
    tag = next(tag for tag, ids in _schedule_of(g, spec) if last in ids)
    assert str(err.value).endswith(f"(step {tag!r})")
    assert len(painter.trace) == 1


def test_campaign_workers_agree_once_the_schedules_are_cached():
    """Generated specs whose graphs already hold their id maps and
    schedules go to worker processes as their vertices and edges, and give
    the report a single process gives."""
    instances = tuple(generate(s)[1] for s in (GRID_5x4, GRID_6x2, HAM_10))
    for spec in instances:
        _run(spec, 9)
    reports = []
    for workers in (1, min(2, os.cpu_count())):
        campaign = FuzzCampaign(instances=instances, trials=6, master_seed=11, workers=workers)
        reports.append(run_campaign(campaign).to_json())
    for inst in (*reports[0]["instances"], *reports[1]["instances"]):
        inst.pop("seconds")
    assert reports[0] == reports[1]
    assert all(inst["successes"] == 6 for inst in reports[0]["instances"])


def test_a_pickled_graph_leaves_its_cache_behind():
    g, spec = generate(GRID_5x4)
    _run(spec, 1)
    assert ("grid", 5, 4) in g._cache and "incidence_ids" in g._cache
    again = pickle.loads(pickle.dumps(g))
    assert again == g and again.adj == g.adj and again._cache == {}
