from __future__ import annotations

import math
import os

import pytest

from incolour.families import FamilySpec, gen_basic
from incolour.graphs import InputError
from incolour.harness import (
    FuzzCampaign,
    K4_CHROMATIC_NUMBER,
    random_list_assignment,
    regression_chi,
    replay_failure,
    run_campaign,
    trial_seed,
)
from incolour.solver import SolverConfig


def test_random_lists_shape_and_determinism():
    g, _ = gen_basic("cycle", 3)
    l1 = random_list_assignment(g, 3, 9, 0)
    l2 = random_list_assignment(g, 3, 9, 0)
    assert l1.lists == l2.lists
    assert all(len(l) == 3 for l in l1.lists)
    assert all(l <= frozenset(range(1, 10)) for l in l1.lists)
    l3 = random_list_assignment(g, 3, 9, 1)
    assert l3.lists != l1.lists


def test_forced_uniform_when_universe_equals_k():
    g, _ = gen_basic("cycle", 4)
    lists = random_list_assignment(g, 4, 4, 123)
    assert all(l == frozenset({1, 2, 3, 4}) for l in lists.lists)


def test_random_lists_guards(k2):
    with pytest.raises(InputError):
        random_list_assignment(k2, 0, 4, 0)
    with pytest.raises(InputError):
        random_list_assignment(k2, 5, 4, 0)


def test_single_list_frequencies_within_five_sigma():
    """10^4 draws of a 2-subset of {1..4}: each of the 6 subsets has
    probability 1/6."""
    g = None
    from incolour.graphs import Graph

    g = Graph(2, [(0, 1)])
    counts = {}
    draws = 10_000
    for seed in range(draws):
        lists = random_list_assignment(g, 2, 4, seed)
        key = tuple(sorted(lists[0]))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    expect = draws / 6
    sigma = math.sqrt(draws * (1 / 6) * (5 / 6))
    for subset, count in counts.items():
        assert abs(count - expect) <= 5 * sigma, (subset, count)


def test_trial_seed_is_stable_and_spread():
    s1 = trial_seed(0, "inst", 0)
    assert s1 == trial_seed(0, "inst", 0)
    assert s1 != trial_seed(0, "inst", 1)
    assert s1 != trial_seed(1, "inst", 0)


def test_campaign_zero_failures_at_guaranteed_bound():
    campaign = FuzzCampaign(
        instances=(FamilySpec("grid", {"m": 4, "n": 2}), FamilySpec("cycle", {"n": 6})),
        trials=25,
    )
    report = run_campaign(campaign)
    assert report.total_trials == 50
    assert report.total_failures == 0
    assert "total: 50/50 trials ok" in report.summary_lines()[-1]


def test_campaign_below_bound_records_failures_and_replays():
    campaign = FuzzCampaign(
        instances=(FamilySpec("cycle", {"n": 5}),),
        trials=40,
        k=3,           # chromatic number is 4: the uniform trials must fail
        universe=3,
    )
    report = run_campaign(campaign)
    assert report.total_failures == 40
    bundle = report.results[0].failures[0]
    again = replay_failure(bundle)
    assert not again["ok"]
    assert again["error"] == bundle["error"]


def test_campaign_worker_count_invariance():
    campaign1 = FuzzCampaign(
        instances=(FamilySpec("corona", {"n": 3, "p": 2}),),
        trials=12,
        master_seed=5,
        workers=1,
    )
    campaign2 = FuzzCampaign(
        instances=(FamilySpec("corona", {"n": 3, "p": 2}),),
        trials=12,
        master_seed=5,
        workers=min(2, os.cpu_count()),
    )
    r1 = run_campaign(campaign1).to_json()
    r2 = run_campaign(campaign2).to_json()
    for inst in (*r1["instances"], *r2["instances"]):
        inst.pop("seconds")
    assert r1 == r2


def test_campaign_times_each_instance_by_its_own_trials():
    campaign = FuzzCampaign(
        instances=(FamilySpec("cycle", {"n": 3}), FamilySpec("grid", {"m": 7, "n": 7})),
        trials=4,
    )
    cycle, grid = run_campaign(campaign).results
    assert grid.seconds > cycle.seconds > 0


@pytest.mark.parametrize("workers", [0, -1, os.cpu_count() + 1])
def test_campaign_rejects_worker_counts_outside_cpu_range(workers):
    with pytest.raises(InputError):
        FuzzCampaign(instances=(FamilySpec("corona", {"n": 3, "p": 2}),), workers=workers)


def test_campaign_precoloured_corona():
    campaign = FuzzCampaign(
        instances=(FamilySpec("corona", {"n": 3, "p": 3}),),
        trials=20,
        pre=True,
    )
    report = run_campaign(campaign)
    assert report.results[0].k == 8     # the tight pre-coloured triangle bound
    assert report.total_failures == 0


def test_campaign_multiworker_cactus_and_halin():
    from incolour.catalogue import cactus_row_specs, halin_specs

    campaign = FuzzCampaign(
        instances=(cactus_row_specs()[0], halin_specs()[0]),
        trials=6,
        master_seed=3,
        workers=min(2, os.cpu_count()),
    )
    report = run_campaign(campaign)
    assert report.total_failures == 0 and report.total_trials == 12


def test_construct_rejects_unsupported_families():
    import pytest as _pytest

    from incolour.constructive import construct, guaranteed_bound
    from incolour.graphs import ListAssignment
    from incolour.families import generate as _gen

    spec = FamilySpec("cycle_power", {"n": 6, "p": 2})
    g, spec = _gen(spec)
    with _pytest.raises(InputError):
        construct(spec, ListAssignment.uniform(g, 9))
    with _pytest.raises(InputError):
        guaranteed_bound(spec)
    k5 = FamilySpec("complete", {"n": 5})
    g5, k5 = _gen(k5)
    with _pytest.raises(InputError):
        construct(k5, ListAssignment.uniform(g5, 13))


_BUILDERS = ("gen_basic", "gen_grid", "gen_corona", "gen_halin", "gen_ham_cubic")


def _public_procedure(spec, g, lists):
    from incolour import constructive as c

    f, p = spec.family, spec.params
    if f == "grid":
        return c.colour_grid(p["m"], p["n"], lists)
    if f == "cycle":
        return c.colour_cycle(p["n"], lists)
    if f == "corona":
        return c.colour_corona(p["n"], p["p"], lists)
    if f == "halin":
        return c.colour_halin(g, spec, lists)
    return c.colour_hamiltonian_cubic(g, spec, lists)


@pytest.mark.parametrize("spec", [
    FamilySpec("grid", {"m": 7, "n": 7}),
    FamilySpec("cycle", {"n": 7}),
    FamilySpec("corona", {"n": 5, "p": 3}),
    FamilySpec("halin", {"tree_edges": [[0, 5], [1, 5], [2, 6], [3, 6], [4, 6], [5, 6]],
                         "leaf_order": [0, 1, 2, 3, 4]}),
    FamilySpec("ham_cubic", {"n": 8, "seed": 1}),
], ids=lambda spec: spec.family)
def test_construct_generates_its_graph_once(monkeypatch, spec):
    """``construct`` builds the graph once and hands it on; its report is
    the one the public procedure gives."""
    import sys

    from incolour import families
    from incolour.constructive import construct, guaranteed_bound

    g, spec = families.generate(spec)
    k = guaranteed_bound(spec)
    lists = random_list_assignment(g, k, 3 * k, 7)
    calls = []
    for name in _BUILDERS:
        real = getattr(families, name)

        def counting(*args, _real=real, **kwargs):
            calls.append(_real.__name__)
            return _real(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("incolour") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    report = construct(spec, lists)
    assert len(calls) == 1, calls
    monkeypatch.undo()
    expected = _public_procedure(spec, g, lists)
    assert report.trace == expected.trace
    assert report.colouring.assignment == expected.colouring.assignment


def test_regression_table():
    report = regression_chi()
    assert report.ok
    names = [row["name"] for row in report.rows]
    assert names[:10] == [f"C{n}" for n in range(3, 13)]
    values = {row["name"]: row["computed"] for row in report.rows}
    assert [values[f"C{n}"] for n in range(3, 13)] == [3, 4, 4, 3, 4, 4, 3, 4, 4, 3]
    assert [values[f"S{k}"] for k in range(2, 6)] == [3, 4, 5, 6]
    assert values["K4"] == K4_CHROMATIC_NUMBER == 4


def test_regression_budget_marks_unknown():
    report = regression_chi(SolverConfig(node_budget=2))
    assert report.unknowns and not report.ok
