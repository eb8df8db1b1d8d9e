from __future__ import annotations

import hashlib
import json
import math
import os
import random

import pytest

from incolour import harness
from incolour.catalogue import halin_specs, tree_specs
from incolour.constructive import construct, guaranteed_bound
from incolour.families import FamilySpec, gen_basic, generate
from incolour.graphs import InputError
from incolour.harness import (
    FuzzCampaign,
    K4_CHROMATIC_NUMBER,
    pre_pair,
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


@pytest.mark.parametrize("k, universe", [
    (1, 1), (2, 3), (3, 9), (4, 4), (5, 15), (6, 18), (7, 21),
    (6, 100),  # above random.sample's pool-branch size: sample itself draws
])
def test_random_lists_are_those_random_sample_draws(k, universe):
    """The sampler must draw what this interpreter's ``random.sample`` draws,
    so that campaign seeds keep naming the same lists."""
    g, _ = gen_basic("cycle", 4)
    m = 2 * len(g.edges)
    population = range(1, universe + 1)
    for seed in range(1000):
        rng = random.Random(seed)
        expect = [frozenset(rng.sample(population, k)) for _ in range(m)]
        assert list(random_list_assignment(g, k, universe, seed).lists) == expect, seed


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
    corona = (FamilySpec("corona", {"n": 3, "p": 2}),)
    # 21 tasks: the 16-task chunks sent to a worker straddle instances
    grids = tuple(FamilySpec("grid", {"m": m, "n": 3}) for m in (3, 4, 5))
    for instances, trials in ((corona, 12), (grids, 7)):
        reports = []
        for workers in (1, min(2, os.cpu_count())):
            campaign = FuzzCampaign(instances=instances, trials=trials,
                                    master_seed=5, workers=workers)
            reports.append(run_campaign(campaign).to_json())
        for inst in (*reports[0]["instances"], *reports[1]["instances"]):
            inst.pop("seconds")
        assert reports[0] == reports[1]


# recorded before generated specs carried their graphs: it pins that fuzz
# reports, failure bundles included, are unchanged by the graph reuse
FUZZ_REPORT_DIGEST = "bf782cb27165d462"


def test_fuzz_reports_match_golden_digest():
    from incolour.catalogue import default_fuzz_instances

    campaigns = []
    for family in ("grid", "tree", "cycle", "halin", "corona", "cactus", "ham_cubic"):
        instances = tuple(default_fuzz_instances(family)[:3])
        for pre in (False, True) if family == "corona" else (False,):
            campaigns.append(FuzzCampaign(instances=instances, trials=4,
                                          master_seed=11, pre=pre))
    campaigns.append(FuzzCampaign(instances=(FamilySpec("cycle", {"n": 5}),),
                                  trials=3, k=3, universe=3))
    reports = []
    for campaign in campaigns:
        report = run_campaign(campaign).to_json()
        for inst in report["instances"]:
            inst.pop("seconds")
        reports.append(report)
    assert sum(r["total_trials"] for r in reports) == 99
    assert sum(r["total_failures"] for r in reports) == 3
    data = json.dumps(reports, sort_keys=True).encode()
    assert hashlib.sha256(data).hexdigest()[:16] == FUZZ_REPORT_DIGEST


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


def test_campaign_rejects_pre_on_non_corona_instances(monkeypatch):
    # pre-colours go on coronae and trees (paths and stars included) only;
    # run_campaign asks guaranteed_bound of every instance before any trial
    def no_trial(task):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_run_trial", no_trial)
    corona = FamilySpec("corona", {"n": 3, "p": 2})
    tree = FamilySpec("tree", {"edges": [[0, 1], [1, 2]]})
    grid = FamilySpec("grid", {"m": 3, "n": 2})
    for other in (grid, halin_specs()[0]):
        campaign = FuzzCampaign(instances=(corona, tree, other), pre=True)
        with pytest.raises(InputError, match=f"^family '{other.family}' does not take "
                                             f"a pre-colouring$"):
            run_campaign(campaign)
    for spec in (corona, tree, FamilySpec("path", {"n": 2}), FamilySpec("star", {"n": 3})):
        assert guaranteed_bound(spec, pre=True) >= 1


def test_pre_campaign_rejects_an_instance_with_no_edge():
    campaign = FuzzCampaign(instances=(FamilySpec("path", {"n": 1}),), pre=True)
    with pytest.raises(InputError, match="needs an instance with an edge"):
        run_campaign(campaign)


def test_campaign_precoloured_trees():
    specs = tuple(tree_specs())
    report = run_campaign(FuzzCampaign(instances=specs, trials=20, pre=True))
    assert report.total_failures == 0 and report.total_trials == 240
    for r, spec in zip(report.results, specs):
        assert r.k == guaranteed_bound(spec, pre=True)
    # one trial's pair, painted: both pre-colours first, then the rest
    g, spec = generate(specs[0])
    lists = random_list_assignment(g, report.results[0].k, report.results[0].universe, 5)
    pre = pre_pair(g, spec, lists, 5)
    rep = construct(spec, lists, pre=pre)
    assert rep.colouring.assignment.items() >= pre.items()
    assert {(s.incidence, s.colour) for s in rep.trace[:2]} == pre.items()
    assert {s.tag for s in rep.trace[:2]} == {"tree-anchor"}


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


@pytest.mark.parametrize("spec", [
    FamilySpec("grid", {"m": 7, "n": 7}),
    FamilySpec("cycle", {"n": 7}),
    FamilySpec("corona", {"n": 5, "p": 3}),
    FamilySpec("halin", {"tree_edges": [[0, 5], [1, 5], [2, 6], [3, 6], [4, 6], [5, 6]],
                         "leaf_order": [0, 1, 2, 3, 4]}),
    FamilySpec("ham_cubic", {"n": 8, "seed": 1}),
], ids=lambda spec: spec.family)
def test_construct_generates_its_graph_once(builder_calls, spec):
    """``construct`` reuses the graph a generated spec carries, and builds
    any other spec's graph once."""
    from incolour.constructive import construct, guaranteed_bound
    from incolour.families import generate

    g, spec = generate(spec)
    k = guaranteed_bound(spec)
    lists = random_list_assignment(g, k, 3 * k, 7)
    builder_calls.clear()
    construct(spec, lists)
    assert builder_calls == []
    construct(FamilySpec.from_json(spec.to_json()), lists)
    assert len(builder_calls) == 1, builder_calls


def test_regression_table():
    report = regression_chi()
    assert report.ok
    names = [row["name"] for row in report.rows]
    assert names[:10] == [f"C{n}" for n in range(3, 13)]
    values = {row["name"]: row["computed"] for row in report.rows}
    assert [values[f"C{n}"] for n in range(3, 13)] == [3, 4, 4, 3, 4, 4, 3, 4, 4, 3]
    assert [values[f"S{k}"] for k in range(2, 6)] == [3, 4, 5, 6]
    assert values["K4"] == K4_CHROMATIC_NUMBER == 4
    assert [values[f"grid{n}x{n}"] for n in range(4, 9)] == [5] * 5


def test_regression_budget_marks_unknown():
    report = regression_chi(SolverConfig(node_budget=2))
    assert report.unknowns and not report.ok


@pytest.mark.parametrize("kwargs", [{"trials": -3}, {"trials": 0}, {"instances": ()}])
def test_campaign_rejects_running_no_trial(kwargs):
    with pytest.raises(InputError):
        FuzzCampaign(**{"instances": (FamilySpec("cycle", {"n": 5}),), **kwargs})


@pytest.mark.parametrize("k, universe", [(0, None), (-2, 5), (4, 3), (None, 4)])
def test_campaign_rejects_bad_list_size_before_any_trial(monkeypatch, k, universe):
    # the cycle's guaranteed bound is 3 and the grid's 6, so a universe of
    # 4 fits the first instance and fails only the second
    ran = []
    monkeypatch.setattr(harness, "_run_trial", ran.append)
    campaign = FuzzCampaign(
        instances=(FamilySpec("cycle", {"n": 6}), FamilySpec("grid", {"m": 4, "n": 3})),
        trials=2, k=k, universe=universe,
    )
    with pytest.raises(InputError, match="universe >= k >= 1"):
        run_campaign(campaign)
    assert ran == []
