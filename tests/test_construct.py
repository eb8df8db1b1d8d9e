"""``construct``, the one spec-driven entry point to the constructive
procedures: its traces are pinned by digest."""

from __future__ import annotations

import hashlib
import json

import pytest
from click.testing import CliRunner

import incolour.constructive as constructive
from incolour.catalogue import corona_specs, default_fuzz_instances
from incolour.cli import main
from incolour.constructive import construct, guaranteed_bound
from incolour.constructive.coronae import pendant_edge_ids
from incolour.families import FamilySpec, generate
from incolour.graphs import InputError, ListAssignment
from incolour.harness import FuzzCampaign, corona_pre_pair, random_list_assignment, run_campaign

FUZZ_FAMILIES = ("grid", "tree", "cycle", "halin", "corona", "cactus", "ham_cubic")

# re-pinned when every Halin graph (wheels and K4, also as ham_cubic n=4,
# included) moved to one route, the inner tree and then the rim with its
# spokes by the strip search of `Painter.paint_ring`: that moves the Halin
# runs, and the cycles' colours, which the depth-first strip search picks
# least first where the former sweep traced them back from the closing
# pair; OTHER_FAMILIES_DIGEST below pins the other runs unchanged
TRACE_DIGEST = "7e301c1b12b95c18"


def _golden_runs():
    specs = [s for f in FUZZ_FAMILIES for s in default_fuzz_instances(f)[:2]]
    specs += [FamilySpec("wheel", {"n": 6}), FamilySpec("complete", {"n": 4})]
    for spec in specs:
        g, spec = generate(spec)
        for pre in ((False, True) if spec.family == "corona" else (False,)):
            k = guaranteed_bound(spec, pre=pre)
            for seed in range(3):
                lists = random_list_assignment(g, k, 3 * k, seed)
                pairs = corona_pre_pair(g, spec, lists, seed) if pre else None
                yield spec, pre, seed, construct(spec, lists, pre=pairs)


def test_construct_traces_match_golden_digest():
    h = hashlib.sha256()
    runs = 0
    for spec, pre, seed, report in _golden_runs():
        h.update(f"{json.dumps(spec.to_json(), sort_keys=True)}|pre={pre}|seed={seed}\n".encode())
        for step in report.trace:
            h.update(f"{step.incidence},{step.colour},{step.tag}\n".encode())
        runs += 1
    assert runs == 54
    assert h.hexdigest()[:16] == TRACE_DIGEST


# the tags of the steps that paint a ring: a whole cycle, or a Halin rim
# after its inner tree
RING_TAGS = {"cycle-solver", "cycle-dp", "halin-outer-cycle"}

# sha256 prefix of the runs behind TRACE_DIGEST, TREE_FIRST_DIGEST and
# TREE_PAINT_DIGEST with each run's ring steps reduced to the sorted ids
# they paint: the colours a ring takes may change, nothing else may;
# re-pinned when every Halin graph moved to one route, whose tree steps
# paint only the internal incidences and whose ring steps now also paint
# the leaf ends of the spokes
NON_RING_DIGEST = "e6eba7f34bee290d"


def test_non_ring_steps_match_golden_digest():
    from test_halin import _tree_first_runs
    from test_trees import _halin_runs, _tree_runs

    runs = [(f"{json.dumps(spec.to_json(), sort_keys=True)}|pre={pre}|seed={seed}", rep)
            for spec, pre, seed, rep in _golden_runs()]
    runs += [(f"tree-first seed={seed}", rep) for seed, rep in _tree_first_runs()]
    runs += [(f"tree edges={t.edges} pre={sorted(pre.items())}", rep)
             for t, _, pre, rep in _tree_runs()]
    runs += [(f"{spec.params['tree_edges']}|{spec.params['leaf_order']}|seed={seed}", rep)
             for spec, seed, rep in _halin_runs()]
    h = hashlib.sha256()
    ring_runs = 0
    for label, report in runs:
        h.update(f"{label}\n".encode())
        ring = []
        for step in report.trace:
            if step.tag in RING_TAGS:
                ring.append(step.incidence)
            else:
                h.update(f"{step.incidence},{step.colour},{step.tag}\n".encode())
        h.update(f"ring={sorted(ring)}\n".encode())
        ring_runs += bool(ring)
    assert ring_runs > 0
    assert h.hexdigest()[:16] == NON_RING_DIGEST


# sha256 prefix of the runs behind TRACE_DIGEST, NON_RING_DIGEST and
# TREE_PAINT_DIGEST on graphs that are neither cycles nor Halin graphs
# (wheels, K4 and the ham_cubic K4 count as Halin graphs): grids, trees,
# coronae, cactuses and Hamiltonian cubic graphs of order >= 6; recorded
# before the Halin rim transfer, which must leave all of them unchanged
OTHER_FAMILIES_DIGEST = "89ebe089ea9a199a"


def _cycle_or_halin(spec):
    return (spec.family in ("cycle", "halin", "wheel", "complete")
            or (spec.family == "ham_cubic" and spec.params["n"] == 4))


def test_other_families_match_golden_digest():
    from test_trees import _tree_runs

    h = hashlib.sha256()
    runs = 0
    labelled = [(f"{json.dumps(spec.to_json(), sort_keys=True)}|pre={pre}|seed={seed}", rep)
                for spec, pre, seed, rep in _golden_runs() if not _cycle_or_halin(spec)]
    labelled += [(f"tree edges={t.edges} pre={sorted(pre.items())}", rep)
                 for t, _, pre, rep in _tree_runs()]
    for label, report in labelled:
        h.update(f"{label}\n".encode())
        for step in report.trace:
            h.update(f"{step.incidence},{step.colour},{step.tag}\n".encode())
        runs += 1
    assert runs == 33 + 301
    assert h.hexdigest()[:16] == OTHER_FAMILIES_DIGEST


# one spec for every family that construct accepts
EVERY_FAMILY = [next(s for s in default_fuzz_instances(f) if s.family == f)
                for f in FUZZ_FAMILIES] + [
    FamilySpec("path", {"n": 4}),
    FamilySpec("star", {"n": 3}),
    FamilySpec("wheel", {"n": 5}),
    FamilySpec("complete", {"n": 4}),
]


@pytest.mark.parametrize("spec", EVERY_FAMILY, ids=lambda s: s.family)
@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_construct_rejects_lists_that_do_not_cover_the_graph(spec, extra):
    g, _ = generate(spec)
    lists = ListAssignment([range(1, 20)] * (2 * len(g.edges) + extra))
    with pytest.raises(InputError, match="does not cover the incidences"):
        construct(spec, lists)


def test_construct_fails_a_colouring_that_drops_the_pre_colours(monkeypatch, tmp_path):
    """A corona procedure that ignores ``pre`` still returns valid
    colourings; construct must report the broken pre-colours as a failure
    to the fuzz trial and to the CLI."""
    real = constructive._colour_corona
    monkeypatch.setattr(constructive, "_colour_corona",
                        lambda g, n, p, lists, pre: real(g, n, p, lists, None))
    report = run_campaign(FuzzCampaign(instances=tuple(corona_specs()), trials=4, pre=True))
    failures = [f for r in report.results for f in r.failures]
    assert failures
    assert all("changes the pre-colour" in f["error"] for f in failures)

    spec = FamilySpec("corona", {"n": 4, "p": 3})
    g, spec = generate(spec)
    lists = ListAssignment.uniform(g, 7)
    down, up = pendant_edge_ids(g, 4, 3)
    free = construct(spec, lists).colouring
    a = min({1, 2, 3} - {free[down]})
    b = min({4, 5, 6} - {free[up]})
    (tmp_path / "pre.json").write_text(json.dumps({"pre": [[down, a], [up, b]]}))
    runner = CliRunner()
    runner.invoke(main, ["generate", "--family", "corona", "--n", "4", "--p", "3",
                         "--k", "7", "--universe", "0", "--out", str(tmp_path)])
    r = runner.invoke(main, ["construct", "--from-spec", f"{tmp_path}/spec.json",
                             "--lists", f"{tmp_path}/lists.json",
                             "--pre", f"{tmp_path}/pre.json", "--out", str(tmp_path)])
    assert r.exit_code == 1, r.output
    assert "changes the pre-colour" in r.output
