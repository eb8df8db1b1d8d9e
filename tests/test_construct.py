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
from incolour.graphs import InputError, ListAssignment, validate_colouring
from incolour.harness import FuzzCampaign, pre_pair, random_list_assignment, run_campaign

FUZZ_FAMILIES = ("grid", "tree", "cycle", "halin", "corona", "cactus", "ham_cubic")

# re-pinned when every Halin graph (wheels and K4, also as ham_cubic n=4,
# included) moved to one route, the inner tree and then the rim with its
# spokes by the strip search of `Painter.paint_ring`: that moves the Halin
# runs, and the cycles' colours, which the depth-first strip search picks
# least first where the former sweep traced them back from the closing
# pair; OTHER_FAMILIES_DIGEST below pins the other runs unchanged.
# Re-pinned again when one exact ring transfer replaced the corona
# selectors: the corona and cactus runs moved, the others hash as before.
# Re-pinned when exact least-first searches replaced the grid window and
# Hamiltonian cubic boundary selectors: the grid and ham_cubic (order >= 6)
# runs moved (other colours, and the window tag lost its case name), the
# others hash as before.  Re-pinned when the Halin spoke ends became ring
# internals, painted after the rim from uncut free lists: the Halin, wheel,
# K4 and order-4 ham_cubic runs moved, the others hash as before
TRACE_DIGEST = "30cdfa97148d0159"


def _golden_runs():
    specs = [s for f in FUZZ_FAMILIES for s in default_fuzz_instances(f)[:2]]
    specs += [FamilySpec("wheel", {"n": 6}), FamilySpec("complete", {"n": 4})]
    for spec in specs:
        g, spec = generate(spec)
        for pre in ((False, True) if spec.family == "corona" else (False,)):
            k = guaranteed_bound(spec, pre=pre)
            for seed in range(3):
                lists = random_list_assignment(g, k, 3 * k, seed)
                pairs = pre_pair(g, spec, lists, seed) if pre else None
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
# the leaf ends of the spokes; and again when one exact ring transfer
# replaced the corona selectors, which moves the corona and cactus runs;
# and again when exact searches replaced the grid window and Hamiltonian
# cubic boundary selectors, which moves the grid and ham_cubic runs; and
# again when the tree rule painted every pre-colour first from one anchor,
# which moves the trees with two or more pre-colours (the Halin ring steps
# paint the same ids, and the Halin tree steps hash as before)
NON_RING_DIGEST = "131a13da759bd779"


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
# before the Halin rim transfer, which must leave all of them unchanged.
# Re-pinned when one exact ring transfer replaced the corona selectors,
# which moves the corona and cactus runs only; and again when exact
# searches replaced the grid window and Hamiltonian cubic boundary
# selectors, which moves the grid and ham_cubic runs only; and again when
# the tree rule painted every pre-colour first from one anchor, which moves
# the trees with two or more pre-colours only
OTHER_FAMILIES_DIGEST = "20a7180ba0d0d0e2"


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


@pytest.mark.parametrize("spec, pre", [(s, False) for s in EVERY_FAMILY] + [
    (next(s for s in EVERY_FAMILY if s.family == "corona"), True),
], ids=lambda v: v.family if isinstance(v, FamilySpec) else ("pre" if v else "plain"))
def test_construct_builds_no_neighbour_table(spec, pre):
    """The constructive procedures read the graph's per-vertex index only:
    the incidence neighbour table belongs to the exact search, and the
    enumeration of ``Incidence`` tuples to the DOT export."""
    g, spec = generate(FamilySpec.from_json(spec.to_json()))
    assert g._cache == {}
    k = guaranteed_bound(spec, pre=pre)
    lists = random_list_assignment(g, k, 3 * k, 7)
    pre_colours = pre_pair(g, spec, lists, 7) if pre else None
    report = construct(spec, lists, pre=pre_colours)
    assert validate_colouring(g, lists, report.colouring).ok
    assert "incidence_neighbour_ids" not in g._cache
    assert "incidences" not in g._cache


# one colour below guaranteed_bound, each family's own message
_CORONA_33 = FamilySpec("corona", {"n": 3, "p": 3})
BOUND_MESSAGES = [
    (FamilySpec("grid", {"m": 3, "n": 2}), False, "grid with n=2 needs lists of size >= 5"),
    (FamilySpec("path", {"n": 4}), False, "every list needs at least 3 colours"),
    (FamilySpec("star", {"n": 3}), False, "every list needs at least 4 colours"),
    (FamilySpec("tree", {"n": 7, "seed": 2}), False, "every list needs at least 4 colours"),
    (FamilySpec("tree", {"n": 7, "seed": 2}), True, "every list needs at least 5 colours"),
    (FamilySpec("cycle", {"n": 3}), False, "cycle of order 3 needs lists of size >= 3"),
    (FamilySpec("wheel", {"n": 4}), False, "halin colouring needs lists of size >= 7"),
    (FamilySpec("wheel", {"n": 5}), False, "halin colouring needs lists of size >= 7"),
    (FamilySpec("complete", {"n": 4}), False, "halin colouring needs lists of size >= 6"),
    (FamilySpec("corona", {"n": 3, "p": 1}), False, "corona (n=3, p=1) needs lists of size >= 5"),
    (_CORONA_33, True, "corona (n=3, p=3, pre) needs lists of size >= 8"),
    (FamilySpec("cactus", {"cycles": [[0, 1, 2]], "edges": [[0, 3], [1, 4]]}), False,
     "this cactus needs lists of size >= 5"),
    (FamilySpec("ham_cubic", {"n": 8, "seed": 1}), False,
     "hamiltonian cubic colouring needs lists of size >= 6"),
]


@pytest.mark.parametrize("spec, pre, message", BOUND_MESSAGES,
                         ids=lambda v: v.family if isinstance(v, FamilySpec) else None)
def test_lists_below_the_bound_raise_the_family_message(spec, pre, message):
    g, spec = generate(spec)
    k = guaranteed_bound(spec, pre=pre)
    lists = ListAssignment.uniform(g, k - 1)
    pre_colours = None
    if pre and spec.family == "corona":
        down, up = pendant_edge_ids(g, spec.params["n"], spec.params["p"])
        pre_colours = {down: 1, up: 2}
    elif pre:
        pre_colours = {0: 1, 1: 2}     # two pre-coloured incidences: max degree + 2
    with pytest.raises(InputError) as err:
        construct(spec, lists, pre=pre_colours)
    assert str(err.value) == message


def test_construct_colours_an_edgeless_graph_from_no_lists():
    report = construct(FamilySpec("path", {"n": 1}), ListAssignment([]))
    assert report.colouring.assignment == {} and report.trace == ()


# the painting rule each family reaches, by its name in incolour.constructive
# (a tracer swaps that attribute, so construct must look it up per call)
_HALIN = FamilySpec("halin", {"tree_edges": [[0, 5], [1, 5], [2, 6], [3, 6], [4, 6], [5, 6]],
                              "leaf_order": [0, 1, 2, 3, 4]})
RULES = [
    (FamilySpec("grid", {"m": 4, "n": 3}), "paint_grid"),
    (FamilySpec("tree", {"n": 7, "seed": 2}), "paint_tree"),
    (FamilySpec("path", {"n": 4}), "paint_tree"),
    (FamilySpec("star", {"n": 3}), "paint_tree"),
    (FamilySpec("cycle", {"n": 7}), None),
    (_HALIN, "paint_halin"),
    (FamilySpec("wheel", {"n": 5}), "paint_halin"),
    (FamilySpec("complete", {"n": 4}), "paint_halin"),
    (FamilySpec("ham_cubic", {"n": 4, "seed": 0}), "paint_ham_cubic"),
    (FamilySpec("corona", {"n": 4, "p": 3}), "paint_corona"),
    (FamilySpec("cactus", {"cycles": [[0, 1, 2]], "edges": [[0, 3], [1, 4]]}), "paint_cactus"),
    (FamilySpec("ham_cubic", {"n": 8, "seed": 1}), "paint_ham_cubic"),
]


@pytest.mark.parametrize("spec, rule", RULES,
                         ids=[f"{s.family}{s.params.get('n', '')}" for s, _ in RULES])
def test_construct_reaches_each_rule_by_name(monkeypatch, spec, rule):
    """``construct`` calls the family's painting rule once, through the
    ``incolour.constructive`` attribute; a cycle is one ``paint_ring``."""
    calls = []
    owner, name = (constructive.Painter, "paint_ring") if rule is None else (constructive, rule)
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    g, spec = generate(spec)
    construct(spec, ListAssignment.uniform(g, guaranteed_bound(spec)))
    assert calls == [name]


def test_construct_fails_a_colouring_that_drops_the_pre_colours(monkeypatch, tmp_path):
    """A corona procedure that ignores ``pre`` still returns valid
    colourings; construct must report the broken pre-colours as a failure
    to the fuzz trial and to the CLI."""
    real = constructive.paint_corona
    monkeypatch.setattr(constructive, "paint_corona",
                        lambda painter, n, p, pre: real(painter, n, p, None))
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
