"""``construct``, the one spec-driven entry point to the constructive
procedures: its checks of lists and pre-colourings, the rule each family
reaches and its error messages.  Its traces are pinned by the golden
corpus of ``golden.py``."""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

import incolour.constructive as constructive
from conftest import FUZZ_FAMILIES
from golden import GOLDEN, assert_golden
from incolour.catalogue import corona_specs, default_fuzz_instances
from incolour.cli import main
from incolour.constructive import construct, guaranteed_bound
from incolour.constructive.coronae import pendant_edge_ids
from incolour.families import FamilySpec, generate
from incolour.graphs import InputError, ListAssignment, validate_colouring
from incolour.harness import FuzzCampaign, pre_pair, random_list_assignment, run_campaign


def test_construct_traces_match_golden_digest(golden_digests):
    """The first two fuzz instances of every family, wheel 6 and K4, at 3k
    (coronae also pre-coloured) are corpus runs of all seven families."""
    assert_golden(golden_digests, GOLDEN)


def test_non_ring_steps_match_golden_digest(golden_digests):
    """A step outside a ring, of any family, is pinned in its trace order by
    its family's ordered digest: the sorted digest alone would let it move."""
    assert_golden(golden_digests, GOLDEN)


def test_other_families_match_golden_digest(golden_digests):
    """The graphs that are neither cycles nor Halin graphs (wheels, K4 and
    the ham_cubic K4 count as Halin graphs) are pinned apart from them."""
    assert_golden(golden_digests, GOLDEN.keys() - {"cycle", "halin"})


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


@pytest.mark.parametrize("spec", [
    FamilySpec("grid", {"m": 3, "n": 3}),
    FamilySpec("cycle", {"n": 5}),
    FamilySpec("wheel", {"n": 5}),
    _HALIN,
    FamilySpec("ham_cubic", {"n": 8, "seed": 1}),
], ids=lambda s: s.family)
def test_a_family_without_pre_colouring_rejects_one_at_both_entry_points(spec):
    """``guaranteed_bound(spec, pre=True)`` and ``construct`` with a
    pre-colouring raise one message, before any other check of it."""
    message = f"^family '{spec.family}' does not take a pre-colouring$"
    with pytest.raises(InputError, match=message):
        guaranteed_bound(spec, pre=True)
    g, spec = generate(spec)
    with pytest.raises(InputError, match=message):
        construct(spec, ListAssignment.uniform(g, 9), pre={0: 1, 1: 2})


@pytest.mark.parametrize("spec", [
    FamilySpec("path", {"n": 1}),
    FamilySpec("tree", {"edges": []}),
], ids=["path1", "edgeless-tree"])
def test_an_instance_with_no_edge_rejects_a_pre_colouring_at_both_entry_points(spec):
    """No run with a pre-colouring exists on an edgeless instance, so it
    has no pre-coloured bound either."""
    message = (r"^a pre-colouring needs an instance with an edge, "
               rf"got \{{'family': '{spec.family}', .*\}}$")
    with pytest.raises(InputError, match=message):
        guaranteed_bound(spec, pre=True)
    assert guaranteed_bound(spec) == 1
    g, spec = generate(spec)
    with pytest.raises(InputError, match=message):
        construct(spec, ListAssignment.uniform(g, 3), pre={0: 1})


@pytest.mark.parametrize("extra", [False, True], ids=["off-the-edge", "one-more"])
def test_a_corona_pre_colouring_must_be_the_pendant_edge(extra):
    spec = FamilySpec("corona", {"n": 4, "p": 3})
    g, spec = generate(spec)
    down, up = pendant_edge_ids(g, 4, 3)
    other = min({0, 1, 2} - {down, up})
    pre = {down: 1, up: 2, other: 3} if extra else {other: 1}
    with pytest.raises(InputError, match=f"^corona pre-colouring must cover incidences "
                                         f"{down} and {up} only$"):
        construct(spec, ListAssignment.uniform(g, 9), pre=pre)


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
