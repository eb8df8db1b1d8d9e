from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_valid_report, pre_colouring
from golden import assert_golden
from incolour.constructive import construct, guaranteed_bound
from incolour.families import FamilySpec, gen_basic, gen_random_tree, generate
from incolour.graphs import (
    InputError,
    ListAssignment,
    incidence_adjacent,
    incidence_id,
    incidences,
)
from incolour.harness import random_list_assignment


def test_path_with_one_precoloured():
    t, spec = gen_basic("path", 4)
    lists = ListAssignment.uniform(t, 3)   # degree 2, one pre-colour
    rep = construct(spec, lists, pre={0: 2})
    assert_valid_report(t, lists, rep, expect={0: 2})


def test_two_precolours_are_painted_first():
    # pre-colours in two colour classes: both are painted first, and the
    # walk starts from the higher id, 5 = (3, 32), with its mate (2, 23)
    t, spec = gen_basic("path", 4)
    lists = ListAssignment.uniform(t, 4)   # degree 2 + two pre-colours
    rep = construct(spec, lists, pre={0: 1, 5: 2})
    assert_valid_report(t, lists, rep, expect={0: 1, 5: 2})
    assert [(s.incidence, s.tag) for s in rep.trace[:3]] == [
        (0, "tree-anchor"), (5, "tree-anchor"), (4, "tree-anchor-mate")]
    assert {s.tag for s in rep.trace[3:]} == {"tree-topdown"}


def test_one_class_of_three_precolours_is_painted_first():
    # all three pre-colours are painted first, and the walk starts from the
    # highest id, 11, with its mate 10
    t, spec = gen_basic("path", 7)
    lists = ListAssignment.uniform(t, 5)
    rep = construct(spec, lists, pre={2: 1, 7: 1, 11: 1})
    assert_valid_report(t, lists, rep, expect={2: 1, 7: 1, 11: 1})
    assert [(s.incidence, s.tag) for s in rep.trace[:4]] == [
        (2, "tree-anchor"), (7, "tree-anchor"), (11, "tree-anchor"), (10, "tree-anchor-mate")]


def test_tree_painting_matches_golden_digest(golden_digests):
    """300 random trees with up to five pre-colours and P7 with three, and
    the Halin graphs painted tree first, are corpus tree and Halin runs."""
    assert_golden(golden_digests, ["tree", "halin"])


def test_star_centre_incidences_distinct():
    s4, spec = gen_basic("star", 4)
    lists = ListAssignment.uniform(s4, 5)
    rep = construct(spec, lists)
    assert_valid_report(s4, lists, rep)
    centre = [rep.colouring[incidence_id(s4, 0, leaf)] for leaf in range(1, 5)]
    assert len(set(centre)) == 4


def test_k2_forced_mate():
    lists = ListAssignment([{1, 2}, {1, 2}])
    rep = construct(FamilySpec("path", {"n": 2}), lists, pre={0: 1})
    assert rep.colouring.assignment == {0: 1, 1: 2}


def test_empty_and_single_vertex():
    for spec in (FamilySpec("path", {"n": 1}), FamilySpec("tree", {"edges": []})):
        rep = construct(spec, ListAssignment([]))
        assert len(rep.colouring) == 0


def test_rejects_non_tree():
    c3, _ = gen_basic("cycle", 3)
    with pytest.raises(InputError, match="edges do not describe a tree"):
        construct(FamilySpec("tree", {"edges": c3.edges}), ListAssignment.uniform(c3, 5))


def test_rejects_small_lists():
    t, spec = gen_basic("star", 3)
    with pytest.raises(InputError):
        construct(spec, ListAssignment.uniform(t, 3))   # needs degree+1 = 4


# on the path 0-1-2 the incidences are 0 = (0, 01), 1 = (1, 10),
# 2 = (1, 12) and 3 = (2, 21)
@pytest.mark.parametrize("pre, pair", [
    ({0: 9}, None),                 # a colour outside its list
    ({1: 1, 2: 1}, (1, 2)),         # same vertex
    ({0: 1, 1: 1}, (0, 1)),         # same edge
    ({0: 1, 2: 1}, (0, 2)),         # (v, e) and (w, f) with vw = e
], ids=["outside-list", "same-vertex", "same-edge", "vw-is-e"])
def test_rejects_bad_precolouring(pre, pair):
    t, spec = gen_basic("path", 3)
    lists = ListAssignment.uniform(t, 4)
    if pair is not None:
        incs = incidences(t)
        assert incidence_adjacent(incs[pair[0]], incs[pair[1]])
    with pytest.raises(InputError, match="^bad pre-colouring: "):
        construct(spec, lists, pre=pre)


def test_guaranteed_bound_with_one_precoloured_edge():
    """``guaranteed_bound(tree, pre=True)`` is the bound for two pre-coloured
    incidences, max degree + 2, and it suffices for both incidences of one
    edge."""
    g, spec = generate(FamilySpec("tree", {"n": 12, "seed": 3}))
    k = guaranteed_bound(spec, pre=True)
    assert k == g.max_degree + 2
    u, v = g.edges[len(g.edges) // 2]
    down, up = incidence_id(g, u, v), incidence_id(g, v, u)
    for seed in range(5):
        lists = random_list_assignment(g, k, k + 2, seed)
        a = min(lists[down])
        pre = {down: a, up: min(lists[up] - {a})}
        assert_valid_report(g, lists, construct(spec, lists, pre=pre), expect=pre)


def test_rejects_precoloured_id_out_of_range():
    t, spec = gen_basic("path", 3)                 # incidences 0..3
    lists = ListAssignment.uniform(t, 4)
    for i in (4, -1):
        with pytest.raises(InputError, match=f"pre-coloured incidence {i} out of range"):
            construct(spec, lists, pre={i: 1})


def test_two_precoloured_same_colour_far_apart():
    t, spec = gen_basic("path", 6)
    lists = ListAssignment.uniform(t, 4)           # degree 2 + k = 2
    incs = incidences(t)
    i, j = 0, len(incs) - 1
    assert not incidence_adjacent(incs[i], incs[j])
    rep = construct(spec, lists, pre={i: 3, j: 3})
    assert_valid_report(t, lists, rep, expect={i: 3, j: 3})


def test_deterministic():
    t, spec = gen_random_tree(9, 4)
    lists = random_list_assignment(t, t.max_degree + 1, 12, 5)
    r1 = construct(spec, lists)
    r2 = construct(FamilySpec("tree", {"edges": t.edges}), lists)
    assert r1.colouring == r2.colouring and r1.trace == r2.trace


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 13), st.integers(0, 10_000), st.integers(0, 2))
def test_random_trees_with_random_lists(n, seed, extra_pre):
    t, spec = gen_random_tree(n, seed)
    k = extra_pre if t.edges else 0
    size = t.max_degree + max(k, 1)
    lists = random_list_assignment(t, size, 3 * size, seed)
    pre = {}
    incs = incidences(t)
    for i in range(k):
        cand = i * (len(incs) - 1) // max(k - 1, 1) if k > 1 else 0
        colour = None
        for c in sorted(lists[cand]):
            if all(not (pc == c and incidence_adjacent(incs[cand], incs[pi]))
                   for pi, pc in pre.items()):
                colour = c
                break
        if cand in pre or colour is None:
            continue
        pre[cand] = colour
    rep = construct(spec, lists, pre=pre)
    assert_valid_report(t, lists, rep, expect=pre)


def test_up_to_seven_precolours_at_the_exact_bound():
    """Random trees with 0 to 7 pre-colours, colour classes repeating, and
    every list exactly max degree + max(k, 1): no run is stuck and every
    pre-colour is kept, as the one-anchor walk's count promises."""
    rng = random.Random(7)
    runs = {}
    for run in range(400):
        t, spec = gen_random_tree(2 + run % 15, run)
        k = run % 8
        size = t.max_degree + max(k, 1)
        lists = random_list_assignment(t, size, size + 3, run)
        pre = pre_colouring(t, lists, k, rng)
        if len(pre) != k:
            continue
        rep = construct(spec, lists, pre=pre)
        assert_valid_report(t, lists, rep, expect=pre)
        runs[k] = runs.get(k, 0) + 1
    assert sorted(runs) == list(range(8)) and sum(runs.values()) > 300
