from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_valid_report
from incolour.constructive import colour_tree
from incolour.families import gen_basic, gen_random_tree
from incolour.graphs import (
    Graph,
    InputError,
    ListAssignment,
    incidence_adjacent,
    incidence_id,
    incidences,
)
from incolour.harness import random_list_assignment


def test_path_with_one_precoloured():
    t, _ = gen_basic("path", 4)
    lists = ListAssignment.uniform(t, 3)   # degree 2, one pre-colour
    rep = colour_tree(t, lists, pre={0: 2})
    assert_valid_report(t, lists, rep, expect={0: 2})


def test_two_precolours_fire_peel_and_anchor():
    # pre-colours in two colour classes: the class of the higher id is
    # peeled, the other anchors the base case
    t, _ = gen_basic("path", 4)
    lists = ListAssignment.uniform(t, 4)   # degree 2 + two pre-colours
    rep = colour_tree(t, lists, pre={0: 1, 5: 2})
    assert_valid_report(t, lists, rep, expect={0: 1, 5: 2})
    tags = {step.incidence: step.tag for step in rep.trace}
    assert tags[0] == "tree-anchor" and tags[5] == "tree-peel"


def test_star_centre_incidences_distinct():
    s4, _ = gen_basic("star", 4)
    lists = ListAssignment.uniform(s4, 5)
    rep = colour_tree(s4, lists)
    assert_valid_report(s4, lists, rep)
    centre = [rep.colouring[incidence_id(s4, 0, leaf)] for leaf in range(1, 5)]
    assert len(set(centre)) == 4


def test_k2_forced_mate(k2):
    lists = ListAssignment([{1, 2}, {1, 2}])
    rep = colour_tree(k2, lists, pre={0: 1})
    assert rep.colouring.assignment == {0: 1, 1: 2}


def test_empty_and_single_vertex():
    rep = colour_tree(Graph(1, []), ListAssignment([]))
    assert len(rep.colouring) == 0


def test_rejects_non_tree():
    c3, _ = gen_basic("cycle", 3)
    with pytest.raises(InputError):
        colour_tree(c3, ListAssignment.uniform(c3, 5))


def test_rejects_small_lists():
    t, _ = gen_basic("star", 3)
    with pytest.raises(InputError):
        colour_tree(t, ListAssignment.uniform(t, 3))   # needs degree+1 = 4


def test_rejects_bad_precolouring():
    t, _ = gen_basic("path", 3)
    lists = ListAssignment.uniform(t, 4)
    with pytest.raises(InputError):
        colour_tree(t, lists, pre={0: 9})          # colour outside list
    i: int = incidence_id(t, 1, 0)
    j: int = incidence_id(t, 1, 2)
    with pytest.raises(InputError):
        colour_tree(t, lists, pre={i: 1, j: 1})    # adjacent, equal colours


def test_two_precoloured_same_colour_far_apart():
    t, _ = gen_basic("path", 6)
    lists = ListAssignment.uniform(t, 4)           # degree 2 + k = 2
    incs = incidences(t)
    i, j = 0, len(incs) - 1
    assert not incidence_adjacent(incs[i], incs[j])
    rep = colour_tree(t, lists, pre={i: 3, j: 3})
    assert_valid_report(t, lists, rep, expect={i: 3, j: 3})


def test_deterministic():
    t, _ = gen_random_tree(9, 4)
    lists = random_list_assignment(t, t.max_degree + 1, 12, 5)
    r1 = colour_tree(t, lists)
    r2 = colour_tree(t, lists)
    assert r1.colouring == r2.colouring and r1.trace == r2.trace


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 13), st.integers(0, 10_000), st.integers(0, 2))
def test_random_trees_with_random_lists(n, seed, extra_pre):
    t, _ = gen_random_tree(n, seed)
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
    rep = colour_tree(t, lists, pre=pre)
    assert_valid_report(t, lists, rep, expect=pre)
