from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_valid_report
from incolour.catalogue import halin_specs, random_halin_spec
from incolour.constructive import colour_tree, construct, required_halin_lists
from incolour.families import gen_basic, gen_random_tree, generate
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


def test_rejects_precoloured_id_out_of_range():
    t, _ = gen_basic("path", 3)                    # incidences 0..3
    lists = ListAssignment.uniform(t, 4)
    for i in (4, -1):
        with pytest.raises(InputError, match=f"pre-coloured incidence {i} out of range"):
            colour_tree(t, lists, pre={i: 1})


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


# sha256 prefix of the tree procedure's traces: colour_tree under nested
# peels, and the Halin runs whose inner tree it used to paint; re-pinned
# when every Halin graph moved to one route, the internal incidences root
# to leaves on the host painter and then the rim with its spokes, which
# moves the Halin runs only (OTHER_FAMILIES_DIGEST in test_construct.py
# pins the tree runs alone)
TREE_PAINT_DIGEST = "b651aff41fbe8e69"


def _pre_colouring(t, lists, k, rng):
    """Up to ``k`` pre-colours on random incidences, reusing a colour
    already placed whenever it fits, so colour classes repeat."""
    incs = incidences(t)
    pre = {}
    for i in rng.sample(range(len(incs)), min(k, len(incs))):
        fits = [c for c in sorted(lists[i])
                if all(pc != c or not incidence_adjacent(incs[i], incs[j])
                       for j, pc in pre.items())]
        reused = [c for c in fits if c in pre.values()]
        if reused and rng.random() < 0.7:
            pre[i] = rng.choice(reused)
        elif fits:
            pre[i] = rng.choice(fits)
    return pre


def _tree_runs():
    rng = random.Random(0)
    for run in range(300):
        t, _ = gen_random_tree(1 + run % 14, run)
        k = run % 6 if t.edges else 0
        size = t.max_degree + max(k, 1)
        lists = random_list_assignment(t, size, size + 2, run) if t.edges else ListAssignment([])
        pre = _pre_colouring(t, lists, k, rng)
        yield t, lists, pre, colour_tree(t, lists, pre=pre)
    # every pre-colour in one class: the peel leaves no anchor, and the
    # free anchor takes the smallest colour left after the dropped one
    t, _ = gen_basic("path", 7)
    lists = ListAssignment.uniform(t, 5)
    pre = {2: 1, 7: 1, 11: 1}
    yield t, lists, pre, colour_tree(t, lists, pre=pre)


def _halin_runs():
    specs = list(halin_specs())
    specs += [random_halin_spec(n, seed) for n in range(2, 9) for seed in range(20)]
    for spec in specs:
        g, spec = generate(spec)
        k = required_halin_lists(g, spec)
        for seed, universe in ((0, 3 * k), (1, k + 2)):
            yield spec, seed, construct(spec, random_list_assignment(g, k, universe, seed))


def test_tree_painting_matches_golden_digest():
    h = hashlib.sha256()
    nested = 0
    for t, lists, pre, rep in _tree_runs():
        assert_valid_report(t, lists, rep, expect=pre)
        colours = [c for _, c in sorted(pre.items())]
        nested += len([c for c in colours if c != colours[-1]]) >= 2
        h.update(f"tree n={t.n} edges={t.edges} pre={sorted(pre.items())}\n".encode())
        for step in rep.trace:
            h.update(f"{step.incidence},{step.colour},{step.tag}\n".encode())
    anchor = next(s for s in rep.trace if s.tag == "tree-anchor-free")
    assert anchor.colour == 2 and [s.tag for s in rep.trace[-3:]] == ["tree-peel"] * 3
    for spec, seed, rep in _halin_runs():
        h.update(f"{spec.params['tree_edges']}|{spec.params['leaf_order']}|seed={seed}\n".encode())
        for step in rep.trace:
            h.update(f"{step.incidence},{step.colour},{step.tag}\n".encode())
    assert nested > 0
    assert h.hexdigest()[:16] == TREE_PAINT_DIGEST
