from __future__ import annotations

import pytest

from conftest import assert_valid_report
from incolour.catalogue import cactus_row_specs, random_cactus_specs
from incolour.constructive import cactus_bound, colour_cactus
from incolour.families import FamilySpec, cactus_cycles, gen_basic, generate
from incolour.graphs import InputError, ListAssignment
from incolour.harness import random_list_assignment


def test_bound_rows():
    rows = cactus_row_specs()
    expected = [5, 5, 6, 7, 8]
    deltas = [3, 4, 4, 5, 6]
    for spec, k, delta in zip(rows, expected, deltas):
        g, spec = generate(spec)
        assert g.max_degree == delta
        assert cactus_bound(g) == k


def test_two_triangles_with_bridge():
    spec = cactus_row_specs()[0]
    g, spec = generate(spec)
    lists = ListAssignment.uniform(g, 5)
    rep = colour_cactus(g, lists)
    assert_valid_report(g, lists, rep)


@pytest.mark.parametrize("row", range(5))
def test_handcrafted_rows_random_lists(row):
    spec = cactus_row_specs()[row]
    g, spec = generate(spec)
    k = cactus_bound(g)
    for trial in range(50):
        lists = random_list_assignment(g, k, 3 * k, trial)
        rep = colour_cactus(g, lists)
        assert_valid_report(g, lists, rep)


def test_random_cactuses():
    for spec in random_cactus_specs(count=8, seed=100):
        g, spec = generate(spec)
        k = cactus_bound(g)
        for trial in range(20):
            lists = random_list_assignment(g, k, 3 * k, trial)
            rep = colour_cactus(g, lists)
            assert_valid_report(g, lists, rep)


def test_rejects_tree_and_cycle_inputs():
    t, _ = generate(FamilySpec("tree", {"n": 6, "seed": 0}))
    with pytest.raises(InputError):
        colour_cactus(t, ListAssignment.uniform(t, 9))
    c, _ = gen_basic("cycle", 5)
    with pytest.raises(InputError):
        colour_cactus(c, ListAssignment.uniform(c, 9))
    k4, _ = gen_basic("complete", 4)
    with pytest.raises(InputError):
        colour_cactus(k4, ListAssignment.uniform(k4, 9))


def test_rejects_small_lists():
    spec = cactus_row_specs()[4]
    g, spec = generate(spec)
    with pytest.raises(InputError):
        colour_cactus(g, ListAssignment.uniform(g, cactus_bound(g) - 1))


def test_cycle_with_tree_branches_off_one_vertex():
    # a vertex shared by one cycle and several tree branches is allowed
    spec = FamilySpec("cactus", {
        "cycles": [[0, 1, 2, 3]],
        "edges": [[0, 1], [1, 2], [2, 3], [0, 3], [0, 4], [4, 5], [0, 6], [6, 7]],
    })
    g, spec = generate(spec)
    assert cactus_cycles(g) == [[0, 1, 2, 3]]
    k = cactus_bound(g)
    lists = random_list_assignment(g, k, 3 * k, 2)
    rep = colour_cactus(g, lists)
    assert_valid_report(g, lists, rep)


def test_deterministic():
    spec = cactus_row_specs()[3]
    g, spec = generate(spec)
    lists = random_list_assignment(g, cactus_bound(g), 21, 8)
    r1 = colour_cactus(g, lists)
    r2 = colour_cactus(g, lists)
    assert r1.colouring == r2.colouring and r1.trace == r2.trace
