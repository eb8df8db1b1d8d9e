from __future__ import annotations

import pytest

from conftest import NOT_A_CACTUS, NOT_A_CACTUS_IDS, assert_valid_report
from golden import assert_golden
from incolour.catalogue import cactus_row_specs, random_cactus_specs
from incolour.constructive import cactus_bound, construct, guaranteed_bound
from incolour.constructive.cactus import _pick_start
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
        assert cactus_bound(g, spec.params["cycles"]) == k


def test_two_triangles_with_bridge():
    spec = cactus_row_specs()[0]
    g, spec = generate(spec)
    lists = ListAssignment.uniform(g, 5)
    rep = construct(spec, lists)
    assert_valid_report(g, lists, rep)


@pytest.mark.parametrize("row", range(5))
def test_handcrafted_rows_random_lists(row):
    spec = cactus_row_specs()[row]
    g, spec = generate(spec)
    k = cactus_bound(g, spec.params["cycles"])
    for trial in range(50):
        lists = random_list_assignment(g, k, 3 * k, trial)
        rep = construct(spec, lists)
        assert_valid_report(g, lists, rep)


def test_random_cactuses():
    for spec in random_cactus_specs(count=8, seed=100):
        g, spec = generate(spec)
        k = cactus_bound(g, spec.params["cycles"])
        for trial in range(20):
            lists = random_list_assignment(g, k, 3 * k, trial)
            rep = construct(spec, lists)
            assert_valid_report(g, lists, rep)


def test_rejects_tree_and_cycle_inputs():
    t, _ = generate(FamilySpec("tree", {"n": 6, "seed": 0}))
    with pytest.raises(InputError, match="use the tree colouring"):
        construct(FamilySpec("cactus", {"edges": t.edges}), ListAssignment.uniform(t, 9))
    c, _ = gen_basic("cycle", 5)
    with pytest.raises(InputError, match="use the cycle colouring"):
        construct(FamilySpec("cactus", {"edges": c.edges}), ListAssignment.uniform(c, 9))
    k4, _ = gen_basic("complete", 4)
    with pytest.raises(InputError, match="one-cycle-per-vertex"):
        construct(FamilySpec("cactus", {"edges": k4.edges}), ListAssignment.uniform(k4, 9))


@pytest.mark.parametrize("data, message", NOT_A_CACTUS, ids=NOT_A_CACTUS_IDS)
def test_guaranteed_bound_rejects_the_shapes_construct_rejects(data, message):
    spec = FamilySpec.from_json(data)
    with pytest.raises(InputError, match=f"^{message}$"):
        guaranteed_bound(spec)
    g, spec = generate(spec)
    with pytest.raises(InputError, match=f"^{message}$"):
        construct(spec, ListAssignment.uniform(g, 9))


def test_rejects_small_lists():
    spec = cactus_row_specs()[4]
    g, spec = generate(spec)
    with pytest.raises(InputError):
        construct(spec, ListAssignment.uniform(g, cactus_bound(g, spec.params["cycles"]) - 1))


def test_rejects_lists_that_do_not_cover_the_graph():
    g, spec = generate(cactus_row_specs()[4])
    short = ListAssignment([range(1, 20)] * (2 * len(g.edges) - 1))
    with pytest.raises(InputError, match="does not cover the incidences"):
        construct(spec, short)


def test_cycle_with_tree_branches_off_one_vertex():
    # a vertex shared by one cycle and several tree branches is allowed
    spec = FamilySpec("cactus", {
        "cycles": [[0, 1, 2, 3]],
        "edges": [[0, 1], [1, 2], [2, 3], [0, 3], [0, 4], [4, 5], [0, 6], [6, 7]],
    })
    g, spec = generate(spec)
    assert cactus_cycles(g) == [[0, 1, 2, 3]]
    k = cactus_bound(g, spec.params["cycles"])
    lists = random_list_assignment(g, k, 3 * k, 2)
    rep = construct(spec, lists)
    assert_valid_report(g, lists, rep)


def test_deterministic():
    spec = cactus_row_specs()[3]
    g, spec = generate(spec)
    lists = random_list_assignment(g, cactus_bound(g, spec.params["cycles"]), 21, 8)
    r1 = construct(spec, lists)
    r2 = construct(FamilySpec("cactus", {"edges": g.edges}), lists)
    assert r1.colouring == r2.colouring and r1.trace == r2.trace


def test_cactus_traces_match_golden_digest(golden_digests):
    """The census rows and 40 random cactuses, list seeds 0-2 at universes
    k + 1 and 3k, are corpus cactus runs."""
    assert_golden(golden_digests, ["cactus"])


def _three_branch_start(g, cycles):
    """The first cycle as the three-branch rule picked it: the first
    maximal triangle, else the triangle of greatest maximum degree (first
    on ties), else the first cycle."""
    delta = g.max_degree
    maximal_triangles = [
        i for i, c in enumerate(cycles)
        if len(c) == 3 and any(g.degree(v) == delta for v in c)
    ]
    if maximal_triangles:
        return maximal_triangles[0]
    triangles = sorted(
        (i for i, c in enumerate(cycles) if len(c) == 3),
        key=lambda i: (-max(g.degree(v) for v in cycles[i]), i),
    )
    if triangles:
        return triangles[0]
    return 0


def test_pick_start_matches_the_three_branch_rule():
    # the first triangle is not maximal: vertex 4, of degree 4, is on the second
    crafted = FamilySpec("cactus", {"edges": [
        [0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [4, 5], [3, 5], [4, 6], [4, 7]]})
    g, spec = generate(crafted)
    assert _pick_start(g, spec.params["cycles"]) == 1
    randoms = [FamilySpec("cactus", {"size": size, "seed": seed})
               for size in range(6, 118, 3) for seed in range(5)]
    for spec in [crafted] + cactus_row_specs() + randoms:
        g, spec = generate(spec)
        cycles = spec.params["cycles"]
        assert _pick_start(g, cycles) == _three_branch_start(g, cycles)
