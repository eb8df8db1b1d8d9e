from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from conftest import assert_valid_report
from incolour.catalogue import halin_interleaved_spec, halin_specs, random_halin_spec
from incolour.constructive import (
    choose_halin_boundary,
    choose_k4_triple,
    construct,
    halin_boundary_valid,
    k4_triple_valid,
    required_halin_lists,
)
from incolour.constructive import _as_halin
from incolour.families import FamilySpec, generate
from incolour.graphs import InputError, ListAssignment, incidence_id
from incolour.harness import random_list_assignment


def wheel_as_halin(n):
    spec = _as_halin(FamilySpec("wheel", {"n": n}))
    g, spec = generate(spec)
    return g, spec


def k4_spec():
    return wheel_as_halin(3)


# ------------------------------------------------------------ selectors ---

def test_k4_triple_common_branch():
    shared = frozenset(range(1, 7))
    triple, case = choose_k4_triple(shared, shared, shared, frozenset(range(10, 16)))
    assert triple == (1, 1, 1) and case == "common"


def test_k4_triple_disjoint_picks_outside_target():
    A = frozenset(range(1, 7))
    B = frozenset(range(11, 17))
    C = frozenset(range(21, 27))
    target = A
    triple, case = choose_k4_triple(A, B, C, target)
    assert case == "disjoint"
    assert k4_triple_valid(triple, A, B, C, target)
    # the two sets differing from the target provide outside picks
    assert triple[1] not in target and triple[2] not in target


def test_k4_triple_oracle_random():
    rng = random.Random(11)
    for _ in range(2000):
        pool = range(1, 13)
        A, B, C, target = [frozenset(rng.sample(pool, 6)) for _ in range(4)]
        triple, case = choose_k4_triple(A, B, C, target)
        assert k4_triple_valid(triple, A, B, C, target), (case, triple)
        brute = [t for t in itertools.product(sorted(A), sorted(B), sorted(C))
                 if k4_triple_valid(t, A, B, C, target)]
        assert triple in brute


def test_halin_boundary_common_branch():
    shared = frozenset(range(1, 7))
    other = frozenset(range(1, 7))
    vals, case = choose_halin_boundary(
        other, other, shared, shared, shared, other, other, frozenset(range(20, 26)))
    a, b, c, d, e = vals
    assert c == d == e and case == "cde-common"


def test_halin_boundary_oracle_random():
    rng = random.Random(3)
    for _ in range(1200):
        pool = range(1, 13)
        A, B, C, D, E, gl, gf, gi = [frozenset(rng.sample(pool, 6)) for _ in range(8)]
        vals, case = choose_halin_boundary(A, B, C, D, E, gl, gf, gi)
        assert halin_boundary_valid(vals, A, B, C, D, E, gl, gf, gi), (case, vals)
        brute_found = False
        for t in itertools.product(sorted(A), sorted(B), sorted(C), sorted(D), sorted(E)):
            if halin_boundary_valid(t, A, B, C, D, E, gl, gf, gi):
                brute_found = True
                break
        assert brute_found


# ------------------------------------------------------------ colouring ---

def test_k4_thousand_random_lists():
    g, spec = k4_spec()
    for trial in range(1000):
        lists = random_list_assignment(g, 6, 18, trial)
        rep = construct(spec, lists)
        assert_valid_report(g, lists, rep)


def test_k4_every_branch_reachable():
    """Crafted list assignments driving each schedule of the K4 procedure
    (random lists over a 3k universe practically always share a colour
    across the three source lists, so only the first case runs there)."""
    g, spec = k4_spec()
    m = 12

    def build(named):
        lists = {t: frozenset(range(100 + 10 * t, 106 + 10 * t)) for t in range(m)}
        for (x, y), colours in named.items():
            lists[incidence_id(g, x, y)] = frozenset(colours)
        return ListAssignment([lists[t] for t in range(m)])

    cases = {
        "halin-k4-case2a": {
            (1, 0): range(1, 7), (2, 0): range(7, 13), (3, 0): range(13, 19),
            (0, 1): range(19, 25), (0, 2): range(25, 31), (0, 3): range(31, 37)},
        "halin-k4-case2b": {
            (1, 0): range(1, 7), (2, 0): range(7, 13), (3, 0): range(13, 19),
            (0, 1): range(19, 25),
            (0, 2): (1, 7, 40, 41, 42, 43), (0, 3): (1, 7, 44, 45, 46, 47),
            (1, 2): range(50, 56)},
        "halin-k4-far-pair": {
            (1, 0): range(1, 7), (0, 1): range(1, 7),
            (2, 0): range(7, 13), (3, 0): range(13, 19)},
        "halin-k4-case1": {
            (1, 0): range(1, 7), (2, 0): range(7, 13), (3, 0): range(7, 13),
            (0, 1): range(20, 26)},
    }
    for expected_tag, named in cases.items():
        lists = build(named)
        rep = construct(spec, lists)
        assert_valid_report(g, lists, rep)
        assert expected_tag in {s.tag for s in rep.trace}


def test_wheel_bounds():
    for n, expect in [(3, 6), (4, 7), (5, 7), (6, 7), (7, 8), (8, 9)]:
        g, spec = wheel_as_halin(n)
        assert required_halin_lists(g, spec) == expect


def test_wheels_at_their_bound():
    for n in range(4, 9):
        g, spec = wheel_as_halin(n)
        k = required_halin_lists(g, spec)
        for trial in range(60):
            lists = random_list_assignment(g, k, 3 * k, trial)
            rep = construct(spec, lists)
            assert_valid_report(g, lists, rep)


def test_nonwheel_halins_six_lists():
    for spec in halin_specs():
        g, spec = generate(spec)
        assert g.max_degree in (3, 4)
        assert required_halin_lists(g, spec) == 6
        for trial in range(60):
            lists = random_list_assignment(g, 6, 18, trial)
            rep = construct(spec, lists)
            assert_valid_report(g, lists, rep)
            assert not any("fallback" in s.tag for s in rep.trace)


def test_interleaved_leaf_order_falls_back_to_search():
    spec = halin_interleaved_spec()
    g, spec = generate(spec)
    lists = random_list_assignment(g, 6, 18, 5)
    rep = construct(spec, lists)
    assert_valid_report(g, lists, rep)
    assert any(s.tag == "halin-solver-fallback" for s in rep.trace)


def test_big_delta_nonwheel_uses_tree_first():
    # two hubs of degree 6 joined by an edge
    edges = [[0, 1]]
    leaves = []
    for hub, base in ((0, 2), (1, 7)):
        for leaf in range(base, base + 5):
            edges.append([hub, leaf])
            leaves.append(leaf)
    spec = FamilySpec("halin", {"tree_edges": edges, "leaf_order": leaves})
    g, spec = generate(spec)
    assert g.max_degree == 6
    k = required_halin_lists(g, spec)
    assert k == 7
    lists = random_list_assignment(g, k, 3 * k, 1)
    rep = construct(spec, lists)
    assert_valid_report(g, lists, rep)
    assert any(s.tag == "halin-tree" for s in rep.trace)


# tree-first runs whose leaf orders are not increasing: the outer cycle's
# search works in host incidence-id order, which these traces pin (the
# Halin runs behind TRACE_DIGEST are wheels, whose leaf orders increase)
TREE_FIRST_DIGEST = "3a104ef6fa16839b"


def test_tree_first_traces_match_golden_digest():
    h = hashlib.sha256()
    for seed in range(1, 6):
        g, spec = generate(random_halin_spec(150, seed))
        leaves = list(spec.params["leaf_order"])
        assert leaves != sorted(leaves)
        k = required_halin_lists(g, spec)
        rep = construct(spec, random_list_assignment(g, k, 3 * k, seed))
        assert {s.tag for s in rep.trace} == {"halin-tree", "halin-outer-cycle"}
        h.update(f"seed={seed}\n".encode())
        for step in rep.trace:
            h.update(f"{step.incidence},{step.colour},{step.tag}\n".encode())
    assert h.hexdigest()[:16] == TREE_FIRST_DIGEST


def test_random_halin_structures():
    """Seeded random Halin graphs across all dispatch routes."""
    from incolour.families import is_tree
    from incolour.graphs import Graph

    routes = set()
    for i in range(24):
        spec = random_halin_spec(1 + i % 6, 100 + i)
        g, spec = generate(spec)
        tree = Graph(g.n, spec.params["tree_edges"])
        assert is_tree(tree)
        assert all(tree.degree(v) != 2 for v in range(tree.n))
        k = required_halin_lists(g, spec)
        for trial in range(15):
            lists = random_list_assignment(g, k, 3 * k, 7000 + 97 * i + trial)
            rep = construct(spec, lists)
            assert_valid_report(g, lists, rep)
        tags = {s.tag.split(":")[0] for s in rep.trace}
        if "halin-tree" in tags:
            routes.add("tree-first")
        elif "halin-boundary-pick" in tags:
            routes.add("boundary")
        elif "halin-k4-pick" in tags:
            routes.add("k4")
    assert {"tree-first", "boundary"} <= routes


def test_rejects_small_lists():
    g, spec = wheel_as_halin(5)
    with pytest.raises(InputError):
        construct(spec, ListAssignment.uniform(g, 6))


def test_deterministic():
    spec = halin_specs()[0]
    g, spec = generate(spec)
    lists = random_list_assignment(g, 6, 18, 9)
    r1 = construct(spec, lists)
    r2 = construct(spec, lists)
    assert r1.colouring == r2.colouring and r1.trace == r2.trace
