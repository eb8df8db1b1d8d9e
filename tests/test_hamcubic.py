from __future__ import annotations

import itertools
import random

import pytest

from conftest import assert_valid_report
from incolour.catalogue import ham_cubic_named
from incolour.constructive import Painter, choose_ham_boundary, construct, ham_boundary_valid
from incolour.constructive.hamcubic import paint_ham_cubic
from incolour.families import FamilySpec, generate
from incolour.graphs import InputError, ListAssignment
from incolour.harness import random_list_assignment


def test_boundary_common_branch():
    shared = frozenset(range(1, 7))
    vals, case = choose_ham_boundary(
        shared, shared, shared, shared, shared,
        frozenset(range(10, 16)), frozenset(range(20, 26)))
    a, b, c, d, e = vals
    assert c == d == e and case == "cde-common"


def test_boundary_shared_free_colour_sets_pair():
    # the a/b pools share a colour after the removals: a == b
    C = frozenset(range(1, 7))
    D = frozenset(range(11, 17))
    E = frozenset(range(21, 27))
    A = frozenset([1, 21, 30, 31, 32, 33])
    B = frozenset([11, 30, 40, 41, 42, 43])
    vals, case = choose_ham_boundary(C, D, E, A, B, frozenset(range(50, 56)), frozenset(range(60, 66)))
    a, b, c, d, e = vals
    assert a == b == 30


def test_boundary_oracle_random():
    rng = random.Random(5)
    for _ in range(1200):
        pool = range(1, 13)
        C, D, E, A, B, outer, inner = [frozenset(rng.sample(pool, 6)) for _ in range(7)]
        vals, case = choose_ham_boundary(C, D, E, A, B, outer, inner)
        assert ham_boundary_valid(vals, A, B, C, D, E, outer, inner), (case, vals)
        found = any(
            ham_boundary_valid(t, A, B, C, D, E, outer, inner)
            for t in itertools.product(sorted(A), sorted(B), sorted(C), sorted(D), sorted(E))
        )
        assert found


def test_named_graphs_uniform_lists():
    for spec in ham_cubic_named():
        g, spec = generate(spec)
        lists = ListAssignment.uniform(g, 6)
        rep = construct(spec, lists)
        assert_valid_report(g, lists, rep)


def test_named_graphs_random_lists():
    for spec in ham_cubic_named():
        g, spec = generate(spec)
        for trial in range(100):
            lists = random_list_assignment(g, 6, 18, trial)
            rep = construct(spec, lists)
            assert_valid_report(g, lists, rep)


def test_k33_thousand_random_lists():
    spec = ham_cubic_named()[1]
    g, spec = generate(spec)
    for trial in range(1000):
        lists = random_list_assignment(g, 6, 18, trial)
        rep = construct(spec, lists)
        assert_valid_report(g, lists, rep)


def test_rotation_when_first_vertex_matched_two_ahead():
    spec = FamilySpec("ham_cubic", {"n": 8, "matching": [[0, 2], [1, 4], [3, 6], [5, 7]]})
    g, spec = generate(spec)
    for trial in range(50):
        lists = random_list_assignment(g, 6, 18, trial)
        rep = construct(spec, lists)
        assert_valid_report(g, lists, rep)


def test_random_cubic_graphs():
    for i in range(12):
        spec = FamilySpec("ham_cubic", {"n": 6 + 2 * (i % 8), "seed": i})
        g, spec = generate(spec)
        for trial in range(25):
            lists = random_list_assignment(g, 6, 18, 31 * i + trial)
            rep = construct(spec, lists)
            assert_valid_report(g, lists, rep)


def test_rejects_small_lists():
    spec = ham_cubic_named()[1]
    g, spec = generate(spec)
    with pytest.raises(InputError):
        construct(spec, ListAssignment.uniform(g, 5))


def test_deterministic():
    spec = ham_cubic_named()[2]
    g, spec = generate(spec)
    lists = random_list_assignment(g, 6, 18, 17)
    r1 = construct(spec, lists)
    r2 = construct(spec, lists)
    assert r1.colouring == r2.colouring and r1.trace == r2.trace


def test_painting_rule_paints_k4_as_construct_does():
    """``paint_ham_cubic`` on order 4 paints K4 by its Halin rule, as
    ``construct`` does."""
    g, spec = generate(FamilySpec("ham_cubic", {"n": 4, "seed": 0}))
    lists = random_list_assignment(g, 6, 18, 3)
    painter = Painter(g, lists)
    paint_ham_cubic(painter, spec)
    assert painter.report() == construct(spec, lists)
