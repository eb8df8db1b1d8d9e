from __future__ import annotations

import random

import pytest

from conftest import assert_valid_report
from incolour.constructive import construct, corona_bound
from incolour.families import FamilySpec, corona_pendant, gen_corona
from incolour.graphs import InputError, ListAssignment, incidence_id
from incolour.harness import random_list_assignment


def pendant_edge_ids(n, p):
    g, _ = gen_corona(n, p)
    down = incidence_id(g, 0, corona_pendant(0, 1, n, p))
    up = incidence_id(g, corona_pendant(0, 1, n, p), 0)
    return g, down, up


def corona(n, p):
    return FamilySpec("corona", {"n": n, "p": p})


def test_bounds_table():
    assert corona_bound(5, 1, pre=False) == 5
    assert corona_bound(5, 2, pre=True) == 6
    assert corona_bound(4, 4, pre=False) == 7
    assert corona_bound(4, 4, pre=True) == 7
    assert corona_bound(3, 3, pre=True) == 8
    assert corona_bound(3, 3, pre=False) == 7
    assert corona_bound(3, 5, pre=False) == 8


def test_small_p_uniform():
    g, _ = gen_corona(5, 1)
    lists = ListAssignment.uniform(g, 5)
    rep = construct(corona(5, 1), lists)
    assert_valid_report(g, lists, rep)


def test_precoloured_pendant_edge_respected():
    g, down, up = pendant_edge_ids(4, 4)
    lists = ListAssignment.uniform(g, 7)
    rep = construct(corona(4, 4), lists, {down: 1, up: 2})
    assert_valid_report(g, lists, rep, expect={down: 1, up: 2})


def test_precoloured_triangle_needs_eight():
    g, down, up = pendant_edge_ids(3, 3)
    rep = construct(corona(3, 3), ListAssignment.uniform(g, 8), {down: 1, up: 2})
    assert_valid_report(g, ListAssignment.uniform(g, 8), rep, expect={down: 1, up: 2})
    with pytest.raises(InputError):
        construct(corona(3, 3), ListAssignment.uniform(g, 7), {down: 1, up: 2})


def test_rejects_equal_precolours_and_foreign_colours():
    g, down, up = pendant_edge_ids(4, 3)
    lists = ListAssignment.uniform(g, 7)
    with pytest.raises(InputError):
        construct(corona(4, 3), lists, {down: 2, up: 2})
    with pytest.raises(InputError, match="outside the list"):
        construct(corona(4, 3), lists, {down: 99, up: 2})


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_random_lists_plain_and_precoloured(n, p):
    g, down, up = pendant_edge_ids(n, p)
    for pre_mode in (False, True):
        k = corona_bound(n, p, pre_mode)
        for trial in range(40):
            lists = random_list_assignment(g, k, 3 * k, trial)
            if pre_mode:
                rng = random.Random(trial)
                a = rng.choice(sorted(lists[down]))
                b = rng.choice(sorted(lists[up] - {a}))
                rep = construct(corona(n, p), lists, {down: a, up: b})
                assert_valid_report(g, lists, rep, expect={down: a, up: b})
            else:
                rep = construct(corona(n, p), lists)
                assert_valid_report(g, lists, rep)


def test_primary_path_avoids_solver_fallback():
    g, down, up = pendant_edge_ids(5, 3)
    for trial in range(50):
        lists = random_list_assignment(g, 7, 21, trial)
        rep = construct(corona(5, 3), lists)
        assert not any("fallback" in s.tag for s in rep.trace)


def test_pendant_block_retry_path():
    """Greedy order dead-ends yet a permuted block assignment exists."""
    from incolour.constructive.coronae import _paint_block
    from incolour.constructive.report import Painter
    from incolour.graphs import Graph

    s2 = Graph(3, [(0, 1), (0, 2)])
    lists = ListAssignment([{1, 2}, {1}, {5, 6}, {7, 8}])
    painter = Painter(s2, lists)
    _paint_block(painter, [0, 1])
    assert painter.colour == {0: 2, 1: 1}
    assert all(s.tag == "corona-pendant-matched" for s in painter.trace)


def test_pendant_squeeze_at_the_exact_bound():
    """A crafted pre-coloured instance with lists of exactly p+3 colours
    where the straight pendant order dies at the second-to-last pendant of
    v0 (all seven of its colours are forbidden) and the block permutation
    succeeds."""
    n, p = 4, 4
    g, _ = gen_corona(n, p)
    m = 2 * len(g.edges)

    def pend(i, j):
        return corona_pendant(i, j, n, p)

    def iid(x, y):
        return incidence_id(g, x, y)

    lists = {t: frozenset(range(200 + 10 * t, 207 + 10 * t)) for t in range(m)}
    for i in range(n):
        for j in range(1, p + 1):
            lists[iid(pend(i, j), i)] = frozenset(range(1, 8))
    lists[iid(0, pend(0, 1))] = frozenset({1, 20, 21, 22, 23, 24, 25})
    lists[iid(pend(0, 1), 0)] = frozenset({2, 20, 21, 22, 23, 24, 25})
    lists[iid(0, pend(0, 4))] = frozenset({2, 5, 6, 8, 9, 10, 11})
    lists[iid(1, 0)] = frozenset({3, 30, 31, 32, 33, 34, 35})
    lists[iid(3, 0)] = frozenset({4, 40, 41, 42, 43, 44, 45})
    lists[iid(0, 1)] = frozenset({5, 1, 2, 3, 4, 50, 51})
    lists[iid(2, 1)] = frozenset({5, 3, 52, 53, 54, 55, 56})
    lists[iid(3, pend(3, 4))] = frozenset({1, 2, 3, 5, 6, 60, 61})
    lists[iid(0, 3)] = frozenset({6, 1, 2, 3, 4, 5, 62})
    lists[iid(1, 2)] = frozenset({7, 70, 3, 5, 6, 71, 72})
    lists[iid(3, 2)] = frozenset({7, 4, 5, 6, 73, 74, 75})
    lists[iid(2, 3)] = frozenset({8, 4, 5, 7, 80, 81, 82})
    lists[iid(0, pend(0, 2))] = frozenset({1, 2, 3, 4, 5, 8, 9})
    lists[iid(0, pend(0, 3))] = frozenset({1, 2, 3, 4, 5, 6, 8})
    la = ListAssignment([lists[t] for t in range(m)])
    assert la.min_size() == 7 == corona_bound(n, p, pre=True)

    rep = construct(corona(n, p), la, {iid(0, pend(0, 1)): 1, iid(pend(0, 1), 0): 2})
    assert_valid_report(g, la, rep)
    tags = {s.tag for s in rep.trace}
    assert "corona-pendant-matched" in tags
    assert "corona-solver-fallback" not in tags


def test_solver_fallback_on_adversarial_lists():
    """Below-bound lists that defeat the procedure but stay satisfiable are
    finished by exact search and tagged as such."""
    from incolour.constructive.coronae import paint_corona_instance

    n, p = 3, 1
    g, _ = gen_corona(n, p)
    rich = ListAssignment.uniform(g, 9)
    first = paint_corona_instance(g, n, p, rich, None)
    gamma = first.colouring[incidence_id(g, 1, 0)]
    crafted = list(rich.lists)
    crafted[incidence_id(g, 1, corona_pendant(1, 1, n, p))] = frozenset({gamma})
    lists = ListAssignment(crafted)
    rep = paint_corona_instance(g, n, p, lists, None)
    assert {s.tag for s in rep.trace} == {"corona-solver-fallback"}
    from incolour.graphs import validate_colouring
    assert validate_colouring(g, lists, rep.colouring).ok


def test_deterministic():
    g, down, up = pendant_edge_ids(4, 2)
    lists = random_list_assignment(g, 6, 18, 13)
    a = min(lists[down])
    pre = {down: a, up: min(lists[up] - {a})}
    r1 = construct(corona(4, 2), lists, pre)
    r2 = construct(corona(4, 2), lists, pre)
    assert r1.colouring == r2.colouring and r1.trace == r2.trace
