from __future__ import annotations

import itertools
import random

import pytest

import incolour.constructive.hamcubic as hamcubic
from conftest import assert_valid_report
from incolour.catalogue import ham_cubic_named
from incolour.constructive import Painter, StuckError, construct
from incolour.constructive.hamcubic import _boundary, paint_ham_cubic
from incolour.families import FamilySpec, generate
from incolour.graphs import InputError, ListAssignment
from incolour.harness import random_list_assignment


def boundary_valid(values, A, B, C, D, E, outer, inner) -> bool:
    """The boundary constraints: each colour from its list, a not in
    {c, e}, b != d, at most one colour of {a, b} in the outer guard and at
    most one colour of {c, d, e} in the inner guard."""
    a, b, c, d, e = values
    return (
        a in A and b in B and c in C and d in D and e in E
        and a != c and a != e and b != d
        and len(set(outer) & {a, b}) <= 1
        and len(set(inner) & {c, d, e}) <= 1
    )


def _assert_exact(A, B, C, D, E, outer, inner):
    """_boundary on sorted lists against enumeration: None exactly when no
    choice meets the constraints, else the least (c, d, e) with a fitting
    (a, b), and the least such (a, b)."""
    A, B, C, D, E = map(sorted, (A, B, C, D, E))
    outer, inner = frozenset(outer), frozenset(inner)
    values = _boundary(A, B, C, D, E, outer, inner)
    valid = [t for t in itertools.product(A, B, C, D, E)
             if boundary_valid(t, A, B, C, D, E, outer, inner)]
    assert values == min(valid, key=lambda t: (*t[2:], *t[:2]), default=None)
    return values


def test_boundary_common_branch():
    shared = frozenset(range(1, 7))
    vals = _assert_exact(shared, shared, shared, shared, shared,
                         frozenset(range(10, 16)), frozenset(range(20, 26)))
    a, b, c, d, e = vals
    assert c == d == e


def test_boundary_shared_free_colour_sets_pair():
    # the a/b pools share a colour after the removals: a == b
    C = frozenset(range(1, 7))
    D = frozenset(range(11, 17))
    E = frozenset(range(21, 27))
    A = frozenset([1, 21, 30, 31, 32, 33])
    B = frozenset([11, 30, 40, 41, 42, 43])
    vals = _assert_exact(A, B, C, D, E, frozenset(range(50, 56)), frozenset(range(60, 66)))
    a, b, c, d, e = vals
    assert a == b == 30


def test_boundary_oracle_random():
    """Random pools of 1-6 colours from a small universe, so that
    boundaries with no choice occur: _boundary agrees with enumeration."""
    rng = random.Random(5)
    nones = 0
    for _ in range(1500):
        pools = [rng.sample(range(1, 7), rng.randint(1, 6)) for _ in range(5)]
        outer, inner = (rng.sample(range(1, 7), rng.randint(0, 6)) for _ in range(2))
        nones += _assert_exact(*pools, outer, inner) is None
    assert 50 < nones < 1450


def test_ham_pigeonhole_on_the_a_side():
    # the b pool lands entirely inside the outer guard but for d's colour:
    # a must dodge the guard instead
    C = frozenset(range(1, 7))
    D = frozenset(range(7, 13))
    E = frozenset(range(13, 19))
    guard_outer = frozenset(range(20, 26))
    guard_inner = frozenset(range(40, 46))
    A = frozenset(range(30, 36))
    B = frozenset({7} | set(range(20, 25)))
    a, b, *_ = _assert_exact(A, B, C, D, E, guard_outer, guard_inner)
    assert a not in guard_outer


def test_ham_spare_b_side():
    C = frozenset(range(1, 7))
    D = frozenset(range(7, 13))
    E = frozenset(range(13, 19))
    guard_outer = frozenset(range(20, 26))
    guard_inner = frozenset(range(40, 46))
    A = frozenset(range(30, 36))
    B = frozenset({7} | set(range(50, 55)))
    assert _assert_exact(A, B, C, D, E, guard_outer, guard_inner)[1] == 50


@pytest.mark.parametrize("guard, seed", [("inner", 11), ("outer", 12)])
def test_boundary_guard_keeps_the_close_colourable(monkeypatch, guard, seed):
    """K3,3 with 6-lists from 7 colours: painted with both guards, but
    stuck at the closing pair when _boundary drops this one."""
    g, spec = generate(ham_cubic_named()[1])
    lists = random_list_assignment(g, 6, 7, seed)
    assert_valid_report(g, lists, construct(spec, lists))

    def unguarded(A, B, C, D, E, outer, inner):
        return _boundary(A, B, C, D, E, frozenset() if guard == "outer" else outer,
                         frozenset() if guard == "inner" else inner)

    monkeypatch.setattr(hamcubic, "_boundary", unguarded)
    with pytest.raises(StuckError) as info:
        construct(spec, lists)
    assert info.value.tag == "ham-close"


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
