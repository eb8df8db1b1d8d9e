"""Crafted instances steering the colour selectors into their rarely-hit
branches (random pools with a 3k universe almost always intersect, so the
disjoint and pigeonhole paths need deliberate inputs), and the crafted
inputs of the former Halin boundary selector, kept as Halin lists."""

from __future__ import annotations

import hashlib
import random
from collections import Counter

from incolour.constructive import (
    choose_ham_boundary,
    choose_k4_triple,
    ham_boundary_valid,
    k4_triple_valid,
)
from incolour.constructive.coronae import _choose_cd, _place_pair
from incolour.constructive.report import Painter
from incolour.families import gen_corona
from incolour.graphs import ListAssignment
from test_halin import construct_with_boundary_lists


# sha256 prefix of the guarded-triple selectors' values and case strings on
# the seeded sample below: the K4 triple and the Hamiltonian cubic boundary
# (re-recorded over these two when the Halin boundary selector was deleted)
SELECTOR_DIGEST = "66866a69e2aecac5"


def _selector_sample(count=600, seed=0):
    """Seeded 6-colour lists drawn from three disjoint colour blocks, so the
    (c, d, e) lists share a colour, pair up or stay disjoint in every way;
    the inner guard is sometimes one of them."""
    rng = random.Random(seed)
    for _ in range(count):
        lists = []
        for _ in range(8):
            off = rng.choice((0, 10, 20))
            width = rng.choice((6, 7, 9))
            lists.append(frozenset(rng.sample(range(off + 1, off + width + 1), 6)))
        A, B, C, D, E, guard_1, guard_2, other = lists
        guard_inner = rng.choice((C, D, E, other))
        yield A, B, C, D, E, guard_1, guard_2, guard_inner


def test_guarded_triple_selectors_match_golden_digest():
    h = hashlib.sha256()
    cases = Counter()
    for A, B, C, D, E, g1, _, gi in _selector_sample():
        triple, k4_case = choose_k4_triple(C, D, E, gi)
        assert k4_triple_valid(triple, C, D, E, gi)
        ham, ham_case = choose_ham_boundary(C, D, E, A, B, g1, gi)
        assert ham_boundary_valid(ham, A, B, C, D, E, g1, gi)
        for values, case in ((triple, k4_case), (ham, ham_case)):
            h.update(f"{values}|{case}\n".encode())
            cases[case] += 1
    assert set(cases) == {
        "common", "pair-ab", "pair-ac", "pair-bc", "disjoint",
        "cde-common", "cde-cd", "cde-ce", "cde-de", "cde-disjoint",
    }
    assert h.hexdigest()[:16] == SELECTOR_DIGEST


def test_ham_pigeonhole_on_the_a_side():
    # pool_b lands entirely inside the outer guard: a must dodge it instead
    C = frozenset(range(1, 7))
    D = frozenset(range(7, 13))
    E = frozenset(range(13, 19))
    guard_outer = frozenset(range(20, 26))
    guard_inner = frozenset(range(40, 46))
    A = frozenset(range(30, 36))
    B = frozenset({7} | set(range(20, 25)))
    vals, case = choose_ham_boundary(C, D, E, A, B, guard_outer, guard_inner)
    assert ham_boundary_valid(vals, A, B, C, D, E, guard_outer, guard_inner)
    a, b, *_ = vals
    assert a not in guard_outer


def test_ham_spare_b_side():
    C = frozenset(range(1, 7))
    D = frozenset(range(7, 13))
    E = frozenset(range(13, 19))
    guard_outer = frozenset(range(20, 26))
    guard_inner = frozenset(range(40, 46))
    A = frozenset(range(30, 36))
    B = frozenset({7} | set(range(50, 55)))
    vals, _case = choose_ham_boundary(C, D, E, A, B, guard_outer, guard_inner)
    assert ham_boundary_valid(vals, A, B, C, D, E, guard_outer, guard_inner)
    assert vals[1] == 50


def test_halin_boundary_stage_rechecks():
    """c in both outer guards with disjoint a and b pools: the crafted input
    of the former Halin boundary selector's second stage, as lists around
    the caterpillar's boundary for the one Halin route (the first guard,
    five colours there, padded to six with 200)."""
    construct_with_boundary_lists([
        range(1, 7), range(10, 16), {5, 60, 61, 62, 63, 64}, {5, 70, 71, 72, 73, 74},
        range(80, 86), {5, *range(10, 15)}, {*range(1, 6), 200}, range(90, 96)])


def test_halin_boundary_shared_pair():
    """A large A-B intersection at the boundary: the crafted input of the
    former Halin boundary selector's shared pair, for the one Halin route."""
    construct_with_boundary_lists([
        range(30, 36), range(30, 36), {1, 40, 41, 42, 43, 44}, range(50, 56),
        range(60, 66), range(100, 106), {1, *range(90, 95)}, range(70, 76)])


def test_corona_cd_selector_branches():
    # shared colour across both cycle externals
    c, d = _choose_cd(frozenset({3, 9}), frozenset({3, 8}), frozenset({5, 6}), 1, 2)
    assert c == d == 3
    # b reused wherever it appears when both pre-colours sit in the guard
    c, d = _choose_cd(frozenset({2, 9, 30}), frozenset({8, 31, 40}),
                      frozenset({1, 2, 8, 9}), 1, 2)
    assert c == 2 and d == 31            # d from pool minus the guard
    # split choice: one side dodges the guard, the other is free
    c, d = _choose_cd(frozenset({30, 31}), frozenset({5, 6, 32}),
                      frozenset({5, 6, 7}), 1, 2)
    assert c == 30
    assert d in {5, 6, 32}


def test_place_pair_one_sided_modes():
    g, _ = gen_corona(3, 1)
    m = 2 * len(g.edges)
    painter = Painter(g, ListAssignment([range(1, 10)] * m))
    # ids 0 and 7 are non-adjacent, as are the pendant externals 10 and 11
    # disjoint pools, left side misses the guard: paint left only
    colour = _place_pair(painter, 0, 7, frozenset({4, 5}), frozenset({6, 7}),
                         frozenset({6, 7, 8}))
    assert colour in {4, 5} and painter.painted(0) and not painter.painted(7)
    # disjoint pools, only the right side can dodge the guard
    colour = _place_pair(painter, 10, 11, frozenset({6, 7}), frozenset({4, 5}),
                         frozenset({6, 7, 8}))
    assert colour in {4, 5} and painter.painted(11) and not painter.painted(10)
