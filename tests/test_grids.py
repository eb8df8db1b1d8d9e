from __future__ import annotations

import itertools
import random

import pytest

from conftest import assert_valid_report
from incolour.constructive import construct
from incolour.constructive.grids import _window
from incolour.families import FamilySpec, gen_grid
from incolour.graphs import InputError, ListAssignment
from incolour.harness import random_list_assignment


def window_valid(quad, A, B, C, D) -> bool:
    """The window constraints: each colour from its free list, a, b, c
    pairwise distinct and a, c, d pairwise distinct."""
    a, b, c, d = quad
    return (a in A and b in B and c in C and d in D
            and len({a, b, c}) == 3 and len({a, c, d}) == 3)


def window_lists(La, Lb, Lc, Ld, alphas, betas):
    """The free lists of a window in its alpha/beta context: a and b avoid
    the four alphas, c avoids alpha1, alpha2 and beta4, d the four betas."""
    alpha1, _, alpha2, _ = alphas
    return (sorted(La - set(alphas)), sorted(Lb - set(alphas)),
            sorted(Lc - {alpha1, alpha2, betas[3]}), sorted(Ld - set(betas)))


def brute_force_window(A, B, C, D):
    """The first valid quadruple in the order _window promises, least
    (a, c) first and then least b and d, or None: by enumeration."""
    valid = [q for q in itertools.product(A, B, C, D) if window_valid(q, A, B, C, D)]
    return min(valid, key=lambda q: (q[0], q[2], q[1], q[3]), default=None)


def _assert_exact(A, B, C, D):
    quad = _window(A, B, C, D)
    assert quad == brute_force_window(A, B, C, D)
    return quad


def test_window_is_exact_against_brute_force():
    """Random pools of 1-6 colours from a small universe, so that windows
    with no choice occur: _window returns None exactly when enumeration
    finds nothing, and otherwise the least-first choice."""
    rng = random.Random(28)
    nones = 0
    for _ in range(3000):
        pools = [sorted(rng.sample(range(1, 7), rng.randint(1, 6))) for _ in range(4)]
        nones += _assert_exact(*pools) is None
    assert 50 < nones < 2950


def test_window_oracle_random():
    """Random 6-colour lists in random alpha/beta contexts: every window
    has a choice, and _window returns the least-first one."""
    rng = random.Random(42)
    universe = list(range(1, 13))
    for _ in range(2500):
        La, Lb, Lc, Ld = [frozenset(rng.sample(universe, 6)) for _ in range(4)]
        alphas = tuple(rng.choice(universe) for _ in range(4))
        betas = tuple(rng.choice(universe) for _ in range(4))
        quad = _assert_exact(*window_lists(La, Lb, Lc, Ld, alphas, betas))
        assert quad is not None, (La, Lb, Lc, Ld, alphas, betas)


def test_window_unconstrained_case():
    lists = [frozenset(range(1, 7))] * 4
    quad = _assert_exact(*window_lists(*lists, (7, 8, 9, 10), (11, 12, 13, 14)))
    assert quad == (1, 3, 2, 3)


def test_window_tight_c_list():
    # the c list misses one of its forbidden colours, beta4 = 6 (the
    # former slack-c case)
    La = Lb = frozenset(range(1, 7))
    Lc = frozenset([1, 2, 3, 4, 5, 9])
    Ld = frozenset(range(1, 7))
    alphas = (1, 2, 3, 4)
    betas = (3, 4, 5, 6)
    assert _assert_exact(*window_lists(La, Lb, Lc, Ld, alphas, betas)) is not None


def test_window_mu_branch():
    # both pendant-side lists share their two free colours and that shared
    # colour also sits among the betas (the former mu cases)
    alphas = (1, 2, 3, 4)
    betas = (5, 10, 11, 6)
    La = frozenset([1, 2, 3, 4, 5, 10])   # free: {5, 10}
    Lb = frozenset([1, 2, 3, 4, 5, 10])
    Lc = frozenset([1, 3, 6, 5, 10, 9])   # contains {alpha1, alpha2, beta4}
    Ld = frozenset([5, 10, 11, 6, 2, 9])  # contains all betas
    assert _assert_exact(*window_lists(La, Lb, Lc, Ld, alphas, betas)) is not None


def test_window_split_pairs_branch():
    # both outer guards are saturated, beta4 sits in neither a/b pool and
    # the two least free colours of La and Lb do not meet (the former
    # split-pairs case)
    La = frozenset([1, 2, 9, 10, 11, 12])     # free: 9, 10, ...
    Lb = frozenset([1, 2, 13, 14, 15, 16])    # free: 13, 14, ...
    Lc = frozenset([1, 3, 8, 20, 21, 22])     # contains {alpha1, alpha2, beta4}
    Ld = frozenset([5, 6, 7, 8, 30, 31])      # contains all betas
    alphas = (1, 2, 3, 4)
    betas = (5, 6, 7, 8)
    assert _assert_exact(*window_lists(La, Lb, Lc, Ld, alphas, betas)) is not None


def test_window_rejects_small_lists():
    """Lists too small for a window give no choice, and construct rejects
    5-colour lists on a grid with an interior row before painting."""
    assert _assert_exact([1], [2], [1, 2], [3]) is None
    assert _assert_exact([1, 2], [1, 2], [1, 2], [1, 2]) is None
    g, _ = gen_grid(4, 4)
    with pytest.raises(InputError):
        construct(FamilySpec("grid", {"m": 4, "n": 4}), ListAssignment.uniform(g, 5))


@pytest.mark.parametrize("m,n", [(2, 2), (4, 2), (10, 2), (3, 3), (4, 3), (5, 4), (6, 5), (7, 7)])
def test_grid_uniform_lists(m, n):
    g, _ = gen_grid(m, n)
    k = 5 if n == 2 else 6
    lists = ListAssignment.uniform(g, k)
    rep = construct(FamilySpec("grid", {"m": m, "n": n}), lists)
    assert_valid_report(g, lists, rep)


def test_grid_trace_uses_the_five_passes():
    g, _ = gen_grid(5, 4)
    lists = ListAssignment.uniform(g, 6)
    rep = construct(FamilySpec("grid", {"m": 5, "n": 4}), lists)
    stages = {step.tag for step in rep.trace}
    assert stages == {
        "grid-step-1", "grid-step-2", "grid-step-3a", "grid-step-3b",
        "grid-step-3c", "grid-step-4", "grid-step-5",
    }


def test_grid_rejects_small_lists():
    g, _ = gen_grid(4, 2)
    with pytest.raises(InputError):
        construct(FamilySpec("grid", {"m": 4, "n": 2}), ListAssignment.uniform(g, 4))
    g, _ = gen_grid(4, 3)
    with pytest.raises(InputError):
        construct(FamilySpec("grid", {"m": 4, "n": 3}), ListAssignment.uniform(g, 5))


def test_grid_random_lists_seeded():
    g, _ = gen_grid(3, 3)
    lists = random_list_assignment(g, 6, 18, 7)
    rep = construct(FamilySpec("grid", {"m": 3, "n": 3}), lists)
    assert_valid_report(g, lists, rep)
    again = construct(FamilySpec("grid", {"m": 3, "n": 3}), lists)
    assert again.colouring == rep.colouring and again.trace == rep.trace
