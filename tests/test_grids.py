from __future__ import annotations

import itertools
import random

import pytest

from conftest import assert_valid_report
from incolour.constructive import choose_grid_window, construct, window_choice_valid
from incolour.families import FamilySpec, gen_grid
from incolour.graphs import InputError, ListAssignment
from incolour.harness import random_list_assignment


def brute_force_window(La, Lb, Lc, Ld, alphas, betas):
    """All quadruples satisfying the window constraints."""
    out = []
    for quad in itertools.product(sorted(La), sorted(Lb), sorted(Lc), sorted(Ld)):
        if window_choice_valid(quad, La, Lb, Lc, Ld, alphas, betas):
            out.append(quad)
    return out


def test_window_unconstrained_case():
    lists = [frozenset(range(1, 7))] * 4
    alphas = (7, 8, 9, 10)
    betas = (11, 12, 13, 14)
    quad, case = choose_grid_window(*lists, alphas, betas)
    assert window_choice_valid(quad, *lists, alphas, betas)
    a, b, c, d = quad
    assert len({a, b, c}) == 3 and len({a, c, d}) == 3


def test_window_tight_c_list():
    # the c list misses one of its forbidden colours: the slack-c branch
    La = Lb = frozenset(range(1, 7))
    Lc = frozenset([1, 2, 3, 4, 5, 9])
    Ld = frozenset(range(1, 7))
    alphas = (1, 2, 3, 4)
    betas = (3, 4, 5, 6)
    quad, case = choose_grid_window(La, Lb, Lc, Ld, alphas, betas)
    assert window_choice_valid(quad, La, Lb, Lc, Ld, alphas, betas)
    assert case == "slack-c"


def test_window_mu_branch():
    # both pendant-side lists share their two free colours and that shared
    # colour also sits among the betas
    alphas = (1, 2, 3, 4)
    betas = (5, 10, 11, 6)
    La = frozenset([1, 2, 3, 4, 5, 10])   # free: {5, 10}
    Lb = frozenset([1, 2, 3, 4, 5, 10])
    Lc = frozenset([1, 3, 6, 5, 10, 9])   # contains {alpha1, alpha2, beta4}
    Ld = frozenset([5, 10, 11, 6, 2, 9])  # contains all betas
    quad, case = choose_grid_window(La, Lb, Lc, Ld, alphas, betas)
    assert window_choice_valid(quad, La, Lb, Lc, Ld, alphas, betas)
    assert case.startswith("mu")


def test_window_split_pairs_branch():
    # both outer guards are saturated, beta4 sits in neither a/b pool and
    # the two least free colours of La and Lb do not meet
    La = frozenset([1, 2, 9, 10, 11, 12])     # free: 9, 10, ...
    Lb = frozenset([1, 2, 13, 14, 15, 16])    # free: 13, 14, ...
    Lc = frozenset([1, 3, 8, 20, 21, 22])     # contains {alpha1, alpha2, beta4}
    Ld = frozenset([5, 6, 7, 8, 30, 31])      # contains all betas
    alphas = (1, 2, 3, 4)
    betas = (5, 6, 7, 8)
    quad, case = choose_grid_window(La, Lb, Lc, Ld, alphas, betas)
    assert case == "split-pairs"
    assert window_choice_valid(quad, La, Lb, Lc, Ld, alphas, betas)


def test_window_oracle_random():
    rng = random.Random(42)
    for _ in range(2500):
        universe = range(1, 13)
        La, Lb, Lc, Ld = [frozenset(rng.sample(universe, 6)) for _ in range(4)]
        alphas = tuple(rng.choice(list(universe)) for _ in range(4))
        betas = tuple(rng.choice(list(universe)) for _ in range(4))
        quad, case = choose_grid_window(La, Lb, Lc, Ld, alphas, betas)
        valid = brute_force_window(La, Lb, Lc, Ld, alphas, betas)
        assert valid, "selector should only run on feasible instances"
        assert quad in valid, (case, quad)


def test_window_rejects_small_lists():
    small = frozenset(range(1, 6))
    with pytest.raises(InputError):
        choose_grid_window(small, small, small, small, (1, 2, 3, 4), (1, 2, 3, 4))


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
    stages = {step.tag.split(":")[0] for step in rep.trace}
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
