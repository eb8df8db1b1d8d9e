"""The kernel's uniform flag: value symmetry breaking, set only when
every list is equal.

The flag only caps the values the one search loop tries, so the kernel
with the flag off is the reference: with the flag on it must reach the
same status and the same slots whenever the reference decides, with no
more nodes.  Being the same loop, the reference is not independent, so
the flag-on verdicts are also checked against the naive list oracle.
"""

from __future__ import annotations

import random

import pytest

from conftest import hypercube, naive_satisfiable
from incolour import kernel
from incolour.families import gen_basic, gen_cycle_power, gen_grid, gen_random_graph
from incolour.graphs import Graph, ListAssignment, validate_colouring
from incolour.solver import (
    ChiUnknown,
    SolverConfig,
    _flatten,
    incidence_chromatic_number,
    solve_list_colouring,
)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + inner + [(i, i + 5) for i in range(5)])


def _search(flat, uniform, node_budget=None):
    return kernel.search(*flat[:5], uniform, node_budget, None)


@pytest.mark.parametrize("node_budget", [None, 40], ids=["unbudgeted", "budget-40"])
def test_flag_on_matches_flag_off(node_budget):
    pruned = 0
    checked = 0
    for seed in range(120):
        # at most 6 vertices keeps the oracle's exhaustive runs small
        g = gen_random_graph(3 + seed % 4, seed, density=0.35 + (seed % 4) * 0.1)
        if not g.edges:
            continue
        lists = ListAssignment.uniform(g, g.max_degree + seed % 3)
        flat = _flatten(g, lists)
        assert flat[5]
        off = _search(flat, False, node_budget)
        on = _search(flat, True, node_budget)
        assert on[2] <= off[2]
        if on[0] != kernel.CUTOFF and len(g.edges) <= 10:
            # the naive oracle stays fast up to 10 edges
            assert (on[0] == kernel.FOUND) == naive_satisfiable(g, lists)
            checked += 1
        pruned += off[2] - on[2]
        if off[0] != kernel.CUTOFF:
            assert on[:2] == off[:2]
        elif on[0] == kernel.FOUND:
            # the budget cut the oracle short: compare with its full run
            assert on[1] == _search(flat, False)[1]
    assert pruned > 0
    assert checked >= 85


@pytest.mark.parametrize("p", [3, 4])
def test_flag_on_matches_flag_off_on_cycles(p):
    for n in range(3, 11):
        g, _ = gen_basic("cycle", n)
        flat = _flatten(g, ListAssignment.uniform(g, p))
        off = _search(flat, False)
        on = _search(flat, True)
        assert on[:2] == off[:2] and on[2] <= off[2]


# (status, nodes) per seed of the wide mixed lists below, recorded when MRV
# ties were first broken by the DSatur rule
WIDE_MIXED = [
    ("coloured", 20), ("coloured", 23), ("coloured", 20), ("coloured", 24),
    ("coloured", 47), ("coloured", 16), ("coloured", 18), ("unsatisfiable", 616),
]


def test_wide_domains_match_flag_off():
    # wide lists: 130 colours each
    g, _ = gen_basic("complete", 4)
    flat = _flatten(g, ListAssignment.uniform(g, 130))
    assert _search(flat, True) == _search(flat, False)
    # unequal lists of very different sizes: every sixth list has 128-140
    # colours from 1..200, the rest 3-4 colours from 1..7
    got = []
    for seed in range(len(WIDE_MIXED)):
        g = gen_random_graph(6, seed, density=0.7)
        rng = random.Random(seed)
        lists = ListAssignment([
            rng.sample(range(1, 201), rng.randint(128, 140)) if i % 6 == 0
            else rng.sample(range(1, 8), rng.randint(3, 4))
            for i in range(2 * len(g.edges))
        ])
        assert not _flatten(g, lists)[5]
        res = solve_list_colouring(g, lists)
        if res.colouring is not None:
            assert validate_colouring(g, lists, res.colouring).ok
        got.append((res.status, res.nodes))
    assert got == WIDE_MIXED


@pytest.mark.parametrize("name, g, chi", [
    ("Petersen", petersen(), 5),
    ("C12^2", gen_cycle_power(12, 2)[0], 6),
    ("C13^2", gen_cycle_power(13, 2)[0], 6),
])
def test_pinned_chi_and_flag_off_unsat_below_it(name, g, chi):
    assert incidence_chromatic_number(g) == chi
    flat = _flatten(g, ListAssignment.uniform(g, chi - 1))
    off = _search(flat, False)
    on = _search(flat, True)
    assert off[0] == on[0] == kernel.EXHAUSTED
    assert on[2] < off[2]


def test_flag_needs_every_list_equal():
    g = petersen()
    m = 2 * len(g.edges)
    assert _flatten(g, ListAssignment.uniform(g, 4))[5]
    # equal lists built separately count as equal
    assert _flatten(g, ListAssignment([[4, 3, 2, 1] for _ in range(m)]))[5]
    for odd in (0, 1, m - 1):
        raw = [range(1, 5)] * m
        raw[odd] = [1, 2, 3, 5]
        lists = ListAssignment(raw)
        flat = _flatten(g, lists)
        assert not flat[5]
        res = solve_list_colouring(g, lists)
        assert res.nodes == _search(flat, False)[2]
        assert res.nodes > _search(_flatten(g, ListAssignment.uniform(g, 4)), True)[2]


def test_hypercube_chi_bracket_under_budget():
    # greedy proves 9; p=6 is unsatisfiable in 15,092 nodes and p=7 needs
    # 455,182, so the sweep stops at 7 with the greedy's bound above it
    g = hypercube(5)
    with pytest.raises(ChiUnknown) as err:
        incidence_chromatic_number(g, SolverConfig(node_budget=20_000))
    assert (err.value.lower, err.value.upper) == (7, 9)


def test_grid_8x8_chi():
    # decided by the DSatur tie rule: lowest-id ties leave p=5 undecided
    # after 2,000,000 nodes
    g, _ = gen_grid(8, 8)
    lists = ListAssignment.uniform(g, 5)
    res = solve_list_colouring(g, lists)
    assert (res.status, res.nodes) == ("coloured", 1402)
    assert validate_colouring(g, lists, res.colouring).ok
    assert incidence_chromatic_number(g) == 5

