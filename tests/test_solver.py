from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hypercube, naive_satisfiable
from incolour import kernel, solver
from incolour.families import (
    gen_basic,
    gen_grid,
    gen_random_degenerate,
    gen_random_graph,
    gen_random_tree,
)
from incolour.graphs import (
    Graph,
    IncidenceColouring,
    ListAssignment,
    incidence_neighbour_ids,
    validate_colouring,
)
from incolour.harness import random_list_assignment
from incolour.solver import (
    COLOURED,
    UNKNOWN,
    UNSATISFIABLE,
    ChiUnknown,
    EnumerationBudgetExceeded,
    InputError,
    SolverConfig,
    check_choosability_exhaustive,
    degeneracy_order,
    graph_degeneracy,
    greedy_degenerate,
    incidence_chromatic_number,
    solve_list_colouring,
)


def test_cycle_examples():
    c6, _ = gen_basic("cycle", 6)
    res = solve_list_colouring(c6, ListAssignment.uniform(c6, 3))
    assert res.status == COLOURED
    c4, _ = gen_basic("cycle", 4)
    assert solve_list_colouring(c4, ListAssignment.uniform(c4, 3)).status == UNSATISFIABLE


def test_k2_forced(k2):
    res = solve_list_colouring(k2, ListAssignment([{1}, {2}]))
    assert res.status == COLOURED
    assert res.colouring.assignment == {0: 1, 1: 2}


# per-seed node counts of the search over non-uniform lists (3,595 in
# all), recorded when MRV ties were first broken by the DSatur rule
DENSE_RANDOM_NODES = [
    16, 24, 18, 18, 348, 16, 18, 73, 58, 133, 18, 16, 27, 55, 20,
    18, 28, 16, 91, 886, 20, 20, 18, 1446, 16, 18, 16, 16, 100, 28,
]


def test_solver_agrees_with_naive_oracle_on_dense_random_lists():
    unsat = []
    nodes = []
    for seed in range(30):
        g = gen_random_graph(7, seed, density=0.5)
        if not g.edges:
            continue
        lists = random_list_assignment(g, 4, 8, seed)
        res = solve_list_colouring(g, lists)
        assert res.status in (COLOURED, UNSATISFIABLE)
        assert (res.status == COLOURED) == naive_satisfiable(g, lists)
        if res.status == UNSATISFIABLE:
            unsat.append(seed)
        nodes.append(res.nodes)
    assert unsat == [4, 19]   # both outcomes exercised
    assert nodes == DENSE_RANDOM_NODES


# sha256 prefix of (status, nodes, sorted colouring) over the seeded sample
# below, recorded while the kernel still read CSR-packed arrays
SOLVER_DIGEST = "dcbd9e2b617c7b6c"


def _solver_sample(count=100):
    """Seeded random graphs, each solved with uniform and with mixed lists,
    once without a budget and once with a node budget that cuts some
    searches short."""
    for seed in range(count):
        g = gen_random_graph(5 + seed % 4, seed, density=0.4 + (seed % 3) * 0.1)
        if not g.edges:
            continue
        d = g.max_degree
        rng = random.Random(seed)
        uniform = ListAssignment.uniform(g, d + seed % 3)
        mixed = ListAssignment([rng.sample(range(1, d + 3), rng.randint(max(1, d - 1), d + 1))
                                for _ in range(2 * len(g.edges))])
        for lists in (uniform, mixed):
            yield g, lists, None
            yield g, lists, 20 + seed % 25


def test_solver_matches_golden_digest():
    h = hashlib.sha256()
    outcomes = Counter()
    for g, lists, budget in _solver_sample():
        res = solve_list_colouring(g, lists, SolverConfig(node_budget=budget))
        colouring = sorted(res.colouring.items()) if res.colouring else None
        h.update(f"{res.status}|{res.nodes}|{colouring}\n".encode())
        outcomes[budget is not None, res.status] += 1
    assert outcomes[True, UNKNOWN] > 0 and outcomes[False, UNKNOWN] == 0
    assert outcomes[False, COLOURED] > 0 and outcomes[False, UNSATISFIABLE] > 0
    assert h.hexdigest()[:16] == SOLVER_DIGEST


def test_budget_yields_unknown_never_unsat():
    g, _ = gen_basic("complete", 5)
    res = solve_list_colouring(g, ListAssignment.uniform(g, 4),
                               SolverConfig(node_budget=3))
    assert res.status == UNKNOWN
    # chi(K5) = 5 = max_degree + 1 is proven by the greedy, with no search
    assert incidence_chromatic_number(g, SolverConfig(node_budget=3)) == 5
    c5, _ = gen_basic("cycle", 5)
    with pytest.raises(ChiUnknown) as err:
        incidence_chromatic_number(c5, SolverConfig(node_budget=3))
    assert (err.value.lower, err.value.upper) == (3, 4)


def test_time_budget_yields_unknown():
    # Searches that run past node 1024, where the deadline is first checked.
    # A zero budget is a deadline already passed, not "no deadline".
    for budget in (1e-9, 0.0):
        cfg = SolverConfig(time_budget=budget)
        # General lists: an unsatisfiable star whose last list has a ninth
        # colour (the uniform 8-colour star ends within 1024 nodes).
        g, _ = gen_basic("star", 8)
        m = 2 * len(g.edges)
        lists = ListAssignment([range(1, 9)] * (m - 1) + [range(1, 10)])
        res = solve_list_colouring(g, lists, cfg)
        assert (res.status, res.nodes) == (UNKNOWN, 1024)
        # Uniform lists: Q5 at p=6 is unsatisfiable in 15,092 nodes.
        g = hypercube(5)
        res = solve_list_colouring(g, ListAssignment.uniform(g, 6), cfg)
        assert (res.status, res.nodes) == (UNKNOWN, 1024)


def test_negative_budgets_are_configuration_errors():
    for bad in ({"node_budget": -5}, {"time_budget": -1.0}, {"time_budget": float("nan")}):
        with pytest.raises(InputError):
            SolverConfig(**bad)
    SolverConfig(node_budget=0, time_budget=0.0)   # zero is a valid budget


def test_chi_cycles():
    for n in range(3, 13):
        g, _ = gen_basic("cycle", n)
        assert incidence_chromatic_number(g) == (3 if n % 3 == 0 else 4)


def test_chi_trees_is_degree_plus_one():
    for seed in range(12):
        t, _ = gen_random_tree(4 + seed % 8, seed)
        assert incidence_chromatic_number(t) == t.max_degree + 1


def test_chi_edgeless_and_matching():
    assert incidence_chromatic_number(Graph(4, [])) == 0
    assert incidence_chromatic_number(Graph(4, [(0, 1), (2, 3)])) == 2


def test_chi_bounds_random():
    for seed in range(25):
        g = gen_random_graph(7, seed, density=0.45)
        if not g.edges:
            continue
        chi = incidence_chromatic_number(g)
        delta = g.max_degree
        assert delta + 1 <= chi
        assert chi <= (2 if delta == 1 else 3 * delta - 2)


def test_chi_monotone_under_edge_deletion():
    for seed in range(12):
        g = gen_random_graph(6, seed, density=0.5)
        if not g.edges:
            continue
        chi = incidence_chromatic_number(g)
        u, v = g.edges[seed % len(g.edges)]
        assert incidence_chromatic_number(g.without_edge(u, v)) <= chi


def test_completeness_against_naive_oracle_small():
    pool = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for r in (1, 2, 3):
        for combo in itertools.combinations(pool, r):
            g = Graph(4, combo)
            for p in (1, 2, 3, 4):
                lists = ListAssignment.uniform(g, p)
                want = naive_satisfiable(g, lists)
                got = solve_list_colouring(g, lists)
                assert (got.status == COLOURED) == want


def test_completeness_against_naive_oracle_random_lists():
    import random as _random

    checked = sat = 0
    for seed in range(140):
        rng = _random.Random(seed)
        g = gen_random_graph(rng.randint(2, 5), seed, density=0.6)
        if not g.edges or len(g.edges) > 5:
            continue
        k = rng.randint(1, 3)
        lists = random_list_assignment(g, k, rng.randint(k, 2 * k + 1), seed)
        want = naive_satisfiable(g, lists)
        got = solve_list_colouring(g, lists).status == COLOURED
        assert want == got
        checked += 1
        sat += got
    assert checked >= 80 and 0 < sat < checked   # both outcomes exercised


def test_choosability_examples(k2):
    assert check_choosability_exhaustive(k2, 2, 4).choosable
    c3, _ = gen_basic("cycle", 3)
    res = check_choosability_exhaustive(c3, 2, 4)
    assert not res.choosable
    assert res.counterexample is not None
    assert (res.assignments_checked, res.solves) == (1, 1)   # the re-check is not counted
    assert solve_list_colouring(c3, res.counterexample).status == UNSATISFIABLE
    p3, _ = gen_basic("path", 3)
    assert check_choosability_exhaustive(p3, 3, 6).choosable


def test_choosability_guards(k2):
    with pytest.raises(InputError):
        check_choosability_exhaustive(k2, 3, 2)
    with pytest.raises(InputError):
        check_choosability_exhaustive(k2, 2, 100)   # beyond k * #incidences
    from incolour.solver import EnumerationBudgetExceeded

    c4, _ = gen_basic("cycle", 4)
    with pytest.raises(EnumerationBudgetExceeded):
        check_choosability_exhaustive(c4, 4, 8, assignment_budget=50)


def _canonical_assignments(m, k, universe):
    """Every canonical k-list assignment of ``m`` incidences from
    {1..universe}, in the sweep's order: the first list is {1..k}, each
    later list's colours above those used so far are the next ones in
    line, and at each position lists with fewer new colours come first,
    then lists whose old colours come first lexicographically."""
    subsets = [frozenset(c) for c in itertools.combinations(range(1, universe + 1), k)]

    def rec(prefix, used):
        if len(prefix) == m:
            yield prefix
            return
        options = []
        for s in subsets:
            new = sorted(c for c in s if c > used)
            if new == list(range(used + 1, used + 1 + len(new))):
                options.append((len(new), sorted(c for c in s if c <= used), s))
        for fresh, _, s in sorted(options, key=lambda o: o[:2]):
            yield from rec(prefix + [s], used + fresh)

    yield from rec([frozenset(range(1, k + 1))], k)


def _reference_sweep(g, k, universe):
    """Solve every canonical assignment, with no reuse; stop at the first
    unsatisfiable one."""
    checked = 0
    for lists in _canonical_assignments(2 * len(g.edges), k, universe):
        checked += 1
        if solve_list_colouring(g, ListAssignment(lists)).status == UNSATISFIABLE:
            return False, checked, tuple(lists)
    return True, checked, None


def _outcome(res):
    return (res.choosable, res.assignments_checked,
            res.counterexample.lists if res.counterexample else None)


_SWEEP_GRAPHS = {
    "K2": Graph(2, [(0, 1)]),
    "P3": gen_basic("path", 3)[0],
    "P4": gen_basic("path", 4)[0],
    "K1,3": gen_basic("star", 3)[0],
    "paw": Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "C3": gen_basic("cycle", 3)[0],
    "C4": gen_basic("cycle", 4)[0],
}
# Every universe from k to k+2, except P4 at k=3 over {1..5}: its 66,667
# assignments take seconds to solve one by one, and C3 covers that size.
_SWEEP_CASES = [
    (name, k, universe)
    for name in _SWEEP_GRAPHS
    for k in (2, 3)
    for universe in range(k, k + 3)
    if universe <= 2 * k * len(_SWEEP_GRAPHS[name].edges)
    and (name, k, universe) != ("P4", 3, 5)
]


@pytest.mark.parametrize("name,k,universe", _SWEEP_CASES)
def test_choosability_sweep_matches_reference_without_reuse(name, k, universe):
    g = _SWEEP_GRAPHS[name]
    assert _outcome(check_choosability_exhaustive(g, k, universe)) == \
        _reference_sweep(g, k, universe)


def test_choosability_witnesses_are_sound(monkeypatch):
    c3, _ = gen_basic("cycle", 3)
    hits = solves = nodes = 0
    fitting_witness = solver._fitting_witness
    solve = solver.solve_list_colouring
    search = kernel.search

    def checked_witness(witnesses, fit, lists):
        nonlocal hits
        witness = fitting_witness(witnesses, fit, lists)
        if witness is not None:
            hits += 1
            colouring = IncidenceColouring(dict(enumerate(witness)))
            verdict = validate_colouring(c3, ListAssignment(lists), colouring)
            assert verdict.ok, verdict.violation
        return witness

    def counted_solve(*args, **kwargs):
        nonlocal solves
        solves += 1
        return solve(*args, **kwargs)

    def counted_search(*args):
        nonlocal nodes
        out = search(*args)
        nodes += out[2]
        return out

    monkeypatch.setattr(solver, "_fitting_witness", checked_witness)
    monkeypatch.setattr(solver, "solve_list_colouring", counted_solve)
    monkeypatch.setattr(kernel, "search", counted_search)
    res = check_choosability_exhaustive(c3, 3, 5)
    assert (res.choosable, res.assignments_checked) == (True, 66_667)
    assert solves == res.solves == 1_797
    assert hits + solves == 66_667
    assert nodes == 13_093


def test_choosability_assignment_budget_is_exact():
    c3, _ = gen_basic("cycle", 3)
    res = check_choosability_exhaustive(c3, 3, 5, assignment_budget=66_667)
    assert (res.choosable, res.assignments_checked) == (True, 66_667)
    with pytest.raises(EnumerationBudgetExceeded):
        check_choosability_exhaustive(c3, 3, 5, assignment_budget=66_666)


# sha256 prefix of the lists of every assignment the sweep solves, in order,
# recorded while the sweep still tested every cached colouring in full
SWEEP_SOLVES = {
    ("cycle", 3, 3, 5): (1_797, "84bffc26f00eff7d"),
    ("path", 4, 3, 4): (32, "c21d7699c2009845"),
}


@pytest.mark.parametrize("case", sorted(SWEEP_SOLVES), ids="{0[0]}{0[1]}-{0[2]}-{0[3]}".format)
def test_choosability_solves_match_golden_digest(monkeypatch, case):
    family, n, k, universe = case
    g, _ = gen_basic(family, n)
    h = hashlib.sha256()
    solves = 0
    solve = solver.solve_list_colouring

    def hashed_solve(g, lists, *args, **kwargs):
        nonlocal solves
        solves += 1
        h.update(repr([sorted(l) for l in lists.lists]).encode() + b"\n")
        return solve(g, lists, *args, **kwargs)

    monkeypatch.setattr(solver, "solve_list_colouring", hashed_solve)
    assert check_choosability_exhaustive(g, k, universe).choosable
    assert (solves, h.hexdigest()[:16]) == SWEEP_SOLVES[case]


def test_choosability_budget_never_gives_a_wrong_answer():
    c3, _ = gen_basic("cycle", 3)
    with pytest.raises(EnumerationBudgetExceeded):
        check_choosability_exhaustive(c3, 3, 5, SolverConfig(node_budget=1))
    # Each run either raises or gives the unbudgeted answer; a witness can
    # settle an assignment whose own solve would hit the budget.
    for name, k, universe in [("C3", 3, 4), ("P4", 3, 4), ("C3", 2, 3), ("C4", 3, 4)]:
        g = _SWEEP_GRAPHS[name]
        want = _outcome(check_choosability_exhaustive(g, k, universe))
        for budget in range(1, 21):
            try:
                res = check_choosability_exhaustive(g, k, universe,
                                                    SolverConfig(node_budget=budget))
            except EnumerationBudgetExceeded:
                continue
            assert _outcome(res) == want


def test_degeneracy_order_invariant():
    for seed in range(15):
        g = gen_random_graph(12, seed, density=0.35)
        order = degeneracy_order(g.adj)
        pos = {v: i for i, v in enumerate(order.sequence)}
        for i, v in enumerate(order.sequence):
            later = sum(1 for w in g.adj[v] if pos[w] > i)
            assert later == order.back_degrees[i]
        assert order.degeneracy == graph_degeneracy(g)


def test_incidence_graph_degeneracy_bound():
    for seed in range(12):
        g = gen_random_degenerate(10, 2, seed)
        d = graph_degeneracy(g)
        ig_degen = degeneracy_order(incidence_neighbour_ids(g)).degeneracy
        assert ig_degen <= g.max_degree + 2 * d - 2


def test_greedy_degenerate_success_cases():
    t, _ = gen_random_tree(10, 3)
    res = greedy_degenerate(t, ListAssignment.uniform(t, t.max_degree + 1))
    assert res.found
    g44, _ = gen_grid(4, 4)
    res = greedy_degenerate(g44, ListAssignment.uniform(g44, g44.max_degree + 3))
    assert res.found
    assert validate_colouring(g44, None, res.colouring).ok


def test_greedy_degenerate_failure_is_reported():
    c3, _ = gen_basic("cycle", 3)
    res = greedy_degenerate(c3, ListAssignment.uniform(c3, 2))
    assert not res.found
    assert res.stuck_incidence is not None


def test_greedy_planar_margin():
    # grids are planar; degree + 9 lists always succeed
    g, _ = gen_grid(5, 5)
    res = greedy_degenerate(g, ListAssignment.uniform(g, g.max_degree + 9))
    assert res.found


@st.composite
def small_instances(draw):
    """A graph with 1-10 edges on at most 7 vertices, with uniform lists
    {1..p} or with lists drawn independently from a small universe."""
    n = draw(st.integers(2, 7))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph(n, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10, unique=True)))
    if draw(st.booleans()):
        return g, ListAssignment.uniform(g, draw(st.integers(1, g.max_degree + 2)))
    m = 2 * len(g.edges)
    universe = draw(st.integers(1, 6))
    raw = draw(st.lists(st.sets(st.integers(1, universe), min_size=1), min_size=m, max_size=m))
    return g, ListAssignment(raw)


@settings(max_examples=150, deadline=None)
@given(small_instances(), st.integers(0, 40))
def test_search_agrees_with_naive_oracle(instance, node_budget):
    # the naive oracle stays fast up to 10 edges
    g, lists = instance
    want = COLOURED if naive_satisfiable(g, lists) else UNSATISFIABLE
    res = solve_list_colouring(g, lists)
    assert res.status == want
    budgeted = solve_list_colouring(g, lists, SolverConfig(node_budget=node_budget))
    assert budgeted.status in (want, UNKNOWN)
    for r in (res, budgeted):
        if r.status == COLOURED:
            assert validate_colouring(g, lists, r.colouring).ok


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_solver_sound_on_random_lists(seed):
    g = gen_random_graph(6, seed, density=0.5)
    if not g.edges:
        return
    lists = random_list_assignment(g, 3, 6, seed)
    res = solve_list_colouring(g, lists)
    if res.status == COLOURED:
        assert validate_colouring(g, lists, res.colouring).ok
