"""Acceptance gate: one test per criterion, each printing a pass line with
its measurements (run ``pytest -s tests/test_acceptance.py`` to see them).

Every fuzz criterion goes through the campaign harness at the guaranteed
list size with universe 3k and reports zero failures; exact criteria are
checked against independent oracles (naive enumeration, exhaustive tuple
search, explicit isomorphisms).
"""

from __future__ import annotations

import itertools
import random
import time

from incolour.catalogue import (
    cactus_row_specs,
    halin_specs,
    ham_cubic_named,
    random_cactus_specs,
    random_ham_cubic_specs,
    wheel_specs,
)
from incolour.constructive import construct
from incolour.constructive.grids import _window
from incolour.families import (
    FamilySpec,
    gen_basic,
    gen_cycle_power,
    gen_random_degenerate,
    gen_random_graph,
    gen_random_tree,
    generate,
    is_connected,
)
from incolour.graphs import (
    Graph,
    ListAssignment,
    incidence_adjacent,
    incidence_neighbourhood,
    incidences,
    validate_colouring,
)
from incolour.harness import (
    FuzzCampaign,
    K4_CHROMATIC_NUMBER,
    random_list_assignment,
    run_campaign,
)
from incolour.solver import (
    COLOURED,
    greedy_degenerate,
    incidence_chromatic_number,
    solve_list_colouring,
)
from test_grids import window_lists, window_valid


def _campaign(instances, trials, pre=False, k=None, seed=0, universe=None):
    return run_campaign(FuzzCampaign(
        instances=tuple(instances), trials=trials, master_seed=seed, pre=pre, k=k,
        universe=universe,
    ))


def test_criterion_01_cycle_regression():
    start = time.monotonic()
    expected = {n: (3 if n % 3 == 0 else 4) for n in range(3, 13)}
    for n, want in expected.items():
        g, _ = gen_basic("cycle", n)
        assert incidence_chromatic_number(g) == want, f"C{n}"
    elapsed = time.monotonic() - start
    assert elapsed < 10
    print(f"\nPASS criterion 1: chi(C_n) for n=3..12 exact in {elapsed:.2f}s (< 10s)")


def test_criterion_02_tree_exactness():
    start = time.monotonic()
    rng = random.Random(2024)
    failures = 0
    for tree_idx in range(50):
        n = rng.randint(2, 13)           # at most 12 edges
        t, spec = gen_random_tree(n, tree_idx)
        delta = t.max_degree
        assert incidence_chromatic_number(t) == delta + 1
        k = delta + 1
        for trial in range(100):
            lists = random_list_assignment(t, k, 3 * k, 1_000 * tree_idx + trial)
            rep = construct(spec, lists)
            if not validate_colouring(t, lists, rep.colouring).ok:
                failures += 1
    elapsed = time.monotonic() - start
    assert failures == 0
    assert elapsed < 60
    print(f"\nPASS criterion 2: 50 trees exact chi and 5000 list trials, "
          f"0 failures in {elapsed:.1f}s (< 60s)")


def test_criterion_03_grid_bounds():
    start = time.monotonic()
    two_rows = [FamilySpec("grid", {"m": m, "n": 2}) for m in range(2, 11)]
    wide = [FamilySpec("grid", {"m": m, "n": n})
            for n in range(3, 8) for m in range(n, 8)]
    report = _campaign(two_rows + wide, trials=200)
    elapsed = time.monotonic() - start
    assert report.total_trials == 200 * (9 + 15)
    assert report.total_failures == 0, report.summary_lines()
    assert all(r.k == (5 if r.spec["n"] == 2 else 6) for r in report.results)
    assert elapsed < 300
    print(f"\nPASS criterion 3: {report.total_trials} grid trials at the "
          f"guaranteed bounds, 0 failures in {elapsed:.1f}s (< 5min)")


def test_criterion_04_grid_window_oracle():
    """The paper's window lemma: every interior-row window of 6-colour
    lists, in any alpha/beta context, has a choice, which _window finds
    and which meets the window constraints."""
    rng = random.Random(123)
    universe = list(range(1, 13))
    windows = 0
    for _ in range(10_000):
        pools = [frozenset(rng.sample(universe, 6)) for _ in range(4)]
        alphas = tuple(rng.choice(universe) for _ in range(4))
        betas = tuple(rng.choice(universe) for _ in range(4))
        free = window_lists(*pools, alphas, betas)
        quad = _window(*free)
        assert quad is not None and window_valid(quad, *free), (pools, alphas, betas)
        windows += 1
    print(f"\nPASS criterion 4: {windows} random 6-list windows, each with a "
          "choice that meets the window constraints")


def test_criterion_05_k4():
    spec = FamilySpec("halin", {"tree_edges": [[0, 3], [1, 3], [2, 3]],
                                "leaf_order": [0, 1, 2]})
    g, spec = generate(spec)
    failures = 0
    for trial in range(1000):
        lists = random_list_assignment(g, 6, 18, trial)
        rep = construct(spec, lists)
        if not validate_colouring(g, lists, rep.colouring).ok:
            failures += 1
    assert failures == 0
    frozen = incidence_chromatic_number(gen_basic("complete", 4)[0])
    assert frozen == K4_CHROMATIC_NUMBER == 4
    print("\nPASS criterion 5: 1000 random 6-list K4 trials, 0 failures; "
          f"frozen chi(K4) = {frozen}")


def test_criterion_06_halin():
    start = time.monotonic()
    specs = wheel_specs() + halin_specs()
    report = _campaign(specs, trials=200)
    elapsed = time.monotonic() - start
    assert report.total_failures == 0, report.summary_lines()
    nonwheel = [r for r in report.results if "tree_edges" in r.spec]
    assert len(nonwheel) >= 3 and all(r.k == 6 for r in nonwheel)
    print(f"\nPASS criterion 6: wheels W4..W8 plus {len(nonwheel)} non-wheel "
          f"Halin graphs, {report.total_trials} trials, 0 failures in {elapsed:.1f}s")


def test_criterion_07_coronae():
    start = time.monotonic()
    specs = [FamilySpec("corona", {"n": n, "p": p})
             for n in (3, 4, 5) for p in range(1, 6)]
    plain = _campaign(specs, trials=200, pre=False)
    pre = _campaign(specs, trials=200, pre=True)
    elapsed = time.monotonic() - start
    assert plain.total_failures == 0, plain.summary_lines()
    assert pre.total_failures == 0, pre.summary_lines()
    tight = [r for r in pre.results if r.spec["n"] == 3 and r.spec["p"] >= 3]
    assert all(r.k == 8 for r in tight)
    total = plain.total_trials + pre.total_trials
    print(f"\nPASS criterion 7: {total} corona trials (plain and pre-coloured), "
          f"0 failures in {elapsed:.1f}s")


def test_criterion_08_cactus():
    start = time.monotonic()
    specs = cactus_row_specs() + random_cactus_specs(count=20, seed=0)
    report = _campaign(specs, trials=100)
    elapsed = time.monotonic() - start
    assert len(specs) >= 25
    assert report.total_failures == 0, report.summary_lines()
    print(f"\nPASS criterion 8: 5 handcrafted rows + 20 random cactuses, "
          f"{report.total_trials} trials, 0 failures in {elapsed:.1f}s")


def test_criterion_09_hamiltonian_cubic():
    start = time.monotonic()
    specs = ham_cubic_named() + random_ham_cubic_specs()
    report = _campaign(specs, trials=200)
    # universe k + 1 = 7: lists share colours enough that a boundary pick
    # without either guard of hamcubic._boundary gets stuck
    tight = _campaign(specs, trials=200, universe=7)
    elapsed = time.monotonic() - start
    for rep in (report, tight):
        assert rep.total_failures == 0, rep.summary_lines()
        assert all(r.k == 6 for r in rep.results)
    assert {r.universe for r in tight.results} == {7}
    print(f"\nPASS criterion 9: K4, K33, the cube and 20 random cubic graphs, "
          f"{report.total_trials} trials at 6-lists from 18 colours and "
          f"{tight.total_trials} from 7, 0 failures in {elapsed:.1f}s")


def test_criterion_10_structural_invariants():
    rng = random.Random(10)
    for trial in range(100):
        n = rng.randint(1, 15)
        g = gen_random_graph(n, trial, density=rng.uniform(0.1, 0.7))
        incs = incidences(g)
        assert len(incs) == 2 * len(g.edges)
        for inc in incs:
            v = inc.vertex
            u = inc.edge[0] if inc.edge[1] == v else inc.edge[1]
            assert len(incidence_neighbourhood(inc, g)) == 2 * g.degree(v) + g.degree(u) - 2
    from incolour.graphs import incidence_graph

    for n in range(3, 9):
        c, _ = gen_basic("cycle", n)
        phi = {}
        for idx, inc in enumerate(incidences(c)):
            i = inc.vertex
            other = inc.edge[0] if inc.edge[1] == i else inc.edge[1]
            phi[idx] = 2 * i + 1 if other == (i + 1) % n else 2 * i
        mapped = {tuple(sorted((phi[u], phi[v]))) for u, v in incidence_graph(c).edges}
        square, _ = gen_cycle_power(2 * n, 2)
        assert mapped == set(square.edges)
    print("\nPASS criterion 10: incidence counts, neighbourhood sizes on 100 "
          "random graphs; I_{C_n} isomorphic to the cycle square for n=3..8")


# --------------------------------------------------------------- 11 ---

def _naive_satisfiable(g: Graph, p: int) -> bool:
    """Lexicographic enumeration over {1..p}^incidences with pairwise
    conflict pruning; shares no code with the search kernel."""
    incs = incidences(g)
    m = len(incs)
    earlier = [[j for j in range(i) if incidence_adjacent(incs[i], incs[j])]
               for i in range(m)]
    assign = [0] * m

    def rec(i: int) -> bool:
        if i == m:
            return True
        for c in range(1, p + 1):
            if all(assign[j] != c for j in earlier[i]):
                assign[i] = c
                if rec(i + 1):
                    return True
        assign[i] = 0
        return False

    return rec(0)


def _canonical_key(g: Graph):
    best = None
    for perm in itertools.permutations(range(g.n)):
        edges = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
        if best is None or edges < best:
            best = edges
    return g.n, best


def _connected_small_graphs(max_edges: int):
    """Connected isomorphism classes with 1..max_edges edges and no
    isolated vertices."""
    classes: dict = {}
    for nv in range(2, max_edges + 2):
        pool = list(itertools.combinations(range(nv), 2))
        for m in range(max(1, nv - 1), max_edges + 1):
            for combo in itertools.combinations(pool, m):
                g = Graph(nv, combo)
                if any(g.degree(v) == 0 for v in range(nv)) or not is_connected(g):
                    continue
                classes.setdefault(_canonical_key(g), g)
    return list(classes.values())


def _all_small_graphs(max_edges: int):
    """Every isomorphism class of graphs with 1..max_edges edges (disjoint
    unions of the connected classes)."""
    connected = _connected_small_graphs(max_edges)
    by_edges: dict[int, list[Graph]] = {}
    for g in connected:
        by_edges.setdefault(len(g.edges), []).append(g)

    out = []

    def build(parts):
        nv = sum(p.n for p in parts)
        edges = []
        offset = 0
        for p in parts:
            edges.extend((u + offset, v + offset) for u, v in p.edges)
            offset += p.n
        return Graph(nv, edges)

    def rec(start_idx, remaining, chosen):
        if chosen:
            out.append(build(chosen))
        for idx in range(start_idx, len(connected)):
            comp = connected[idx]
            if len(comp.edges) <= remaining:
                rec(idx, remaining - len(comp.edges), chosen + [comp])

    rec(0, max_edges, [])
    return out


def test_criterion_11_solver_vs_naive_enumeration():
    start = time.monotonic()
    graphs = _all_small_graphs(5)
    counts = {}
    for g in graphs:
        counts[len(g.edges)] = counts.get(len(g.edges), 0) + 1
    # isomorphism classes of graphs with m = 1..5 edges and no isolated vertices
    assert [counts[m] for m in range(1, 6)] == [1, 2, 5, 11, 26]
    disagreements = 0
    for g in graphs:
        assert len(incidences(g)) <= 10
        for p in range(1, 6):
            want = _naive_satisfiable(g, p)
            got = solve_list_colouring(g, ListAssignment.uniform(g, p)).status == COLOURED
            if want != got:
                disagreements += 1
    assert disagreements == 0
    elapsed = time.monotonic() - start
    print(f"\nPASS criterion 11: {len(graphs)} graphs (every class with at "
          f"most 10 incidences) x p=1..5 vs naive enumeration, 0 disagreements "
          f"in {elapsed:.1f}s")


def test_criterion_12_degeneracy_greedy():
    failures = 0
    for seed in range(30):
        g = gen_random_degenerate(8 + seed % 8, 2, seed)
        lists = ListAssignment.uniform(g, g.max_degree + 3)
        res = greedy_degenerate(g, lists)
        if not res.found or not validate_colouring(g, lists, res.colouring).ok:
            failures += 1
    assert failures == 0
    print("\nPASS criterion 12: 30 random 2-degenerate graphs greedily "
          "coloured from (max degree + 3)-lists, 0 failures")
