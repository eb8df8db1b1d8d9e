from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incolour.families import gen_basic, gen_cycle_power, gen_grid, gen_random_graph
from incolour.graphs import (
    Graph,
    GraphError,
    Incidence,
    IncidenceColouring,
    ListAssignment,
    Verdict,
    canon_edge,
    incidence_adjacent,
    incidence_graph,
    incidence_id,
    incidence_neighbour_ids,
    incidence_neighbourhood,
    incidences,
    validate_colouring,
)


def test_graph_rejects_loops_and_range():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 5)])


def test_parallel_edges_collapse():
    g = Graph(2, [(0, 1), (1, 0)])
    assert g.edges == ((0, 1),)


def test_incidences_k2(k2):
    assert incidences(k2) == (Incidence(0, (0, 1)), Incidence(1, (0, 1)))


def test_incidences_c3_and_grid():
    c3, _ = gen_basic("cycle", 3)
    assert len(incidences(c3)) == 6
    g22, _ = gen_grid(2, 2)
    assert len(g22.edges) == 4
    assert len(incidences(g22)) == 8


def test_incidence_adjacent_conditions():
    # same edge
    assert incidence_adjacent(Incidence(0, (0, 1)), Incidence(1, (0, 1)))
    # same vertex
    assert incidence_adjacent(Incidence(1, (0, 1)), Incidence(1, (1, 2)))
    # connecting edge equals one of the two
    assert incidence_adjacent(Incidence(0, (0, 1)), Incidence(1, (1, 2)))
    # far apart on a path: no condition holds
    assert not incidence_adjacent(Incidence(0, (0, 1)), Incidence(2, (1, 2)))


def test_neighbourhood_sizes():
    k2 = Graph(2, [(0, 1)])
    assert len(incidence_neighbourhood(Incidence(0, (0, 1)), k2)) == 1
    s3, _ = gen_basic("star", 3)
    leaf_inc = Incidence(1, (0, 1))
    assert len(incidence_neighbourhood(leaf_inc, s3)) == 2 * 1 + 3 - 2
    big, _ = gen_grid(5, 5)
    centre = 12   # row 3, column 3: degree 4, all neighbours degree 4
    inc = Incidence(centre, canon_edge(centre, 13))
    assert len(incidence_neighbourhood(inc, big)) == 10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_neighbourhood_formula_random(seed, n):
    g = gen_random_graph(n, seed, density=0.4)
    for inc in incidences(g):
        v = inc.vertex
        u = inc.edge[0] if inc.edge[1] == v else inc.edge[1]
        expected = 2 * g.degree(v) + g.degree(u) - 2
        assert len(incidence_neighbourhood(inc, g)) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 10))
def test_adjacency_symmetric_irreflexive(seed, n):
    g = gen_random_graph(n, seed, density=0.5)
    incs = incidences(g)
    for i, a in enumerate(incs):
        assert not incidence_adjacent(a, a)
        for b in incs[i + 1:]:
            assert incidence_adjacent(a, b) == incidence_adjacent(b, a)


def test_incidence_count_is_twice_edges():
    for seed in range(20):
        g = gen_random_graph(3 + seed % 10, seed)
        assert len(incidences(g)) == 2 * len(g.edges)


def test_incidence_graph_k2_is_k2(k2):
    ig = incidence_graph(k2)
    assert ig.n == 2 and ig.edges == ((0, 1),)


def test_incidence_graph_c4_degrees():
    ig = incidence_graph(gen_basic("cycle", 4)[0])
    assert ig.n == 8
    assert all(ig.degree(v) == 4 for v in range(8))


def _cycle_square_isomorphism(n):
    """Explicit isomorphism from the incidences of C_n onto the square of
    C_{2n}: (i, {i-1,i}) -> 2i and (i, {i,i+1}) -> 2i+1."""
    c, _ = gen_basic("cycle", n)
    phi = {}
    for idx, inc in enumerate(incidences(c)):
        i = inc.vertex
        other = inc.edge[0] if inc.edge[1] == i else inc.edge[1]
        phi[idx] = 2 * i + 1 if other == (i + 1) % n else 2 * i
    return c, phi


@pytest.mark.parametrize("n", range(3, 9))
def test_incidence_graph_of_cycle_is_cycle_square(n):
    c, phi = _cycle_square_isomorphism(n)
    ig = incidence_graph(c)
    square, _ = gen_cycle_power(2 * n, 2)
    mapped = {tuple(sorted((phi[u], phi[v]))) for u, v in ig.edges}
    assert mapped == set(square.edges)


def test_incidence_graph_c3_is_c6_squared():
    ig = incidence_graph(gen_basic("cycle", 3)[0])
    sq, _ = gen_cycle_power(6, 2)
    assert ig.n == sq.n and len(ig.edges) == len(sq.edges)
    assert sorted(ig.degree(v) for v in range(6)) == sorted(sq.degree(v) for v in range(6))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 9))
def test_subgraph_incidence_injection(seed, n):
    g = gen_random_graph(n, seed, density=0.5)
    if not g.edges:
        return
    u, v = g.edges[seed % len(g.edges)]
    h = g.without_edge(u, v)
    idx_g = {inc: i for i, inc in enumerate(incidences(g))}
    ig_edges = set(incidence_graph(g).edges)
    for inc in incidences(h):
        assert inc in idx_g
    ih = incidence_graph(h)
    hmap = [idx_g[inc] for inc in incidences(h)]
    for a, b in ih.edges:
        assert tuple(sorted((hmap[a], hmap[b]))) in ig_edges


def test_validate_colouring_flags():
    c3, _ = gen_basic("cycle", 3)
    lists = ListAssignment.uniform(c3, 3)
    from incolour.solver import solve_list_colouring

    res = solve_list_colouring(c3, lists)
    verdict = validate_colouring(c3, lists, res.colouring)
    assert verdict.total and verdict.proper and verdict.list_respecting

    same_edge = IncidenceColouring({0: 1, incidence_id(c3, 1, 0): 1})
    verdict = validate_colouring(c3, None, same_edge)
    assert not verdict.proper and not verdict.total
    assert "adjacent" in verdict.violation

    partial = IncidenceColouring({0: 1})
    verdict = validate_colouring(c3, None, partial)
    assert verdict.proper and not verdict.total and verdict.list_respecting is None


def test_validate_colouring_structural_error():
    c3, _ = gen_basic("cycle", 3)
    with pytest.raises(GraphError):
        validate_colouring(c3, None, IncidenceColouring({99: 1}))


def test_list_assignment_guards(k2):
    with pytest.raises(GraphError):
        ListAssignment([set(), {1}])
    with pytest.raises(GraphError):
        ListAssignment([{-1}, {1}])
    with pytest.raises(GraphError):
        ListAssignment.from_dict(k2, {0: [1]})
    uni = ListAssignment.uniform(k2, 2)
    assert uni.min_size() == 2
    assert uni.restricted([1]).lists == (frozenset({2}), frozenset({2}))


def test_empty_and_edgeless_graphs():
    empty = Graph(0, [])
    assert incidences(empty) == ()
    lonely = Graph(3, [])
    assert incidences(lonely) == ()
    assert incidence_graph(lonely).n == 0
    verdict = validate_colouring(lonely, None, IncidenceColouring({}))
    assert verdict.total and verdict.proper


def _pairwise_verdict(g, lists, colouring):
    """Oracle for :func:`validate_colouring`: scan every pair of coloured
    incidences with :func:`incidence_adjacent`, in id order."""
    incs = incidences(g)
    m = len(incs)
    total = len(colouring) == m
    violation = None
    proper = True
    coloured = sorted(colouring.assignment.items())
    for a in range(len(coloured)):
        i, ci = coloured[a]
        for b in range(a + 1, len(coloured)):
            j, cj = coloured[b]
            if ci == cj and incidence_adjacent(incs[i], incs[j]):
                proper = False
                violation = f"incidences {i} and {j} are adjacent and share colour {ci}"
                break
        if not proper:
            break
    list_respecting = None
    if lists is not None:
        list_respecting = True
        for i, c in coloured:
            if c not in lists[i]:
                list_respecting = False
                if violation is None:
                    violation = f"incidence {i} uses colour {c} outside its list"
                break
    if violation is None and not total:
        missing = next(i for i in range(m) if i not in colouring)
        violation = f"incidence {missing} is uncoloured"
    return Verdict(total=total, proper=proper, list_respecting=list_respecting, violation=violation)


@st.composite
def _graphs(draw):
    """Random simple graphs on 0-9 vertices, often with isolated vertices,
    and stars with up to two isolated vertices beside them."""
    if draw(st.booleans()):
        star, _ = gen_basic("star", draw(st.integers(1, 6)))
        return Graph(star.n + draw(st.integers(0, 2)), star.edges)
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n, [])
    return Graph(n, draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_colouring_matches_pairwise_oracle(data):
    g = data.draw(_graphs())
    m = 2 * len(g.edges)
    # Few colours and many gaps: most colourings clash or are partial.
    slots = data.draw(st.lists(st.none() | st.integers(1, 4), min_size=m, max_size=m))
    colouring = IncidenceColouring({i: c for i, c in enumerate(slots) if c is not None})
    lists = data.draw(st.none() | st.lists(
        st.frozensets(st.integers(1, 5), min_size=1), min_size=m, max_size=m,
    ).map(ListAssignment))
    assert validate_colouring(g, lists, colouring) == _pairwise_verdict(g, lists, colouring)


@settings(max_examples=100, deadline=None)
@given(_graphs())
def test_neighbour_ids_match_pairwise_adjacency(g):
    incs = incidences(g)
    expected = tuple(
        tuple(j for j, b in enumerate(incs) if incidence_adjacent(a, b)) for a in incs
    )
    assert incidence_neighbour_ids(g) == expected


@settings(max_examples=100, deadline=None)
@given(_graphs())
def test_incidence_id_matches_enumeration(g):
    incs = incidences(g)
    for v in range(-1, g.n + 1):
        for u in range(-1, g.n + 1):
            if 0 <= v < g.n and u in g.adj[v]:
                assert incidence_id(g, v, u) == incs.index(Incidence(v, canon_edge(v, u)))
            else:
                with pytest.raises(GraphError):
                    incidence_id(g, v, u)
