from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import incidence_graph
from incolour import solver
from incolour.constructive import Painter, construct
from incolour.families import FamilySpec, gen_basic, gen_cycle_power, gen_grid, gen_random_graph
from incolour.graphs import (
    Graph,
    GraphError,
    Incidence,
    IncidenceColouring,
    InputError,
    ListAssignment,
    Verdict,
    _vertex_index,
    canon_edge,
    incidence_adjacent,
    incidence_id,
    incidence_neighbour_ids,
    incidences,
    validate_colouring,
)
from incolour.harness import random_list_assignment
from incolour.solver import greedy_degenerate, solve_list_colouring


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
    assert len(incidence_neighbour_ids(k2)[incidence_id(k2, 0, 1)]) == 1
    s3, _ = gen_basic("star", 3)
    assert len(incidence_neighbour_ids(s3)[incidence_id(s3, 1, 0)]) == 2 * 1 + 3 - 2
    big, _ = gen_grid(5, 5)
    centre = 12   # row 3, column 3: degree 4, all neighbours degree 4
    assert len(incidence_neighbour_ids(big)[incidence_id(big, centre, 13)]) == 10


def test_neighbourhood_rejects_a_non_incidence():
    p3, _ = gen_basic("path", 3)
    with pytest.raises(GraphError, match="not an incidence"):
        incidence_id(p3, 0, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_neighbourhood_formula_random(seed, n):
    g = gen_random_graph(n, seed, density=0.4)
    neigh = incidence_neighbour_ids(g)
    for i, inc in enumerate(incidences(g)):
        v = inc.vertex
        u = inc.edge[0] if inc.edge[1] == v else inc.edge[1]
        assert len(neigh[i]) == 2 * g.degree(v) + g.degree(u) - 2


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
    h = Graph(g.n, [e for e in g.edges if e != (u, v)])
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
    # a key that is not an int is named, with or without lists
    for key in ("0", None, 0.5, 1.0, True):
        for lists in (None, ListAssignment.uniform(c3, 4)):
            with pytest.raises(GraphError, match=rf"^unknown incidence id {re.escape(repr(key))}$"):
                validate_colouring(c3, lists, IncidenceColouring({key: 1}))


# every entry point that takes a list assignment, called on C6
_C6_COLOURING = IncidenceColouring({i: i for i in range(12)})
_COVERAGE_CHECKS = {
    "solve_list_colouring": solve_list_colouring,
    "greedy_degenerate": greedy_degenerate,
    "validate_colouring": lambda g, lists: validate_colouring(g, lists, _C6_COLOURING),
    "construct": lambda g, lists: construct(FamilySpec("cycle", {"n": 6}), lists),
    "Painter": Painter,
}


@pytest.mark.parametrize("entry", _COVERAGE_CHECKS.values(), ids=_COVERAGE_CHECKS.keys())
def test_lists_that_do_not_cover_the_graph_raise_one_input_error(entry):
    c6, _ = gen_basic("cycle", 6)
    lists = ListAssignment([range(1, 13)] * 11)
    with pytest.raises(InputError, match="^list assignment does not cover the incidences$"):
        entry(c6, lists)


def test_list_assignment_guards(k2):
    with pytest.raises(GraphError):
        ListAssignment([set(), {1}])
    with pytest.raises(GraphError):
        ListAssignment([{-1}, {1}])
    with pytest.raises(GraphError):
        ListAssignment.from_dict(k2, {0: [1]})
    uni = ListAssignment.uniform(k2, 2)
    assert uni.min_size() == 2
    with pytest.raises(GraphError, match="^uniform list size must be >= 1$"):
        ListAssignment.uniform(k2, 0)
    assert (ListAssignment.from_dict(k2, {1: [2, 3], 0: (1,)}).lists
            == ListAssignment([(1,), [2, 3]]).lists == (frozenset({1}), frozenset({2, 3})))


@pytest.mark.parametrize("k", [2.5, "3", True], ids=["float", "str", "bool"])
def test_uniform_list_size_must_be_an_int(k2, k):
    with pytest.raises(GraphError, match="^uniform list size must be an integer, got "):
        ListAssignment.uniform(k2, k)


def test_colourings_and_list_assignments_are_the_dict_and_tuple_they_hold(k2):
    colouring = IncidenceColouring({0: 1})
    assert colouring == {0: 1} and isinstance(colouring, dict)
    assert IncidenceColouring(enumerate([3, 4])) == {0: 3, 1: 4}
    lists = ListAssignment([[1, 2], {3}])
    assert lists == (frozenset({1, 2}), frozenset({3})) and isinstance(lists, tuple)
    assert ListAssignment.uniform(k2, 2) == (frozenset({1, 2}),) * 2
    # the names that readers from before these were containers still use
    assert colouring.assignment is colouring and lists.lists is lists
    for value in (colouring, lists):
        with pytest.raises(AttributeError):
            value.extra = 1   # no per-instance dict


def test_a_colouring_copies_the_map_it_is_given():
    d = {0: 1, 1: 2}
    colouring = IncidenceColouring(d)
    d[0] = 3
    d[2] = 1
    del d[1]
    assert colouring.assignment == {0: 1, 1: 2}
    assert colouring.assignment is not d


_EMPTY = "^empty colour list for incidence {}$"
_BAD = r"^colours must be non-negative ints \(incidence {}\)$"


@pytest.mark.parametrize("lists, message, incidence", [
    ([{1}, set(), {2}], _EMPTY, 1),
    ([{1, 2}, {3}, {4, -1}], _BAD, 2),
    ([{1.5}, {1}], _BAD, 0),
    ([{2}, {"1", 2}], _BAD, 1),
    # a float equal to a colour of an earlier list is still not an int
    ([{1, 2}, {1.0}], _BAD, 1),
    ([{1}, {2}, {-3}, {0.5}, set()], _BAD, 2),
    ([{1}, {"1"}, {-1}], _BAD, 1),
    ([{1}, set(), {-1}, {"1"}], _EMPTY, 1),
    ([{1}, set(), [[1]]], _EMPTY, 1),
], ids=["empty", "negative", "float", "str", "float-equal-to-int", "first-bad-wins",
        "str-before-negative", "empty-before-bad", "empty-before-unhashable"])
def test_list_assignment_names_the_first_bad_incidence(lists, message, incidence):
    with pytest.raises(GraphError, match=message.format(incidence)):
        ListAssignment(lists)


def _sweep_assignments(monkeypatch):
    """Every assignment that a choosability sweep of C4 solves."""
    seen = []
    solve = solver.solve_list_colouring
    monkeypatch.setattr(solver, "solve_list_colouring",
                        lambda g, lists, cfg: seen.append(lists) or solve(g, lists, cfg))
    solver.check_choosability_exhaustive(gen_basic("cycle", 4)[0], 2, 4)
    assert len(seen) > 1
    return seen


# the producers that wrap lists they drew themselves without the check
_UNCHECKED = {
    # universe 9 is at most CPython's setsize 21: sample's pool branch, inlined
    "sampler-pool": lambda mp: [random_list_assignment(gen_grid(3, 3)[0], 3, 9, 1)],
    # universe 40 is above it: rng.sample itself
    "sampler-sample": lambda mp: [random_list_assignment(gen_grid(3, 3)[0], 2, 40, 1)],
    "uniform": lambda mp: [ListAssignment.uniform(gen_grid(3, 3)[0], 5)],
    "sweep": _sweep_assignments,
}


@pytest.mark.parametrize("made", _UNCHECKED.values(), ids=_UNCHECKED.keys())
def test_lists_wrapped_unchecked_pass_the_public_check_unchanged(made, monkeypatch):
    for la in made(monkeypatch):
        assert ListAssignment(la.lists).lists == la.lists


def test_list_assignment_accepts_what_it_always_accepted():
    lists = ListAssignment([range(3), [0], {True, 5}, frozenset({7, 7.0})])
    assert lists.lists == (frozenset({0, 1, 2}), frozenset({0}), frozenset({1, 5}),
                           frozenset({7}))
    assert ListAssignment([]).lists == ()


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
    off, head, mate, tail = _vertex_index(g)
    assert len(off) == g.n + 1 and len(head) == len(mate) == len(tail) == len(incs)
    for i, inc in enumerate(incs):
        assert tail[i] == inc.vertex == head[mate[i]]
    for v in range(g.n):
        assert list(range(off[v], off[v + 1])) == [i for i, t in enumerate(tail) if t == v]
    for v in range(-1, g.n + 1):
        for u in range(-1, g.n + 1):
            if 0 <= v < g.n and u in g.adj[v]:
                assert incidence_id(g, v, u) == incs.index(Incidence(v, canon_edge(v, u)))
            else:
                with pytest.raises(GraphError):
                    incidence_id(g, v, u)
