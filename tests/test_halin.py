from __future__ import annotations

import hashlib

import pytest

import incolour.kernel
from conftest import assert_valid_report
from incolour.catalogue import halin_interleaved_spec, halin_specs, random_halin_spec
from incolour.constructive import construct, required_halin_lists
from incolour.constructive import _as_halin
from incolour.families import FamilySpec, generate
from incolour.graphs import Graph, InputError, ListAssignment, incidence_id
from incolour.harness import random_list_assignment


# the tags of every Halin run: the inner tree, then the rim with its spokes
HALIN_TAGS = {"halin-tree", "halin-outer-cycle"}


def wheel_as_halin(n):
    spec = _as_halin(FamilySpec("wheel", {"n": n}))
    g, spec = generate(spec)
    return g, spec


def k4_spec():
    return wheel_as_halin(3)


def test_halin_route_builds_no_second_graph(monkeypatch):
    spec = halin_specs()[2]  # the caterpillar
    g, spec = generate(spec)
    lists = ListAssignment.uniform(g, required_halin_lists(g, spec))
    built = []
    init = Graph.__init__

    def counting_init(self, n, edges):
        built.append(n)
        init(self, n, edges)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    rep = construct(spec, lists)
    assert {s.tag for s in rep.trace} == HALIN_TAGS
    assert built == []


# ------------------------------------------------------------ colouring ---

def test_k4_thousand_random_lists():
    g, spec = k4_spec()
    for trial in range(1000):
        lists = random_list_assignment(g, 6, 18, trial)
        rep = construct(spec, lists)
        assert_valid_report(g, lists, rep)


def test_k4_crafted_lists():
    """The crafted list assignments that drove each schedule of the former
    K4 case analysis (random lists over a 3k universe practically always
    share a colour across the three lists at vertex 0's neighbours), as
    inputs to the one Halin route."""
    g, spec = k4_spec()
    m = 12

    def build(named):
        lists = {t: frozenset(range(100 + 10 * t, 106 + 10 * t)) for t in range(m)}
        for (x, y), colours in named.items():
            lists[incidence_id(g, x, y)] = frozenset(colours)
        return ListAssignment([lists[t] for t in range(m)])

    cases = {
        "halin-k4-case2a": {
            (1, 0): range(1, 7), (2, 0): range(7, 13), (3, 0): range(13, 19),
            (0, 1): range(19, 25), (0, 2): range(25, 31), (0, 3): range(31, 37)},
        "halin-k4-case2b": {
            (1, 0): range(1, 7), (2, 0): range(7, 13), (3, 0): range(13, 19),
            (0, 1): range(19, 25),
            (0, 2): (1, 7, 40, 41, 42, 43), (0, 3): (1, 7, 44, 45, 46, 47),
            (1, 2): range(50, 56)},
        "halin-k4-far-pair": {
            (1, 0): range(1, 7), (0, 1): range(1, 7),
            (2, 0): range(7, 13), (3, 0): range(13, 19)},
        "halin-k4-case1": {
            (1, 0): range(1, 7), (2, 0): range(7, 13), (3, 0): range(7, 13),
            (0, 1): range(20, 26)},
    }
    for named in cases.values():
        lists = build(named)
        rep = construct(spec, lists)
        assert_valid_report(g, lists, rep)
        assert {s.tag for s in rep.trace} == HALIN_TAGS


def construct_with_boundary_lists(named):
    """Colour the caterpillar with ``named`` placed on the eight incidences
    around its two-block boundary, where the former boundary selector read
    its lists A, B, C, D, E and its last, first and inner guards, and 6-lists
    elsewhere; check the report and its tags."""
    g, spec = generate(halin_specs()[2])
    # leaves 4, 5 and 6 around the boundary, parents 0 and 1, leaf 3 before
    places = [(3, 0), (4, 0), (4, 5), (1, 5), (6, 5), (3, 4), (4, 3), (5, 4)]
    by_id = {incidence_id(g, *pair): colours for pair, colours in zip(places, named)}
    lists = ListAssignment([by_id.get(i, range(1, 7)) for i in range(2 * len(g.edges))])
    rep = construct(spec, lists)
    assert_valid_report(g, lists, rep)
    assert {s.tag for s in rep.trace} == HALIN_TAGS


def test_halin_boundary_common_branch():
    """The boundary lists share one colour across C, D and E: the crafted
    input of the former selector's common branch, on the one route."""
    construct_with_boundary_lists([range(1, 7)] * 7 + [range(20, 26)])


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


def test_wheel_bounds():
    for n, expect in [(3, 6), (4, 7), (5, 7), (6, 7), (7, 8), (8, 9)]:
        g, spec = wheel_as_halin(n)
        assert required_halin_lists(g, spec) == expect


def test_wheels_at_their_bound():
    for n in range(4, 9):
        g, spec = wheel_as_halin(n)
        k = required_halin_lists(g, spec)
        for trial in range(60):
            lists = random_list_assignment(g, k, 3 * k, trial)
            rep = construct(spec, lists)
            assert_valid_report(g, lists, rep)


def test_nonwheel_halins_six_lists():
    for spec in halin_specs():
        g, spec = generate(spec)
        assert g.max_degree in (3, 4)
        assert required_halin_lists(g, spec) == 6
        for trial in range(60):
            lists = random_list_assignment(g, 6, 18, trial)
            rep = construct(spec, lists)
            assert_valid_report(g, lists, rep)
            assert {s.tag for s in rep.trace} == HALIN_TAGS


def test_interleaved_leaf_order_needs_no_search(monkeypatch):
    """No two adjacent parent runs of length >= 2 here: the same route
    colours it, at every universe from 6 to 18, and never searches."""
    def no_search(*args, **kwargs):
        raise AssertionError("exact search in a Halin run")

    monkeypatch.setattr(incolour.kernel, "search", no_search)
    g, spec = generate(halin_interleaved_spec())
    for universe in range(6, 19):
        for seed in range(5):
            lists = random_list_assignment(g, 6, universe, seed)
            rep = construct(spec, lists)
            assert_valid_report(g, lists, rep)
            assert {s.tag for s in rep.trace} == HALIN_TAGS


def test_big_delta_nonwheel_uses_tree_first():
    # two hubs of degree 6 joined by an edge
    edges = [[0, 1]]
    leaves = []
    for hub, base in ((0, 2), (1, 7)):
        for leaf in range(base, base + 5):
            edges.append([hub, leaf])
            leaves.append(leaf)
    spec = FamilySpec("halin", {"tree_edges": edges, "leaf_order": leaves})
    g, spec = generate(spec)
    assert g.max_degree == 6
    k = required_halin_lists(g, spec)
    assert k == 7
    lists = random_list_assignment(g, k, 3 * k, 1)
    rep = construct(spec, lists)
    assert_valid_report(g, lists, rep)
    assert {s.tag for s in rep.trace} == HALIN_TAGS


# Halin runs whose leaf orders are not increasing: the outer cycle is
# painted in leaf order, not in host incidence-id order, which these traces
# pin (the Halin runs behind TRACE_DIGEST are wheels, whose leaf orders
# increase); re-pinned when every Halin graph moved to one route: the
# internal incidences root to leaves, then the rim with the leaf ends of
# its spokes by the strip search
TREE_FIRST_DIGEST = "a3e69b54b9f1c9cc"


def _tree_first_runs():
    for seed in range(1, 6):
        g, spec = generate(random_halin_spec(150, seed))
        leaves = list(spec.params["leaf_order"])
        assert leaves != sorted(leaves)
        k = required_halin_lists(g, spec)
        yield seed, construct(spec, random_list_assignment(g, k, 3 * k, seed))


def test_tree_first_traces_match_golden_digest():
    h = hashlib.sha256()
    for seed, rep in _tree_first_runs():
        assert {s.tag for s in rep.trace} == HALIN_TAGS
        h.update(f"seed={seed}\n".encode())
        for step in rep.trace:
            h.update(f"{step.incidence},{step.colour},{step.tag}\n".encode())
    assert h.hexdigest()[:16] == TREE_FIRST_DIGEST


def test_random_halin_structures():
    """Seeded random Halin graphs, all on the one route."""
    from incolour.families import is_tree

    for i in range(24):
        spec = random_halin_spec(1 + i % 6, 100 + i)
        g, spec = generate(spec)
        tree = Graph(g.n, spec.params["tree_edges"])
        assert is_tree(tree)
        assert all(tree.degree(v) != 2 for v in range(tree.n))
        k = required_halin_lists(g, spec)
        for trial in range(15):
            lists = random_list_assignment(g, k, 3 * k, 7000 + 97 * i + trial)
            rep = construct(spec, lists)
            assert_valid_report(g, lists, rep)
            assert {s.tag for s in rep.trace} == HALIN_TAGS


def test_rejects_small_lists():
    g, spec = wheel_as_halin(5)
    with pytest.raises(InputError):
        construct(spec, ListAssignment.uniform(g, 6))


def test_deterministic():
    spec = halin_specs()[0]
    g, spec = generate(spec)
    lists = random_list_assignment(g, 6, 18, 9)
    r1 = construct(spec, lists)
    r2 = construct(spec, lists)
    assert r1.colouring == r2.colouring and r1.trace == r2.trace
