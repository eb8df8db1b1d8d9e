from __future__ import annotations

import random

import pytest

import incolour.kernel
from conftest import FUZZ_FAMILIES, assert_valid_report, naive_satisfiable
from incolour.catalogue import (
    default_fuzz_instances,
    halin_interleaved_spec,
    ham_cubic_named,
    random_halin_spec,
)
from incolour.constructive import Painter, StuckError, construct, guaranteed_bound
from incolour.families import FamilySpec, gen_basic, generate
from incolour.graphs import InputError, ListAssignment, incidence_id
from incolour.harness import pre_pair, random_list_assignment
from incolour.solver import solve_list_colouring


def test_c6_three_colour_lists():
    g, _ = gen_basic("cycle", 6)
    lists = ListAssignment.uniform(g, 3)
    rep = construct(FamilySpec("cycle", {"n": 6}), lists)
    assert_valid_report(g, lists, rep)
    assert all(step.tag == "cycle-dp" for step in rep.trace)


def test_c5_four_colour_lists():
    g, _ = gen_basic("cycle", 5)
    lists = ListAssignment.uniform(g, 4)
    assert_valid_report(g, lists, construct(FamilySpec("cycle", {"n": 5}), lists))


def test_c5_three_lists_rejected_up_front():
    g, _ = gen_basic("cycle", 5)
    with pytest.raises(InputError):
        construct(FamilySpec("cycle", {"n": 5}), ListAssignment.uniform(g, 3))


@pytest.mark.parametrize("n", [3, 6, 9, 4, 7, 11])
def test_random_lists_at_the_bound(n):
    g, _ = gen_basic("cycle", n)
    k = 3 if n % 3 == 0 else 4
    for trial in range(40):
        lists = random_list_assignment(g, k, 3 * k, trial)
        assert_valid_report(g, lists, construct(FamilySpec("cycle", {"n": n}), lists))


def _random_lists(g, sizes, rng):
    """Most lists take s colours of s + 1, for one size s per call; one in
    four takes any size from ``sizes`` out of eight colours."""
    s = rng.choice(sizes)
    return ListAssignment([rng.sample(range(1, s + 2), s) if rng.random() < 0.75
                           else rng.sample(range(1, 9), rng.choice(sizes))
                           for _ in range(2 * len(g.edges))])


def _paint_ring(painter, ring):
    """The painter's report after it paints ``ring``, checked, or None when
    the ring is stuck."""
    try:
        painter.paint_ring(ring, "ring")
    except StuckError:
        return None
    rep = painter.report()
    assert_valid_report(painter.graph, painter.lists, rep)
    return rep


@pytest.mark.parametrize("sizes", [(2, 3, 4), (2, 3, 4, 5, 6, 7)], ids=["2-4", "2-7"])
@pytest.mark.parametrize("n", range(3, 9))
def test_paint_ring_decides_like_the_oracle(n, sizes):
    g, _ = gen_basic("cycle", n)
    rng = random.Random(n)
    stuck = 0
    for _ in range(100):
        lists = _random_lists(g, sizes, rng)
        coloured = _paint_ring(Painter(g, lists), range(n)) is not None
        assert coloured == naive_satisfiable(g, lists)
        stuck += not coloured
    assert stuck > 0


def test_paint_ring_reaches_the_fifth_least_colour():
    """The four ring neighbours of an incidence hold its four least
    colours, so only its fifth colour fits: the cut at five is exact and
    no tighter cut is."""
    g, _ = gen_basic("cycle", 4)
    order = [incidence_id(g, *pair) for r in range(4)
             for pair in ((r, (r + 1) % 4), ((r + 1) % 4, r))]
    wanted = [{1}, {2}, {1, 2, 3, 4, 5}, {3}, {4}, {6, 7, 8}, {6, 7, 8}, {6, 7, 8}]
    lists = ListAssignment([wanted[order.index(i)] for i in range(8)])
    rep = _paint_ring(Painter(g, lists), range(4))
    assert rep.colouring[order[2]] == 5


@pytest.mark.parametrize("n", range(3, 9))
def test_paint_ring_around_a_painted_hub(n):
    """Wheel rims after every spoke incidence is painted: the ring transfer
    sees the spoke colours and agrees with exact search on the whole wheel,
    whose painted incidences keep their colour as a singleton list."""
    g, _ = gen_basic("wheel", n)
    spokes = [incidence_id(g, x, y) for i in range(n) for x, y in ((n, i), (i, n))]
    rng = random.Random(n)
    outcomes = set()
    for _ in range(30):
        lists = _random_lists(g, (3, 4, 5, 6, 7), rng)
        lists = ListAssignment([range(1, 3 * n + 4) if i in spokes else lists[i]
                                for i in range(len(lists))])
        painter = Painter(g, lists)
        painter.fill(spokes, "spoke")
        fixed = ListAssignment([{painter.colour[i]} if i in spokes else lists[i]
                                for i in range(len(lists))])
        coloured = _paint_ring(painter, range(n)) is not None
        assert coloured == solve_list_colouring(g, fixed).found
        outcomes.add(coloured)
    assert outcomes == {False, True}


def interleaved_caterpillar(spine):
    """A Halin graph of maximum degree 4 on a caterpillar: a path of
    ``spine`` vertices, each inner one with a leaf above and a leaf below,
    each end with three leaves; in the leaf order around the plane no two
    adjacent parent runs both have length >= 2."""
    edges = [[v, v + 1] for v in range(spine - 1)]
    leaf = iter(range(spine, 4 * spine))
    ends = {v: [next(leaf) for _ in range(3)] for v in (0, spine - 1)}
    above = {v: next(leaf) for v in range(1, spine - 1)}
    below = {v: next(leaf) for v in range(1, spine - 1)}
    for v, leaves in [*ends.items(), *((v, [above[v], below[v]]) for v in above)]:
        edges += [[v, w] for w in leaves]
    order = ends[0] + [above[v] for v in range(1, spine - 1)] + ends[spine - 1]
    order += [below[v] for v in range(spine - 2, 0, -1)]
    return FamilySpec("halin", {"tree_edges": edges, "leaf_order": order})


def test_rings_run_no_exact_search(monkeypatch):
    """No constructive run reaches the kernel: every family's default fuzz
    instances (coronae also with the pendant edge pre-coloured), wheels,
    K4 as a complete graph and as ham_cubic n=4, random Halin graphs, the
    interleaved Halin graph at universes 6 to 18, and an interleaved
    caterpillar with 400 spine vertices and 802 leaves."""
    def no_search(*args, **kwargs):
        raise AssertionError("exact search in a constructive run")

    monkeypatch.setattr(incolour.kernel, "search", no_search)
    runs = [(spec, pre, 3 * guaranteed_bound(spec, pre=pre), range(3))
            for family in FUZZ_FAMILIES for spec in default_fuzz_instances(family)
            for pre in ((False, True) if family == "corona" else (False,))]
    specs = [FamilySpec("wheel", {"n": n}) for n in range(3, 9)]
    specs += [FamilySpec("complete", {"n": 4}), ham_cubic_named()[0]]
    specs += [random_halin_spec(150, seed) for seed in range(1, 6)]
    runs += [(spec, False, 3 * guaranteed_bound(spec), range(3)) for spec in specs]
    runs += [(halin_interleaved_spec(), False, u, range(3)) for u in range(6, 19)]
    runs += [(interleaved_caterpillar(400), False, 18, range(1))]
    for spec, pre, universe, seeds in runs:
        g, spec = generate(spec)
        k = guaranteed_bound(spec, pre=pre)
        for seed in seeds:
            lists = random_list_assignment(g, k, universe, seed)
            pairs = pre_pair(g, spec, lists, seed) if pre else None
            assert_valid_report(g, lists, construct(spec, lists, pre=pairs), expect=pairs)
