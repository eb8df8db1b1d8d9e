"""The rim transfer with spokes, ``Painter.paint_ring(ring, tag, spokes)``:
the strip of blocks (x_i, a_i, b_i) it assumes is the Halin graph's, it
decides exactly, its list cuts are the least exact ones, and the strip
lemma that the Halin route rests on holds on every strip tried.

The strip lemma: rim lists of 5 or more colours and spoke lists of 2 or
more always give a colourable strip.  It is checked here, not proven."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from conftest import assert_valid_report, naive_satisfiable
from incolour.catalogue import halin_interleaved_spec, halin_specs, random_halin_spec
from incolour.constructive import Painter, StuckError, _as_halin
from incolour.constructive.halin import K4_HALIN
from incolour.families import FamilySpec, gen_basic, generate
from incolour.graphs import ListAssignment, incidence_id, incidence_neighbour_ids, incidences


# small Halin graphs: K4, the wheels on rims C4-C8, the catalogue's
# non-wheel graphs, the interleaved one and a few random ones
SMALL_HALIN = [K4_HALIN, *(_as_halin(FamilySpec("wheel", {"n": n})) for n in range(4, 9)),
               *halin_specs(), halin_interleaved_spec(),
               *(random_halin_spec(2, seed) for seed in range(3))]


def strip_of(g, spec):
    """The spokes of the rim and its blocks of incidence ids (x_i, a_i, b_i)."""
    leaves = list(spec.params["leaf_order"])
    spokes = {r: next(w for w in g.adj[r] if w not in leaves) for r in leaves}
    blocks = [(incidence_id(g, r, spokes[r]), incidence_id(g, r, s), incidence_id(g, s, r))
              for r, s in zip(leaves, leaves[1:] + leaves[:1])]
    return spokes, blocks


@pytest.mark.parametrize("spec", SMALL_HALIN, ids=range(len(SMALL_HALIN)))
def test_strip_adjacency_is_the_graphs(spec):
    """Among the rim and spoke-end incidences, the graph's adjacency is
    exactly the strip's, and each sees only the incidences at internal
    vertices besides: one for a rim incidence, the parent's degree for a
    spoke end."""
    g, spec = generate(spec)
    spokes, blocks = strip_of(g, spec)
    neigh = incidence_neighbour_ids(g)
    ring = {i for block in blocks for i in block}
    want = set()
    for (x, a, b), (_, pa, pb) in zip(blocks, blocks[-1:] + blocks[:-1]):
        want |= {frozenset(p) for p in ((x, a), (x, b), (a, b), (x, pa), (x, pb),
                                         (a, pa), (a, pb), (b, pb))}
    assert {frozenset((i, j)) for i in ring for j in neigh[i] if j in ring} == want
    for r, (x, a, b) in zip(spec.params["leaf_order"], blocks):
        assert len(set(neigh[x]) - ring) == g.degree(spokes[r])
        assert len(set(neigh[a]) - ring) == len(set(neigh[b]) - ring) == 1


def _paint_strip(painter, spec, spokes):
    """The painter's report after the internal incidences are painted
    greedily and the rim with its spokes by ``paint_ring``, or None when the
    rim is stuck; the second value fixes the painted incidences as
    one-colour lists, for the oracle."""
    g, lists = painter.graph, painter.lists
    for i, inc in enumerate(incidences(g)):
        if inc.vertex not in spokes:
            painter.greedy(i, "tree")
    fixed = ListAssignment([{painter.colour[i]} if i in painter.colour else lists[i]
                            for i in range(len(lists))])
    try:
        painter.paint_ring(spec.params["leaf_order"], "ring", spokes=spokes)
    except StuckError:
        return None, fixed
    rep = painter.report()
    assert_valid_report(g, lists, rep)
    return rep, fixed


@pytest.mark.parametrize("spec", SMALL_HALIN, ids=range(len(SMALL_HALIN)))
def test_paint_ring_with_spokes_decides_like_the_oracle(spec):
    """Internal incidences painted from ample lists, the rim and spoke ends
    from small random ones: the strip search colours the rim exactly when
    the whole graph, its painted incidences fixed, is colourable."""
    g, spec = generate(spec)
    spokes, blocks = strip_of(g, spec)
    ring = {i for block in blocks for i in block}
    rng = random.Random(len(g.edges))
    outcomes = set()
    for _ in range(30):
        s = rng.choice((2, 3, 4, 5))
        lists = ListAssignment([rng.sample(range(1, s + 3), s) if i in ring else range(4, 18)
                                for i in range(2 * len(g.edges))])
        rep, fixed = _paint_strip(Painter(g, lists), spec, spokes)
        assert (rep is not None) == naive_satisfiable(g, fixed)
        outcomes.add(rep is not None)
    assert outcomes == {False, True}


def wheel_strip(rims, spokes):
    """The wheel W_k with the given rim lists (a_0, b_0, a_1, ...) and spoke
    lists, its hub incidences painted in private colours, so that the strip
    sees the lists as given; the report after ``paint_ring``, or None."""
    k = len(spokes)
    g, _ = gen_basic("wheel", k)
    named = {}
    for r in range(k):
        s = (r + 1) % k
        named[incidence_id(g, k, r)] = {100 + r}
        named[incidence_id(g, r, k)] = spokes[r]
        named[incidence_id(g, r, s)] = rims[2 * r]
        named[incidence_id(g, s, r)] = rims[2 * r + 1]
    lists = ListAssignment([named[i] for i in range(4 * k)])
    painter = Painter(g, lists)
    for r in range(k):
        painter.paint(incidence_id(g, k, r), 100 + r, "hub")
    try:
        painter.paint_ring(range(k), "ring", spokes=dict.fromkeys(range(k), k))
    except StuckError:
        assert not naive_satisfiable(g, lists)
        return None
    rep = painter.report()
    assert_valid_report(g, lists, rep)
    return rep, g


def test_spoke_takes_its_fifth_least_colour():
    """The four ring neighbours of spoke x_2 hold its four least colours:
    only its fifth fits, so the spoke cut at five is the least exact one."""
    rims = [range(10, 20)] * 8
    rims[2], rims[3], rims[4], rims[5] = {1}, {2}, {3}, {4}   # a_1, b_1, a_2, b_2
    spokes = [range(20, 25)] * 4
    spokes[2] = {1, 2, 3, 4, 5}
    rep, g = wheel_strip(rims, spokes)
    assert rep.colouring[incidence_id(g, 2, 4)] == 5


def test_rim_beside_spokes_takes_its_seventh_least_colour():
    """The six ring neighbours of a_2 (x_2, x_3, a_1, b_1, b_2, a_3) hold its
    six least colours: only its seventh fits, so the rim cut at seven is the
    least exact one."""
    rims = [range(10, 20)] * 10
    rims[2], rims[3], rims[5], rims[6] = {1}, {2}, {3}, {4}   # a_1, b_1, b_2, a_3
    rims[4] = range(1, 8)                                      # a_2
    spokes = [range(20, 25)] * 5
    spokes[2], spokes[3] = {5}, {6}
    rep, g = wheel_strip(rims, spokes)
    assert rep.colouring[incidence_id(g, 2, 3)] == 7


def test_strip_lemma_sizes_are_tight():
    """One colour less on either side of the lemma gives uncolourable
    strips: rim lists of 4 with spoke lists of 2, and rim lists of 5 with
    spoke lists of 1."""
    assert wheel_strip([{1, 2, 3, 4}] * 8, [{1, 2}] * 4) is None
    assert wheel_strip([{1, 2, 3, 4, 5}] * 8, [{3}, {2}, {3}, {2}]) is None


@pytest.mark.parametrize("k", range(3, 13))
def test_strip_lemma_on_random_strips(k):
    """Rim lists of 5 and spoke lists of 2 from small universes always give
    a colourable strip (reduced size; the full runs are in CHANGES.md)."""
    rng = random.Random(k)
    for universe in (5, 6, 7, 9):
        for _ in range(12):
            rims = [set(rng.sample(range(1, universe + 1), 5)) for _ in range(2 * k)]
            spokes = [set(rng.sample(range(1, universe + 1), 2)) for _ in range(k)]
            assert wheel_strip(rims, spokes) is not None


def test_strip_lemma_on_every_spoke_pair():
    """Every assignment of 2-lists from {1..5} to the spokes of a 3-rim
    whose rim lists are all {1..5}."""
    for spokes in itertools.product(itertools.combinations(range(1, 6), 2), repeat=3):
        assert wheel_strip([set(range(1, 6))] * 6, list(map(set, spokes))) is not None


@st.composite
def strips(draw):
    k = draw(st.integers(3, 7))
    universe = draw(st.integers(5, 8))
    pick = lambda size: draw(st.sets(st.integers(1, universe), min_size=size, max_size=size))
    return [pick(5) for _ in range(2 * k)], [pick(2) for _ in range(k)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(strips())
def test_strip_lemma_targeted_search(strip):
    """Search for a counterexample, steered towards strips whose adjacent
    incidences share the most colours."""
    rims, spokes = strip
    k = len(spokes)
    shared = 0
    for i in range(k):
        x, a, b = spokes[i], rims[2 * i], rims[2 * i + 1]
        pa, pb = rims[2 * i - 2], rims[2 * i - 1]
        shared += sum(len(p & q) for p, q in ((x, a), (x, b), (a, b), (x, pa), (x, pb),
                                              (a, pa), (a, pb), (b, pb)))
    target(shared / k)
    assert wheel_strip(rims, spokes) is not None
