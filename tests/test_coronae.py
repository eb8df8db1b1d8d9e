from __future__ import annotations

import random

import pytest

from conftest import assert_valid_report
from golden import assert_golden
from incolour.constructive import Painter, StuckError, construct, corona_bound
from incolour.constructive.coronae import paint_corona, paint_cycle_unit
from incolour.families import FamilySpec, corona_pendant, gen_corona
from incolour.graphs import Graph, InputError, ListAssignment, incidence_id
from incolour.harness import random_list_assignment
from incolour.solver import solve_list_colouring


def pendant_edge_ids(n, p):
    g, _ = gen_corona(n, p)
    down = incidence_id(g, 0, corona_pendant(0, 1, n, p))
    up = incidence_id(g, corona_pendant(0, 1, n, p), 0)
    return g, down, up


def corona(n, p):
    return FamilySpec("corona", {"n": n, "p": p})


def paint_corona_report(g, n, p, lists, pre):
    """The corona painting rule on its own, with no list-size check; a
    stuck run raises StuckError."""
    painter = Painter(g, lists)
    paint_corona(painter, n, p, pre)
    return painter.report()


def test_bounds_table():
    assert corona_bound(5, 1, pre=False) == 5
    assert corona_bound(5, 2, pre=True) == 6
    assert corona_bound(4, 4, pre=False) == 7
    assert corona_bound(4, 4, pre=True) == 7
    assert corona_bound(3, 3, pre=True) == 8
    assert corona_bound(3, 3, pre=False) == 7
    assert corona_bound(3, 5, pre=False) == 8


def test_small_p_uniform():
    g, _ = gen_corona(5, 1)
    lists = ListAssignment.uniform(g, 5)
    rep = construct(corona(5, 1), lists)
    assert_valid_report(g, lists, rep)


def test_precoloured_pendant_edge_respected():
    g, down, up = pendant_edge_ids(4, 4)
    lists = ListAssignment.uniform(g, 7)
    rep = construct(corona(4, 4), lists, {down: 1, up: 2})
    assert_valid_report(g, lists, rep, expect={down: 1, up: 2})


def test_precoloured_triangle_needs_eight():
    g, down, up = pendant_edge_ids(3, 3)
    rep = construct(corona(3, 3), ListAssignment.uniform(g, 8), {down: 1, up: 2})
    assert_valid_report(g, ListAssignment.uniform(g, 8), rep, expect={down: 1, up: 2})
    with pytest.raises(InputError):
        construct(corona(3, 3), ListAssignment.uniform(g, 7), {down: 1, up: 2})


def test_rejects_equal_precolours_and_foreign_colours():
    g, down, up = pendant_edge_ids(4, 3)
    lists = ListAssignment.uniform(g, 7)
    with pytest.raises(InputError, match="^bad pre-colouring: .* are adjacent and share colour 2$"):
        construct(corona(4, 3), lists, {down: 2, up: 2})
    with pytest.raises(InputError, match="outside its list"):
        construct(corona(4, 3), lists, {down: 99, up: 2})


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_random_lists_plain_and_precoloured(n, p):
    g, down, up = pendant_edge_ids(n, p)
    for pre_mode in (False, True):
        k = corona_bound(n, p, pre_mode)
        for trial in range(40):
            lists = random_list_assignment(g, k, 3 * k, trial)
            if pre_mode:
                rng = random.Random(trial)
                a = rng.choice(sorted(lists[down]))
                b = rng.choice(sorted(lists[up] - {a}))
                rep = construct(corona(n, p), lists, {down: a, up: b})
                assert_valid_report(g, lists, rep, expect={down: a, up: b})
            else:
                rep = construct(corona(n, p), lists)
                assert_valid_report(g, lists, rep)


def test_primary_path_avoids_solver_fallback():
    g, down, up = pendant_edge_ids(5, 3)
    for trial in range(50):
        lists = random_list_assignment(g, 7, 21, trial)
        rep = construct(corona(5, 3), lists)
        assert not any("fallback" in s.tag for s in rep.trace)


def test_pendant_squeeze_at_the_exact_bound():
    """A crafted pre-coloured instance with lists of exactly p+3 colours,
    where painting the pendants of v0 one by one in order dies at the
    second-to-last of them (all seven of its colours are forbidden)."""
    n, p = 4, 4
    g, _ = gen_corona(n, p)
    m = 2 * len(g.edges)

    def pend(i, j):
        return corona_pendant(i, j, n, p)

    def iid(x, y):
        return incidence_id(g, x, y)

    lists = {t: frozenset(range(200 + 10 * t, 207 + 10 * t)) for t in range(m)}
    for i in range(n):
        for j in range(1, p + 1):
            lists[iid(pend(i, j), i)] = frozenset(range(1, 8))
    lists[iid(0, pend(0, 1))] = frozenset({1, 20, 21, 22, 23, 24, 25})
    lists[iid(pend(0, 1), 0)] = frozenset({2, 20, 21, 22, 23, 24, 25})
    lists[iid(0, pend(0, 4))] = frozenset({2, 5, 6, 8, 9, 10, 11})
    lists[iid(1, 0)] = frozenset({3, 30, 31, 32, 33, 34, 35})
    lists[iid(3, 0)] = frozenset({4, 40, 41, 42, 43, 44, 45})
    lists[iid(0, 1)] = frozenset({5, 1, 2, 3, 4, 50, 51})
    lists[iid(2, 1)] = frozenset({5, 3, 52, 53, 54, 55, 56})
    lists[iid(3, pend(3, 4))] = frozenset({1, 2, 3, 5, 6, 60, 61})
    lists[iid(0, 3)] = frozenset({6, 1, 2, 3, 4, 5, 62})
    lists[iid(1, 2)] = frozenset({7, 70, 3, 5, 6, 71, 72})
    lists[iid(3, 2)] = frozenset({7, 4, 5, 6, 73, 74, 75})
    lists[iid(2, 3)] = frozenset({8, 4, 5, 7, 80, 81, 82})
    lists[iid(0, pend(0, 2))] = frozenset({1, 2, 3, 4, 5, 8, 9})
    lists[iid(0, pend(0, 3))] = frozenset({1, 2, 3, 4, 5, 6, 8})
    la = ListAssignment([lists[t] for t in range(m)])
    assert la.min_size() == 7 == corona_bound(n, p, pre=True)

    rep = construct(corona(n, p), la, {iid(0, pend(0, 1)): 1, iid(pend(0, 1), 0): 2})
    assert_valid_report(g, la, rep)


def test_stuck_on_adversarial_lists():
    """Below-bound lists that a greedy cycle walk gets stuck on, although
    they are colourable: a singleton list {2} on the pendant internal at v1,
    2 being the colour that walk gives (v1, v1v0) from 9-colour lists.  The
    exact ring transfer colours them."""
    n, p = 3, 1
    g, _ = gen_corona(n, p)
    crafted = list(ListAssignment.uniform(g, 9).lists)
    crafted[incidence_id(g, 1, corona_pendant(1, 1, n, p))] = frozenset({2})
    lists = ListAssignment(crafted)
    assert solve_list_colouring(g, lists).found
    assert_valid_report(g, lists, paint_corona_report(g, n, p, lists, None))


def test_selector_that_runs_dry_raises_stuck_error():
    """Lists two below the bound with no colouring: at each cycle vertex
    the four pendant internals and at least three ring colours need seven
    colours of six.  The unit raises a StuckError tagged ``corona-ring``
    that names an unpainted incidence, with nothing of the unit painted."""
    n, p = 3, 4
    g, _ = gen_corona(n, p)
    lists = random_list_assignment(g, 5, 6, 0)
    painter = Painter(g, lists)
    with pytest.raises(StuckError) as err:
        paint_corona(painter, n, p, None)
    assert err.value.tag == "corona-ring"
    assert painter.colour[err.value.incidence] is None
    assert painter.colour == [None] * len(painter.colour) and painter.trace == []


def _coloured(painter, paint):
    """The report of ``paint(painter)``, or None when it is stuck."""
    try:
        paint(painter)
    except StuckError:
        return None
    return painter.report()


def _short_lists(g, external, rng, low, high, universe):
    """Lists from {1..universe}: ``external(v, w)`` colours at (v, vw) when
    it names a number, else ``low`` to ``high`` colours."""
    out = []
    for v, row in enumerate(g.adj):
        for w in row:
            size = external(v, w) or rng.randint(low, high)
            out.append(frozenset(rng.sample(range(1, universe + 1), size)))
    return ListAssignment(out)


def test_ring_transfer_is_exact_on_small_coronae():
    """The unit is coloured exactly when the exact search finds a
    colouring, on coronae whose externals have d + 1 = p + 3 colours and
    whose other lists are short."""
    runs = unsat = 0
    for n in (3, 4, 5):
        for p in (1, 2, 3):
            g, _ = gen_corona(n, p)
            for seed in range(12):
                rng = random.Random(seed)
                lists = _short_lists(g, lambda v, w: p + 3 if v >= n else 0, rng, 2, p + 3, p + 4)
                rep = _coloured(Painter(g, lists), lambda pa: paint_corona(pa, n, p, None))
                found = solve_list_colouring(g, lists).found
                assert (rep is not None) == found, (n, p, seed)
                if rep is not None:
                    assert_valid_report(g, lists, rep)
                runs += 1
                unsat += not found
    assert (runs, unsat) == (108, 16)


def test_ring_transfer_is_exact_on_a_cactus_unit():
    """A cactus-like unit: the 5-cycle 0..4 with uneven pendant rows, and a
    connector 0-5 to a painted parent edge 5-6.  Its painted incidences get
    singleton lists for the exact search."""
    rows = [[7, 8], [], [9, 10], [11], [12, 13, 14]]
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(0, 5), (5, 6)]
    edges += [(i, w) for i, row in enumerate(rows) for w in row]
    g = Graph(15, edges)
    runs = unsat = 0
    for seed in range(150):
        rng = random.Random(seed)
        external = lambda v, w: g.degree(w) + 1 if w < 5 and v > 4 else 0
        lists = _short_lists(g, external, rng, 4, 6, 6)
        painter = Painter(g, lists)
        painter.fill([incidence_id(g, 5, 6), incidence_id(g, 6, 5), incidence_id(g, 5, 0),
                      incidence_id(g, 0, 5)], "parent")
        fixed = [frozenset({c}) if c is not None else lst
                 for c, lst in zip(painter.colour, lists.lists)]
        pendants = [[5, *rows[0]], *rows[1:]]
        rep = _coloured(painter, lambda pa: paint_cycle_unit(pa, range(5), pendants))
        found = solve_list_colouring(g, ListAssignment(fixed)).found
        assert (rep is not None) == found, seed
        if rep is not None:
            assert_valid_report(g, lists, rep)
        runs += 1
        unsat += not found
    assert (runs, unsat) == (150, 40)


def test_ring_transfer_is_exact_with_paint_away_from_ring_start():
    """The pendant edge at r_2 of the corona (4, 1) painted before the unit,
    away from ``ring[0]``: the unit is coloured exactly when the exact
    search, the painted edge fixed, finds a colouring.  Every list the ring
    transfer reads is a free list, so the painted colours count wherever
    they lie."""
    n, p = 4, 1
    g, _ = gen_corona(n, p)
    rows = [[corona_pendant(i, 1, n, p)] for i in range(n)]
    runs = unsat = 0
    for seed in range(150):
        rng = random.Random(seed)
        lists = _short_lists(g, lambda v, w: p + 3 if v >= n else 0, rng, 2, 4, 5)
        painter = Painter(g, lists)
        painter.fill([incidence_id(g, 2, rows[2][0]), incidence_id(g, rows[2][0], 2)], "pre")
        fixed = [frozenset({c}) if c is not None else lst
                 for c, lst in zip(painter.colour, lists.lists)]
        rep = _coloured(painter, lambda pa: paint_cycle_unit(pa, range(n), rows))
        found = solve_list_colouring(g, ListAssignment(fixed)).found
        assert (rep is not None) == found, seed
        if rep is not None:
            assert_valid_report(g, lists, rep)
        runs += 1
        unsat += not found
    assert runs == 150 and 0 < unsat < runs


def test_coronae_at_delta_plus_one():
    """Lists of Δ + 1 = p + 3 colours, below the bound: every corona the
    transfer leaves stuck has no colouring."""
    stuck = {}
    for p in (1, 2):
        k = p + 3
        stuck[p] = 0
        for n in range(3, 7):
            g, _ = gen_corona(n, p)
            for seed in range(25):
                for universe in (k, k + 1, 3 * k):
                    lists = random_list_assignment(g, k, universe, seed)
                    rep = _coloured(Painter(g, lists), lambda pa: paint_corona(pa, n, p, None))
                    if rep is None:
                        stuck[p] += 1
                        assert not solve_list_colouring(g, lists).found
                    else:
                        assert_valid_report(g, lists, rep)
    assert stuck == {1: 25, 2: 0}


def test_deterministic():
    g, down, up = pendant_edge_ids(4, 2)
    lists = random_list_assignment(g, 6, 18, 13)
    a = min(lists[down])
    pre = {down: a, up: min(lists[up] - {a})}
    r1 = construct(corona(4, 2), lists, pre)
    r2 = construct(corona(4, 2), lists, pre)
    assert r1.colouring == r2.colouring and r1.trace == r2.trace


def test_corona_fallback_matches_golden_digest(golden_digests):
    """``paint_corona`` one colour below the bound (n 3-5, p 1-4, plain and
    pre-coloured, list seeds 0-5), stuck runs included, is in the corpus."""
    assert_golden(golden_digests, ["corona"])
