"""The two kernels: ``kernel.c``, which searches run on wherever it builds,
and the pure-Python reference it was ported from.  They must agree node
for node: the same status, the same colouring and the same node count on
every input, budgets and deadlines included.  The C kernel must build on
the hosts that run these tests; where no compiler runs, every search falls
back to the Python kernel."""

from __future__ import annotations

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hypercube
from incolour import _ckernel, kernel
from incolour.families import gen_basic, gen_grid, gen_random_graph
from incolour.graphs import ListAssignment, incidence_neighbour_ids
from incolour.harness import random_list_assignment
from incolour.solver import COLOURED, SolverConfig, solve_list_colouring


@pytest.fixture(scope="module")
def c_search():
    c_search = kernel._compiled()
    assert c_search, "kernel.c did not build or load"
    return c_search


def both(c_search, domains, nbrs, uniform, node_budget=None, deadline=None):
    """The C kernel's result, checked equal to the Python kernel's."""
    out = c_search(domains, nbrs, uniform, node_budget, deadline)
    assert out == kernel._search_python(domains, nbrs, uniform, node_budget, deadline)
    return out


def test_searches_run_on_the_c_kernel(c_search):
    assert kernel.backend_name() == "c"
    g = hypercube(3)
    res = solve_list_colouring(g, ListAssignment.uniform(g, 5))
    assert res.status == COLOURED and kernel.backend_name() == "c"


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(4, 9), mode=st.sampled_from(
    ["uniform", "uniform-copies", "uniform-unflagged", "mixed", "wide"]),
    budget=st.one_of(st.none(), st.integers(0, 80)))
def test_kernels_agree(c_search, seed, n, mode, budget):
    g = gen_random_graph(n, seed, density=0.35 + (seed % 5) * 0.1)
    nbrs = incidence_neighbour_ids(g)
    rng = random.Random(seed)
    d = g.max_degree
    if mode.startswith("uniform"):
        domains = [list(range(1, d + 1 + seed % 3))] * len(nbrs)
    else:
        # "wide" lists leave most colours of a list outside its neighbours'
        universe = d + 3 if mode == "mixed" else 4 * d + 8
        domains = [sorted(rng.sample(range(1, universe + 1), rng.randint(1, d + 1)))
                   for _ in nbrs]
    out = both(c_search, domains, nbrs, mode in ("uniform", "uniform-copies"), budget)
    if mode == "uniform-copies":
        # equal but distinct lists, flagged: as the one shared list
        assert both(c_search, [list(dom) for dom in domains], nbrs, True, budget) == out


def test_kernels_agree_on_long_searches(c_search):
    """Searches of thousands of nodes, each way through a pause of the C
    kernel at every 1,024th node: exhausted, found, and cut off between
    pauses and at one; and on the 12x12 grid (528 incidences) with lists
    that are not uniform, so that many slots are -1, found after
    backtracking and cut off."""
    q4 = incidence_neighbour_ids(hypercube(4))
    p5 = [[1, 2, 3, 4, 5]] * len(q4)
    assert both(c_search, p5, q4, False) == (kernel.EXHAUSTED, None, 26_125)
    assert both(c_search, p5, q4, False, node_budget=5_000)[::2] == (kernel.CUTOFF, 5_001)
    assert both(c_search, p5, q4, False, node_budget=2_047)[::2] == (kernel.CUTOFF, 2_048)
    nbrs = incidence_neighbour_ids(gen_grid(8, 8)[0])
    status, colours, nodes = both(c_search, [[1, 2, 3, 4, 5]] * len(nbrs), nbrs, True)
    assert (status, nodes) == (kernel.FOUND, 1_402)
    g, _ = gen_grid(12, 12)
    nbrs = incidence_neighbour_ids(g)
    domains = [sorted(l) for l in random_list_assignment(g, 4, 8, 2).lists]
    assert both(c_search, domains, nbrs, False)[::2] == (kernel.FOUND, 2_772)
    domains = [sorted(l) for l in random_list_assignment(g, 5, 6, 0).lists]
    assert both(c_search, domains, nbrs, False, node_budget=5_000) == (kernel.CUTOFF, None, 5_001)


def test_the_python_kernels_memory_follows_list_size_times_degree():
    """The 20x20 grid (1,520 incidences) with 3-lists from 10,000 colours,
    3,692 of them in use: a count per distinct colour and incidence peaks
    at 43.5 MiB, a count and its slots per list position at 1.7 MiB."""
    g, _ = gen_grid(20, 20)
    nbrs = incidence_neighbour_ids(g)
    rng = random.Random(0)
    domains = [sorted(rng.sample(range(1, 10_001), 3)) for _ in nbrs]
    tracemalloc.start()
    try:
        status, colours, nodes = kernel._search_python(domains, nbrs, False, None, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (status, nodes) == (kernel.FOUND, 1_520)
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_kernels_meet_a_passed_deadline_at_the_same_node(c_search):
    """``time_budget=0``: the deadline has passed at the first check, at
    node 1,024, and a search that ends sooner is not cut off."""
    q4 = incidence_neighbour_ids(hypercube(4))
    p5 = [[1, 2, 3, 4, 5]] * len(q4)
    assert both(c_search, p5, q4, False, deadline=time.monotonic()) == (kernel.CUTOFF, None, 1_024)
    assert both(c_search, p5, q4, True, deadline=time.monotonic()) == (kernel.EXHAUSTED, None, 220)
    c5, _ = gen_basic("cycle", 5)
    res = solve_list_colouring(c5, ListAssignment.uniform(c5, 4), SolverConfig(time_budget=0))
    assert res.status == COLOURED


def test_kernels_read_the_clock_at_the_same_nodes(c_search, monkeypatch):
    """One clock reading per 1,024 nodes, in both kernels."""
    readings = []

    class Clock:
        @staticmethod
        def monotonic():
            readings.append(1)
            return 0.0

    monkeypatch.setattr(_ckernel, "time", Clock)
    monkeypatch.setattr(kernel, "time", Clock)
    q4 = incidence_neighbour_ids(hypercube(4))
    p5 = [[1, 2, 3, 4, 5]] * len(q4)
    c_search(p5, q4, False, None, 1.0)
    assert len(readings) == 26_125 // 1_024
    readings.clear()
    kernel._search_python(p5, q4, False, None, 1.0)
    assert len(readings) == 26_125 // 1_024


def test_an_interrupt_stops_the_c_kernel_at_its_next_pause(c_search, monkeypatch):
    """Ctrl-C raises in Python between two runs of the C kernel; the
    search is torn down, and the next one runs as usual."""
    class Interrupted:
        @staticmethod
        def monotonic():
            raise KeyboardInterrupt

    monkeypatch.setattr(_ckernel, "time", Interrupted)
    q4 = incidence_neighbour_ids(hypercube(4))
    p5 = [[1, 2, 3, 4, 5]] * len(q4)
    with pytest.raises(KeyboardInterrupt):
        c_search(p5, q4, False, None, 1.0)
    monkeypatch.undo()
    assert both(c_search, p5, q4, True) == (kernel.EXHAUSTED, None, 220)


@pytest.mark.parametrize("base", [2**63 - 3, 2**63, 2**70], ids=["below-2**63", "2**63", "2**70"])
def test_colours_beyond_64_bits(c_search, base):
    c6, _ = gen_basic("cycle", 6)
    rng = random.Random(base)
    for lists in (ListAssignment.uniform(c6, 3),
                  ListAssignment([rng.sample(range(4), 2) for _ in range(12)]),
                  ListAssignment([rng.sample(range(5), 3) for _ in range(12)])):
        domains = [sorted(base + c for c in l) for l in lists.lists]
        nbrs = incidence_neighbour_ids(c6)
        small = [sorted(l) for l in lists.lists]
        status, colours, nodes = both(c_search, domains, nbrs, False)
        assert (status, nodes) == both(c_search, small, nbrs, False)[::2]
        if colours is not None:
            assert {c >= base for c in colours} == {True}
    # and through the solver, which re-validates the colouring
    huge = ListAssignment([[2**70 + c for c in l] for l in ListAssignment.uniform(c6, 3).lists])
    assert solve_list_colouring(c6, huge).status == COLOURED


def test_a_missing_compiler_falls_back_to_the_python_kernel(monkeypatch, tmp_path):
    monkeypatch.setattr(kernel, "_c_search", None)
    monkeypatch.setattr(_ckernel, "_CC", ("incolour-test-no-such-compiler",))
    monkeypatch.setattr(_ckernel, "_cache_dir", lambda: tmp_path)
    q4 = incidence_neighbour_ids(hypercube(4))
    p5 = [[1, 2, 3, 4, 5]] * len(q4)
    for uniform, budget in ((False, None), (True, None), (False, 3_000)):
        assert kernel.search(p5, q4, uniform, budget, None) == \
            kernel._search_python(p5, q4, uniform, budget, None)
    assert kernel.backend_name() == "python"
    assert list(tmp_path.iterdir()) == []


def test_the_first_search_builds_into_the_cache(monkeypatch, tmp_path):
    """A fresh cache gets the library under its final name and nothing
    else; a cache that cannot be made builds in a private directory."""
    monkeypatch.setattr(kernel, "_c_search", None)
    monkeypatch.setattr(_ckernel, "_cache_dir", lambda: tmp_path / "cache")
    c4, _ = gen_basic("cycle", 4)
    res = solve_list_colouring(c4, ListAssignment.uniform(c4, 3))
    assert (res.status, kernel.backend_name()) == ("unsatisfiable", "c")
    built = [p.name for p in (tmp_path / "cache").iterdir()]
    assert len(built) == 1 and built[0].startswith("kernel-") and built[0].endswith(".so")

    monkeypatch.setattr(kernel, "_c_search", None)
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(_ckernel, "_cache_dir", lambda: tmp_path / "file" / "cache")
    assert kernel.backend_name() is None
    assert solve_list_colouring(c4, ListAssignment.uniform(c4, 3)).status == "unsatisfiable"
    assert kernel.backend_name() == "c"


@pytest.mark.parametrize("nbrs", [[[1], [2]], [[1], [-1]], [[1]]], ids=["past-nv", "negative", "short"])
def test_the_c_kernel_refuses_neighbour_ids_it_cannot_index(c_search, nbrs):
    """And so does the Python kernel, where -1 would name the last
    variable."""
    for search in (c_search, kernel._search_python):
        with pytest.raises(ValueError, match="neighbour ids"):
            search([[1, 2], [1, 2]], nbrs, False, None, None)
