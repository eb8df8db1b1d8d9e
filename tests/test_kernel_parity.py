"""The compiled and pure-Python kernels must be interchangeable: same
statuses, same slots, same node counts on the same flattened inputs, with
the uniform-domain flag on and off.  The whole module skips when the
extension is not built; ``tests/test_uniform_search.py`` checks, without
it, that the two ``search`` signatures agree."""

from __future__ import annotations

import pytest

from incolour import _pykernel
from incolour.families import gen_basic, gen_random_graph
from incolour.graphs import ListAssignment
from incolour.harness import random_list_assignment
from incolour.solver import _flatten

_ckernel = pytest.importorskip("incolour._ckernel")


def _search_both(flat, uniform, use_mrv, node_budget=None):
    args = (*flat[:5], uniform, use_mrv, node_budget, None)
    return _pykernel.search(*args), _ckernel.search(*args)


@pytest.mark.parametrize("use_mrv", [False, True], ids=["static", "most-constrained-first"])
def test_parity_random_instances(use_mrv):
    for seed in range(120):
        g = gen_random_graph(2 + seed % 7, seed, density=0.45)
        if not g.edges:
            continue
        k = 2 + seed % 4
        flat = _flatten(g, random_list_assignment(g, k, 2 * k, seed))
        ref, other = _search_both(flat, flat[5], use_mrv)
        assert other == ref


@pytest.mark.parametrize("use_mrv", [False, True], ids=["static", "most-constrained-first"])
@pytest.mark.parametrize("uniform", [False, True], ids=["flag-off", "flag-on"])
def test_parity_uniform_lists(uniform, use_mrv):
    for seed in range(60):
        g = gen_random_graph(2 + seed % 6, seed, density=0.45)
        if not g.edges:
            continue
        flat = _flatten(g, ListAssignment.uniform(g, g.max_degree + seed % 3))
        ref, other = _search_both(flat, uniform, use_mrv, node_budget=5000)
        assert other == ref


# the flag-on search exhausts K5 at p=4 in 4 nodes, so its budget is smaller
@pytest.mark.parametrize("uniform, budget", [(False, 17), (True, 3)], ids=["flag-off", "flag-on"])
def test_parity_budget_cutoff(uniform, budget):
    g, _ = gen_basic("complete", 5)
    flat = _flatten(g, ListAssignment.uniform(g, 4))
    ref, other = _search_both(flat, uniform, True, node_budget=budget)
    assert ref[0] == other[0] == _pykernel.CUTOFF
    assert other == ref

