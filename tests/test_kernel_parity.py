"""The compiled and pure-Python kernels must be interchangeable: same
statuses, same slots, same node counts on the same flattened inputs."""

from __future__ import annotations

import pytest

from incolour import _pykernel
from incolour.families import gen_basic, gen_random_graph
from incolour.graphs import ListAssignment
from incolour.harness import random_list_assignment
from incolour.solver import _flatten

_ckernel = pytest.importorskip("incolour._ckernel")


def _search_both(g, lists, use_mrv, node_budget=None):
    args = (*_flatten(g, lists), use_mrv, node_budget, None)
    return _pykernel.search(*args), _ckernel.search(*args)


@pytest.mark.parametrize("use_mrv", [False, True], ids=["static", "most-constrained-first"])
def test_parity_random_instances(use_mrv):
    for seed in range(120):
        g = gen_random_graph(2 + seed % 7, seed, density=0.45)
        if not g.edges:
            continue
        k = 2 + seed % 4
        lists = random_list_assignment(g, k, 2 * k, seed)
        ref, other = _search_both(g, lists, use_mrv)
        assert other == ref


def test_parity_budget_cutoff():
    g, _ = gen_basic("complete", 5)
    ref, other = _search_both(g, ListAssignment.uniform(g, 4), True, node_budget=17)
    assert ref[0] == other[0] == _pykernel.CUTOFF
    assert other == ref
