from __future__ import annotations

import sys

import pytest

from incolour import families
from incolour.graphs import Graph, incidence_adjacent, incidences, validate_colouring


def assert_valid_report(g, lists, report, expect=None):
    """Full check of a constructive result: total/proper/list-respecting via
    the independent pairwise validator, plus trace replay."""
    verdict = validate_colouring(g, lists, report.colouring)
    assert verdict.ok, verdict.violation
    assert report.replay(g, lists) == report.colouring
    if expect:
        for i, c in expect.items():
            assert report.colouring[i] == c


def naive_satisfiable(g, lists):
    """Independent oracle: plain backtracking over per-incidence lists,
    with adjacency from the pairwise ``incidence_adjacent``, no
    availability counts and a forward check: a colour stays only while
    every uncoloured neighbour keeps a colour of its list that no coloured
    neighbour of it holds.  The next incidence is the uncoloured one with
    the most coloured neighbours (lowest id on ties); its colours are tried
    in ascending order."""
    incs = incidences(g)
    m = len(incs)
    nbrs = [[j for j in range(m) if j != i and incidence_adjacent(incs[i], incs[j])]
            for i in range(m)]
    colour = [None] * m

    def open_colour(w):
        return any(c not in {colour[u] for u in nbrs[w]} for c in lists[w])

    def rec(left):
        if not left:
            return True
        i = max((v for v in range(m) if colour[v] is None),
                key=lambda v: sum(colour[w] is not None for w in nbrs[v]))
        taken = {colour[w] for w in nbrs[i]}
        for c in sorted(lists[i]):
            if c not in taken:
                colour[i] = c
                if all(open_colour(w) for w in nbrs[i] if colour[w] is None) and rec(left - 1):
                    return True
        colour[i] = None
        return False

    return rec(m)


def hypercube(d):
    """The d-dimensional cube Q_d: vertices 0..2^d-1, adjacent when their
    ids differ in one bit."""
    return Graph(1 << d, [(v, v | 1 << b) for v in range(1 << d) for b in range(d)
                          if not v >> b & 1])


@pytest.fixture
def k2():
    return Graph(2, [(0, 1)])


_BUILDERS = ("gen_basic", "gen_grid", "gen_random_tree", "gen_halin", "gen_corona",
             "gen_ham_cubic", "gen_cycle_power", "gen_cactus")


@pytest.fixture
def builder_calls(monkeypatch):
    """The names of the family builders (``gen_*``) called during the test,
    in call order, wherever the package imported them."""
    calls = []
    for name in _BUILDERS:
        real = getattr(families, name)

        def counting(*args, _real=real, **kwargs):
            calls.append(_real.__name__)
            return _real(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("incolour") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    return calls
