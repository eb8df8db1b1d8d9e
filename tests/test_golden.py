"""The golden corpus of ``golden.py``: the whole ``GOLDEN`` table, and the
checks every corpus run must pass whatever its colours."""

from __future__ import annotations

from conftest import assert_valid_report
from golden import assert_golden, paint_run
from incolour.constructive import TraceStep
from incolour.graphs import ListAssignment


def test_corpus_matches_the_golden_digests(golden_digests):
    assert_golden(golden_digests)


def test_corpus_runs_are_valid(corpus):
    """Every run that is not stuck is valid and keeps its pre-colours; only
    coronae below their list size are stuck (14 runs, 6 pre-coloured).  A
    Halin spec is painted by its inner tree and then its rim, and at least
    five Halin runs have leaf orders that do not increase, so the digests
    pin a rim painted in leaf order.  Some tree runs have two or more
    pre-colours outside the anchor's colour class."""
    stuck = stuck_pre = unsorted = nested = 0
    for family, _, spec, g, _, lists, pre, report in corpus:
        if report is None:
            assert family == "corona"
            stuck += 1
            stuck_pre += bool(pre)
            continue
        assert_valid_report(g, lists, report, expect=pre)
        if spec.family == "halin":
            assert {s.tag for s in report.trace} == {"halin-tree", "halin-outer-cycle"}
            leaves = list(spec.params["leaf_order"])
            unsorted += leaves != sorted(leaves)
        colours = [c for _, c in sorted(pre.items())]
        nested += family == "tree" and len([c for c in colours if c != colours[-1]]) >= 2
    assert (stuck, stuck_pre) == (14, 6)
    assert unsorted >= 5 and nested > 0


def test_traces_do_not_depend_on_colour_values(corpus):
    """Every run again with each colour c of its lists and pre-colours
    renamed c * 10^15 + 3, which keeps their order: the trace is the
    original one renamed the same way, and a stuck run stays stuck.  So no
    procedure computes with colours, only compares and orders them, and
    the painter may keep them in sets whatever their size."""
    def big(c):
        return c * 10**15 + 3

    for _, label, spec, g, k, lists, pre, report in corpus:
        renamed = ListAssignment([{big(c) for c in colours} for colours in lists.lists])
        again = paint_run(g, spec, k, renamed, {i: big(c) for i, c in pre.items()})
        if report is None:
            assert again is None, label
        else:
            assert again.trace == tuple(TraceStep(s.incidence, big(s.colour), s.tag)
                                        for s in report.trace), label
