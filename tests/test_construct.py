"""``construct``, the one spec-driven entry point to the constructive
procedures: its traces are pinned by digest."""

from __future__ import annotations

import hashlib
import json

import pytest

from incolour.catalogue import default_fuzz_instances
from incolour.constructive import construct, guaranteed_bound
from incolour.families import FamilySpec, generate
from incolour.graphs import InputError, ListAssignment
from incolour.harness import corona_pre_pair, random_list_assignment

FUZZ_FAMILIES = ("grid", "tree", "cycle", "halin", "corona", "cactus", "ham_cubic")

# recorded when the exact search began breaking MRV ties by the DSatur
# rule, which moves only the steps the search colours (`cycle-solver`,
# `halin-outer-cycle`); the removal of the public per-family wrappers
# before that left every trace unchanged
TRACE_DIGEST = "0e3a9a8307065b6b"


def _golden_runs():
    specs = [s for f in FUZZ_FAMILIES for s in default_fuzz_instances(f)[:2]]
    specs += [FamilySpec("wheel", {"n": 6}), FamilySpec("complete", {"n": 4})]
    for spec in specs:
        g, spec = generate(spec)
        for pre in ((False, True) if spec.family == "corona" else (False,)):
            k = guaranteed_bound(spec, pre=pre)
            for seed in range(3):
                lists = random_list_assignment(g, k, 3 * k, seed)
                pairs = corona_pre_pair(g, spec, lists, seed) if pre else None
                yield spec, pre, seed, construct(spec, lists, pre=pairs)


def test_construct_traces_match_golden_digest():
    h = hashlib.sha256()
    runs = 0
    for spec, pre, seed, report in _golden_runs():
        h.update(f"{json.dumps(spec.to_json(), sort_keys=True)}|pre={pre}|seed={seed}\n".encode())
        for step in report.trace:
            h.update(f"{step.incidence},{step.colour},{step.tag}\n".encode())
        runs += 1
    assert runs == 54
    assert h.hexdigest()[:16] == TRACE_DIGEST


# one spec for every family that construct accepts
EVERY_FAMILY = [next(s for s in default_fuzz_instances(f) if s.family == f)
                for f in FUZZ_FAMILIES] + [
    FamilySpec("path", {"n": 4}),
    FamilySpec("star", {"n": 3}),
    FamilySpec("wheel", {"n": 5}),
    FamilySpec("complete", {"n": 4}),
]


@pytest.mark.parametrize("spec", EVERY_FAMILY, ids=lambda s: s.family)
@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_construct_rejects_lists_that_do_not_cover_the_graph(spec, extra):
    g, _ = generate(spec)
    lists = ListAssignment([range(1, 20)] * (2 * len(g.edges) + extra))
    with pytest.raises(InputError, match="does not cover the incidences"):
        construct(spec, lists)
