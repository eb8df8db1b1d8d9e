"""``construct``, the one spec-driven entry point to the constructive
procedures: its traces are pinned by digest."""

from __future__ import annotations

import hashlib
import json

from incolour.catalogue import default_fuzz_instances
from incolour.constructive import construct, guaranteed_bound
from incolour.families import FamilySpec, generate
from incolour.harness import corona_pre_pair, random_list_assignment

FUZZ_FAMILIES = ("grid", "tree", "cycle", "halin", "corona", "cactus", "ham_cubic")

# recorded before the public per-family wrappers were removed: it pins
# that their removal left every trace unchanged
TRACE_DIGEST = "b56ef5c751759807"


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
