"""The golden corpus: labelled runs of every constructive procedure, pinned
by one pair of digests per family.

A label names one run: the spec, the list size k, the universe and seed of
``random_list_assignment``, and the pre-colouring.  A run below the
family's list size goes to its painting rule directly, with no size check,
and a stuck one hashes the one line ``stuck``.  Each run is keyed by the
rule that paints it: paths and stars are trees, and wheels, K4 and the
Hamiltonian cubic graph of order 4 are Halin graphs.

``GOLDEN`` maps each family to two digests over its runs: the labels with
the trace in order, and the labels with each run's steps sorted, which
holds when only the order of a trace moves.  A failure prints the entries
that moved, with their new values; to re-pin a family, copy its line.
The corpus is built once per session by the ``corpus`` fixture of
``conftest.py``; ``test_golden.py`` checks the whole table and the test
modules of the families check the entries their runs fall in.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import FUZZ_FAMILIES, pre_colouring
from incolour.catalogue import (
    cactus_row_specs,
    default_fuzz_instances,
    grid_specs,
    halin_specs,
    ham_cubic_named,
    random_cactus_specs,
    random_halin_spec,
    random_ham_cubic_specs,
)
from incolour.constructive import Painter, StuckError, _procedure, construct, guaranteed_bound
from incolour.families import FamilySpec, generate
from incolour.harness import pre_pair, random_list_assignment

GOLDEN = {
    "cactus": ("ea4d4233129feed4", "0975642288d0756f"),
    "corona": ("5aa620e43c9e9666", "6aa026fce5aad19a"),
    "cycle": ("61b1a8f4cb683994", "3fb38ff303d0a332"),
    "grid": ("776dce6d61df4150", "f8b59f869a86a345"),
    "halin": ("416ea2273e1db1b7", "d7c1c99995818eba"),
    "ham_cubic": ("5849183cf5b3c4ca", "acf6834fb0a3aa3e"),
    "tree": ("faaab81704a65f3b", "3d9ac06dbfcf345c"),
}


def _family(spec):
    if spec.family in ("path", "star"):
        return "tree"
    if spec.family in ("wheel", "complete") or spec.family == "ham_cubic" and spec.params["n"] == 4:
        return "halin"
    return spec.family


def _built(specs):
    """The specs as ``generate`` returns them, each carrying its graph."""
    return [generate(spec)[1] for spec in specs]


def _recipes():
    """Every run as (spec, k, universe, seed, pre), in hashing order; a
    ``pre`` that is not a dict is called as ``pre(g, spec, lists, seed)``,
    like ``harness.pre_pair``, on the run's lists."""
    # the first two fuzz instances of every family, wheel 6 and K4, at 3k
    specs = [s for f in FUZZ_FAMILIES for s in default_fuzz_instances(f)[:2]]
    for spec in _built(specs + [FamilySpec("wheel", {"n": 6}), FamilySpec("complete", {"n": 4})]):
        for pre in (False, True) if spec.family == "corona" else (False,):
            k = guaranteed_bound(spec, pre)
            for seed in range(3):
                yield spec, k, 3 * k, seed, pre_pair if pre else {}
    # trees with up to five pre-colours in repeating colour classes, at
    # their list size, then P7 with three pre-colours in one class
    rng = random.Random(0)
    classes = lambda g, spec, lists, seed: pre_colouring(g, lists, seed % 6, rng)
    for run in range(300):
        g, spec = generate(FamilySpec("tree", {"n": 1 + run % 14, "seed": run}))
        size = g.max_degree + max(run % 6 if g.edges else 0, 1)
        yield spec, size, size + 2, run, classes
    yield FamilySpec("path", {"n": 7}), 5, 5, 0, {2: 1, 7: 1, 11: 1}
    # Halin graphs: the named ones and small random ones at 3k and k + 2,
    # and large random ones whose leaf orders do not increase
    for spec in _built(halin_specs() + [random_halin_spec(n, seed) for n in range(2, 9)
                                        for seed in range(20)]):
        k = guaranteed_bound(spec)
        yield spec, k, 3 * k, 0, {}
        yield spec, k, k + 2, 1, {}
    for seed, spec in enumerate(_built(random_halin_spec(150, s) for s in range(1, 6)), 1):
        k = guaranteed_bound(spec)
        yield spec, k, 3 * k, seed, {}
    # cactuses: the census rows and 40 random ones at k + 1 and 3k
    for spec in _built(cactus_row_specs() + random_cactus_specs(count=40, seed=0)):
        k = guaranteed_bound(spec)
        for seed in range(3):
            for universe in (k + 1, 3 * k):
                yield spec, k, universe, seed, {}
    # coronae one colour below their list size, plain and pre-coloured
    for spec in _built(FamilySpec("corona", {"n": n, "p": p})
                       for n in (3, 4, 5) for p in (1, 2, 3, 4)):
        for pre in (False, True):
            k = guaranteed_bound(spec, pre) - 1
            for seed in range(6):
                yield spec, k, k + 2, seed, pre_pair if pre else {}
    # grids, cycles and Hamiltonian cubic graphs at universes k, k + 1 and 3k
    specs = grid_specs()[::2] + [FamilySpec("cycle", {"n": n}) for n in range(3, 13)]
    for spec in _built(specs + ham_cubic_named()[1:] + random_ham_cubic_specs(count=10)):
        k = guaranteed_bound(spec)
        for universe in (k, k + 1, 3 * k):
            yield spec, k, universe, 3, {}
    # one large instance per family
    for spec in _built([FamilySpec("grid", {"m": 30, "n": 30}),
                        FamilySpec("tree", {"n": 400, "seed": 0}),
                        FamilySpec("cycle", {"n": 301}),
                        FamilySpec("corona", {"n": 60, "p": 3}),
                        FamilySpec("cactus", {"size": 600, "seed": 1}),
                        FamilySpec("ham_cubic", {"n": 200, "seed": 0})]):
        k = guaranteed_bound(spec)
        yield spec, k, k + 1, 0, {}


def paint_run(g, spec, k, lists, pre):
    """The report of one run, None when it is stuck."""
    size, _, rule = _procedure(g, spec, len(pre))
    if k >= size:
        return construct(spec, lists, pre)
    painter = Painter(g, lists)
    try:
        rule(painter, pre)
    except StuckError:
        return None
    return painter.report()


def build_corpus():
    """Every run once, as (family, label, spec, graph, k, lists, pre, report)."""
    runs, named = {}, (None, "")
    for spec, k, universe, seed, pre in _recipes():
        g, spec = generate(spec)
        if named[0] is not spec:    # a spec's runs come one after another
            named = spec, json.dumps(spec.to_json(), sort_keys=True)
        lists = random_list_assignment(g, k, universe, seed)
        if not isinstance(pre, dict):
            pre = pre(g, spec, lists, seed)
        label = f"{named[1]} k={k} universe={universe} seed={seed} pre={sorted(pre.items())}"
        if label not in runs:
            runs[label] = (_family(spec), label, spec, g, k, lists, pre,
                           paint_run(g, spec, k, lists, pre))
    return list(runs.values())


def family_digests(corpus):
    """Each family's two digests over the corpus, as in ``GOLDEN``."""
    ordered, by_step = {}, {}
    for family, label, *_, report in corpus:
        steps = ([f"{s.incidence},{s.colour},{s.tag}\n" for s in report.trace]
                 if report else ["stuck\n"])
        ordered.setdefault(family, hashlib.sha256()).update(f"{label}\n{''.join(steps)}".encode())
        by_step.setdefault(family, hashlib.sha256()).update(
            f"{label}\n{''.join(sorted(steps))}".encode())
    return {f: (ordered[f].hexdigest()[:16], by_step[f].hexdigest()[:16]) for f in ordered}


def assert_golden(digests, families=None):
    """Fail unless the digests of ``families`` (every family of the corpus
    and of ``GOLDEN`` by default) equal their ``GOLDEN`` entries; the
    message lists only the entries that moved."""
    families = digests.keys() | GOLDEN.keys() if families is None else families
    moved = {f: digests.get(f) for f in sorted(families) if digests.get(f) != GOLDEN.get(f)}
    if moved:
        pytest.fail("the golden digests of these families moved:\n" + "".join(
            f'    "{f}": ("{d[0]}", "{d[1]}"),\n' if d else f'    "{f}": no runs\n'
            for f, d in moved.items()), pytrace=False)
