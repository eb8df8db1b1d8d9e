"""The four workloads: inputs from a seed, one pass over the library, and
the checks on that pass's outputs.

Importing this module imports the library, so the import belongs to the
measured set-up time.  ``catalogue`` only builds inputs and runs in set-up.

Each workload has

* ``setup(seed, tiny)``: the inputs, a list of items built from the seed
  alone;
* ``step(item)``: one unit of work on one item, calling only the library;
  a pass steps through every item, and each step is timed on its own;
* ``judge(items, outs)``: a :class:`Judgement` of one pass's outputs, made
  outside the timed region.

:class:`Capture` checks the colourings a check pass sees returned inside
the library (see :class:`tracer.Tracer`).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

import incolour.constructive as constructive
from incolour import catalogue, families, graphs, harness, jsonio, solver

import oracle


@dataclass
class Judgement:
    ops: int                 # fixed work count: trials, incidences, chi rows, assignments
    failed: int = 0          # ops whose result was wrong, invalid or raised
    undecided: int = 0       # ops that ended ``unknown``
    digest: str = ""         # hash of the outputs, equal across passes
    errors: list = field(default_factory=list)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Capture:
    """Re-checks, with the oracle, each colouring a check pass sees the
    library return, and hashes the lists and colourings it saw."""

    def __init__(self):
        self.checked = 0
        self._hash = hashlib.sha256()

    def __call__(self, label, args, kwargs, result) -> list[str]:
        if label == "constructive.construct":
            g, _ = families.generate(args[0])
            pre = kwargs.get("pre") or (args[2] if len(args) > 2 else None)
            colouring = result.colouring
        elif label == "solver.solve_list_colouring" and result.found:
            g, pre, colouring = args[0], None, result.colouring
        else:
            return []
        lists = args[1].lists
        self.checked += 1
        self._hash.update(repr(([sorted(l) for l in lists], sorted(colouring.items()))).encode())
        errors = oracle.colouring_errors(g.n, g.edges, lists, colouring.assignment, pre)
        return [f"{label}: {e}" for e in errors]

    def digest(self) -> str:
        return self._hash.hexdigest()[:16]


# ------------------------------------------------------------ fuzz_sweep ---

FUZZ_FAMILIES = ("grid", "tree", "cycle", "halin", "corona", "cactus", "ham_cubic")


class FuzzSweep:
    """Every family's default fuzz instances at the guaranteed bound, corona
    also with its pendant edge pre-coloured; ``workers=1``."""

    @staticmethod
    def setup(seed: int, tiny: bool):
        campaigns = []
        for family in FUZZ_FAMILIES:
            instances = tuple(catalogue.default_fuzz_instances(family))
            if tiny:
                instances = instances[:2]
            for pre in (False, True) if family == "corona" else (False,):
                campaigns.append(harness.FuzzCampaign(
                    instances=instances, trials=2 if tiny else 20,
                    master_seed=seed, pre=pre, workers=1))
        return campaigns

    @staticmethod
    def step(campaign):
        return harness.run_campaign(campaign)

    @staticmethod
    def judge(campaigns, reports) -> Judgement:
        expected = sum(len(c.instances) * c.trials for c in campaigns)
        ops = sum(r.total_trials for r in reports)
        j = Judgement(ops=ops, failed=sum(r.total_failures for r in reports))
        if ops != expected:
            j.errors.append(f"{ops} trials run, {expected} expected")
        for r in reports:
            for inst in r.to_json()["instances"]:
                for bundle in inst["failures"][:2]:
                    j.errors.append(f"fuzz failure: {json.dumps(bundle, sort_keys=True)}")
        j.digest = digest([[{k: v for k, v in inst.items() if k != "seconds"}
                            for inst in r.to_json()["instances"]] for r in reports])
        return j


# ------------------------------------------------------- construct_large ---

class ConstructLarge:
    """One large instance per constructive family along the CLI
    ``construct`` path: spec_from_json -> generate -> lists_from_json ->
    construct -> validate_colouring -> colouring_to_json."""

    @staticmethod
    def specs(seed: int, tiny: bool) -> list:
        if tiny:
            return [
                families.FamilySpec("grid", {"m": 6, "n": 5}),
                families.FamilySpec("corona", {"n": 6, "p": 3}),
                catalogue.random_halin_spec(6, seed),
                families.FamilySpec("cactus", {"size": 20, "seed": seed}),
                families.FamilySpec("ham_cubic", {"n": 12, "seed": seed}),
                families.FamilySpec("tree", {"n": 30, "seed": seed}),
            ]
        return [
            families.FamilySpec("grid", {"m": 40, "n": 40}),
            families.FamilySpec("corona", {"n": 150, "p": 5}),
            catalogue.random_halin_spec(150, seed),
            families.FamilySpec("cactus", {"size": 600, "seed": seed}),
            families.FamilySpec("ham_cubic", {"n": 1000, "seed": seed}),
            families.FamilySpec("tree", {"n": 2000, "seed": seed}),
        ]

    @classmethod
    def setup(cls, seed: int, tiny: bool):
        """Spec and list files as ``incolour generate`` would write them:
        lists of the guaranteed size drawn from a universe of 3k."""
        rng = random.Random(seed)
        cases = []
        for spec in cls.specs(seed, tiny):
            g, spec = families.generate(spec)
            k = constructive.guaranteed_bound(spec)
            echo = oracle.incidence_echo(g.n, g.edges)
            lists = [sorted(rng.sample(range(1, 3 * k + 1), k)) for _ in echo]
            cases.append({
                "spec": spec.to_json(),
                "lists": {"lists": {str(i): l for i, l in enumerate(lists)},
                          "incidences": echo},
                "n": g.n,
                "edges": [list(e) for e in g.edges],
            })
        return cases

    @staticmethod
    def step(case):
        spec = jsonio.spec_from_json(case["spec"])
        g, spec = families.generate(spec)
        lists = jsonio.lists_from_json(g, case["lists"])
        try:
            report = constructive.construct(spec, lists)
        except graphs.IncolourError as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
        verdict = graphs.validate_colouring(g, lists, report.colouring)
        return {"ok": verdict.ok, "violation": verdict.violation,
                "colouring": jsonio.colouring_to_json(g, report.colouring)}

    @staticmethod
    def judge(cases, out) -> Judgement:
        j = Judgement(ops=sum(len(c["lists"]["incidences"]) for c in cases))
        for case, res in zip(cases, out):
            name = case["spec"]["family"]
            m = len(case["lists"]["incidences"])
            if "error" in res:
                errors = [res["error"]]
            elif not res["ok"]:
                errors = [f"library validator: {res['violation']}"]
            else:
                data = res["colouring"]
                lists = [frozenset(case["lists"]["lists"][str(i)]) for i in range(m)]
                colour = {int(i): c for i, c in data["assignment"].items()}
                errors = oracle.colouring_errors(case["n"], case["edges"], lists, colour)
                if data["incidences"] != case["lists"]["incidences"]:
                    errors.append("incidence echo differs from the edge list's enumeration")
            if errors:
                j.failed += m
                j.errors.extend(f"{name}: {e}" for e in errors)
        j.digest = digest(out)
        return j


# ------------------------------------------------------------- chi_suite ---

GRID_BUDGET = 100_000    # ends p=5 on the 8x8 grid as `unknown`, ~1 s here


def hypercube(d: int) -> graphs.Graph:
    n = 1 << d
    return graphs.Graph(n, [(i, i ^ (1 << b)) for i in range(n) for b in range(d)
                            if i < i ^ (1 << b)])


def petersen() -> graphs.Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graphs.Graph(10, outer + inner + [(i, i + 5) for i in range(5)])


class ChiSuite:
    """Exact incidence chromatic numbers, pinned, plus one budgeted row.

    The graphs are fixed; the seed does not enter this workload.
    ``expected`` is a value, or ``(lo, hi)`` for the budgeted row: an
    ``unknown`` with lower bound >= lo, or a value in [lo, hi].
    """

    @staticmethod
    def setup(seed: int, tiny: bool):
        default = solver.DEFAULT_CONFIG
        if tiny:
            return [
                ("C6", families.gen_basic("cycle", 6)[0], default, 3),
                ("C5", families.gen_basic("cycle", 5)[0], default, 4),
                ("K4", families.gen_basic("complete", 4)[0], default, 4),
                ("Petersen", petersen(), default, 5),
                ("grid3x3", families.gen_grid(3, 3)[0],
                 solver.SolverConfig(node_budget=10), (5, 6)),
            ]
        return [
            ("Q4", hypercube(4), default, 6),
            ("C13^2", families.gen_cycle_power(13, 2)[0], default, 6),
            ("C12^2", families.gen_cycle_power(12, 2)[0], default, 6),
            ("Petersen", petersen(), default, 5),
            ("random n=14 seed 3", families.gen_random_graph(14, 3, density=0.35), default, 7),
            ("grid8x8", families.gen_grid(8, 8)[0],
             solver.SolverConfig(node_budget=GRID_BUDGET), (5, 6)),
        ]

    @staticmethod
    def step(row):
        _name, g, cfg, _expected = row
        try:
            return ["value", solver.incidence_chromatic_number(g, cfg)]
        except solver.ChiUnknown as exc:
            return ["unknown", exc.lower, exc.upper]

    @staticmethod
    def judge(rows, out) -> Judgement:
        j = Judgement(ops=len(rows), digest=digest(out))
        for (name, _g, _cfg, expected), res in zip(rows, out):
            if res[0] == "unknown":
                j.undecided += 1
                ok = isinstance(expected, tuple) and res[1] >= expected[0]
            elif isinstance(expected, tuple):
                ok = expected[0] <= res[1] <= expected[1]
            else:
                ok = res[1] == expected
            if not ok:
                j.failed += 1
                j.errors.append(f"chi({name}): got {res}, expected {expected}")
        return j


# ---------------------------------------------------------- choose_sweep ---

class ChooseSweep:
    """Exhaustive 3-choosability of C3 over canonical lists from {1..5}.

    The input is fixed; the seed does not enter this workload.
    """

    @staticmethod
    def setup(seed: int, tiny: bool):
        g = families.gen_basic("cycle", 3)[0]
        return [(g, 3, 4, 1024) if tiny else (g, 3, 5, 66_667)]

    @staticmethod
    def step(sweep):
        g, k, universe, _expected = sweep
        return solver.check_choosability_exhaustive(g, k, universe)

    @staticmethod
    def judge(sweeps, outs) -> Judgement:
        (res,) = outs
        expected = sweeps[0][3]
        j = Judgement(ops=res.assignments_checked,
                      digest=digest([res.choosable, res.assignments_checked]))
        if not res.choosable or res.counterexample is not None:
            j.errors.append("C3 reported not 3-choosable")
        if res.assignments_checked != expected:
            j.errors.append(f"{res.assignments_checked} assignments checked, {expected} expected")
        if j.errors:
            j.failed = max(j.ops, 1)
        return j


WORKLOADS = {
    "fuzz_sweep": FuzzSweep,
    "construct_large": ConstructLarge,
    "chi_suite": ChiSuite,
    "choose_sweep": ChooseSweep,
}
