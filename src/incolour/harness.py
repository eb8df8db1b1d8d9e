"""Seeded list-assignment sampling, guaranteed-bound fuzz campaigns, and the
exact-value regression table.

Campaign failures are data, not exceptions: every failed trial is recorded
with a bundle sufficient to replay it bit-for-bit.  Trial seeds derive from
(master seed, instance, trial) alone, so results are identical for any
worker count.  The process pool's machinery (``concurrent.futures`` and
``multiprocessing``) is imported only when a campaign runs with more than
one worker, so importing the library or running a single-process campaign
loads neither.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from .constructive import construct, guaranteed_bound
from .constructive.coronae import pendant_edge_ids
from .families import FamilySpec, generate
from .graphs import (
    Graph,
    IncolourError,
    InputError,
    ListAssignment,
    check_ints,
    incidence_id,
    validate_colouring,
)
from .solver import (
    ChiUnknown,
    SolverConfig,
    DEFAULT_CONFIG,
    incidence_chromatic_number,
)

# Frozen on the first exact run of this repository's solver.
K4_CHROMATIC_NUMBER = 4


def random_list_assignment(g: Graph, k: int, universe_size: int, seed: int) -> ListAssignment:
    """Uniform random k-subset of {1..universe_size} for every incidence,
    deterministic per seed.

    The lists are exactly those that ``rng = random.Random(seed)`` draws as
    ``frozenset(rng.sample(range(1, universe_size + 1), k))``, one incidence
    after another.  When the universe is at most CPython's ``setsize`` (always
    so at the default universe 3k), ``sample`` runs its pool branch, and
    that branch is inlined here on ``getrandbits``: each draw takes the
    rejection loop of ``Random._randbelow`` over the same span and bit
    length, and the drawn slot is refilled from the end of the pool.  The
    lists are k-sets of ints from 1 up, so they are wrapped unchecked.
    ``k`` and ``universe_size`` must be ints, not bools (:class:`InputError`).
    """
    check_ints(k=k, universe_size=universe_size)
    if k < 1 or universe_size < k:
        raise InputError("need universe_size >= k >= 1")
    rng = random.Random(seed)
    m = 2 * len(g.edges)
    setsize = 21 + (4 ** math.ceil(math.log(3 * k, 4)) if k > 5 else 0)
    if universe_size > setsize:
        population = range(1, universe_size + 1)
        return ListAssignment._unchecked(
            tuple(frozenset(rng.sample(population, k)) for _ in range(m)))
    getrandbits = rng.getrandbits
    draws = [(span, span.bit_length()) for span in range(universe_size, universe_size - k, -1)]
    base = list(range(1, universe_size + 1))
    lists = []
    for _ in range(m):
        pool = base.copy()
        picked = []
        for span, bits in draws:
            j = getrandbits(bits)
            while j >= span:
                j = getrandbits(bits)
            picked.append(pool[j])
            pool[j] = pool[span - 1]
        lists.append(frozenset(picked))
    return ListAssignment._unchecked(tuple(lists))


def trial_seed(master_seed: int, instance_key: str, trial: int) -> int:
    """Stable per-trial seed, independent of scheduling."""
    digest = hashlib.sha256(f"{master_seed}:{instance_key}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class FuzzCampaign:
    """A family sweep: instances, list-size rule, universe, trials, seed.
    Every count and the seed is an int (not a bool) and ``pre`` a bool, else
    :class:`InputError` at construction."""

    instances: tuple[FamilySpec, ...]
    trials: int = 200
    master_seed: int = 0
    k: Optional[int] = None          # None: the guaranteed bound per instance
    universe: Optional[int] = None   # None: 3 * k
    pre: bool = False                # pre-colour one edge (see pre_pair)
    workers: int = 1

    def __post_init__(self):
        # a campaign that runs no trial would report "0/0 trials ok"
        if not self.instances:
            raise InputError("a campaign needs at least one instance")
        optional = {"k": self.k, "universe": self.universe}
        check_ints(trials=self.trials, workers=self.workers, master_seed=self.master_seed,
                   **{name: value for name, value in optional.items() if value is not None})
        if type(self.pre) is not bool:
            raise InputError(f"pre must be a bool, got {self.pre!r}")
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        cpus = os.cpu_count() or 1
        if not 1 <= self.workers <= cpus:
            raise InputError(f"workers must be in [1, {cpus}], got {self.workers}")


@dataclass
class InstanceResult:
    spec: dict
    k: int
    universe: int
    trials: int = 0
    successes: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0


@dataclass
class CampaignReport:
    results: list[InstanceResult]

    @property
    def total_failures(self) -> int:
        return sum(len(r.failures) for r in self.results)

    @property
    def total_trials(self) -> int:
        return sum(r.trials for r in self.results)

    def to_json(self) -> dict:
        return {
            "total_trials": self.total_trials,
            "total_failures": self.total_failures,
            "instances": [{**asdict(r), "seconds": round(r.seconds, 3)} for r in self.results],
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.results:
            status = "ok" if not r.failures else f"{len(r.failures)} FAILURES"
            lines.append(
                f"{json.dumps(r.spec, sort_keys=True)} k={r.k} u={r.universe}: "
                f"{r.successes}/{r.trials} {status} ({r.seconds:.2f}s)"
            )
        lines.append(
            f"total: {self.total_trials - self.total_failures}/{self.total_trials} trials ok"
        )
        return lines


def pre_pair(g: Graph, spec: FamilySpec, lists: ListAssignment, seed: int):
    """Deterministic pre-colours (a, b) for both incidences of one edge: a
    corona's pendant edge v0-v0^1, else the first edge of ``g``."""
    if spec.family == "corona":
        down, up = pendant_edge_ids(g, spec.params["n"], spec.params["p"])
    else:
        u, v = g.edges[0]
        down, up = incidence_id(g, u, v), incidence_id(g, v, u)
    rng = random.Random(seed ^ 0x5EED)
    a = rng.choice(sorted(lists[down]))
    b = rng.choice(sorted(lists[up] - {a}) or sorted(lists[up]))
    return {down: a, up: b}


def _run_trial(task: dict) -> dict:
    """One trial: ``{"ok", "error", "seconds"}``, where ``seconds`` is the
    time this trial took, whichever process ran it."""
    start = time.perf_counter()
    g, spec = generate(task["spec"])
    lists = random_list_assignment(g, task["k"], task["universe"], task["seed"])
    pre = None
    if task["pre"]:
        pre = pre_pair(g, spec, lists, task["seed"])
    out = {"ok": True, "error": None}
    try:
        report = construct(spec, lists, pre=pre)
        verdict = validate_colouring(g, lists, report.colouring)
        if not verdict.ok:
            out.update(ok=False, error=f"invalid colouring: {verdict.violation}")
    except IncolourError as exc:
        out.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    out["seconds"] = time.perf_counter() - start
    return out


def run_campaign(campaign: FuzzCampaign) -> CampaignReport:
    """Run every trial of the campaign; never aborts on a failed trial.

    A list size below 1, a universe smaller than it, or an instance that
    :func:`guaranteed_bound` rejects (with ``k`` given too), such as a
    pre-coloured campaign on a family that takes no pre-colouring or on
    an instance with no edge, is an :class:`InputError`, raised before
    any trial runs."""
    results = []
    tasks = []
    for spec in campaign.instances:
        _, spec = generate(spec)
        bound = guaranteed_bound(spec, pre=campaign.pre)
        k = campaign.k if campaign.k is not None else bound
        universe = campaign.universe if campaign.universe is not None else 3 * k
        if k < 1 or universe < k:
            raise InputError(f"need universe >= k >= 1, got k={k}, universe={universe}")
        spec_json = spec.to_json()
        key = json.dumps(spec_json, sort_keys=True) + f"|k={k}|u={universe}|pre={campaign.pre}"
        results.append(InstanceResult(spec=spec_json, k=k, universe=universe))
        common = {"k": k, "universe": universe, "pre": campaign.pre}
        for trial in range(campaign.trials):
            seed = trial_seed(campaign.master_seed, key, trial)
            # the generated spec: every trial reuses its graph
            tasks.append({"spec": spec, "trial": trial, "seed": seed, **common})

    if campaign.workers > 1:
        # imported here: the process pool pulls in multiprocessing and some
        # twenty other modules that a single-process run never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=campaign.workers) as pool:
            outcomes = list(pool.map(_run_trial, tasks, chunksize=16))
    else:
        outcomes = [_run_trial(t) for t in tasks]

    # map keeps task order: each instance's trials are consecutive
    for n, (task, out) in enumerate(zip(tasks, outcomes)):
        r = results[n // campaign.trials]
        r.trials += 1
        r.seconds += out["seconds"]
        if out["ok"]:
            r.successes += 1
        else:
            r.failures.append({**task, "spec": r.spec, "error": out["error"]})
    return CampaignReport(results)


def replay_failure(bundle: dict) -> dict:
    """Re-run one failure bundle; returns the fresh trial outcome."""
    return _run_trial({**bundle, "spec": FamilySpec.from_json(bundle["spec"])})


# ------------------------------------------------------------ regression ---

def regression_suite() -> list[tuple[str, FamilySpec, int]]:
    rows: list[tuple[str, FamilySpec, int]] = []
    for n in range(3, 13):
        rows.append((f"C{n}", FamilySpec("cycle", {"n": n}), 3 if n % 3 == 0 else 4))
    for leaves in range(2, 6):
        rows.append((f"S{leaves}", FamilySpec("star", {"n": leaves}), leaves + 1))
    rows.append(("K4", FamilySpec("complete", {"n": 4}), K4_CHROMATIC_NUMBER))
    # computed by the exact search, each colouring re-validated
    for n in range(4, 9):
        rows.append((f"grid{n}x{n}", FamilySpec("grid", {"m": n, "n": n}), 5))
    return rows


@dataclass
class RegressionReport:
    rows: list[dict]

    @property
    def mismatches(self) -> list[dict]:
        return [r for r in self.rows if r["status"] == "mismatch"]

    @property
    def unknowns(self) -> list[dict]:
        return [r for r in self.rows if r["status"] == "unknown"]

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.unknowns


def regression_chi(cfg: SolverConfig = DEFAULT_CONFIG) -> RegressionReport:
    """Exact chromatic numbers of :func:`regression_suite` against its
    expectation table; a budget blow-up marks the row unknown (run
    incomplete, not failed)."""
    rows = []
    for name, spec, expected in regression_suite():
        g, _ = generate(spec)
        try:
            value = incidence_chromatic_number(g, cfg)
            status = "ok" if value == expected else "mismatch"
        except ChiUnknown:
            value = None
            status = "unknown"
        rows.append({
            "name": name,
            "expected": expected,
            "computed": value,
            "status": status,
        })
    return RegressionReport(rows)
