#!/usr/bin/env python3
"""Benchmark of the incolour library: one workload per run.

    python3 incbench/run.py --workload fuzz_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory and nowhere else.  A run is a closed loop: one caller,
one call at a time, no threads or worker processes.

* Every time is rescaled to a fixed host speed (see ``speed``): the host's
  speed is probed before, during and after each timed step.
* Set-up (imports plus building the inputs) is timed in fresh processes,
  two after each timed pass and at least ``SETUP_SAMPLES``; ``setup_s`` is
  their median.
* A check pass runs first and last.  Both count kernel nodes and
  constructive steps; the first also re-checks every colouring the library
  returns with ``oracle``.  The counts must agree between the two, and with
  any earlier run of the same seed on the same source.
* Timed passes fill ``--seconds``; ``wall_s`` is the sum over the steps of
  each step's median time.  Every pass's outputs are judged after its
  timer stops.
* ``--trace 1`` alternates untraced and traced passes and reports the
  per-layer metrics of the traced ones.

Lines before the last describe the run; the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import speed
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".incbench"

SETUP_SAMPLES = 9       # at least; two are taken after each timed pass
MIN_PASSES = 3          # timed passes per run, and traced passes per traced run


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up once and print it (used internally)")
    return p.parse_args(argv)


def fail(message: str) -> None:
    print(f"incbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_workloads():
    """Import the library from this checkout's ``src`` only."""
    if not (SRC / "incolour" / "__init__.py").is_file():
        fail(f"no library source at {SRC / 'incolour'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import workloads  # imports incolour: part of the timed set-up

    import incolour
    if Path(incolour.__file__).resolve().parent != (SRC / "incolour").resolve():
        fail(f"imported incolour from {incolour.__file__}, not from {SRC}")
    return workloads


def setup(args):
    """Import the library and build the inputs; return both and the time."""
    start = time.perf_counter()
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed, args.tiny)
    return workloads, wl, inputs, time.perf_counter() - start


def setup_in_fresh_process(args) -> speed.Sample:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("set-up failed in a fresh process")
    seconds, probes = json.loads(proc.stdout.splitlines()[-1])["setup"]
    return speed.Sample(seconds, tuple(probes))


def source_hash() -> str:
    """Hash of the library and benchmark sources, the key for comparing
    counts across runs."""
    h = hashlib.sha256()
    for base in (SRC / "incolour", HERE):
        for path in sorted(base.rglob("*")):
            if path.suffix in (".py", ".pyx", ".c", ".h") and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


class Run:
    """Passes of one workload and everything learnt from them."""

    def __init__(self, workloads, wl, items):
        self.workloads = workloads
        self.wl = wl
        self.items = items
        self.attempted = 0
        self.failed = 0
        self.undecided = 0
        self.errors: list[str] = []
        self.reference = None      # (ops, digest) of the first pass

    def _judge(self, out, what: str):
        j = self.wl.judge(self.items, out)
        self.attempted += j.ops
        self.failed += j.failed
        self.undecided += j.undecided
        self.errors.extend(f"{what}: {e}" for e in j.errors)
        if self.reference is None:
            self.reference = (j.ops, j.digest)
        elif (j.ops, j.digest) != self.reference:
            self.errors.append(f"{what}: ops/outputs {(j.ops, j.digest)} differ from "
                               f"the first pass {self.reference}")
        return j

    def _pass(self, ticks: bool = False):
        """Step through every item; return each step's Sample and output."""
        samples, outs = [], []
        for item in self.items:
            out, sample = speed.timed(self.wl.step, item, ticks=ticks)
            outs.append(out)
            samples.append(sample)
        return samples, outs

    def timed_pass(self) -> list[speed.Sample]:
        gc.collect()
        samples, outs = self._pass(ticks=True)
        self._judge(outs, "timed pass")
        return samples

    def check_pass(self, capture: bool) -> dict:
        """Untimed pass that counts kernel nodes and constructive steps and,
        with ``capture``, re-checks every colouring the library returns."""
        gc.collect()
        checker = self.workloads.Capture() if capture else None
        with Tracer(spans=False, on_result=checker) as t:
            _, outs = self._pass()
        j = self._judge(outs, "check pass")
        self.errors.extend(f"check pass: {e}" for e in t.errors)
        counts = {"ops": j.ops, "digest": j.digest, **t.counts}
        if checker is not None:
            counts.update(colourings_checked=checker.checked, captured=checker.digest())
        return counts

    def traced_pass(self):
        gc.collect()
        with Tracer(spans=True) as t:
            samples, outs = self._pass()
        self._judge(outs, "traced pass")
        return samples, t


def compare_with_earlier_runs(args, source: str, counts: dict, errors: list) -> None:
    """Counts must repeat exactly across runs with the same seed and source."""
    key = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}-{source[:16]}"
    path = OUT / "counts" / f"{key}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            errors.append(f"counts {counts} differ from an earlier run with this seed: {earlier}")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, path)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        _, sample = speed.timed(setup, args)
        print(json.dumps({"setup": sample}))
        return 0

    workloads, wl, inputs, _ = setup(args)
    from incolour import kernel

    run = Run(workloads, wl, inputs)
    first = run.check_pass(capture=True)

    untraced: list[list[speed.Sample]] = []
    setup_samples: list[speed.Sample] = []
    traced: list = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(untraced) < MIN_PASSES:
        untraced.append(run.timed_pass())
        if args.trace:
            traced.append(run.traced_pass())
        else:
            # spread the set-up samples over the run, between passes
            setup_samples += [setup_in_fresh_process(args) for _ in range(2)]
    while not args.trace and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_in_fresh_process(args))

    last = run.check_pass(capture=False)
    if any(last[k] != first[k] for k in last):
        run.errors.append(f"counts differ between the first and last check pass: {first} vs {last}")
    source = source_hash()
    compare_with_earlier_runs(args, source, first, run.errors)

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "source_sha256": source,
        "python": platform.python_version(), "backend": kernel.backend_name(),
        "nproc": os.cpu_count(), "passes": len(untraced), "traced_passes": len(traced),
        "counts": first,
    }
    lines = [f"meta {json.dumps(meta, sort_keys=True)}"]
    attempted = max(run.attempted, 1)
    lines.append(f"failed_frac {run.failed / attempted:.6g} frac ({run.failed} of {run.attempted} ops)")
    lines.append(f"undecided_frac {run.undecided / attempted:.6g} frac "
                 f"({run.undecided} of {run.attempted} ops)")
    totals = [sum(s.seconds for s in p) for p in untraced]
    lines.append(f"pass totals as measured (s, n={len(totals)}): median {median(totals):.4f}, "
                 f"min {min(totals):.4f}, max {max(totals):.4f}")

    if args.trace:
        per_pass = [t.layer_metrics(sum(s.seconds for s in p)) for p, t in traced]
        exact = [{k: v for k, v in m.items() if k.endswith(".calls") or k in first}
                 for m in per_pass]
        if any(e != exact[0] for e in exact):
            run.errors.append("per-layer counts differ between traced passes")
        for key in ("kernel.nodes", "kernel.cutoffs", "constructive.trace_steps",
                    "constructive.solver_steps"):
            if per_pass[0][key] != first[key]:
                run.errors.append(f"{key}: traced {per_pass[0][key]} vs check pass {first[key]}")
        units = metric_units("per_layer")
        values = {}
        for name in units:
            if name == "trace.overhead":
                values[name] = speed.pass_time([p for p, _ in traced]) / speed.pass_time(untraced) - 1
            elif units[name] == "count":   # exact, and equal across traced passes
                values[name] = per_pass[0].get(name, 0)
            else:
                values[name] = median([m.get(name, 0) for m in per_pass])
        OUT.mkdir(exist_ok=True)
        traced[-1][1].dump(OUT / f"spans-{args.workload}.json")
    else:
        units = metric_units("end_to_end")
        values = {
            "wall_s": speed.pass_time(untraced),
            "setup_s": speed.step_time(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "decided_frac": 1 - run.undecided / attempted,
        }
        lines.append("setup_s samples (s as measured): "
                     + " ".join(f"{s.seconds:.4f}" for s in setup_samples))

    for name, unit in units.items():
        lines.append(f"{name} {values[name]:.6g} {unit}")
    for e in run.errors[:20]:
        lines.append(f"ERROR {e}")
    correct = not run.errors and run.failed == 0
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed if correct else max(run.failed, 1),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
