#!/usr/bin/env python3
"""Quick self-test of the benchmark runner on tiny inputs.

    python3 incbench/selftest.py

Runs every workload untraced and traced on tiny inputs, checks the result
line against BENCHMARK.json, checks that counts repeat for a repeated seed
and that another seed changes the fuzz lists but no verdict, checks the
oracle against the library's validator on corrupted colourings, and checks
that the runner refuses to run without the library source.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT):
    cmd = [sys.executable, "incbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120, check=False)


def result_of(proc) -> tuple[dict, dict]:
    """The result line and the run's metadata line."""
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    meta = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
    return json.loads(lines[-1]), meta


def check_result_line() -> None:
    cases = [(w["name"], trace, kind) for w in SPEC["workloads"]
             for trace, kind in ((0, "end_to_end"), (1, "per_layer"))]
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(lambda case: run(case[0], trace=case[1]), cases))
    for (workload, trace, kind), proc in zip(cases, procs):
        result, _ = result_of(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] is True and result["failed"] == 0, result
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, (workload, trace, set(got) ^ set(want))
        print(f"ok  {workload} --trace {trace}")


def check_seeds() -> None:
    _, first = result_of(run("fuzz_sweep", seed=1))
    _, again = result_of(run("fuzz_sweep", seed=1))
    assert first["counts"] == again["counts"], (first["counts"], again["counts"])
    _, other = result_of(run("fuzz_sweep", seed=2))
    assert other["counts"]["captured"] != first["counts"]["captured"], "seed did not change the lists"
    assert other["counts"]["digest"] == first["counts"]["digest"], "seed changed a verdict"
    print("ok  counts repeat for a seed; another seed changes lists, not verdicts")


def check_oracle() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import oracle
    from incolour import families, graphs, solver

    rng = random.Random(0)
    disagreements = tried = 0
    for seed in range(30):
        g = families.gen_random_graph(8, seed, density=0.4)
        if not g.edges:
            continue
        lists = graphs.ListAssignment.uniform(g, 3 * max(g.max_degree, 1))
        res = solver.greedy_degenerate(g, lists)
        base = res.colouring.assignment
        for _ in range(10):
            colour = dict(base)
            i = rng.randrange(len(colour))
            colour[i] = rng.choice(sorted(lists[i]))
            mine = not oracle.colouring_errors(g.n, g.edges, lists.lists, colour)
            theirs = graphs.validate_colouring(g, lists, graphs.IncidenceColouring(colour)).ok
            disagreements += mine != theirs
            tried += 1
    assert disagreements == 0, f"oracle and library validator disagree {disagreements} times"
    print(f"ok  oracle agrees with the library validator on {tried} mutated colourings")


def check_speed() -> None:
    sys.path[:0] = [str(HERE)]
    import speed

    ref = speed.REFERENCE_S
    slow = speed.Sample(2.0, (2 * ref, 2 * ref))          # host at half the reference speed
    assert abs(slow.rescaled - 1.0) < 1e-12, slow
    switched = speed.Sample(3.0, (ref, ref, 2 * ref, 2 * ref))  # slowed half-way
    assert abs(switched.rescaled - 2.25) < 1e-12, switched
    assert abs(speed.step_time([slow, switched, speed.Sample(1.5, (ref,))]) - 1.5) < 1e-12
    assert abs(speed.pass_time([[slow, slow], [slow, slow]]) - 2.0) < 1e-12
    out, sample = speed.timed(sorted, range(200_000, 0, -1))
    assert out[0] == 1 and len(sample.probes) >= 2 and 0 < sample.seconds < 10, sample
    print("ok  speed rescales timings to the reference speed")


def check_bare_directory() -> None:
    bare = ROOT / ".incbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "incbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("chi_suite", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "ran without the library source"
    assert not any(l.startswith("{") for l in proc.stdout.splitlines()), proc.stdout
    print("ok  refuses to run without the library source")


def main() -> int:
    check_result_line()
    check_seeds()
    check_oracle()
    check_speed()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
