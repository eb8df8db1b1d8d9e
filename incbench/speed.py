"""Host speed probe, for timings that do not drift with the host's speed.

On a shared virtual machine the same interpreter work runs at speeds up to
twice apart, in phases that last from under a second to minutes; a fixed
loop shows it with nothing else running.  A timing taken in one phase
cannot be compared with one taken in another, and no number of repeats
inside one run removes a phase that lasts the whole run.

So while a step runs, a fixed piece of interpreter work that does not
touch the library (the probe) is timed just before it, every ``TICK_S``
seconds during it (from a ``SIGALRM`` handler, its time taken out of the
step's), and just after it.  The step's time is rescaled to the speed at
which the probe takes ``REFERENCE_S``.  A change to the library still
moves the rescaled time one for one, since the probe runs no library code.
"""

from __future__ import annotations

import random
import signal
import time
from statistics import mean, median
from typing import NamedTuple

REFERENCE_S = 0.0025    # nominal probe time: rescaled seconds are at this speed
TICK_S = 0.1            # probe interval inside a step


def _random_graph(n: int, m: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    adj: list[list[int]] = [[] for _ in range(n)]
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return adj


_GRAPH = _random_graph(1500, 6000, seed=7)


def _reference_work() -> int:
    """Fixed interpreter work, about 2.5 ms at full speed: a tight loop over
    a dict and a list, then a greedy colouring of a fixed random graph with
    sets and a dict, like the library's inner loops."""
    counts: dict[int, int] = {}
    slots = [0] * 64
    total = 0
    for i in range(6000):
        k = i % 61
        counts[k] = counts.get(k, 0) + 1
        slots[k] ^= i
        if k in (3, 5, 7):
            total += slots[(k * i) & 63]
    colour: dict[int, int] = {}
    for v, nbrs in enumerate(_GRAPH):
        used = {colour[u] for u in nbrs if u in colour}
        c = 0
        while c in used:
            c += 1
        colour[v] = c
    return total + max(colour.values())


def probe() -> float:
    """Seconds the reference work takes now."""
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


class Sample(NamedTuple):
    seconds: float                # the step's own time, probes taken out
    probes: tuple[float, ...]     # probe times before, during and after it

    @property
    def rescaled(self) -> float:
        return self.seconds * REFERENCE_S * mean(1 / p for p in self.probes)


def timed(fn, *args, ticks: bool = True):
    """Run ``fn(*args)`` between two probes and, with ``ticks``, probe
    every ``TICK_S`` while it runs; return its result and Sample."""
    probes = [probe()]
    paused = 0.0

    def tick(_signum, _frame):
        nonlocal paused
        start = time.perf_counter()
        probes.append(probe())
        paused += time.perf_counter() - start

    if ticks:
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    start = time.perf_counter()
    try:
        out = fn(*args)
    finally:
        if ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start - paused
    probes.append(probe())
    return out, Sample(seconds, tuple(probes))


def step_time(samples: list[Sample]) -> float:
    """Median rescaled time of one step over its samples."""
    return median(s.rescaled for s in samples)


def pass_time(passes: list[list[Sample]]) -> float:
    """One pass, as the sum over the steps of each step's time."""
    return sum(step_time(list(col)) for col in zip(*passes))
