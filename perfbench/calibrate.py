"""A clock that runs at a reference host speed.

On a shared VM the same `decompose` call can take twice as long in one
minute as in the next, with CPU time equal to wall time; the host's speed
drifts within a single call too. A median over a run then mostly reports
which phase of the host the run fell in.

`ReferenceClock` measures the host's speed while the work runs: a timer
signal interrupts the process every `TICK_S` seconds, and the handler times
a small fixed piece of work, `reference_work()`, that uses no library code.
Its time over `REFERENCE_S` is the slowdown at that moment. Each stretch of
the work between two ticks is divided by the slowdown measured at its end,
and the clock adds these up; the handler's own time is left out. A change
to the library changes the stretches and not the reference work, so it
shows in full.

The reference work mixes what the library does: Python lists, dicts and
sorting (a BFS on a fixed random graph) and numpy sorting and counting.
The garbage collector is off while it runs, so its time does not depend on
how many objects the library keeps alive.
"""
from __future__ import annotations

import gc
import random
import signal
from time import perf_counter

import numpy as np

# About the time of `reference_work()` on the machine the benchmark was
# tuned on (2-vCPU VM at 2.0 GHz, CPython 3.11) in the host's faster phase,
# so that reference seconds read close to wall seconds there.
REFERENCE_S = 0.009
TICK_S = 0.25

_N = 2000


def reference_work() -> int:
    rng = random.Random(12345)
    adj = [[] for _ in range(_N)]
    for _ in range(4 * _N):
        a, b = rng.randrange(_N), rng.randrange(_N)
        adj[a].append(b)
        adj[b].append(a)
    dist = [-1] * _N
    dist[0] = 0
    queue = [0]
    for u in queue:
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(v)
    index = {(i * 7919) % _N: i for i in range(_N)}
    total = sum(dist) + len(sorted(index.items(), key=lambda kv: kv[1] ^ 5))
    keys = np.random.default_rng(7).integers(0, 1 << 30, 10000)
    order = np.argsort(keys, kind="stable")
    return total + int(np.bincount(np.unique(keys[order] >> 8) & 4095).max())


class ReferenceClock:
    """Use as a context manager; `now()` reads the clock. Between two
    readings it advances by the wall time that passed outside its own
    ticks, scaled to the reference speed."""

    def __init__(self):
        self.elapsed = 0.0       # reference seconds so far
        self.wall = 0.0          # wall seconds so far, ticks left out
        self.references = []     # every reference timing, in seconds
        self._busy = False
        self._stretch_start = 0.0
        self._old_handler = None

    def __enter__(self):
        self._stretch_start = perf_counter()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._tick()

    def _tick(self) -> None:
        """Close the current stretch: time the reference work and credit
        the stretch at the speed it shows."""
        self._busy = True
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            reference_work()
            t1 = perf_counter()
        finally:
            if gc_was_enabled:
                gc.enable()
        stretch = t0 - self._stretch_start
        self.references.append(t1 - t0)
        self.wall += stretch
        self.elapsed += stretch * REFERENCE_S / (t1 - t0)
        self._stretch_start = perf_counter()
        self._busy = False

    def now(self) -> tuple[float, float]:
        """(reference seconds, wall seconds) since the clock started,
        both without the clock's own ticks."""
        self._tick()
        return self.elapsed, self.wall

    def slowdown(self) -> float:
        """Median reference timing over `REFERENCE_S`."""
        refs = sorted(self.references)
        return refs[len(refs) // 2] / REFERENCE_S if refs else float("nan")
