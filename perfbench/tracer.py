"""Span tracer for the benchmark's traced runs.

Spans are recorded around calls into each layer's public functions, from
outside the engine: `install` swaps the names `shortcycles.engine` looks
up at call time (the engine binds its collaborators with `from ... import`,
so patching their home modules would miss every engine call), and `wrap`
returns a traced callable for the functions the benchmark calls itself.
Private helpers are not wrapped; their time stays in their caller's self
time.

Spans live in flat arrays while the run is going and are summarised or
written out only at the end.
"""
from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# shortcycles.engine attribute -> layer (module of src/shortcycles).
ENGINE_CALLS = {
    "decompose": "engine",
    "short_cycle_decomp": "engine",
    "improved_short_cycle": "engine",
    "one_round_short_cycle": "engine",
    "low_diam_decomp": "ldd",
    "contract": "graph",
    "graph_reduce": "primitives",
    "tree_split": "primitives",
    "pull_up": "primitives",
    "sparsify": "primitives",
    "naive_short_cycle": "primitives",
    "split_circuit": "primitives",
}

# Cluster size from which the engine's numpy paths run.
BIG_CLUSTER = 4096


def _ldd_probe(counts, args, kwargs, res):
    counts["ldd.retries"] += res.retries
    counts["ldd.truncated_shifts"] += res.truncated_shifts
    counts["ldd.clusters"] += len(res.clusters)
    for cluster in res.clusters:
        size = len(cluster)
        if size == 1:
            counts["ldd.singletons"] += 1
        elif size >= BIG_CLUSTER:
            counts["ldd.big_clusters"] += 1


def _one_round_probe(counts, args, kwargs, res):
    component = args[2] if len(args) > 2 else kwargs.get("component")
    if component is not None and len(component) == 1:
        counts["one_round.singleton_calls"] += 1
    if res.cycles:
        counts["one_round.yielding_calls"] += 1


PROBES = {
    "ldd.low_diam_decomp": _ldd_probe,
    "engine.one_round_short_cycle": _one_round_probe,
}


class Tracer:
    """Records one span per wrapped call: function id, parent span, start
    and end. Counters from `PROBES` are taken after the call returns, so
    their cost lands in the caller's self time."""

    def __init__(self):
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        fid = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                res = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if probe is not None:
                probe(counts, args, kwargs, res)
            return res

        return traced

    @contextmanager
    def install(self, engine_module):
        """Trace every `ENGINE_CALLS` name of the engine module for the
        duration of the block; the originals are restored afterwards."""
        saved = {name: getattr(engine_module, name) for name in ENGINE_CALLS}
        try:
            for name, layer in ENGINE_CALLS.items():
                setattr(engine_module, name,
                        self.wrap(f"{layer}.{name}", saved[name]))
            yield
        finally:
            for name, func in saved.items():
                setattr(engine_module, name, func)

    def arrays(self):
        return (np.frombuffer(self.fn, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def self_times(self):
        """Per-span self time: duration minus the children's durations."""
        _, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return dur - child

    def summary(self) -> dict:
        """Per-function `calls` and `self_s` keyed `<layer>.<function>`,
        per-layer `<layer>.self_s`, the probe counters and the
        parent-aware counts. Missing keys read 0."""
        fn, parent, _, _ = self.arrays()
        selfs = self.self_times()
        k = len(self.names)
        calls = np.bincount(fn, minlength=k)
        self_s = np.bincount(fn, weights=selfs, minlength=k)
        out = Counter()
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[fid])
            out[f"{name}.self_s"] = float(self_s[fid])
            out[f"{name.split('.')[0]}.self_s"] += float(self_s[fid])
        out.update(self.counts)
        parent_fn = np.where(parent >= 0, fn[np.maximum(parent, 0)], -1)

        def under(child: str, caller: str) -> int:
            if child not in self.names or caller not in self.names:
                return 0
            return int(np.count_nonzero(
                (fn == self.names.index(child))
                & (parent_fn == self.names.index(caller))))

        out["contract_by_scd"] = under("graph.contract",
                                       "engine.short_cycle_decomp")
        out["iterations"] = under("primitives.graph_reduce",
                                  "engine.decompose")
        return out

    def subtree_self_sum(self, name: str) -> float:
        """Sum of self times over every span of the last `name` call and
        its descendants; it equals that call's duration by construction,
        so comparing it with an outside wall clock checks the bookkeeping."""
        fn, _, start, end = self.arrays()
        idx = int(np.nonzero(fn == self.names.index(name))[0][-1])
        later = np.nonzero(start[idx + 1:] >= end[idx])[0]
        stop = idx + 1 + int(later[0]) if len(later) else len(fn)
        return float(self.self_times()[idx:stop].sum())

    def save(self, path) -> None:
        fn, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), fn=fn, parent=parent,
                 start=start, end=end)
