"""Benchmark workloads: one generated graph and one depth c each.

The graph comes from `shortcycles.io.generate(model, params, seed)` with
the benchmark's `--seed`; the engine sees only that graph and an
`EngineConfig`. Why each workload exists and which layer it loads is in
BENCHMARK.json and perfbench/README.md.

The sizes are the smallest at which each workload still loads its layer,
so a run can repeat the pipeline several times and report medians.
`tiny_params` shrink every graph for the smoke test; the layer structure
does not hold there.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    params: dict
    tiny_params: dict
    c: int


WORKLOADS = {w.name: w for w in [
    Workload("gnm-c1", "gnm", {"n": 512, "m": 30 * 512},
             {"n": 64, "m": 30 * 64}, c=1),
    # Recursion needs k = floor((2n)^(1/3)) > 20, so n >= 4631; d=41 keeps
    # m just over 20n, which makes one driver iteration.
    Workload("dreg-c2", "d_regular", {"n": 4632, "d": 41},
             {"n": 64, "d": 42}, c=2),
    Workload("gadgets-c2", "parallel_gadgets", {"n": 2048, "d": 60},
             {"n": 64, "d": 60}, c=2),
]}
