"""Benchmark for `decompose` and the gen -> decompose -> verify pipeline.

    python3 perfbench/run.py --workload gnm-c1 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
One run makes one workload's graph from `--seed` and decomposes it with
`EngineConfig(c, seed=--seed)`:

* set-up: `generate` + `serialize_edge_list` + writing the edge-list file,
  repeated, reported as the median `setup_s`;
* `--trace 0`: repeats the pipeline read -> `parse_edge_list` ->
  `decompose` -> `decomposition_to_json` -> `json.loads` +
  `decomposition_from_dict` -> `verify_decomposition` until `--seconds`
  is used up, and at least `MIN_SAMPLES` times, and reports the
  end-to-end metrics, times as medians over samples; set-up and pipeline
  are timed on `calibrate.ReferenceClock`, which scales wall time to a
  reference host speed;
* `--trace 1`: repeats pairs of one untraced and one traced pipeline,
  checks that each pair agrees exactly, and reports the per-layer metrics.

Every sample is checked: a sample fails if the engine raises, if
`verify_decomposition(g, dec, 20n, 10**9)` is not valid, or if more than
20n edges are left over. Every sample of a run does the same work, so all
must give the same output bytes. The run's output digests go to
`.bench_out/digests.jsonl`; a digest that differs from an earlier run of
the same source, workload and seed makes the run incorrect
(`perfbench/compare.py` summarises the ledger).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
from calibrate import ReferenceClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SAMPLES = 3
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 1.0

END_TO_END_UNITS = {
    "decompose_s": "s",
    "pipeline_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mean_cycle_len": "edges",
    "leftover_per_n": "edges/vertex",
}


def _import_library():
    """Import shortcycles from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "shortcycles" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {SRC}")
    sys.path.insert(0, str(SRC))
    import shortcycles
    if Path(shortcycles.__file__).resolve().parent != SRC / "shortcycles":
        raise SystemExit(f"error: imported shortcycles from "
                         f"{shortcycles.__file__}, not {SRC}")
    from shortcycles import engine, io, ldd, verify
    return engine, io, ldd, verify


engine, io, ldd, verify = _import_library()

SETUP_CALLS = {
    "io.generate": io.generate,
    "io.serialize_edge_list": io.serialize_edge_list,
}
PIPELINE_CALLS = {
    "io.parse_edge_list": io.parse_edge_list,
    "io.decomposition_to_json": io.decomposition_to_json,
    "io.decomposition_from_dict": io.decomposition_from_dict,
    "verify.verify_decomposition": verify.verify_decomposition,
}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "shortcycles").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def median(values):
    return statistics.median(values) if values else float("nan")


def ratio(num, den) -> float:
    return num / den if den else 0.0


def wall_clock() -> tuple[float, float]:
    """The (reference, wall) reading of an uncalibrated run: both wall."""
    t = perf_counter()
    return t, t


class Pipeline:
    """The library calls the benchmark makes itself, plain or traced;
    `decompose` goes through the engine module so `Tracer.install` sees it."""

    def __init__(self, calls: dict, tracer=None):
        if tracer is not None:
            calls = {name: tracer.wrap(name, f) for name, f in calls.items()}
        self.calls = calls

    def setup(self, wl, params, seed: int, path: Path) -> str:
        g = self.calls["io.generate"](wl.model, params, seed)
        text = self.calls["io.serialize_edge_list"](g)
        path.write_text(text)
        return text

    def decompose(self, wl, path: Path, seed: int, clock=wall_clock) -> dict:
        """One pipeline pass; returns its timings, checks and digests.
        `clock()` gives (reference, wall) seconds."""
        t0, w0 = clock()
        g = self.calls["io.parse_edge_list"](path.read_bytes())
        n = g.n_active
        cfg = engine.EngineConfig(c=wl.c, seed=seed)
        t1, w1 = clock()
        try:
            dec = engine.decompose(g, cfg)
        except (engine.EngineFailure, ldd.LddError) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        t2, w2 = clock()
        text = self.calls["io.decomposition_to_json"](dec, wl.c, seed, None)
        doc = json.loads(text)
        back = self.calls["io.decomposition_from_dict"](doc)
        report = self.calls["verify.verify_decomposition"](
            g, back, 20 * n, 10 ** 9)
        t3, w3 = clock()
        errors = [str(v) for v in report.violations[:3]]
        if not report.valid:
            errors.insert(0, "verify_decomposition: not valid")
        if len(dec.leftover) > 20 * n:
            errors.append(f"leftover {len(dec.leftover)} > 20n = {20 * n}")
        body = {k: v for k, v in doc.items() if k != "c"}
        return {
            "ok": not errors,
            "error": "; ".join(errors),
            "decompose_s": t2 - t1,
            "pipeline_s": t3 - t0,
            "decompose_wall_s": w2 - w1,
            "pipeline_wall_s": w3 - w0,
            "n": n,
            "cycles": len(dec.cycles),
            "cycle_edges": dec.cycle_edge_count,
            "max_cycle_len": dec.max_cycle_length(),
            "leftover": len(dec.leftover),
            "levels": [(s.level, s.edges_processed, s.rounds, s.ldd_retries,
                        s.cycles_found) for s in dec.level_stats],
            "output_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "body_sha256": hashlib.sha256(json.dumps(
                body, sort_keys=True, separators=(",", ":")).encode()
            ).hexdigest(),
        }


def run_setup(wl, params, seed: int, path: Path, traced: bool,
              clock=wall_clock):
    """Repeat the gen step; returns (times, wall times, text digests,
    tracers)."""
    times, walls, digests, tracers = [], [], set(), []
    t_begin = perf_counter()
    t0, w0 = clock()
    while (len(times) < SETUP_MIN_REPS
           or perf_counter() - t_begin < SETUP_MIN_SECONDS):
        tracer = Tracer() if traced else None
        pipe = Pipeline(SETUP_CALLS, tracer)
        text = pipe.setup(wl, params, seed, path)
        t1, w1 = clock()
        times.append(t1 - t0)
        walls.append(w1 - w0)
        t0, w0 = t1, w1
        digests.add(hashlib.sha256(text.encode()).hexdigest())
        if tracer is not None:
            tracers.append(tracer)
    return times, walls, digests, tracers


def warm_up():
    """Import-time and first-call costs, paid once, outside every timer."""
    g = io.generate("gnm", {"n": 32, "m": 30 * 32}, 0)
    dec = engine.decompose(g, engine.EngineConfig(c=2, seed=0))
    verify.verify_decomposition(g, dec, 20 * g.n_active, 10 ** 9)


def keep_going(started: float, seconds: float, durations: list,
               minimum: int) -> bool:
    """Another sample is run if fewer than `minimum` were, or if one more
    of median length still ends within `seconds`."""
    if len(durations) < minimum:
        return True
    return perf_counter() - started + median(durations) <= seconds


class Ledger:
    """Append-only record of output digests across runs of this checkout."""

    def __init__(self, path: Path, key: dict):
        self.path = path
        self.key = key
        self.earlier = set()
        if path.exists():
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                if all(rec.get(k) == v for k, v in key.items()):
                    self.earlier.add(rec["output_sha256"])

    def record(self, res: dict) -> list[str]:
        """Appends the run's digests; returns a problem if an earlier run
        of the same source, workload and seed gave other output."""
        with self.path.open("a") as f:
            f.write(json.dumps({**self.key,
                                "output_sha256": res["output_sha256"],
                                "body_sha256": res["body_sha256"]},
                               sort_keys=True) + "\n")
        if self.earlier - {res["output_sha256"]}:
            return [f"output digest {res['output_sha256'][:16]} differs "
                    f"from an earlier run's"]
        return []


def check_samples(samples: list, ledger: Ledger) -> list[str]:
    """Failed samples, output that differs between samples of the run, and
    output that differs from earlier runs."""
    problems = [f"sample {i}: {s['error']}"
                for i, s in enumerate(samples) if not s["ok"]]
    ok = [s for s in samples if s["ok"]]
    if not ok:
        return problems
    if len({s["output_sha256"] for s in ok}) > 1:
        problems.append("samples of one run gave different output")
    return problems + ledger.record(ok[0])


def timed_runs(wl, path: Path, seed: int, seconds: float, clock):
    pipe = Pipeline(PIPELINE_CALLS)
    samples, durations = [], []
    started = perf_counter()
    while keep_going(started, seconds, durations, MIN_SAMPLES):
        t0 = perf_counter()
        samples.append(pipe.decompose(wl, path, seed, clock))
        durations.append(perf_counter() - t0)
    return samples


def traced_runs(wl, path: Path, seed: int, seconds: float,
                spans_path: Path):
    """Pairs of (untraced result, traced result, tracer summary), and the
    problems found comparing them."""
    plain = Pipeline(PIPELINE_CALLS)
    pairs, durations, problems = [], [], []
    started = perf_counter()
    while keep_going(started, seconds, durations, 1):
        t0 = perf_counter()
        base = plain.decompose(wl, path, seed)
        tracer = Tracer()
        with tracer.install(engine):
            traced = Pipeline(PIPELINE_CALLS, tracer).decompose(wl, path, seed)
        durations.append(perf_counter() - t0)
        summ = tracer.summary()
        tag = f"pair {len(pairs)}"
        if base["ok"] and traced["ok"]:
            problems += cross_check(tag, base, traced, tracer, summ)
        if pairs and counts_of(summ) != counts_of(pairs[0][2]):
            problems.append(f"{tag}: traced counts differ from pair 0")
        pairs.append((base, traced, summ))
    tracer.save(spans_path)
    return pairs, problems


def counts_of(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if not k.endswith("self_s")}


def cross_check(tag: str, base: dict, traced: dict, tracer,
                summ: dict) -> list[str]:
    """The traced run must do exactly what the untraced one did, and the
    tracer's own counts must match the engine's level stats."""
    out = []
    for key in ("output_sha256", "levels", "cycles"):
        if base[key] != traced[key]:
            out.append(f"{tag}: traced {key} differs from untraced")
    rounds = sum(lv[2] for lv in traced["levels"])
    retries = sum(lv[3] for lv in traced["levels"])
    if summ["ldd.low_diam_decomp.calls"] != rounds:
        out.append(f"{tag}: traced LDD calls != level_stats rounds {rounds}")
    if summ["ldd.retries"] != retries:
        out.append(f"{tag}: traced LDD retries != level_stats {retries}")
    wall = traced["decompose_s"]
    gap = wall - tracer.subtree_self_sum("engine.decompose")
    if not -1e-6 <= gap <= 0.01 * wall + 1e-3:
        out.append(f"{tag}: self_s under decompose misses wall time by "
                   f"{gap:.6f} s of {wall:.6f} s")
    return out


PER_LAYER_COUNTS = {
    # metric -> tracer summary key
    "ldd.low_diam_decomp.calls": "ldd.low_diam_decomp.calls",
    "ldd.low_diam_decomp.retries": "ldd.retries",
    "ldd.low_diam_decomp.truncated_shifts": "ldd.truncated_shifts",
    "ldd.clusters": "ldd.clusters",
    "ldd.big_clusters": "ldd.big_clusters",
    "engine.one_round_short_cycle.calls": "engine.one_round_short_cycle.calls",
    "engine.one_round_short_cycle.singleton_calls":
        "one_round.singleton_calls",
    "engine.short_cycle_decomp.calls": "engine.short_cycle_decomp.calls",
    "engine.improved_short_cycle.calls": "engine.improved_short_cycle.calls",
    "engine.decompose.iterations": "iterations",
    "primitives.tree_split.calls": "primitives.tree_split.calls",
    "graph.contract.calls": "graph.contract.calls",
    "primitives.sparsify.calls": "primitives.sparsify.calls",
    "primitives.pull_up.calls": "primitives.pull_up.calls",
    "primitives.naive_short_cycle.calls": "primitives.naive_short_cycle.calls",
    "primitives.graph_reduce.calls": "primitives.graph_reduce.calls",
    "primitives.split_circuit.calls": "primitives.split_circuit.calls",
}

# Self times in the result: the spans called on every workload, plus the
# engine and primitives layer totals. sparsify, naive_short_cycle and
# improved_short_cycle are left out because they run on only some
# workloads, and a time that reads 0 on every run is not a measurement;
# the span table printed above the result still lists them.
PER_LAYER_SELF = [
    "engine", "primitives",
    "ldd.low_diam_decomp", "engine.one_round_short_cycle",
    "engine.short_cycle_decomp", "engine.decompose",
    "primitives.tree_split", "graph.contract", "primitives.pull_up",
    "primitives.graph_reduce", "primitives.split_circuit",
    "verify.verify_decomposition", "io.parse_edge_list",
    "io.decomposition_to_json", "io.decomposition_from_dict",
]


def per_layer_metrics(pairs, setup_tracers) -> dict:
    """Counts from the first traced sample (`traced_runs` checks that they
    repeat), times as medians over traced samples."""
    def med(fn):
        return median([fn(s) for _, _, s in pairs])

    base, _, first = pairs[0]
    m = {}
    for metric, key in PER_LAYER_COUNTS.items():
        m[metric] = (first[key], "count")
    for name in PER_LAYER_SELF:
        m[f"{name}.self_s"] = (med(lambda s: s[f"{name}.self_s"]), "s")
    for name in SETUP_CALLS:
        m[f"{name}.self_s"] = (median([t.summary()[f"{name}.self_s"]
                                       for t in setup_tracers]), "s")
    ldd_calls = first["ldd.low_diam_decomp.calls"]
    m["ldd.low_diam_decomp.accept_ratio"] = (ratio(
        ldd_calls, ldd_calls + first["ldd.retries"]), "ratio")
    m["ldd.singleton_frac"] = (ratio(first["ldd.singletons"],
                                     first["ldd.clusters"]), "ratio")
    m["engine.one_round_short_cycle.yield_ratio"] = (ratio(
        first["one_round.yielding_calls"],
        first["engine.one_round_short_cycle.calls"]), "ratio")
    m["engine.recurse_ratio"] = (ratio(first["primitives.sparsify.calls"],
                                       first["contract_by_scd"]), "ratio")
    for level in (0, 1):
        m[f"engine.rounds.level{level}"] = (sum(
            lv[2] for lv in base.get("levels", ()) if lv[0] == level), "count")
    m["engine.decompose.max_cycle_len"] = (base.get("max_cycle_len", 0),
                                           "edges")
    m["trace.overhead_s"] = (median([t["decompose_s"] - b["decompose_s"]
                                     for b, t, _ in pairs
                                     if b["ok"] and t["ok"]]), "s")
    return m


def end_to_end_metrics(samples, setup_times) -> dict:
    ok = [s for s in samples if s["ok"]]
    first = ok[0] if ok else {"cycle_edges": 0, "cycles": 0, "leftover": 0,
                              "n": 0}
    values = {
        "decompose_s": median([s["decompose_s"] for s in ok]),
        "pipeline_s": median([s["pipeline_s"] for s in ok]),
        "setup_s": median(setup_times),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mean_cycle_len": ratio(first["cycle_edges"], first["cycles"]),
        "leftover_per_n": ratio(first["leftover"], first["n"]),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def print_span_table(pairs) -> None:
    """Calls and median self time of every traced function."""
    first = pairs[0][2]
    for key in sorted(first):
        if key.endswith(".calls"):
            name = key[:-len(".calls")]
            self_s = median([s[f"{name}.self_s"] for _, _, s in pairs])
            print(f"# span {name:<36} calls {first[key]:>8}  "
                  f"self_s {self_s:.6f} s")


def describe(name: str, values: list, unit: str) -> str:
    if not values:
        return f"{name:<16} no samples"
    return (f"{name:<16} median {median(values):.6g} {unit}  "
            f"min {min(values):.6g}  max {max(values):.6g}  "
            f"({len(values)} samples)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the graph (smoke test only)")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    params = wl.tiny_params if args.tiny else wl.params
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-s{args.seed}{'-tiny' if args.tiny else ''}"
    graph_path = OUT / f"{stem}.txt"
    print(f"# workload {wl.name}: {wl.model} {params} c={wl.c} "
          f"seed={args.seed} trace={args.trace}")

    warm_up()
    ref_clock = None if args.trace else ReferenceClock()
    if ref_clock is not None:
        ref_clock.__enter__()
    try:
        clock = ref_clock.now if ref_clock is not None else wall_clock
        setup_times, setup_walls, gen_digests, setup_tracers = run_setup(
            wl, params, args.seed, graph_path, traced=bool(args.trace),
            clock=clock)
        if not args.trace:
            samples = timed_runs(wl, graph_path, args.seed, args.seconds,
                                 clock)
    finally:
        if ref_clock is not None:
            ref_clock.__exit__(None, None, None)
    problems = []
    if len(gen_digests) != 1:
        problems.append("generate is not deterministic for this seed")
    ledger = Ledger(OUT / "digests.jsonl", {
        "src": source_digest(), "workload": wl.name, "seed": args.seed,
        "tiny": args.tiny})

    if args.trace:
        pairs, found = traced_runs(wl, graph_path, args.seed, args.seconds,
                                   OUT / f"spans-{stem}.npz")
        problems += found
        samples = [res for b, t, _ in pairs for res in (b, t)]
        metrics = per_layer_metrics(pairs, setup_tracers)
    else:
        metrics = end_to_end_metrics(samples, setup_times)
    problems += check_samples(samples, ledger)

    failed = sum(not s["ok"] for s in samples)
    ok = [s for s in samples if s["ok"]]
    print(describe("setup_s", setup_times, "s"))
    if not args.trace:
        print(describe("setup_wall_s", setup_walls, "s"))
        for key in ("decompose_s", "pipeline_s", "decompose_wall_s",
                    "pipeline_wall_s"):
            print(describe(key, [s[key] for s in ok], "s"))
        print(f"# host slowdown: median {ref_clock.slowdown():.4g} over "
              f"{len(ref_clock.references)} reference timings")
    print(f"{'failed_frac':<16} {failed / len(samples):.6g} runs/runs  "
          f"({failed} of {len(samples)})")
    if ok:
        s = ok[0]
        print(f"# L={s['max_cycle_len']} leftover={s['leftover']} "
              f"cycles={s['cycles']} output_sha256={s['output_sha256']} "
              f"body_sha256={s['body_sha256']}")
    if args.trace:
        print_span_table(pairs)
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:.6g} {unit}")
    for msg in problems:
        print(f"# PROBLEM {msg}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
