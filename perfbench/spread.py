"""Run the benchmark over several seeds and report each end-to-end
metric's median and spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workloads gnm-c1,dreg-c2 --seeds 1-10

The spread is the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. Runs are
made one at a time, each as its own process.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{wl} seed {seed}: INCORRECT\n{out}")
                status = 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {wl:<11} {name:<16} median {med:<12.6g} "
                  f"spread {spread:.4f}  bound {bound}  {flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
