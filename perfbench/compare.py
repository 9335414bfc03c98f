"""Summarise the output-digest ledger that `run.py` appends to.

    python3 perfbench/compare.py [LEDGER ...]    (default .bench_out/digests.jsonl)

Reports, for the same library source, workload and seed:
* whether every run set that recorded it produced the same output bytes;
* whether workloads that decompose the same graph at different c produced
  the same decomposition, ignoring the `c` field of the JSON (none of the
  current workloads share a graph).

Exits 1 if repeated runs of the same source disagree; a difference between
workloads is reported but is not an error, since a change that makes c=2
recurse at smaller sizes is allowed to change it.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402

DEFAULT = Path(__file__).resolve().parent.parent / ".bench_out/digests.jsonl"


def load(paths):
    records = []
    for path in paths:
        for line in Path(path).read_text().splitlines():
            records.append(json.loads(line))
    return records


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:]) or [DEFAULT]
    records = load(paths)
    runs = defaultdict(set)
    counts = defaultdict(int)
    for r in records:
        key = (r["src"], r["workload"], r["seed"], r["tiny"])
        runs[key].add(r["output_sha256"])
        counts[key] += 1
    repeated = [k for k in runs if counts[k] > 1]
    split = [k for k in repeated if len(runs[k]) > 1]
    print(f"{len(runs)} (source, workload, seed) keys, "
          f"{len(repeated)} recorded more than once, "
          f"{len(split)} with differing output")
    for key in split:
        print(f"  DIFFERS {key}: {sorted(runs[key])}")

    body = {}
    for r in records:
        body[(r["src"], r["workload"], r["seed"], r["tiny"])] = \
            r["body_sha256"]
    names = sorted(WORKLOADS)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            wa, wb = WORKLOADS[a], WORKLOADS[b]
            if (wa.model, wa.params) != (wb.model, wb.params):
                continue
            same = differ = 0
            for (src, wl, seed, tiny), digest in body.items():
                if wl != a or tiny:
                    continue
                other = body.get((src, b, seed, tiny))
                if other is None:
                    continue
                if other == digest:
                    same += 1
                else:
                    differ += 1
            print(f"{a} vs {b} (same graph): {same} seeds equal, "
                  f"{differ} differ")
    return 1 if split else 0


if __name__ == "__main__":
    sys.exit(main())
