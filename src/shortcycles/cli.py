"""Command-line interface: decompose / verify / gen / bench."""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from fractions import Fraction

from .engine import EngineConfig, EngineFailure, decompose
from .graph import GraphError
from .io import (ParseError, decomposition_from_dict, decomposition_to_dict,
                 generate, parse_edge_list, serialize_edge_list)
from .rng import mix64
from .verify import verify_decomposition

EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EX_USAGE)


def _parse_beta(text: str) -> Fraction:
    try:
        if "/" in text:
            p, q = text.split("/", 1)
            beta = Fraction(int(p), int(q))
        else:
            beta = Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(
            f"beta {text!r} has a zero denominator") from None
    if not (0 < beta <= 1):
        raise argparse.ArgumentTypeError(f"beta must be in (0, 1], got {text}")
    return beta


def _parse_depth(text: str) -> int:
    c = int(text)
    if c < 1:
        raise argparse.ArgumentTypeError(f"c must be >= 1, got {c}")
    return c


def _parse_count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"counts must be >= 0, got {n}")
    # Vertex and edge ids are stored as int32.
    if n >= 2 ** 31:
        raise argparse.ArgumentTypeError(f"counts must be below 2^31, got {n}")
    return n


def _parse_depths(text: str) -> list[int]:
    return [_parse_depth(c) for c in text.split(",")]


def _parse_sizes(text: str) -> list[int]:
    sizes = [int(s) for s in text.split(",")]
    if min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"sizes must be >= 1, got {text}")
    return sizes


def _bench_workers(text: str) -> int:
    """Worker count from SCD_THREADS: a positive integer, capped at the
    number of CPUs."""
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"SCD_THREADS must be a positive integer, "
                         f"got {text!r}")
    return min(threads, os.cpu_count() or 1)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="shortcycles",
                  description="Short cycle decomposition toolkit")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("decompose", help="decompose an edge-list file")
    p.add_argument("--input", required=True)
    p.add_argument("--c", type=_parse_depth, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", type=_parse_beta, default=Fraction(1, 12))
    p.add_argument("--output")
    p.add_argument("--stats", action="store_true")

    p = sub.add_parser("verify", help="verify a decomposition JSON")
    p.add_argument("--graph", required=True)
    p.add_argument("--decomposition", required=True)
    p.add_argument("--k-hat", type=int, required=True)
    p.add_argument("--l-max", type=int, required=True)

    p = sub.add_parser("gen", help="generate a random graph")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=_parse_count)
    p.add_argument("--m", type=_parse_count)
    p.add_argument("--d", type=_parse_count)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    p = sub.add_parser("bench", help="benchmark runner, CSV output")
    p.add_argument("--models", required=True, help="comma-separated")
    p.add_argument("--sizes", type=_parse_sizes, required=True,
                   help="comma-separated n values")
    p.add_argument("--c", type=_parse_depths, default="1",
                   help="comma-separated c values")
    p.add_argument("--density", type=int, default=30,
                   help="edges per vertex for gnm/d_regular/parallel_gadgets")
    p.add_argument("--seeds", type=int, default=1, help="seeds per cell")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--output", required=True)
    return top


def _model_params(model: str, n: int, m: int | None, d: int | None) -> dict:
    if model == "gnm":
        if m is None:
            raise GraphError("gnm needs --m")
        return {"n": n, "m": m}
    if model == "torus":
        return {"n": n}
    if model in ("d_regular", "parallel_gadgets"):
        if d is None:
            raise GraphError(f"{model} needs --d")
        return {"n": n, "d": d}
    raise GraphError(f"unknown model {model!r}")


def _cmd_decompose(args) -> int:
    try:
        with open(args.input, "rb") as fh:
            g = parse_edge_list(fh.read())
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cfg = EngineConfig(c=args.c, seed=args.seed, beta=args.beta)
    start = time.monotonic()
    failure = None
    try:
        dec = decompose(g, cfg)
    except EngineFailure as exc:
        failure = exc
        dec = exc.partial
    wall_ms = (time.monotonic() - start) * 1000.0
    doc = decomposition_to_dict(dec, args.c, args.seed, wall_ms)
    text = json.dumps(doc, indent=None, separators=(",", ":")) + "\n"
    try:
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.stats:
        print(json.dumps(doc["stats"], indent=2), file=sys.stderr)
    if failure is not None:
        print(f"engine failure: {failure}", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.graph, "rb") as fh:
            g = parse_edge_list(fh.read())
        with open(args.decomposition, encoding="utf-8") as fh:
            dec = decomposition_from_dict(json.load(fh), g)
    # json.load raises RecursionError on a document nested too deeply.
    except (OSError, ParseError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        report = verify_decomposition(g, dec, args.k_hat, args.l_max)
    except GraphError as exc:
        print(f"invalid: {exc}")
        return 1
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.valid else 1


def _cmd_gen(args) -> int:
    try:
        params = _model_params(args.model, args.n, args.m, args.d)
        g = generate(args.model, params, args.seed)
        with open(args.output, "w") as fh:
            fh.write(serialize_edge_list(g))
    except (OSError, GraphError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _bench_cell(cell):
    model, n, c, seed_ix, base_seed, density = cell
    cell_seed = mix64(base_seed, seed_ix)
    if model == "gnm":
        params = {"n": n, "m": density * n}
    elif model == "torus":
        params = {"n": n}
    else:
        params = {"n": n, "d": 2 * density}
    g = generate(model, params, cell_seed)
    cfg = EngineConfig(c=c, seed=cell_seed)
    start = time.monotonic()
    try:
        dec = decompose(g, cfg)
        status = "ok"
    except EngineFailure as exc:
        dec = exc.partial
        status = "failed"
    wall_ms = (time.monotonic() - start) * 1000.0
    rounds = sum(ls.rounds for ls in dec.level_stats)
    retries = sum(ls.ldd_retries for ls in dec.level_stats)
    return {
        "model": model, "n": n, "m": g.m_active, "c": c, "seed": cell_seed,
        "wall_ms": round(wall_ms, 3),
        "k_hat_observed": len(dec.leftover),
        "max_cycle_length": dec.max_cycle_length(),
        "rounds": rounds, "ldd_retries": retries, "status": status,
    }


def _cmd_bench(args) -> int:
    try:
        threads = _bench_workers(os.environ.get("SCD_THREADS", "1"))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    cells = []
    ix = 0
    for model in models:
        for n in args.sizes:
            for c in args.c:
                for _ in range(args.seeds):
                    cells.append((model, n, c, ix, args.base_seed,
                                  args.density))
                    ix += 1
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_bench_cell, cells))
    else:
        rows = [_bench_cell(cell) for cell in cells]
    fields = ["model", "n", "m", "c", "seed", "wall_ms", "k_hat_observed",
              "max_cycle_length", "rounds", "ldd_retries", "status"]
    try:
        with open(args.output, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    handlers = {
        "decompose": _cmd_decompose,
        "verify": _cmd_verify,
        "gen": _cmd_gen,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
