"""Edge-list file format, decomposition JSON, and random graph models."""
from __future__ import annotations

import json
import math
import random

from .engine import CycleDecomposition, LevelStats
from .graph import GraphError, MultiGraph
from .primitives import Cycle


class ParseError(ValueError):
    def __init__(self, msg, line=None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)
        self.line = line


# ---------------------------------------------------------------------------
# Edge-list files: "p scd <n> <m>" header, then one "<u> <v>" line per edge.
# Edge ids are assigned by line order; '#' lines are ignored.

def _decimal(token: str) -> bool:
    return token.isascii() and token.isdigit()


def parse_edge_list(data) -> MultiGraph:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from None
    # int() also reads signs, "_" and other scripts' digits, which ids may
    # not hold; only a text holding one of them needs a check per line.
    check = not data.isascii() or any(c in data for c in "+-_")
    g = None
    n = m = 0
    edge_lines = 0
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if g is None:
            parts = line.split()
            if (len(parts) != 4 or parts[:2] != ["p", "scd"]
                    or not all(map(_decimal, parts[2:]))):
                raise ParseError(f"malformed header {line!r}", lineno)
            try:   # int() refuses strings of more than 4300 digits
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed header {line!r}", lineno)
            # Ids are stored as int32; refuse before allocating n slots.
            if not (0 <= n < 2 ** 31 and 0 <= m < 2 ** 31):
                raise ParseError("header counts must lie in [0, 2^31)",
                                 lineno)
            g = MultiGraph(n)
            continue
        parts = line.split()
        if len(parts) != 2 or (check and not _decimal(parts[0] + parts[1])):
            raise ParseError(f"malformed edge line {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"malformed edge line {line!r}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range in {line!r}", lineno)
        edge_lines += 1
        if edge_lines > m:
            raise ParseError(f"more than {m} edge lines", lineno)
        g.add_edge(u, v)
    if g is None:
        raise ParseError("missing header")
    if edge_lines != m:
        raise ParseError(f"header says m={m}, file has {edge_lines} edges")
    return g


def serialize_edge_list(g: MultiGraph) -> str:
    if g.m_active != g.m_total or g.n_active != g.n_total:
        raise GraphError("serialize requires a compacted graph")
    lines = [f"p scd {g.n_total} {g.m_total}"]
    for e in range(g.m_total):
        lines.append(f"{g.eu[e]} {g.ev[e]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Decomposition JSON.

def decomposition_to_dict(dec: CycleDecomposition, c: int, seed: int,
                          wall_ms: float | None = None) -> dict:
    histogram: dict[int, int] = {}
    for cyc in dec.cycles:
        histogram[len(cyc)] = histogram.get(len(cyc), 0) + 1
    return {
        "n": dec.source_n,
        "m": dec.source_m,
        "c": c,
        "seed": seed,
        "cycles": [list(cyc.edges) for cyc in dec.cycles],
        "cycle_vertices": [list(cyc.vertices) for cyc in dec.cycles],
        "leftover": sorted(dec.leftover),
        "stats": {
            "k_hat_observed": len(dec.leftover),
            "max_cycle_length": dec.max_cycle_length(),
            "length_histogram": {str(k): histogram[k]
                                 for k in sorted(histogram)},
            "levels": [
                {"level": ls.level, "edges_processed": ls.edges_processed,
                 "rounds": ls.rounds, "ldd_retries": ls.ldd_retries,
                 "cycles_found": ls.cycles_found}
                for ls in dec.level_stats
            ],
            "wall_ms": wall_ms,
        },
    }


def decomposition_to_json(dec, c, seed, wall_ms=None) -> str:
    return json.dumps(decomposition_to_dict(dec, c, seed, wall_ms),
                      indent=None, separators=(",", ":")) + "\n"


def _ids(value, what: str) -> list[int]:
    """`value` if it is a list of integer ids; ParseError otherwise."""
    if isinstance(value, list) and all(type(x) is int for x in value):
        return value
    raise ParseError(f"{what} must be a list of integer ids")


def _walk_vertices(g: MultiGraph, edges: list[int]) -> list[int]:
    """Vertices of the closed walk along `edges` on g, starting where the
    last edge meets the first; ids outside g give -1s, which verification
    reports as dangling."""
    if not edges or not all(0 <= e < g.m_total for e in edges):
        return [-1] * len(edges)
    a, b = g.endpoints(edges[0])
    v = a if a in g.endpoints(edges[-1]) else b
    verts = [v]
    for e in edges[:-1]:
        v = g.other_end(e, v)
        verts.append(v)
    return verts


def decomposition_from_dict(d: dict, g: MultiGraph | None = None
                            ) -> CycleDecomposition:
    """The decomposition a JSON document describes. Edge ids are the
    authoritative encoding: without `cycle_vertices`, each cycle's vertices
    are derived by walking its edges on `g`. Non-integer ids raise
    ParseError."""
    try:
        edge_lists = [_ids(es, "each cycle") for es in d["cycles"]]
        if "cycle_vertices" in d:
            vertex_lists = [_ids(vs, "each cycle's vertices")
                            for vs in d["cycle_vertices"]]
        elif g is not None:
            vertex_lists = [_walk_vertices(g, es) for es in edge_lists]
        else:
            raise ParseError("decomposition JSON lacks cycle_vertices")
        stats = [LevelStats(level=ls["level"],
                            edges_processed=ls["edges_processed"],
                            rounds=ls["rounds"], ldd_retries=ls["ldd_retries"],
                            cycles_found=ls["cycles_found"])
                 for ls in d.get("stats", {}).get("levels", [])]
        return CycleDecomposition(
            cycles=[Cycle(edges=es, vertices=vs)
                    for es, vs in zip(edge_lists, vertex_lists)],
            leftover=set(_ids(d["leftover"], "leftover")),
            source_m=d["m"], source_n=d["n"], level_stats=stats)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ParseError(f"malformed decomposition JSON: {exc!r}") from None


# ---------------------------------------------------------------------------
# Random graph models (all fully determined by their seed).

def gnm(n: int, m: int, seed: int) -> MultiGraph:
    """n vertices, m uniformly random endpoint pairs; loops allowed."""
    if n < 1 and m > 0:
        raise GraphError("gnm with edges needs n >= 1")
    rng = random.Random(seed)
    g = MultiGraph(n)
    for _ in range(m):
        g.add_edge(rng.randrange(n), rng.randrange(n))
    return g


def d_regular(n: int, d: int, seed: int) -> MultiGraph:
    """Configuration model: uniform pairing of d stubs per vertex.
    Parallel edges and self-loops possible; requires d*n even."""
    if (d * n) % 2 != 0:
        raise GraphError("d_regular requires d*n even")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    g = MultiGraph(n)
    for i in range(0, len(stubs), 2):
        g.add_edge(stubs[i], stubs[i + 1])
    return g


def torus(n: int, seed: int = 0) -> MultiGraph:
    """sqrt(n) x sqrt(n) grid with wraparound; 4-regular, m = 2n."""
    side = math.isqrt(n)
    if side * side != n:
        raise GraphError(f"torus needs a perfect-square n, got {n}")
    g = MultiGraph(n)
    for r in range(side):
        for c in range(side):
            v = r * side + c
            g.add_edge(v, r * side + (c + 1) % side)
            g.add_edge(v, ((r + 1) % side) * side + c)
    return g


def parallel_gadgets(n: int, d: int, seed: int = 0) -> MultiGraph:
    """n/2 disjoint vertex pairs, each joined by d parallel edges."""
    if n % 2 != 0:
        raise GraphError("parallel_gadgets requires even n")
    g = MultiGraph(n)
    for i in range(0, n, 2):
        for _ in range(d):
            g.add_edge(i, i + 1)
    return g


MODELS = {
    "gnm": gnm,
    "d_regular": d_regular,
    "torus": torus,
    "parallel_gadgets": parallel_gadgets,
}


def generate(model: str, params: dict, seed: int) -> MultiGraph:
    if model not in MODELS:
        raise GraphError(f"unknown model {model!r}; "
                         f"choose from {sorted(MODELS)}")
    return MODELS[model](seed=seed, **params)
