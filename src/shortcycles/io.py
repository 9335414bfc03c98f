"""Edge-list file format, decomposition JSON, and random graph models."""
from __future__ import annotations

import json
import math
import re
from collections import Counter
from itertools import chain

import numpy as np

from .engine import CycleDecomposition, LevelStats
from .graph import GraphError, MultiGraph
from .primitives import Cycle, lengths
from .rng import words


class ParseError(ValueError):
    def __init__(self, msg, line=None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)
        self.line = line


# ---------------------------------------------------------------------------
# Edge-list files: "p scd <n> <m>" header, then one "<u> <v>" line per edge.
# Edge ids are assigned by line order; '#' lines are ignored.

# Edge lines parsed or formatted at a time. It bounds the transient token
# and id lists (16 bytes of pointers per line, besides the objects), which
# keeps the parse's and the writer's peak memory, and the process's after
# them, near a per-line pass.
_BLOCK = 1 << 14


def _decimal(token: str) -> bool:
    return token.isascii() and token.isdigit()


def _id_value(token: str) -> int:
    """int(token) capped at 2^31, above every id, or -1 when token is not
    an ASCII decimal that int() reads (it refuses over-long ones)."""
    if not _decimal(token):
        return -1
    try:
        return min(int(token), 2 ** 31)
    except ValueError:
        return -1


# A canonical file: the header line, then only "<digits> <digits>\n" lines,
# as serialize_edge_list writes it. Its edge lines are read as bytes,
# _BYTES at a time (ending at a line end); ids of more than 10 digits send
# the file to the string path.
_CANONICAL_HEADER = re.compile(rb"p scd ([0-9]{1,10}) ([0-9]{1,10})\n")
_BYTES = 1 << 18


def _token_values(d: np.ndarray, end: np.ndarray, size: np.ndarray,
                  width: int) -> np.ndarray:
    """The decimal values of the tokens of digit values `d` that end
    before `end` and hold `size` digits each, none more than `width`: a
    positional sum over the right-aligned digits."""
    val = np.zeros(len(end), dtype=np.int64)
    for j in range(width, 0, -1):
        val *= 10
        val += np.where(size >= j, d[end - j], 0)
    return val


def _parse_canonical(data: bytes):
    """(n, eu, ev) of a canonical edge-list file, or None for any other
    file, and for a canonical one with an id of more than 10 digits, an id
    out of range or another number of edge lines than its header's m.

    Each block of edge lines is one pass of array steps: the non-digit
    bytes must alternate ' ' and '\n', which bounds every token; the ids
    are positional digit sums and are checked against n on the block."""
    head = _CANONICAL_HEADER.match(data)
    if head is None or (len(data) > head.end() and data[-1] != 10):
        return None
    n, m = int(head[1]), int(head[2])
    # An edge line takes at least 4 bytes ("0 0\n"), so this refuses a
    # file too short for m before allocating m slots.
    if n >= 2 ** 31 or m >= 2 ** 31 or 4 * m > len(data) - head.end():
        return None
    eu = np.empty(m, dtype=np.int32)
    ev = np.empty(m, dtype=np.int32)
    buf = np.frombuffer(data, dtype=np.uint8)
    done = 0
    lo = head.end()
    while lo < len(data):
        hi = data.find(b"\n", min(lo + _BYTES, len(data)) - 1) + 1
        b = buf[lo:hi]
        d = b - np.uint8(48)   # digits 0 .. 9; other bytes wrap past 9
        sep = np.flatnonzero(d > 9)
        space, end = sep[0::2], sep[1::2]
        if (len(sep) % 2 or done + len(end) > m or (b[space] != 32).any()
                or (b[end] != 10).any()):
            return None
        start = np.concatenate(([0], end[:-1] + 1))
        nu = space - start
        nv = end - space - 1
        width = int(max(nu.max(), nv.max()))
        if min(nu.min(), nv.min()) < 1 or width > 10:
            return None
        u = _token_values(d, space, nu, width)
        v = _token_values(d, end, nv, width)
        if max(u.max(), v.max()) >= n:
            return None
        eu[done:done + len(end)] = u
        ev[done:done + len(end)] = v
        done += len(end)
        lo = hi
    return (n, eu, ev) if done == m else None


def parse_edge_list(data) -> MultiGraph:
    """The graph an edge-list text (str, or UTF-8 bytes) describes.

    Lines split as str.splitlines and tokens as str.split; blank lines and
    lines whose first token starts with '#' are skipped. The first other
    line is the header "p scd <n> <m>", each later one an edge "<u> <v>";
    counts and ids are ASCII decimals, counts in [0, 2^31) and ids below
    n, and there must be exactly m edge lines. ParseError names the first
    bad line, checking each for shape, then digits, then range, and the
    (m+1)-th edge line for the count.

    A canonical file (ASCII) is read by `_parse_canonical`, in array
    passes over its bytes. Every other file, and every canonical one that
    pass refuses, takes the string path, the only one that words errors:
    one token count per line, then per block of _BLOCK edge lines one
    split, one digit check over the joined tokens and one int conversion.
    Only a block holding a bad token reads its tokens one by one, to find
    the first.
    """
    raw = data if isinstance(data, bytes) else (
        data.encode() if data.isascii() else None)
    canonical = raw is not None and _parse_canonical(raw)
    if canonical:
        return MultiGraph.from_edges(*canonical)
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from None
    lines = data.splitlines()
    if "#" in data:   # blank the comment lines, keeping line numbers
        lines = ["" if line.lstrip().startswith("#") else line
                 for line in lines]
    counts = np.fromiter(map(len, map(str.split, lines)), dtype=np.int32,
                         count=len(lines))
    rows = np.flatnonzero(counts)   # the header and the edge lines
    if not len(rows):
        raise ParseError("missing header")
    head = int(rows[0])
    line = lines[head].strip()
    parts = line.split()
    if (len(parts) != 4 or parts[:2] != ["p", "scd"]
            or not all(map(_decimal, parts[2:]))):
        raise ParseError(f"malformed header {line!r}", head + 1)
    try:   # int() refuses strings of more than 4300 digits
        n, m = int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError(f"malformed header {line!r}", head + 1)
    # Ids are stored as int32; refuse before allocating n slots.
    if not (0 <= n < 2 ** 31 and 0 <= m < 2 ** 31):
        raise ParseError("header counts must lie in [0, 2^31)", head + 1)
    rows = rows[1:]

    def bad_line(i: int, what: str):
        row = int(rows[i])
        return ParseError(what.format(repr(lines[row].strip())), row + 1)

    # Only the edge lines before the first misshapen one, and at most m + 1
    # of them, can hold the first bad line; each of those has two tokens.
    shape = np.flatnonzero(counts[rows] != 2)
    checked = min(int(shape[0]) if len(shape) else len(rows), m + 1)
    eu = np.empty(checked, dtype=np.int32)
    ev = np.empty(checked, dtype=np.int32)
    for lo in range(0, checked, _BLOCK):
        hi = min(lo + _BLOCK, checked)
        # Skipped lines between the block's edge lines hold no tokens.
        tokens = " ".join(lines[rows[lo]:rows[hi - 1] + 1]).split()
        ids = None
        joined = "".join(tokens)
        if joined.isascii() and joined.isdigit():
            try:   # a digit string past int64 or int()'s digit limit
                ids = np.array(tokens, dtype=np.int64)
            except (ValueError, OverflowError):
                pass
        if ids is None:
            ids = np.fromiter(map(_id_value, tokens), dtype=np.int64,
                              count=len(tokens))
        ids = ids.reshape(-1, 2)
        bad = np.flatnonzero(((ids < 0) | (ids >= n)).any(axis=1))
        if len(bad):
            i = int(bad[0])
            if (ids[i] < 0).any():
                raise bad_line(lo + i, "malformed edge line {}")
            raise bad_line(lo + i, "endpoint out of range in {}")
        eu[lo:hi] = ids[:, 0]
        ev[lo:hi] = ids[:, 1]
    if checked < min(len(rows), m + 1):
        raise bad_line(checked, "malformed edge line {}")
    if len(rows) > m:
        raise ParseError(f"more than {m} edge lines", int(rows[m]) + 1)
    if len(rows) != m:
        raise ParseError(f"header says m={m}, file has {len(rows)} edges")
    return MultiGraph.from_edges(n, eu, ev)


def serialize_edge_list(g: MultiGraph) -> str:
    """The edge-list text of a compacted graph, edges in id order. Each
    block of _BLOCK edges is formatted by one %-format over its ends."""
    if g.m_active != g.m_total or g.n_active != g.n_total:
        raise GraphError("serialize requires a compacted graph")
    ends = np.column_stack((np.frombuffer(g.eu, dtype=np.int32),
                            np.frombuffer(g.ev, dtype=np.int32)))
    out = [f"p scd {g.n_total} {g.m_total}\n"]
    for lo in range(0, g.m_total, _BLOCK):
        block = ends[lo:lo + _BLOCK]
        out.append("%d %d\n" * len(block) % tuple(block.ravel().tolist()))
    return "".join(out)


# ---------------------------------------------------------------------------
# Decomposition JSON.

def decomposition_to_dict(dec: CycleDecomposition, c: int, seed: int,
                          wall_ms: float | None = None) -> dict:
    cycles, cycle_vertices = dec.id_lists()
    histogram = Counter(map(len, cycles))
    return {
        "n": dec.source_n,
        "m": dec.source_m,
        "c": c,
        "seed": seed,
        "cycles": cycles,
        "cycle_vertices": cycle_vertices,
        "leftover": sorted(dec.leftover),
        "stats": {
            "k_hat_observed": len(dec.leftover),
            "max_cycle_length": max(histogram, default=0),
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
    if isinstance(value, list) and set(map(type, value)) <= {int}:
        return value
    raise ParseError(f"{what} must be a list of integer ids")


def _id_lists(value, what: str) -> tuple[list[list[int]], list[int]]:
    """The items of `value` as a list, if each is a list of integer ids,
    and their ids chained; ParseError otherwise. Both checks are passes
    over the types: of the items, then of the chained ids."""
    lists = list(value)
    if all(issubclass(t, list) for t in set(map(type, lists))):
        flat = list(chain.from_iterable(lists))
        if set(map(type, flat)) <= {int}:
            return lists, flat
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
    are derived by walking its edges on `g`. Non-integer ids, a
    `cycle_vertices` whose length is not that of `cycles`, and an id
    listed twice in `leftover` raise ParseError. The cycles go straight
    into the decomposition's arrays; only a document holding an id past
    int64 gets them as a list of Cycle, which keeps every id exactly."""
    try:
        edge_lists, flat_e = _id_lists(d["cycles"], "each cycle")
        if "cycle_vertices" in d:
            vertex_lists, flat_v = _id_lists(d["cycle_vertices"],
                                             "each cycle's vertices")
            if len(vertex_lists) != len(edge_lists):
                raise ParseError(f"{len(edge_lists)} cycles but "
                                 f"{len(vertex_lists)} vertex lists")
        elif g is not None:
            vertex_lists = [_walk_vertices(g, es) for es in edge_lists]
            flat_v = list(chain.from_iterable(vertex_lists))
        else:
            raise ParseError("decomposition JSON lacks cycle_vertices")
        stats = [LevelStats(level=ls["level"],
                            edges_processed=ls["edges_processed"],
                            rounds=ls["rounds"], ldd_retries=ls["ldd_retries"],
                            cycles_found=ls["cycles_found"])
                 for ls in d.get("stats", {}).get("levels", [])]
        left = _ids(d["leftover"], "leftover")
        leftover = set(left)
        if len(leftover) != len(left):
            seen = set()
            twice = next(e for e in left if e in seen or seen.add(e))
            raise ParseError(f"leftover lists edge {twice} twice")
        source_m, source_n = d["m"], d["n"]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ParseError(f"malformed decomposition JSON: {exc!r}") from None
    cycles = None
    try:
        arrays = (np.array(flat_e, dtype=np.int64),
                  np.array(flat_v, dtype=np.int64),
                  lengths(edge_lists), lengths(vertex_lists))
    except OverflowError:
        arrays = None
        cycles = [Cycle(edges=es, vertices=vs)
                  for es, vs in zip(edge_lists, vertex_lists)]
    return CycleDecomposition(cycles=cycles, leftover=leftover,
                              source_m=source_m, source_n=source_n,
                              level_stats=stats, arrays=arrays)


# ---------------------------------------------------------------------------
# Random graph models (all fully determined by their seed).

def gnm(n: int, m: int, seed: int) -> MultiGraph:
    """n vertices, m uniformly random endpoint pairs; loops allowed. The
    ends are `words(seed, 2m)` mod n, edge i taking words 2i and 2i + 1."""
    if n < 1 and m > 0:
        raise GraphError("gnm with edges needs n >= 1")
    ends = (words(seed, 2 * max(m, 0)) % np.uint64(max(n, 1))).astype(
        np.int64)
    return MultiGraph.from_edges(n, ends[0::2], ends[1::2])


def d_regular(n: int, d: int, seed: int) -> MultiGraph:
    """Configuration model: uniform pairing of d stubs per vertex.
    Parallel edges and self-loops possible; requires d*n even. The stubs
    (d copies of each vertex, ascending) are permuted by a stable sort of
    one word of `words(seed, d*n)` each, and paired in order."""
    if (d * n) % 2 != 0:
        raise GraphError("d_regular requires d*n even")
    stubs = np.repeat(np.arange(n), max(d, 0))
    ends = stubs[np.argsort(words(seed, len(stubs)), kind="stable")]
    return MultiGraph.from_edges(n, ends[0::2], ends[1::2])


def torus(n: int, seed: int = 0) -> MultiGraph:
    """sqrt(n) x sqrt(n) grid with wraparound; 4-regular, m = 2n. Vertex
    v = r*side + c has edges 2v, to its right, and 2v + 1, below it."""
    side = math.isqrt(n)
    if side * side != n:
        raise GraphError(f"torus needs a perfect-square n, got {n}")
    r, c = np.divmod(np.arange(n), side)
    ends = np.column_stack((r * side + (c + 1) % side,
                            (r + 1) % side * side + c))
    return MultiGraph.from_edges(n, np.repeat(np.arange(n), 2),
                                 ends.ravel())


def parallel_gadgets(n: int, d: int, seed: int = 0) -> MultiGraph:
    """n/2 disjoint vertex pairs, each joined by d parallel edges."""
    if n % 2 != 0:
        raise GraphError("parallel_gadgets requires even n")
    eu = np.repeat(np.arange(0, n, 2), max(d, 0))
    return MultiGraph.from_edges(n, eu, eu + 1)


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
