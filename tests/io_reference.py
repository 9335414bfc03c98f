"""The per-line edge-list parser the bulk `shortcycles.io.parse_edge_list`
replaced, kept for cross-checks: it reads each line with int() and
add_edge, and accepts the same language with the same errors."""
from shortcycles.graph import MultiGraph
from shortcycles.io import ParseError


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
