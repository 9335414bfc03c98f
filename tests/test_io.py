"""File formats, JSON round-trips, generators, seed derivation."""
import ast
import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shortcycles.io
from shortcycles import EngineConfig, GraphError, decompose
from shortcycles.io import (ParseError, d_regular, decomposition_from_dict,
                            decomposition_to_dict, decomposition_to_json,
                            generate, gnm, parallel_gadgets, parse_edge_list,
                            serialize_edge_list, torus)
from shortcycles.rng import mix64, words

import io_reference


# -- edge-list parsing ------------------------------------------------------

def test_parse_triangle():
    g = parse_edge_list("p scd 3 3\n0 1\n1 2\n2 0\n")
    assert g.n_total == 3 and g.m_total == 3
    assert g.endpoints(0) == (0, 1)
    assert g.endpoints(2) == (2, 0)


def test_parse_self_loop_degree():
    g = parse_edge_list(b"p scd 2 1\n0 0\n")
    assert g.degree(0) == 2
    assert g.degree(1) == 0


def test_parse_comments_and_blanks():
    g = parse_edge_list("# hi\n\np scd 2 1\n# mid\n0 1\n")
    assert g.m_total == 1


def test_parse_extra_edge_line():
    with pytest.raises(ParseError) as err:
        parse_edge_list("p scd 3 2\n0 1\n1 2\n2 0\n")
    assert err.value.line == 4


def test_parse_count_mismatch():
    with pytest.raises(ParseError):
        parse_edge_list("p scd 3 3\n0 1\n")


def test_parse_bad_header():
    with pytest.raises(ParseError):
        parse_edge_list("p xyz 3 3\n")
    with pytest.raises(ParseError):
        parse_edge_list("0 1\n")


@pytest.mark.parametrize("text", [
    "p scd 20 1\n1_0 1\n", "p scd 2 1\n+0 1\n", "p scd 2 1\n\u0661 0\n",
    "p scd 2_0 0\n", "p scd 2 +0\n", "p scd \u0662 0\n",
    b"p scd 2 1\n0 1\n# \xff\n"])
def test_parse_refuses_non_ascii_digit_ids(text):
    with pytest.raises(ParseError):
        parse_edge_list(text)


def test_parse_endpoint_out_of_range():
    with pytest.raises(ParseError):
        parse_edge_list("p scd 2 1\n0 5\n")


# Edge-list texts near the accepted language: valid edge lines mixed with
# comments, blank lines, every line break str.splitlines knows, unusual
# whitespace, signs, "_", Arabic-Indic digits, ids out of range, over-long
# digit strings and the wrong number of edge lines or tokens.
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
_SPACES = [" ", "\t", "  ", "\x1f", "\xa0", "\u3000"]
_ODD_IDS = ["+1", "-0", "1_0", "\u0661", "0" * 25 + "1", "9" * 30,
            "0" * 4301, "4" * 4300, str(2 ** 31), str(2 ** 63), "1.0", "x",
            "#2"]


@st.composite
def _edge_texts(draw):
    n = draw(st.integers(0, 6))
    ident = st.one_of(st.integers(0, max(n - 1, 0)).map(str),
                      st.integers(n, n + 2).map(str),
                      st.sampled_from(_ODD_IDS))
    sep = st.sampled_from(_SPACES)
    good = st.tuples(st.integers(0, max(n - 1, 0)).map(str), sep,
                     st.integers(0, max(n - 1, 0)).map(str)).map("".join)
    other = st.one_of(
        st.tuples(ident, sep, ident).map("".join),
        st.tuples(sep, good, sep).map("".join),
        st.just(""), sep,
        st.sampled_from(["# note", "  #", "#1 2", "\t# x y z"]),
        st.lists(ident, min_size=1, max_size=3).map(" ".join))
    # Mostly valid edge lines, so a bad one may sit after several good
    # ones, in any block.
    body = draw(st.lists(good, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        body.insert(draw(st.integers(0, len(body))), draw(other))
    m = draw(st.sampled_from([len(body), len(body), max(len(body) - 1, 0),
                              len(body) + 1, 0]))
    header = draw(st.sampled_from([f"p scd {n} {m}", f"p scd {n} {m}",
                                   f"p  scd\t{n} {m} ", f"p scd {n}",
                                   f"p scd {n} {2 ** 31}", "# lead"]))
    lines = draw(st.lists(st.sampled_from(["", "# c", " "]), max_size=2))
    lines += [header] + body
    breaks = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines),
                           max_size=len(lines)))
    text = "".join(a + b for a, b in zip(lines, breaks))
    return text.encode() if draw(st.booleans()) else text


@st.composite
def _canonical_texts(draw):
    """Texts in serialize_edge_list's form, "<digits> <digits>\\n" lines
    after the header, mostly valid: ids with leading zeros, ids out of
    range, 10- and 11-digit ids, m-1 or m+1 edge lines, and a last line
    without its line break."""
    n = draw(st.sampled_from([0, 1, 3, 10, 97, 1000]))
    ident = st.one_of(
        st.integers(0, max(n - 1, 0)).map(str),
        st.tuples(st.sampled_from(["0", "00", "0" * 9]),
                  st.integers(0, max(n - 1, 0)).map(str)).map("".join),
        st.integers(n, n + 2).map(str),
        st.sampled_from(["9" * 10, "0" * 10 + "1", str(10 ** 10)]))
    valid = st.integers(0, max(n - 1, 0)).map(str)
    lines = draw(st.lists(st.tuples(valid, valid), max_size=40))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))),
                     (draw(ident), draw(ident)))
    m = draw(st.sampled_from([len(lines)] * 6 + [len(lines) + 1,
                                                 max(len(lines) - 1, 0)]))
    text = f"p scd {n} {m}\n" + "".join(f"{u} {v}\n" for u, v in lines)
    if lines and draw(st.integers(0, 4)) == 0:
        text = text[:-1]
    return text.encode() if draw(st.booleans()) else text


def _parsed(parse, text):
    try:
        g = parse(text)
    except ParseError as exc:
        return str(exc), exc.line
    return g.n_total, list(g.eu), list(g.ev), list(g.deg), g.m_active


@settings(max_examples=600, deadline=None)
@given(st.one_of(_edge_texts(), _canonical_texts()),
       st.sampled_from([1, 2, 3, shortcycles.io._BLOCK]),
       st.sampled_from([1, 5, 24, shortcycles.io._BYTES]))
def test_bulk_parse_matches_per_line_reference(text, block, size):
    """The same graph (n, eu, ev, degrees), or the same ParseError message
    and line, as the per-line parser it replaced, on texts near the
    language and on canonical ones (which the byte path reads), whether
    the edge lines are converted in one block or in several."""
    with mock.patch.multiple(shortcycles.io, _BLOCK=block, _BYTES=size):
        got = _parsed(parse_edge_list, text)
    assert got == _parsed(io_reference.parse_edge_list, text)


def test_canonical_files_take_the_byte_path():
    """Written files, and canonical texts with leading zeros up to 10
    digits, are read by the byte path, in one block or in many, with the
    ends the string path gives."""
    texts = [serialize_edge_list(g) for g in (
        gnm(20, 60, seed=0), torus(16), parallel_gadgets(6, 5),
        gnm(0, 0, seed=1), d_regular(300, 14, seed=3))]
    texts.append("p scd 1000 3\n0000000007 999\n0 00\n0000000999 0998\n")
    for text in texts:
        want = io_reference.parse_edge_list(text)
        for size in (1, 7, shortcycles.io._BYTES):
            with mock.patch.object(shortcycles.io, "_BYTES", size):
                got = shortcycles.io._parse_canonical(text.encode())
            assert got is not None
            n, eu, ev = got
            assert (n, eu.tolist(), ev.tolist()) == (
                want.n_total, list(want.eu), list(want.ev))


def test_round_trip_preserves_edge_ids():
    for g in [gnm(20, 60, seed=0), d_regular(16, 4, seed=1),
              torus(16), parallel_gadgets(6, 5)]:
        h = parse_edge_list(serialize_edge_list(g))
        assert list(h.eu) == list(g.eu)
        assert list(h.ev) == list(g.ev)


def test_serialize_requires_compact():
    g = gnm(5, 10, seed=0)
    g.delete_edge(3)
    with pytest.raises(GraphError):
        serialize_edge_list(g)


# -- decomposition JSON -----------------------------------------------------

def test_decomposition_json_round_trip():
    g = gnm(64, 2000, seed=4)
    dec = decompose(g, EngineConfig(c=1, seed=4))
    doc = decomposition_to_dict(dec, c=1, seed=4, wall_ms=12.5)
    back = decomposition_from_dict(json.loads(json.dumps(doc)))
    assert [c.edges for c in back.cycles] == [c.edges for c in dec.cycles]
    assert back.leftover == dec.leftover
    assert back.source_m == g.m_active
    total = sum(len(c) for c in doc["cycles"]) + len(doc["leftover"])
    assert total == doc["m"]


def test_decomposition_json_deterministic_modulo_wall():
    g = gnm(64, 1500, seed=6)
    a = decomposition_to_json(decompose(g, EngineConfig(c=1, seed=6)), 1, 6)
    b = decomposition_to_json(decompose(g, EngineConfig(c=1, seed=6)), 1, 6)
    assert a == b


def test_cycle_vertices_count_must_match_cycles():
    """One vertex list fewer than cycles, or more, is a malformed document,
    not a decomposition that silently lost its last cycle."""
    g = gnm(16, 480, seed=1)
    doc = decomposition_to_dict(decompose(g, EngineConfig(c=1, seed=1)),
                                c=1, seed=1)
    lists = doc["cycle_vertices"]
    assert len(doc["cycles"]) == len(lists) == 92
    for uneven in (lists[:-1], lists + [[0, 1]], [], lists[1:]):
        for graph in (g, None):
            with pytest.raises(ParseError,
                               match=f"92 cycles but {len(uneven)} vertex"):
                decomposition_from_dict({**doc, "cycle_vertices": uneven},
                                        graph)
    back = decomposition_from_dict(json.loads(json.dumps(doc)), g)
    assert len(back.cycles) == 92


def test_repeated_leftover_id_is_refused():
    """A leftover that lists an edge twice is a malformed document, not
    a valid decomposition with k_hat_observed one short."""
    g = gnm(16, 480, seed=1)
    doc = decomposition_to_dict(decompose(g, EngineConfig(c=1, seed=1)),
                                c=1, seed=1)
    first = doc["leftover"][0]
    for graph in (g, None):
        with pytest.raises(ParseError,
                           match=f"leftover lists edge {first} twice"):
            decomposition_from_dict(
                {**doc, "leftover": doc["leftover"] + [first]}, graph)
    twice = doc["leftover"][5]
    with pytest.raises(ParseError, match=f"edge {twice} twice"):
        decomposition_from_dict({**doc, "leftover": [
            *doc["leftover"][:9], twice, first, *doc["leftover"][9:]]})
    back = decomposition_from_dict(json.loads(json.dumps(doc)), g)
    assert len(back.leftover) == len(doc["leftover"]) == 309


def test_decomposition_from_dict_id_errors_unchanged():
    """The id checks name the first list kind that holds a non-integer,
    bool included, in the order cycles, vertices, leftover."""
    base = {"cycles": [[0, 1]], "cycle_vertices": [[0, 1]], "leftover": [2],
            "m": 3, "n": 2}
    cases = [
        ({"cycles": [[0, True]]}, "each cycle must"),
        ({"cycles": [[0], "ab"]}, "each cycle must"),
        ({"cycles": {"a": [0]}}, "each cycle must"),
        ({"cycle_vertices": [[0, 1.0]]}, "each cycle's vertices must"),
        ({"cycle_vertices": [[0, 1]], "cycles": [[0], [None]]},
         "each cycle must"),
        ({"leftover": [2, "3"]}, "leftover must"),
        ({"leftover": (2,)}, "leftover must"),
        ({"cycles": 5}, "malformed decomposition JSON: TypeError"),
    ]
    for edit, message in cases:
        with pytest.raises(ParseError, match=message):
            decomposition_from_dict({**base, **edit})
    dec = decomposition_from_dict(base)
    assert dec.cycles[0].edges == [0, 1] and dec.leftover == {2}


# -- generators -------------------------------------------------------------

# sha256 of serialize_edge_list(generate(model, params, seed)) at seeds 1, 2
# and 3, recorded when gnm and d_regular came to draw from `rng.words`:
# the test suite's sizes, perfbench's tiny and full workload sizes, and a
# larger torus. torus and parallel_gadgets ignore the seed.
GENERATED_SHA256 = [
    ("gnm", {"n": 20, "m": 60}, [
        "3350ad30a6523093e6d4c363cdc311f99693dbc999fdb25ab7e08038083a7c77",
        "d126c4108a523c3864e6cb456f05fc9aa78986016cb8cba72aae4339ed4e8b00",
        "4ee10f29ab639902b97ff20b1cbc5fc629052dce7729640b6f526964d0097d46",
    ]),
    ("d_regular", {"n": 16, "d": 4}, [
        "d1e7075bae9cd323a9d333594ed34baa317ef36fe457678c5584af1b1394459b",
        "ef78409ea73bef422c6d8fd134cb262fbdad3926b42165d89dad5e14bd8367d6",
        "fb78abeca3f569618b4e3a77e24d093e85ef73c02e9cc9c3beedae3ec3b6fa7a",
    ]),
    ("torus", {"n": 16},
     ["3d3536e6fd695fe885a60fa88a945b64819b8180efff6435c8a44130056f7e81"] * 3),
    ("parallel_gadgets", {"n": 6, "d": 5},
     ["d5c10ef9dd88a0abd1c01df77fa7dce3246b78def0cf4a943f7ecb0354c9d68a"] * 3),
    ("gnm", {"n": 64, "m": 1920}, [
        "e2dd0d5ddc024a29c4344860d15421dd5b2cb31b8b669800001914346cab56d9",
        "914f4c0a6083f8a109f62b39d57241caff5894273022e37b1c7550362153585d",
        "f05acd2c3beac157682581b533972fbe4ba771123e2ca61e96a59444ddf07091",
    ]),
    ("d_regular", {"n": 64, "d": 42}, [
        "0dcd8a913dcfa33d35fc2fe5b8a9c482243633a31ed8fe4f910c547e21ca4c8d",
        "c89b9174c4c861370759925ab9d7a162bb6bb67d1f6ad4e0a6748b8862b03c8e",
        "ece36d091c624e967dea6a9726d296cacdd28af6569ee66555978412cc7ae150",
    ]),
    ("parallel_gadgets", {"n": 64, "d": 60},
     ["d89e12a42a9fc01cf54e0bc79f3ebdda3c5a1e4d0029e3b320f6a75abf105cf7"] * 3),
    ("gnm", {"n": 512, "m": 15360}, [
        "5111696f91ab90c1918213d4a8ee3b78241ddcdcfb3f1d590c137174b35f8692",
        "d98de8b50f5ea3a79d79526b378e4631ff77b50806c3b1bef40ebaa9a525cd29",
        "2850af523840935064a5e4a446e3aa6a9451164453b2a452837181d6b6a47438",
    ]),
    ("d_regular", {"n": 4632, "d": 41}, [
        "9f6a3e0be805fab633545917d3dd28660d6a635435aebb99d638239246cd360c",
        "c6a10ca12804fadf5875883b7d78dd37f3b3f2284830827f0db8332d8ccba225",
        "00b0d45b1fdc971d1ada1015424ce26f84c7b3cd7566c6df3b7c78d75e62cb59",
    ]),
    ("parallel_gadgets", {"n": 2048, "d": 60},
     ["c106a190a91c747ef80a1a6db375b49e24083c8f6203a4760b55b63478e8db25"] * 3),
    ("torus", {"n": 1024},
     ["f3ec1fd0f5697e9d33a82e47389ccc1a204dee85143ef90b066197a68332adee"] * 3),
]


@pytest.mark.parametrize("model, params, digests", GENERATED_SHA256)
def test_generated_files_are_pinned(model, params, digests):
    for seed, want in zip((1, 2, 3), digests):
        text = serialize_edge_list(generate(model, params, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == want, seed


def test_generators_at_degenerate_sizes():
    assert serialize_edge_list(gnm(0, 0, seed=1)) == "p scd 0 0\n"
    assert serialize_edge_list(gnm(1, 3, seed=1)) == "p scd 1 3\n" + \
        "0 0\n" * 3
    assert serialize_edge_list(d_regular(5, 0, seed=1)) == "p scd 5 0\n"
    assert serialize_edge_list(torus(0)) == "p scd 0 0\n"
    assert serialize_edge_list(torus(1)) == "p scd 1 2\n0 0\n0 0\n"
    assert serialize_edge_list(parallel_gadgets(4, 0)) == "p scd 4 0\n"
    for make in (lambda: gnm(-1, 0, seed=1), lambda: d_regular(-2, 4, 1),
                 lambda: parallel_gadgets(-2, 3)):
        with pytest.raises(ValueError):
            make()


def test_gnm_empty():
    g = gnm(4, 0, seed=0)
    assert g.m_total == 0 and g.n_total == 4


def test_gnm_counts():
    g = gnm(10, 55, seed=1)
    assert g.n_total == 10 and g.m_total == 55


def test_d_regular_degrees():
    g = d_regular(12, 3, seed=2)
    assert all(g.degree(v) == 3 for v in range(12))


def test_d_regular_odd_product_rejected():
    with pytest.raises(GraphError):
        d_regular(5, 3, seed=0)


def test_torus_shape():
    g = torus(16)
    assert g.m_total == 32
    assert all(g.degree(v) == 4 for v in range(16))


def test_torus_rejects_non_square():
    with pytest.raises(GraphError):
        torus(10)


def test_parallel_gadgets_shape():
    g = parallel_gadgets(6, 4)
    assert g.m_total == 12
    assert all(g.degree(v) == 4 for v in range(6))
    with pytest.raises(GraphError):
        parallel_gadgets(5, 4)


def test_generators_deterministic():
    assert list(gnm(30, 90, seed=7).eu) == list(gnm(30, 90, seed=7).eu)
    assert list(d_regular(30, 4, seed=7).eu) == \
        list(d_regular(30, 4, seed=7).eu)


def test_generate_dispatch():
    g = generate("torus", {"n": 9}, seed=0)
    assert g.n_total == 9
    with pytest.raises(GraphError):
        generate("nope", {}, seed=0)


# -- seed derivation --------------------------------------------------------

def _splitmix64(x):
    mask = (1 << 64) - 1
    z = x & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_mix64_matches_splitmix_finalizer():
    for seed in (0, 1, 12345, 2 ** 63):
        for idx in (0, 1, 7):
            x = seed + 0x9E3779B97F4A7C15 * (idx + 1)
            assert mix64(seed, idx) == _splitmix64(x)


def test_mix64_streams_distinct():
    vals = {mix64(0, i) for i in range(100)}
    assert len(vals) == 100
    assert all(0 <= v < 2 ** 64 for v in vals)


def test_words_pinned():
    """The first raw PCG64 words of two seeds: a change of numpy's stream
    shows here before it shows in any generated graph or decomposition."""
    assert words(0, 3).tolist() == [
        0xA30FEBCFD9C2825F, 0x4510BDF882D9D721, 0x0A7D3DA94ECDE8B8]
    assert words(12345, 3).tolist() == [
        0x3A32B18DB2FFC19D, 0x51171315C9E4C4DE, 0xCC2024823444EFD9]
    assert words(12345, 0).tolist() == []


def test_words_take_every_int_seed_mod_2_64():
    for seed in (-1, -3, 2 ** 64, 2 ** 70 + 5):
        assert words(seed, 4).tolist() == words(seed % 2 ** 64, 4).tolist()


def test_only_rng_draws_random_bits():
    """rng.py is the one module that decides where random bits come from:
    no other module of the package imports `random` or `numpy.random`,
    or reads `np.random`."""
    paths = sorted(Path(shortcycles.io.__file__).resolve().parent
                   .glob("*.py"))
    assert len(paths) > 5
    for path in paths:
        if path.name == "rng.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
                names.append(node.module or "")
            elif isinstance(node, ast.Attribute):
                names = [f"{getattr(node.value, 'id', '')}.{node.attr}"]
            else:
                continue
            for name in names:
                assert not (name.split(".")[0] == "random"
                            or name.startswith(("numpy.random", "np.random"))
                            ), (path.name, name)
