"""File formats, JSON round-trips, generators, seed derivation."""
import hashlib
import json
import math
import random
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
from shortcycles.rng import exponential, mix64, randbelows

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
    assert len(doc["cycles"]) == len(lists) == 93
    for uneven in (lists[:-1], lists + [[0, 1]], [], lists[1:]):
        for graph in (g, None):
            with pytest.raises(ParseError,
                               match=f"93 cycles but {len(uneven)} vertex"):
                decomposition_from_dict({**doc, "cycle_vertices": uneven},
                                        graph)
    back = decomposition_from_dict(json.loads(json.dumps(doc)), g)
    assert len(back.cycles) == 93


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
    assert len(back.leftover) == len(doc["leftover"]) == 318


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
# and 3, recorded from the per-edge generators and writer that the array
# passes replaced: the test suite's sizes, perfbench's tiny and full
# workload sizes, and a larger torus. torus and parallel_gadgets ignore
# the seed.
GENERATED_SHA256 = [
    ("gnm", {"n": 20, "m": 60}, [
        "deec720ea873cc4f51ddd4b34b37abcafff334c2b16a327f79e73860eb2f7c1c",
        "ca40b068c00386d324bf142881576e67c2c31ea713936f71ef186de6a7cf79bf",
        "567425f2ae7bcbe833618c51a3487a4861c4413f6e31f346149845a60cf0829f",
    ]),
    ("d_regular", {"n": 16, "d": 4}, [
        "a8edc23bca92a1d28209b312c012fa59fa00d9b5935771d0c0c0392de0452ba3",
        "4ed6be9f61437976b5b5c665ae4ab347083a6bb703b38bfd0d9b7a3a36e1f9eb",
        "c66535ed00ce6c13240fc7a1c771090a83aa2c6fa8634414d1b956d95b956a77",
    ]),
    ("torus", {"n": 16},
     ["3d3536e6fd695fe885a60fa88a945b64819b8180efff6435c8a44130056f7e81"] * 3),
    ("parallel_gadgets", {"n": 6, "d": 5},
     ["d5c10ef9dd88a0abd1c01df77fa7dce3246b78def0cf4a943f7ecb0354c9d68a"] * 3),
    ("gnm", {"n": 64, "m": 1920}, [
        "e44c3a23ade155ab0e956ca8e02f6e3d1154d544108fd91862e18f5bffb1b438",
        "b159cb9bf260ca2b0022201c01c58d6130e1cfe4b62187a1ac719103e10ae3e1",
        "0206430b037559dc70abf987f0b20ebc7dc1ec6fb1d11b9b239f6c8f4087b86d",
    ]),
    ("d_regular", {"n": 64, "d": 42}, [
        "ebdbb0bc174c00171aacce51214c6c4cdf15be5fc07a39043d336f667be24b9e",
        "16985a51f6006ef2ff77fae66cf146bcf670187c4b2e2c6805d321bef232161a",
        "66811e81369348f2da8b5664b6e0f02aae24b6f42728c38e82bf2e5b864c0a5b",
    ]),
    ("parallel_gadgets", {"n": 64, "d": 60},
     ["d89e12a42a9fc01cf54e0bc79f3ebdda3c5a1e4d0029e3b320f6a75abf105cf7"] * 3),
    ("gnm", {"n": 512, "m": 15360}, [
        "288499036fa74543021cda2bdea58fa6bfbfb95feb25170344d2e136f3814aad",
        "527088604e8c8ecc1f882d8e5ad0842c38e453b140c8e430e5dbfb4b60cdc409",
        "c658ec312dc045c1219cf6bde5804705134be37c5da2634c71792ee5641d43c1",
    ]),
    ("d_regular", {"n": 4632, "d": 41}, [
        "c6c1b83a46f4c637f289bf842a34abcd50d9a22afff5f28d02d1a66c10951e00",
        "c0e7853c5c77ac4d3f8d2340e3fdca9a318d2dcdb64e7c245af79570325716ff",
        "b1fc85cf146dc630be4e10274468e409aa7fe81f37825d6feb2579feae2a28c1",
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


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 4631, 2 ** 31 - 1])
def test_bulk_randrange_is_the_scalar_sequence(n):
    """randbelows gives the scalar randrange draws and leaves the
    generator where they would, across several word blocks."""
    for count in (0, 1, 5, 70_000):
        bulk, scalar = random.Random(n + count), random.Random(n + count)
        got = randbelows(bulk, n, count).tolist()
        assert got == [scalar.randrange(n) for _ in range(count)]
        assert bulk.getstate() == scalar.getstate()


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


def test_exponential_reproducible_and_sane():
    a = random.Random(5)
    b = random.Random(5)
    xs = [exponential(a, 2.0) for _ in range(5000)]
    ys = [exponential(b, 2.0) for _ in range(5)]
    assert xs[:5] == ys
    assert all(x > 0 for x in xs)
    mean = sum(xs) / len(xs)
    assert math.isclose(mean, 0.5, rel_tol=0.1)
