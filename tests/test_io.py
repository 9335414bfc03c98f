"""File formats, JSON round-trips, generators, seed derivation."""
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
from shortcycles.rng import exponential, mix64

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


def _parsed(parse, text):
    try:
        g = parse(text)
    except ParseError as exc:
        return str(exc), exc.line
    return g.n_total, list(g.eu), list(g.ev), list(g.deg), g.m_active


@settings(max_examples=400, deadline=None)
@given(_edge_texts(), st.sampled_from([1, 2, 3, shortcycles.io._BLOCK]))
def test_bulk_parse_matches_per_line_reference(text, block):
    """The same graph (n, eu, ev, degrees), or the same ParseError message
    and line, as the per-line parser it replaced, whether the edge lines
    are converted in one block or in several."""
    with mock.patch.object(shortcycles.io, "_BLOCK", block):
        got = _parsed(parse_edge_list, text)
    assert got == _parsed(io_reference.parse_edge_list, text)


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


# -- generators -------------------------------------------------------------

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
