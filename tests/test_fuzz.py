"""Fuzzing the input boundary: `parse_edge_list` and
`decomposition_from_dict` raise only ParseError, and `cli_main` returns
only the documented exit codes (0 valid, 1 invalid input or I/O error,
2 engine failure, 64 usage error) with no exception escaping.

Generated headers keep n <= 64, apart from explicit counts at and above
2^31, which the parser must refuse before it allocates anything.
"""
import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from shortcycles import CycleDecomposition, EngineConfig, decompose
from shortcycles.cli import cli_main
from shortcycles.io import (ParseError, decomposition_from_dict,
                            decomposition_to_dict, gnm, parse_edge_list,
                            serialize_edge_list)

EXIT_CODES = {0, 1, 2, 64}
HUGE = (2 ** 31, 2 ** 31 + 1, 2 ** 32, 99999999999, 10 ** 30)

SMALL_INT = st.integers(-3, 64).map(str)
TOKEN = st.one_of(
    SMALL_INT, st.sampled_from(HUGE).map(str),
    st.sampled_from(["p", "scd", "#", "x", "1.5", "-0", "0x10", "1/2",
                     "1e3", "", " ", "\t"]),
    st.text(max_size=4))
LINE = st.lists(TOKEN, max_size=5).map(" ".join)
COUNT = st.one_of(st.integers(-2, 64), st.sampled_from(HUGE))
HEADER = st.one_of(
    st.tuples(COUNT, COUNT).map(lambda nm: f"p scd {nm[0]} {nm[1]}"),
    LINE)
EDGE_LIST = st.tuples(HEADER, st.lists(
    st.one_of(LINE, st.tuples(st.integers(-1, 65), st.integers(-1, 65))
              .map(lambda uv: f"{uv[0]} {uv[1]}")), max_size=12)
).map(lambda doc: "\n".join([doc[0], *doc[1]]))


@settings(max_examples=400, deadline=None)
@given(EDGE_LIST)
def test_parse_edge_list_raises_only_parse_error(text):
    try:
        g = parse_edge_list(text)
    except ParseError:
        return
    assert g.n_total <= 64


@pytest.mark.parametrize("n, m", [(2 ** 31, 0), (0, 2 ** 31),
                                  (99999999999, 0), (10 ** 30, 10 ** 30)])
def test_parse_refuses_counts_beyond_int32(n, m):
    with pytest.raises(ParseError, match="2\\^31"):
        parse_edge_list(f"p scd {n} {m}\n")


JSON_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-3, 40),
                        st.floats(allow_nan=False), st.text(max_size=3))
JSON = st.recursive(
    JSON_SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(
            ["cycles", "cycle_vertices", "leftover", "m", "n", "stats",
             "levels", "level", "rounds"]), inner, max_size=5)),
    max_leaves=12)
DECOMPOSITION = st.fixed_dictionaries(
    {"cycles": JSON, "leftover": JSON, "m": JSON, "n": JSON},
    optional={"cycle_vertices": JSON, "stats": JSON})
GRAPH = gnm(6, 12, seed=1)


@settings(max_examples=400, deadline=None)
@given(st.one_of(DECOMPOSITION, JSON), st.booleans())
def test_decomposition_from_dict_raises_only_parse_error(doc, with_graph):
    try:
        dec = decomposition_from_dict(doc, GRAPH if with_graph else None)
    except ParseError:
        return
    assert isinstance(dec, CycleDecomposition)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Inputs the argv fuzz points at: valid and malformed graphs, a
    header beyond int32, decompositions good and bad (one lists a
    leftover edge twice), and paths that cannot be read or written."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}

    def put(name, text):
        paths[name] = str(root / name)
        (root / name).write_text(text)

    put("graph", serialize_edge_list(gnm(16, 160, seed=5)))
    put("tree", "p scd 4 3\n0 1\n1 2\n2 3\n")
    put("bad_graph", "p scd 3 2\n0 1\n")
    put("huge_header", "p scd 99999999999 0\n")
    put("empty", "")
    assert cli_main(["decompose", "--input", paths["graph"], "--output",
                     str(root / "dec.json")]) == 0
    paths["dec"] = str(root / "dec.json")
    doc = json.loads((root / "dec.json").read_text())
    put("repeated_leftover", json.dumps(
        {**doc, "leftover": doc["leftover"] + doc["leftover"][-1:]}))
    put("junk_json", "{not json")
    put("odd_json", json.dumps({"cycles": [[0, "x"]], "leftover": [],
                                "m": 1, "n": 1}))
    put("list_json", "[1, 2]")
    paths["missing"] = str(root / "missing" / "x")
    paths["dir"] = str(root)
    paths["out"] = str(root / "out")
    return paths


PATH = st.sampled_from(["graph", "tree", "bad_graph", "huge_header",
                        "empty", "dec", "repeated_leftover", "junk_json",
                        "odd_json", "list_json", "missing", "dir", "out"])
# Integers stay at most 16, so generated graphs and bench cells are small.
NUMBER = st.one_of(st.sampled_from(["-1", "0", "1", "2"]),
                   st.integers(-3, 16).map(str))
MODEL = st.sampled_from(["gnm", "torus", "d_regular", "parallel_gadgets",
                         "blob", ""])
DOMAIN = {
    "--input": PATH, "--graph": PATH, "--decomposition": PATH,
    "--output": PATH, "--model": MODEL,
    "--models": st.lists(MODEL, min_size=1, max_size=3).map(",".join),
    "--sizes": st.lists(NUMBER, min_size=1, max_size=2).map(",".join),
    "--c": st.lists(NUMBER, min_size=1, max_size=2).map(",".join),
    "--beta": st.sampled_from(["1/2", "1/12", "1", "2", "0", "-1/2",
                               "1/0", "0.5", "1e-3", "x"]),
}
JUNK = st.sampled_from(["", "x", "1/0", "0.5", "1,", "-"])
# Valid invocations of each command, as (option, value) pairs. The fuzz
# starts from one and applies one to three mutations, so most inputs are
# near-valid and reach the code behind the argument parser.
VALID = {
    "decompose": [[("--input", "graph"), ("--c", "1"), ("--seed", "0"),
                   ("--beta", "1/12"), ("--output", "out")]],
    "verify": [[("--graph", "graph"), ("--decomposition", "dec"),
                ("--k-hat", "320"), ("--l-max", "100")]],
    "gen": [[("--model", "gnm"), ("--n", "16"), ("--m", "32")],
            [("--model", "torus"), ("--n", "16")],
            [("--model", "d_regular"), ("--n", "16"), ("--d", "4")],
            [("--model", "parallel_gadgets"), ("--n", "16"), ("--d", "4")]],
    "bench": [[("--models", "gnm"), ("--sizes", "16"), ("--c", "1"),
               ("--seeds", "1"), ("--density", "4")]],
}
EXTRA = ["--stats", "--seed", "--base-seed", "--d", "--frob"]


@st.composite
def argv(draw, command):
    pairs = [*draw(st.sampled_from(VALID[command]))]
    if command != "verify":
        pairs.append(("--output", "out"))
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.integers(0, 3)) if pairs else 3
        if how == 3:      # one more option
            pairs.append((draw(st.sampled_from(EXTRA)), draw(NUMBER)))
            continue
        i = draw(st.integers(0, len(pairs) - 1))
        flag = pairs[i][0]
        if how == 0:      # drop the option
            del pairs[i]
        elif how == 1:    # a value of the right kind
            pairs[i] = (flag, draw(DOMAIN.get(flag, NUMBER)))
        else:             # a value of the wrong kind, or none
            pairs[i] = (flag, draw(st.one_of(JUNK, PATH)))[:draw(
                st.integers(1, 2))]
    return [command] + [x for pair in pairs for x in pair]


def _exit_code(args, files):
    """cli_main on `args` with path names resolved, bench in-process, run
    from the fuzz directory so that outputs named by junk values land
    there."""
    cwd = os.getcwd()
    os.chdir(files["dir"])
    try:
        with mock.patch.dict(os.environ, {"SCD_THREADS": "1"}):
            code = cli_main([files.get(a, a) for a in args])
    finally:
        os.chdir(cwd)
    assert code in EXIT_CODES, (args, code)


@pytest.mark.parametrize("command", sorted(VALID))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_main_returns_only_documented_codes(files, command, data):
    _exit_code(data.draw(argv(command)), files)


# Raw file bytes: noise, and edge lists or decompositions with a few
# arbitrary bytes (invalid UTF-8 among them) appended.
RAW = st.one_of(
    st.binary(max_size=48),
    st.tuples(EDGE_LIST, st.binary(max_size=4)).map(
        lambda t: t[0].encode() + t[1]),
    st.tuples(st.sampled_from([b'{"cycles": [[0, 1]], "leftover": [',
                               b'{"cycles": [], "m": 1, "n": 1, "left']),
              st.binary(max_size=8)).map(b"".join))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=RAW, doc=RAW)
def test_cli_main_on_raw_file_bytes(files, graph, doc):
    """Edge-list and decomposition files of arbitrary bytes reach only the
    documented exit codes, with no traceback on stderr."""
    root = files["dir"]
    with open(os.path.join(root, "raw_graph"), "wb") as fh:
        fh.write(graph)
    with open(os.path.join(root, "raw_dec"), "wb") as fh:
        fh.write(doc)
    for args in (["decompose", "--input", "raw_graph", "--output", "out"],
                 ["verify", "--graph", "raw_graph", "--decomposition", "dec"],
                 ["verify", "--graph", "graph", "--decomposition",
                  "raw_dec"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            _exit_code(args, files)
        assert "Traceback" not in err.getvalue()


def test_deeply_nested_json_is_refused(files):
    """A decomposition nested past the JSON parser's recursion limit is
    refused with an error: line, exit 1 and no traceback."""
    path = os.path.join(files["dir"], "deep_dec")
    with open(path, "w") as fh:
        fh.write("[" * 200000 + "]" * 200000)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(["verify", "--graph", files["graph"],
                         "--decomposition", path, "--k-hat", "320",
                         "--l-max", "100"])
    assert code == 1
    assert err.getvalue().startswith("error:")
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def dense(files):
    """A graph with more than 20n edges and its decomposition document,
    which lists cycles (gnm(16, 480) at seed 1 gives 92)."""
    g = gnm(16, 480, seed=1)
    path = os.path.join(files["dir"], "dense_graph")
    with open(path, "w") as fh:
        fh.write(serialize_edge_list(g))
    doc = decomposition_to_dict(decompose(g, EngineConfig(c=1, seed=1)), 1, 1)
    assert len(doc["cycles"]) > 3
    return path, doc


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cycle_vertices_of_another_count_is_refused(files, dense, data):
    """A document with more or fewer vertex lists than cycles, wherever
    lists are dropped or added, raises ParseError, and `verify` exits 1
    with an error: line and no traceback."""
    graph, doc = dense
    lists = doc["cycle_vertices"]
    drop = data.draw(st.sets(st.integers(0, len(lists) - 1), max_size=3))
    extra = data.draw(st.lists(st.lists(st.integers(0, 15), max_size=3),
                               max_size=3))
    assume(len(drop) != len(extra))
    bad = {**doc, "cycle_vertices": [
        vs for i, vs in enumerate(lists) if i not in drop] + extra}
    with pytest.raises(ParseError, match="vertex lists"):
        decomposition_from_dict(bad)
    path = os.path.join(files["dir"], "uneven_dec")
    with open(path, "w") as fh:
        json.dump(bad, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(["verify", "--graph", graph, "--decomposition",
                         path, "--k-hat", "320", "--l-max", "100"])
    assert code == 1
    assert err.getvalue().startswith("error:")
    assert "Traceback" not in err.getvalue()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_repeated_leftover_is_refused(files, dense, data):
    """A document whose leftover repeats ids, wherever the copies go,
    raises ParseError naming the first repeated id, and `verify` exits 1
    with an error: line and no traceback."""
    graph, doc = dense
    left = list(doc["leftover"])
    for x in data.draw(st.lists(st.sampled_from(left), min_size=1,
                                max_size=3)):
        left.insert(data.draw(st.integers(0, len(left))), x)
    seen = set()
    first = next(x for x in left if x in seen or seen.add(x))
    bad = {**doc, "leftover": left}
    with pytest.raises(ParseError, match=f"leftover lists edge {first} "):
        decomposition_from_dict(bad)
    path = os.path.join(files["dir"], "repeated_leftover_dec")
    with open(path, "w") as fh:
        json.dump(bad, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(["verify", "--graph", graph, "--decomposition",
                         path, "--k-hat", "320", "--l-max", "100"])
    assert code == 1
    assert err.getvalue().startswith("error:")
    assert "Traceback" not in err.getvalue()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([*VALID, "--help", "-h"]),
                          NUMBER, JUNK, PATH), max_size=4))
def test_cli_main_top_level_argv(files, args):
    _exit_code(args, files)
