"""End-to-end command-line flows, driven in-process through cli_main."""
import csv
import json

import pytest

from shortcycles.cli import cli_main
from shortcycles.io import gnm, serialize_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(serialize_edge_list(gnm(64, 2000, seed=11)))
    return path


def test_gen_decompose_verify_pipeline(tmp_path):
    g = tmp_path / "g.txt"
    d = tmp_path / "d.json"
    assert cli_main(["gen", "--model", "gnm", "--n", "64", "--m", "2000",
                     "--seed", "3", "--output", str(g)]) == 0
    assert cli_main(["decompose", "--input", str(g), "--c", "1",
                     "--seed", "3", "--output", str(d)]) == 0
    assert cli_main(["verify", "--graph", str(g), "--decomposition", str(d),
                     "--k-hat", str(20 * 64), "--l-max", "1000000"]) == 0


def test_decompose_stdout_json(graph_file, capsys):
    assert cli_main(["decompose", "--input", str(graph_file),
                     "--seed", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 2000
    assert doc["c"] == 1
    assert "wall_ms" in doc["stats"]


def test_decompose_tree_all_leftover(tmp_path, capsys):
    g = tmp_path / "p.txt"
    g.write_text("p scd 4 3\n0 1\n1 2\n2 3\n")
    assert cli_main(["decompose", "--input", str(g)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cycles"] == []
    assert sorted(doc["leftover"]) == [0, 1, 2]


def test_verify_rejects_corrupt(graph_file, tmp_path, capsys):
    d = tmp_path / "d.json"
    cli_main(["decompose", "--input", str(graph_file), "--output", str(d)])
    doc = json.loads(d.read_text())
    doc["leftover"] = doc["leftover"][:-1]  # lose one edge
    d.write_text(json.dumps(doc))
    assert cli_main(["verify", "--graph", str(graph_file),
                     "--decomposition", str(d),
                     "--k-hat", "1280", "--l-max", "1000000"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["valid"]
    assert any("uncovered" in v for v in out["violations"])


def test_verify_tight_k_hat(graph_file, tmp_path):
    d = tmp_path / "d.json"
    cli_main(["decompose", "--input", str(graph_file), "--output", str(d)])
    assert cli_main(["verify", "--graph", str(graph_file),
                     "--decomposition", str(d),
                     "--k-hat", "0", "--l-max", "1000000"]) == 1


def test_usage_errors(tmp_path, capsys):
    assert cli_main([]) == 64
    assert cli_main(["decompose"]) == 64
    assert cli_main(["decompose", "--input", "x", "--frob"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize("flags", [["--beta", "2"], ["--c", "0"],
                                   ["--beta", "1/0"]])
def test_decompose_rejects_bad_engine_args(graph_file, capsys, flags):
    assert cli_main(["decompose", "--input", str(graph_file), *flags]) == 64
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("c", ["0", "x", "1,0", "1,"])
def test_bench_rejects_bad_c(tmp_path, capsys, c):
    assert cli_main(["bench", "--models", "gnm", "--sizes", "16",
                     "--c", c, "--output", str(tmp_path / "b.csv")]) == 64
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def _decomposition_doc(graph_file, tmp_path):
    d = tmp_path / "d.json"
    assert cli_main(["decompose", "--input", str(graph_file),
                     "--output", str(d)]) == 0
    return d, json.loads(d.read_text())


def _verify(graph_file, d):
    return cli_main(["verify", "--graph", str(graph_file),
                     "--decomposition", str(d),
                     "--k-hat", "1280", "--l-max", "1000000"])


def test_verify_derives_vertices_from_edge_ids(graph_file, tmp_path,
                                               capsys):
    d, doc = _decomposition_doc(graph_file, tmp_path)
    assert any(len(c) > 2 for c in doc["cycles"])
    del doc["cycle_vertices"]
    d.write_text(json.dumps(doc))
    assert _verify(graph_file, d) == 0
    assert json.loads(capsys.readouterr().out)["valid"]
    doc["cycles"][0] = doc["cycles"][0][::-1]   # still a closed walk
    d.write_text(json.dumps(doc))
    assert _verify(graph_file, d) == 0
    doc["cycles"][0], doc["cycles"][1] = (doc["cycles"][0][:1],
                                          doc["cycles"][1] +
                                          doc["cycles"][0][1:])
    d.write_text(json.dumps(doc))
    assert _verify(graph_file, d) == 1


@pytest.mark.parametrize("where,bad", [("cycles", "7"), ("cycles", 7.0),
                                       ("leftover", "7"),
                                       ("leftover", 7.0)])
def test_verify_rejects_non_integer_ids(graph_file, tmp_path, capsys,
                                        where, bad):
    d, doc = _decomposition_doc(graph_file, tmp_path)
    if where == "cycles":
        doc["cycles"][0][0] = bad
    else:
        doc["leftover"][0] = bad
    d.write_text(json.dumps(doc))
    assert _verify(graph_file, d) == 1
    assert "integer ids" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["input", "graph", "decomposition"])
def test_non_utf8_files_exit_1(graph_file, tmp_path, capsys, which):
    """A file holding the byte 0xff ends in an error line, not a
    traceback, wherever the CLI reads it."""
    bad = tmp_path / "bad"
    bad.write_bytes(b"p scd 2 1\n0 1\n\xff\n" if which != "decomposition"
                    else b'{"cycles": [], "leftover": [\xff]}')
    if which == "input":
        code = cli_main(["decompose", "--input", str(bad)])
    else:
        d, _ = _decomposition_doc(graph_file, tmp_path)
        files = {"graph": graph_file, "decomposition": d, which: bad}
        code = _verify(files["graph"], files["decomposition"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("text", [
    "p scd 20 1\n1_0 1\n", "p scd 2 1\n+0 1\n", "p scd 2 1\n\u0661 0\n",
    "p scd 2 1\n-0 1\n", "p scd 1_0 0\n", "p scd +2 0\n",
    "p scd \u0662 0\n"])
def test_ids_must_be_ascii_digits(tmp_path, capsys, text):
    """Ids and header counts that int() reads but the format does not
    allow: underscores, signs and other scripts' digits."""
    g = tmp_path / "g.txt"
    g.write_text(text, encoding="utf-8")
    assert cli_main(["decompose", "--input", str(g)]) == 1
    assert "malformed" in capsys.readouterr().err


def test_missing_input_file(tmp_path, capsys):
    assert cli_main(["decompose", "--input", str(tmp_path / "nope")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-3", str(2 ** 70)])
def test_seeds_outside_64_bits_name_a_stream(graph_file, tmp_path, seed):
    """gen and decompose take any int seed, mod 2^64, and give the same
    output on two runs (decompose's apart from its wall time)."""
    outs = []
    for run in range(2):
        g, d = tmp_path / f"g{run}.txt", tmp_path / f"d{run}.json"
        assert cli_main(["gen", "--model", "d_regular", "--n", "64",
                         "--d", "42", "--seed", seed,
                         "--output", str(g)]) == 0
        assert cli_main(["decompose", "--input", str(graph_file),
                         "--seed", seed, "--output", str(d)]) == 0
        doc = json.loads(d.read_text())
        del doc["stats"]["wall_ms"]
        outs.append((g.read_bytes(), doc))
    assert outs[0] == outs[1]
    assert outs[0][1]["cycles"]


def test_gen_bad_model(tmp_path, capsys):
    assert cli_main(["gen", "--model", "blob", "--n", "4",
                     "--output", str(tmp_path / "o")]) == 1
    assert cli_main(["gen", "--model", "gnm", "--n", "4",
                     "--output", str(tmp_path / "o")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flags", [
    ["--model", "gnm", "--n", "-1", "--m", "0"],
    ["--model", "torus", "--n", "-1"],
    ["--model", "d_regular", "--n", "-2", "--d", "4"],
    ["--model", "parallel_gadgets", "--n", "4", "--d", "-1"],
    ["--model", "gnm", "--n", "4", "--m", "-1"]])
def test_gen_rejects_negative_counts(tmp_path, capsys, flags):
    assert cli_main(["gen", *flags, "--output", str(tmp_path / "o")]) == 64
    assert "counts must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--model", "gnm", "--n", str(2 ** 31), "--m", "0"],
    ["--model", "torus", "--n", str(2 ** 32)],
    ["--model", "d_regular", "--n", "4", "--d", str(2 ** 31)],
    ["--model", "parallel_gadgets", "--n", "4", "--d", str(10 ** 30)],
    ["--model", "gnm", "--n", "4", "--m", str(2 ** 31)]])
def test_gen_rejects_counts_past_int32(tmp_path, capsys, flags):
    """Ids are int32: a count at or above 2^31 is a usage error, refused
    before anything is allocated."""
    assert cli_main(["gen", *flags, "--output", str(tmp_path / "o")]) == 64
    assert "counts must be below 2^31" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bench_csv(tmp_path, monkeypatch):
    monkeypatch.setenv("SCD_THREADS", "1")
    out = tmp_path / "b.csv"
    assert cli_main(["bench", "--models", "gnm,torus", "--sizes", "64",
                     "--c", "1", "--density", "20", "--seeds", "2",
                     "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["model"] for r in rows} == {"gnm", "torus"}
    for r in rows:
        assert r["status"] == "ok"
        assert float(r["wall_ms"]) >= 0
        assert int(r["k_hat_observed"]) <= 20 * int(r["n"])


@pytest.mark.parametrize("sizes", ["x", "16,", "-4", "0"])
def test_bench_rejects_bad_sizes(tmp_path, capsys, sizes):
    assert cli_main(["bench", "--models", "gnm", "--sizes", sizes,
                     "--output", str(tmp_path / "b.csv")]) == 64
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("threads", ["abc", "0", "-2", ""])
def test_bench_rejects_bad_threads(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("SCD_THREADS", threads)
    assert cli_main(["bench", "--models", "gnm", "--sizes", "16",
                     "--output", str(tmp_path / "b.csv")]) == 64
    assert "SCD_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_bench_caps_workers_at_cpu_count(tmp_path, monkeypatch):
    """A worker count above the CPU count starts a pool of cpu_count
    workers; the pool is replaced by a recorder, so none is started."""
    import concurrent.futures

    from shortcycles import cli

    seen = []

    class Recorder:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("SCD_THREADS", "1000000")
    assert cli_main(["bench", "--models", "gnm", "--sizes", "16",
                     "--seeds", "2", "--output", str(tmp_path / "b.csv")]) == 0
    assert seen == [2]
    with open(tmp_path / "b.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2
