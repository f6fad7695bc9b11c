import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from graphcodes import extreme
from graphcodes.cli import FAMILIES, SUITES, main
from graphcodes.graphs import LabeledGraph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_info(tmp_path, k_nodes, fn=lambda i, j: (i + j) % 2, name="info.json"):
    path = tmp_path / name
    data = {f"{i}:{j}": fn(i, j) for i in range(k_nodes) for j in range(i + 1)}
    path.write_text(json.dumps(data))
    return str(path)


def test_info_double(capsys):
    code, out, _ = run(capsys, "info", "--family", "double", "--n", "11")
    assert code == 0
    assert "redundancy=21" in out and "gap=0" in out and "q=2" in out


def test_info_triple_json(capsys):
    code, out, _ = run(capsys, "info", "--family", "triple", "--n", "10", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["redundancy"] == 27 and obj["gap"] == 0 and obj["q"] == 11
    assert any("MDS" in row["route"] for row in obj["alternatives"])


def test_info_nonprime_fails(capsys):
    code, _, err = run(capsys, "info", "--family", "double", "--n", "9")
    assert code == 1
    assert "prime" in err


def test_info_extreme(capsys):
    code, out, _ = run(capsys, "info", "--family", "extreme", "--n", "7", "--q", "2")
    assert code == 0
    assert "dimension=3" in out and "gap=0" in out


@pytest.mark.parametrize("family,n,rho", [("single", 6, 1), ("double", 7, 2), ("triple", 7, 3), ("extreme", 7, 5)])
def test_default_rho_counts_the_redundancy_nodes(capsys, family, n, rho):
    # without --rho, info and verify take n - k_info failures (n - 2 for extreme)
    extra = ("--q", "2") if family == "extreme" else ()
    code, out, _ = run(capsys, "info", "--family", family, "--n", str(n), *extra, "--format", "json")
    info = json.loads(out)
    assert code == 0 and info["rho"] == rho
    assert family == "extreme" or info["gap"] == 0
    code, out, _ = run(capsys, "verify", "--family", family, "--n", str(n), *extra,
                       "--format", "json", "--trials", "1")
    report = json.loads(out)
    assert code == 0 and report["rho"] == rho and report["patterns_ok"] == report["patterns_total"]


@pytest.mark.parametrize("family,n,extra", [
    ("single", 6, ()),
    ("double", 7, ()),
    ("triple", 7, ("--q", "8")),
])
def test_encode_erase_decode_round_trip(tmp_path, capsys, family, n, extra):
    k = {"single": n - 1, "double": n - 2, "triple": n - 3}[family]
    rho = {"single": 1, "double": 2, "triple": 3}[family]
    q = 8 if family == "triple" else 2
    info = write_info(tmp_path, k, fn=lambda i, j: (3 * i + j) % q)
    enc = str(tmp_path / "enc.txt")
    code, _, _ = run(capsys, "encode", "--family", family, "--n", str(n), *extra,
                     "--info", info, "--output", enc)
    assert code == 0
    fail = ",".join(str(v) for v in range(rho))
    er = str(tmp_path / "er.txt")
    code, _, _ = run(capsys, "erase", "--input", enc, "--fail", fail, "--output", er)
    assert code == 0
    dec = str(tmp_path / "dec.txt")
    prov = str(tmp_path / "prov.json")
    code, _, _ = run(capsys, "decode", "--family", family, "--input", er,
                     "--output", dec, "--provenance", prov)
    assert code == 0
    assert open(enc).read() == open(dec).read()
    entries = json.load(open(prov))
    assert entries and all({"edge", "constraint", "loop", "t"} <= set(e) for e in entries)


def test_extreme_round_trip(tmp_path, capsys):
    msg = tmp_path / "msg.json"
    msg.write_text("[1, 2, 0]")
    enc = str(tmp_path / "enc.txt")
    code, _, _ = run(capsys, "encode", "--family", "extreme", "--n", "5", "--q", "3",
                     "--seed", "1", "--info", str(msg), "--output", enc)
    assert code == 0
    er = str(tmp_path / "er.txt")
    run(capsys, "erase", "--input", enc, "--fail", "0,2,3", "--output", er)
    dec = str(tmp_path / "dec.txt")
    code, _, _ = run(capsys, "decode", "--family", "extreme", "--seed", "1",
                     "--input", er, "--output", dec)
    assert code == 0
    assert open(enc).read() == open(dec).read()


def test_encode_stdout_and_triangular_info(tmp_path, capsys):
    info = tmp_path / "info.txt"
    info.write_text("1\n0 1\n")  # triangular rows for k=2
    code, out, _ = run(capsys, "encode", "--family", "single", "--n", "3", "--info", str(info))
    assert code == 0
    g = LabeledGraph.from_string(out)
    assert g.label(2, 0) == 1 and g.label(2, 1) == 1 and g.label(2, 2) == 0


def test_encode_rejects_wrong_count(tmp_path, capsys):
    info = tmp_path / "bad.json"
    info.write_text(json.dumps({"0:0": 1}))
    code, _, err = run(capsys, "encode", "--family", "double", "--n", "7", "--info", str(info))
    assert code == 1 and "expected" in err


def test_erase_none_is_identity(tmp_path, capsys):
    info = write_info(tmp_path, 5)
    enc = str(tmp_path / "enc.txt")
    run(capsys, "encode", "--family", "double", "--n", "7", "--info", info, "--output", enc)
    out2 = str(tmp_path / "same.txt")
    code, _, _ = run(capsys, "erase", "--input", enc, "--fail", "", "--output", out2)
    assert code == 0
    assert open(enc).read() == open(out2).read()


def test_erase_counts(tmp_path, capsys):
    info = write_info(tmp_path, 9)
    enc = str(tmp_path / "enc.txt")
    run(capsys, "encode", "--family", "double", "--n", "11", "--info", info, "--output", enc)
    er = str(tmp_path / "er.txt")
    run(capsys, "erase", "--input", enc, "--fail", "3,5", "--output", er)
    g = LabeledGraph.from_string(Path(er).read_text())
    assert len(g.erased_edges()) == 21
    run(capsys, "erase", "--input", enc, "--fail", ",".join(map(str, range(11))), "--output", er)
    assert len(LabeledGraph.from_string(Path(er).read_text()).erased_edges()) == 66


def test_erase_out_of_range(tmp_path, capsys):
    info = write_info(tmp_path, 5)
    enc = str(tmp_path / "enc.txt")
    run(capsys, "encode", "--family", "double", "--n", "7", "--info", info, "--output", enc)
    code, _, err = run(capsys, "erase", "--input", enc, "--fail", "9")
    assert code == 1 and "out of range" in err


def test_decode_exit_codes(tmp_path, capsys):
    info = write_info(tmp_path, 5)
    enc = str(tmp_path / "enc.txt")
    run(capsys, "encode", "--family", "double", "--n", "7", "--info", info, "--output", enc)
    er = str(tmp_path / "er.txt")
    run(capsys, "erase", "--input", enc, "--fail", "0,1,2", "--output", er)
    code, _, err = run(capsys, "decode", "--family", "double", "--input", er)
    assert code == 2 and "underdetermined" in err


def test_decode_inconsistent_exit_code(tmp_path, capsys):
    from graphcodes.field import field
    from graphcodes.graphs import LabeledGraph as LG

    labels = [0] * 10
    labels[0] = 1  # the edge (0, 0): not a codeword of the single-parity family
    bad = LG(4, field(2), labels, erased=[(3, 3)])
    path = tmp_path / "bad.txt"
    path.write_text(bad.to_text())
    code, _, err = run(capsys, "decode", "--family", "single", "--input", str(path))
    assert code == 3 and "inconsistent" in err


@pytest.mark.parametrize("family,n,info", [("triple", 7, "0\n1 2\n3 4 5\n6 7 0 1\n"),
                                           ("extreme", 5, "1 2 3\n")], ids=["triple", "extreme"])
def test_decode_refuses_a_graph_over_another_field_polynomial(tmp_path, capsys, family, n, info):
    path, enc, er, out = (tmp_path / name for name in ("info.txt", "enc.txt", "er.txt", "out.txt"))
    path.write_text(info)
    assert run(capsys, "encode", "--family", family, "--n", str(n), "--q", "8", "--info", str(path),
               "--output", str(enc))[0] == 0
    assert run(capsys, "erase", "--input", str(enc), "--fail", "0,1,2", "--output", str(er))[0] == 0
    text = er.read_text()
    assert text.startswith(f"graphcode-v1 n={n} field=gf(8):0b1011\n")
    er.write_text(text.replace("gf(8):0b1011", "gf(8):0b1101", 1))
    code, _, err = run(capsys, "decode", "--family", family, "--input", str(er), "--output", str(out))
    assert code == 1 and err == "error: graph does not match code parameters\n"
    assert not out.exists()


def test_decode_provenance_first_entry(tmp_path, capsys):
    info = write_info(tmp_path, 9)
    enc = str(tmp_path / "enc.txt")
    run(capsys, "encode", "--family", "double", "--n", "11", "--info", info, "--output", enc)
    er = str(tmp_path / "er.txt")
    run(capsys, "erase", "--input", enc, "--fail", "3,5", "--output", er)
    code, out, _ = run(capsys, "decode", "--family", "double", "--input", er, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    first = obj["provenance"][0]
    assert first["edge"] == "7:5" and first["constraint"].startswith("D_")


def test_verify_double(capsys):
    code, out, _ = run(capsys, "verify", "--family", "double", "--n", "7",
                       "--trials", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["patterns_ok"] == obj["patterns_total"] == 21
    assert obj["failures"] == []


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "--family", "single", "--n", "12", "--trials", "2")
    assert code == 0
    assert "12/12" in out


def test_verify_rho_exceeding_capability(capsys):
    code, out, err = run(capsys, "verify", "--family", "double", "--n", "5",
                         "--rho", "3", "--trials", "1", "--format", "json")
    assert code == 4
    obj = json.loads(out)
    assert obj["patterns_ok"] == 0
    assert err == f"verify failed: 0/{obj['patterns_total']} patterns ok\n"


def test_counting_suite_passes_with_no_monte_carlo_hit(capsys):
    # n=6 over GF(2): about 0.06 hits expected in 10^5 samples
    code, out, err = run(capsys, "verify", "--family", "extreme", "--n", "6", "--suite", "counting",
                         "--trials", "1", "--format", "json")
    assert code == 0 and err == ""
    counting = json.loads(out)["suites"]["counting"]
    assert counting["ok"] is True and "montecarlo" in counting


def test_counting_suite_names_a_wrong_formula(capsys, monkeypatch):
    count = extreme.count_formula
    monkeypatch.setattr(extreme, "count_formula", lambda n, q: 2 * count(n, q))
    code, out, err = run(capsys, "verify", "--family", "extreme", "--n", "4", "--q", "2",
                         "--suite", "counting", "--trials", "1")
    assert code == 4
    assert "suite counting: MISMATCH" in out
    assert err == "verify failed: 6/6 patterns ok; suite counting failed\n"


def test_verify_suites(capsys):
    code, out, _ = run(capsys, "verify", "--family", "double", "--n", "7", "--trials", "1",
                       "--suite", "sets", "--suite", "schedule", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["suites"]["sets"]["violations"] == []
    assert obj["suites"]["schedule"]["violations"] == []
    code, out, _ = run(capsys, "verify", "--family", "triple", "--n", "7", "--trials", "1",
                       "--suite", "independence", "--suite", "overlap", "--format", "json")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--family", "extreme", "--n", "3", "--q", "2",
                       "--trials", "2", "--suite", "counting", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["suites"]["counting"]["exhaustive"] == 13440
    assert obj["suites"]["counting"]["formula"] == 13440


def test_suite_family_mismatch(capsys):
    code, _, err = run(capsys, "verify", "--family", "double", "--n", "7",
                       "--trials", "1", "--suite", "counting")
    assert code == 1 and "applies to family" in err


def test_commands_deterministic_bytes(tmp_path, capsys):
    info = write_info(tmp_path, 5)
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    run(capsys, "encode", "--family", "double", "--n", "7", "--info", info, "--output", a)
    run(capsys, "encode", "--family", "double", "--n", "7", "--info", info, "--output", b)
    assert open(a).read() == open(b).read()
    c1, out1, _ = run(capsys, "verify", "--family", "double", "--n", "5", "--trials", "2", "--seed", "3")
    c2, out2, _ = run(capsys, "verify", "--family", "double", "--n", "5", "--trials", "2", "--seed", "3")
    assert (c1, out1) == (c2, out2)


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    msg = tmp_path / "msg.txt"
    msg.write_text("1 0 2\n")
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    monkeypatch.setenv("GRAPHCODE_SEED", "5")
    run(capsys, "encode", "--family", "extreme", "--n", "5", "--q", "3", "--info", str(msg), "--output", a)
    run(capsys, "encode", "--family", "extreme", "--n", "5", "--q", "3", "--seed", "5",
        "--info", str(msg), "--output", b)
    assert open(a).read() == open(b).read()


def test_env_seed_must_be_an_integer(tmp_path, capsys, monkeypatch):
    msg = tmp_path / "msg.txt"
    msg.write_text("1 0 2\n")
    monkeypatch.setenv("GRAPHCODE_SEED", "abc")
    code, out, err = run(capsys, "encode", "--family", "extreme", "--n", "5", "--q", "3", "--info", str(msg))
    assert code == 1 and out == "" and err == "error: GRAPHCODE_SEED='abc' is not an integer\n"


def test_bench_schema(capsys):
    code, out, _ = run(capsys, "bench", "--family", "double", "--n", "11",
                       "--trials", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)["results"]
    assert {r["op"] for r in rows} == {"encode", "decode"}
    for r in rows:
        assert set(r) == {"family", "n", "q", "op", "median_us", "p95_us"}


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "info", "--family", "nosuch", "--n", "5")
    assert code == 1
    code, _, err = run(capsys, "decode", "--family", "double", "--input", "/nonexistent/file")
    assert code == 1


def test_double_requires_binary_field(capsys):
    code, _, err = run(capsys, "info", "--family", "double", "--n", "7", "--q", "4")
    assert code == 1 and "binary" in err


@pytest.mark.parametrize("argv", [
    ("decode", "--family", "single"),
    ("erase", "--fail", "0"),
])
def test_erased_edge_outside_graph(tmp_path, capsys, argv):
    path = tmp_path / "bad.txt"
    path.write_text("graphcode-v1 n=3 field=gf(2)\nerased=7:1\n0\n0 0\n0 0 0\n")
    code, _, err = run(capsys, *argv, "--input", str(path))
    assert code == 1 and "out of range" in err


def test_json_erased_edge_outside_graph(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": "graphcode-v1", "n": 3, "field": "gf(2)",
                                "erased": ["7:1"], "rows": [[0], [0, 0], [0, 0, 0]]}))
    code, _, err = run(capsys, "decode", "--family", "single", "--input", str(path))
    assert code == 1 and "out of range" in err


def test_encode_rejects_duplicate_edge(tmp_path, capsys):
    data = {f"{i}:{j}": 1 for i in range(5) for j in range(i + 1) if (i, j) != (4, 4)}
    data["0:1"] = 0  # names edge (1, 0) a second time
    info = tmp_path / "dup.json"
    info.write_text(json.dumps(data))
    code, _, err = run(capsys, "encode", "--family", "double", "--n", "7", "--info", str(info))
    assert code == 1 and "twice" in err


def test_encode_rejects_fractional_label(tmp_path, capsys):
    info = write_info(tmp_path, 5, fn=lambda i, j: 1.5 if (i, j) == (2, 1) else 0)
    code, _, err = run(capsys, "encode", "--family", "double", "--n", "7", "--info", info)
    assert code == 1 and "1.5" in err


def test_bench_p95_is_nearest_rank(capsys, monkeypatch):
    import itertools
    import types

    from graphcodes import cli

    # the 9 encodes, then the 9 decodes, take 1..9 us each in a shuffled order
    durations = itertools.cycle([3, 9, 1, 7, 5, 2, 8, 6, 4])
    clock = itertools.chain.from_iterable((0, 1000 * d) for d in durations)
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter_ns=lambda: next(clock)))
    code, out, _ = run(capsys, "bench", "--family", "double", "--n", "7", "--format", "json")
    assert code == 0
    for row in json.loads(out)["results"]:
        assert (row["median_us"], row["p95_us"]) == (5.0, 9.0)


GRAPH_N3 = {"version": "graphcode-v1", "n": 3, "field": "gf(2)", "erased": [],
            "rows": [[0], [0, 0], [0, 0, 0]]}


@pytest.mark.parametrize("rows", [[[1.5], [0, 0], [0, 0, 0]], [[0], [0, 1], [0, True, 0]]])
def test_json_graph_refuses_fractional_and_boolean_labels(tmp_path, capsys, rows):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({**GRAPH_N3, "rows": rows}))
    code, _, err = run(capsys, "erase", "--input", str(path), "--fail", "0")
    assert code == 1 and "not element codes" in err


@pytest.mark.parametrize("message", ["[1.5, 0, 2]", "[true, 0, 2]"])
def test_extreme_message_refuses_fractional_and_boolean_symbols(tmp_path, capsys, message):
    msg = tmp_path / "msg.json"
    msg.write_text(message)
    code, _, err = run(capsys, "encode", "--family", "extreme", "--n", "5", "--q", "3",
                       "--info", str(msg))
    assert code == 1 and "is not an element code" in err


@pytest.mark.parametrize("message", ["[1, 2]", "99999999999999999999", "[1,1,1,]", "{}",
                                     b"\xff\xfe[1, 2, 0]", "1 x 2"])
def test_malformed_extreme_message_is_a_usage_error(tmp_path, capsys, message):
    msg = tmp_path / "msg.json"
    if isinstance(message, bytes):
        msg.write_bytes(message)
    else:
        msg.write_text(message)
    code, _, err = run(capsys, "encode", "--family", "extreme", "--n", "5", "--q", "3",
                       "--info", str(msg))
    assert code == 1 and err.startswith("error:") and "Traceback" not in err
    if message in ("{}", "1 x 2", "[1,1,1,]", "[1, 2]"):  # the file and the form it should have
        assert f"--info {msg}" in err
        assert "three integer symbols, as a JSON list or separated by whitespace" in err


DEEP = 100_000


@pytest.mark.parametrize("argv,option,text", [
    (["decode", "--family", "double"], "--input", '{"a": ' + "[" * DEEP + "]" * DEEP + "}"),
    (["erase", "--fail", "0"], "--input", '{"a": ' + "[" * DEEP + "]" * DEEP + "}"),
    (["encode", "--family", "double", "--n", "5"], "--info", '{"a": ' + "[" * DEEP + "]" * DEEP + "}"),
    (["encode", "--family", "extreme", "--n", "5", "--q", "3"], "--info", "[" * DEEP + "]" * DEEP),
], ids=["decode-input", "erase-input", "encode-info-map", "extreme-message"])
def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys, argv, option, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, _, err = run(capsys, *argv, option, str(path))
    assert code == 1 and err.startswith(f"error: {option} {path}:") and "Traceback" not in err


@pytest.mark.parametrize("change,key", [
    ({"n": None}, "'n'"),
    ({"rows": 5}, "'rows'"),
    ({"erased": 5}, "'erased'"),
    ({"rows": [[0], 5, [0, 0, 0]]}, "row 1"),
    ({"erased": [5]}, "erased edge"),
    ({"erased": [[1.5, 0]]}, "erased edge"),
])
def test_malformed_json_graph_is_a_usage_error(tmp_path, capsys, change, key):
    obj = {k: v for k, v in {**GRAPH_N3, **change}.items() if v is not None}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "erase", "--input", str(path), "--fail", "0")
    assert code == 1 and err.startswith("error:") and key in err
    assert "Traceback" not in err


def test_info_refuses_oversized_check_matrix(capsys):
    code, out, err = run(capsys, "info", "--family", "double", "--n", "1009")
    assert code == 1 and out == ""
    assert "TooLargeError" in err and "8222018120 bytes" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "double", "--n", "7", "--rho", "9"),
    ("verify", "--family", "double", "--n", "7", "--rho", "0"),
    ("info", "--family", "double", "--n", "7", "--rho", "9"),
    ("info", "--family", "extreme", "--n", "7", "--q", "2", "--rho", "8"),
])
def test_rho_outside_one_to_n_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "--rho" in err


def test_verify_extreme_refuses_rho_other_than_n_minus_2(capsys):
    code, out, err = run(capsys, "verify", "--family", "extreme", "--n", "5", "--q", "2",
                         "--rho", "1", "--trials", "1")
    assert code == 1 and out == "" and "--rho 1" in err
    code, out, _ = run(capsys, "verify", "--family", "extreme", "--n", "5", "--q", "2",
                       "--rho", "3", "--trials", "1")
    assert code == 0 and "rho=3" in out and "patterns ok: 10/10" in out
    code, out, _ = run(capsys, "info", "--family", "extreme", "--n", "5", "--q", "2", "--rho", "1")
    assert code == 0 and "rho=1" in out and "erased-edge bound=5" in out


@pytest.mark.parametrize("command", ["verify", "bench"])
@pytest.mark.parametrize("trials", ["0", "-2"])
def test_trials_below_one_are_refused(capsys, command, trials):
    code, out, err = run(capsys, command, "--family", "double", "--n", "7", "--trials", trials)
    assert code == 1 and out == "" and "--trials" in err


def test_verify_refuses_jobs_below_one(capsys):
    code, _, err = run(capsys, "verify", "--family", "double", "--n", "5", "--jobs", "0")
    assert code == 1 and "--jobs" in err


@pytest.mark.parametrize("argv", [
    ("encode", "--family", "single", "--n", "3", "--info", "-", "--format", "json"),
    ("erase", "--input", "-", "--format", "json"),
])
def test_writers_take_no_format_option(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "unrecognized arguments: --format json" in err


def test_parser_is_built_once_and_serves_every_subcommand(tmp_path, capsys):
    from graphcodes.cli import make_parser

    assert make_parser() is make_parser()
    code, out, _ = run(capsys, "info", "--family", "double", "--n", "7", "--format", "json")
    assert code == 0 and json.loads(out)["redundancy"] == 13
    code, out, _ = run(capsys, "verify", "--family", "single", "--n", "4", "--trials", "2")
    assert code == 0 and "patterns ok: 4/4 (trials=2)" in out
    code, out, _ = run(capsys, "info", "--family", "single", "--n", "5")
    assert code == 0 and out.startswith("family=single n=5 q=2 rho=1\n")
    info = write_info(tmp_path, 3)
    code, out, _ = run(capsys, "encode", "--family", "single", "--n", "4", "--info", info)
    assert code == 0 and out.startswith("graphcode-v1")


def test_shared_parser_calls_the_current_command_function(capsys, monkeypatch):
    import graphcodes.cli as cli

    assert run(capsys, "info", "--family", "single", "--n", "3")[0] == 0  # parser built
    calls = []
    monkeypatch.setattr(cli, "cmd_info", lambda args: calls.append(args.n) or 0)
    assert run(capsys, "info", "--family", "single", "--n", "5")[0] == 0
    assert calls == [5]


def test_decode_json_refuses_output_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    info = write_info(tmp_path, 3)
    run(capsys, "encode", "--family", "single", "--n", "4", "--info", info, "--output", "g.txt")
    run(capsys, "erase", "--input", "g.txt", "--fail", "1", "--output", "e.txt")
    code, out, err = run(capsys, "decode", "--family", "single", "--input", "e.txt",
                         "--format", "json", "--output", "-")
    assert code == 1 and out == "" and "--output -" in err
    assert not (tmp_path / "-").exists()
    code, out, _ = run(capsys, "decode", "--family", "single", "--input", "e.txt",
                       "--format", "json", "--output", "d.txt")
    assert code == 0 and json.loads(out)["status"] == "ok"
    assert (tmp_path / "d.txt").read_text() == (tmp_path / "g.txt").read_text()


# -- fuzzing the readers: any text gives an exit code and a message -------------

VALID_GRAPH = ("graphcode-v1 n=5 field=gf(2)\nerased=4:0,4:1,4:2,4:3,4:4\n"
               "1\n0 1\n1 1 0\n0 0 1 1\n0 0 0 0 0\n")
VALID_INFO = "1\n0 1\n1 1 0\n"
# pieces that reach the readers' edge cases: separators, signs, long tokens,
# names, JSON and non-ASCII digits
PIECES = ["0", "1", "7", " ", "\n", "\t", "\r\n", ":", ",", "+", "-", "0" * 18, "9" * 19,
          "erased=", "4:0", "{", "}", "[", "]", '"', '"rows": ', "\u0663", "x", "gf(2)", "n=5"]


@st.composite
def fuzzed_text(draw, valid):
    """Random text, or a valid file with random slices replaced by pieces."""
    if draw(st.booleans()):
        return draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=80))
    text = valid
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(st.sampled_from(PIECES)) + text[at + cut:]
    return text


FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("argv,option,valid", [
    (["decode", "--family", "double"], "--input", VALID_GRAPH),
    (["encode", "--family", "double", "--n", "5"], "--info", VALID_INFO),
    (["encode", "--family", "extreme", "--n", "5", "--q", "3"], "--info", "[1, 2, 0]\n"),
], ids=["decode-input", "encode-info", "extreme-message"])
def test_fuzzed_files_give_an_exit_code_and_a_message(tmp_path, capsys, argv, option, valid):
    @FUZZ
    @given(text=fuzzed_text(valid))
    def check(text):
        path = tmp_path / "fuzz.txt"
        path.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, *argv, option, str(path), "--output", str(tmp_path / "out.txt"))
        assert code in (0, 1, 2, 3)
        if code:
            assert err.startswith(("error:", "decode failed:")), err

    check()


FAIL_PIECES = ["0", "1", "4", "5", "-1", "", " ", "+2", "01", "1_0", "٣", "x", "1.0",
               "9" * 19, "9" * 5000, ",", ":", "\t", "--fail"]


@st.composite
def fuzzed_fail_list(draw):
    """Random text, or node lists made of pieces joined by commas."""
    if draw(st.booleans()):
        return draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=40))
    return ",".join(draw(st.lists(st.sampled_from(FAIL_PIECES), max_size=6)))


def test_fuzzed_fail_lists_give_an_exit_code_and_a_message(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text(VALID_GRAPH.replace("erased=4:0,4:1,4:2,4:3,4:4\n", ""), encoding="utf-8")

    @FUZZ
    @given(fail=fuzzed_fail_list())
    def check(fail):
        out = tmp_path / "out.txt"
        out.unlink(missing_ok=True)
        code, _, err = run(capsys, "erase", "--input", str(graph), "--fail", fail, "--output", str(out))
        assert code in (0, 1, 2, 3)
        if code:
            assert err.startswith("error:"), err
        else:
            g = LabeledGraph.from_string(out.read_text())
            assert g.erased.any() == bool(fail.strip(", "))

    check()


@st.composite
def fuzzed_run_options(draw):
    """``verify`` or ``bench`` options over every family, n 0..9, field
    orders that name no field (0, 1, 6), rho, trials 0..3, suites and
    format.  The family's own q and rho are drawn most often, so that most
    runs reach the codes.  ``--jobs`` is left out, so no worker pool starts."""
    command = draw(st.sampled_from(["verify", "bench"]))
    argv = [command, "--family", draw(st.sampled_from(FAMILIES)),
            "--n", str(draw(st.sampled_from([7, 5, 3, 4, 6, 8, 9, 0, 1, 2]))),
            "--trials", str(draw(st.sampled_from([1, 2, 3, 0])))]
    q = draw(st.sampled_from([None] * 4 + [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13]))
    if q is not None:
        argv += ["--q", str(q)]
    if command == "verify":
        rho = draw(st.sampled_from([None] * 4 + list(range(-1, 11))))
        if rho is not None:
            argv += ["--rho", str(rho)]
        for suite in draw(st.lists(st.sampled_from(sorted(SUITES)), max_size=2)):
            argv += ["--suite", suite]
    fmt = draw(st.none() | st.sampled_from(["text", "json"]))
    return argv if fmt is None else argv + ["--format", fmt]


def verify_reports_a_failure(out: str) -> bool:
    """Whether a verify report shows a failed pattern or a failed suite."""
    if out.startswith("{"):
        obj = json.loads(out)
        suites = obj.get("suites", {}).values()
        return (obj["patterns_ok"] < obj["patterns_total"]
                or any(s.get("violations") or s.get("ok") is False for s in suites))
    ok, total = re.search(r"^patterns ok: (\d+)/(\d+)", out, re.M).groups()
    return ok != total or re.search(r"^suite \w+: (?!ok\b)", out, re.M) is not None


def test_fuzzed_verify_and_bench_options_give_an_exit_code_and_a_message(capsys):
    # exit 1 is a refused request ("error: ..."); exit 4 is a verify run whose
    # report, on standard output, shows what failed
    @FUZZ
    @given(argv=fuzzed_run_options())
    def check(argv):
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 4), (argv, code)
        if code == 1:
            assert err.startswith("error:"), (argv, err)
        elif code == 4:
            assert argv[0] == "verify" and verify_reports_a_failure(out), (argv, out)
            assert err.startswith("verify failed: ") and err.count("\n") == 1, (argv, err)
        elif argv[0] == "verify":
            assert not verify_reports_a_failure(out), (argv, out)

    check()
