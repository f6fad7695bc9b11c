#!/usr/bin/env python3
"""Print SHA-256 digests of decode results and CLI outputs, to show a change left them alone.

    PYTHONPATH=src python3 tools/decode_digest.py

The library part decodes, with the family decoder and with ``oracle_decode``,
three seeded codewords under every node subset of each small code below, plus
20 seeded erasure masks per code that are not node failures.  It prints one
digest per (code, decoder) over each report's status, reason, labels and
provenance, and one per code over each family report's ``spare_checks`` and
the check rows of its steps, in order.  The CLI part runs ``encode``, ``erase``, ``decode --output
--provenance`` and ``decode --format json`` in process for every failure set
of one to three nodes, and prints one digest per (code, command) over the exit
codes, standard output and error, and the files written.  The same commands
then run at the benchmark's sizes, double n=101 (43 node pairs) and triple
n=31 over GF(32) (23 node triples, multi-digit labels); ``encode`` reads
information given as a JSON map; and a fixed list of malformed graph and
information files (signs, tabs, a Unicode digit, 18- and 19-digit tokens,
bad and duplicate names, rows of the wrong length) goes to ``erase``,
``decode`` and ``encode``, whose exit codes and messages are digested.
``verify`` runs the property suites of the double codes n = 5, 7, 11, 13
(``sets``, ``schedule``) and the triple codes (n, q) = (7, 8), (8, 9),
(10, 11) (``independence``, ``overlap``), one digest per code over the
exit codes, the text report and the JSON report without ``elapsed_ms``.  Last,
the family decoders run at the benchmark's sizes, double n=101 (300 node
pairs) and triple n=31 over GF(32) (100 node triples), one digest per code,
and one digest covers the default polynomial and the exp/log tables of every
extension field GF(p^m), m >= 2, up to the largest order the library takes.

The tool imports whichever ``graphcodes`` is on the path, so running it once
with each checkout's ``src`` on ``PYTHONPATH`` compares two versions; equal
lines mean equal outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import tempfile
from pathlib import Path

import numpy as np

import graphcodes as gc
from graphcodes.cli import main as cli_main
from graphcodes.field import MAX_ORDER, is_prime, is_prime_power

LIBRARY_CODES = [
    ("single n=12 q=2", lambda: gc.single_parity_code(12, gc.field(2)), gc.decode_single),
    ("single n=6 q=11", lambda: gc.single_parity_code(6, gc.field(11)), gc.decode_single),
    ("double n=11 q=2", lambda: gc.double_parity_code(11), gc.decode_double),
    ("triple n=8 q=9", lambda: gc.triple_code(8, gc.field(9)), gc.decode_triple),
    ("triple n=10 q=11", lambda: gc.triple_code(10, gc.field(11)), gc.decode_triple),
    # odd extension fields with three digits, and with digits above 127
    ("single n=7 q=27", lambda: gc.single_parity_code(7, gc.field(27)), gc.decode_single),
    ("single n=5 q=17161", lambda: gc.single_parity_code(5, gc.field(17161)), gc.decode_single),
]
CLI_CODES = [("single", 6, 11), ("double", 11, 2), ("triple", 8, 9)]
CODEWORDS = 3
# the CLI at the benchmark's sizes: seeded failure sets plus fixed ones
CLI_BENCH_CODES = [("double", 101, 2, 40, [(99, 100), (0, 99), (57, 100)]),
                   ("triple", 31, 32, 20, [(28, 29, 30), (0, 29, 30), (5, 17, 30)])]
# damaged copies of one graph file (single n=4 over GF(11), node 3 failed)
# and one information file (its 3 information rows); some are still valid
GRAPH = "graphcode-v1 n=4 field=gf(11)\nerased=3:0,3:1,3:2,3:3\n1\n2 3\n4 5 6\n0 0 0 0\n"
INFO = "1\n2 3\n4 5 6\n"
BAD_GRAPHS = [
    ("2 3", "+2 3"), ("2 3", "2\t3"), ("2 3", "2 \u0663"), ("2 3", "2 0003"),
    ("2 3", "2 999999999999999999"), ("2 3", "2 1000000000000000003"),
    ("2 3", "2 9999999999999999999"), ("2 3", "2 -3"), ("2 3", "2 x"), ("2 3", "2 3 0"),
    ("2 3", "2"), ("\n1\n", "\n\n1\n\n"), ("\n", "\r\n"), ("3:1", "3:x"), ("3:1", "1:3,3:1"),
    ("3:1", "4:1"), ("3:1", "-1:3"), ("3:1", "+3:01"), ("3:1", "3:1:0"), ("3:1", "3::1"),
    ("3:1,", "3:1,,"), ("erased=", "erased= "), ("erased=3:0,3:1,3:2,3:3\n", ""),
]
BAD_INFOS = [
    ("2 3", "+2 3"), ("2 3", "2\t3"), ("2 3", "2 \u0663"), ("2 3", "2 0003"),
    ("2 3", "2 1000000000000000003"), ("2 3", "2 9999999999999999999"), ("2 3", "2 x"),
    ("2 3", "2 3 0"), ("4 5 6\n", "4 5 6\n7\n"), ("\n", "\r\n"), ("\n2", "\n\n 2"),
]
MASKS = 20
# verify's property suites, with the family's field
SUITE_CODES = [("double", n, 2, ("sets", "schedule")) for n in (5, 7, 11, 13)] + [
    ("triple", n, q, ("independence", "overlap")) for n, q in ((7, 8), (8, 9), (10, 11))]
# the benchmark's sizes, where the zig-zag loops and the triple stages run
# long: seeded failure sets plus fixed ones on the last nodes (the encode
# pair or triple, and sets that reach the oracle)
BENCH_CODES = [
    ("double n=101 q=2", lambda: gc.double_parity_code(101), gc.decode_double, 2, 300,
     [(99, 100), (0, 99), (57, 100), (98, 99)]),
    ("triple n=31 q=32", lambda: gc.triple_code(31, gc.field(32)), gc.decode_triple, 3, 100,
     [(28, 29, 30), (0, 29, 30), (5, 17, 30)]),
]


def _report_record(report) -> bytes:
    labels = report.graph.labels.tolist() if report.graph is not None else None
    return json.dumps([report.status, report.reason, labels, report.provenance_json()],
                      sort_keys=True).encode()


def _non_node_masks(n: int, rng: random.Random) -> list[np.ndarray]:
    t = gc.num_edges(n)
    masks = []
    while len(masks) < MASKS:
        mask = np.zeros(t, dtype=bool)
        mask[rng.sample(range(t), rng.randint(1, t // 2))] = True
        if gc.failed_nodes_of(gc.LabeledGraph(n, gc.field(2), erased=mask)) is None:
            masks.append(mask)
    return masks


def library_digests() -> list[str]:
    lines = []
    for label, build, family_decode in LIBRARY_CODES:
        spec = build()
        n = spec.n
        words = [gc.random_codeword(spec, random.Random(f"digest|{label}|{k}")) for k in range(CODEWORDS)]
        erased = [w.erase_nodes(nodes) for r in range(n + 1)
                  for nodes in itertools.combinations(range(n), r) for w in words]
        masks = _non_node_masks(n, random.Random(f"digest|{label}|masks"))
        erased += [gc.LabeledGraph(n, spec.gf, words[k % CODEWORDS].labels, m)
                   for k, m in enumerate(masks)]
        rows = hashlib.sha256()
        for name, decode in (("family", family_decode), ("oracle", gc.oracle_decode)):
            h = hashlib.sha256()
            for g in erased:
                report = decode(spec, g)
                h.update(_report_record(report))
                if name == "family":
                    rows.update(json.dumps([report.spare_checks,
                                            [np.asarray(s.rows).tolist() for s in report.steps]]).encode())
            lines.append(f"library {label} {name} ({len(erased)} decodes) {h.hexdigest()}")
        lines.append(f"library {label} family spare checks and step rows ({len(erased)} decodes) "
                     f"{rows.hexdigest()}")
    return lines


def bench_size_digests() -> list[str]:
    lines = []
    for label, build, decode, rho, count, fixed in BENCH_CODES:
        spec = build()
        rng = random.Random(f"digest|{label}|sets")
        sets = fixed + [tuple(sorted(rng.sample(range(spec.n), rho))) for _ in range(count - len(fixed))]
        words = [gc.random_codeword(spec, random.Random(f"digest|{label}|{k}")) for k in range(CODEWORDS)]
        h = hashlib.sha256()
        for k, nodes in enumerate(sets):
            h.update(_report_record(decode(spec, words[k % CODEWORDS].erase_nodes(nodes))))
        lines.append(f"library {label} family ({len(sets)} decodes) {h.hexdigest()}")
    return lines


def field_digests() -> list[str]:
    h = hashlib.sha256()
    orders = [q for q in range(4, MAX_ORDER + 1) if is_prime_power(q) and not is_prime(q)]
    for q in orders:
        gf = gc.field(q)
        h.update(json.dumps([q, gf.poly]).encode())
        h.update(gf._exp.tobytes())
        h.update(gf._log.tobytes())
    return [f"field tables ({len(orders)} extension fields up to {orders[-1]}) {h.hexdigest()}"]


def _cli(h, argv: list[str], files: list[Path]) -> None:
    """Run one command and feed its exit code, output and files to ``h``."""
    for path in files:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    h.update(json.dumps([code, out.getvalue(), err.getvalue()]).encode())
    for path in files:
        h.update(path.read_bytes() if path.exists() else b"<absent>")


def _cli_round_trips(tmp: Path, family: str, n: int, q: int, sets: list[tuple]) -> list[str]:
    """Encode one seeded information file, then erase and decode every
    failure set in ``sets``; one digest per command."""
    graph, erased, out, prov = (tmp / name for name in ("g.txt", "e.txt", "out.txt", "prov.json"))
    rng = random.Random(f"digest|cli|{family}|{n}|{q}")
    k_info = {"single": n - 1, "double": n - 2, "triple": n - 3}[family]
    info = tmp / "info.txt"
    info.write_text("".join(" ".join(str(rng.randrange(q)) for _ in range(i + 1)) + "\n"
                            for i in range(k_info)))
    code = ["--family", family, "--n", str(n), "--q", str(q)]
    hashes = {cmd: hashlib.sha256() for cmd in ("encode", "erase", "decode", "decode-json")}
    _cli(hashes["encode"], ["encode", *code, "--info", str(info)], [])
    _cli(hashes["encode"], ["encode", *code, "--info", str(info), "--output", str(graph)], [graph])
    for nodes in sets:
        fail = ",".join(map(str, nodes))
        _cli(hashes["erase"], ["erase", "--input", str(graph), "--fail", fail,
                               "--output", str(erased)], [erased])
        _cli(hashes["decode"], ["decode", "--family", family, "--input", str(erased),
                                "--output", str(out), "--provenance", str(prov)], [out, prov])
        _cli(hashes["decode-json"], ["decode", "--family", family, "--input", str(erased),
                                     "--format", "json"], [])
    return [f"cli {family} n={n} q={q} {cmd} ({len(sets)} failure sets) {h.hexdigest()}"
            for cmd, h in hashes.items()]


def cli_digests(tmp: Path) -> list[str]:
    lines = []
    for family, n, q in CLI_CODES:
        sets = [s for r in (1, 2, 3) for s in itertools.combinations(range(n), r)]
        lines += _cli_round_trips(tmp, family, n, q, sets)
    for family, n, q, count, fixed in CLI_BENCH_CODES:
        rho = len(fixed[0])
        rng = random.Random(f"digest|cli-bench|{family}|{n}")
        sets = fixed + [tuple(sorted(rng.sample(range(n), rho))) for _ in range(count)]
        lines += _cli_round_trips(tmp, family, n, q, sets)
    return lines


def cli_json_info_digests(tmp: Path) -> list[str]:
    """Encode from information given as a JSON map, its keys shuffled and
    some written j:i."""
    lines = []
    info, graph = tmp / "info.json", tmp / "g.txt"
    for family, n, q in CLI_CODES:
        rng = random.Random(f"digest|cli-json|{family}|{n}|{q}")
        k_info = {"single": n - 1, "double": n - 2, "triple": n - 3}[family]
        names = [(i, j) if rng.random() < 0.5 else (j, i) for i in range(k_info) for j in range(i + 1)]
        rng.shuffle(names)
        info.write_text(json.dumps({f"{i}:{j}": rng.randrange(q) for i, j in names}))
        h = hashlib.sha256()
        _cli(h, ["encode", "--family", family, "--n", str(n), "--q", str(q), "--info", str(info),
                 "--output", str(graph)], [graph])
        lines.append(f"cli {family} n={n} q={q} encode-json-info {h.hexdigest()}")
    return lines


def cli_malformed_digests(tmp: Path) -> list[str]:
    """Exit codes and messages of the commands that read the damaged files;
    the temporary directory's name is taken out of the messages."""
    graph, info, out = tmp / "bad.txt", tmp / "info.txt", tmp / "out.txt"

    def run(h, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        h.update(json.dumps([code, err.getvalue().replace(str(tmp), "<tmp>")]).encode())

    lines = []
    h = hashlib.sha256()
    for old, new in BAD_GRAPHS:
        graph.write_text(GRAPH.replace(old, new, 1), encoding="utf-8")
        run(h, ["erase", "--input", str(graph), "--fail", "0", "--output", str(out)])
        run(h, ["decode", "--family", "single", "--input", str(graph), "--output", str(out)])
    lines.append(f"cli malformed graph files ({len(BAD_GRAPHS)}) {h.hexdigest()}")
    h = hashlib.sha256()
    for old, new in BAD_INFOS:
        info.write_text(INFO.replace(old, new, 1), encoding="utf-8")
        run(h, ["encode", "--family", "single", "--n", "4", "--q", "11", "--info", str(info),
                "--output", str(out)])
    for bad in ('{"0:0": 1, "1:0": 2, "0:1": 3}', '{"0:0": 1, "1:x": 2}', '{"0:0": 1, "5:0": 2}',
                '{"0:0": 1, "1:0:0": 2}', '{"0:0": 1.5}', '{"0:0": true}'):
        info.write_text(bad, encoding="utf-8")
        run(h, ["encode", "--family", "single", "--n", "4", "--q", "11", "--info", str(info)])
    lines.append(f"cli malformed information files ({len(BAD_INFOS) + 6}) {h.hexdigest()}")
    return lines


def cli_suite_digests() -> list[str]:
    lines = []
    for family, n, q, suites in SUITE_CODES:
        argv = ["verify", "--family", family, "--n", str(n), "--q", str(q), "--trials", "1"]
        argv += [arg for suite in suites for arg in ("--suite", suite)]
        h = hashlib.sha256()
        for fmt in ("text", "json"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main([*argv, "--format", fmt])
            text = out.getvalue()
            if fmt == "json":
                report = json.loads(text)
                del report["elapsed_ms"]
                text = json.dumps(report, sort_keys=True)
            h.update(json.dumps([code, text, err.getvalue()]).encode())
        lines.append(f"cli verify {family} n={n} q={q} suites {','.join(suites)} {h.hexdigest()}")
    return lines


def main() -> None:
    for line in library_digests():
        print(line, flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for part in (cli_digests, cli_json_info_digests, cli_malformed_digests):
            for line in part(Path(tmp)):
                print(line, flush=True)
    for line in cli_suite_digests() + bench_size_digests() + field_digests():
        print(line, flush=True)


if __name__ == "__main__":
    main()
