"""Command-line interface: info, encode, erase, decode, verify, bench.

Exit codes: 0 success, 1 usage or validation problem, 2 decode failed with an
underdetermined system, 3 decode failed on inconsistent input, 4 verify found a
failed pattern or property suite.  All commands
are deterministic for a fixed --seed (GRAPHCODE_SEED is the fallback); text
reports omit timings so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import random
import statistics
import sys
import time
from fractions import Fraction

import numpy as np

from . import double, extreme, single, triple
from .errors import GraphCodeError
from .field import field, is_prime_power
from .framework import (
    CodeMetrics,
    encode_systematic,
    erased_edge_bound,
    metrics,
    recover,
    verify_exhaustive,
)
from .graphs import LabeledGraph, num_edges, read_edge_names, read_ints, read_plain_rows, read_rows

FAMILIES = ("single", "double", "triple", "extreme")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDERDETERMINED = 2
EXIT_INCONSISTENT = 3
EXIT_VERIFY_FAILED = 4


class UsageError(GraphCodeError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse problems to exit code 1
        raise UsageError(message)


def default_field_order(family: str, n: int) -> int:
    if family in ("single", "double"):
        return 2
    if family == "triple":
        return triple.smallest_field_order(n)
    q = 2
    while True:
        if is_prime_power(q) and extreme.code_exists(n, q):
            return q
        q += 1


def build_spec(family: str, n: int, q: int):
    if family == "single":
        return single.single_parity_code(n, field(q))
    if family == "double":
        if q != 2:
            raise UsageError("the double-failure family is binary; use --q 2")
        return double.double_parity_code(n)
    if family == "triple":
        return triple.triple_code(n, field(q))
    raise UsageError(f"no parity-check spec for family {family!r}")


def resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("GRAPHCODE_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"GRAPHCODE_SEED={env!r} is not an integer") from None


def _emit(args, text_lines: list[str], json_obj: dict) -> None:
    if args.format == "json":
        print(json.dumps(json_obj, indent=2))
    else:
        for line in text_lines:
            print(line)


def _write_graph(g: LabeledGraph, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(g.to_text())
    else:
        g.save(path)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@contextlib.contextmanager
def _reading(option: str, path: str):
    """Refuse, naming the file, what the JSON reader cannot follow: arrays or
    objects nested too deeply raise RecursionError, not ValueError."""
    try:
        yield
    except RecursionError:
        raise UsageError(f"{option} {path}: JSON nested too deeply to read") from None


def _read_graph(path: str) -> LabeledGraph:
    text = _read_text(path)
    with _reading("--input", path):
        return LabeledGraph.from_string(text)


def parse_info_file(text: str, k_nodes: int) -> dict | np.ndarray:
    """Information labels, either a JSON map {"i:j": v} or triangular text.

    The JSON form comes back as {(i, j): v}, the text form as an int64 array
    in edge order; ``systematic_erasure`` checks the edges and values of both.
    """
    if text.lstrip().startswith("{"):
        info = json.loads(text)
        return dict(zip(map(tuple, read_edge_names(list(info)).tolist()), info.values()))
    values = read_plain_rows(text, k_nodes)
    if values is not None:
        return values
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    return read_ints(read_rows(rows, k_nodes, "expected {count} triangular rows, got {got}",
                               "information row {i} must have {size} entries", UsageError))


def parse_message_file(text: str, gf, path: str) -> list[int]:
    """The three symbols of the extreme message file ``path``: a JSON list,
    or integers separated by whitespace."""
    form = f"--info {path}: expected three integer symbols, as a JSON list or separated by whitespace"
    try:
        vals = json.loads(text) if text.lstrip().startswith("[") else read_ints(text.split()).tolist()
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise UsageError(f"{form} ({exc})") from None
    if len(vals) != 3:
        raise UsageError(f"{form}, got {len(vals)}")
    return [gf.validate(v) for v in vals]


# ---------------------------------------------------------------------------
# commands


def resolve_rho(args, spec) -> int:
    """--rho, which must be at most n, or else the redundancy nodes the spec's
    encode plan recovers, n - k_info (n - 2 for extreme, which has no spec)."""
    if args.rho is None:
        return args.n - (2 if spec is None else spec.k_info)
    if args.rho > args.n:
        raise UsageError(f"--rho {args.rho} exceeds the node count n={args.n}")
    return args.rho


def cmd_info(args) -> int:
    n = args.n
    q = args.q if args.q is not None else default_field_order(args.family, n)
    spec = None if args.family == "extreme" else build_spec(args.family, n, q)
    rho = resolve_rho(args, spec)
    if spec is None:
        if not extreme.code_exists(n, q):
            raise UsageError(f"no extreme code for n={n}, q={q}")
        t, bound = num_edges(n), erased_edge_bound(n, rho)
        m = CodeMetrics(n, q, rho, 3, t - 3, Fraction(3, t), bound, t - 3 - bound).as_dict()
    else:
        m = metrics(spec, rho).as_dict()
    alt = [row for row in comparison_rows(n, rho) if row.pop("valid")]
    lines = [
        f"family={args.family} n={n} q={m['q']} rho={m['rho']}",
        f"dimension={m['dimension']} redundancy={m['redundancy']} rate={m['rate']}",
        f"erased-edge bound={m['bound']} optimality gap={m['gap']}",
        "alternative routes (not implemented; redundancy from their stated formulas):",
    ]
    for row in alt:
        lines.append(f"  {row['route']}: redundancy={row['redundancy']} field={row['field']}")
    lines.append("  note: an optimal q-ary two-failure analogue is referenced without a construction; not implemented")
    return _emit(args, lines, {"family": args.family, **m, "alternatives": alt}) or EXIT_OK


def comparison_rows(n: int, rho: int) -> list[dict]:
    sym = n * rho if n % 2 == 1 else (n + 1) * rho
    rows = [
        {"route": "symmetric-array-code construction", "redundancy": sym, "field": "q=2",
         "valid": rho < n / 2},
        {"route": "even-n array variant", "redundancy": n * rho, "field": f"q>={n // 2}",
         "valid": n % 2 == 0},
        {"route": "crisscross-code adaptation", "redundancy": 2 * rho * n - (2 * rho) * (2 * rho - 1) // 2,
         "field": f"q>={n - 1}", "valid": True},
        {"route": "MDS code on all edges", "redundancy": erased_edge_bound(n, rho),
         "field": f"q>={num_edges(n) - 1} (order n^2)", "valid": True},
    ]
    return rows


def cmd_encode(args) -> int:
    n = args.n
    q = args.q if args.q is not None else default_field_order(args.family, n)
    seed = resolve_seed(args)
    text = _read_text(args.info)
    if args.family == "extreme":
        gen = extreme.build_generator(n, q, seed)
        with _reading("--info", args.info):
            u = parse_message_file(text, gen.gf, args.info)
        g = extreme.encode_message(gen, u)
    else:
        spec = build_spec(args.family, n, q)
        with _reading("--info", args.info):
            info = parse_info_file(text, spec.k_info)
        g = encode_systematic(spec, info)
    _write_graph(g, args.output)
    return EXIT_OK


def cmd_erase(args) -> int:
    g = _read_graph(args.input)
    failed = parse_fail_list(args.fail, g.n)
    _write_graph(g.erase_nodes(failed), args.output)
    return EXIT_OK


def parse_fail_list(text: str, n: int) -> set[int]:
    if not text:
        return set()
    nodes = {int(tok) for tok in text.split(",")}
    for m in nodes:
        if not 0 <= m < n:
            raise UsageError(f"failed node {m} out of range for n={n}")
    return nodes


def cmd_decode(args) -> int:
    if args.format == "json" and args.output == "-":
        raise UsageError("--output - is standard output, which carries the JSON report; "
                         "name a file for the decoded graph")
    g = _read_graph(args.input)
    n = g.n
    q = g.gf.q
    if args.n is not None and args.n != n:
        raise UsageError(f"--n {args.n} does not match file (n={n})")
    if args.q is not None and args.q != q:
        raise UsageError(f"--q {args.q} does not match file ({g.gf.name})")
    if args.family == "extreme":
        gen = extreme.build_generator(n, q, resolve_seed(args))
        report = extreme.decode_surviving_graph(gen, g)
    else:
        report = recover(build_spec(args.family, n, q), g)
    if not report.ok:
        print(f"decode failed: {report.reason}", file=sys.stderr)
        return EXIT_UNDERDETERMINED if report.reason == "underdetermined" else EXIT_INCONSISTENT
    if args.provenance:
        with open(args.provenance, "w", encoding="utf-8") as fh:
            fh.write(report.provenance_text() + "\n")
    if args.format == "json":
        prov = report.provenance_json()
        obj = {
            "status": "ok",
            "family": args.family,
            "n": n,
            "q": q,
            "recovered_edges": len(prov),
            "provenance": prov,
        }
        print(json.dumps(obj, indent=2))
        if args.output:
            report.graph.save(args.output)
    else:
        _write_graph(report.graph, args.output)
    return EXIT_OK


SUITES = {
    "sets": ("double", lambda args: {"violations": double.check_set_intersections(args.n)}),
    "schedule": ("double", lambda args: {"violations": double.check_schedule_invariants(args.n)}),
    "independence": ("triple", lambda args: {"violations": triple.check_cross_independence(
        args.n, field(args.q if args.q else default_field_order("triple", args.n)))}),
    "overlap": ("triple", lambda args: {"violations": triple.check_neighborhood_overlap(args.n)}),
    "counting": ("extreme", None),  # handled inline
}


def _counting_suite(n: int, q: int, samples: int, seed: int) -> dict:
    formula = extreme.count_formula(n, q)
    out: dict = {"formula": formula, "distinct_codes": extreme.count_distinct_codes(n, q)}
    total = q ** (3 * num_edges(n))
    if total <= extreme.EXHAUSTIVE_BOUND:
        exact = extreme.count_exhaustive(n, q)
        out["exhaustive"] = exact
        out["ok"] = exact == formula
    else:
        mc = extreme.estimate_rate_montecarlo(n, q, samples, seed)
        expected = formula / total
        # distance in standard errors of the expected rate, which stays
        # meaningful when the sample holds no hit
        stderr = math.sqrt(expected * (1.0 - expected) / samples)
        sigmas = abs(mc["rate"] - expected) / stderr if stderr else 0.0
        out["montecarlo"] = {**mc, "expected_rate": expected, "sigmas": sigmas}
        out["ok"] = sigmas <= 4.0 if stderr else mc["rate"] == expected
    return out


def cmd_verify(args) -> int:
    n = args.n
    q = args.q if args.q is not None else default_field_order(args.family, n)
    seed = resolve_seed(args)
    spec = None if args.family == "extreme" else build_spec(args.family, n, q)
    rho = resolve_rho(args, spec)
    if spec is None:
        if rho != n - 2:
            raise UsageError(f"--rho {rho}: verify fails every n-2={n - 2} node set of the extreme family")
        report = _verify_extreme(n, q, args.trials, seed)
    else:
        report = verify_exhaustive(spec, rho, args.trials, seed=seed, decoder=recover, jobs=args.jobs)
    suites = {}
    failed = []
    for name in args.suite or []:
        fam, fn = SUITES[name]
        if fam != args.family:
            raise UsageError(f"suite {name!r} applies to family {fam!r}")
        if name == "counting":
            suites[name] = _counting_suite(n, q, args.trials if args.trials > 10 else 10**5, seed)
            passed = suites[name]["ok"]
        else:
            suites[name] = fn(args)
            passed = not suites[name]["violations"]
        if not passed:
            failed.append(name)
    if suites:
        report["suites"] = suites
    lines = [
        f"family={report['family']} n={report['n']} q={report['q']} rho={report['rho']}",
        f"patterns ok: {report['patterns_ok']}/{report['patterns_total']} (trials={report['trials']})",
    ]
    for f in report["failures"]:
        lines.append(f"  failed {f['failed_nodes']}: {f['reason']}")
    for name, res in suites.items():
        if "violations" in res:
            lines.append(f"suite {name}: {'ok' if not res['violations'] else res['violations']}")
        else:
            lines.append(f"suite {name}: {'ok' if res['ok'] else 'MISMATCH'} formula={res['formula']}")
    json_report = dict(report)
    _emit(args, lines, json_report)
    if report["patterns_ok"] == report["patterns_total"] and not failed:
        return EXIT_OK
    print(f"verify failed: {report['patterns_ok']}/{report['patterns_total']} patterns ok"
          + "".join(f"; suite {name} failed" for name in failed), file=sys.stderr)
    return EXIT_VERIFY_FAILED


def _verify_extreme(n: int, q: int, trials: int, seed: int) -> dict:
    import itertools

    start = time.perf_counter()
    gen = extreme.build_generator(n, q, seed)
    failures = []
    pairs = list(itertools.combinations(range(n), 2))
    for i, j in pairs:
        bad = None
        for trial in range(trials):
            rng = random.Random(f"{seed}|{i},{j}|{trial}")
            u = tuple(rng.randrange(q) for _ in range(3))
            g = extreme.encode_message(gen, u)
            rep = extreme.decode_surviving_graph(gen, g.erase_nodes(set(range(n)) - {i, j}))
            if not rep.ok or rep.graph != g:
                bad = rep.reason or "mismatch"
                break
        if bad:
            failures.append({"failed_nodes": sorted(set(range(n)) - {i, j}), "reason": bad})
    return {
        "family": "extreme",
        "n": n,
        "q": q,
        "rho": n - 2,
        "trials": trials,
        "patterns_total": len(pairs),
        "patterns_ok": len(pairs) - len(failures),
        "failures": failures,
        "elapsed_ms": (time.perf_counter() - start) * 1000.0,
    }


def cmd_bench(args) -> int:
    n = args.n
    q = args.q if args.q is not None else default_field_order(args.family, n)
    seed = resolve_seed(args)
    rng = random.Random(f"bench|{args.family}|{n}|{q}|{seed}")
    rows = []
    if args.family == "extreme":
        gen = extreme.build_generator(n, q, seed)
        msgs = [[rng.randrange(q) for _ in range(3)] for _ in range(args.trials)]
        enc_times, graphs = _timed(lambda u: extreme.encode_message(gen, u), msgs)
        erased = [g.erase_nodes(set(range(n)) - set(rng.sample(range(n), 2))) for g in graphs]
        dec_times, _ = _timed(lambda g: extreme.decode_surviving_graph(gen, g), erased)
    else:
        spec = build_spec(args.family, n, q)
        rho = n - spec.k_info
        k_edges = num_edges(spec.k_info)
        infos = [[rng.randrange(q) for _ in range(k_edges)] for _ in range(args.trials)]
        enc_times, graphs = _timed(lambda v: encode_systematic(spec, v), infos)
        erased = [g.erase_nodes(set(rng.sample(range(n), rho))) for g in graphs]
        dec_times, _ = _timed(lambda g: recover(spec, g), erased)
    for op, times in (("encode", enc_times), ("decode", dec_times)):
        rows.append({
            "family": args.family, "n": n, "q": q, "op": op,
            "median_us": round(statistics.median(times), 1),
            "p95_us": round(sorted(times)[math.ceil(0.95 * len(times)) - 1], 1),
        })
    lines = [f"{r['family']} n={r['n']} q={r['q']} {r['op']}: median {r['median_us']} us, p95 {r['p95_us']} us"
             for r in rows]
    _emit(args, lines, {"results": rows})
    return EXIT_OK


def _timed(fn, inputs):
    times = []
    outputs = []
    for item in inputs:
        t0 = time.perf_counter_ns()
        outputs.append(fn(item))
        times.append((time.perf_counter_ns() - t0) / 1000.0)
    return times, outputs


# ---------------------------------------------------------------------------
# argument wiring


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def make_parser() -> _Parser:
    """The argument parser, built once per process and shared by every call.
    It holds no command function: ``main`` looks up ``cmd_<command>`` on
    each call."""
    p = _Parser(prog="graphcode", description="Erasure codes over edge-labeled complete graphs")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, need_n=True, report=True):
        if need_n:
            sp.add_argument("--n", type=int, required=True, help="number of nodes")
        else:
            sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--q", type=int, default=None, help="field order (family default otherwise)")
        sp.add_argument("--seed", type=int, default=None, help="seed (env GRAPHCODE_SEED fallback)")
        if report:
            sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("info", help="dimension/redundancy/rate and the optimality gap")
    sp.add_argument("--family", choices=FAMILIES, required=True)
    add_common(sp)
    sp.add_argument("--rho", type=_positive, default=None, help="failure count for the bound")

    sp = sub.add_parser("encode", help="systematic encode of an information file")
    sp.add_argument("--family", choices=FAMILIES, required=True)
    add_common(sp, report=False)
    sp.add_argument("--info", required=True, help="info file (JSON map or triangular text); '-' for stdin")
    sp.add_argument("--output", default=None, help="graph file to write (stdout otherwise)")

    sp = sub.add_parser("erase", help="apply a node-failure erasure mask")
    sp.add_argument("--input", required=True, help="graph file; '-' for stdin")
    sp.add_argument("--fail", default="", help="comma-separated failed nodes")
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("decode", help="recover erased edges")
    sp.add_argument("--family", choices=FAMILIES, required=True)
    add_common(sp, need_n=False)
    sp.add_argument("--input", required=True, help="erased graph file; '-' for stdin")
    sp.add_argument("--output", default=None)
    sp.add_argument("--provenance", default=None, help="write per-edge recovery provenance JSON here")

    sp = sub.add_parser("verify", help="exhaustive erase-decode-compare campaign")
    sp.add_argument("--family", choices=FAMILIES, required=True)
    add_common(sp)
    sp.add_argument("--rho", type=_positive, default=None)
    sp.add_argument("--trials", type=_positive, default=10)
    sp.add_argument("--jobs", type=_positive, default=1)
    sp.add_argument("--suite", action="append", choices=sorted(SUITES), default=None,
                    help="extra property suite (repeatable)")

    sp = sub.add_parser("bench", help="encode/decode timing")
    sp.add_argument("--family", choices=FAMILIES, required=True)
    add_common(sp)
    sp.add_argument("--trials", type=_positive, default=9)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphCodeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
