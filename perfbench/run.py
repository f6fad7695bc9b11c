#!/usr/bin/env python3
"""Encode -> erase -> decode -> check benchmark of graphcodes and its CLI.

    python3 perfbench/run.py --workload double-scatter --seed 1 --seconds 40 --trace 0

Builds nothing: it imports the library from ``src/`` of the checkout it sits
in, in one single-threaded process, and starts no subprocess.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1`` (spans and
counters are also written to ``perfbench/results/``).  See README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

SRC = ROOT / "src"
if not (SRC / "graphcodes" / "__init__.py").is_file():
    sys.exit(f"perfbench: no graphcodes sources in {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

from graphcodes import cli, double, framework, triple  # noqa: E402

# Setup is repeated from cold library caches over the run; its median is setup_s.
SETUP_REPS = 7
# Cycles of a workload's own traced run, and of its probe when another
# workload's traced run needs a layer only this one reaches.
TRACE_CYCLES = {"double-scatter": 200, "triple-rebuild": 320, "cli-files": 30}
PROBE_CYCLES = {"double-scatter": 26, "triple-rebuild": 8, "cli-files": 4}

# Library time is thread CPU time: on a shared VM the vCPU is sometimes
# descheduled for milliseconds, and wall time would count those pauses.
ns = time.thread_time_ns


def stratified(rng: random.Random, items: list, special) -> list:
    """Seeded order of ``items`` with the special ones spread evenly, so that
    every prefix of a run holds the same share of them whatever the seed."""
    sp = [x for x in items if special(x)]
    rest = [x for x in items if not special(x)]
    rng.shuffle(sp)
    rng.shuffle(rest)
    slots = {int((k + 0.5) * len(items) / len(sp)): x for k, x in enumerate(sp)}
    it = iter(rest)
    return [slots[p] if p in slots else next(it) for p in range(len(items))]


def pair_order(rng: random.Random, n: int) -> list:
    """All node pairs, those touching node n-2 or n-1 (the oracle path) spread evenly."""
    pairs = list(itertools.combinations(range(n), 2))
    return stratified(rng, pairs, lambda p: p[1] >= n - 2)


def clear_library_caches() -> None:
    """Empty every functools cache of the library, as in a fresh process."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("graphcodes"):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class Workload:
    """Inputs are a pure function of (seed, cycle index); one round is the
    unit a run stops on."""

    name = ""
    n = 0
    rho = 0
    q = 2
    tail_pct = 99
    round_size = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.k_info = self.n - self.rho
        self.k_edges = self.k_info * (self.k_info + 1) // 2
        self.bound = self.rho * self.n - self.rho * (self.rho - 1) // 2
        self.failure_sets = self.make_failure_sets(random.Random(f"perfbench|{self.name}|{seed}"))
        self.system = self.make_checks(self.n)
        self.mark = lambda phase, op: None

    def info(self, k: int) -> np.ndarray:
        return np.random.default_rng([self.seed, k]).integers(0, self.q, self.k_edges, dtype=np.int64)

    def failed(self, k: int):
        return self.failure_sets[k // self.round_size]

    @property
    def cycles_available(self) -> int:
        return len(self.failure_sets) * self.round_size

    def close(self):
        pass

    def warmup_inputs(self):
        """Fixed inputs, the same for every seed, run inside setup."""
        rng = np.random.default_rng(12345)
        return [(rng.integers(0, self.q, self.k_edges, dtype=np.int64), f) for f in self.warmup_sets]


class LibraryWorkload(Workload):
    module = None
    encode_name = ""
    decode_name = ""

    def setup(self):
        spec = self.build()
        gap = framework.metrics(spec, self.rho).gap
        warm = [self.cycle(spec, info, f, -1) for info, f in self.warmup_inputs()]
        return spec, gap, warm

    def check_setup(self, state):
        spec, gap, warm = state
        if gap != 0:
            raise checks.CheckFailed(f"metrics(spec, {self.rho}).gap = {gap}")
        for out in warm:
            self.check(out)
        checks.self_test(self.system, warm[0][1][1].labels)

    def cycle(self, spec, info, failed, op):
        mod = self.module
        self.mark("encode", op)
        t0 = ns()
        g = getattr(mod, self.encode_name)(spec, info)
        t1 = ns()
        self.mark("erase", op)
        t2 = ns()
        e = g.erase_nodes(failed)
        t3 = ns()
        self.mark("decode", op)
        t4 = ns()
        r = getattr(mod, self.decode_name)(spec, e)
        t5 = ns()
        if not r.ok:
            raise RuntimeError(f"decode failed: {r.reason}")
        return (t1 - t0, t3 - t2, t5 - t4), (info, g, failed, e, r)

    def check(self, out):
        info, g, failed, e, r = out[1]
        checks.check_cycle(self.system, info, g.labels, failed, e.erased, r.graph.labels,
                           r.graph.erased, len(r.provenance), self.bound)


class DoubleScatter(LibraryWorkload):
    """Every cycle fails a new pair from a seeded order of all C(101,2) pairs."""

    name = "double-scatter"
    n, rho, q = 101, 2, 2
    tail_pct = 99
    module = double
    encode_name, decode_name = "encode_double", "decode_double"
    make_checks = staticmethod(checks.double_checks)
    warmup_sets = [(0, 1), (3, 57), (40, 100)]

    def build(self):
        return double.double_parity_code(self.n)

    def make_failure_sets(self, rng):
        return pair_order(rng, self.n)


class TripleRebuild(LibraryWorkload):
    """Each failure event fails three nodes and repairs a batch of fresh
    codewords with that same failed set."""

    name = "triple-rebuild"
    n, rho, q = 31, 3, 32
    tail_pct = 99
    round_size = 40
    module = triple
    encode_name, decode_name = "encode_triple", "decode_triple"
    make_checks = staticmethod(checks.triple_checks)
    warmup_sets = [(0, 1, 2), (5, 17, 30), (28, 29, 30)]

    def build(self):
        spec = triple.triple_code(self.n)
        if spec.gf.name != "gf(32):0b100101":
            raise checks.CheckFailed(f"unexpected field {spec.gf.name}")
        return spec

    def make_failure_sets(self, rng):
        trips = list(itertools.combinations(range(self.n), 3))
        return stratified(rng, trips, lambda t: t[2] >= self.n - 2)


class CliFiles(Workload):
    """The double workload through ``graphcodes.cli.main`` and files."""

    name = "cli-files"
    n, rho, q = 101, 2, 2
    tail_pct = 97
    warmup_sets = [(0, 1), (3, 57), (40, 100)]
    make_checks = staticmethod(checks.double_checks)

    def make_failure_sets(self, rng):
        return pair_order(rng, self.n)

    def __init__(self, seed):
        super().__init__(seed)
        (HERE / "tmp").mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=HERE / "tmp"))
        self.paths = {k: str(self.dir / f) for k, f in (
            ("info", "info.txt"), ("enc", "enc.txt"), ("erased", "erased.txt"),
            ("dec", "dec.txt"), ("prov", "prov.json"))}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def setup(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["info", "--family", "double", "--n", str(self.n), "--format", "json"])
        warm = [self.cycle(None, info, f, -1) for info, f in self.warmup_inputs()]
        return code, out.getvalue(), warm

    def check_setup(self, state):
        code, text, warm = state
        if code != 0 or json.loads(text)["gap"] != 0:
            raise checks.CheckFailed(f"graphcode info: exit {code}, output {text[:200]!r}")
        for out in warm:
            self.check(out)
        enc = checks.parse_graph_text(warm[0][1][3].decode("ascii"))[3]
        checks.self_test(self.system, enc)

    def cycle(self, _spec, info, failed, op):
        p = self.paths
        k = self.k_info
        rows = [" ".join(map(str, info[i * (i + 1) // 2: (i + 1) * (i + 2) // 2])) for i in range(k)]
        with open(p["info"], "w", encoding="ascii") as fh:
            fh.write("\n".join(rows) + "\n")
        fail = ",".join(map(str, failed))
        main = cli.main
        self.mark("encode", op)
        t0 = ns()
        c1 = main(["encode", "--family", "double", "--n", str(self.n), "--info", p["info"],
                   "--output", p["enc"]])
        t1 = ns()
        self.mark("erase", op)
        t2 = ns()
        c2 = main(["erase", "--input", p["enc"], "--fail", fail, "--output", p["erased"]])
        t3 = ns()
        self.mark("decode", op)
        t4 = ns()
        c3 = main(["decode", "--family", "double", "--input", p["erased"], "--output", p["dec"],
                   "--provenance", p["prov"]])
        t5 = ns()
        if c1 or c2 or c3:
            raise RuntimeError(f"exit codes {[c1, c2, c3]}")
        files = [Path(p[x]).read_bytes() for x in ("enc", "erased", "dec", "prov")]
        return (t1 - t0, t3 - t2, t5 - t4), (info, failed, [c1, c2, c3], *files)

    def check(self, out):
        info, failed, codes, enc, erased, dec, prov = out[1]
        checks.check_cli_cycle(self.system, info, failed, codes, enc, erased.decode("ascii"),
                               dec, prov.decode("ascii"), self.bound)


WORKLOADS = {w.name: w for w in (DoubleScatter, TripleRebuild, CliFiles)}


def do_setup(wl):
    """Program work before the first timed operation, from cold caches."""
    clear_library_caches()
    gc.collect()
    t0 = ns()
    state = wl.setup()
    elapsed = ns() - t0
    wl.check_setup(state)
    return state, elapsed


class Tally:
    """Cycles attempted, failed (a library call raised, reported a failed
    decode or exited non-zero) and wrong (output failed a check), with the
    (encode, erase, decode) nanoseconds of every cycle that did not fail."""

    def __init__(self):
        self.times: list[tuple[int, int, int]] = []
        self.attempted = self.failed = self.wrong = 0
        self.errors: list[str] = []


def run_cycles(wl, spec, ks, tally, deadline=None) -> int | None:
    """Run cycles ``ks``.  Past the deadline, stop at the next round and
    return the cycle that would have come next."""
    for k in ks:
        if deadline is not None and k % wl.round_size == 0 and time.perf_counter() >= deadline:
            return k
        tally.attempted += 1
        try:
            out = wl.cycle(spec, wl.info(k), wl.failed(k), k)
        except Exception as exc:  # a failed operation is data, counted here
            tally.failed += 1
            tally.errors.append(f"{wl.name} cycle {k}: {type(exc).__name__}: {exc}")
            continue
        tally.times.append(out[0])
        try:
            wl.check(out)
        except checks.CheckFailed as exc:
            tally.wrong += 1
            tally.errors.append(f"{wl.name} cycle {k}: check: {exc}")
    return None


def percentile(sorted_vals, pct):
    """Nearest-rank percentile."""
    return sorted_vals[max(0, math.ceil(pct / 100 * len(sorted_vals)) - 1)]


def timed_run(wl, seconds, tally):
    """Setups spread evenly over the run, each followed by its share of the
    cycles, so that setups and cycles sample the same machine states."""
    start = time.perf_counter()
    setup_ns, state, k = [], None, 0
    for i in range(1, SETUP_REPS + 1):
        state = None  # a process holds one spec; let the last one go first
        state, elapsed = do_setup(wl)
        setup_ns.append(elapsed)
        gc.collect()
        k = run_cycles(wl, state[0], range(k, wl.cycles_available), tally,
                       start + seconds * i / SETUP_REPS)
        if k is None:  # every input used
            break
    times = tally.times
    enc = sorted(t[0] / 1e3 for t in times)
    dec = sorted(t[2] / 1e3 for t in times)
    beyond = len(dec) - math.ceil(wl.tail_pct / 100 * len(dec))
    print(f"perfbench: {wl.name}: {len(times)} cycles; decode p{wl.tail_pct} has {beyond} "
          f"samples beyond it", file=sys.stderr)
    return {
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
        "encode_p90_us": (percentile(enc, 90), "us"),
        "decode_p90_us": (percentile(dec, 90), "us"),
        "decode_tail_us": (percentile(dec, wl.tail_pct), "us"),
        "ops_per_s": (1e9 / percentile(sorted(map(sum, times)), 90), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_pass(wl, ks, install, tally, baseline=()):
    """Setup and cycles ``ks`` with the library wrapped by ``install``.

    After each traced cycle the wrappers come off for one cycle of
    ``baseline``, so traced and untraced cycles see the same machine; their
    times go to the returned tally.
    """
    tr, base = tracing.Tracer(), Tally()

    def wrap(on):
        if on:
            install(tr)
        else:
            tr.restore()
        wl.mark = tr.phase if on else (lambda phase, op: None)

    wrap(True)
    try:
        tr.phase("setup", -1)
        spec = do_setup(wl)[0][0]
        for k, b in itertools.zip_longest(ks, baseline):
            run_cycles(wl, spec, [k], tally)
            if b is not None:
                wrap(False)
                run_cycles(wl, spec, [b], base)
                wrap(True)
    finally:
        wrap(False)
    tally.attempted += base.attempted
    tally.failed += base.failed
    tally.wrong += base.wrong
    tally.errors += base.errors
    return tr, base


def trace_workload(wl, k, names, tally):
    """A span pass over cycles [0, k), interleaved with untraced cycles
    [k, 2k), and, when ``names`` needs one, a counting pass over [2k, 3k).
    Returns the tracers by pass and the tracing overhead in percent."""
    passes = {}
    start = len(tally.times)
    passes["spans"], base = traced_pass(wl, range(k), tracing.install_spans, tally, range(k, 2 * k))
    traced = statistics.median(map(sum, tally.times[start:]))
    overhead = 100.0 * (traced / statistics.median(map(sum, base.times)) - 1.0)
    if any(tracing.LAYER_METRICS[m][1] == "counts" for m in names):
        passes["counts"], _ = traced_pass(wl, range(2 * k, 3 * k), tracing.install_field_counters, tally)
    return passes, overhead


def traced_run(wl, seed, tally):
    """Per-layer metrics from the workload's own cycles; a layer it does not
    reach is read from a short probe of the workload that does."""
    k = TRACE_CYCLES[wl.name]
    passes, overhead = trace_workload(wl, k, tracing.LAYER_METRICS, tally)
    values = {m: fn(passes[p]) for m, (_, p, fn) in tracing.LAYER_METRICS.items()}
    dump = {"workload": wl.name, "seed": seed, "cycles": k, "overhead_pct": overhead,
            "passes": {p: tr.as_json() for p, tr in passes.items()}, "probes": {}}
    missing = {name for tr in passes.values() for name in tr.missing}
    for other in WORKLOADS.values():
        todo = [m for m, v in values.items() if v is None]
        if not todo or other.name == wl.name:
            continue
        probe = other(seed)
        try:
            ppasses, _ = trace_workload(probe, PROBE_CYCLES[other.name], todo, tally)
        finally:
            probe.close()
        got = {m: tracing.LAYER_METRICS[m][2](ppasses[tracing.LAYER_METRICS[m][1]]) for m in todo}
        values.update({m: v for m, v in got.items() if v is not None})
        dump["probes"][other.name] = {"filled": sorted(m for m, v in got.items() if v is not None),
                                      "passes": {p: tr.as_json() for p, tr in ppasses.items()}}
    if missing:
        print(f"perfbench: not found, so not traced: {', '.join(sorted(missing))}", file=sys.stderr)
    metrics = {}
    for m, (unit, _, _) in tracing.LAYER_METRICS.items():
        if values[m] is None:
            print(f"perfbench: layer metric {m} was not recorded; reported as 0", file=sys.stderr)
        metrics[m] = (values[m] or 0, unit)
    metrics["trace.overhead_pct"] = (overhead, "%")
    (HERE / "results").mkdir(exist_ok=True)
    path = HERE / "results" / f"trace-{wl.name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
        fh.write("\n")
    print(f"perfbench: spans and counters written to {path.relative_to(ROOT)}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a separate traced run")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    try:
        if args.trace:
            metrics = traced_run(wl, args.seed, tally)
        else:
            metrics = timed_run(wl, args.seconds, tally)
    finally:
        wl.close()
    for err in tally.errors[:20]:
        print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
