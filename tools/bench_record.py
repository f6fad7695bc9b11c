#!/usr/bin/env python3
"""Record BENCH_<label>.json: alternating pairs of benchmark runs on two checkouts.

    python3 tools/bench_record.py --base ../parent --base-label baseline \\
        --label sparse-checks --pairs 10 --first-seed 31 --workload double-scatter

Each pair runs ``perfbench/run.py`` once in the base checkout and once in this
one, with the same seed, tracing off and the ``run_seconds`` of BENCHMARK.json;
the side that goes first alternates.  Both checkouts must be clean commits, so
that every number names the code it measured.  Each side gets one file in the
root of this checkout, holding the last-line JSON of every run by workload, the
median and quartiles of each end-to-end metric, the commit and the tree hash of
its ``src/``, a machine summary, and the Python and numpy versions.  For every
workload and metric it prints the medians, the base's quartile spread, and in
how many pairs this checkout did better.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def source_state(checkout: Path) -> dict:
    if git(checkout, "status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json"):
        raise SystemExit(f"{checkout}: uncommitted changes under src/ or perfbench/; commit them first")
    return {"git_sha": git(checkout, "rev-parse", "HEAD"),
            "src_tree": git(checkout, "rev-parse", "HEAD:src")}


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"platform": platform.platform(), "cpu": model or platform.processor(),
            "cpus": os.cpu_count(), "memory_mb": memory // 2**20}


def one_run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=30 * seconds,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        out[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                     "unit": runs[0]["metrics"][name]["unit"]}
    out["failed_share"] = sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
    out["correct"] = all(r["correct"] for r in runs)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--base-label", required=True)
    ap.add_argument("--label", required=True, help="label of this checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--workload", action="append", help="default: every workload")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"base": args.base.resolve(), "this": ROOT}
    labels = {"base": args.base_label, "this": args.label}
    common = {"machine": machine(), "python": platform.python_version(), "numpy": np.__version__,
              "run_seconds": bench["run_seconds"], "pairs": args.pairs}
    files = {s: {"label": labels[s], **source_state(path), **common, "runs": {}, "summary": {}}
             for s, path in sides.items()}
    for w in args.workload or [w["name"] for w in bench["workloads"]]:
        for s in sides:
            files[s]["runs"][w] = []
        for k in range(args.pairs):
            seed = args.first_seed + k
            for s in (("base", "this") if k % 2 == 0 else ("this", "base")):
                res = one_run(sides[s], w, seed, bench["run_seconds"])
                files[s]["runs"][w].append({"seed": seed, "first": s == ("base", "this")[k % 2], **res})
        print(f"{w}: {args.pairs} pairs, {args.base_label} -> {args.label}")
        for name, way in better.items():
            base = [r["metrics"][name]["value"] for r in files["base"]["runs"][w]]
            this = [r["metrics"][name]["value"] for r in files["this"]["runs"][w]]
            wins = sum((t < b) if way == "lower" else (t > b) for b, t in zip(base, this))
            q = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0],) * 3
            print(f"  {name:16} {statistics.median(base):12.6g} -> {statistics.median(this):12.6g}"
                  f"  base IQR {q[2] - q[0]:10.4g}  better in {wins}/{len(base)}")
        for s in sides:
            files[s]["summary"][w] = summary(files[s]["runs"][w])
    for s in sides:
        path = ROOT / f"BENCH_{labels[s]}.json"
        path.write_text(json.dumps(files[s], indent=1) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
