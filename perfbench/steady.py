#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and report the spread.

    python3 perfbench/steady.py --runs 10 --first-seed 100 --save set-a
    python3 perfbench/steady.py --runs 10 --first-seed 200 --save set-b --compare set-a

Runs ``run.py`` one run at a time (the machine is small), each with its own
seed and the ``run_seconds`` of BENCHMARK.json.  For every end-to-end metric
it prints the median, the quartile spread (Q3 - Q1 over the median, quartiles
as ``statistics.quantiles(values, n=4)`` gives them) and the bound.  A spread
is steady below a third of its bound; setup_s is held only to its median.
With ``--compare`` it also prints how far each median moved in the worse
direction against an earlier saved set, and whether the share of failed
operations is the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict], bench: dict) -> dict:
    out = {}
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out[m["name"]] = {"median": statistics.median(vals), "spread": (q3 - q1) / statistics.median(vals),
                          "values": vals}
    out["failed_share"] = [r["failed"] / r["attempted"] for r in runs]
    out["correct"] = all(r["correct"] for r in runs)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--save", help="name of the set, kept in perfbench/results/steady-<name>.json")
    ap.add_argument("--compare", help="name of an earlier saved set")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    earlier = None
    if args.compare:
        earlier = json.loads((HERE / "results" / f"steady-{args.compare}.json").read_text())
    result, ok = {}, True
    for w in names:
        runs = []
        for i in range(args.runs):
            runs.append(one_run(w, args.first_seed + i, bench["run_seconds"]))
            print(f"{w} seed {args.first_seed + i}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        s = result[w] = summarise(runs, bench)
        shares = sorted(set(s["failed_share"]))
        print(f"\n{w}: correct={s['correct']} failed shares={shares}")
        print(f"  {'metric':16} {'median':>12} {'spread':>8} {'bound':>6} {'moved':>8}  verdict")
        for name, m in bounds.items():
            med, spread, bound = s[name]["median"], s[name]["spread"], m["bound"]
            verdict = "steady" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
            if name == "setup_s":
                verdict = "median only"
            moved = ""
            if earlier and w in earlier:
                before = earlier[w][name]["median"]
                worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
                moved = f"{worse:+.3f}"
                if worse > bound:
                    verdict += ", MOVED"
                    ok = False
            if verdict.startswith("WIDE"):
                ok = False
            print(f"  {name:16} {med:12.6g} {spread:8.4f} {bound:6.3f} {moved:>8}  {verdict}")
        if earlier and w in earlier and sorted(set(earlier[w]["failed_share"])) != shares:
            print(f"  failed share differs from the earlier set: {sorted(set(earlier[w]['failed_share']))}")
            ok = False
        print(flush=True)
    if args.save:
        (HERE / "results").mkdir(exist_ok=True)
        (HERE / "results" / f"steady-{args.save}.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
