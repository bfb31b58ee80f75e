#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and compare each end-to-end
metric's spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10                   # every workload
    python3 perfbench/steady.py --runs 5 --workloads families --sets 2

Each run gets its own seed. A metric's spread is the distance between the
first and third quartile of its values (statistics.quantiles, n=4) as a share
of their median; in every set it should stay below a third of the bound. With
--sets 2 the runs are repeated with fresh seeds, and the second median may not
be worse than the first by more than the bound. The failed share of
operations must be the same in every run. Prints a table per workload and,
last, one JSON summary line; exits 1 when a check fails.
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
FIRST_SEED = 1000


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = p.parse_args()

    ok = True
    summary = {}
    for workload in args.workloads:
        sets = []
        for s in range(args.sets):
            seeds = range(FIRST_SEED + s * args.runs, FIRST_SEED + (s + 1) * args.runs)
            sets.append([run_once(workload, seed, bench["run_seconds"]) for seed in seeds])
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1:
            ok = False
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
        print(f"\n{workload} ({args.runs} runs x {args.sets} sets)")
        print(f"{'metric':16} {'median':>12} {'spread':>13} {'bound':>6}  verdict")
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads, verdict = [], [], "ok"
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
                if spreads[-1] > bound / 3:
                    verdict = "SPREAD"
                    ok = False
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    worse = -worse
                if worse > bound:
                    verdict = "DRIFT"
                    ok = False
            shown = " / ".join(f"{sp:.3f}" for sp in spreads)
            print(f"{name:16} {medians[0]:12.5g} {shown:>13} {bound:6.2f}  {verdict}")
            summary[workload][name] = {
                "median": medians, "spread": spreads, "bound": bound, "verdict": verdict,
                "values": [[r["metrics"][name]["value"] for r in runs] for runs in sets],
            }
    print(json.dumps({"ok": ok, "workloads": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
