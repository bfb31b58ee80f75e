#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics into a committed BENCH_*.json file.

    python3 tools/bench_record.py --seeds 1:5 --out BENCH_<label>.json

Run from the root of a checkout. For each seed in the inclusive range and
each workload that BENCHMARK.json declares, it runs the benchmark command
once with tracing off:

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

The run length is BENCHMARK.json's run_seconds. The output file holds the
commit and whether src/ differs from it, a digest of src/, the Python
version, os.cpu_count(), and, per workload, the failed and attempted
operation counts and each end-to-end metric's median and interquartile
range over its median. Runs go one at a time, so one run's load never
overlaps another's. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> range:
    lo, _, hi = text.partition(":")
    return range(int(lo), int(hi or lo) + 1)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _src_digest() -> str:
    """SHA-256 over the path and bytes of every Python and C file under src/."""
    h = hashlib.sha256()
    for path in sorted(p for p in (ROOT / "src").rglob("*") if p.suffix in (".py", ".c")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _run(command: list[str], workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"bench_record: {' '.join(argv)} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["returncode"] = proc.returncode
    return result


def _summary(runs: list[dict], names: list[str]) -> dict:
    """Per metric: unit, median and IQR/median over the runs that report it
    (a run leaves out a metric whose operation never returned)."""
    metrics = {}
    for name in names:
        got = [r["metrics"][name] for r in runs if name in r["metrics"]]
        if not got:
            continue
        values = [m["value"] for m in got]
        median = statistics.median(values)
        spread = None
        if len(values) > 1 and median:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            spread = (q3 - q1) / median
        metrics[name] = {
            "unit": got[0]["unit"],
            "median": median,
            "iqr_over_median": spread,
            "runs": len(values),
        }
    return {
        "runs": len(runs),
        "correct": all(r["correct"] for r in runs),
        "nonzero_exits": sum(r["returncode"] != 0 for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, type=_seeds, help="A:B, inclusive")
    p.add_argument("--out", required=True, type=Path, help="the BENCH_*.json file to write")
    args = p.parse_args(argv)
    if not args.seeds:
        p.error("empty seed range")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    runs: dict[str, list[dict]] = {w["name"]: [] for w in bench["workloads"]}
    for seed in args.seeds:
        for workload, done in runs.items():
            done.append(_run(bench["command"], workload, seed, bench["run_seconds"]))
            print(f"bench_record: {workload} seed {seed} done", file=sys.stderr)

    record = {
        "commit": _git("rev-parse", "HEAD"),
        "src_differs_from_commit": bool(_git("status", "--porcelain", "--", "src")),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "seeds": [args.seeds.start, args.seeds.stop - 1],
        "workloads": {w: _summary(done, names) for w, done in runs.items()},
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    clean = all(s["correct"] and not s["nonzero_exits"] for s in record["workloads"].values())
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
