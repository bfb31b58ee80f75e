#!/usr/bin/env python3
"""Benchmark of crucialis: run one workload and print its metrics.

    python3 perfbench/run.py --workload search-seq --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src and its
CLI is started as `python -m crucialis.cli`. One process makes all the load
(a closed loop: each call starts when the previous one returned); searches
with workers=2 add two pool workers.

The run sets up (imports the program and builds the workload's inputs, timed
in fresh interpreters), takes the peak memory of one pass of the workload's
calls in a fresh interpreter, then runs whole rounds of the workload's
operations until --seconds have passed, checking every output. With --trace 0
it prints the end-to-end metrics, with --trace 1 the per-layer metrics:
alternate rounds are traced, then a fixed sweep of calls into each layer runs
(see layers.py). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
An operation fails when the call raises or its output is wrong; a wrong
output also makes "correct" false, and the exit code 1. A metric with an
operation that never returned is left out, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

# Only what set-up needs: the interpreters that time set-up and take the peak
# memory run this module too. layers is imported by traced runs alone.
from workloads import END_TO_END, WORKLOADS, Context, WrongResult, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 15
# The CPU probe's wall time on a quiet 2-core x86-64 VM under CPython 3.11.
# Times are reported in reference-CPU seconds: wall time scaled by this over
# the mean probe time measured around and during the call. Other tenants of a
# shared machine slow its CPU by up to a third, for stretches from under a
# second to minutes; the probe slows with it, so the ratio stays put while
# the program's own speed still shows in full.
PROBE_REF_S = 0.00066
PROBE_WORDS = 751
BRACKET_PROBES = 10  # probes before and after each pass
SAMPLE_INTERVAL_S = 0.1  # a probe this often while a pass runs
# Set-up is mostly interpreter start and imports: file reads, loading shared
# objects, page faults. A busy machine slows those in a way the pure-Python
# probe does not follow, so set-up has a probe of its own: a fresh
# interpreter that imports a fixed set of standard-library modules. Its wall
# time on the same VM is STARTUP_REF_S; set-up is reported in those seconds.
STARTUP_PROBE = "import argparse, asyncio, ctypes, decimal, email.message, json, unittest, xml.etree.ElementTree"
STARTUP_REF_S = 0.125


def load_program() -> SimpleNamespace:
    """Import crucialis from the checkout's src/, and nowhere else."""
    if not (SRC / "crucialis" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'crucialis'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import crucialis
    import crucialis.cli
    import crucialis.constructions
    import crucialis.cruciality
    import crucialis.powers
    import crucialis.search
    import crucialis.words

    if Path(crucialis.__file__).resolve().parent != (SRC / "crucialis").resolve():
        sys.exit(f"perfbench: imported crucialis from {crucialis.__file__}, not from {SRC}")
    return SimpleNamespace(
        words=crucialis.words,
        powers=crucialis.powers,
        cruciality=crucialis.cruciality,
        constructions=crucialis.constructions,
        search=crucialis.search,
        cli=crucialis.cli,
    )


def child(mode: str, workload: str, seed: int) -> str:
    """Run this script in a fresh interpreter in one of its internal modes;
    returns its standard output."""
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), mode, "--workload", workload, "--seed", str(seed)],
        check=True,
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=150,
    ).stdout


def startup_probe() -> float:
    """Wall seconds of a fresh interpreter that runs STARTUP_PROBE."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_PROBE], check=True, cwd=ROOT, timeout=60)
    return time.perf_counter() - t


def measure_setup(workload: str, seed: int) -> float:
    """Median over SETUP_RUNS fresh interpreters that only set up the
    workload, each scaled by the start-up probes run just before and after it."""
    times = []
    before = startup_probe()
    for _ in range(SETUP_RUNS):
        t = time.perf_counter()
        child("--setup-only", workload, seed)
        wall = time.perf_counter() - t
        after = startup_probe()
        times.append(wall * STARTUP_REF_S / ((before + after) / 2))
        before = after
    return statistics.median(times)


def one_pass(groups) -> dict:
    """Every operation of the workload once, its output dropped unchecked;
    returns the peak RSS of this process and of its largest child (a pool
    worker or a CLI call), in KiB as Linux gives ru_maxrss."""
    for group in groups:
        for op in group.ops:
            if op.prepare:
                op.prepare()
            op.call()
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def measure_peak_rss(workload: str, seed: int) -> float:
    """Peak RSS in MB of an interpreter that makes one pass of the workload's
    calls, plus that of its largest child. It loads the program, the
    workload's inputs and the benchmark's small modules, and keeps no output."""
    rss = json.loads(child("--rss-only", workload, seed).splitlines()[-1])
    return (rss["self"] + rss["children"]) / 1024


def cpu_probe() -> float:
    """Seconds to run a fixed pure-Python kernel: count the abelian-cube-free
    words over three letters up to length 6 (751 of them). It does the kind
    of work the program does and shares no code with it."""
    prefix = [0] * 8
    unit = (0, 1, 1 << 8, 1 << 16)
    count = 0

    def walk(m: int) -> None:
        nonlocal count
        count += 1
        if m == 6:
            return
        for a in (1, 2, 3):
            pa = prefix[m] + unit[a]
            t = m + 1
            for b in range(1, t // 3 + 1):
                first = pa - prefix[t - b]
                if prefix[t - b] - prefix[t - 2 * b] == first and prefix[t - 2 * b] - prefix[t - 3 * b] == first:
                    break
            else:
                prefix[t] = pa
                walk(t)

    start = time.perf_counter()
    walk(0)
    elapsed = time.perf_counter() - start
    if count != PROBE_WORDS:
        raise RuntimeError(f"CPU probe counted {count} words, not {PROBE_WORDS}")
    return elapsed


class Sampler:
    """Runs the CPU probe every SAMPLE_INTERVAL_S seconds while a pass of
    calls runs, from a SIGALRM handler in this thread, so the probe samples
    the machine's speed during a long call and not only around it. `spent`
    is the time the probes took, which is taken out of the calls' times."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        self.times.append(cpu_probe())
        self.spent += time.perf_counter() - t

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_rounds(groups, seconds: float, tracer=None) -> dict:
    """Whole rounds until `seconds` have passed; returns every call time by
    operation, in reference seconds. A group's pass is timed against CPU
    probes run before, during (Sampler) and after it: each call's wall time,
    less the probes inside it, times PROBE_REF_S over the mean probe time of
    the pass. In a group of interpreter start-ups, each call is instead
    scaled by the start-up probes run just before and just after it. With a
    tracer, odd rounds are traced and at least one round of each kind runs."""
    times: dict[str, list[float]] = defaultdict(list)
    call_s = {False: [], True: []}  # summed call time per round, by traced
    attempted = failed = 0
    correct = True

    def attempt(op, traced: bool, sampler: Sampler | None = None) -> float | None:
        """One call and its check; its wall seconds less the probes in it, or
        None when it failed."""
        nonlocal attempted, failed, correct
        if op.prepare:
            op.prepare()
        attempted += 1
        raised = None
        probed = sampler.spent if sampler else 0.0
        if traced:
            tracer.active = True
        t = time.perf_counter()
        try:
            out = op.call()
        except Exception:
            raised = traceback.format_exc()
        finally:
            dt = time.perf_counter() - t
            if traced:
                tracer.active = False
        if sampler:
            dt -= sampler.spent - probed
        if raised is not None:
            failed += 1
            print(f"perfbench: {op.name} raised:\n{raised}", file=sys.stderr)
            return None
        try:
            op.verify(out)
        except WrongResult as e:
            failed += 1
            correct = False
            print(f"perfbench: {op.name}: wrong result: {e}", file=sys.stderr)
            return None
        return dt

    start = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        scaled: list[tuple[str, float]] = []
        # Outputs the benchmark keeps for checking should not make the
        # program's garbage collections slower in later rounds.
        gc.collect()
        gc.freeze()
        for group in groups:
            for _ in range(group.repeats):
                if group.startup:
                    before = startup_probe()
                    for op in group.ops:
                        dt = attempt(op, traced)
                        after = startup_probe()
                        if dt is not None:
                            scaled.append((op.name, dt * STARTUP_REF_S / ((before + after) / 2)))
                        before = after
                    continue
                probes = [cpu_probe() for _ in range(BRACKET_PROBES)]
                with Sampler() as sampler:
                    calls = [(op.name, attempt(op, traced, sampler)) for op in group.ops]
                probes += sampler.times + [cpu_probe() for _ in range(BRACKET_PROBES)]
                scale = PROBE_REF_S / statistics.fmean(probes)
                scaled += [(name, dt * scale) for name, dt in calls if dt is not None]
        for name, t in scaled:
            times[name].append(t)
        call_s[traced].append(sum(t for _, t in scaled))
        rounds += 1
        if time.perf_counter() - start >= seconds and (tracer is None or rounds >= 2):
            break
    return dict(times=times, call_s=call_s, attempted=attempted, failed=failed, correct=correct, rounds=rounds,
                elapsed=time.perf_counter() - start)


def end_to_end(groups, times: dict[str, list[float]]) -> tuple[dict[str, float], set[str]]:
    """Each operation counts with the median of its calls in the run. A metric
    sums its operations; CLI latency is the median over the CLI operations, in
    ms. Returns the values and the metrics left out because one of their
    operations has no successful call (a sum without it would read as a gain)."""
    per_metric: dict[str, list[float]] = defaultdict(list)
    incomplete: set[str] = set()
    for group in groups:
        for op in group.ops:
            for metric in op.metrics:
                if times.get(op.name):
                    per_metric[metric].append(statistics.median(times[op.name]))
                else:
                    incomplete.add(metric)
    values = {name: sum(v) for name, v in per_metric.items() if name not in incomplete}
    if "cli_call_ms" in values:
        values["cli_call_ms"] = statistics.median(per_metric["cli_call_ms"]) * 1000
    return values, incomplete


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--rss-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    C = load_program()
    if args.setup_only:
        build(args.workload, Context(C, args.seed, HERE / "out"))
        return 0
    out = HERE / "out" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    if args.rss_only:
        out.mkdir(parents=True)
        try:
            print(json.dumps(one_pass(build(args.workload, Context(C, args.seed, out)))))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return 0

    incomplete: set[str] = set()
    if args.trace:
        from layers import PER_LAYER, Tracer, sweep
    else:
        setup_s = measure_setup(args.workload, args.seed)
        rss_mb = measure_peak_rss(args.workload, args.seed)
    out.mkdir(parents=True)
    ctx = Context(C, args.seed, out)
    groups = build(args.workload, ctx)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install(C, ctx)
        res = run_rounds(groups, args.seconds, tracer)
        if tracer is not None:
            tracer.uninstall()
            try:
                layer = sweep(ctx)
            except WrongResult as e:
                res["failed"] += 1
                res["correct"] = False
                print(f"perfbench: layer sweep: wrong result: {e}", file=sys.stderr)
                layer = {}
    finally:
        shutil.rmtree(out, ignore_errors=True)

    if tracer is not None:
        layer.update(tracer.summary(len(res["call_s"][True])))
        layer["trace.overhead_s"] = statistics.median(res["call_s"][True]) - statistics.median(res["call_s"][False])
        spans = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps({"columns": ["layer", "name", "start_ns", "end_ns", "parent"],
                                     "spans": tracer.spans}))
        metrics = {name: {"value": layer[name], "unit": unit} for name, (unit, _) in PER_LAYER.items() if name in layer}
    else:
        values, incomplete = end_to_end(groups, res["times"])
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = rss_mb
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items() if name in values}
        if incomplete:
            print(f"perfbench: left out, an operation never returned: {', '.join(sorted(incomplete))}",
                  file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {res['rounds']} rounds in {res['elapsed']:.1f} s",
          file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0 if res["correct"] and not incomplete else 1


if __name__ == "__main__":
    sys.exit(main())
