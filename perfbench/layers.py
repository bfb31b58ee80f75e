"""Per-layer numbers: span tracing of the workload's rounds, and a fixed sweep
of calls into each layer.

Tracing wraps module-level functions of crucialis from here, outside the
program, so a later change to the program needs no tracing code of its own.
Spans (layer, name, start, end, parent) are kept in memory while a traced
round runs and written out when the run ends. A layer's self time is the
duration of its spans minus the part their child spans cover.

The sweep times calls into each layer on fixed, seeded inputs. It runs the
same calls in every workload's traced run, so the per-layer numbers of two
workloads compare directly; only the self times, call counts and tracing
overhead come from the workload's own rounds.
"""

from __future__ import annotations

import functools
import inspect
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import oracle
from workloads import (
    BELOW14_N4K3,
    FAMILIES,
    FORMULA,
    MIN_N3K3,
    PAR_CELLS,
    SEQ_CELLS,
    Context,
    cli_family_ops,
    expect,
    check_cell,
    renaming,
    run_cell,
)

LAYERS = ("search", "cruciality", "powers", "constructions", "words", "cli")

# cruciality bands by word length
BANDS = (("lt256", 0, 256), ("256_2k", 256, 2048), ("ge2k", 2048, 1 << 30))

# name -> (unit, better); every name is printed by a traced run
PER_LAYER: dict[str, tuple[str, str]] = {}
for _cell in SEQ_CELLS:
    PER_LAYER[f"search.nodes.{_cell.name}"] = ("count", "lower")
    PER_LAYER[f"search.crucial_words.{_cell.name}"] = ("count", "higher")
PER_LAYER.update(
    {
        "search.nodes_per_s": ("1/s", "higher"),
        "search.pool_overhead_s": ("s", "lower"),
        "search.pool_speedup": ("ratio", "higher"),
        "search.ckpt_write_overhead_s": ("s", "lower"),
        "search.ckpt_resume_ms": ("ms", "lower"),
        "search.ckpt_lines": ("count", "lower"),
        "powers.suffix_power_ns.d8": ("ns", "lower"),
        "powers.suffix_power_ns.d16": ("ns", "lower"),
        "powers.suffix_power_ns.d24": ("ns", "lower"),
        "powers.free_scan_ms.L1k": ("ms", "lower"),
        "powers.free_scan_ms.L6k": ("ms", "lower"),
        "powers.calls": ("count", "lower"),
    }
)
for _band, _, _ in BANDS:
    PER_LAYER[f"cruciality.is_crucial_ms.{_band}"] = ("ms", "lower")
    PER_LAYER[f"cruciality.decompose_ms.{_band}"] = ("ms", "lower")
PER_LAYER.update(
    {
        "constructions.build_ms.families": ("ms", "lower"),
        "constructions.build_ms.near_cap": ("ms", "lower"),
        "words.import_ms": ("ms", "lower"),
        "words.word_ns_per_letter": ("ns", "lower"),
        "words.packed_prefixes_ns_per_letter": ("ns", "lower"),
        "cli.call_ms.check": ("ms", "lower"),
        "cli.call_ms.construct": ("ms", "lower"),
        "cli.call_ms.search": ("ms", "lower"),
        "cli.call_ms.table": ("ms", "lower"),
        "cli.import_ms": ("ms", "lower"),
    }
)
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
PER_LAYER["trace.overhead_s"] = ("s", "lower")
PER_LAYER["trace.spans"] = ("count", "lower")


# ------------------------------------------------------------------ tracing


class Tracer:
    """Records spans around wrapped functions while `active` is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, name, start_ns, end_ns, parent index]
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, layer: str, name: str) -> list:
        rec = [layer, name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, owner: object, attr: str, layer: str) -> None:
        fn = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return (yield from fn(*args, **kwargs))
                rec = self._open(layer, name)
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    self._close(rec)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                rec = self._open(layer, name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(rec)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def install(self, C, ctx: Context) -> None:
        """Wrap the calls into each layer. Names imported into another module
        are wrapped there too, so that is_crucial's calls into powers show."""
        targets = {
            "search": [(C.search, f) for f in ("search_minimal", "verify_none_below", "enumerate_crucial")],
            "cruciality": [(C.cruciality, f) for f in ("is_crucial", "normalize", "decompose")],
            "powers": [(C.cruciality, f) for f in ("suffix_abelian_power", "is_abelian_power_free")]
            + [(C.powers, f) for f in ("find_abelian_power", "suffix_abelian_power", "is_abelian_power_free")],
            "constructions": [
                (C.constructions, f)
                for f in ("construct_family", "construct_D", "construct_W", "construct_doubling_k",
                          "construct_zimin", "optimal_small_word")
            ],
            "words": [(C.powers, "packed_prefixes"), (C.words.Word, "__post_init__")],
            "cli": [(ctx, "cli")],
        }
        for layer, pairs in targets.items():
            for owner, attr in pairs:
                self.wrap(owner, attr, layer)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def summary(self, traced_rounds: int) -> dict[str, float]:
        """Per traced round: self seconds per layer, calls into powers, spans."""
        child = [0] * len(self.spans)
        for layer, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = defaultdict(int)
        powers_calls = 0
        for i, (layer, _, start, end, parent) in enumerate(self.spans):
            self_ns[layer] += end - start - child[i]
            if layer == "powers" and (parent < 0 or self.spans[parent][0] != "powers"):
                powers_calls += 1
        r = max(traced_rounds, 1)
        out = {f"{layer}.self_s": self_ns[layer] / 1e9 / r for layer in LAYERS}
        out["powers.calls"] = powers_calls / r
        out["trace.spans"] = len(self.spans) / r
        return out


# -------------------------------------------------------------------- sweep


def _timed(fn):
    t = time.perf_counter()
    out = fn()
    return time.perf_counter() - t, out


def _median_time(fn, reps: int) -> float:
    return statistics.median(_timed(fn)[0] for _ in range(reps))


def _paired_difference(slow, base, reps: int) -> float:
    """Median over alternating pairs of (time of slow) - (time of base)."""
    return statistics.median(_timed(slow)[0] - _timed(base)[0] for _ in range(reps))


def _random_free_words(ctx: Context, n: int, k: int, length: int, count: int) -> list[tuple[int, ...]]:
    """Seeded random abelian-k-power-free words, grown letter by letter with
    the oracle and backtracking."""
    rng = ctx.rng("free", n, k, length)
    words = []
    while len(words) < count:
        word: list[int] = []
        choices: list[list[int]] = []
        units = oracle.letter_units(n, length)
        c = [0] * (length + 1)
        while len(word) < length:
            if len(choices) == len(word):
                order = list(range(1, n + 1))
                rng.shuffle(order)
                choices.append(order)
            if not choices[-1]:
                choices.pop()
                word.pop()
                continue
            a = choices[-1].pop()
            m = len(word)
            c[m + 1] = c[m] + units[a]
            if oracle.suffix_block(c, m + 1, k) is None:
                word.append(a)
        words.append(tuple(word))
    return words


def _import_ms(module: str, ctx: Context) -> float:
    """Cumulative import time of a module in a fresh interpreter, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        capture_output=True, text=True, env=ctx.env, timeout=60,
    )
    expect(proc.returncode == 0, f"import {module} failed")
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == module:
            return int(re.sub(r"\D", "", parts[1])) / 1000
    raise AssertionError(f"no import time reported for {module}")


def _enum_nodes(C, cell) -> tuple[float, list]:
    """Nodes of an enumeration, which the public API does not report: sums the
    counts the branch splitter and branch scanner return. Reads -1 if those
    module-level functions are gone."""
    s = C.search
    if not (hasattr(s, "_branches") and hasattr(s, "_scan_branch")):
        return -1, run_cell(C, cell)
    total = [0]
    branches, scan = s._branches, s._scan_branch

    def counted_branches(*a, **kw):
        prefixes, nodes = branches(*a, **kw)
        total[0] += nodes
        return prefixes, nodes

    def counted_scan(task):
        res = scan(task)
        total[0] += res[0]
        return res

    s._branches, s._scan_branch = counted_branches, counted_scan
    try:
        words = run_cell(C, cell)
    finally:
        s._branches, s._scan_branch = branches, scan
    return total[0], words


def sweep(ctx: Context) -> dict[str, float]:
    C = ctx.C
    m: dict[str, float] = {}

    # search: every cell sequentially, then the pool and checkpoint paths
    seq_t, seq_nodes = {}, 0
    for cell in SEQ_CELLS:
        if cell.mode == "enum":
            nodes, res = _enum_nodes(C, cell)
            check_cell(ctx, cell, res)
            m[f"search.nodes.{cell.name}"] = nodes
            m[f"search.crucial_words.{cell.name}"] = len(res)
            continue
        seq_t[cell.name], res = _timed(lambda: run_cell(C, cell))
        check_cell(ctx, cell, res)
        ctx.remember(cell, res)
        m[f"search.nodes.{cell.name}"] = res.nodes_expanded
        m[f"search.crucial_words.{cell.name}"] = res.crucial_words_found
        seq_nodes += res.nodes_expanded
    m["search.nodes_per_s"] = seq_nodes / sum(seq_t.values())

    resume_s, lines, par_t = 0.0, 0, {}
    for cell in PAR_CELLS:
        path = ctx.out / f"sweep-{cell.name}.ckpt"
        path.unlink(missing_ok=True)
        par_t[cell.name], fresh = _timed(lambda: run_cell(C, cell, workers=2, ckpt=path))
        lines += len(path.read_text().splitlines())
        t, resumed = _timed(lambda: run_cell(C, cell, workers=2, ckpt=path))
        resume_s += t
        expect(fresh == resumed == ctx.seq_result(cell), f"{cell.name}: workers=2 or resume differs")
    m["search.ckpt_resume_ms"] = resume_s * 1000
    m["search.ckpt_lines"] = lines
    m["search.pool_speedup"] = seq_t[BELOW14_N4K3.name] / par_t[BELOW14_N4K3.name]
    seq33 = lambda: run_cell(C, MIN_N3K3)
    m["search.pool_overhead_s"] = _paired_difference(lambda: run_cell(C, MIN_N3K3, workers=2), seq33, 5)
    ck = ctx.out / "sweep-overhead.ckpt"

    def with_ckpt():
        ck.unlink(missing_ok=True)
        return run_cell(C, MIN_N3K3, ckpt=ck)

    m["search.ckpt_write_overhead_s"] = _paired_difference(with_ckpt, seq33, 9)

    # powers: suffix test per call at search depths, freeness scans of long words
    for depth in (8, 16, 24):
        rng = ctx.rng("append", depth)
        words = [C.words.Word(w + (rng.randint(1, 3),), 3) for w in _random_free_words(ctx, 3, 3, depth - 1, 200)]
        got = [C.powers.suffix_abelian_power(w, 3) for w in words]
        for w, b in zip(words, got):
            expect(b == oracle.suffix_block(oracle.counts(w.letters, 3), depth, 3), "suffix power differs")
        per_rep = _median_time(lambda: [C.powers.suffix_abelian_power(w, 3) for w in words], 5)
        m[f"powers.suffix_power_ns.d{depth}"] = per_rep / len(words) * 1e9
    for label, (fam, n, k), reps in (("L1k", ("dnk", 64, 4), 3), ("L6k", ("wnk", 64, 10), 1)):
        w = C.constructions.construct_family(C.constructions.FamilyId(fam), n, k)
        pi = renaming(ctx, fam, n, k)
        v = C.words.Word(tuple(pi[a - 1] for a in w.letters), n)
        expect(C.powers.is_abelian_power_free(v, k) is True, f"{fam}({n},{k}) reported not free")
        m[f"powers.free_scan_ms.{label}"] = _median_time(lambda: C.powers.is_abelian_power_free(v, k), reps) * 1000

    # cruciality by word-length band; constructions
    crucial_ms, decompose_ms = defaultdict(list), defaultdict(list)
    words = []
    for fam, n, k in FAMILIES:
        w = C.constructions.construct_family(C.constructions.FamilyId(fam), n, k)
        expect(len(w) == FORMULA[fam](n, k), f"{fam}({n},{k}): length formula")
        pi = renaming(ctx, fam, n, k)
        words.append((C.words.Word(tuple(pi[a - 1] for a in w.letters), n), k))
    for v, k in words:
        band = next(name for name, lo, hi in BANDS if lo <= len(v) < hi)
        t, ok = _timed(lambda: C.cruciality.is_crucial(v, k))
        expect(ok is True, "family word reported not crucial")
        crucial_ms[band].append(t * 1000)
        u, _ = C.cruciality.normalize(v, k)
        t, dec = _timed(lambda: C.cruciality.decompose(u, k))
        expect(dec.delta_lengths[-1] == len(u), "decomposition does not span the word")
        decompose_ms[band].append(t * 1000)
    for band, _, _ in BANDS:
        m[f"cruciality.is_crucial_ms.{band}"] = statistics.median(crucial_ms[band])
        m[f"cruciality.decompose_ms.{band}"] = statistics.median(decompose_ms[band])
    build = lambda: [C.constructions.construct_family(C.constructions.FamilyId(f), n, k) for f, n, k in FAMILIES]
    m["constructions.build_ms.families"] = _median_time(build, 3) * 1000
    big = C.constructions.construct_zimin(12, 3)
    expect(len(big) == FORMULA["zimink"](12, 3), "zimin_k(12, 3) length")
    m["constructions.build_ms.near_cap"] = _median_time(lambda: C.constructions.construct_zimin(12, 3), 3) * 1000

    # words
    rng = ctx.rng("letters")
    letters = tuple(rng.randint(1, 8) for _ in range(100_000))
    expect(C.words.Word(letters, 8).letters == letters, "Word changed its letters")
    m["words.word_ns_per_letter"] = _median_time(lambda: C.words.Word(letters, 8), 5) / len(letters) * 1e9
    prefixes, _ = C.words.packed_prefixes(letters)
    expect(len(prefixes) == len(letters) + 1, "packed prefixes length")
    m["words.packed_prefixes_ns_per_letter"] = (
        _median_time(lambda: C.words.packed_prefixes(letters), 5) / len(letters) * 1e9
    )
    m["words.import_ms"] = statistics.median(_import_ms("crucialis.words", ctx) for _ in range(3))
    m["cli.import_ms"] = statistics.median(_import_ms("crucialis.cli", ctx) for _ in range(3))

    # cli: one call of each kind, checked like the families workload's calls
    ops = {op.name: op for op in cli_family_ops(ctx)}
    for key, name in (("check", "cli check crucial"), ("construct", "cli construct"),
                      ("search", "cli search min"), ("table", "cli table bounds")):
        times = []
        for _ in range(3):
            t, out = _timed(ops[name].call)
            ops[name].verify(out)
            times.append(t)
        m[f"cli.call_ms.{key}"] = statistics.median(times) * 1000
    return m
