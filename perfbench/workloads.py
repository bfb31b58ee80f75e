"""The workloads: which program calls each round makes, and how every
output is checked.

A workload is a list of groups. A group is a list of operations run one after
the other, `repeats` times per round; each operation is one call into the
program (library or CLI) and feeds one or more end-to-end metrics. Cheap
operations repeat more, so that every operation is timed several times a run.

Checks compare outputs with the independent oracle, the paper's values and
`reference.json` (recomputed by brute force, see reference.py), and with
properties that need no reference. A check's verdict on an output is
remembered, so an identical output in a later round is not re-verified.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("search-seq", "families")
END_TO_END = {
    "setup_s": "s",
    "min_search_s": "s",
    "certify_s": "s",
    "enumerate_s": "s",
    "family_check_s": "s",
    "cli_call_ms": "ms",
    "peak_rss_mb": "MB",
}


class WrongResult(Exception):
    """The program returned an output that a check rejects."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise WrongResult(msg)


@dataclass
class Op:
    name: str
    metrics: tuple[str, ...]
    call: Callable[[], object]
    check: Callable[[object], None]
    prepare: Callable[[], None] | None = None  # untimed, before every call
    verified: list = field(default_factory=list)

    def verify(self, out: object) -> None:
        if out in self.verified:
            return
        self.check(out)
        self.verified.append(out)


@dataclass
class Group:
    ops: list[Op]
    repeats: int = 1
    startup: bool = False  # calls start interpreters: bracket each by start-up probes


# ---------------------------------------------------------------- reference

def paper_minimum(n: int, k: int) -> int | None:
    """The minimal crucial length where the paper settles it: 4n - 7 for
    squares (n >= 3); 2, 5, 11, 20 for cubes over n <= 4 letters, 9n - 13 beyond."""
    if k == 2 and n >= 3:
        return 4 * n - 7
    if k == 3:
        return (2, 5, 11, 20)[n - 1] if n <= 4 else 9 * n - 13
    return None


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def digest(words) -> str:
    text = "\n".join("".join(map(str, w)) for w in words)
    return hashlib.sha256(text.encode()).hexdigest()


# -------------------------------------------------------------------- cells


@dataclass(frozen=True)
class Cell:
    name: str
    n: int
    k: int
    mode: str  # min | below | enum
    length: int | None = None


MIN_N3K3 = Cell("min_n3k3", 3, 3, "min")
MIN_N5K2 = Cell("min_n5k2", 5, 2, "min")
MIN_N2K4 = Cell("min_n2k4", 2, 4, "min")
MIN_N2K5 = Cell("min_n2k5", 2, 5, "min")
BELOW14_N4K3 = Cell("below14_n4k3", 4, 3, "below", 14)
ENUM14_N3K3 = Cell("enum14_n3k3", 3, 3, "enum", 14)
BELOW11_N3K3 = Cell("below11_n3k3", 3, 3, "below", 11)
ENUM11_N3K3 = Cell("enum11_n3k3", 3, 3, "enum", 11)
SEQ_CELLS = (MIN_N3K3, MIN_N5K2, MIN_N2K4, MIN_N2K5, BELOW14_N4K3, ENUM14_N3K3)
PAR_CELLS = (MIN_N3K3, MIN_N5K2, BELOW14_N4K3)


def run_cell(C, cell: Cell, workers: int = 1, ckpt: Path | None = None):
    """One search through the public API; enumeration is consumed to a list."""
    s = C.search
    if cell.mode == "min":
        cfg = s.SearchConfig(cell.n, cell.k, workers=workers, checkpoint_path=ckpt)
        return s.search_minimal(cfg)
    if cell.mode == "below":
        mode = s.VerifyNoneBelow(cell.length)
        cfg = s.SearchConfig(cell.n, cell.k, target_mode=mode, workers=workers, checkpoint_path=ckpt)
        return s.verify_none_below(cfg)
    mode = s.EnumerateAllCrucialAtLength(cell.length)
    return list(s.enumerate_crucial(s.SearchConfig(cell.n, cell.k, target_mode=mode)))


class Context:
    """What the workloads share: the program's modules, the run's seed, its
    scratch directory, the reference values and memoised baselines."""

    def __init__(self, C, seed: int, out: Path):
        self.C = C
        self.seed = seed
        self.out = out
        self.ref = load_reference()
        self._seq: dict[str, object] = {}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("CRUCIALIS_CHECKPOINT_DIR", None)

    def rng(self, *salt) -> random.Random:
        return random.Random(f"{self.seed}:{':'.join(map(str, salt))}")

    def seq_result(self, cell: Cell):
        """The sequential result of a cell, computed once per run (untimed)."""
        if cell.name not in self._seq:
            self._seq[cell.name] = run_cell(self.C, cell)
        return self._seq[cell.name]

    def remember(self, cell: Cell, res) -> None:
        self._seq.setdefault(cell.name, res)

    def cli(self, args: list[str]) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "crucialis.cli", *args],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=ROOT,
            timeout=120,
        )
        return proc.returncode, proc.stdout


def check_extension(C, letters: tuple[int, ...], n: int, k: int) -> None:
    """For a crucial w: w.1 is reported not crucial, and the first abelian
    power the program finds in w.1 ends at |w|+1 with blocks the oracle confirms."""
    ext = C.words.Word(tuple(letters) + (1,), n)
    expect(C.cruciality.is_crucial(ext, k) is False, "w.1 reported crucial")
    occ = C.powers.find_abelian_power(ext, k)
    expect(occ is not None, "no abelian power found in w.1")
    expect(occ.end == len(letters) + 1, f"power in w.1 ends at {occ.end}, not {len(letters) + 1}")
    expect(
        oracle.blocks_equal(ext.letters, occ.start, occ.block_length, k),
        "reported power in w.1 is not an abelian power",
    )


def check_crucial_word(C, letters, n: int, k: int) -> None:
    expect(oracle.is_crucial(letters, n, k), f"not crucial by the oracle: {letters}")
    check_extension(C, letters, n, k)


def check_cell(ctx: Context, cell: Cell, res) -> None:
    C, n, k = ctx.C, cell.n, cell.k
    if cell.mode == "enum":
        letters = [w.letters for w in res]
        ref = ctx.ref["enumerate"][f"n{n}k{k}L{cell.length}"]
        expect(all(w.alphabet_size == n and len(w) == cell.length for w in res), "bad word shape")
        expect(all(a < b for a, b in zip(letters, letters[1:])), "not in strictly increasing lex order")
        expect(all(oracle.is_canonical(w) for w in letters), "non-canonical word enumerated")
        expect(len(letters) == ref["count"], f"{len(letters)} words, reference {ref['count']}")
        expect(digest(letters) == ref["sha256"], "word set differs from the brute-force reference")
        for w in letters:
            check_crucial_word(C, w, n, k)
        return
    expect(res.exhaustive is True, f"{cell.name}: verdict not proven")
    expect(res.nodes_expanded > 0, f"{cell.name}: no nodes expanded")
    if cell.mode == "below":
        least = paper_minimum(n, k)
        expect(least is not None and least >= cell.length, "no paper value backs this certificate")
        expect(res.crucial_words_found == 0, f"{cell.name}: found a word below {cell.length}")
        expect(res.minimal_length is None and res.witness is None, f"{cell.name}: refutation reported")
        return
    ref = ctx.ref["minimal"].get(f"n{n}k{k}")
    want = paper_minimum(n, k) or ref["length"]
    if ref is not None:
        expect(ref["length"] == want, "reference disagrees with the paper")
    w = res.witness
    expect(res.minimal_length == want, f"{cell.name}: minimal length {res.minimal_length}, expected {want}")
    expect(w is not None and len(w) == want and w.alphabet_size == n, f"{cell.name}: bad witness")
    expect(oracle.is_canonical(w.letters), f"{cell.name}: witness not canonical")
    expect(res.crucial_words_found >= 1, f"{cell.name}: no crucial word counted")
    if ref is not None:
        expect("".join(map(str, w.letters)) == ref["witness"], f"{cell.name}: not the lex-least witness")
    check_crucial_word(C, w.letters, n, k)


def cell_op(ctx: Context, cell: Cell, metric: str) -> Op:
    return Op(
        f"{cell.name} w=1",
        (metric,),
        lambda: run_cell(ctx.C, cell),
        lambda res: check_cell(ctx, cell, res),
    )


def par_ops(ctx: Context, cell: Cell) -> list[Op]:
    """A workers=2 search with a fresh checkpoint, then the same search resumed
    from the complete checkpoint. Both must equal the sequential result field
    for field, nodes_expanded included. They feed no metric: pool wall times
    spread too much between runs on a shared 2-CPU machine (see README)."""
    path = ctx.out / f"{cell.name}.ckpt"

    def same_as_seq(res) -> None:
        expect(res == ctx.seq_result(cell), f"{cell.name}: workers=2 differs from workers=1")
        check_cell(ctx, cell, res)

    def resumed(res) -> None:
        expect(path.is_file(), f"{cell.name}: no checkpoint written")
        same_as_seq(res)

    return [
        Op(
            f"{cell.name} w=2 fresh",
            (),
            lambda: run_cell(ctx.C, cell, workers=2, ckpt=path),
            same_as_seq,
            prepare=lambda: path.unlink(missing_ok=True),
        ),
        Op(
            f"{cell.name} w=2 resume",
            (),
            lambda: run_cell(ctx.C, cell, workers=2, ckpt=path),
            resumed,
        ),
    ]


# ----------------------------------------------------------------- families

# (family, n, k) and the paper's length formula per family
FORMULA = {
    "dnk": lambda n, k: k * k * (n - 1) - k - 1,
    "wnk": lambda n, k: k * k * (n - 1) - 1,
    "doublingk": lambda n, k: k * (k - 1) ** (n - 1) - 1,
    "zimink": lambda n, k: k**n - 1,
    "smallopt": lambda n, k: (2, 5, 11, 20)[n - 1],
}
FAMILIES = (
    [("dnk", n, k) for n in (8, 16, 32, 64) for k in range(2, 7)]
    + [("wnk", n, k) for n, k in ((4, 3), (8, 4), (16, 5), (32, 6), (64, 10))]
    + [("doublingk", n, k) for n, k in ((4, 3), (8, 3), (6, 4), (5, 5))]
    + [("zimink", n, k) for n, k in ((3, 3), (5, 2), (4, 4), (6, 3), (5, 5))]
)
# The family words at the minima the search workloads prove, plus D_{8,k}.
CELL_FAMILIES = (
    [("dnk", 5, 2), ("smallopt", 3, 3), ("smallopt", 4, 3), ("zimink", 2, 4), ("zimink", 2, 5)]
    + [("dnk", 8, k) for k in range(2, 7)]
)


def renaming(ctx: Context, fam: str, n: int, k: int) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    ctx.rng("rename", fam, n, k).shuffle(perm)
    return tuple(perm)


def family_op(ctx: Context, fam: str, n: int, k: int) -> Op:
    """Build a family word, rename its letters by a seeded permutation, and
    verify the renamed word: is_crucial, normalize, decompose."""
    C = ctx.C
    pi = renaming(ctx, fam, n, k)

    def call():
        w = C.constructions.construct_family(C.constructions.FamilyId(fam), n, k)
        v = C.words.Word(tuple(pi[a - 1] for a in w.letters), n)
        crucial = C.cruciality.is_crucial(v, k)
        u, perm = C.cruciality.normalize(v, k)
        return w, v, crucial, u, perm, C.cruciality.decompose(u, k)

    def check(out) -> None:
        w, v, crucial, u, perm, dec = out
        tag = f"{fam}({n},{k})"
        expect(len(w) == FORMULA[fam](n, k), f"{tag}: length {len(w)} breaks the paper formula")
        expect(v.letters == tuple(pi[a - 1] for a in w.letters), f"{tag}: renaming lost letters")
        expect(crucial is True, f"{tag}: reported not crucial")
        check_crucial_word(C, v.letters, n, k)
        want_perm = oracle.chain_renaming(v.letters, n, k)
        expect(tuple(perm) == want_perm, f"{tag}: normalize renaming differs from the chain order")
        expect(u.letters == tuple(perm[a - 1] for a in v.letters), f"{tag}: normalize output")
        check_decomposition(u.letters, n, k, dec, tag)

    return Op(f"family {fam}({n},{k})", ("family_check_s",), call, check)


def check_decomposition(letters, n: int, k: int, dec, tag: str) -> None:
    """Deltas: strictly increasing, each = k*b - 1 for the oracle's minimal
    completing block b of its letter, the last spanning the word; blocks and
    gaps consistent with the word."""
    m = len(letters)
    bs = oracle.completing_blocks(letters, n, k)
    deltas = tuple(dec.delta_lengths)
    expect(deltas == tuple(k * b - 1 for b in bs), f"{tag}: deltas differ from the oracle")
    expect(all(d % k == k - 1 for d in deltas), f"{tag}: a delta is not k-1 mod k")
    expect(all(a < b for a, b in zip(deltas, deltas[1:])), f"{tag}: deltas not increasing")
    expect(deltas[-1] == m, f"{tag}: D_n does not span the word")
    for i, d in enumerate(deltas, start=1):
        ext = tuple(letters[m - d :]) + (i,)
        blocks = dec.blocks[i - 1]
        expect(sum((blk.letters for blk in blocks), ()) == ext, f"{tag}: blocks of D_{i}")
        expect(oracle.blocks_equal(ext, 0, len(ext) // k, k), f"{tag}: D_{i}.{i} not a power")
    for i in range(2, n + 1):
        gap = dec.gaps[i - 2].letters
        expect(gap == tuple(letters[m - deltas[i - 1] : m - deltas[i - 2]]), f"{tag}: gap {i}")


# ---------------------------------------------------------------------- CLI


def parse_result(stdout: str) -> dict:
    first = stdout.splitlines()[0] if stdout else ""
    expect(first.startswith("RESULT: "), f"CLI first line is not a RESULT line: {first!r}")
    fields = {}
    for tok in first[len("RESULT: ") :].split():
        key, _, value = tok.partition("=")
        fields[key] = value
    return fields


def cli_min_op(ctx: Context, name: str) -> Op:
    def check(out) -> None:
        code, stdout = out
        r = parse_result(stdout)
        seq = ctx.seq_result(MIN_N3K3)
        expect(code == 0, f"search exit code {code}")
        expect(r.get("minimal_length") == "11" and r.get("exhaustive") == "true", "search verdict")
        expect(r.get("witness") == "".join(map(str, seq.witness.letters)), "CLI witness differs from the library")
        expect(f"nodes: {seq.nodes_expanded}" in stdout.splitlines(), "CLI node count differs from the library")
        check_crucial_word(ctx.C, tuple(int(ch) for ch in r["witness"]), 3, 3)

    args = ["search", "--n", "3", "--k", "3"]
    return Op(f"cli {name}", ("cli_call_ms",), lambda: ctx.cli(args), check)


def cli_search_ops(ctx: Context) -> list[Op]:
    def below(out) -> None:
        code, stdout = out
        r = parse_result(stdout)
        expect(code == 0 and r == {"none_below": "11", "certified": "true", "exhaustive": "true"}, "none-below verdict")

    def enum(out) -> None:
        code, stdout = out
        lines = stdout.splitlines()
        r = parse_result(stdout)
        ref = ctx.ref["enumerate"]["n3k3L11"]
        words = [tuple(int(ch) for ch in line) for line in lines[1:]]
        expect(code == 0 and r == {"crucial_words_found": str(ref["count"]), "exhaustive": "true"}, "enumerate verdict")
        expect(len(words) == ref["count"] and digest(words) == ref["sha256"], "enumerated words differ from the reference")

    return [
        cli_min_op(ctx, "search min"),
        Op(
            "cli search none-below",
            ("cli_call_ms",),
            lambda: ctx.cli(["search", "--n", "3", "--k", "3", "--mode", "none-below", "--length", "11"]),
            below,
        ),
        Op(
            "cli search enumerate",
            ("cli_call_ms",),
            lambda: ctx.cli(["search", "--n", "3", "--k", "3", "--mode", "enumerate", "--length", "11"]),
            enum,
        ),
    ]


def cli_family_ops(ctx: Context) -> list[Op]:
    C = ctx.C
    fam, n, k = "dnk", 16, 3
    pi = renaming(ctx, fam, n, k)
    w = C.constructions.construct_family(C.constructions.FamilyId(fam), n, k)
    v = tuple(pi[a - 1] for a in w.letters)
    spaced = " ".join(map(str, v))

    def check_yes(out) -> None:
        code, stdout = out
        expect(code == 0 and stdout == "RESULT: crucial\n", f"check crucial: exit {code}, {stdout!r}")
        expect(oracle.is_crucial(v, n, k), "oracle disagrees")

    def check_no(out) -> None:
        code, stdout = out
        expect(code == 1 and stdout.startswith("RESULT: not crucial\n"), f"check w.1: exit {code}")

    def construct(out) -> None:
        code, stdout = out
        got = tuple(int(ch) for ch in stdout.strip())
        expect(code == 0 and len(got) == FORMULA["dnk"](8, 4), f"construct: exit {code}, length {len(got)}")
        check_crucial_word(C, got, 8, 4)

    def table(out) -> None:
        code, stdout = out
        expect(code == 0, f"table exit code {code}")
        rows = [line.split() for line in stdout.splitlines()]
        expect(len(rows) == 12 * 5, f"table has {len(rows)} rows")
        for nn, kk, lower, upper, exact, _family in rows:
            nn, kk, lower, upper = int(nn), int(kk), int(lower), int(upper)
            expect(lower <= upper, f"table ({nn},{kk}): lower above upper")
            paper = paper_minimum(nn, kk)
            if paper is not None:
                expect(exact == str(paper), f"table ({nn},{kk}): exact {exact}, paper {paper}")
                expect(lower <= paper <= upper, f"table ({nn},{kk}): paper value outside the bracket")
            elif kk >= 4:
                expect(exact == "-", f"table ({nn},{kk}): claims an exact value the paper leaves open")

    return [
        Op("cli check crucial", ("cli_call_ms",),
           lambda: ctx.cli(["check", "--what", "crucial", "--k", str(k), "--n", str(n), "--spaced", "--word", spaced]),
           check_yes),
        Op("cli check w.1", ("cli_call_ms",),
           lambda: ctx.cli(["check", "--what", "crucial", "--k", str(k), "--n", str(n), "--spaced", "--word", spaced + " 1"]),
           check_no),
        Op("cli construct", ("cli_call_ms",),
           lambda: ctx.cli(["construct", "--family", "dnk", "--n", "8", "--k", "4"]), construct),
        cli_min_op(ctx, "search min"),
        Op("cli table bounds", ("cli_call_ms",), lambda: ctx.cli(["table", "bounds"]), table),
    ]


# ---------------------------------------------------------------- workloads


def build(name: str, ctx: Context) -> list[Group]:
    """The groups of one workload. Their order is fixed; the seed chooses the
    inputs (letter renamings, random words), not the order of the calls."""
    cell_families = Group([family_op(ctx, *f) for f in CELL_FAMILIES], repeats=10)
    if name == "search-seq":
        groups = [
            Group([cell_op(ctx, c, "min_search_s") for c in (MIN_N3K3, MIN_N2K4, MIN_N2K5)], repeats=5),
            Group([cell_op(ctx, MIN_N5K2, "min_search_s")], repeats=2),
            Group([cell_op(ctx, BELOW14_N4K3, "certify_s")]),
            Group([cell_op(ctx, ENUM14_N3K3, "enumerate_s")]),
            Group(par_ops(ctx, MIN_N3K3)),
            cell_families,
            Group(cli_search_ops(ctx), repeats=2, startup=True),
        ]
    elif name == "families":
        # four groups of about 1.5 s, so that CPU probes bracket every
        # verification closely
        words = [family_op(ctx, *f) for f in FAMILIES]
        groups = [Group(words[i::4]) for i in range(4)] + [
            Group([cell_op(ctx, c, "min_search_s") for c in (MIN_N3K3, MIN_N2K4)], repeats=5),
            Group([cell_op(ctx, BELOW11_N3K3, "certify_s")], repeats=5),
            Group([cell_op(ctx, ENUM11_N3K3, "enumerate_s")], repeats=5),
            Group(par_ops(ctx, MIN_N3K3)),
            Group(cli_family_ops(ctx), repeats=3, startup=True),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return groups
