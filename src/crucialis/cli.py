"""Command-line interface: construct, check, decompose, profile, search, table.

Verdict-producing commands print a machine-parsable first line starting with
"RESULT:" followed by key=value fields; human detail lines follow. Exit codes:
0 positive verdict (or plain output produced), 1 negative verdict, 2 usage or
input error, 3 budget exhausted before a verdict.

Words are read compact (one digit per letter) by default, or whitespace
separated with --spaced for alphabets beyond 9 letters. Rendered words follow
the same rule automatically; inside RESULT lines a wide-alphabet word is
comma-joined so the line stays splittable on spaces.

When CRUCIALIS_CHECKPOINT_DIR is set, minimal-length and none-below searches
keep a resumable per-(n, k) checkpoint file under that directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from .constructions import (
    DEFAULT_LENGTH_CAP,
    FamilyId,
    _table_cells,
    bounds,
    construct_family,
    family_length,
)
from .cruciality import (
    _block_lengths,
    decompose,
    is_maximal,
    occurrence_profile,
    profile_violations,
)
from .errors import (
    BudgetExhaustedError,
    CapacityError,
    DomainError,
    FormatError,
    IncompleteChainError,
    NamingError,
    NotCrucialError,
    ParseError,
)
from .powers import find_abelian_power
from .search import (
    EnumerateAllCrucialAtLength,
    FindMinimalCrucial,
    SearchConfig,
    VerifyNoneBelow,
    enumerate_crucial,
    search_minimal,
    verify_none_below,
)
from .words import Word, WordFormat, parse_word, render_word

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep run() in control of the exit code
        raise _UsageError(message)


def _parse_range(text: str) -> tuple[int, int]:
    """INT or A:B (inclusive)."""
    lo, colon, hi = text.partition(":")
    try:
        a = int(lo)
        b = int(hi) if colon else a
    except ValueError:
        raise _UsageError(f"bad range {text!r}, expected INT or A:B")
    if a > b:
        raise _UsageError(f"empty range {text!r}")
    return a, b


def _read_word(args) -> Word:
    fmt = WordFormat.SPACED if args.spaced else WordFormat.COMPACT
    return parse_word(args.word, fmt, alphabet_size=args.n)


def _show_word(w: Word, fmt: str | None = None) -> str:
    return render_word(w, WordFormat(fmt)) if fmt else str(w)


def _result_word(w: Word) -> str:
    # spaces would break the key=value RESULT line
    if w.alphabet_size <= 9:
        return render_word(w, WordFormat.COMPACT)
    return ",".join(str(a) for a in w.letters)


def _cmd_construct(args, out, err) -> int:
    family = FamilyId(args.family)
    word = construct_family(family, args.n, args.k)
    print(_show_word(word, args.format), file=out)
    return EXIT_OK


def _cmd_check(args, out, err) -> int:
    w = _read_word(args)
    k = args.k
    if args.what == "free":
        occ = find_abelian_power(w, k)
        if occ is None:
            print("RESULT: free", file=out)
            return EXIT_OK
        print("RESULT: not free", file=out)
        print(
            f"abelian {k}-power at ({occ.start}, {occ.end}], block length {occ.block_length}",
            file=out,
        )
        return EXIT_NEGATIVE
    if args.what == "crucial":
        reason = _why_not_crucial(w, k)
        if reason is None:
            print("RESULT: crucial", file=out)
            return EXIT_OK
        print("RESULT: not crucial", file=out)
        print(reason, file=out)
        return EXIT_NEGATIVE
    # maximal
    if is_maximal(w, k):
        print("RESULT: maximal", file=out)
        return EXIT_OK
    print("RESULT: not maximal", file=out)
    return EXIT_NEGATIVE


def _why_not_crucial(w: Word, k: int) -> str | None:
    """Why w is not crucial, or None if it is."""
    bs = _block_lengths(w, k)
    if bs is None:
        return f"the word already contains an abelian {k}-power"
    if None in bs:
        return f"appending {bs.index(None) + 1} creates no abelian {k}-power suffix"
    return None


def _cmd_decompose(args, out, err) -> int:
    w = _read_word(args)
    try:
        dec = decompose(w, args.k)
    except NotCrucialError as e:
        print("RESULT: not crucial", file=out)
        print(str(e), file=out)
        return EXIT_NEGATIVE
    except (NamingError, IncompleteChainError) as e:
        print("RESULT: no nested chain", file=out)
        print(str(e), file=out)
        return EXIT_NEGATIVE
    print(
        "RESULT: decomposed "
        f"deltas={','.join(str(d) for d in dec.delta_lengths)}",
        file=out,
    )
    for i in range(1, w.alphabet_size + 1):
        print(f"delta[{i}]: {_result_word(dec.delta(i))}", file=out)
    for i, gap in enumerate(dec.gaps, start=2):
        print(f"gap[{i}]: {_result_word(gap) if len(gap) else '-'}", file=out)
    for i, blocks in enumerate(dec.blocks, start=1):
        print(f"blocks[{i}]: {'|'.join(_result_word(b) for b in blocks)}", file=out)
    return EXIT_OK


def _cmd_profile(args, out, err) -> int:
    w = _read_word(args)
    p = occurrence_profile(w)
    report = profile_violations(p, args.k)
    shape = f"({p.a0}; {','.join(str(a) for a in p.rest)})"
    tags = ",".join(t.name for t in report) if report else "none"
    print(f"RESULT: profile={shape} violations={tags}", file=out)
    if report.note:
        print(f"note: {report.note}", file=out)
    return EXIT_NEGATIVE if report else EXIT_OK


def _checkpoint_path(n: int, k: int) -> str | None:
    base = os.environ.get("CRUCIALIS_CHECKPOINT_DIR")
    if not base:
        return None
    return str(Path(base) / f"crucialis-search-n{n}-k{k}.ckpt")


def _cmd_search(args, out, err) -> int:
    common = dict(
        n=args.n,
        k=args.k,
        node_budget=args.node_budget,
        time_budget=args.time_budget,
    )
    if args.mode in ("none-below", "enumerate") and args.length is None:
        raise _UsageError(f"--length is required for --mode {args.mode}")
    if args.mode == "min" and args.length is not None:
        raise _UsageError("--length applies to --mode none-below and enumerate only")

    if args.mode == "min":
        cfg = SearchConfig(
            target_mode=FindMinimalCrucial(),
            checkpoint_path=_checkpoint_path(args.n, args.k),
            **common,
        )
        res = search_minimal(cfg)
        found = res.minimal_length is not None
        length = res.minimal_length if found else "none"
        wit = f" witness={_result_word(res.witness)}" if found else ""
        print(
            f"RESULT: minimal_length={length}{wit} "
            f"exhaustive={'true' if res.exhaustive else 'false'}",
            file=out,
        )
        print(f"nodes: {res.nodes_expanded}", file=out)
        return EXIT_OK if res.exhaustive else EXIT_BUDGET

    if args.mode == "none-below":
        cfg = SearchConfig(
            target_mode=VerifyNoneBelow(args.length),
            checkpoint_path=_checkpoint_path(args.n, args.k),
            **common,
        )
        res = verify_none_below(cfg)
        if not res.exhaustive:
            verdict, code = "certified=unknown exhaustive=false", EXIT_BUDGET
        elif res.crucial_words_found == 0:
            verdict, code = "certified=true exhaustive=true", EXIT_OK
        else:
            wit = _result_word(res.witness)
            verdict = f"certified=false minimal_length={res.minimal_length} witness={wit}"
            code = EXIT_NEGATIVE
        print(f"RESULT: none_below={args.length} {verdict}", file=out)
        print(f"nodes: {res.nodes_expanded}", file=out)
        return code

    # enumerate
    cfg = SearchConfig(target_mode=EnumerateAllCrucialAtLength(args.length), **common)
    words: list[Word] = []
    tripped = False
    try:
        for w in enumerate_crucial(cfg):
            words.append(w)
    except BudgetExhaustedError:
        tripped = True
    flag = "false" if tripped else "true"
    print(f"RESULT: crucial_words_found={len(words)} exhaustive={flag}", file=out)
    for w in words:
        print(_result_word(w), file=out)
    return EXIT_BUDGET if tripped else EXIT_OK


def _families_rows(n_range, k_range) -> list[list[str]]:
    rows = []
    for family, n, k in _table_cells(n_range, k_range):
        length = family_length(family, n, k)
        if length > DEFAULT_LENGTH_CAP:
            shown = "over-cap"
        else:
            shown = _show_word(construct_family(family, n, k))
        rows.append([family.value, str(n), str(k), shown, str(length)])
    return rows


def _bounds_rows(n_range, k_range) -> list[list[str]]:
    rows = []
    for n in range(n_range[0], n_range[1] + 1):
        for k in range(k_range[0], k_range[1] + 1):
            b = bounds(n, k)
            rows.append(
                [
                    str(n),
                    str(k),
                    str(b.lower),
                    str(b.upper),
                    "-" if b.exact is None else str(b.exact),
                    b.upper_family.value,
                ]
            )
    return rows


def _render_table(header: list[str], rows: list[list[str]], style: str, out) -> None:
    if style == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        out.write(buf.getvalue())
        return
    if style == "markdown":
        print("| " + " | ".join(header) + " |", file=out)
        print("|" + "|".join(" --- " for _ in header) + "|", file=out)
        for row in rows:
            print("| " + " | ".join(row) + " |", file=out)
        return
    for row in rows:  # plain text: no header, space separated
        print(" ".join(row), file=out)


def _cmd_table(args, out, err) -> int:
    if args.which == "families":
        n_range = _parse_range(args.n) if args.n else (1, 6)
        k_range = _parse_range(args.k) if args.k else (2, 4)
        rows = _families_rows(n_range, k_range)
        header = ["family", "n", "k", "word", "length"]
    else:
        n_range = _parse_range(args.n) if args.n else (1, 12)
        k_range = _parse_range(args.k) if args.k else (2, 6)
        rows = _bounds_rows(n_range, k_range)
        header = ["n", "k", "lower", "upper", "exact", "family"]
    _render_table(header, rows, args.output, out)
    return EXIT_OK


def _build_parser() -> _Parser:
    p = _Parser(prog="crucialis", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a word from a named family")
    c.add_argument("--family", required=True, choices=[f.value for f in FamilyId])
    c.add_argument("--n", required=True, type=int, help="alphabet size")
    c.add_argument("--k", type=int, help="exponent (families with free exponent)")
    c.add_argument("--format", choices=["compact", "spaced"], help="output format")
    c.set_defaults(func=_cmd_construct)

    ch = sub.add_parser("check", help="test a word for freeness/cruciality/maximality")
    ch.add_argument("--what", required=True, choices=["free", "crucial", "maximal"])
    ch.add_argument("--word", required=True)
    ch.add_argument("--k", required=True, type=int)
    ch.add_argument("--n", type=int, help="alphabet size (default: largest letter)")
    ch.add_argument("--spaced", action="store_true", help="word is whitespace separated")
    ch.set_defaults(func=_cmd_check)

    d = sub.add_parser("decompose", help="show the nested suffix chain of a crucial word")
    d.add_argument("--word", required=True)
    d.add_argument("--k", required=True, type=int)
    d.add_argument("--n", type=int)
    d.add_argument("--spaced", action="store_true")
    d.set_defaults(func=_cmd_decompose)

    pr = sub.add_parser("profile", help="occurrence profile and its violations")
    pr.add_argument("--word", required=True)
    pr.add_argument("--k", type=int, default=3)
    pr.add_argument("--n", type=int)
    pr.add_argument("--spaced", action="store_true")
    pr.set_defaults(func=_cmd_profile)

    s = sub.add_parser("search", help="exhaustive search for crucial words")
    s.add_argument("--n", required=True, type=int)
    s.add_argument("--k", required=True, type=int)
    s.add_argument("--mode", choices=["min", "none-below", "enumerate"], default="min")
    s.add_argument("--length", type=int, help="target length for none-below/enumerate")
    s.add_argument("--node-budget", type=int, dest="node_budget")
    s.add_argument("--time-budget", type=float, dest="time_budget", help="seconds")
    s.set_defaults(func=_cmd_search)

    t = sub.add_parser("table", help="emit construction or bounds tables")
    t.add_argument("which", choices=["families", "bounds"])
    t.add_argument("--n", help="INT or A:B range")
    t.add_argument("--k", help="INT or A:B range")
    t.add_argument("--output", choices=["text", "csv", "markdown"], default="text")
    t.set_defaults(func=_cmd_table)
    return p


def run(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=err)
        return EXIT_USAGE
    except SystemExit as e:  # --help
        return int(e.code or 0)
    try:
        return args.func(args, out, err)
    except (_UsageError, ParseError, FormatError, DomainError, CapacityError) as e:
        print(f"error: {e}", file=err)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
