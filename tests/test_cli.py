"""Command-line interface: verdict lines, exit codes, tables, environment."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crucialis
from crucialis import powers
from crucialis.cli import run
from crucialis.constructions import bounds, construct_D, construct_family, FamilyId
from crucialis.cruciality import is_crucial
from crucialis.words import WordFormat, parse_word


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestConstruct:
    def test_general_d_family(self):
        code, out, err = invoke(
            ["construct", "--family", "dnk", "--n", "4", "--k", "3"]
        )
        assert code == 0
        assert out == "34423311342311343233411\n"
        assert err == ""

    def test_fixed_family_without_k(self):
        code, out, _ = invoke(["construct", "--family", "zimin", "--n", "3"])
        assert code == 0
        assert out == "1213121\n"

    def test_spaced_format(self):
        code, out, _ = invoke(
            ["construct", "--family", "zimin", "--n", "2", "--format", "spaced"]
        )
        assert code == 0
        assert out == "1 2 1\n"

    def test_wide_alphabet_defaults_to_spaced(self):
        code, out, _ = invoke(
            ["construct", "--family", "dn", "--n", "10", "--k", "2"]
        )
        assert code == 0
        assert " " in out
        w = parse_word(out.strip(), WordFormat.SPACED, alphabet_size=10)
        assert w.alphabet_size == 10

    def test_wide_alphabet_compact_rejected(self):
        code, _, err = invoke(
            ["construct", "--family", "dn", "--n", "10", "--format", "compact"]
        )
        assert code == 2
        assert "error" in err

    def test_free_family_missing_k(self):
        code, _, err = invoke(["construct", "--family", "dnk", "--n", "4"])
        assert code == 2
        assert "error" in err

    def test_unknown_family(self):
        code, _, err = invoke(["construct", "--family", "nope", "--n", "4"])
        assert code == 2
        assert err != ""

    def test_over_cap(self):
        code, _, err = invoke(["construct", "--family", "zimin", "--n", "30"])
        assert code == 2


class TestCheck:
    def test_crucial_verdict(self):
        code, out, _ = invoke(
            ["check", "--what", "crucial", "--k", "3", "--word", "21211"]
        )
        assert code == 0
        assert out == "RESULT: crucial\n"

    def test_not_crucial_explains(self):
        code, out, _ = invoke(
            ["check", "--what", "crucial", "--k", "3", "--word", "2121"]
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "RESULT: not crucial"
        assert "appending 1" in lines[1]

    def test_not_crucial_scans_freeness_once(self, monkeypatch):
        scans = []
        real = powers.find_abelian_power

        def counted(*args, **kwargs):
            scans.append(args)
            return real(*args, **kwargs)

        # the CLI reads find_abelian_power from powers when the command runs
        monkeypatch.setattr(powers, "find_abelian_power", counted)
        w = construct_D(40, 5)
        code, out, _ = invoke(
            ["check", "--what", "crucial", "--k", "5", "--n", "40", "--spaced",
             "--word", " ".join(map(str, w.letters[1:]))]
        )
        assert code == 1
        assert out == "RESULT: not crucial\nappending 40 creates no abelian 5-power suffix\n"
        assert len(scans) == 1

    def test_free_verdict(self):
        code, out, _ = invoke(["check", "--what", "free", "--k", "3", "--word", "2121"])
        assert code == 0
        assert out == "RESULT: free\n"

    def test_not_free_locates_power(self):
        code, out, _ = invoke(["check", "--what", "free", "--k", "2", "--word", "2121"])
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "RESULT: not free"
        assert "abelian 2-power" in lines[1]

    def test_maximal_verdicts(self):
        code, out, _ = invoke(["check", "--what", "maximal", "--k", "3", "--word", "11"])
        assert code == 0
        assert out == "RESULT: maximal\n"
        code, out, _ = invoke(
            ["check", "--what", "maximal", "--k", "3", "--word", "21211"]
        )
        assert code == 1
        assert out == "RESULT: not maximal\n"

    def test_spaced_word(self):
        code, out, _ = invoke(
            ["check", "--what", "crucial", "--k", "3", "--spaced", "--word", "2 1 2 1 1"]
        )
        assert code == 0
        assert out == "RESULT: crucial\n"

    def test_bad_word_text(self):
        code, _, err = invoke(["check", "--what", "free", "--k", "3", "--word", "1a1"])
        assert code == 2
        assert err != ""

    @pytest.mark.parametrize("text", ["1²1", "1٣1"])
    def test_non_ascii_digit_is_a_usage_error(self, text):
        # str.isdigit holds for both, and int() reads '٣' as 3
        code, out, err = invoke(["check", "--what", "free", "--k", "2", "--word", text])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("text", ["1 ٣ 1", "1 ３ 1", "1_0", "+2"])
    def test_non_ascii_digit_token_is_a_usage_error(self, text):
        # int() reads each of these as a number
        code, out, err = invoke(
            ["check", "--what", "free", "--k", "2", "--spaced", "--word", text]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_explicit_alphabet_widens(self):
        # letter 3 declared but absent: appending it never creates a suffix power
        code, out, _ = invoke(
            ["check", "--what", "crucial", "--k", "3", "--n", "3", "--word", "21211"]
        )
        assert code == 1


class TestDecompose:
    def test_nested_chain(self):
        code, out, _ = invoke(["decompose", "--word", "21211", "--k", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "RESULT: decomposed deltas=2,5"
        assert "delta[1]: 11" in lines
        assert "delta[2]: 21211" in lines
        assert "gap[2]: 212" in lines
        assert any(line.startswith("blocks[1]:") for line in lines)

    def test_not_crucial(self):
        code, out, _ = invoke(["decompose", "--word", "2121", "--k", "3"])
        assert code == 1
        assert out.splitlines()[0] == "RESULT: not crucial"

    def test_wrong_naming(self):
        code, out, _ = invoke(["decompose", "--word", "12122", "--k", "3"])
        assert code == 1
        assert out.splitlines()[0] == "RESULT: no nested chain"

    def test_blocks_listed_per_letter(self):
        code, out, _ = invoke(
            ["decompose", "--word", "34423311342311343233411", "--k", "3"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "RESULT: decomposed deltas=2,17,20,23"
        blocks4 = next(l for l in lines if l.startswith("blocks[4]:"))
        assert blocks4 == "blocks[4]: 34423311|34231134|32334114"

    def test_wide_alphabet_words_are_comma_joined(self):
        w = construct_D(10, 2)
        text = " ".join(map(str, w.letters))
        code, out, _ = invoke(["decompose", "--word", text, "--k", "2", "--spaced", "--n", "10"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("RESULT: decomposed deltas=")
        assert "delta[2]: 1,9,8,7,6,5,4,3,2,3,4,5,6,7,8,9,1" in lines


class TestProfile:
    def test_clean_profile(self):
        w = str(construct_family(FamilyId.EN, 6))
        code, out, _ = invoke(["profile", "--word", w])
        assert code == 0
        assert out == "RESULT: profile=(5; 3,6,9,9,9) violations=none\n"

    def test_violating_profile(self):
        # last letter 5 times, two other letters tied at three occurrences
        word = "1" * 3 + "2" * 3 + "3" * 9 + "4" * 9 + "5" * 5
        code, out, _ = invoke(["profile", "--word", word])
        assert code == 1
        first = out.splitlines()[0]
        assert first.startswith("RESULT: profile=(5; 3,3,9,9)")
        assert "PAIR_3_3" in first

    def test_other_exponent_notes_scope(self):
        code, out, _ = invoke(["profile", "--word", "1122", "--k", "2"])
        lines = out.splitlines()
        assert lines[0].startswith("RESULT: profile=")
        assert any(l.startswith("note:") for l in lines)


class TestSearch:
    def test_minimal_two_letters(self):
        code, out, _ = invoke(["search", "--n", "2", "--k", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "RESULT: minimal_length=5 witness=12122 exhaustive=true"
        assert lines[1].startswith("nodes: ")

    def test_minimal_over_forty_letters(self):
        code, out, _ = invoke(["search", "--n", "1", "--k", "42"])
        assert code == 0
        assert out.splitlines() == [
            f"RESULT: minimal_length=41 witness={'1' * 41} exhaustive=true",
            "nodes: 41",
        ]

    def test_budget_exhausted_exit(self):
        code, out, _ = invoke(
            ["search", "--n", "3", "--k", "3", "--node-budget", "100"]
        )
        assert code == 3
        assert "exhaustive=false" in out.splitlines()[0]

    def test_none_below_certified(self):
        code, out, _ = invoke(
            ["search", "--n", "2", "--k", "3", "--mode", "none-below", "--length", "5"]
        )
        assert code == 0
        assert out.splitlines()[0] == "RESULT: none_below=5 certified=true exhaustive=true"

    def test_none_below_refuted(self):
        code, out, _ = invoke(
            ["search", "--n", "2", "--k", "3", "--mode", "none-below", "--length", "7"]
        )
        assert code == 1
        first = out.splitlines()[0]
        assert first.startswith("RESULT: none_below=7 certified=false")
        assert "witness=12122" in first

    def test_none_below_unknown_under_budget(self):
        code, out, _ = invoke(
            [
                "search", "--n", "3", "--k", "3", "--mode", "none-below",
                "--length", "11", "--node-budget", "4",
            ]
        )
        assert code == 3
        assert out.splitlines()[0] == "RESULT: none_below=11 certified=unknown exhaustive=false"

    def test_none_below_past_the_default_max_length(self):
        # none-below scans every residue length below its target
        code, out, _ = invoke(
            ["search", "--n", "2", "--k", "3", "--mode", "none-below", "--length", "45"]
        )
        assert code == 1
        assert out.splitlines()[0] == (
            "RESULT: none_below=45 certified=false minimal_length=5 witness=12122"
        )

    def test_enumerate_lists_words(self):
        code, out, _ = invoke(
            ["search", "--n", "2", "--k", "3", "--mode", "enumerate", "--length", "5"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "RESULT: crucial_words_found=2 exhaustive=true"
        assert lines[1:] == ["12122", "12211"]

    def test_nan_time_budget_rejected(self):
        # NaN compares false with every bound: as a budget it would never trip
        code, out, err = invoke(["search", "--n", "3", "--k", "3", "--time-budget", "nan"])
        assert code == 2
        assert out == "" and "time_budget" in err

    def test_enumerate_under_tripping_budget(self):
        code, out, _ = invoke(
            [
                "search", "--n", "3", "--k", "3", "--mode", "enumerate",
                "--length", "11", "--node-budget", "10",
            ]
        )
        assert code == 3
        assert out == "RESULT: crucial_words_found=0 exhaustive=false\n"

    def test_enumerate_thousands_of_letters_deep(self):
        # n = 8 runs the Python walk, which once overran the recursion limit here
        code, out, _ = invoke(
            [
                "search", "--n", "8", "--k", "2", "--mode", "enumerate",
                "--length", "2001", "--node-budget", "20000",
            ]
        )
        assert code == 3
        assert out == "RESULT: crucial_words_found=0 exhaustive=false\n"

    @pytest.mark.parametrize(
        "k,length,budget", [(2, 8001, 10), (3, 8000, 100_000)], ids=["k2_split", "k3_scan"]
    )
    def test_long_scan_memory_stays_small(self, k, length, budget):
        # the slot table once listed every slot of every depth, L^2 entries:
        # 323 MB before the first node at k = 2, 427 MB at k = 3. The second
        # call scans below the split. The peak is the child's VmHWM:
        # ru_maxrss would carry the forked test runner's size over exec.
        if not Path("/proc/self/status").exists():
            pytest.skip("peak RSS is read from /proc/self/status")
        script = (
            "import sys\n"
            "from crucialis import cli\n"
            "code = cli.run(sys.argv[1:])\n"
            "hwm = [s for s in open('/proc/self/status') if s.startswith('VmHWM:')]\n"
            "print(code, hwm[0].split()[1], file=sys.stderr)\n"
        )
        argv = [
            "search", "--n", "3", "--k", str(k), "--mode", "enumerate",
            "--length", str(length), "--node-budget", str(budget),
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(crucialis.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert proc.stdout == "RESULT: crucial_words_found=0 exhaustive=false\n", proc.stderr
        code, peak_kib = proc.stderr.split()
        assert code == "3"
        assert int(peak_kib) < 100 * 1024

    def test_enumerate_requires_length(self):
        code, _, err = invoke(["search", "--n", "2", "--k", "3", "--mode", "enumerate"])
        assert code == 2
        assert err != ""

    def test_minimal_search_rejects_length(self):
        # a minimal search has no target length, so --length would go unread
        code, out, err = invoke(["search", "--n", "3", "--k", "3", "--length", "5"])
        assert code == 2
        assert out == "" and "--length" in err

    def test_checkpoint_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CRUCIALIS_CHECKPOINT_DIR", str(tmp_path))
        code, out, _ = invoke(["search", "--n", "2", "--k", "3"])
        assert code == 0
        ckpt = tmp_path / "crucialis-search-n2-k3.ckpt"
        assert ckpt.exists()
        assert ckpt.read_text().startswith("# crucialis checkpoint v4 n=2 k=3")

    def test_non_ascii_checkpoint_is_a_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CRUCIALIS_CHECKPOINT_DIR", str(tmp_path))
        ckpt = tmp_path / "crucialis-search-n3-k3.ckpt"
        ckpt.write_bytes(b"\xff\xfe\x00garbage\n")
        code, out, err = invoke(["search", "--n", "3", "--k", "3"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: checkpoint ") and err.count("\n") == 1
        assert ckpt.read_bytes() == b"\xff\xfe\x00garbage\n"

    def test_unopenable_checkpoint_dir_is_a_usage_error(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("CRUCIALIS_CHECKPOINT_DIR", str(blocker / "sub"))
        code, out, err = invoke(["search", "--n", "3", "--k", "3"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: checkpoint ") and err.count("\n") == 1


class TestTable:
    def test_families_text_matches_library(self):
        code, out, _ = invoke(
            ["table", "families", "--n", "4", "--k", "3", "--output", "text"]
        )
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert all(len(r) == 5 for r in rows)
        for family, n, k, word, length in rows:
            built = construct_family(FamilyId(family), int(n), int(k))
            assert str(built) == word
            assert len(built) == int(length)

    def test_families_row_over_length_cap_is_marked(self):
        # zimink(8, 6) has 6^8 - 1 letters, over the construction cap
        code, out, _ = invoke(["table", "families", "--n", "1:8", "--k", "2:6"])
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert [r for r in rows if r[3] == "over-cap"] == [
            ["zimink", "8", "6", "over-cap", str(6**8 - 1)]
        ]
        assert ["dnk", "8", "6"] in [r[:3] for r in rows]
        for style in ("csv", "markdown"):
            code, out, _ = invoke(
                ["table", "families", "--n", "8", "--k", "6", "--output", style]
            )
            assert code == 0
            assert "over-cap" in out and "dnk" in out

    def test_families_stay_in_the_n_range(self):
        # smallopt is stored for n <= 4 but lists only the n asked for
        code, out, _ = invoke(["table", "families", "--n", "1:2", "--k", "3"])
        assert code == 0
        rows = [line.split()[:3] for line in out.splitlines()]
        assert ["smallopt", "2", "3"] in rows
        assert all(1 <= int(n) <= 2 and k == "3" for _, n, k in rows)

    def test_families_defaults(self):
        code, out, _ = invoke(["table", "families"])
        assert code == 0
        assert len(out.splitlines()) > 10

    def test_bounds_text(self):
        code, out, _ = invoke(["table", "bounds", "--n", "6", "--k", "3"])
        assert code == 0
        assert out == "6 3 41 41 41 dnk\n"

    def test_bounds_square_row(self):
        code, out, _ = invoke(["table", "bounds", "--n", "4", "--k", "2"])
        assert code == 0
        assert out.split() == ["4", "2", "7", "9", "9", "dnk"]

    def test_bounds_unknown_exact_dash(self):
        code, out, _ = invoke(["table", "bounds", "--n", "5", "--k", "4"])
        assert code == 0
        assert out.split() == ["5", "4", "43", "59", "-", "dnk"]

    def test_bounds_range_rows_match_library(self):
        code, out, _ = invoke(["table", "bounds", "--n", "1:12", "--k", "2:6"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 12 * 5
        for line in lines:
            n, k, lower, upper, exact, family = line.split()
            b = bounds(int(n), int(k))
            assert (b.lower, b.upper) == (int(lower), int(upper))
            assert ("-" if b.exact is None else str(b.exact)) == exact
            assert b.upper_family.value == family

    def test_csv_output(self):
        code, out, _ = invoke(
            ["table", "bounds", "--n", "6", "--k", "3", "--output", "csv"]
        )
        assert code == 0
        assert out.splitlines() == [
            "n,k,lower,upper,exact,family",
            "6,3,41,41,41,dnk",
        ]

    def test_markdown_output(self):
        code, out, _ = invoke(
            ["table", "bounds", "--n", "6", "--k", "3", "--output", "markdown"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "| n | k | lower | upper | exact | family |"
        assert lines[1].startswith("|")
        assert lines[2] == "| 6 | 3 | 41 | 41 | 41 | dnk |"

    def test_stable_output(self):
        a = invoke(["table", "families", "--n", "1:4", "--k", "2:4"])
        b = invoke(["table", "families", "--n", "1:4", "--k", "2:4"])
        assert a == b

    def test_bad_range(self):
        code, _, err = invoke(["table", "bounds", "--n", "5:2"])
        assert code == 2
        assert err != ""

    def test_range_not_a_number(self):
        code, out, err = invoke(["table", "bounds", "--n", "a"])
        assert code == 2
        assert out == "" and "bad range" in err


class TestUsage:
    def test_no_arguments(self):
        code, _, err = invoke([])
        assert code == 2
        assert err != ""

    def test_help_exits_zero(self):
        code, out, _ = invoke(["--help"])
        assert code == 0

    def test_unknown_command(self):
        code, _, err = invoke(["frobnicate"])
        assert code == 2

    def test_verdicts_agree_with_library(self):
        # randomized matrix: CLI check mirrors direct library calls
        import random

        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 3)
            k = rng.randint(2, 4)
            L = rng.randint(1, 9)
            text = "".join(str(rng.randint(1, n)) for _ in range(L))
            code, out, _ = invoke(
                ["check", "--what", "crucial", "--k", str(k), "--word", text]
            )
            expected = is_crucial(parse_word(text), k)
            assert code == (0 if expected else 1)
            assert out.splitlines()[0] == (
                "RESULT: crucial" if expected else "RESULT: not crucial"
            )


_SEARCH = ("crucialis.search", "crucialis._native")
_WORD_LAYERS = (*_SEARCH, "crucialis.cruciality", "crucialis.powers")
# the package's records are plain classes; only search's still load these
_DATACLASSES = ("dataclasses", "inspect")


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["table", "bounds"], (*_WORD_LAYERS, *_DATACLASSES)),
        (["construct", "--family", "dnk", "--n", "8", "--k", "4"], (*_WORD_LAYERS, *_DATACLASSES)),
        (["check", "--what", "crucial", "--k", "3", "--word", "11231213311"], (*_SEARCH, *_DATACLASSES)),
        (["decompose", "--k", "3", "--word", "11231321211"], (*_SEARCH, *_DATACLASSES)),
        (["profile", "--word", "11231321211"], (*_SEARCH, *_DATACLASSES)),
        (["search", "--n", "3", "--k", "3"], ("crucialis.cruciality",)),
    ],
    ids=["table", "construct", "check", "decompose", "profile", "search"],
)
def test_command_loads_only_what_it_runs(argv, absent):
    # each command imports its modules when it runs; a top-level import in
    # cli.py or the package would load them for every command. A module the
    # bare interpreter already loads (a site hook, say) is not the command's.
    env = dict(os.environ, PYTHONPATH=str(Path(crucialis.__file__).parents[1]))

    def modules(script, *args):
        proc = subprocess.run(
            [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    bare = set(modules("import sys; print(*sys.modules)"))
    code, *loaded = modules(
        "import io, sys\n"
        "from crucialis import cli\n"
        "code = cli.run(sys.argv[1:], out=io.StringIO())\n"
        "print(code, *sys.modules)\n",
        *argv,
    )
    assert code == "0"
    assert "crucialis.cli" in loaded
    assert sorted((set(absent) - bare) & set(loaded)) == []
