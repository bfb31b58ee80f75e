"""Word type, Parikh machinery, parsing and rendering."""

import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import crucialis
from crucialis.errors import DomainError, FormatError, ParseError
from crucialis.words import (
    EMPTY_WORD,
    MAX_ALPHABET,
    Word,
    WordFormat,
    packed_prefixes,
    parikh,
    parse_word,
    read_corpus,
    render_word,
    word,
)


class TestWordType:
    def test_basic_construction(self):
        w = Word((1, 2, 1), 2)
        assert len(w) == 3
        assert list(w) == [1, 2, 1]
        assert w[0] == 1 and w[2] == 1

    def test_list_letters_become_a_tuple(self):
        w = Word([1, 2, 1], 2)
        assert w.letters == (1, 2, 1)
        assert w == Word((1, 2, 1), 2) and hash(w) == hash(Word((1, 2, 1), 2))

    def test_factory_infers_alphabet(self):
        assert word((1, 3, 2)).alphabet_size == 3
        assert word((1, 1)).alphabet_size == 1

    def test_alphabet_may_exceed_used_letters(self):
        w = Word((1, 1), 5)
        assert w.alphabet_size == 5

    @pytest.mark.parametrize(
        "letters,n",
        [
            ((0, 1), 2),
            ((1, 3), 2),
            ((1,), 0),
            ((1,), MAX_ALPHABET + 1),
            ((True, 2), 2),
            ((1,), True),
            ((1,), 2.0),
        ],
    )
    def test_rejects_out_of_range(self, letters, n):
        with pytest.raises(DomainError):
            Word(letters, n)

    @pytest.mark.parametrize("letter", [0, MAX_ALPHABET + 1, 1.0, -1, True])
    def test_append_rejects_out_of_range(self, letter):
        # append checks only its new letter; the word's own letters are checked
        with pytest.raises(DomainError):
            Word((1, 2), 2).append(letter)

    def test_append_widens_alphabet(self):
        w = word((1, 2)).append(3)
        assert w.letters == (1, 2, 3)
        assert w.alphabet_size == 3

    def test_append_keeps_alphabet_when_possible(self):
        w = Word((1, 2), 4).append(3)
        assert w.alphabet_size == 4

    def test_concat(self):
        assert word((1, 2)).concat(word((2, 1))).letters == (1, 2, 2, 1)

    def test_reversed(self):
        assert word((1, 2, 3)).reversed().letters == (3, 2, 1)

    def test_str_picks_format_by_alphabet(self):
        assert str(word((1, 2, 1))) == "121"
        assert str(Word((10, 2), 10)) == "10 2"

    def test_equality_and_hash(self):
        assert Word((1, 2), 2) == Word((1, 2), 2)
        assert Word((1, 2), 2) != Word((1, 2), 3)
        assert len({Word((1, 2), 2), Word((1, 2), 2)}) == 1


class TestParikh:
    def test_prefix_counts(self):
        w = word((1, 3, 2, 1))
        assert parikh(w, 0, 4) == (2, 1, 1)
        assert parikh(w, 1, 3) == (0, 1, 1)
        assert parikh(w, 2, 2) == (0, 0, 0)

    def test_half_open_range_errors(self):
        w = word((1, 2, 1))
        with pytest.raises(IndexError):
            parikh(w, 2, 1)
        with pytest.raises(IndexError):
            parikh(w, 0, 4)
        with pytest.raises(IndexError):
            parikh(w, -1, 2)
        for start, end in ((True, 3), (0, 3.0), (0.0, 2)):  # a bool or float is no index
            with pytest.raises(DomainError):
                parikh(w, start, end)

    def test_packed_prefix_lanes(self):
        p, shift = packed_prefixes((1, 2, 1, 2, 2))
        assert shift == 16
        # lane 0 counts letter 1, lane 1 counts letter 2
        assert p[5] == 2 + (3 << 16)
        assert p[3] - p[1] == 1 + (1 << 16)

    @pytest.mark.parametrize("length,shift", [(1000, 16), (65535, 16), (65536, 32)])
    def test_packed_prefixes_count_every_letter(self, length, shift):
        rng = random.Random(length)
        letters = [rng.randint(1, MAX_ALPHABET) for _ in range(length)]
        p, got_shift = packed_prefixes(letters)
        assert got_shift == shift and len(p) == length + 1 and p[0] == 0
        counts = [0] * MAX_ALPHABET
        for a in letters:
            counts[a - 1] += 1
        assert p[-1] == sum(c << (a * shift) for a, c in enumerate(counts))
        assert all(p[i + 1] - p[i] == 1 << (a - 1) * shift for i, a in enumerate(letters))


class TestParseRender:
    def test_compact_round_trip(self):
        w = parse_word("13243232323243")
        assert w.alphabet_size == 4
        assert render_word(w, WordFormat.COMPACT) == "13243232323243"

    def test_spaced_round_trip(self):
        w = parse_word("10 2 10", WordFormat.SPACED)
        assert w.letters == (10, 2, 10)
        assert w.alphabet_size == 10
        assert render_word(w, WordFormat.SPACED) == "10 2 10"

    def test_empty_compact_is_empty_word(self):
        assert parse_word("") == EMPTY_WORD

    def test_explicit_alphabet(self):
        w = parse_word("121", alphabet_size=4)
        assert w.alphabet_size == 4

    @pytest.mark.parametrize(
        "text", ["1021", "12a", "0", "-1 2", "1²1", "1٣1", "1 ٣ 1", "1 ３ 1", "1_0", "+2"]
    )
    def test_parse_rejects_bad_letters(self, text):
        with pytest.raises(ParseError):
            parse_word(text)
        with pytest.raises(ParseError):
            parse_word(text, WordFormat.SPACED)

    def test_parse_rejects_undersized_alphabet(self):
        with pytest.raises(ParseError):
            parse_word("123", alphabet_size=2)

    @pytest.mark.parametrize("size", [True, 2.5, 2.0])
    def test_parse_rejects_non_int_alphabet(self, size):
        with pytest.raises(ParseError):
            parse_word("1", alphabet_size=size)

    def test_unknown_format_rejected(self):
        with pytest.raises(ParseError):
            parse_word("121", "compact")
        with pytest.raises(FormatError):
            render_word(Word((1, 2, 1), 2), "spaced")

    def test_render_compact_needs_small_alphabet(self):
        w = Word((10, 2), 10)
        with pytest.raises(FormatError):
            render_word(w, WordFormat.COMPACT)


class TestCorpus:
    def test_reads_spaced_lines_skipping_comments(self):
        src = io.StringIO("# header\n\n1 2 1\n2 1 1 2\n   \n# tail\n")
        ws = list(read_corpus(src))
        assert [w.letters for w in ws] == [(1, 2, 1), (2, 1, 1, 2)]

    def test_reads_a_file_path(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("# two words\n1 2 1\n10 1 10\n", encoding="utf-8")
        ws = read_corpus(path)
        assert [(w.letters, w.alphabet_size) for w in ws] == [((1, 2, 1), 2), ((10, 1, 10), 10)]
        assert read_corpus(str(path)) == ws

    def test_round_trips_own_rendering(self):
        words_in = [word((1, 2, 1)), Word((10, 1, 10), 10)]
        text = "\n".join(render_word(w, WordFormat.SPACED) for w in words_in)
        assert [w.letters for w in read_corpus(io.StringIO(text))] == [
            w.letters for w in words_in
        ]


def test_import_leaves_numpy_out():
    # the package has no runtime dependency: importing every one of its
    # modules loads only standard-library modules, numpy among those it must
    # not load. The package namespace is lazy, so each is imported by name.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import crucialis, crucialis._native, crucialis.cli, crucialis.constructions\n"
        "import crucialis.cruciality, crucialis.errors, crucialis.powers\n"
        "import crucialis.search, crucialis.words\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(*sorted(new - sys.stdlib_module_names - {'crucialis'}))\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(crucialis.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "False"]


def test_cli_import_leaves_multiprocessing_out():
    # the thread pool's modules load only when a search starts its pool, and
    # multiprocessing not even then
    script = (
        "import sys, crucialis.cli\n"
        "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)\n"
        "from crucialis.search import SearchConfig, search_minimal\n"
        "search_minimal(SearchConfig(n=3, k=3, workers=2))\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(crucialis.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False"]
