"""Search engine: minima, enumeration, certificates, budgets, checkpoints."""

import fcntl
import gc
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import crucialis
from crucialis import _native, search
from crucialis.cruciality import is_crucial
from crucialis.errors import BudgetExhaustedError, DomainError
from crucialis.search import (
    EnumerateAllCrucialAtLength,
    FindMinimalCrucial,
    SearchConfig,
    VerifyNoneBelow,
    enumerate_crucial,
    _branches,
    _Checkpoint,
    search_minimal,
    verify_none_below,
)
from crucialis.words import parse_word

# minima over small alphabets, witnesses are the lex-least canonical words
KNOWN_MINIMA = [
    (1, 3, 2, "11"),
    (2, 3, 5, "12122"),
    (3, 2, 5, "12313"),
    (4, 2, 9, "121342141"),
    (3, 3, 11, "11231213311"),
]

ENUM_3_3_11_COUNT = 44
ENUM_3_3_11_FIRST = "11231213311"
ENUM_3_3_11_LAST = "12332331133"


class TestSearchMinimal:
    @pytest.mark.parametrize("n,k,length,witness", KNOWN_MINIMA)
    def test_known_minima(self, n, k, length, witness):
        result = search_minimal(SearchConfig(n=n, k=k))
        assert result.minimal_length == length
        assert str(result.witness) == witness
        assert result.exhaustive
        assert result.crucial_words_found >= 1
        assert is_crucial(result.witness, k)

    def test_two_letter_squares(self):
        result = search_minimal(SearchConfig(n=2, k=2))
        assert result.minimal_length == 3
        assert result.exhaustive

    def test_minimum_over_forty_letters(self):
        # the scan runs up to bounds(n, k).upper, so a long minimum is found
        result = search_minimal(SearchConfig(n=1, k=42))
        assert result.minimal_length == 41
        assert str(result.witness) == "1" * 41
        assert result.exhaustive
        assert result.nodes_expanded == 41

    def test_scan_past_the_target_length_limit_is_refused(self):
        # bounds(3, 41).upper is 65,599: no scan is truncated to report "none"
        with pytest.raises(DomainError):
            search_minimal(SearchConfig(n=3, k=41))

    def test_mode_mismatch(self):
        cfg = SearchConfig(n=2, k=3, target_mode=VerifyNoneBelow(5))
        with pytest.raises(DomainError):
            search_minimal(cfg)


# nodes_expanded is deterministic; a lost or weakened cut changes it
NODE_COUNTS = [
    (5, 2, None, 731),
    (2, 4, None, 116),
    (2, 5, None, 270),
    (3, 4, 27, 3_005),
    (4, 4, 35, 26_210),
    (3, 5, 35, 43_757),
]


@pytest.mark.parametrize("n,k,below,nodes", NODE_COUNTS)
def test_node_counts(n, k, below, nodes):
    if below is None:
        result = search_minimal(SearchConfig(n=n, k=k))
    else:
        result = verify_none_below(SearchConfig(n=n, k=k, target_mode=VerifyNoneBelow(below)))
    assert result.exhaustive
    assert result.nodes_expanded == nodes


class TestSplitDispatch:
    """A length is split into branches only for what reads them: a pool, a
    checkpoint or a budget. Any other search scans each length in one walk."""

    @staticmethod
    def spy(monkeypatch) -> tuple[list[int], list[tuple[int, tuple[int, ...]]]]:
        """The lengths split, and the (length, prefix) of every branch scan,
        the pool's included."""
        split, scans = [], []
        branches, scan = search._branches, search._scan_branch

        def spied_branches(n, k, L, node_cap=None):
            split.append(L)
            return branches(n, k, L, node_cap)

        def spied_scan(task):
            scans.append(task[2:4])
            return scan(task)

        monkeypatch.setattr(search, "_branches", spied_branches)
        monkeypatch.setattr(search, "_scan_branch", spied_scan)
        return split, scans

    @pytest.mark.parametrize(
        "cfg,lengths",
        [
            (SearchConfig(3, 3), [8, 11]),
            (SearchConfig(4, 3, target_mode=VerifyNoneBelow(14)), [11]),
            (SearchConfig(3, 3, target_mode=EnumerateAllCrucialAtLength(14)), [14]),
        ],
        ids=["min-3-3", "below14-4-3", "enum14-3-3"],
    )
    def test_a_plain_search_scans_each_length_whole(self, cfg, lengths, monkeypatch):
        split, scans = self.spy(monkeypatch)
        if isinstance(cfg.target_mode, EnumerateAllCrucialAtLength):
            list(enumerate_crucial(cfg))
        elif isinstance(cfg.target_mode, VerifyNoneBelow):
            verify_none_below(cfg)
        else:
            search_minimal(cfg)
        assert split == []
        # find and verify start at n*k - 1, the first length with a slot per letter
        assert scans == [(L, ()) for L in lengths]

    @pytest.mark.parametrize("reader", ["workers", "checkpoint", "node_budget", "time_budget"])
    def test_a_pool_checkpoint_or_budget_splits(self, reader, monkeypatch, tmp_path):
        kwargs = {
            "workers": {"workers": 2},
            "checkpoint": {"checkpoint_path": tmp_path / "scan.ckpt"},
            "node_budget": {"node_budget": 10**6},
            "time_budget": {"time_budget": 60.0},
        }[reader]
        whole = search_minimal(SearchConfig(3, 3))
        split, scans = self.spy(monkeypatch)
        assert search_minimal(SearchConfig(3, 3, **kwargs)) == whole
        assert split == [8, 11]
        assert scans and all(len(prefix) == 4 for _, prefix in scans)


class TestSymmetryReduction:
    def test_same_answer_without_reduction(self):
        on = search_minimal(SearchConfig(n=3, k=2))
        off = search_minimal(SearchConfig(n=3, k=2, symmetry_reduction=False))
        assert on.minimal_length == off.minimal_length == 5
        assert on.witness == off.witness
        assert off.nodes_expanded == on.nodes_expanded
        assert off.crucial_words_found == 6 * on.crucial_words_found

    def test_enumeration_counts_scale_by_relabelings(self):
        canon = SearchConfig(n=2, k=3, target_mode=EnumerateAllCrucialAtLength(5))
        full = SearchConfig(
            n=2, k=3, target_mode=EnumerateAllCrucialAtLength(5), symmetry_reduction=False
        )
        canon_words = list(enumerate_crucial(canon))
        full_words = list(enumerate_crucial(full))
        # each canonical word over exactly 2 letters has 2 relabelings
        assert len(full_words) == 2 * len(canon_words)
        assert set(canon_words) <= set(full_words)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cfg = SearchConfig(n=3, k=3)
        assert search_minimal(cfg) == search_minimal(cfg)

    def test_repeat_runs_identical_under_budget(self):
        cfg = SearchConfig(n=3, k=3, node_budget=300)
        first = search_minimal(cfg)
        assert not first.exhaustive
        assert first == search_minimal(cfg)

    def test_parallel_matches_sequential(self):
        seq = search_minimal(SearchConfig(n=3, k=3))
        par = search_minimal(SearchConfig(n=3, k=3, workers=4))
        assert par == seq

    def test_parallel_enumeration_matches_sequential(self):
        seq = list(
            enumerate_crucial(
                SearchConfig(n=3, k=3, target_mode=EnumerateAllCrucialAtLength(11))
            )
        )
        par = list(
            enumerate_crucial(
                SearchConfig(
                    n=3, k=3, target_mode=EnumerateAllCrucialAtLength(11), workers=3
                )
            )
        )
        assert par == seq

    def test_parallel_verify_matches_sequential(self):
        seq = verify_none_below(SearchConfig(n=3, k=3, target_mode=VerifyNoneBelow(11)))
        par = verify_none_below(
            SearchConfig(n=3, k=3, target_mode=VerifyNoneBelow(11), workers=4)
        )
        assert par == seq

    def test_parallel_budget_trip_stops_running_workers(self, tmp_path):
        # The workers=2 run scans (1,2,2,2) and (1,2,3,4) of _record_54 at
        # once. The (1,2,2,2) task returns an empty record once the other
        # thread is inside (1,2,3,4), so the test does not depend on which
        # walker scans. The search trips on consuming (1,2,2,3) while the
        # other thread still scans (1,2,3,4) under a cap over its size: the
        # search must stop that scan, not wait for it.
        path = tmp_path / "scan.ckpt"
        _record_54(path)
        script = (
            "import sys, threading, time\n"
            "from crucialis import search\n"
            "from crucialis.search import SearchConfig, search_minimal\n"
            "scan, inside = search._scan_branch, threading.Event()\n"
            "def quick(task):\n"
            "    if task[3] == (1, 2, 2, 2):\n"
            "        inside.wait(5.0)\n"
            "        time.sleep(0.2)\n"
            "        return 1, 0, None, None, False\n"
            "    inside.set()\n"
            "    return scan(task)\n"
            "search._scan_branch = quick\n"
            "r = search_minimal(SearchConfig(n=5, k=4, workers=2, node_budget=10**10,\n"
            "    checkpoint_path=sys.argv[1]))\n"
            "print(r.exhaustive, r.minimal_length, r.nodes_expanded, inside.is_set())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(crucialis.__file__).parents[1]))
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        # a worker left to finish (1,2,3,4) would take most of a minute more
        assert time.monotonic() - started < 5.0
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "None", str(10**10 + 1), "True"]

    def test_error_on_the_pool_stops_running_workers(self, tmp_path, monkeypatch):
        # The (1,2,2,2) task of _record_54 raises MemoryError, as
        # _native.scan_branch does when C runs out of memory, while the other
        # thread is inside (1,2,3,4). The search must raise it at once and
        # stop that scan, not wait most of a minute for it.
        path = tmp_path / "scan.ckpt"
        _record_54(path)
        scan = search._scan_branch
        inside = threading.Event()

        def failing(task):
            if task[3] == (1, 2, 2, 2):
                inside.wait(5.0)
                time.sleep(0.2)
                raise MemoryError("the compiled walker ran out of memory")
            inside.set()
            return scan(task)

        monkeypatch.setattr(search, "_scan_branch", failing)
        started = time.monotonic()
        with pytest.raises(MemoryError):
            search_minimal(SearchConfig(n=5, k=4, workers=2, checkpoint_path=path))
        assert time.monotonic() - started < 5.0
        assert inside.is_set()
        _Checkpoint(path, SearchConfig(n=5, k=4)).close()  # the search freed its file


def _record_54(path: Path) -> None:
    """A (5,4) checkpoint that leaves two branches at length 51 to scan.

    At (5,4) and length 51, the branch (1,2,2,2) takes 50.9 M nodes, 2 to 3 s
    on the compiled walker, and (1,2,3,4) 1.30 G nodes, 45 to 60 s. Every
    branch up to length 51 is recorded as scanned and empty but those two,
    and (1,2,2,3), which comes between them, with 10**10 + 1 nodes.
    """
    ckpt = _Checkpoint(path, SearchConfig(n=5, k=4))
    for L in range(3, 52, 4):
        for prefix in _branches(5, 4, L)[0]:
            if L < 51 or prefix not in ((1, 2, 2, 2), (1, 2, 3, 4)):
                over = L == 51 and prefix == (1, 2, 2, 3)
                ckpt.record(L, prefix, 10**10 + 1 if over else 1, 0, None)
    ckpt.close()  # releases the lock for the search that reads it


def test_find_mode_memory_stays_flat():
    # find keeps a count and the least hit, not the 158,356 crucial words at
    # (3,4) = 27, which take about 70 MB of peak RSS when kept. The peak is
    # the child's VmHWM: ru_maxrss would carry the forked test runner's size
    # over exec.
    if not Path("/proc/self/status").exists():
        pytest.skip("peak RSS is read from /proc/self/status")
    script = (
        "from crucialis.search import SearchConfig, search_minimal\n"
        "r = search_minimal(SearchConfig(n=3, k=4))\n"
        "hwm = [s for s in open('/proc/self/status') if s.startswith('VmHWM:')]\n"
        "print(r.minimal_length, r.exhaustive, r.crucial_words_found, hwm[0].split()[1])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(crucialis.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    length, exhaustive, found, peak_kib = proc.stdout.split()
    assert (length, exhaustive, found) == ("27", "True", "158356")
    assert int(peak_kib) < 32 * 1024


def test_search_leaves_no_cyclic_garbage():
    # reference counting frees each walk's state, so no search waits on a GC pass
    gc.collect()
    gc.disable()
    try:
        search_minimal(SearchConfig(n=3, k=3))
        list(enumerate_crucial(SearchConfig(n=3, k=3, target_mode=EnumerateAllCrucialAtLength(11))))
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


class TestEnumerate:
    def test_all_words_at_minimal_length(self):
        cfg = SearchConfig(n=3, k=3, target_mode=EnumerateAllCrucialAtLength(11))
        words = list(enumerate_crucial(cfg))
        assert len(words) == ENUM_3_3_11_COUNT
        assert words == sorted(words, key=lambda w: w.letters)
        assert len(set(words)) == len(words)
        assert str(words[0]) == ENUM_3_3_11_FIRST
        assert str(words[-1]) == ENUM_3_3_11_LAST
        assert all(is_crucial(w, 3) for w in words)

    def test_below_minimum_is_empty(self):
        cfg = SearchConfig(n=2, k=3, target_mode=EnumerateAllCrucialAtLength(4))
        assert list(enumerate_crucial(cfg)) == []

    def test_budget_trip_raises_after_partial_yield(self):
        cfg = SearchConfig(
            n=3, k=3, target_mode=EnumerateAllCrucialAtLength(11), node_budget=300
        )
        got = []
        with pytest.raises(BudgetExhaustedError):
            for w in enumerate_crucial(cfg):
                got.append(w)
        full = list(
            enumerate_crucial(
                SearchConfig(n=3, k=3, target_mode=EnumerateAllCrucialAtLength(11))
            )
        )
        assert got == full[: len(got)]

    def test_mode_mismatch(self):
        with pytest.raises(DomainError):
            list(enumerate_crucial(SearchConfig(n=2, k=3)))

    def test_checkpoint_not_supported(self):
        cfg = SearchConfig(
            n=2,
            k=3,
            target_mode=EnumerateAllCrucialAtLength(5),
            checkpoint_path="unused.ckpt",
        )
        with pytest.raises(DomainError):
            list(enumerate_crucial(cfg))


class TestVerifyNoneBelow:
    def test_certificate(self):
        cfg = SearchConfig(n=3, k=3, target_mode=VerifyNoneBelow(11))
        result = verify_none_below(cfg)
        assert result.exhaustive
        assert result.crucial_words_found == 0
        assert result.minimal_length is None

    def test_refutation(self):
        cfg = SearchConfig(n=2, k=3, target_mode=VerifyNoneBelow(7))
        result = verify_none_below(cfg)
        assert result.minimal_length == 5
        assert str(result.witness) == "12122"
        assert result.exhaustive

    def test_mode_mismatch(self):
        with pytest.raises(DomainError):
            verify_none_below(SearchConfig(n=2, k=3))


class TestBudgets:
    def test_node_budget_trips_to_unproven(self):
        result = search_minimal(SearchConfig(n=3, k=3, node_budget=100))
        assert not result.exhaustive
        assert result.minimal_length is None

    def test_node_budget_generous_enough_stays_proven(self):
        result = search_minimal(SearchConfig(n=3, k=3, node_budget=10**8))
        assert result.exhaustive
        assert result.minimal_length == 11

    def test_budget_is_the_most_nodes_a_proven_scan_may_spend(self):
        full = search_minimal(SearchConfig(n=3, k=3))
        assert full.exhaustive and full.nodes_expanded == 325
        assert search_minimal(SearchConfig(n=3, k=3, node_budget=325)) == full
        short = search_minimal(SearchConfig(n=3, k=3, node_budget=324))
        assert not short.exhaustive
        assert short.minimal_length == 11

    @pytest.mark.parametrize("n,k", [(2, 4), (2, 5), (5, 2)])
    def test_scan_completing_in_budget_is_proven(self, n, k):
        full = search_minimal(SearchConfig(n=n, k=k))
        budget = full.nodes_expanded
        assert search_minimal(SearchConfig(n=n, k=k, node_budget=budget)) == full
        short = search_minimal(SearchConfig(n=n, k=k, node_budget=budget - 1))
        assert not short.exhaustive
        assert short.nodes_expanded == budget

    def test_tripped_run_spends_at_most_budget_plus_one(self):
        # each branch is capped at the budget left, not the whole budget
        for budget in (1, 17, 100, 300, 324):
            result = search_minimal(SearchConfig(n=3, k=3, node_budget=budget))
            assert not result.exhaustive
            assert result.nodes_expanded <= budget + 1
        cfg = SearchConfig(n=4, k=3, target_mode=VerifyNoneBelow(17), node_budget=50)
        result = verify_none_below(cfg)
        assert not result.exhaustive
        assert result.nodes_expanded <= 51

    def test_parallel_matches_sequential_under_tripping_budget(self):
        for budget in (100, 300, 324):
            seq = search_minimal(SearchConfig(n=3, k=3, node_budget=budget))
            par = search_minimal(SearchConfig(n=3, k=3, node_budget=budget, workers=2))
            assert not seq.exhaustive
            assert par == seq
        mode = VerifyNoneBelow(17)
        seq = verify_none_below(SearchConfig(n=4, k=3, target_mode=mode, node_budget=50))
        par = verify_none_below(
            SearchConfig(n=4, k=3, target_mode=mode, node_budget=50, workers=2)
        )
        assert not seq.exhaustive
        assert par == seq

    def test_time_budget_trips_to_unproven(self, monkeypatch):
        def unproven():
            result = search_minimal(SearchConfig(n=4, k=3, time_budget=1e-9))
            assert not result.exhaustive
            assert result.minimal_length is None

        unproven()  # on the compiled walker where it builds
        monkeypatch.setattr(_native, "scan_branch", lambda task: None)
        unproven()  # on _walk

    def test_verify_under_budget_is_not_certified(self):
        cfg = SearchConfig(n=3, k=3, target_mode=VerifyNoneBelow(11), node_budget=4)
        result = verify_none_below(cfg)
        assert not result.exhaustive
        assert result.crucial_words_found == 0


class TestCheckpoints:
    def test_resume_matches_fresh(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        tripped = search_minimal(
            SearchConfig(n=3, k=3, node_budget=300, checkpoint_path=path)
        )
        assert not tripped.exhaustive
        lines_after_trip = path.read_text().splitlines()
        assert len(lines_after_trip) > 1
        resumed = search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path))
        fresh = search_minimal(SearchConfig(n=3, k=3))
        assert resumed == fresh
        assert len(path.read_text().splitlines()) > len(lines_after_trip)

    def test_completed_file_reused_without_rescanning(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        first = search_minimal(SearchConfig(n=2, k=3, checkpoint_path=path))
        size = path.stat().st_size
        again = search_minimal(SearchConfig(n=2, k=3, checkpoint_path=path))
        assert again == first
        assert path.stat().st_size == size

    @pytest.mark.parametrize("where", ["under_a_file", "a_directory"])
    def test_unopenable_file_rejected(self, tmp_path, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        path = blocker / "sub" / "scan.ckpt" if where == "under_a_file" else tmp_path
        with pytest.raises(DomainError, match="cannot be opened"):
            search_minimal(SearchConfig(n=2, k=3, checkpoint_path=path))
        assert blocker.read_text() == ""

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        search_minimal(SearchConfig(n=2, k=3, checkpoint_path=path))
        with pytest.raises(DomainError):
            search_minimal(SearchConfig(n=2, k=2, checkpoint_path=path))

    def test_earlier_format_rejected_and_not_merged(self, tmp_path):
        # v2 files hold per-branch counts of the scan without the determined-slot
        # prune, v3 files those of the scan without the slot matching
        fresh = tmp_path / "fresh.ckpt"
        search_minimal(SearchConfig(n=3, k=3, checkpoint_path=fresh))
        header = fresh.read_text().splitlines()[0]
        assert header.startswith("# crucialis checkpoint v4 ")
        for old in ("v2", "v3"):
            path = tmp_path / f"{old}.ckpt"
            text = header.replace(" v4 ", f" {old} ") + "\n11 1,1,2,3 7 1 1,1,2,3,1,2,1,3,3,1,1\n"
            path.write_text(text)
            with pytest.raises(DomainError, match="different search"):
                search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path))
            assert path.read_text() == text

    def test_unreduced_format_rejected_and_not_merged(self, tmp_path):
        # a reduction=0 file holds the records of an unreduced scan
        fresh = tmp_path / "fresh.ckpt"
        search_minimal(SearchConfig(n=3, k=3, checkpoint_path=fresh))
        header = fresh.read_text().splitlines()[0]
        assert header == "# crucialis checkpoint v4 n=3 k=3 reduction=1 depth=4"
        path = tmp_path / "unreduced.ckpt"
        text = header.replace("reduction=1", "reduction=0") + "\n11 1,1,1,2 7 0 -\n"
        path.write_text(text)
        for reduction in (True, False):
            cfg = SearchConfig(n=3, k=3, symmetry_reduction=reduction, checkpoint_path=path)
            with pytest.raises(DomainError, match="different search"):
                search_minimal(cfg)
        assert path.read_text() == text

    def test_unreduced_search_resumes_a_default_file(self, tmp_path):
        # every search scans the canonical words, so both read the same records
        path = tmp_path / "scan.ckpt"
        assert not search_minimal(
            SearchConfig(n=3, k=3, node_budget=300, checkpoint_path=path)
        ).exhaustive
        recorded = path.read_text()
        resumed = search_minimal(
            SearchConfig(n=3, k=3, symmetry_reduction=False, checkpoint_path=path)
        )
        canonical = search_minimal(SearchConfig(n=3, k=3))
        assert resumed == replace(canonical, crucial_words_found=6 * canonical.crucial_words_found)
        assert resumed == search_minimal(SearchConfig(n=3, k=3, symmetry_reduction=False))
        assert path.read_text().startswith(recorded) and path.read_text() != recorded

    def test_torn_tail_line_tolerated(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        tripped = search_minimal(
            SearchConfig(n=3, k=3, node_budget=300, checkpoint_path=path)
        )
        assert not tripped.exhaustive
        with path.open("a") as fh:
            fh.write("11 1,2,3\n")
        resumed = search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path))
        assert resumed == search_minimal(SearchConfig(n=3, k=3))

    def test_torn_tail_without_newline_is_cut(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        tripped = search_minimal(
            SearchConfig(n=3, k=3, node_budget=300, checkpoint_path=path)
        )
        assert not tripped.exhaustive
        intact = path.read_text()
        with path.open("a") as fh:
            fh.write("11 1,2,1,1 5")
        fresh = search_minimal(SearchConfig(n=3, k=3))
        assert search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path)) == fresh
        assert path.read_text().startswith(intact)
        # the records appended after the cut tail load cleanly
        assert search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path)) == fresh

    def test_header_without_newline_is_completed(self, tmp_path):
        # records appended to a header torn before its newline would join
        # its line, and every later run would reject the file
        path = tmp_path / "scan.ckpt"
        path.write_text("# crucialis checkpoint v4 n=3 k=3 reduction=1 depth=4")
        fresh = search_minimal(SearchConfig(n=3, k=3))
        assert search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path)) == fresh
        assert search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path)) == fresh
        assert path.read_text().startswith("# crucialis checkpoint v4 n=3 k=3 reduction=1 depth=4\n")

    @pytest.mark.parametrize(
        "after_records,text", [(False, b"\xff\xfe\x00garbage\n"), (True, b"\xff\n")],
        ids=["whole-file", "last-line"],
    )
    def test_non_ascii_file_rejected_and_untouched(self, tmp_path, after_records, text):
        # the format is ASCII: other bytes are no record, not even a torn one
        path = tmp_path / "scan.ckpt"
        if after_records:
            search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path))
        with open(path, "ab") as fh:
            fh.write(text)
        before = path.read_bytes()
        with pytest.raises(DomainError, match="not ASCII"):
            search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path))
        assert path.read_bytes() == before
        with open(path, "a") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)  # the search released its lock

    def test_malformed_inner_line_rejected(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path))
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) > 3
        lines.insert(2, "11 1,2,3\n")
        path.write_text("".join(lines))
        with pytest.raises(DomainError):
            search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path))

    # records no scan writes: a witness off the alphabet or of another length,
    # negative counts, a witness without a count or a count without a witness
    LYING_RECORDS = {
        "out-of-range": "11 9,9,9,9 7 1 1,1,2,3,1,2,1,3,3,1,4",
        "short-witness": "11 9,9,9,9 7 1 1,2",
        "negative-nodes": "11 9,9,9,9 -7 0 -",
        "negative-count": "11 9,9,9,9 7 -1 -",
        "witness-no-count": "8 9,9,9,9 7 0 1,1,2,1,2,2,1,2",
        "count-no-witness": "11 9,9,9,9 7 1 -",
    }

    @pytest.mark.parametrize("record", LYING_RECORDS.values(), ids=LYING_RECORDS)
    def test_out_of_range_witness_rejected(self, tmp_path, record):
        # a recorded least word becomes the witness and its counts are summed,
        # so both are checked on load
        path = tmp_path / "scan.ckpt"
        search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path))
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(2, record + "\n")
        path.write_text("".join(lines))
        with pytest.raises(DomainError, match="line 3 is malformed"):
            search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path))

    @pytest.mark.parametrize("record", LYING_RECORDS.values(), ids=LYING_RECORDS)
    def test_lying_last_record_cut(self, tmp_path, record):
        path = tmp_path / "scan.ckpt"
        search_minimal(SearchConfig(n=3, k=3, node_budget=300, checkpoint_path=path))
        intact = path.read_text()
        with path.open("a") as fh:
            fh.write(record + "\n")
        resumed = search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path))
        assert resumed == search_minimal(SearchConfig(n=3, k=3))
        assert path.read_text().startswith(intact)
        assert record not in path.read_text()

    def test_verify_shares_find_checkpoint(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path))
        result = verify_none_below(
            SearchConfig(n=3, k=3, target_mode=VerifyNoneBelow(11), checkpoint_path=path)
        )
        assert result.exhaustive
        assert result.crucial_words_found == 0

    def test_second_writer_rejected_and_file_untouched(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        search_minimal(SearchConfig(n=3, k=3, node_budget=300, checkpoint_path=path))
        before = path.read_bytes()
        script = (
            "import fcntl, sys\n"
            "fh = open(sys.argv[1], 'a')\n"
            "fcntl.flock(fh, fcntl.LOCK_EX)\n"
            "print('locked', flush=True)\n"
            "sys.stdin.read()\n"
        )
        holder = subprocess.Popen(
            [sys.executable, "-c", script, str(path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            assert holder.stdout.readline().split() == ["locked"]
            with pytest.raises(DomainError, match="in use"):
                search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path))
            assert path.read_bytes() == before
        finally:
            holder.stdin.close()
            holder.wait(timeout=30)
            holder.stdout.close()
        assert holder.returncode == 0
        # with the lock released, the search resumes from the same file
        resumed = search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path))
        assert resumed == search_minimal(SearchConfig(n=3, k=3))
        assert path.read_bytes().startswith(before) and path.read_bytes() != before

    def test_parallel_with_checkpoint_matches(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        par = search_minimal(SearchConfig(n=3, k=3, workers=3, checkpoint_path=path))
        assert par == search_minimal(SearchConfig(n=3, k=3))

    @pytest.mark.parametrize("budget", [200, 250, 300])
    def test_parallel_writes_the_sequential_checkpoint(self, tmp_path, budget):
        # a pool branch that completes past the budget left is one a
        # sequential run never finishes, so neither run records it
        files = []
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.ckpt"
            cfg = SearchConfig(n=3, k=3, node_budget=budget, workers=workers, checkpoint_path=path)
            assert not search_minimal(cfg).exhaustive
            files.append(path.read_text())
        assert files[0] == files[1]

    def test_time_budget_trips_between_branches(self, tmp_path):
        # every branch is in the file, so none is walked: only the check made
        # after each recorded branch can trip
        path = tmp_path / "scan.ckpt"
        full = search_minimal(SearchConfig(n=3, k=3, checkpoint_path=path))
        size = path.stat().st_size
        result = search_minimal(SearchConfig(n=3, k=3, time_budget=1e-9, checkpoint_path=path))
        assert full.exhaustive and not result.exhaustive
        assert result.nodes_expanded < full.nodes_expanded
        assert path.stat().st_size == size


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, k=3),
            dict(n=2, k=1),
            dict(n=True, k=3),
            dict(n=2, k=3, node_budget=0),
            dict(n=2, k=3, time_budget=0.0),
            dict(n=2, k=3, time_budget=float("nan")),
            dict(n=2, k=3, time_budget="1"),
            dict(n=2, k=3, time_budget=True),
            dict(n=2, k=3, workers=0),
            dict(n=2, k=3, target_mode=EnumerateAllCrucialAtLength(0)),
            dict(n=2, k=3, target_mode=VerifyNoneBelow(-1)),
            dict(n=2, k=3, target_mode=EnumerateAllCrucialAtLength(1 << 16)),
            dict(n=2, k=3, target_mode=VerifyNoneBelow(1 << 16)),
            dict(n=3, k=3.0),
            dict(n=2.0, k=3),
            dict(n=2, k=3, workers=2.0),
            dict(n=2, k=3, node_budget=2.5),
            dict(n=2, k=3, node_budget=True),
            dict(n=2, k=3, target_mode=VerifyNoneBelow(11.5)),
            dict(n=3, k=3, symmetry_reduction="no"),
            dict(n=3, k=3, symmetry_reduction=1),
            dict(n=3, k=3, symmetry_reduction=None),
            dict(n=3, k=3, checkpoint_path=5),
            dict(n=3, k=3, checkpoint_path=b"scan.ckpt"),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(DomainError):
            SearchConfig(**kwargs)

    def test_defaults(self):
        cfg = SearchConfig(n=2, k=3)
        assert isinstance(cfg.target_mode, FindMinimalCrucial)
        assert cfg.symmetry_reduction
        assert cfg.workers == 1


class TestDoubleCheckWitness:
    # a search witness is double-checked by the independent predicate is_crucial
    def test_accepts_crucial(self):
        assert is_crucial(parse_word("21211"), 3)

    def test_rejects_non_crucial(self):
        assert not is_crucial(parse_word("2121"), 3)
