"""The compiled walker (_walk.c) against search._walk, node for node.

_walk.c is a second copy of the walk that runs the branch scan. search._walk
is its definition, and these tests hold the copy to it on every cell of
test_search_differential: equal branch records, kept words and node counts,
equal trip nodes under node caps, byte-identical checkpoints and the same
SearchResult from the Python path when the build fails.
"""

import os
import shutil
import struct
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from crucialis import _native
from crucialis.search import (
    EnumerateAllCrucialAtLength,
    SearchConfig,
    VerifyNoneBelow,
    _branches,
    _scan_branch,
    _walk,
    enumerate_crucial,
    search_minimal,
    verify_none_below,
)

from test_search_differential import ENUM_CELLS, ENUM_LENGTHS, FAR_CELLS, MINIMA_CELLS, oracle_minimal

pytestmark = pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc is not on PATH")


def cell_lengths() -> list[tuple[int, int, list[int]]]:
    """(n, k, lengths): every length the differential tests scan at each cell."""
    lengths: dict[tuple[int, int], set[int]] = {}
    for n, k in MINIMA_CELLS:
        lengths.setdefault((n, k), set()).update(range(k - 1, oracle_minimal(n, k)[0] + 1, k))
    for n, k in ENUM_CELLS:
        lengths.setdefault((n, k), set()).update(ENUM_LENGTHS)
    for n, k, top in FAR_CELLS:
        lengths.setdefault((n, k), set()).update(range(1, top + 1))
    return [(n, k, sorted(ls)) for (n, k), ls in lengths.items()]


CELL_LENGTHS = cell_lengths()
CAPS_PER_WALK = 8  # a walk of more nodes is capped at this many spread caps


def both(call):
    """call() on the compiled walker, then on search._walk."""
    native = call()
    real = _native.scan_branch
    _native.scan_branch = lambda task: None
    try:
        return native, call()
    finally:
        _native.scan_branch = real


def test_the_walker_builds():
    assert _native._library() is not None


def test_source_compiles_without_warnings(tmp_path):
    # the flags of the cached build: some warnings depend on the optimisation level
    subprocess.run(
        ["gcc", *_native._FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "walk.so"), str(_native._SOURCE)],
        check=True, capture_output=True, timeout=120,
    )


@pytest.mark.parametrize("n,k,lengths", CELL_LENGTHS)
def test_walkers_agree(n, k, lengths):
    """Equal branch records, kept words and nodes, with and without keeping
    the words."""
    for L in lengths:
        for prefix in _branches(n, k, L)[0]:
            for keep in (False, True):
                task = (n, k, L, prefix, keep, None, None)
                native_rec, python_rec = both(lambda: _scan_branch(task))
                assert native_rec == python_rec, (L, prefix, keep)


def caps(nodes: int) -> list[int]:
    """Every cap of a small walk; spread caps and the edges of a large one."""
    if nodes <= CAPS_PER_WALK:
        return list(range(nodes + 2))
    step = nodes // CAPS_PER_WALK
    return sorted({0, 1, *range(step, nodes, step), nodes - 1, nodes, nodes + 1})


@pytest.mark.parametrize("n,k,lengths", CELL_LENGTHS)
def test_walkers_trip_at_the_same_node(n, k, lengths):
    """A capped scan trips at cap + 1 exactly when the scan has more nodes,
    with the words _walk finds before that node. The search below runs every
    node budget on the cells whose minimum it finds."""
    for L in lengths:
        for prefix in _branches(n, k, L)[0]:
            nodes = _scan_branch((n, k, L, prefix, False, None, None))[0]
            for cap in caps(nodes):
                task = (n, k, L, prefix, True, cap, None)
                native, python = both(lambda: _scan_branch(task))
                assert native == python, (L, prefix, cap)
                assert native[0] == min(cap + 1, nodes) and native[4] == (cap < nodes)


@pytest.mark.parametrize("n,k", MINIMA_CELLS)
def test_search_under_every_node_budget(n, k):
    total = search_minimal(SearchConfig(n, k)).nodes_expanded
    for budget in range(1, total + 2):
        native, python = both(lambda: search_minimal(SearchConfig(n, k, node_budget=budget)))
        assert native == python, budget


def test_a_node_budget_past_64_bits_never_trips():
    assert search_minimal(SearchConfig(3, 3, node_budget=2**64 + 5)) == search_minimal(SearchConfig(3, 3))


def test_a_time_budget_trips_inside_a_branch():
    # the length-39 branch (1,1,1,1) of (3,5) alone takes 420.8 M nodes
    started = time.monotonic()
    result = search_minimal(SearchConfig(3, 5, time_budget=0.3))
    assert time.monotonic() - started < 2.0
    assert not result.exhaustive and result.minimal_length is None


ROOT_SCAN = (3, 3, 14, (), True, None, None)  # the whole length, every word kept


def test_a_root_walk_keeps_every_word():
    # the kept words outgrow the walker's first buffer of 64 words five times
    native = _native.scan_branch(ROOT_SCAN)
    assert native == both(lambda: _scan_branch(ROOT_SCAN))[1]
    assert len(native[3]) == native[1] == 1047


def test_words_that_cannot_be_kept_raise(monkeypatch):
    lib = _native._library()
    free, freed = lib.crucialis_free, []

    def recording_free(kept):
        freed.append(kept)
        free(kept)

    def full(*args):
        raise MemoryError

    monkeypatch.setattr(lib, "crucialis_free", recording_free)
    monkeypatch.setattr(struct, "iter_unpack", full)
    with pytest.raises(MemoryError):
        _native.scan_branch(ROOT_SCAN)
    assert len(freed) == 1 and freed[0]  # the C buffer is freed all the same


def test_walkers_agree_thousands_of_letters_deep():
    # a scan that deep once overran the Python walk's recursion limit. At
    # k >= 3 the cut reads blocks in progress too, which k = 2 has none of.
    # The split to depth 1000 walks the scan's first nodes and reaches its
    # first prefix at node `deep`, so each capped scan runs below depth 1000.
    for n, k, L, deep in ((4, 2, 2001, 14_558), (3, 3, 3002, 1938), (3, 5, 3004, 1296)):
        task = (n, k, L, (), True, 20_000, None)
        native, python = both(lambda: _scan_branch(task))
        assert native == python and native[0] == 20_001 and native[4], (n, k, L)
        assert _walk(n, k, L, (), False, deep, None, stop=1000)[1] == 1, (n, k, L)


def run(cfg: SearchConfig):
    """The search cfg's target mode asks for, its words listed if it enumerates."""
    if isinstance(cfg.target_mode, EnumerateAllCrucialAtLength):
        return list(enumerate_crucial(cfg))
    if isinstance(cfg.target_mode, VerifyNoneBelow):
        return verify_none_below(cfg)
    return search_minimal(cfg)


@pytest.mark.parametrize(
    "cfg",
    [
        SearchConfig(3, 3),
        SearchConfig(5, 2, symmetry_reduction=False),
        SearchConfig(2, 5, node_budget=400),
        SearchConfig(4, 3, target_mode=VerifyNoneBelow(20)),
        SearchConfig(4, 3, target_mode=VerifyNoneBelow(20), node_budget=50_000),
    ],
)
def test_checkpoints_are_byte_identical(cfg, tmp_path):
    paths = iter([tmp_path / "native.ckpt", tmp_path / "python.ckpt"])
    native, python = both(lambda: run(replace(cfg, checkpoint_path=next(paths))))
    assert native == python
    assert (tmp_path / "native.ckpt").read_bytes() == (tmp_path / "python.ckpt").read_bytes()


@pytest.mark.parametrize(
    "cfg",
    [
        SearchConfig(3, 3),
        SearchConfig(4, 3, target_mode=VerifyNoneBelow(20)),
        SearchConfig(4, 3, target_mode=VerifyNoneBelow(20), node_budget=50_000),
        SearchConfig(3, 3, target_mode=EnumerateAllCrucialAtLength(14)),
    ],
)
def test_pool_equals_sequential(cfg):
    # more threads than cores, switching threads as often as the interpreter allows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = both(lambda: run(replace(cfg, workers=8)))
    finally:
        sys.setswitchinterval(interval)
    assert pooled == both(lambda: run(cfg))


def test_failed_build_falls_back_to_python(monkeypatch, tmp_path):
    expected = search_minimal(SearchConfig(3, 3))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "_FLAGS", _native._FLAGS + ("-fno-such-option",))
    _native._library.cache_clear()
    try:
        assert _native._library() is None
        assert search_minimal(SearchConfig(3, 3)) == expected
        assert list((tmp_path / "crucialis").iterdir()) == []  # no partial build is left
    finally:
        _native._library.cache_clear()


def test_the_build_compiles_the_source_read_at_import(monkeypatch, tmp_path):
    # an edit of _walk.c on disk after import must not reach this process's
    # build, whose argument layout is the imported glue's
    broken = tmp_path / "_walk.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(_native, "_SOURCE", broken)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _native._library.cache_clear()
    try:
        assert _native._library() is not None
        assert len(list((tmp_path / "cache" / "crucialis").iterdir())) == 1
    finally:
        _native._library.cache_clear()


def test_two_threads_build_once(monkeypatch, tmp_path):
    # two pool threads can make their first scan at once, on a cold cache
    build, builds = _native._build, []

    def counted_build(out):
        builds.append(out)
        return build(out)

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "_build", counted_build)
    _native._library.cache_clear()
    start = threading.Barrier(2)
    libs = []

    def first_scan():
        start.wait()
        libs.append(_native._library())

    threads = [threading.Thread(target=first_scan) for _ in range(2)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        _native._library.cache_clear()
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1
    assert len(libs) == 2 and None not in libs


def test_a_missing_source_falls_back_to_python(tmp_path):
    package = tmp_path / "crucialis"
    shutil.copytree(os.path.dirname(_native.__file__), package,
                    ignore=shutil.ignore_patterns("_walk.c", "__pycache__"))
    script = (
        "from crucialis import _native\n"
        "from crucialis.search import SearchConfig, search_minimal\n"
        "assert _native._CODE is None and _native._library() is None\n"
        "print(search_minimal(SearchConfig(3, 3)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(tmp_path), XDG_CACHE_HOME=str(tmp_path / "cache"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{search_minimal(SearchConfig(3, 3))}\n"
    assert not (tmp_path / "cache").exists()


def group_running(pgid: int) -> list[int]:
    """The processes of group pgid that are not zombies."""
    running = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rpartition(")")[2].split()
            except OSError:
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                running.append(int(entry))
    return running


STALLING_COMPILER = "#!/bin/sh\nsleep 60 &\nwait\n"  # a compiler whose child outlives it


@pytest.mark.parametrize(
    "compiler,timeout",
    [("gcc", None), ("gcc", 0.05), ("stalling", 0.5)],  # gcc takes longer than 0.05 s here
)
def test_no_compiler_process_outlives_a_build(compiler, timeout, monkeypatch, tmp_path):
    started = []
    popen = subprocess.Popen

    def recording(*args, **kwargs):
        proc = popen(*args, **kwargs)
        started.append(proc.pid)
        return proc

    monkeypatch.setattr(subprocess, "Popen", recording)
    if compiler == "stalling":
        script = tmp_path / "bin" / "gcc"
        script.parent.mkdir()
        script.write_text(STALLING_COMPILER)
        script.chmod(0o755)
        monkeypatch.setattr(shutil, "which", lambda name: str(script))
    if timeout is not None:
        monkeypatch.setattr(_native, "_BUILD_TIMEOUT_S", timeout)
    out = tmp_path / "cache" / "walk.so"
    assert _native._build(out) == (timeout is None)
    assert [p.name for p in out.parent.iterdir()] == (["walk.so"] if timeout is None else [])
    (pgid,) = started
    deadline = time.monotonic() + 2
    while group_running(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)  # SIGKILL is delivered, but a process takes a moment to die
    assert group_running(pgid) == []
