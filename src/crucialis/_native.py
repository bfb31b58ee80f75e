"""The compiled walker: _walk.c, built with gcc and loaded with ctypes.

_walk.c is a second copy of search._walk for n <= 7 letters, checked against
it node for node by tests/test_native_walk.py. It runs one walk, the branch
scan, where a branch may be the whole length (the prefix ()): a search
without a pool, a checkpoint or a budget scans each length in one call.
scan_branch(task) returns the record that search._walk(*task) does.
ctypes releases the GIL for the whole call, so the search's pool threads
scan their branches in parallel, and each polls the search's deadline cell,
which another thread moves to stop it.
The source is read as this module is imported, so the code built is the
code this module's argument layout was written for, even if _walk.c changes
on disk later. It is built on the first scan that can use it, never at
import, into $XDG_CACHE_HOME/crucialis (default ~/.cache/crucialis), under a
name that is the SHA-256 of the source and the compiler flags, so a changed
source never loads a stale build. gcc writes a temporary file that is then
renamed into place, so processes that build at once never load a partial
file. Whatever stops the build or the load (a source that could not be read,
no gcc on PATH, a cache that cannot be written, a failed or timed-out build)
leaves scan_branch() returning None, and the search runs search._walk, with
equal results.
"""

from __future__ import annotations

import os
import threading
from functools import lru_cache
from pathlib import Path

_SOURCE = Path(__file__).with_name("_walk.c")
try:
    _CODE: bytes | None = _SOURCE.read_bytes()  # read now, so the build matches this glue
except OSError:
    _CODE = None
_FLAGS = ("-std=c11", "-O3", "-fPIC", "-shared")
_BUILD_TIMEOUT_S = 120.0
_MAX_LETTERS = 7  # the lanes of 7 letters fill 119 of the 128 bits
_NODES_MAX = (1 << 63) - 1  # a node cap at least this never trips, and a larger one fits no slot
_BUILD_LOCK = threading.Lock()


def _cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "crucialis")


def _build(out: Path) -> bool:
    """Compile _CODE into `out`; False if gcc is missing, fails or times out.

    gcc reads the code on its stdin, and runs in a session of its own, so a
    build that is stopped, by the timeout or by an interrupt, kills the
    compiler processes gcc started too.
    """
    import shutil
    import signal
    import subprocess
    import tempfile

    gcc = shutil.which("gcc")
    if gcc is None:
        return False
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=out.parent)
    os.close(fd)
    try:
        proc = subprocess.Popen(
            [gcc, *_FLAGS, "-o", tmp, "-x", "c", "-"],
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            proc.communicate(_CODE, timeout=_BUILD_TIMEOUT_S)
            built = proc.returncode == 0
        except subprocess.TimeoutExpired:
            built = False
        finally:
            if proc.returncode is None:  # not reaped, so the group id is still gcc's own
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()  # reaps gcc and closes its stdin
        if built:
            os.replace(tmp, out)
        return built
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@lru_cache(maxsize=None)
def _library():
    """The built library, or None if it cannot be had.

    ctypes is imported here, on the first walk, so importing crucialis loads
    neither it nor a compiler. lru_cache lets two threads that make their
    first scan at once both call this; the lock makes the second wait for
    the first's build, then find the built file and only load it.
    """
    import ctypes

    try:
        from _sha2 import sha256  # CPython's own, which loads faster than hashlib's OpenSSL
    except ImportError:
        try:
            from _sha256 import sha256  # its name before Python 3.12
        except ImportError:
            from hashlib import sha256

    if _CODE is None:
        return None
    try:
        digest = sha256(_CODE + "\0".join(_FLAGS).encode()).hexdigest()
        path = _cache_dir() / f"walk-{digest[:32]}.so"
        with _BUILD_LOCK:
            if not path.exists() and not _build(path):
                return None
            lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    lib.crucialis_free.restype = None
    lib.crucialis_free.argtypes = [ctypes.c_void_p]
    lib.crucialis_walk.restype = ctypes.c_int
    lib.crucialis_walk.argtypes = [ctypes.c_void_p]
    return lib


@lru_cache(maxsize=64)
def _tables(n: int, k: int, L: int) -> tuple[tuple[int, ...], tuple]:
    """The slots A_N..A_NLISTS of _walk.c's argument, and the arrays they
    point at, which must outlive every call.

    search._lanes(n) goes as (low, high) 64-bit pairs: unit[0..n],
    bit[0..n], full and fill. search._slot_events(k, L) goes flattened, a row
    of 11 ints per depth (the enum in _walk.c names them), with the (start,
    stop) of its half and prog ranges, and the list of the slots b that each
    depth checks, which the rows point at."""
    from array import array

    from .search import _LANE, _lanes, _slot_events

    unit, bit, _, full, fill = _lanes(n)
    mask = (1 << 64) - 1
    lanes = array("Q", (x for v in (*unit, *bit, full, fill) for x in (v & mask, v >> 64)))
    checked: list[int] = []
    rows: list[int] = []
    for ev, cap, free, half, prog in _slot_events(k, L):
        nb, rb, checks = ev or (0, 0, ())
        rows += (ev is not None, nb, rb, cap, free, len(checked), len(checks))
        rows += (half.start, half.stop, prog.start, prog.stop)
        checked += checks
    events = array("i", rows)
    lists = array("i", checked or [0])  # never empty, so never NULL
    fixed = (n, k, L, _LANE - 1, *(t.buffer_info()[0] for t in (lanes, events, lists)), len(lists))
    return fixed, (lanes, events, lists)


def scan_branch(task: tuple) -> tuple | None:
    """search._walk(*task) on the compiled walker: the same record (nodes,
    count, least, words, tripped) for the same task (n, k, L, prefix, keep,
    node_cap, deadline), or None when the walker cannot run this scan and
    search._walk must.

    Buffers go to C as array.array addresses, alive for the call: a ctypes
    array of a new size would create a ctypes type, cyclic garbage. The
    deadline cell goes the same way, as A_DEADLINE (0 for none), so C reads
    the value the search writes into it while the scan runs."""
    n, k, L, prefix, keep, node_cap, deadline = task
    if n > _MAX_LETTERS:
        return None
    lib = _library()
    if lib is None:
        return None
    from array import array

    tables = _tables(n, k, L)  # held here, so that the arrays outlive the call
    letters = array("B", prefix)
    least = array("B", bytes(L))
    a = array("q", tables[0])
    a.extend((  # the slots A_PREFIX..A_KEPT
        letters.buffer_info()[0], len(prefix),
        -1 if node_cap is None else min(node_cap, _NODES_MAX),
        keep, least.buffer_info()[0], 0 if deadline is None else deadline.buffer_info()[0],
        0, 0, 0, 0,
    ))
    if lib.crucialis_walk(a.buffer_info()[0]):
        raise MemoryError("the compiled walker ran out of memory")
    nodes, tripped, count, kept = a[-4:]
    words = [] if keep else None
    if keep and count:
        import ctypes
        import struct

        try:
            words = list(struct.iter_unpack(f"{L}B", ctypes.string_at(kept, count * L)))
        finally:
            lib.crucialis_free(kept)
    return nodes, count, tuple(least) if count else None, words, bool(tripped)
