"""Exhaustive search for crucial words: minimal length, certificates, enumeration.

The engine scans R = reverse(W) instead of W. Reversing a factor X_1...X_k
gives rev(X_k)...rev(X_1), whose blocks are again anagrams of each other, so
W is abelian-k-power-free exactly when R is. R is grown left to right by
depth-first extension, and any prefix that ends in an abelian k-th power is
cut. Reversal turns cruciality into a property of prefixes: W.x ends in an
abelian k-th power with blocks of length b exactly when x.R[0:kb-1] is one.
Letter x is *completed* at t = kb-1 when that holds. W is crucial exactly when
it is free and every letter is completed at some t <= |W|, because in a free
word any power that W.x gains is a suffix.

Three cuts follow. All are sound: none removes a word that the mode needs.

(a) Length residue. Let W be crucial and, for each letter x, let D_x be the
shortest suffix of W with D_x.x an abelian k-th power, so k divides |D_x|+1.
Let D be the longest D_x. Every D_y is a suffix of D, so D.y ends in the
power D_y.y for every y, and D is free as a factor of W. So D is crucial,
|D| <= |W| and |D| = k-1 (mod k). Hence the minimal crucial length is k-1
(mod k), and when some crucial word is shorter than a limit, one of such a
length is. Find and verify modes scan only lengths L = k-1 (mod k).
Enumeration scans the one length it is given.

(b) Completion slots. Letter x can complete only at a slot t = k-1 (mod k),
and t fixes the block length b = (t+1)/k. At most one letter completes at
each slot, the one the letter counts name ("Completing letters" in
powers.py). Completion at t reads only R[0:t], so a completed letter stays
completed as the prefix grows. A prefix of length m whose uncompleted
letters outnumber the slots #{t in (m, L] : t = k-1 (mod k)} cannot grow
into a crucial word of length L. (c) cuts every such prefix.

(c) Slot matching. Let t be the length of a prefix, so P[0..t] are fixed,
and take a crucial word of length L that extends it. Each letter x that the
prefix leaves uncompleted is completed at a slot s = kb-1 in (t, L], a
different slot for each letter. So the uncompleted letters can be matched,
one slot each, into the slots after t that admit them. Letter x completes at
s only if block 2, P[2b-1] - P[b-1], equals block 1, P[b-1] + e_x, and every
block j, P[jb-1] - P[(j-1)b-1] for 3 <= j <= k, equals block 2. Counts only
grow, so a block that is not finished at t already holds its part so far.
Each slot after t is of one of three kinds.

(i) Free, b-1 >= t: P[b-1] is not fixed, and the slot admits every letter.

(ii) Half determined, b-1 < t < 2b-1: block 2 will hold P[t] - P[b-1], so
x can complete only if P[t] - 2*P[b-1] <= e_x in every lane. If no lane is
positive the slot admits every letter; if one lane is 1 and no other lane
is positive it admits only that letter; otherwise it admits none.

(iii) Determined, 2b-1 <= t < kb-1: only the letter named by P[2b-1] -
2*P[b-1] can complete at s, and none if that is no unit vector. The slot
is dead, and admits none, once a finished block j >= 3 differs from block
2, or once the block in progress, (j-1)b-1 < t < jb-1, exceeds block 2 in
some lane.

Every slot thus admits all letters, one letter, or none, and for such sets
the matching count is exact. Call a letter open when it is uncompleted and
no one-letter slot admits it. A matching sends the open letters to distinct
slots that admit every letter. Conversely, when the open letters are no
more than those slots, they can go there, and each other uncompleted letter
to a one-letter slot of its own, since such a slot admits one letter only.
A prefix whose open letters outnumber the slots that admit every letter
has no crucial extension of length L, and it is cut. Counting every slot as
free is the count of (b), so (c) includes it. At k = 2, 2b-1 = kb-1: no
slot is determined before it is reached, and (c) reads free and half
determined slots only. A leaf of length L has no slot after it, so every
leaf that survives has all n letters completed. Every leaf reached is
crucial, and no leaf test is run.

The scan keeps part of this state along its path. A slot is named at depth
2b-1, can die at the depths jb-1, 3 <= j < k, where a block finishes, and
leaves the future at depth kb-1, where it completes its letter if block k
matches too. Only these depths change the number of uncompleted letters
that no live named slot names, or the number of slots with 2b-1 > t, and
comparing the two is the cut with every half determined slot free and every
block in progress fitting. That cheap count runs only at the depths that
change its two terms. The matching count runs at every depth that leaves a
letter uncompleted. A slot with b-1 = t counts as free: P[t] is the count
being written at depth t.

Every search scans only canonical R, whose letters are named in order of
first occurrence in R (letter i+1 may only appear after letter i has).
Renaming preserves abelian powers, so it preserves freeness and cruciality,
and each renaming class has exactly one canonical member, so the scan meets
each class once. A hit R maps to W-canonical form: reverse it, then rename
by first occurrence in W. That form is the lex-least member of its class.
A crucial word W contains every letter: were x missing, the power that W.x
ends in would have x in its last block, so also in its first block, which
lies inside W. So each class has exactly n! members. symmetry_reduction=False
multiplies crucial_words_found by n! and enumerates every renaming of each
canonical word, sorted; its witness and nodes_expanded are the canonical
scan's, since each class's lex-least member is its W-canonical form.

One driver runs every mode. Find and verify scan the residue lengths upward,
enumeration its one length, and the first length with hits is finished whole.
Find stops by bounds(n, k).upper, the length of a crucial family word, so by
(a) it always reaches a word. Verify scans the lengths below its target.
The walk maps each hit as it reaches it. Find and verify keep only the count
and the least mapped hit, so their memory does not grow with the hits. The
least is the lex-least canonical crucial word of the minimal length, the
witness a forward scan reports. crucial_words_found counts the crucial words
at that length, the canonical ones under symmetry reduction. Enumeration
keeps every hit and sorts them.

The tree is split at a fixed shallow depth into branches, prefixes of R.
A branch walk descends through its prefix with the same DFS, one forced
letter per depth, and counts only the appends below it. Branches are
scanned in lexicographic order, sequentially or on a thread pool that is
started on first use and serves every length of one search call. Results
are consumed in branch order, so parallel runs return results equal to
sequential ones, node counts included. Every scan polls the search's one
deadline cell, the end of its time budget or +inf, every 4096 nodes. When
the search stops early, on a budget, an error or Ctrl-C, it sets the cell to
-inf, so each scan still running returns at its next poll and no pool
thread outlives the search. An error raised in a pool scan, such as the
compiled walker's MemoryError, is raised by the search as it consumes that
branch, as in a sequential scan. The compiled walker releases the GIL for a
whole branch, so its scans run in parallel. _walk holds the GIL, so with
workers > 1 its scans share one core, with the same results. Pool scans
run in the search's own process, so one that runs out of memory hits the
search itself, as a sequential scan does.

Node budgets are enforced deterministically: each branch runs under the
budget left as a hard cap, and results stop being consumed once the running
total exceeds the budget, so a scan that completes within B nodes is proven.
A trip reports B + 1 nodes, where a sequential scan stops. A pool branch is
capped at the budget left as its length starts; a branch whose result is
over the budget left when it is consumed counts as that trip, so a parallel
run reports what a sequential one does, and records in its checkpoint
only the branches a sequential run records. Time
budgets are a wall-clock safety net and are the one knob that trades
determinism for protection. A budget that trips downgrades the result to
exhaustive=False rather than raising. A trip at the length that carries hits
keeps the proven minimal length and the least hit seen so far, still with
exhaustive=False. Enumeration sorts its words only once the whole length is
scanned, so a trip there raises BudgetExhaustedError without yielding any
word.

Checkpoint files make long scans resumable. The file starts with a header
line recording the format version, n, k, reduction=1 and the branch depth,
then one line per completed branch: target length, comma-joined branch
prefix of R, nodes expanded below it, number of crucial words found, and the
least of them in W form (or -). Re-running with the same configuration reuses
recorded branches and appends new ones; find and verify runs of the same
(n, k) may share a file, one search at a time: a search holds an exclusive
lock on its file while it runs, and a second search on the same file raises
DomainError without touching it. Records hold canonical counts whatever
symmetry_reduction is, so a v4 file with reduction=0 is rejected. A torn
final line, left by an interrupted write, is cut off on load, and a header
torn before its newline gets the newline; a malformed line anywhere else
raises DomainError.

The compiled walker. For n <= 7, with gcc on PATH, _scan_branch runs on
_walk.c, a second copy of _walk in C that _native.py builds on first use
into a user cache (README, "Compiled walker"). It runs one walk, the branch
scan. _native.scan_branch and _walk both take _scan_branch's task and
return its record; the compiled walker returns None where it cannot run,
and then _walk scans the branch. _walk stays the definition of the walk,
the fallback wherever the copy cannot run, and the oracle that
tests/test_native_walk.py holds the copy to, record for record and node for
node. _branches holds the split rule, and runs the split on _walk, stopped
early: a walk at most _BRANCH_DEPTH letters deep costs less in Python than
the call into C, which takes about 10 us and several times that when its
code has left the CPU's caches.
Results, node counts, enumerated words and checkpoint files are the same on
either walker. The header of _walk.c shows why its 128-bit arithmetic,
which wraps around, gives the values of Python's unbounded ints for n <= 7
and L <= 65,535. A compiled branch scan cannot see Ctrl-C. A sequential
search raises the interrupt when the scan returns. A parallel one waits on
its pool in the main thread, raises it there at once, and stops the pool's
scans by moving the deadline.
"""

from __future__ import annotations

import fcntl
import math
import os
import time
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from pathlib import Path
from typing import Iterator, Union

from . import _native
from .constructions import bounds
from .errors import BudgetExhaustedError, DomainError
from .powers import _require_exponent, _suffix_power_from_prefixes
from .words import _SHIFT, Word, _check, _word_of

_BRANCH_DEPTH = 4
_TIME_CHECK_MASK = 0xFFF  # poll the deadline every 4096 node expansions


@dataclass(frozen=True)
class FindMinimalCrucial:
    """Locate the minimal crucial length and a witness."""


@dataclass(frozen=True)
class EnumerateAllCrucialAtLength:
    """Stream every crucial word of exactly this length."""

    length: int


@dataclass(frozen=True)
class VerifyNoneBelow:
    """Certify that no crucial word shorter than this length exists."""

    length: int


TargetMode = Union[FindMinimalCrucial, EnumerateAllCrucialAtLength, VerifyNoneBelow]


def _require_length(length: int) -> None:
    """DomainError unless length is an int whose scan keeps counts in _SHIFT-bit lanes."""
    if type(length) is not int or not 1 <= length < (1 << _SHIFT):
        raise DomainError(f"target length must be in 1..{(1 << _SHIFT) - 1}, got {length}")


@dataclass(frozen=True)
class SearchConfig:
    """What a search scans and what it may spend.

    n is the alphabet size and k the exponent of the abelian powers avoided.
    target_mode picks the search: the minimal crucial length, every crucial
    word of one length, or a certificate that none is shorter than a length.
    symmetry_reduction=False reports every renaming of the canonical words
    the scan finds (counts times n!), not only the canonical ones.
    node_budget caps the node appends of the whole search, deterministically.
    time_budget caps its wall-clock seconds. workers > 1 scans the branches
    of a length on that many threads, with results equal to a sequential
    scan's. Only the compiled walker runs them in parallel: _walk holds the
    GIL, so on it more workers gain nothing. checkpoint_path names a file
    that records each scanned branch, so an interrupted find or verify run
    resumes where it stopped.
    """

    n: int
    k: int
    target_mode: TargetMode = field(default_factory=FindMinimalCrucial)
    symmetry_reduction: bool = True
    node_budget: int | None = None
    time_budget: float | None = None
    workers: int = 1
    checkpoint_path: str | Path | None = None

    def __post_init__(self) -> None:
        _check((), self.n)
        _require_exponent(self.k)
        if isinstance(self.target_mode, (EnumerateAllCrucialAtLength, VerifyNoneBelow)):
            _require_length(self.target_mode.length)
        if self.node_budget is not None and (type(self.node_budget) is not int or self.node_budget < 1):
            raise DomainError("node_budget must be positive")
        if self.time_budget is not None and (
            type(self.time_budget) not in (int, float) or not self.time_budget > 0  # NaN too
        ):
            raise DomainError("time_budget must be positive")
        if type(self.workers) is not int or self.workers < 1:
            raise DomainError("workers must be at least 1")
        if type(self.symmetry_reduction) is not bool:
            raise DomainError("symmetry_reduction must be a bool")
        if self.checkpoint_path is not None and not isinstance(self.checkpoint_path, (str, os.PathLike)):
            raise DomainError("checkpoint_path must be a str or os.PathLike")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search run.

    exhaustive means the reported verdict is proven: no budget interfered
    with the scans the verdict depends on. exhaustive=True with
    crucial_words_found=0 in verify mode certifies the absence claim;
    exhaustive=False means budgets cut the run short and the fields report
    whatever was established before the cut. crucial_words_found counts the
    crucial words at the minimal length: one per renaming class under
    symmetry reduction, n! per class without it. nodes_expanded is the same
    either way, the nodes of the one canonical scan.
    """

    minimal_length: int | None
    witness: Word | None
    exhaustive: bool
    nodes_expanded: int
    crucial_words_found: int


_LANE = _SHIFT + 1  # the walk's lane width: one bit over a count, for signed differences


@lru_cache(maxsize=None)
def _lanes(n: int) -> tuple[tuple[int, ...], tuple[int, ...], dict[int, int], int, int]:
    """Packed-count constants for n letters: the unit vector and the top lane
    bit of each letter (index 0 stands for no letter and holds 0), the letter
    of each unit vector, all top bits, and 2^(_LANE-1) - 1 in every lane.

    Counts stay below 2^_SHIFT, so full + u - v keeps every lane of u - v
    apart, with the lane's top bit set exactly where u >= v."""
    unit = (0,) + tuple(1 << ((c - 1) * _LANE) for c in range(1, n + 1))
    bit = tuple(u << (_LANE - 1) for u in unit)
    letter_of = {unit[c]: c for c in range(1, n + 1)}
    return unit, bit, letter_of, sum(bit), sum(bit) - sum(unit)


@lru_cache(maxsize=64)
def _slot_events(k: int, L: int) -> tuple:
    """The completion slots of each depth t = 1..L of a scan to length L.

    Entry t is (events, cap, free, half, prog). Slots are named by their
    block length b, and 0 stands for none. events is None when the named
    counts stay as they are at t, else (named, reached, checks): named is
    the slot determined at t = 2b-1, reached the slot with t = kb-1 (k >= 3;
    at k = 2 a slot is reached as it is determined), and checks lists the b
    whose block j ends at t = jb-1, 3 <= j < k. free counts the slots with
    b-1 >= t. half is the range of b-1 over the half determined slots,
    b-1 < t < 2b-1, and prog the range of b over 2b-1 < t < kb-1, so the
    table grows as L. cap = free + len(half) counts the slots with
    2b-1 > t.

    A b of prog that does not divide t+1 has a block in progress. The others
    are the checks of depth t. The walkers read every b of prog: a slot
    checked at t either died there or has a block j equal to block 2 and no
    block j+1 yet, so reading it kills nothing.
    """
    B = (L + 1) // k
    named = {2 * b - 1: b for b in range(1, B + 1)}
    reached = {k * b - 1: b for b in range(1, B + 1)} if k > 2 else {}
    checks: dict[int, list[int]] = {}
    for b in range(1, B + 1):
        for j in range(3, k):
            checks.setdefault(j * b - 1, []).append(b)
    entries = []
    for t in range(L + 1):
        ev = (named.get(t, 0), reached.get(t, 0), tuple(checks.get(t, ())))
        half = range((t + 1) // 2, min(t, B))
        prog = range((t + 1) // k + 1, min(t // 2, B) + 1)
        free = max(0, B - t)
        entries.append((ev if any(ev) else None, free + len(half), free, half, prog))
    return tuple(entries)


@lru_cache(maxsize=None)
def _choices(n: int) -> tuple[range, ...]:
    """The letters a canonical scan may append, indexed by the largest letter seen."""
    return tuple(range(1, min(seen + 1, n) + 1) for seen in range(n + 1))


def _walk(
    n: int,
    k: int,
    L: int,
    prefix: tuple[int, ...],
    keep: bool,
    node_cap: int | None,
    deadline: array | None,
    stop: int | None = None,
) -> tuple[int, int, tuple[int, ...] | None, list | None, bool]:
    """Depth-first scan of free canonical R-words of length L that extend `prefix`.

    Takes _scan_branch's task and returns its record, as _native.scan_branch
    does: the nodes expanded (one per attempted letter append below the
    prefix), the words found, the least of them, every one in the walk's
    order if keep else None (enumerate_crucial sorts them), and whether a
    budget tripped, the words so far counted. deadline is None or the
    search's one-slot array("d"), polled every 4096 nodes: the walk trips
    once time.monotonic() passes deadline[0], and the search sets it to
    -inf to stop the scans on its pool. Every word of L letters
    reached is crucial, and is counted in W-canonical form. With stop,
    1 <= stop <= L, the walk is the split instead: it stops `stop` letters
    deep and its words are the R-prefixes that survive there, as they are.
    The prefix must be one the same scan reaches, as _branches returns them:
    the walk descends through it one forced letter per depth, and nodes
    starts at -len(prefix), so only the appends below the prefix count.

    The walk is one loop that keeps one frame per depth of its path, as
    _walk.c does, and no Python call per depth, so a scan thousands of
    letters deep stays within the interpreter's recursion limit. Entering
    depth m sets up the state its letters share; descending saves that state
    with the letters left to try in frames[m], and returning restores it.

    Along the path, done marks the completed letters and named counts, lane
    by lane, the determined future slots that name each letter and whose
    finished blocks match. Once slot b has passed block j >= 2, S[b] keeps
    its letter, or 0 if it names none or a block differs from block 2, and
    G[b] holds block 2 plus P[jb-1] plus full, the most block j+1 may
    reach. The depth jb-1 that checks block j, j >= 3, saves both as it
    enters and puts them back as the walk leaves it, so they hold the path's
    values at every depth. The bit of letter x sits at the top of its lane,
    so (named + fill) & full marks the letters named at least once.
    """
    words: list[tuple[int, ...]] | None = [] if keep else None
    if n > (L + 1) // k:
        return 0, 0, None, words, False  # fewer slots than letters: no word completes them all
    unit, bit, letter_of, full, fill = _lanes(n)
    top = _LANE - 1
    events = _slot_events(k, L)
    choices = _choices(n)
    form = tuple if stop else _w_canonical
    stop = stop or L
    forced = [(a,) for a in prefix] + [()] * (stop - len(prefix))
    P = [0] * (L + 1)
    S = [0] * ((L + 1) // k + 1)
    G = [0] * len(S)
    word = [0] * stop
    frames: list[tuple] = [()] * stop
    count = 0
    least = None
    nodes = -len(prefix)
    m = seen = done = named = 0
    # every frame saves these; only the depths that set them read them
    nbase = nceil = rbit = rtarget = 0
    live: list[tuple[int, int, int, int]] = []
    letters = None  # the letters depth m has left to try; None as the walk enters it

    while True:
        t = m + 1
        ev, cap, free, half, prog = events[t]
        if ev is not None:
            nb, rb, checks = ev
        if letters is None:
            if ev is not None:
                if nb:
                    nbase = 2 * P[nb - 1]
                    nceil = full - P[nb - 1]
                if rb:  # the slot leaves the future; it completes its letter if block k matches
                    rx = S[rb]
                    named -= unit[rx]
                    rbit = bit[rx]
                    rtarget = P[t - rb] + P[2 * rb - 1] - P[rb - 1]
                live = []
                for b in checks:  # assume the slot dies; a match revives it
                    x = S[b]
                    named -= unit[x]
                    block = P[2 * b - 1] - P[b - 1]
                    live.append((P[t - b] + block, x, b, G[b]))
                    G[b] = P[t - b] + 2 * block + full
            letters = iter(forced[m] or choices[seen])
        pm = P[m]
        blocks = range(1, t // k + 1)
        for a in letters:
            nodes += 1
            if node_cap is not None and nodes > node_cap:
                return nodes, count, least, words, True
            if not nodes & _TIME_CHECK_MASK and deadline is not None:
                if time.monotonic() > deadline[0]:
                    return nodes, count, least, words, True
            P[t] = pa = pm + unit[a]
            d, c = done, named
            if ev is not None:
                if k == 2:  # the slot is reached as it is determined; none is named
                    d |= bit[letter_of.get(pa - nbase, 0)]
                else:
                    if rb and pa == rtarget:
                        d |= rbit
                    if nb:
                        x = letter_of.get(pa - nbase, 0)
                        S[nb] = x
                        G[nb] = 2 * pa + nceil
                        c += unit[x]
                    for target, x, b, _ in live:
                        if pa == target:
                            S[b] = x
                            c += unit[x]
                        else:
                            S[b] = 0
                if (full ^ (d | (c + fill) & full)).bit_count() > cap:
                    continue  # too few slots left, even if each undetermined one is free
            if d != full:
                # the matching count of (c): each letter still open needs a
                # slot of its own that admits it
                alls, live_c = free, c
                for b in prog:
                    x = S[b]
                    if x and (G[b] - pa) & full != full:
                        live_c -= unit[x]  # its block in progress outgrew block 2: dead
                covered = d | (live_c + fill) & full
                for h in half:
                    q = 2 * P[h] + full - pa
                    miss = full ^ q & full
                    if not miss:
                        alls += 1  # admits every letter
                    elif not miss & (miss - 1) and (q + (miss >> top)) & full == full:
                        covered |= miss  # admits only the letter of lane miss
                if (full ^ covered).bit_count() > alls:
                    continue  # too few slots left for the open letters
            if _suffix_power_from_prefixes(P, t, k, blocks) is not None:
                continue  # the extension ends in an abelian k-th power
            word[m] = a
            if t == stop:
                w = form(word)
                count += 1
                if least is None or w < least:
                    least = w
                if keep:
                    words.append(w)
                continue
            frames[m] = (letters, seen, done, named, nbase, nceil, rbit, rtarget, live)
            m, seen, done, named, letters = t, max(seen, a), d, c, None
            break
        else:
            if m == 0:
                return nodes, count, least, words, False
            if ev is not None:
                for _, x, b, g in live:  # the slots checked here get back their state
                    S[b], G[b] = x, g
            m -= 1
            letters, seen, done, named, nbase, nceil, rbit, rtarget, live = frames[m]


def _w_canonical(r: list[int]) -> tuple[int, ...]:
    """The word W whose reverse is r, renamed by first occurrence in W."""
    names: dict[int, int] = {}
    return tuple(names.setdefault(a, len(names) + 1) for a in reversed(r))


def _branches(
    n: int, k: int, L: int, node_cap: int | None = None
) -> tuple[list[tuple[int, ...]], int]:
    """The branches of a scan to length L: all R-prefixes of min(_BRANCH_DEPTH,
    L) letters that the scan reaches. This is the split rule, the one place
    that reads _BRANCH_DEPTH apart from the checkpoint header.

    Returns them in lexicographic order along with the node count spent, one
    per attempted letter append. The walk is the scan's, stopped early; a
    count over node_cap means the cap tripped and the prefixes are partial.
    """
    nodes, _, _, prefixes, _ = _walk(n, k, L, (), True, node_cap, None, min(_BRANCH_DEPTH, L))
    return prefixes, nodes


def _scan_branch(task: tuple) -> tuple[int, int, tuple[int, ...] | None, list | None, bool]:
    """Depth-first scan below one branch prefix of R.

    task = (n, k, L, prefix, keep, node_cap, deadline), where deadline is
    the search's deadline cell (see _walk). Returns the branch's checkpoint
    record (nodes expanded below the prefix, crucial
    words found, the least of them in W form), the words in W form if keep
    else None, and whether a budget tripped mid-branch. The compiled walker
    scans it when it can, else _walk.
    """
    return _native.scan_branch(task) or _walk(*task)


class _Checkpoint:
    """Append-only record of completed branch scans.

    The file stays open and exclusively locked (flock) from construction to
    close(), so a second search writing the same file fails with DomainError
    before it reads or changes anything.
    """

    def __init__(self, path: str | Path, cfg: SearchConfig):
        self.path = Path(path)
        self.n = cfg.n
        self.header = (
            f"# crucialis checkpoint v4 n={cfg.n} k={cfg.k} "
            f"reduction=1 depth={_BRANCH_DEPTH}"
        )
        self.done: dict[tuple[int, tuple[int, ...]], tuple[int, int, tuple[int, ...] | None]] = {}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.fh = open(self.path, "a+", encoding="ascii")  # the format is ASCII
        except OSError as e:
            raise DomainError(f"checkpoint {self.path} cannot be opened: {e.strerror}") from None
        try:
            try:
                fcntl.flock(self.fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise DomainError(
                    f"checkpoint {self.path} is in use by another search"
                ) from None
            if self.fh.tell() > 0:
                self._load()  # appends go to the end: the file is in append mode
            else:
                self._append(self.header + "\n")
        except BaseException:
            self.fh.close()
            raise

    def close(self) -> None:
        """Release the lock; the records written so far stay on disk."""
        self.fh.close()

    def _append(self, text: str) -> None:
        self.fh.write(text)
        self.fh.flush()

    def _parse(self, line: str):
        """(key, record) of one complete branch line; ValueError if malformed."""
        parts = line.split()
        if not line.endswith("\n") or len(parts) != 5:
            raise ValueError(line)
        length = int(parts[0])
        prefix = tuple(int(x) for x in parts[1].split(","))
        nodes, count = int(parts[2]), int(parts[3])
        lexmin = None if parts[4] == "-" else tuple(int(x) for x in parts[4].split(","))
        if nodes < 0 or count < 0 or (count > 0) != (lexmin is not None):
            raise ValueError(line)  # a branch has a least word exactly when it has words
        if lexmin is not None and (
            len(lexmin) != length or not all(1 <= a <= self.n for a in lexmin)
        ):
            raise ValueError(line)  # the witness would be no word of this length over 1..n
        return (length, prefix), (nodes, count, lexmin)

    def _load(self) -> None:
        self.fh.seek(0)
        try:
            lines = self.fh.readlines()
        except UnicodeDecodeError:
            raise DomainError(f"checkpoint {self.path} is not ASCII text") from None
        if lines[0].rstrip("\n") != self.header:
            raise DomainError(
                f"checkpoint {self.path} belongs to a different search "
                f"(found {lines[0].rstrip()!r})"
            )
        if lines[0] == self.header:  # torn before its newline, so the only line
            self._append("\n")
        size = len(lines[0])
        for i, line in enumerate(lines[1:], start=2):
            try:
                key, rec = self._parse(line)
            except ValueError:
                if i == len(lines):
                    # torn tail from an interrupted run: cut it so appends start clean
                    self.fh.truncate(size)
                    return
                raise DomainError(
                    f"checkpoint {self.path} line {i} is malformed: {line.rstrip()!r}"
                ) from None
            self.done[key] = rec
            size += len(line)

    def get(self, length: int, prefix: tuple[int, ...]):
        return self.done.get((length, prefix))

    def record(
        self,
        length: int,
        prefix: tuple[int, ...],
        nodes: int,
        count: int,
        lexmin: tuple[int, ...] | None,
    ) -> None:
        self.done[(length, prefix)] = (nodes, count, lexmin)
        pw = ",".join(map(str, prefix))
        lw = ",".join(map(str, lexmin)) if lexmin else "-"
        self._append(f"{length} {pw} {nodes} {count} {lw}\n")


class _Workers:
    """The thread pool of one search call, started on first use.

    Each task is one _scan_branch call. The compiled walker releases the GIL
    for the whole branch (ctypes does for every call), so its scans run in
    parallel; _walk holds the GIL, so its scans share one core. Tasks submit
    the module-level _scan_branch as it is when submitted, so a patch of it
    sees the pool's scans too. Both walkers poll the search's deadline cell,
    so close() stops the scans still running by moving the deadline.
    """

    def __init__(self, size: int, deadline: array):
        self.size = size
        self.deadline = deadline
        self.pool = None

    def imap(self, tasks: list[tuple]) -> Iterator:
        # imported here, so a search without a pool (and the CLI) never loads it
        from concurrent.futures.thread import ThreadPoolExecutor

        if self.pool is None:
            self.pool = ThreadPoolExecutor(self.size)
        return (f.result() for f in [self.pool.submit(_scan_branch, task) for task in tasks])

    def close(self) -> None:
        """Stop the threads, including any still scanning discarded branches."""
        if self.pool is not None:
            self.deadline[0] = -math.inf  # each running scan returns at its next poll
            self.pool.shutdown(cancel_futures=True)
            self.pool = None


@dataclass
class _ScanState:
    """A search's running totals: its nodes, whether a budget tripped, and
    the words its branches found: how many, the least, and each one if
    `words` is a list. Find and verify keep no list."""

    words: list[tuple[int, ...]] | None = None
    count: int = 0
    least: tuple[int, ...] | None = None
    nodes: int = 0
    tripped: bool = False

    def add(self, count: int, least: tuple[int, ...] | None, words) -> None:
        self.count += count
        if least is not None and (self.least is None or least < self.least):
            self.least = least
        if self.words is not None:
            self.words.extend(words)


def _left(cfg: SearchConfig, state: _ScanState) -> int | None:
    """The nodes the budget still allows, or None without a node budget."""
    return None if cfg.node_budget is None else cfg.node_budget - state.nodes


def _spend(cfg: SearchConfig, state: _ScanState, nodes: int) -> bool:
    """Add nodes to the total and report whether the node budget tripped.

    A trip leaves the total at budget + 1, the node at which a sequential
    scan under the budget left stops.
    """
    state.nodes += nodes
    if cfg.node_budget is not None and state.nodes > cfg.node_budget:
        state.nodes = cfg.node_budget + 1
        state.tripped = True
    return state.tripped


def _scan_length(
    cfg: SearchConfig,
    L: int,
    state: _ScanState,
    ckpt: _Checkpoint | None,
    deadline: array,
    workers: _Workers,
) -> None:
    """Scan all branches at target length L, updating state in branch order.

    Stops early only when a budget trips. Branches already in the checkpoint
    are reused, not re-run; fresh branches within the budget are recorded.
    """
    prefixes, enum_nodes = _branches(cfg.n, cfg.k, L, _left(cfg, state))
    if _spend(cfg, state, enum_nodes):
        return

    keep = state.words is not None

    def task(prefix: tuple[int, ...]) -> tuple:
        return (cfg.n, cfg.k, L, prefix, keep, _left(cfg, state), deadline)

    recs = [ckpt.get(L, p) if ckpt else None for p in prefixes]
    pending = [p for p, rec in zip(prefixes, recs) if rec is None]
    if cfg.workers > 1 and len(pending) > 1:
        # caps fixed at dispatch, the budget left as the length starts
        fresh = workers.imap([task(p) for p in pending])
    else:
        # each branch capped at the budget left when it starts
        fresh = (_scan_branch(task(p)) for p in pending)

    for prefix, rec in zip(prefixes, recs):
        words = None
        if rec is None:
            nodes, count, least, words, tripped = next(fresh)
            if tripped:
                _spend(cfg, state, nodes)
                state.tripped = True
                return
        else:
            nodes, count, least = rec
        if _spend(cfg, state, nodes):
            return  # over budget: the branch's words do not count, nor is it recorded
        if ckpt and rec is None:
            ckpt.record(L, prefix, nodes, count, least)
        state.add(count, least, words or ())
        if time.monotonic() > deadline[0]:
            state.tripped = True
            return


def _search(
    cfg: SearchConfig, lengths: range, words: list[tuple[int, ...]] | None = None
) -> SearchResult:
    """Scan the lengths upward; the first one with hits is minimal. The driver
    of every mode: only it starts a pool or opens a checkpoint."""
    ckpt = _Checkpoint(cfg.checkpoint_path, cfg) if cfg.checkpoint_path is not None else None
    # one cell that every scan polls, so moving it stops them all
    deadline = array("d", [time.monotonic() + cfg.time_budget if cfg.time_budget else math.inf])
    state = _ScanState(words)
    workers = _Workers(cfg.workers, deadline)
    try:
        for L in lengths:
            _scan_length(cfg, L, state, ckpt, deadline, workers)
            if state.count or state.tripped:
                break
    finally:
        workers.close()
        if ckpt is not None:
            ckpt.close()
    least = state.least
    count = state.count if cfg.symmetry_reduction else state.count * math.factorial(cfg.n)
    return SearchResult(
        minimal_length=L if least is not None else None,  # hits stop the scan at L
        witness=None if least is None else _word_of(least, cfg.n),
        exhaustive=not state.tripped,
        nodes_expanded=state.nodes,
        crucial_words_found=count,
    )


def search_minimal(cfg: SearchConfig) -> SearchResult:
    """Find the minimal crucial length for (n, k) and a witness.

    Scans lengths k-1 (mod k) upward; the first one carrying a crucial word is
    the minimum, and the witness is the lex-least canonical crucial word there.
    It ends by bounds(n, k).upper, so a proven search always has a witness;
    DomainError if that length is over the target-length limit. Returns
    exhaustive=False with whatever was established if a budget trips.
    """
    if not isinstance(cfg.target_mode, FindMinimalCrucial):
        raise DomainError("search_minimal requires target_mode=FindMinimalCrucial()")
    upper = bounds(cfg.n, cfg.k).upper
    _require_length(upper)
    return _search(cfg, range(cfg.k - 1, upper + 1, cfg.k))


def verify_none_below(cfg: SearchConfig) -> SearchResult:
    """Certify no crucial word of length < target exists, or refute with one.

    exhaustive=True with crucial_words_found=0 is the certificate; a found
    word comes back as minimal_length/witness with the count of crucial words
    at that length. It scans lengths below the target and no others, so
    "is there a crucial word of at most M letters?" is VerifyNoneBelow(M + 1).
    """
    if not isinstance(cfg.target_mode, VerifyNoneBelow):
        raise DomainError("verify_none_below requires target_mode=VerifyNoneBelow(L)")
    return _search(cfg, range(cfg.k - 1, cfg.target_mode.length, cfg.k))


def enumerate_crucial(cfg: SearchConfig) -> Iterator[Word]:
    """Yield every crucial word of the target length in lexicographic order.

    With symmetry reduction only canonical words are yielded (one per
    renaming class); without it, every renaming of each of them. The whole
    length is scanned before the first word is yielded, so a tripping budget
    raises BudgetExhaustedError without a partial yield.
    """
    if not isinstance(cfg.target_mode, EnumerateAllCrucialAtLength):
        raise DomainError(
            "enumerate_crucial requires target_mode=EnumerateAllCrucialAtLength(L)"
        )
    if cfg.checkpoint_path is not None:
        raise DomainError("checkpointing applies to find and verify modes only")
    L = cfg.target_mode.length
    words: list[tuple[int, ...]] = []
    result = _search(cfg, range(L, L + 1), words)
    if not result.exhaustive:
        raise BudgetExhaustedError(f"budget exhausted after {result.nodes_expanded} nodes")
    if not cfg.symmetry_reduction:
        names = [(0, *p) for p in permutations(range(1, cfg.n + 1))]
        words = [tuple(map(name.__getitem__, w)) for w in words for name in names]
    for letters in sorted(words):
        yield _word_of(letters, cfg.n)
