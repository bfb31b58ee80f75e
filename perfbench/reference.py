"""Recompute the benchmark's reference values by brute force with the oracle.

    python3 perfbench/reference.py            # rewrites perfbench/reference.json

The paper settles (n, 2) = 4n - 7, (3, 3) = 11 and "no (4, 3) word below 20";
the benchmark takes those from the paper. For the values below the paper has
no result, so they are recomputed here from first principles: walk every word
over 1..n (no symmetry reduction), extend a prefix only while the oracle finds
no abelian k-th power ending at its last letter (a word is free exactly when no
prefix ends in a power), and test every word of the target length for
cruciality with the oracle. Canonical words (letters named in order of first
occurrence) are kept afterwards. Takes about 20 seconds on one core.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import oracle
from workloads import digest

OUT = Path(__file__).resolve().parent / "reference.json"


def crucial_words(n: int, k: int, length: int) -> list[tuple[int, ...]]:
    """Every crucial word of the given length over 1..n, in lex order."""
    units = oracle.letter_units(n, length + 1)
    c = [0] * (length + 2)
    word = [0] * length
    found: list[tuple[int, ...]] = []

    def walk(m: int) -> None:
        if m == length:
            for x in range(1, n + 1):
                if oracle.suffix_block(c, m + 1, k, c[m] + units[x]) is None:
                    return
            found.append(tuple(word))
            return
        for a in range(1, n + 1):
            c[m + 1] = c[m] + units[a]
            if oracle.suffix_block(c, m + 1, k) is None:
                word[m] = a
                walk(m + 1)

    walk(0)
    return found


def minimal(n: int, k: int) -> dict:
    length = 1
    while True:
        canon = [w for w in crucial_words(n, k, length) if oracle.is_canonical(w)]
        if canon:
            return {"length": length, "witness": "".join(map(str, min(canon)))}
        length += 1


def enumeration(n: int, k: int, length: int) -> dict:
    canon = [w for w in crucial_words(n, k, length) if oracle.is_canonical(w)]
    return {"count": len(canon), "sha256": digest(canon)}


def main() -> int:
    t0 = time.perf_counter()
    ref = {
        "generated_by": "python3 perfbench/reference.py",
        "method": "exhaustive walk over all words with the oracle; canonical words kept",
        "minimal": {
            "n3k3": minimal(3, 3),
            "n2k4": minimal(2, 4),
            "n2k5": minimal(2, 5),
        },
        "enumerate": {
            "n3k3L11": enumeration(3, 3, 11),
            "n3k3L14": enumeration(3, 3, 14),
        },
    }
    OUT.write_text(json.dumps(ref, indent=2) + "\n")
    print(json.dumps(ref, indent=2))
    print(f"wrote {OUT} in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
