"""Find minimal crucial lengths by exhaustive search and enumerate the optima.

Run: python3 demos/minimal_search.py
"""

import time

from crucialis import (
    EnumerateAllCrucialAtLength,
    SearchConfig,
    VerifyNoneBelow,
    enumerate_crucial,
    search_minimal,
    verify_none_below,
)


def main():
    print("Minimal crucial lengths, proven by exhaustive scan:")
    for n, k in [(1, 3), (2, 3), (3, 3), (2, 2), (3, 2), (4, 2), (5, 2)]:
        t0 = time.time()
        r = search_minimal(SearchConfig(n=n, k=k))
        print(
            f"  n={n} k={k}: length {r.minimal_length}, witness {r.witness}, "
            f"exhaustive={r.exhaustive}, {r.nodes_expanded} nodes, {time.time()-t0:.2f}s"
        )

    print("\nEvery crucial-for-cubes word of minimal length over three letters:")
    cfg = SearchConfig(n=3, k=3, target_mode=EnumerateAllCrucialAtLength(11))
    words = list(enumerate_crucial(cfg))
    for i in range(0, len(words), 4):
        print("  " + "  ".join(str(w) for w in words[i : i + 4]))
    print(f"  total: {len(words)} words (letters named by first occurrence)")

    print("\nCertify absence below a threshold:")
    r = verify_none_below(SearchConfig(n=3, k=3, target_mode=VerifyNoneBelow(11)))
    print(
        f"  no crucial-for-cubes word over 3 letters has length < 11: "
        f"certified={r.exhaustive and r.crucial_words_found == 0} "
        f"({r.nodes_expanded} nodes)"
    )

    print("\nBudgets make big scans safe; a tripped budget is reported, not hidden:")
    r = search_minimal(SearchConfig(n=4, k=3, node_budget=50_000))
    proven = "the verdict is proven" if r.exhaustive else "the verdict is not proven"
    print(
        f"  n=4 k=3 with 50k node budget: minimal_length={r.minimal_length}, "
        f"exhaustive={r.exhaustive} ({proven})"
    )


if __name__ == "__main__":
    main()
