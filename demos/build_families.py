"""Walk through every construction family and check its length formula.

Run: python3 demos/build_families.py
"""

from crucialis import (
    construct_D,
    construct_W,
    construct_doubling_k,
    construct_zimin,
    greedy_length,
    optimal_small_word,
)


def show(label, word, formula_value):
    mark = "ok" if len(word) == formula_value else "MISMATCH"
    print(f"{label:>14}  len={len(word):<4} formula={formula_value:<4} [{mark}]  {word}")


def main():
    print("Recursive doubling words, crucial for squares (length 2^n - 1):")
    for n in range(1, 5):
        show(f"Z_{n}", construct_zimin(n), 2**n - 1)

    print("\nSame recursion at higher exponents (length k^n - 1):")
    for n, k in [(2, 3), (3, 3), (2, 4)]:
        show(f"Z_{n}^{k}", construct_zimin(n, k), k**n - 1)

    print("\nLetter-doubling words for cubes, generalized doubling at k = 3 (length 3*2^(n-1) - 1):")
    for n in range(1, 6):
        show(f"X_{n}", construct_doubling_k(n, 3), 3 * 2 ** (n - 1) - 1)

    print("\nGeneralized doubling (length k(k-1)^(n-1) - 1):")
    for n, k in [(3, 4), (4, 4), (3, 5)]:
        show(f"H_{n}^{k}", construct_doubling_k(n, k), k * (k - 1) ** (n - 1) - 1)

    print("\nThree-block cube words, length 9n - 10:")
    for n in range(4, 8):
        show(f"W_{n}", construct_W(n), 9 * n - 10)

    print("\nShorter three-block cube words, the k-block family at k = 3, length 9n - 13 (minimal for n >= 5):")
    for n in range(4, 8):
        show(f"E_{n}", construct_D(n, 3), 9 * n - 13)

    print("\nTwo-block square words, length 4n - 7 (minimal for n >= 3):")
    for n in range(4, 8):
        show(f"D_{n}", construct_D(n), 4 * n - 7)

    print("\nGeneral k-block family, length k^2(n-1) - k - 1:")
    for n, k in [(4, 4), (5, 4), (4, 5), (6, 4)]:
        show(f"D_{n}^{k}", construct_D(n, k), k * k * (n - 1) - k - 1)

    print("\nStored minimal cube words for up to four letters, vs. the greedy lengths:")
    for n in range(1, 5):
        w = optimal_small_word(n)
        print(f"  n={n}: {w}  (length {len(w)}, greedy scheme reaches {greedy_length(n)})")
    for n in (5, 6):
        print(f"  n={n}: greedy scheme reaches {greedy_length(n)}, optimum is 9n-13 = {9*n-13}")


if __name__ == "__main__":
    main()
