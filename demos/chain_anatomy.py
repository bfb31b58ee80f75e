"""Dissect crucial words: suffix chains, building blocks, occurrence profiles.

Run: python3 demos/chain_anatomy.py
"""

from crucialis import (
    OccurrenceProfile,
    construct_D,
    decompose,
    is_crucial,
    is_maximal,
    normalize,
    occurrence_profile,
    parse_word,
    profile_violations,
)


def dissect(text, k):
    w = parse_word(text)
    print(f"word {w}, exponent {k}:")
    print(f"  crucial: {is_crucial(w, k)}, maximal: {is_maximal(w, k)}")
    dec = decompose(w, k)
    for i in range(1, w.alphabet_size + 1):
        print(f"  delta[{i}] = {dec.delta(i)} (appending {i} closes a {k}-power)")
    for i, gap in enumerate(dec.gaps, start=2):
        print(f"  gap to delta[{i}]: {gap if len(gap) else '(empty)'}")
    for i, blocks in enumerate(dec.blocks, start=1):
        print(f"  blocks for letter {i}: {' | '.join(str(b) for b in blocks)}")


def main():
    dissect("21211", 3)
    print()
    dissect(str(construct_D(4, 3)), 3)

    print("\nLetters must be named so the suffix chain nests; normalize() fixes naming:")
    w = parse_word("12122")
    renamed, perm = normalize(w, 3)
    print(f"  {w} -> {renamed} under renaming {perm}")

    print("\nOccurrence profiles count letters, last letter first:")
    for n in (5, 8, 12):
        p = occurrence_profile(construct_D(n, 3))  # E_n
        print(f"  E_{n}: {p}  violations: {profile_violations(p) or 'none'}")

    print("\nProfiles that no minimal crucial-for-cubes word can have:")
    for a0, rest in [(5, (3, 3, 9, 9)), (5, (6, 6, 6, 9)), (5, (3, 6, 6, 9)), (2, (3, 6, 9, 9))]:
        p = OccurrenceProfile(a0, rest)
        tags = ", ".join(t.name for t in profile_violations(p))
        print(f"  {p}: {tags}")


if __name__ == "__main__":
    main()
