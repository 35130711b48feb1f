"""Every primitive word has exactly one Nyldon rotation; find it two
ways and walk one long example.

Run: python3 demos/conjugacy_tour.py
"""

from nyldon import (
    Alphabet,
    is_lyndon,
    is_nyldon,
    lyndon_conjugate,
    melancon_nyldon_conjugate,
    nyldon_conjugate_bruteforce,
    rotations,
)

A2 = Alphabet(2)


def show_class(text: str) -> None:
    word = A2.parse(text)
    print(f"conjugacy class of {text}:")
    for r in sorted(set(rotations(word))):
        tags = []
        if is_lyndon(r):
            tags.append("lyndon")
        if is_nyldon(r):
            tags.append("nyldon")
        print(f"    {A2.format(r):<10} {' '.join(tags)}")
    fast = melancon_nyldon_conjugate(word)
    slow = nyldon_conjugate_bruteforce(word)
    if fast != slow:
        raise AssertionError(f"Melancon gave {fast!r}, the rotation scan {slow!r}")
    print(f"  merging procedure and rotation scan agree: {A2.format(fast)}")
    print()


def main() -> None:
    for text in ("00101", "0111", "110010"):
        show_class(text)

    # a 23-letter primitive word whose Nyldon conjugate moves a single
    # letter: n = 1 u 1^-1
    u = A2.parse("01111011011111011110111")
    n = melancon_nyldon_conjugate(u)
    print("u =", A2.format(u))
    print("n =", A2.format(n))
    print("n == (1,) + u[:-1]?", n == (1,) + u[:-1])
    print("lyndon conjugate of u:", A2.format(lyndon_conjugate(u)))


if __name__ == "__main__":
    main()
