"""When do the length-n Nyldon words form a comma-free code?

Prints the verdict matrix for small alphabets and block lengths, with
a concrete straddling witness for every failure.

Run: python3 demos/code_checks.py
"""

from nyldon import (
    Alphabet,
    is_circular_bounded,
    is_comma_free_uniform,
    nyldon_code,
)


def main() -> None:
    print("comma-free verdicts for the length-n Nyldon code over k letters:")
    print("        " + "".join(f"n={n:<5}" for n in range(1, 8)))
    for k in (2, 3, 4):
        row = []
        for n in range(1, 8):
            verdict = is_comma_free_uniform(nyldon_code(Alphabet(k), n), n)
            row.append("yes" if verdict.holds else "no")
        print(f"  k={k}   " + "".join(f"{v:<6}" for v in row))
    print()

    for k, n in ((4, 2), (3, 3), (2, 7)):
        alphabet = Alphabet(k)
        code = nyldon_code(alphabet, n)
        verdict = is_comma_free_uniform(code, n)
        u, x, v = verdict.witness
        print(f"k={k}, n={n}: {alphabet.format(x)} straddles a boundary of the"
              f" message {alphabet.format(u)}({alphabet.format(x)}){alphabet.format(v)}")

    print()
    code = nyldon_code(Alphabet(2), 4)
    verdict = is_circular_bounded(code, 4, 16)
    print("binary length-4 code circular on bounded messages?",
          "yes" if verdict.holds else "no")
    verdict = is_circular_bounded({(0, 1, 0, 1)}, 4, 8)
    print("the one-word code {0101} fails:", verdict.witness)


if __name__ == "__main__":
    main()
