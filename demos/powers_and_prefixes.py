"""Two open-ended explorations: how the powers of one word factor, and
which prefixes never begin a Nyldon word.

Run: python3 demos/powers_and_prefixes.py
"""

from nyldon import (
    Alphabet,
    forbidden_prefix_family,
    format_factorization,
    is_forbidden_prefix_upto,
    nyldon_factorize,
)

A2 = Alphabet(2)


def main() -> None:
    # the factor count of u^e grows by one per extra exponent, with a
    # stable head and tail and one long factor repeating in the middle
    u = A2.parse("01111011011111011110111")
    print(f"u = {A2.format(u)}")
    for e in range(1, 7):
        factors = nyldon_factorize(u * e)
        print(f"  e={e}: {len(factors):>2} factors: "
              f"{format_factorization(A2, factors)}")
    print()

    # bounded evidence for forbidden prefixes: no Nyldon word up to the
    # stated length starts with p
    for text, bound in (("1010", 16), ("11", 10), ("101101", 7)):
        p = A2.parse(text)
        verdict = is_forbidden_prefix_upto(p, bound, A2)
        print(f"  {text:<8} forbidden up to length {bound}? {verdict}")
    print()

    print("four parametric families of forbidden prefixes, first instances:")
    for family in (1, 2, 3, 4):
        row = []
        for k_param in (0, 1, 2):
            p = forbidden_prefix_family(k_param, family)
            if not is_forbidden_prefix_upto(p, len(p) + 4, A2):
                raise AssertionError(f"family {family} prefix {A2.format(p)} is not forbidden")
            row.append(A2.format(p))
        print(f"  family {family}: {', '.join(row)}")


if __name__ == "__main__":
    main()
