"""Run the four extremal bounded eliminations over {0,1} and watch
which family each one drains, step by step.

Left rewriting closes the working set under u*(Y - {u}); right
rewriting under (Y - {u})u*.  Picking the minimum on the left drains
the Lyndon words in increasing order; picking the minimum on the right
drains the Nyldon words.  Run: python3 demos/elimination_traces.py [n]
"""

import sys

from nyldon import (
    Alphabet,
    enumerate_lyndon,
    enumerate_nyldon,
    lazard_run,
    lazard_stepcount_nyldon,
)

A2 = Alphabet(2)


def show(side: str, selector: str, n: int) -> None:
    trace = lazard_run(side, selector, A2, n)
    print(f"{side}/{selector}, words up to length {n}:")
    for i, step in enumerate(trace.steps, 1):
        snapshot = " ".join(A2.format(w) for w in sorted(step.snapshot))
        print(f"  {i:>2} | {snapshot} | {A2.format(step.chosen)}")
    print(f"  eliminated: {' '.join(A2.format(w) for w in trace.eliminated)}")
    print()


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    for side, selector in (("left", "min"), ("right", "max"),
                           ("right", "min"), ("left", "max")):
        show(side, selector, n)

    lyndon = set(enumerate_lyndon(A2, n))
    nyldon = set(enumerate_nyldon(A2, n))
    if set(lazard_run("left", "min", A2, n).eliminated) != lyndon:
        raise AssertionError(f"left/min did not drain the Lyndon words up to {n}")
    if set(lazard_run("right", "min", A2, n).eliminated) != nyldon:
        raise AssertionError(f"right/min did not drain the Nyldon words up to {n}")
    print("left/min drained exactly the Lyndon words;"
          " right/min exactly the Nyldon words.")

    j, total = lazard_stepcount_nyldon(A2, n)
    print(f"right/min has produced all {total} Nyldon words by step {j}.")


if __name__ == "__main__":
    main()
