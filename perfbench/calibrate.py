"""Fixed reference work for measuring how fast the host runs right now.

    python perfbench/calibrate.py

Uses only the standard library, so no change to cuspcenter can move its
cost: exact rational arithmetic, small-int tuples and dict traffic, the
same kinds of work the engine does.  ``run.py`` times this script next
to every benchmarked command and scales the command's time by how much
slower or faster than usual this script ran around it.
"""

from fractions import Fraction

ROUNDS = 50_000


def main() -> None:
    acc = Fraction(0)
    table = {}
    for i in range(1, ROUNDS):
        acc += Fraction(i % 97, i % 13 + 1)
        key = (i % 1009, i % 7)
        table[key] = tuple((a * i) % 17 for a in key)


if __name__ == "__main__":
    main()
