"""Fixed reference task that measures how fast the host runs Python right now.

    python3 bench/calibrate.py

It shares no code with qsym and does the same work on every call: a fresh
interpreter start, the standard-library imports the qsym CLI also makes, a
schoolbook product of two rational polynomials, and a loop over tuples and a
dict.  Those are the kinds of work a qsym call does.  The benchmark times it
around its rounds and scales its own timings by it, so a host that runs
every process slower for a while (other tenants on the same machine) moves
the reported figures much less than it moves raw wall time.
"""

# The imports are part of the measured work.
import argparse  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import functools  # noqa: F401
import io  # noqa: F401
import json  # noqa: F401
from fractions import Fraction
from itertools import product

SIZE = 60


def main() -> int:
    a = [Fraction(i + 1, 1) for i in range(SIZE)]
    b = [Fraction(2 * i + 1, 3) for i in range(SIZE)]
    out = [Fraction(0)] * (2 * SIZE - 1)
    for _ in range(6):
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
    counts = {}
    for t in product(range(7), repeat=6):
        s = sum(t)
        counts[s] = counts.get(s, 0) + 1
    print(sum(out).numerator % 1000003, counts[18])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
