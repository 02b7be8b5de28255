"""Host-speed calibrator: times one fixed piece of pure-Python work over and over.

    python3 bench/calibrate.py OUT CPU

Pins itself to CPU and appends one line "start end cpu" per slice of work to
OUT (epoch seconds, and the CPU seconds the slice took) until it is
terminated or its parent exits.  While a run measures, run.py keeps one
running on the CPU its passes do not use.  A shared host's speed drifts by
tens of percent over seconds to minutes, on both CPUs together; run.py scales
the time of each pass by REF_S over the mean slice during that pass, which
cancels most of that drift, while a change in the program moves the times
one for one.
"""

from __future__ import annotations

import os
import random
import sys
import time
from fractions import Fraction

REF_S = 0.1  # CPU seconds of one slice on a quiet 2-vCPU x86-64 host, Python 3.11


def monomials(count: int = 48, m: int = 8) -> list[tuple]:
    rng = random.Random(0)
    elems = []
    for _ in range(count):
        perm = list(range(m))
        rng.shuffle(perm)
        elems.append((tuple(perm), tuple(Fraction(rng.randrange(6), 6) for _ in range(m))))
    return elems


def work(elems: list[tuple]) -> dict:
    """The multiplication table of monomial matrices (a permutation and
    Fraction coefficients mod 1), the kind of arithmetic the program spends
    its time on."""
    table = {}
    for a in elems:
        for b in elems:
            perm = tuple(a[0][j] for j in b[0])
            coeff = tuple((a[1][j] + c) % 1 for j, c in zip(b[0], b[1]))
            table[a, b] = (perm, coeff)
    return table


def main() -> int:
    out, cpu = sys.argv[1], int(sys.argv[2])
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    elems = monomials()
    with open(out, "a", encoding="utf-8") as fh:
        while os.getppid() == parent:
            start, used = time.time(), time.process_time()
            work(elems)
            fh.write(f"{start!r} {time.time()!r} {time.process_time() - used!r}\n")
            fh.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
