"""Differential check of polyring.solve at any seed.

Usage: PYTHONPATH=src python tests/elimination_differential.py SEED [COUNT]

Draws COUNT (default 250) seeded systems [M | B], M of size 1 to 5 and B
of 0 to 3 columns, with int, Fraction, Polynomial (degree <= 2 in a, b)
or mixed int and Polynomial entries; one M in four is singular. Each
must satisfy M . X = det . B in its ring, or give (0, None) when M is
singular, and at two seeded rational points its determinant and
adj(M) . B must agree with the Fraction oracle of test_projgeom.py
(Leibniz determinant, Gauss-Jordan inverse). det_over_ring and adjugate
must agree with solve. Where [M | B] has a Polynomial entry, every entry
that solve, det_over_ring and adjugate return must be a Polynomial of
its ring, an int constant among them included. Prints the seed and one line per mismatch, and
exits 1 on any mismatch.
"""

from __future__ import annotations

import random
import sys
import time

from test_projgeom import (
    KINDS,
    outside_the_ring,
    random_fractions,
    seeded_system,
    solve_mismatches,
)
from torsal.errors import SingularMatrixError
from torsal.polyring import det_over_ring, solve
from torsal.projgeom import adjugate


def main(argv):
    seed = int(argv[1])
    count = int(argv[2]) if len(argv) > 2 else 250
    print(f"seed {seed}, {count} systems")
    rng = random.Random(seed)
    start, failed = time.perf_counter(), 0
    for case in range(count):
        kind, n = rng.choice(KINDS), rng.randint(1, 5)
        m, b = seeded_system(rng, n, kind)
        points = [random_fractions(rng, 2) for _ in range(2)]
        wrong = solve_mismatches(m, b, points)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        det, adj = solve(m, identity)
        if det_over_ring(m) != det:
            wrong.append("det_over_ring differs from solve")
        if outside_the_ring(m, [det_over_ring(m)]):
            wrong.append("det_over_ring lies outside the ring")
        if n > 1:
            try:
                if adjugate(m) != adj:
                    wrong.append("adjugate differs from solve")
                if outside_the_ring(m, [e for r in adjugate(m) for e in r]):
                    wrong.append("adjugate lies outside the ring")
            except SingularMatrixError:
                if adj is not None:
                    wrong.append("adjugate refuses an invertible matrix")
        if wrong:
            failed += 1
            print(f"case {case} ({kind}, {n}x{n}): {'; '.join(wrong)}: "
                  f"M = {m}, B = {b}")
    print(f"{count - failed} of {count} systems agree, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
