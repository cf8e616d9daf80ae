"""Differential check of the Kronecker resultant path at any seed.

Usage: PYTHONPATH=src python tests/kronecker_differential.py SEED [COUNT]

Draws COUNT (default 200) seeded pairs of degree 3 to 9 in p: dense pairs
with 1, 2 or 3 plane variables (0, 1 or 2 packed); structured near-worst
families of the slot bound, c*L(z)*sum(+-p^k) and dense line families whose
coefficients all have the largest magnitude, each against its derivative;
and pairs z*p^m, z*(p^n + c), whose resultant c^m * z^(m+n) meets the
bound sqrt((1 + c^2)^m) in its bit length.
Every pair must take the Kronecker path, give the same polynomial as the
subresultant PRS on the Polynomial inputs (the oracle of test_polyring.py),
and have every coefficient within the signed slot of the layout's width.
Prints the seed and one line per mismatch, and exits 1 on any mismatch.
"""

from __future__ import annotations

import random
import sys
import time

from test_polyring import dense_in_p, polynomial_resultant
from torsal import polyring
from torsal.polyring import Polynomial, VarContext, sylvester_resultant


def structured(rng, plane, degree):
    """c * L(z) * sum(s^k p^k): L the plain or alternating sum of the plane
    variables, s = +-1, c of up to 4 bits; or a line family whose
    coefficients are all +-c, alternating in p or in random signs."""
    ctx = VarContext(["p"] + [f"z{i}" for i in range(1, plane + 1)])
    p, *z = ctx.variables()
    c = rng.choice((1, 9, 15))
    if rng.random() < 0.5:
        line = sum(rng.choice((1, (-1) ** j)) * v for j, v in enumerate(z))
        s = rng.choice((1, -1))
        return c * line * sum(s ** k * p ** k for k in range(degree + 1))
    alternate = rng.random() < 0.5
    return Polynomial(ctx, {
        (k,) + tuple(int(i == j) for i in range(plane)):
            c * ((-1) ** (k + j) if alternate else rng.choice((1, -1)))
        for k in range(degree + 1) for j in range(plane)
    })


def draw(rng):
    """(f, g, shape) of one seeded pair."""
    if rng.random() < 0.1:
        # denser than 1/5 of the box only up to degree 4
        p, z = VarContext(["p", "z"]).variables()
        m = rng.randint(3, 4)
        c = rng.choice((1, -1)) * rng.randint(2, 1 << 40)
        return z * p ** m, z * (p ** rng.randint(1, m) + c), "tight"
    plane, degree = rng.randint(1, 3), rng.randint(3, 9)
    if rng.random() < 0.5:
        f = structured(rng, plane, degree)
        return f, f.partial_derivative("p"), "structured"
    delta = rng.randint(1, 2) if degree <= 5 else 1
    rational = rng.random() < 0.3
    f = dense_in_p(rng, plane, degree, delta, rational)
    if rng.random() < 0.5:
        return f, f.partial_derivative("p"), "dense"
    g = dense_in_p(rng, plane, rng.randint(1, degree), rng.randint(1, 2), rational)
    return (f, g, "dense") if rng.random() < 0.5 else (g, f, "dense")


def main(argv):
    seed = int(argv[1])
    count = int(argv[2]) if len(argv) > 2 else 200
    print(f"seed {seed}, {count} pairs")
    widths = []
    original = polyring._kronecker_layout

    def spy(a, b, context, i):
        layout = original(a, b, context, i)
        widths.append(layout and layout[3])
        return layout

    polyring._kronecker_layout = spy
    rng = random.Random(seed)
    start, failed = time.perf_counter(), 0
    for case in range(count):
        f, g, shape = draw(rng)
        widths.clear()
        got = sylvester_resultant(f, g, "p")
        want = polynomial_resultant(f, g, "p")
        bits = widths[0]
        wrong = []
        if bits is None:
            wrong.append("not on the Kronecker path")
        elif any(abs(n) >= 1 << (bits - 1) for n, _ in got._terms.values()):
            wrong.append(f"a coefficient outside its {bits}-bit slot")
        if got._terms != want._terms or str(got) != str(want):
            wrong.append("differs from the Polynomial PRS")
        if wrong:
            failed += 1
            print(f"case {case} ({shape}): {'; '.join(wrong)}: f = {f}, g = {g}")
    print(f"{count - failed} of {count} pairs agree, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
