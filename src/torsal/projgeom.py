"""Projective points in P^4, exact 5x5 frames, fraction-free rank.

Everything here is plain rational linear algebra: points up to scalar,
invertible frame matrices whose rows express new-frame points in
old-frame coordinates, pullback of polynomials along such a change of
coordinates, and exact rank of arbitrary rational matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from torsal.errors import ContextMismatchError, SingularMatrixError
from torsal.polyring import Polynomial, det_over_ring, eliminate


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"rational entry expected, got {type(x).__name__}")


class ProjPoint:
    """A point of P^4: five rational coordinates up to a nonzero scalar."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(_frac(c) for c in coords)
        if len(coords) != 5:
            raise ValueError(f"a ProjPoint needs 5 coordinates, got {len(coords)}")
        if not any(coords):
            raise ValueError("all-zero coordinates do not define a point")
        self.coords = coords

    def canonical(self) -> "ProjPoint":
        """Representative scaled so the first nonzero coordinate is 1."""
        pivot = next(c for c in self.coords if c)
        return ProjPoint(tuple(c / pivot for c in self.coords))

    def scaled(self, c) -> "ProjPoint":
        c = _frac(c)
        if not c:
            raise ValueError("scaling a point by zero")
        return ProjPoint(tuple(x * c for x in self.coords))

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.canonical().coords == other.canonical().coords

    def __hash__(self):
        return hash(self.canonical().coords)

    def __repr__(self):
        return f"ProjPoint({':'.join(str(c) for c in self.coords)})"


class FrameMatrix:
    """Invertible 5x5 rational matrix; row i = new frame point i in old coordinates."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(_frac(x) for x in r) for r in rows)
        if len(rows) != 5 or any(len(r) != 5 for r in rows):
            raise ValueError("a FrameMatrix is 5x5")
        self.rows = rows
        if not det_over_ring(rows):
            raise SingularMatrixError("frame matrix has determinant 0")

    @classmethod
    def identity(cls) -> "FrameMatrix":
        return cls(
            [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
        )

    def det(self) -> Fraction:
        return det_over_ring(self.rows)

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def __matmul__(self, other):
        if not isinstance(other, FrameMatrix):
            return NotImplemented
        prod = [
            [
                sum(self.rows[i][k] * other.rows[k][j] for k in range(5))
                for j in range(5)
            ]
            for i in range(5)
        ]
        return FrameMatrix(prod)

    def invert(self) -> "FrameMatrix":
        """Exact inverse: the adjugate divided by the determinant."""
        det = self.det()
        return FrameMatrix([[x / det for x in r] for r in adjugate(self.rows)])

    def __eq__(self, other):
        if not isinstance(other, FrameMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(
            "(" + ", ".join(str(x) for x in r) + ")" for r in self.rows
        )
        return f"FrameMatrix({body})"


def frame_rows(p, q) -> tuple:
    """Moving frame B0..B4 adapted to the cubic's ruling, over any ring.

    Row i gives B_i in the fixed A-frame. Only ring arithmetic touches p
    and q, so rational (p, q) give rational rows and polynomial ones give
    rows over their ring; the determinant is 1 identically.
    """
    one, zero = p ** 0, p * 0
    return (
        (one, zero, zero, zero, p),
        (zero, one, -2 * p, -(p * p), zero),
        (q, zero, one, p, p * q),
        (zero, zero, zero, one, zero),
        (zero, zero, zero, zero, one),
    )


def frame_bourgain(p, q) -> FrameMatrix:
    """The frame_rows at rational (p, q), as a FrameMatrix."""
    return FrameMatrix(frame_rows(_frac(p), _frac(q)))


def change_polynomial_coordinates(f: Polynomial, m: FrameMatrix) -> Polynomial:
    """Pull f back along m: variable i is replaced by sum_j m[i][j] * var_j.

    The context (and variable names) are unchanged; degree and
    homogeneity are preserved because every image is a linear form.
    """
    names = f.context.names
    if len(names) != 5:
        raise ContextMismatchError(
            f"coordinate change needs a 5-variable context, got {len(names)}"
        )
    variables = f.context.variables()
    assignment = {}
    for i, name in enumerate(names):
        form = Polynomial.zero(f.context)
        for j in range(5):
            if m.rows[i][j]:
                form = form + variables[j] * m.rows[i][j]
        assignment[name] = form
    return f.substitute(assignment, target_context=f.context)


def rank(matrix) -> int:
    """Exact rank of a rational matrix of any shape.

    Rows are cleared to integers, so the fraction-free elimination runs
    on ints and divides exactly.
    """
    rows = []
    for r in matrix:
        r = [_frac(x) for x in r]
        scale = lcm(*(x.denominator for x in r)) if r else 1
        rows.append([int(x * scale) for x in r])
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return len(eliminate(rows)[1])


def adjugate(rows):
    """Adjugate (transposed cofactor matrix) of an invertible matrix.

    Entries may lie in any commutative ring that ``eliminate`` accepts,
    e.g. Polynomial where division is unavailable. Fraction-free
    Gauss-Jordan elimination turns [M | I] into [d*I | X] with
    d = sign*det(M), so adj(M) = sign*X and adj(M) . M = det(M) . I.
    A singular M raises SingularMatrixError.
    """
    n = len(rows)
    if n < 2 or any(len(r) != n for r in rows):
        raise ValueError("adjugate needs a square matrix of size >= 2")
    one, zero = rows[0][0] ** 0, rows[0][0] * 0
    work = [
        list(r) + [one if i == j else zero for j in range(n)]
        for i, r in enumerate(rows)
    ]
    sign, pivots = eliminate(work)
    if pivots[n - 1] != n - 1:
        raise SingularMatrixError("adjugate of a singular matrix")
    return [[sign * x for x in r[n:]] for r in work]
