"""Projective points in P^4, exact 5x5 frames, fraction-free rank.

Points up to scalar (ProjPoint); invertible rational frame matrices
whose rows express new-frame points in old-frame coordinates
(FrameMatrix, with its exact inverse); the cubic's moving frame B0..B4
over any ring (frame_rows); pullback of polynomials along a change of
coordinates; the adjugate over any ring; and the exact rank of a
rational matrix. Inverse and adjugate are ``polyring.solve`` of [M | I],
as a frame's determinant is ``polyring.det_over_ring(m.rows)``; rank
reads the pivot count of the same fraction-free elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from torsal.errors import ContextMismatchError, SingularMatrixError
from torsal.polyring import Polynomial, eliminate, solve


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
        # rank 5 exactly when the determinant is nonzero; rank clears the
        # denominators and eliminates ints, cheaper than det over Fraction
        if rank(rows) != 5:
            raise SingularMatrixError("frame matrix has determinant 0")

    def invert(self) -> "FrameMatrix":
        """Exact inverse: the adjugate divided by the determinant, both
        from one elimination (``polyring.solve`` of [M | I])."""
        det, adj = solve(self.rows, _identity(self.rows))
        return FrameMatrix([[v / det for v in r] for r in adj])

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
    # each row's linear form, built from its (lowest-terms) Fractions
    units = [f.context._units[name] for name in names]
    assignment = {
        name: Polynomial._make(f.context, {
            unit: (x.numerator, x.denominator) for unit, x in zip(units, row) if x
        })
        for name, row in zip(names, m.rows)
    }
    return f.substitute(assignment, target_context=f.context)


def rank(matrix) -> int:
    """Exact rank of a rational matrix of any shape: int or Fraction
    entries (TypeError for any other).

    A row with a Fraction in it is cleared to integers and an int row is
    taken as it is, so the fraction-free elimination runs on ints and
    divides exactly.
    """
    rows = []
    for r in matrix:
        r = list(r)
        if not all(isinstance(x, int) for x in r):
            r = [_frac(x) for x in r]
            scale = lcm(*(x.denominator for x in r))
            r = [x.numerator * (scale // x.denominator) for x in r]
        rows.append(r)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return len(eliminate(rows)[1])


def adjugate(rows):
    """Adjugate (transposed cofactor matrix) of an invertible matrix.

    Entries may lie in any commutative ring that ``eliminate`` accepts,
    e.g. Polynomial where division is unavailable: ``polyring.solve`` of
    [M | I], so adj(M) . M = det(M) . I. A singular M raises
    SingularMatrixError.
    """
    n = len(rows)
    if n < 2 or any(len(r) != n for r in rows):
        raise ValueError("adjugate needs a square matrix of size >= 2")
    adj = solve(rows, _identity(rows))[1]
    if adj is None:
        raise SingularMatrixError("adjugate of a singular matrix")
    return adj


def _identity(rows) -> list:
    """The identity matrix of rows' size, over the ring of rows[0][0]
    (``solve`` lifts it into the ring of a Polynomial entry of rows)."""
    n, one, zero = len(rows), rows[0][0] ** 0, rows[0][0] * 0
    return [[one if i == j else zero for j in range(n)] for i in range(n)]
