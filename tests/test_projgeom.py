"""Projective points, frames, exact rank, and ring-generic adjugate."""

import random
from fractions import Fraction

import pytest

from torsal import _kernel
from torsal.errors import InexactDivisionError, SingularMatrixError
from torsal.polyring import Polynomial, VarContext, det_over_ring, eliminate
from torsal.projgeom import (
    FrameMatrix,
    ProjPoint,
    adjugate,
    change_polynomial_coordinates,
    frame_bourgain,
    frame_rows,
    rank,
)


def random_fractions(rng, n):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]


class TestProjPoint:
    def test_canonical_scaling(self):
        a = ProjPoint([0, 2, -4, 6, 0])
        assert a.coords == (0, 2, -4, 6, 0)
        assert a.canonical().coords == (0, 1, -2, 3, 0)

    def test_equality_up_to_scalar(self):
        a = ProjPoint([1, 2, 3, 4, 5])
        b = ProjPoint([Fraction(-1, 2), -1, Fraction(-3, 2), -2, Fraction(-5, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != ProjPoint([1, 2, 3, 4, 6])

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            ProjPoint([0, 0, 0, 0, 0])
        with pytest.raises(ValueError):
            ProjPoint([1, 2, 3])

    def test_scaled(self):
        a = ProjPoint([2, 4, 0, 0, 0])
        assert a.scaled(3) == a


class TestFrameMatrix:
    def test_identity(self):
        ident = FrameMatrix.identity()
        assert ident.det() == 1
        assert (ident @ ident).rows == ident.rows

    def test_singular_matrix_is_rejected(self):
        rows = [[1, 0, 0, 0, 0]] * 5
        with pytest.raises(SingularMatrixError):
            FrameMatrix(rows)

    def test_seeded_inverses(self):
        rng = random.Random(77)
        built = 0
        while built < 10:
            rows = [random_fractions(rng, 5) for _ in range(5)]
            try:
                m = FrameMatrix(rows)
            except SingularMatrixError:
                continue
            built += 1
            assert (m @ m.invert()).rows == FrameMatrix.identity().rows
            assert (m.invert() @ m).rows == FrameMatrix.identity().rows


class TestBourgainFrame:
    def test_rows_at_simple_values(self):
        m = frame_bourgain(Fraction(0), Fraction(0))
        assert m.rows == FrameMatrix.identity().rows
        m = frame_bourgain(Fraction(1), Fraction(2))
        assert m.row(1) == (0, 1, -2, -1, 0)
        assert m.row(2) == (2, 0, 1, 1, 2)

    def test_determinant_is_one_for_seeded_pairs(self):
        rng = random.Random(78)
        for _ in range(10):
            p, q = random_fractions(rng, 2)
            m = frame_bourgain(p, q)
            assert m.det() == 1
            assert (m @ m.invert()).rows == FrameMatrix.identity().rows

    def test_symbolic_inverse_pattern(self):
        """det == 1 symbolically, so the adjugate IS the inverse; two of
        its rows are pinned to their expected coefficient patterns."""
        ctx = VarContext(["p", "q"])
        p, q = ctx.variables()
        frame = frame_rows(*ctx.variables())
        assert det_over_ring(frame) == 1
        inv = adjugate(frame)
        one, zero = Polynomial.one(ctx), Polynomial.zero(ctx)
        assert inv[1] == [-2 * p * q, one, 2 * p, -(p ** 2), zero]
        assert inv[2] == [-q, zero, one, -p, zero]
        n = len(frame)
        for i in range(n):
            for j in range(n):
                s = sum((frame[i][k] * inv[k][j] for k in range(n)), zero)
                assert s == (one if i == j else zero)


class TestRank:
    def test_extremes(self):
        ident = [[int(i == j) for j in range(5)] for i in range(5)]
        assert rank(ident) == 5
        assert rank([[0] * 4 for _ in range(3)]) == 0

    def test_matches_gaussian_elimination_oracle(self):
        rng = random.Random(79)
        for _ in range(30):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            m = [random_fractions(rng, ncols) for _ in range(nrows)]
            assert rank(m) == brute_rank(m)

    def test_invariance_under_scaling_and_permutation(self):
        rng = random.Random(80)
        for _ in range(20):
            m = [random_fractions(rng, 4) for _ in range(4)]
            r = rank(m)
            scaled = [
                [Fraction(rng.randint(1, 5)) * e for e in row] for row in m
            ]
            assert rank(scaled) == r
            shuffled = list(m)
            rng.shuffle(shuffled)
            assert rank(shuffled) == r

    def test_outer_product_rank(self):
        rng = random.Random(81)
        for _ in range(15):
            r = rng.randint(1, 3)
            left = [random_fractions(rng, r) for _ in range(5)]
            right = [random_fractions(rng, 5) for _ in range(r)]
            product = [
                [
                    sum(left[i][k] * right[k][j] for k in range(r))
                    for j in range(5)
                ]
                for i in range(5)
            ]
            assert rank(product) == brute_rank(product)


def brute_rank(matrix):
    m = [[Fraction(e) for e in row] for row in matrix]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [e * inv for e in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


class TestAdjugate:
    def test_two_by_two_symbolic(self):
        ctx = VarContext(["a", "b", "c", "d"])
        a, b, c, d = ctx.variables()
        adj = adjugate([[a, b], [c, d]])
        assert adj == [[d, -b], [-c, a]]

    def test_product_identity(self):
        rng = random.Random(82)
        for n in (2, 3, 4):
            for _ in range(8):
                m = [random_fractions(rng, n) for _ in range(n)]
                det = brute_det(m)
                adj = adjugate(m)
                for i in range(n):
                    for j in range(n):
                        s = sum(m[i][k] * adj[k][j] for k in range(n))
                        assert s == (det if i == j else 0)


def brute_det(matrix):
    """Leibniz-formula determinant; fine for n <= 5."""
    import itertools

    n = len(matrix)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += sign * term
    return total


def sparse_fractions(rng, n):
    """An n x n rational matrix with many zeros, often singular."""
    m = [
        [Fraction(0) if rng.random() < 0.4 else x for x in random_fractions(rng, n)]
        for _ in range(n)
    ]
    if n > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        m[i] = [c * x for x in m[j]]
    return m


class TestElimination:
    def test_det_matches_leibniz(self):
        rng = random.Random(83)
        swaps = singular = 0
        for n in (1, 2, 3, 4, 5):
            for _ in range(40):
                m = sparse_fractions(rng, n)
                det = det_over_ring(m)
                assert det == brute_det(m)
                swaps += not m[0][0]
                singular += not det
        assert swaps and singular

    def test_polynomial_det_at_points(self):
        # entries of degree up to 2 in (a, b): pivots are not units, so
        # every step divides exactly by a nonconstant previous pivot
        rng = random.Random(84)
        ctx = VarContext(["a", "b"])
        a, b = ctx.variables()
        monomials = [a ** 0, a, b, a * a, a * b, b * b]
        for n in (2, 3, 4):
            m = [
                [
                    sum(
                        (rng.randint(-3, 3) * x for x in monomials),
                        Polynomial.zero(ctx),
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            m[0][0] = Polynomial.zero(ctx)
            det = det_over_ring(m)
            for _ in range(4):
                point = random_fractions(rng, 2)
                at = [[e.evaluate(point) for e in row] for row in m]
                assert det.evaluate(point) == brute_det(at)

    def test_adjugate_times_matrix_over_polynomials(self):
        ctx = VarContext(["a", "b", "c", "d"])
        a, b, c, d = ctx.variables()
        m = [[a, b, c], [d, a * b, 0 * a], [c + d, a ** 0, b * c - d]]
        det, adj = det_over_ring(m), adjugate(m)
        zero = Polynomial.zero(ctx)
        for i in range(3):
            for j in range(3):
                expect = det if i == j else zero
                assert sum((adj[i][k] * m[k][j] for k in range(3)), zero) == expect
                assert sum((m[i][k] * adj[k][j] for k in range(3)), zero) == expect

    def test_adjugate_of_singular_matrix_is_refused(self):
        with pytest.raises(SingularMatrixError):
            adjugate([[1, 2], [2, 4]])
        with pytest.raises(SingularMatrixError):
            adjugate([[Fraction(1), 0, 0], [0, 0, 0], [0, 0, Fraction(1)]])

    def test_int_remainder_is_an_error(self):
        class OffByOne(int):
            """Products one too large: not a ring, so Bareiss stops dividing exactly."""

            def __mul__(self, other):
                return int(self) * int(other) + 1

            __rmul__ = __mul__

        rows = [[2, 3, 1], [5, 7, 2], [1, 4, 6]]
        assert eliminate([list(r) for r in rows])[1] == [0, 1, 2]
        with pytest.raises(InexactDivisionError):
            eliminate([[OffByOne(x) for x in r] for r in rows])

    def test_dense_determinant_work_grows_polynomially(self, monkeypatch):
        # a count, not a time: the elimination makes 532 products here,
        # cofactor expansion of a dense 8x8 on the order of 8! = 40,320;
        # the count stops the run as soon as it passes the bound
        calls = []
        original = _kernel.terms_mul

        def counted(*args):
            calls.append(None)
            assert len(calls) < 2000, "determinant work is not polynomial"
            return original(*args)

        monkeypatch.setattr(_kernel, "terms_mul", counted)
        rng = random.Random(85)
        ctx = VarContext(["x", "y"])
        x, y = ctx.variables()
        m = [
            [
                rng.randint(1, 9) * x + rng.randint(-9, 9) * y + rng.randint(-9, 9)
                for _ in range(8)
            ]
            for _ in range(8)
        ]
        assert det_over_ring(m)
        assert calls


class TestCoordinateChange:
    def test_linear_change_preserves_structure(self, zctx):
        z0, z1, z2, z3, z4 = zctx.variables()
        cubic = z1 * z4 ** 2 + z0 * z2 * z4 - z0 ** 2 * z3
        m = frame_bourgain(Fraction(1, 2), Fraction(-2))
        g = change_polynomial_coordinates(cubic, m)
        assert g.is_homogeneous() and g.total_degree() == 3
        back = change_polynomial_coordinates(g, m.invert())
        assert back == cubic

    def test_identity_change_is_identity(self, zctx):
        f = zctx.variable("z1") ** 2 - zctx.variable("z0") * zctx.variable("z4")
        assert change_polynomial_coordinates(f, FrameMatrix.identity()) == f
