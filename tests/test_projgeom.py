"""Projective points, frames, exact rank, and ring-generic adjugate."""

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from conftest import make_random_homogeneous
from torsal import _kernel, polyring, projgeom
from torsal.errors import InexactDivisionError, SingularMatrixError
from torsal.polyring import Polynomial, VarContext, det_over_ring, eliminate, solve
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


def nonzero_fraction(rng, max_den):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, max_den))


IDENTITY = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))


def matmul(a, b):
    """The 5x5 matrix product a . b, as rows."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(5)) for j in range(5))
        for i in range(5)
    )


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
        assert ProjPoint([3 * c for c in a.coords]) == a


class TestFrameMatrix:
    def test_identity(self):
        ident = FrameMatrix(IDENTITY)
        assert det_over_ring(ident.rows) == 1
        assert matmul(ident.rows, ident.rows) == ident.rows

    def test_singular_matrix_is_rejected(self):
        rows = [[1, 0, 0, 0, 0]] * 5
        with pytest.raises(SingularMatrixError):
            FrameMatrix(rows)

    def test_scaled_duplicate_rational_row_is_rejected(self):
        # the invertibility check clears each row's denominators before it
        # eliminates; a row that is another scaled by 3/7 must still show
        rows = [
            [Fraction(1, 2), Fraction(2, 3), 0, Fraction(-5, 4), 1],
            [0, 1, Fraction(3, 5), 0, Fraction(1, 6)],
            [Fraction(3, 14), Fraction(2, 7), 0, Fraction(-15, 28), Fraction(3, 7)],
            [0, 0, 1, Fraction(7, 9), 0],
            [Fraction(1, 3), 0, 0, 0, Fraction(2, 11)],
        ]
        with pytest.raises(SingularMatrixError, match="frame matrix has determinant 0"):
            FrameMatrix(rows)
        rows[2][4] += Fraction(1, 1000)
        assert det_over_ring(FrameMatrix(rows).rows) == brute_det(rows)

    def test_det_matches_leibniz_on_rational_frames(self):
        rng = random.Random(78)
        built = 0
        while built < 30:
            rows = [random_fractions(rng, 5) for _ in range(5)]
            if not brute_det(rows):
                with pytest.raises(SingularMatrixError):
                    FrameMatrix(rows)
                continue
            built += 1
            assert det_over_ring(FrameMatrix(rows).rows) == brute_det(rows)

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
            assert matmul(m.rows, m.invert().rows) == IDENTITY
            assert matmul(m.invert().rows, m.rows) == IDENTITY


    def test_dense_inverses_match_gauss_jordan(self):
        rng = random.Random(80)
        built = 0
        while built < 10:
            rows = [
                [Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 60))
                 for _ in range(5)]
                for _ in range(5)
            ]
            inverse = brute_inverse(rows)
            if inverse is None:
                continue
            built += 1
            m = FrameMatrix(rows)
            assert m.invert().rows == inverse
            assert matmul(m.rows, m.invert().rows) == IDENTITY

    def test_invert_eliminates_twice(self, monkeypatch):
        # the [M | I] pass, then the result's invertibility check; the
        # determinant is read off the pass, not eliminated again
        calls = []

        def counting(rows):
            calls.append(len(rows))
            return eliminate(rows)

        monkeypatch.setattr(polyring, "eliminate", counting)
        monkeypatch.setattr(projgeom, "eliminate", counting)
        rng = random.Random(81)
        m = FrameMatrix([random_fractions(rng, 5) for _ in range(5)])
        calls.clear()
        m.invert()
        assert calls == [5, 5]


def brute_inverse(rows):
    """Fraction Gauss-Jordan on [M | I]; None for a singular M."""
    n = len(rows)
    m = [
        [Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
        for i, r in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [e * inv for e in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return tuple(tuple(r[n:]) for r in m)


class TestBourgainFrame:
    def test_rows_at_simple_values(self):
        m = frame_bourgain(Fraction(0), Fraction(0))
        assert m.rows == IDENTITY
        m = frame_bourgain(Fraction(1), Fraction(2))
        assert m.rows[1] == (0, 1, -2, -1, 0)
        assert m.rows[2] == (2, 0, 1, 1, 2)

    def test_determinant_is_one_for_seeded_pairs(self):
        rng = random.Random(78)
        for _ in range(10):
            p, q = random_fractions(rng, 2)
            m = frame_bourgain(p, q)
            assert det_over_ring(m.rows) == 1
            assert matmul(m.rows, m.invert().rows) == IDENTITY

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

    def test_int_fraction_and_mixed_rows_agree(self):
        # an int row is eliminated as it is, a row with a Fraction is
        # cleared first; scaling a row by a nonzero rational keeps the rank
        rng = random.Random(82)
        for _ in range(60):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            ints = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.5:
                ints[-1] = [2 * x - y for x, y in zip(ints[0], ints[1 % (nrows - 1)])]
            want = brute_rank(ints)
            copy = [list(row) for row in ints]
            fracs = [[Fraction(x, 1) for x in row] for row in ints]
            mixed = [
                [Fraction(x) if rng.random() < 0.5 else x for x in row] for row in ints
            ]
            scaled = [
                [Fraction(x, d) for x in row] if rng.random() < 0.5 else row
                for row in ints
                for d in (rng.randint(2, 9),)
            ]
            for m in (ints, fracs, mixed, scaled):
                assert rank(m) == want
            assert ints == copy

    @pytest.mark.parametrize("bad", [0.5, 2.0, "3", None])
    def test_entry_not_int_or_fraction_is_a_type_error(self, bad):
        message = f"rational entry expected, got {type(bad).__name__}"
        for row in ([bad, 1], [1, bad], [Fraction(1, 2), bad]):
            with pytest.raises(TypeError, match=message):
                rank([[1, 2], row])


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

    def test_constant_beside_polynomial_entries(self):
        # the pivot 2 divides a polynomial, and a constant is divided by a
        # polynomial pivot: both stay exact over Q[x]
        x, = VarContext(["x"]).variables()
        m = [[2, x], [x, 1]]
        det, adj = det_over_ring(m), adjugate(m)
        assert det == 2 - x * x
        for i in range(2):
            for j in range(2):
                want = det if i == j else 0
                assert sum(adj[i][k] * m[k][j] for k in range(2)) == want

    def test_results_lie_in_the_ring_of_the_first_polynomial_entry(self):
        # not in that of rows[0][0]: an int there gave an int identity,
        # and an int zero for a singular matrix
        x, = VarContext(["x"]).variables()
        adj = adjugate([[2, x], [x, 1]])
        assert adj == [[1, -x], [-x, 2]]
        assert all(isinstance(e, Polynomial) for r in adj for e in r)
        for m in ([[0, x], [0, 1]], [[0, 0], [x, 1]]):
            det = det_over_ring(m)
            assert isinstance(det, Polynomial) and det.is_zero()
            assert solve(m, [[1], [x]]) == (det, None)
        # an entry of B that the elimination never touches is lifted too
        det, xs = solve([[1, 0], [0, x]], [[5], [0]])
        assert (det, xs) == (x, [[5 * x], [0]])
        assert isinstance(xs[1][0], Polynomial)

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

    def test_int_matrix_takes_the_int_quotient_once_per_call(self, monkeypatch):
        # an int matrix never reaches the per-entry dispatch, and an inexact
        # int quotient on that path is still an error, not a floored value
        def per_entry(x, d):
            raise AssertionError("per-entry quotient on an int matrix")

        class OffByOne(int):
            def __mul__(self, other):
                return int(self) * int(other) + 1

            __rmul__ = __mul__

        monkeypatch.setattr(polyring, "_exact_quotient", per_entry)
        rows = [[2, 3, 1], [5, 7, 2], [1, 4, 6]]
        assert det_over_ring(rows) == -3
        with pytest.raises(InexactDivisionError):
            eliminate([[OffByOne(x) for x in r] for r in rows])
        with pytest.raises(AssertionError, match="per-entry"):
            eliminate([[Fraction(x) for x in r] for r in rows])

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


AB = VarContext(["a", "b"])
MONOMIALS = [
    AB.variable("a") ** i * AB.variable("b") ** j for i in range(3) for j in range(3 - i)
]
KINDS = ("int", "fraction", "polynomial", "mixed")


def seeded_entry(rng, kind):
    """One entry of the kind, zero one time in three: an int, a Fraction, a
    Polynomial of degree <= 2 in (a, b), or (mixed) an int or a Polynomial."""
    if kind == "mixed":
        kind = rng.choice(("int", "polynomial"))
    zero = rng.random() < 0.3
    if kind == "int":
        return 0 if zero else rng.randint(-5, 5)
    if kind == "fraction":
        return Fraction(0) if zero else Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    terms = [] if zero else rng.sample(MONOMIALS, 3)
    return sum((rng.randint(-3, 3) * t for t in terms), Polynomial.zero(AB))


def seeded_system(rng, n, kind):
    """(M, B): M n x n, singular one time in four (a row a multiple of
    another), and B n x k for k in 0..3, both of the kind."""
    m = [[seeded_entry(rng, kind) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.25:
        i, j = rng.sample(range(n), 2)
        m[i] = [rng.randint(-2, 2) * x for x in m[j]]
    k = rng.randint(0, 3)
    return m, [[seeded_entry(rng, kind) for _ in range(k)] for _ in range(n)]


def at(x, point):
    """x at the point (a, b), as a Fraction."""
    return x.evaluate(point) if isinstance(x, Polynomial) else Fraction(x)


def outside_the_ring(rows, values) -> bool:
    """Whether rows has a Polynomial entry but some value is not one."""
    return any(isinstance(e, Polynomial) for r in rows for e in r) and not all(
        isinstance(v, Polynomial) for v in values
    )


def solve_mismatches(m, b, points):
    """What solve(m, b) gets wrong against the Fraction references
    (Leibniz ``brute_det``, Gauss-Jordan ``brute_inverse``) at the points,
    against M . X = det . B in the ring, and in the ring of its results;
    [] when nothing."""
    n, k = len(m), len(b[0]) if b else 0
    det, x = solve(m, b)
    wrong = []
    if outside_the_ring([*m, *b], [det, *(e for r in x or () for e in r)]):
        wrong.append("a result lies outside the ring of a Polynomial entry")
    if x is None:
        if det != 0:
            wrong.append(f"no solution beside the nonzero det {det}")
    elif any(
        sum(m[i][t] * x[t][j] for t in range(n)) != det * b[i][j]
        for i in range(n) for j in range(k)
    ):
        wrong.append("M . X != det . B")
    for point in points:
        m_at = [[at(e, point) for e in r] for r in m]
        det_at = brute_det(m_at)
        if at(det, point) != det_at:
            wrong.append(f"det at {point} is not {det_at}")
        inverse = brute_inverse(m_at)
        if x is None or inverse is None:
            continue
        want = [
            [det_at * sum(inverse[i][t] * at(b[t][j], point) for t in range(n))
             for j in range(k)]
            for i in range(n)
        ]
        if [[at(e, point) for e in r] for r in x] != want:
            wrong.append(f"adj . B at {point} is not det . M^-1 . B")
    return wrong


class TestSolve:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_the_fraction_references(self, kind):
        rng = random.Random(86)
        singular = 0
        for n in (1, 2, 3, 4):
            for _ in range(12):
                m, b = seeded_system(rng, n, kind)
                points = [random_fractions(rng, 2) for _ in range(2)]
                assert solve_mismatches(m, b, points) == []
                singular += solve(m, b)[1] is None
        assert singular

    @pytest.mark.parametrize("kind", KINDS)
    def test_identity_gives_determinant_and_adjugate(self, kind):
        rng = random.Random(87)
        for n in (2, 3, 4):
            m = seeded_system(rng, n, kind)[0]
            det, adj = solve(m, [[int(i == j) for j in range(n)] for i in range(n)])
            assert det == det_over_ring(m)
            if adj is None:
                with pytest.raises(SingularMatrixError):
                    adjugate(m)
            else:
                assert adj == adjugate(m)

    def test_singular_matrix_gives_zero_and_none(self):
        a, b = AB.variables()
        singular = ([[1, 2], [2, 4]], [[Fraction(0), 0], [0, 1]], [[a, b], [2 * a, 2 * b]])
        for m in singular:
            det, x = solve(m, [[1], [1]])
            assert det == 0 and x is None

    @pytest.mark.parametrize("b", [[[1]], [[1]] * 3, [[5, 7], [3]], [[5], [3, 7]]])
    def test_right_hand_side_of_another_shape_is_refused(self, b):
        # zip would drop the extra rows or entries and answer wrongly
        with pytest.raises(ValueError, match="2 right-hand rows of one length"):
            solve([[2, 1], [1, 1]], b)

    @pytest.mark.parametrize("m", [[], [[1, 2, 3], [4, 5, 6]], [[1, 2], [3]]])
    def test_matrix_that_is_not_square_is_refused(self, m):
        with pytest.raises(ValueError, match="non-empty square"):
            solve(m, [[1]] * len(m))
        with pytest.raises(ValueError, match="non-empty square"):
            det_over_ring(m)

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
        assert change_polynomial_coordinates(f, FrameMatrix(IDENTITY)) == f

    def test_seeded_rational_frames_match_the_value_at_a_point(self, zctx):
        # g = f(M . v): g at a point v is f at the point M . v, computed here
        # in Fractions from f's terms; every fourth f is a full quartic
        quartic = [e for e in product(range(5), repeat=5) if sum(e) == 4]
        assert len(quartic) == 70
        rng = random.Random(1415)
        for case in range(100):
            while True:
                rows = [[nonzero_fraction(rng, 4) for _ in range(5)] for _ in range(5)]
                if rank(rows) == 5:
                    break
            if case % 4 == 0:
                f = Polynomial(zctx, {e: nonzero_fraction(rng, 5) for e in quartic})
            else:
                f = make_random_homogeneous(rng, zctx, rng.randint(1, 4), max_terms=12)
            point = random_fractions(rng, 5)
            image = [sum(x * v for x, v in zip(row, point)) for row in rows]
            want = sum(
                c * prod(x ** e for x, e in zip(image, mono.exponents))
                for mono, c in f.sorted_terms()
            )
            g = change_polynomial_coordinates(f, FrameMatrix(rows))
            assert g.evaluate(point) == want
            assert g.is_homogeneous() and g.total_degree() == f.total_degree()
