"""Ring, calculus, and elimination primitives."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import make_random_homogeneous, make_random_polynomial
from torsal import _kernel
from torsal.errors import (
    ContextMismatchError,
    DegreeError,
    InexactDivisionError,
    MissingAssignmentError,
    UnknownVariableError,
)
from torsal.polyring import (
    Monomial,
    Polynomial,
    VarContext,
    content,
    discriminant,
    equal_up_to_scalar,
    format_polynomial,
    primitive_part,
    sylvester_resultant,
)
from torsal.projgeom import FrameMatrix, change_polynomial_coordinates, rank
from torsal.ruled import LineFamily, envelope


class TestContext:
    def test_names_are_validated(self):
        with pytest.raises(ValueError):
            VarContext(["2bad"])
        with pytest.raises(ValueError):
            VarContext(["x", "x"])
        with pytest.raises(ValueError):
            VarContext([])

    def test_lookup(self):
        ctx = VarContext(["p", "lam"])
        assert ctx.index("lam") == 1
        with pytest.raises(UnknownVariableError):
            ctx.index("q")

    def test_variable_accessors(self):
        ctx = VarContext(["x", "y"])
        x, y = ctx.variables()
        assert x == ctx.variable("x")
        assert (x * y).total_degree() == 2


class TestConstruction:
    def test_like_terms_merge_and_zeros_drop(self):
        ctx = VarContext(["x", "y"])
        f = Polynomial(ctx, {(1, 0): Fraction(1, 2), Monomial((1, 0)): Fraction(1, 2)})
        assert f == ctx.variable("x")
        assert Polynomial(ctx, {(2, 1): 0}).is_zero()

    def test_exponent_validation(self):
        ctx = VarContext(["x", "y"])
        with pytest.raises(ValueError):
            Polynomial(ctx, {(1,): 1})
        with pytest.raises(ValueError):
            Polynomial(ctx, {(1, -1): 1})

    def test_terms_are_stored_in_descending_order(self):
        rng = random.Random(31)
        ctx = VarContext(["x", "y", "z"])
        for _ in range(20):
            f = make_random_polynomial(rng, ctx)
            monos = [m for m, _ in f.sorted_terms()]
            assert monos == sorted(monos, reverse=True)

    def test_scalar_equality(self):
        ctx = VarContext(["x"])
        assert Polynomial.constant(ctx, Fraction(3, 4)) == Fraction(3, 4)
        assert Polynomial.zero(ctx) == 0
        assert Polynomial.one(ctx) != 2


class TestRingAxioms:
    def test_seeded_identities(self, rand_poly):
        rng = random.Random(57)
        ctx = VarContext(["x", "y", "z"])
        for _ in range(25):
            f = rand_poly(rng, ctx)
            g = rand_poly(rng, ctx)
            h = rand_poly(rng, ctx)
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + (-f) == 0
            assert f - g == f + (-g)
            assert 1 * f == f and 0 * f == 0

    def test_scalar_promotion(self):
        ctx = VarContext(["x"])
        x = ctx.variable("x")
        assert 2 * x + x == 3 * x
        assert Fraction(1, 2) * x * 2 == x
        assert (x + 1) - 1 == x
        assert (x / 2) * 2 == x
        with pytest.raises(ZeroDivisionError):
            x / 0

    def test_pow(self):
        ctx = VarContext(["x", "y"])
        x, y = ctx.variables()
        assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2
        assert (x + y) ** 0 == 1
        with pytest.raises(ValueError):
            (x + y) ** -1

    def test_cross_context_operations_are_rejected(self):
        a = VarContext(["x"]).variable("x")
        b = VarContext(["y"]).variable("y")
        with pytest.raises(ContextMismatchError):
            a + b


class TestCalculus:
    def test_leibniz_and_commuting_partials(self, rand_poly):
        rng = random.Random(58)
        ctx = VarContext(["x", "y", "z"])
        for _ in range(20):
            f = rand_poly(rng, ctx)
            g = rand_poly(rng, ctx)
            fg = f * g
            assert fg.partial_derivative("x") == (
                f.partial_derivative("x") * g + f * g.partial_derivative("x")
            )
            assert (
                f.partial_derivative("x").partial_derivative("y")
                == f.partial_derivative("y").partial_derivative("x")
            )

    def test_euler_identity_for_homogeneous(self, rand_homog):
        rng = random.Random(59)
        ctx = VarContext(["x", "y", "z"])
        for _ in range(20):
            d = rng.randint(1, 4)
            f = rand_homog(rng, ctx, d)
            euler = sum(
                (ctx.variable(n) * f.partial_derivative(n) for n in ctx.names),
                Polynomial.zero(ctx),
            )
            assert euler == d * f

    def test_constants_differentiate_to_zero(self):
        ctx = VarContext(["x"])
        assert Polynomial.constant(ctx, 5).partial_derivative("x").is_zero()


class TestSubstitution:
    def test_is_ring_homomorphism(self, rand_poly):
        rng = random.Random(60)
        src = VarContext(["x", "y"])
        dst = VarContext(["s", "t"])
        for _ in range(15):
            f = rand_poly(rng, src, max_terms=4, max_exp=2)
            g = rand_poly(rng, src, max_terms=4, max_exp=2)
            images = {
                "x": rand_poly(rng, dst, max_terms=3, max_exp=2),
                "y": rand_poly(rng, dst, max_terms=3, max_exp=2),
            }
            sub = lambda h: h.substitute(images, target_context=dst)  # noqa: E731
            assert sub(f + g) == sub(f) + sub(g)
            assert sub(f * g) == sub(f) * sub(g)

    def test_evaluate_matches_substitute(self, rand_poly):
        rng = random.Random(61)
        ctx = VarContext(["x", "y", "z"])
        for _ in range(25):
            f = rand_poly(rng, ctx)
            point = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
            via_sub = f.substitute(dict(zip(ctx.names, point)), target_context=ctx)
            assert via_sub.is_constant()
            assert via_sub.constant_value() == f.evaluate(point)

    def test_evaluate_takes_int_or_fraction_only(self):
        ctx = VarContext(["x", "y"])
        x, y = ctx.variables()
        f = 3 * x * y - y / 2
        assert f.evaluate([2, 5]) == f.evaluate([Fraction(2), Fraction(5)])
        assert f.evaluate([Fraction(1, 3), 4]) == 2
        for bad in (0.1, "1/3", Decimal("0.1")):
            with pytest.raises(TypeError, match=type(bad).__name__):
                f.evaluate([bad, 1])

    def test_missing_assignment(self):
        ctx = VarContext(["x", "y"])
        f = ctx.variable("x") * ctx.variable("y")
        with pytest.raises(MissingAssignmentError):
            f.substitute({"x": 1}, target_context=ctx)

    def test_identity_substitution(self, rand_poly):
        rng = random.Random(62)
        ctx = VarContext(["x", "y"])
        for _ in range(10):
            f = rand_poly(rng, ctx)
            assert f.substitute({n: ctx.variable(n) for n in ctx.names}) == f


# -- substitution against the per-term algorithm it replaced ----------------


def per_term_substitute(f, images, target):
    """f's image term by term: each term is expanded on its own, from a
    list of every power of each image up to the largest exponent used."""
    powers = {}
    for name in f.variables_present():
        img = images[name]
        if not isinstance(img, Polynomial):
            img = Polynomial.constant(target, img)
        powers[f.context.index(name)] = [{0: (1, 1)}, img._terms]

    def power_of(i, e):
        cache = powers[i]
        while len(cache) <= e:
            cache.append(_kernel.terms_mul(cache[-1], cache[1]))
        return cache[e]

    acc = {}
    for key, pair in f._terms.items():
        term = {0: pair}
        for i, s in enumerate(f.context._shifts):
            e = (key >> s) & _kernel.MASK
            if e:
                term = _kernel.terms_mul(term, power_of(i, e))
        _kernel.add_into(acc, term)
    return Polynomial._make(target, acc)


def count_products(monkeypatch):
    """Term products made by kernel multiplication from here on, also
    those inside terms_pow."""
    products = []
    mul = _kernel.terms_mul

    def counting_mul(a, b):
        products.append(len(a) * len(b))
        return mul(a, b)

    monkeypatch.setattr(_kernel, "terms_mul", counting_mul)
    return products


def random_image(rng, kind, ctx):
    if kind == "int":
        return rng.randint(-3, 3)
    if kind == "fraction":
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    if kind == "zero":
        return Polynomial.zero(ctx)
    if kind == "monomial":
        exps = tuple(rng.randint(0, 2) for _ in ctx.names)
        return Polynomial(ctx, {exps: Fraction(rng.randint(1, 5), rng.randint(1, 3))})
    return make_random_polynomial(rng, ctx, max_terms=3, max_exp=1, nonzero=True)


def random_sparse(rng, ctx, max_terms, max_degree):
    """Up to max_terms rational terms, each of total degree <= max_degree."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * len(ctx.names)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(exps))] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Polynomial(ctx, terms)


class TestHornerSubstitution:
    KINDS = ("int", "fraction", "zero", "monomial", "dense", "dense")

    def test_seeded_substitutions_match_the_per_term_algorithm(self):
        rng = random.Random(1414)
        zeros = 0
        for case in range(600):
            src = VarContext([f"x{i}" for i in range(rng.randint(1, 6))])
            dst = VarContext([f"t{i}" for i in range(rng.randint(1, 5))])
            if rng.random() < 0.3:  # many shared prefixes for Horner to fold
                f = random_sparse(rng, src, max_terms=24, max_degree=5)
            else:
                f = random_sparse(rng, src, max_terms=6, max_degree=12)
            images = {
                name: random_image(rng, rng.choice(self.KINDS), dst)
                for name in src.names
                if name in f.variables_present() or rng.random() < 0.5
            }
            if case % 10 == 0 and len(src) > 1:
                # x0 and x1 share an image, so g(x0) - g(x1) cancels to zero
                g = random_sparse(rng, VarContext(["x0"]), max_terms=4, max_degree=12)
                f = g.substitute({"x0": src.variable("x0")}, src)
                f = f - g.substitute({"x0": src.variable("x1")}, src)
                images["x0"] = images["x1"] = random_image(rng, "dense", dst)
            got = f.substitute(images, target_context=dst)
            assert got == per_term_substitute(f, images, dst), (f, images)
            zeros += got.is_zero()
        assert zeros > 60

    def test_large_exponents_make_few_products(self, monkeypatch):
        # every power of each image up to the 800th, kept by the per-term
        # algorithm, made 1,284,800 term products here
        ctx = VarContext(["x", "y"])
        x, y = ctx.variables()
        f = x ** 800 * y + y ** 800
        want = (x + 1) ** 800 * (y - x) + (y - x) ** 800
        products = count_products(monkeypatch)
        assert f.substitute({"x": x + 1, "y": y - x}) == want
        assert sum(products) <= 20_000

    def test_quartic_coordinate_change_makes_under_half_the_products(self, monkeypatch):
        # a 12-term quartic under a dense 5x5 frame, as in the benchmark's
        # frame-quartic op: the per-term algorithm makes 3,105 term products
        rng = random.Random(1400)
        while True:
            rows = [
                [rng.choice([-1, 1]) * rng.randint(1, 3) for _ in range(5)]
                for _ in range(5)
            ]
            if rank(rows) == 5:
                break
        zctx = VarContext(["z0", "z1", "z2", "z3", "z4"])
        terms = {}
        while len(terms) < 12:
            exps = [0] * 5
            for _ in range(4):
                exps[rng.randrange(5)] += 1
            terms[tuple(exps)] = rng.choice([-1, 1]) * rng.randint(1, 9)
        f = Polynomial(zctx, terms)
        m = FrameMatrix(rows)
        forms = {
            name: Polynomial(zctx, {
                tuple(int(k == j) for k in range(5)): x for j, x in enumerate(row)
            })
            for name, row in zip(zctx.names, rows)
        }
        products = count_products(monkeypatch)
        g = change_polynomial_coordinates(f, m)
        horner = sum(products)
        products.clear()
        assert per_term_substitute(f, forms, zctx) == g
        assert (horner, sum(products)) == (1323, 3105)

    def test_identity_on_a_wide_context_needs_no_deep_stack(self):
        ctx = VarContext([f"v{i}" for i in range(1500)])
        f = Polynomial(ctx, {(1,) * 1500: Fraction(-2, 3)})
        assert f.substitute({n: ctx.variable(n) for n in ctx.names}) == f

    def test_checks_fire_before_any_product(self, monkeypatch):
        ctx = VarContext(["x", "y"])
        other = VarContext(["s"])
        x, y = ctx.variables()
        xy = x * y
        f = Polynomial(ctx, {(3, 1): 2, (0, 2): -1})
        top = Polynomial(ctx, {(_kernel.DEGREE_LIMIT - 1, 0): 1})

        def refuse(*args):
            raise AssertionError("a product before the checks")

        monkeypatch.setattr(_kernel, "terms_mul", refuse)
        monkeypatch.setattr(_kernel, "terms_pow", refuse)
        with pytest.raises(UnknownVariableError):
            f.substitute({"x": x, "y": y, "z": x})
        with pytest.raises(ContextMismatchError):
            f.substitute({"x": x, "y": other.variable("s")})
        with pytest.raises(MissingAssignmentError):
            f.substitute({"x": x})
        with pytest.raises(ValueError, match="at least one polynomial image"):
            f.substitute({"x": 1, "y": 2})
        with pytest.raises(DegreeError):
            top.substitute({"x": xy, "y": y})


class TestHomogenize:
    def test_round_trip(self, rand_poly):
        rng = random.Random(63)
        ctx = VarContext(["x", "y"])
        for _ in range(20):
            f = rand_poly(rng, ctx, nonzero=True)
            g = f.homogenize("w", f.total_degree())
            assert g.is_homogeneous()
            assert g.context.names == ("w", "x", "y")
            assert g.dehomogenize("w") == f

    def test_degree_too_small_is_rejected(self):
        ctx = VarContext(["x"])
        f = ctx.variable("x") ** 2
        with pytest.raises(DegreeError):
            f.homogenize("w", 1)

    def test_dehomogenize_merges_collisions(self):
        ctx = VarContext(["w", "x"])
        w, x = ctx.variables()
        assert (w * x + x).dehomogenize("w") == VarContext(["x"]).variable("x") * 2

    def test_dehomogenize_by_the_only_variable_names_it(self):
        x = VarContext(["x"]).variable("x")
        with pytest.raises(ValueError, match="by 'x': it is the context's only variable"):
            (x ** 2 + 1).dehomogenize("x")

    def test_rename(self):
        ctx = VarContext(["x", "y"])
        f = ctx.variable("x") + 2 * ctx.variable("y")
        g = f.rename(("u", "v"))
        uv = VarContext(["u", "v"])
        assert g == uv.variable("u") + 2 * uv.variable("v")


class TestExponentViews:
    """Views that unpack monomial keys, against the exponent tuples given."""

    def random_terms(self, rng, nvars):
        terms = {}
        for _ in range(rng.randint(1, 8)):
            exps = tuple(rng.randint(0, 5) for _ in range(nvars))
            terms[exps] = Fraction(rng.choice([-7, -2, 1, 3, 5]), rng.randint(1, 4))
        return terms

    def test_views_match_the_exponent_tuples(self):
        rng = random.Random(64)
        for _ in range(40):
            nvars = rng.randint(1, 5)
            ctx = VarContext([f"v{i}" for i in range(nvars)])
            terms = self.random_terms(rng, nvars)
            f = Polynomial(ctx, terms)
            assert dict(f.sorted_terms()) == {Monomial(e): c for e, c in terms.items()}
            for e, c in terms.items():
                assert f.coefficient(e) == c
            assert f.coefficient((9,) * nvars) == 0
            assert f.coefficient((1,) * (nvars + 1)) == 0
            assert f.total_degree() == max(sum(e) for e in terms)
            assert f.leading_monomial() == max(Monomial(e) for e in terms)
            assert f.leading_coefficient() == terms[f.leading_monomial().exponents]
            i = rng.randrange(nvars)
            name = ctx.names[i]
            assert f.degree_in(name) == max(e[i] for e in terms)
            assert set(f.variables_present()) == {
                ctx.names[j] for j in range(nvars) if any(e[j] for e in terms)
            }
            derivative = {}
            for e, c in terms.items():
                if e[i]:
                    key = e[:i] + (e[i] - 1,) + e[i + 1:]
                    derivative[key] = c * e[i]
            assert f.partial_derivative(name) == Polynomial(ctx, derivative)
            for k, coeff in enumerate(f.coefficients_in(name)):
                assert coeff == Polynomial(ctx, {
                    e[:i] + (0,) + e[i + 1:]: c for e, c in terms.items() if e[i] == k
                })
            if nvars > 1:
                dropped = VarContext(ctx.names[:i] + ctx.names[i + 1:])
                collapsed = {}
                for e, c in terms.items():
                    key = e[:i] + e[i + 1:]
                    collapsed[key] = collapsed.get(key, 0) + c
                assert f.dehomogenize(name) == Polynomial(dropped, collapsed)

    def test_order_is_canonical_whatever_the_construction_order(self):
        ctx = VarContext(["x", "y", "z"])
        x, y, z = ctx.variables()
        forward = (x + y + z) ** 3 - 2 * x * y * z
        backward = -2 * z * y * x + (z + y + x) * (z + x + y) * (y + z + x)
        assert forward == backward and hash(forward) == hash(backward)
        assert format_polynomial(forward) == format_polynomial(backward)
        assert forward.sorted_terms() == backward.sorted_terms()
        assert forward.leading_monomial() == Monomial((3, 0, 0))


class TestResultant:
    def test_linear_pair_symbolic(self):
        ctx = VarContext(["p", "a", "b"])
        p, a, b = ctx.variables()
        assert sylvester_resultant(p - a, p - b, "p") == a - b

    def test_value_via_product_formula(self):
        # Res(f, g) = lc(f)^deg g * prod g(roots of f) for split f
        ctx = VarContext(["x"])
        x = ctx.variable("x")
        f = (x - 1) * (x - 2)
        g = x - 3
        assert sylvester_resultant(f, g, "x") == (1 - 3) * (2 - 3)

    def test_multiplicative_in_second_argument(self, rand_poly):
        rng = random.Random(64)
        ctx = VarContext(["x"])
        for _ in range(15):
            f, g, h = (
                make_nonconstant(rng, ctx) for _ in range(3)
            )
            lhs = sylvester_resultant(f, g * h, "x")
            rhs = sylvester_resultant(f, g, "x") * sylvester_resultant(f, h, "x")
            assert lhs == rhs

    def test_shared_root_gives_zero(self):
        ctx = VarContext(["x"])
        x = ctx.variable("x")
        f = (x - 2) * (x + 5)
        g = (x - 2) * (x - 7)
        assert sylvester_resultant(f, g, "x") == 0

    def test_constant_arguments_are_rejected(self):
        ctx = VarContext(["x"])
        x = ctx.variable("x")
        with pytest.raises(DegreeError):
            sylvester_resultant(x, Polynomial.one(ctx), "x")

    def test_discriminant_of_quadratic(self):
        ctx = VarContext(["p", "a", "b", "c"])
        p, a, b, c = ctx.variables()
        q = a * p ** 2 + b * p + c
        assert discriminant(q, "p") == b ** 2 - 4 * a * c
        with pytest.raises(DegreeError):
            discriminant(p ** 3, "p")

    def test_discriminant_detects_double_root(self):
        ctx = VarContext(["x"])
        x = ctx.variable("x")
        assert discriminant((2 * x - 3) ** 2, "x") == 0
        assert discriminant((x - 1) * (x - 2), "x") == 1


def fraction_product(f, g):
    """f * g computed on {exponents: Fraction} dicts, outside the kernel."""
    out = {}
    for m1, c1 in f.sorted_terms():
        for m2, c2 in g.sorted_terms():
            e = tuple(x + y for x, y in zip(m1.exponents, m2.exponents))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return Polynomial(f.context, out)


def random_integer_polynomial(rng, ctx, max_terms=6, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in ctx.names)
        terms[exps] = rng.randint(-9, 9)
    return Polynomial(ctx, terms)


class TestExactDivision:
    def test_recovers_the_cofactor(self):
        rng = random.Random(71)
        ctx = VarContext(["x", "y", "z"])
        for i in range(60):
            if i % 2:
                q = random_integer_polynomial(rng, ctx)
                b = random_integer_polynomial(rng, ctx)
            else:
                q = make_random_polynomial(rng, ctx)
                b = make_random_polynomial(rng, ctx)
            if b.is_zero():
                continue
            assert fraction_product(q, b).exact_div(b) == q

    def test_constant_divisor_and_zero_dividend(self):
        rng = random.Random(72)
        ctx = VarContext(["x", "y"])
        for _ in range(20):
            f = make_random_polynomial(rng, ctx)
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([-1, 1])
            assert f.exact_div(Polynomial.constant(ctx, c)) == f / c
            assert Polynomial.zero(ctx).exact_div(f + 1) == 0

    def test_refusals(self):
        ctx = VarContext(["x", "y"])
        x, y = ctx.variables()
        with pytest.raises(InexactDivisionError):
            (x ** 2 + 1).exact_div(x)  # a remainder is left
        with pytest.raises(InexactDivisionError):
            (x * y ** 2).exact_div(x ** 2)  # leading monomial not a multiple
        with pytest.raises(ZeroDivisionError):
            x.exact_div(Polynomial.zero(ctx))
        with pytest.raises(ContextMismatchError):
            x.exact_div(VarContext(["x"]).variable("x"))


def det_fraction(rows):
    """Determinant of a rational matrix by Gaussian elimination."""
    a = [[Fraction(v) for v in row] for row in rows]
    n, det = len(a), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            a[r] = [u - factor * v for u, v in zip(a[r], a[col])]
    return det


def numeric_sylvester(f, g, var, point):
    """Sylvester determinant of f and g in `var` with the other variables
    set to `point` (a value for every context variable; var's is unused).
    Both rows keep their formal length, so a vanishing leading coefficient
    specialises the determinant and nothing else."""
    fc = [c.evaluate(point) for c in reversed(f.coefficients_in(var))]
    gc = [c.evaluate(point) for c in reversed(g.coefficients_in(var))]
    m, n = len(fc) - 1, len(gc) - 1
    rows = [[0] * i + fc + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + gc + [0] * (m - 1 - i) for i in range(m)]
    return det_fraction(rows)


def random_in_x(rng, ctx, degree):
    """Random polynomial of exact degree `degree` in x, rational
    coefficients in the other variables."""
    others = len(ctx.names) - 1
    f = Polynomial.zero(ctx)
    while f.degree_in("x") != degree:
        terms = {}
        for k in range(degree + 1):
            for _ in range(rng.randint(0, 2)):
                exps = (k,) + tuple(rng.randint(0, 2) for _ in range(others))
                terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        f = Polynomial(ctx, terms)
    return f


def dense_line_family(rng, degree):
    """sum_k p^k (a_k z1 + b_k z2 + c_k z3) with nonzero integer a, b, c."""
    ctx = VarContext(["p", "z1", "z2", "z3"])
    terms = {}
    for k in range(degree + 1):
        for j in range(3):
            exps = [k, 0, 0, 0]
            exps[1 + j] = 1
            terms[tuple(exps)] = rng.choice([-1, 1]) * rng.randint(1, 9)
    return LineFamily(Polynomial(ctx, terms), "p")


class TestResultantAgainstSylvesterDeterminant:
    def test_random_pairs_at_rational_points(self):
        rng = random.Random(73)
        ctx = VarContext(["x", "a", "b"])
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(1, 4)  # m < n, m = n and m > n
            f, g = random_in_x(rng, ctx, m), random_in_x(rng, ctx, n)
            res = sylvester_resultant(f, g, "x")
            for _ in range(3):
                point = [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                               for _ in range(2)]
                assert res.evaluate(point) == numeric_sylvester(f, g, "x", point)

    def test_degree_one_inputs_and_swapped_arguments(self):
        ctx = VarContext(["x", "a", "b", "c"])
        x, a, b, c = ctx.variables()
        line = b * x - a
        cubic = x ** 3 + c * x - 1
        # Res(b*x - a, h) = b^deg(h) * h(a/b); (-1)^(1*3) for the swap
        assert sylvester_resultant(line, cubic, "x") == a ** 3 + c * a * b ** 2 - b ** 3
        assert sylvester_resultant(cubic, line, "x") == -(a ** 3 + c * a * b ** 2 - b ** 3)
        assert sylvester_resultant(x - a, x - b, "x") == a - b

    def test_common_root_gives_zero(self):
        rng = random.Random(74)
        ctx = VarContext(["x", "a", "b"])
        x, a, _ = ctx.variables()
        for m, n in ((1, 3), (3, 1), (2, 2), (4, 2)):
            f = random_in_x(rng, ctx, m) * (x - a)
            g = random_in_x(rng, ctx, n) * (x - a)
            assert sylvester_resultant(f, g, "x") == 0

    def test_dense_degree_seven_envelope(self):
        rng = random.Random(75)
        lf = dense_line_family(rng, 7)
        env = envelope(lf)
        assert "p" not in env.variables_present()
        df = lf.f.partial_derivative("p")
        ratio = None
        for _ in range(4):
            point = [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
            got, ref = env.evaluate(point), numeric_sylvester(lf.f, df, "p", point)
            assert (got == 0) == (ref == 0)
            if ref:
                ratio = ratio if ratio is not None else got / ref
                assert got == ratio * ref
        assert ratio is not None

    def test_envelope_work_grows_polynomially(self, monkeypatch):
        # a count, not a time: cofactor expansion of the 11x11 Sylvester
        # matrix of a degree-6 family made 131,183 multiplications, and
        # the 15x15 of degree 8 would make millions; the count stops the
        # run as soon as it passes the bound
        calls = []

        def counted(original):
            def call(*args):
                calls.append(original.__name__)
                assert len(calls) < 2000, "envelope work is not polynomial"
                return original(*args)
            return call

        for name in ("terms_mul", "terms_exact_div"):
            monkeypatch.setattr(_kernel, name, counted(getattr(_kernel, name)))
        envelope(dense_line_family(random.Random(76), 8))
        # the subresultant PRS of the degree-8 family: 126 products (those
        # inside terms_pow included) and 21 exact divisions, on integer
        # coefficients, so none is a second pass over cleared denominators
        assert calls.count("terms_mul") <= 126
        assert 0 < calls.count("terms_exact_div") <= 21


def make_nonconstant(rng, ctx):
    x = ctx.variable("x")
    d = rng.randint(1, 3)
    f = Polynomial.zero(ctx)
    while f.degree_in("x") < 1:
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
        coeffs.append(Fraction(rng.randint(1, 5)))
        f = sum((c * x ** i for i, c in enumerate(coeffs)), Polynomial.zero(ctx))
    return f


def loop_content(f):
    """The gcd/lcm loops content ran before it cleared denominators with
    the kernel's _cleared; kept as the oracle."""
    from math import gcd, lcm

    if f.is_zero():
        return Fraction(0)
    nums = [abs(n) for (n, _) in f._terms.values()]
    dens = [d for (_, d) in f._terms.values()]
    g = 0
    for x in nums:
        g = gcd(g, x)
    l = 1
    for x in dens:
        l = lcm(l, x)
    return Fraction(g, l)


class TestContentAndScalars:
    def test_content_and_primitive_part(self):
        ctx = VarContext(["x"])
        x = ctx.variable("x")
        f = Fraction(2, 3) * x + Fraction(4, 9)
        assert content(f) == Fraction(2, 9)
        assert primitive_part(f) == 3 * x + 2
        assert content(f) * primitive_part(f) == f

    def test_content_matches_the_gcd_lcm_loops(self):
        # 5,000 seeded polynomials: integer and rational coefficients, a
        # shared factor so the content is not 1, numerators past 2^64
        rng = random.Random(719)
        ctx = VarContext(["x", "y", "z"])
        shapes = {"ints": 0, "rationals": 0, "zero": 0}
        for _ in range(5000):
            bits = rng.choice((4, 12, 80))
            max_den = rng.choice((1, 1, 9, 2 ** 40))
            factor = Fraction(rng.randint(1, 2 ** bits), rng.randint(1, max_den))
            terms = {}
            for _ in range(rng.randint(0, 6)):
                exps = tuple(rng.randint(0, 4) for _ in range(3))
                c = Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, max_den))
                terms[exps] = factor * c
            f = Polynomial(ctx, {e: c for e, c in terms.items() if c})
            if f.is_zero():
                shapes["zero"] += 1
            elif all(d == 1 for _, d in f._terms.values()):
                shapes["ints"] += 1
            else:
                shapes["rationals"] += 1
            assert content(f) == loop_content(f)
        assert min(shapes.values()) > 100

    def test_equal_up_to_scalar(self):
        ctx = VarContext(["x", "y"])
        x, y = ctx.variables()
        f = x ** 2 - y
        same, scale = equal_up_to_scalar(2 * f, -3 * f)
        assert same and scale == Fraction(-2, 3)
        same, scale = equal_up_to_scalar(f, f + x)
        assert not same and scale is None
        same, scale = equal_up_to_scalar(
            Polynomial.zero(ctx), Polynomial.zero(ctx)
        )
        assert same


class TestFormat:
    def test_known_renderings(self, zctx):
        z0, z1, z2, z3, z4 = zctx.variables()
        cubic = z1 * z4 ** 2 + z0 * z2 * z4 - z0 ** 2 * z3
        assert format_polynomial(cubic) == "-1*z0^2*z3 + z0*z2*z4 + z1*z4^2"
        assert format_polynomial(-(z1 ** 2)) == "-1*z1^2"
        assert format_polynomial(-z1) == "-z1"
        assert format_polynomial(Polynomial.zero(zctx)) == "0"
        assert format_polynomial(Polynomial.constant(zctx, Fraction(-3, 4))) == "-3/4"

    def test_degree_in_and_coefficients_in(self):
        ctx = VarContext(["p", "z"])
        p, z = ctx.variables()
        f = p ** 2 * z + 3 * p - z
        assert f.degree_in("p") == 2
        coeffs = f.coefficients_in("p")
        assert coeffs[0] == -z and coeffs[1] == 3 and coeffs[2] == z
        assert sum(
            (c * p ** i for i, c in enumerate(coeffs)), Polynomial.zero(ctx)
        ) == f
