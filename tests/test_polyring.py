"""Ring, calculus, and elimination primitives."""

import random
from fractions import Fraction

import pytest

from conftest import make_random_homogeneous, make_random_polynomial
from torsal.errors import (
    ContextMismatchError,
    DegreeError,
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


def make_nonconstant(rng, ctx):
    x = ctx.variable("x")
    d = rng.randint(1, 3)
    f = Polynomial.zero(ctx)
    while f.degree_in("x") < 1:
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
        coeffs.append(Fraction(rng.randint(1, 5)))
        f = sum((c * x ** i for i, c in enumerate(coeffs)), Polynomial.zero(ctx))
    return f


class TestContentAndScalars:
    def test_content_and_primitive_part(self):
        ctx = VarContext(["x"])
        x = ctx.variable("x")
        f = Fraction(2, 3) * x + Fraction(4, 9)
        assert content(f) == Fraction(2, 9)
        assert primitive_part(f) == 3 * x + 2
        assert content(f) * primitive_part(f) == f

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
