"""Ring, calculus, and elimination primitives."""

import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import make_random_homogeneous, make_random_polynomial
from torsal import _kernel, catalog, polyring
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
    evaluate_many,
    format_polynomial,
    primitive_part,
    sylvester_resultant,
)
from torsal.projgeom import FrameMatrix, change_polynomial_coordinates, rank
from torsal.ruled import LineFamily, envelope, infinity_line_family


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

    def test_evaluate_many_keeps_evaluates_checks(self, rand_poly):
        rng = random.Random(62)
        ctx = VarContext(["x", "y", "z"])
        for _ in range(25):
            polys = [rand_poly(rng, ctx) for _ in range(rng.randint(1, 4))]
            point = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
            nums, den = evaluate_many(polys, point)
            assert den > 0
            assert [Fraction(n, den) for n in nums] == [f.evaluate(point) for f in polys]
        x, y = VarContext(["x", "y"]).variables()
        f = 3 * x * y - y / 2
        with pytest.raises(ValueError, match="point has 3 entries, context has 2"):
            evaluate_many([f, x], [1, 2, 3])
        for bad in (0.1, "1/3", Decimal("0.1")):
            with pytest.raises(TypeError, match=type(bad).__name__):
                evaluate_many([f, x], [bad, 1])
        # an equal context built apart is the same ring; another is not
        assert evaluate_many([f, VarContext(["x", "y"]).variable("y")], [2, 5]) == ([55, 10], 2)
        with pytest.raises(ContextMismatchError):
            evaluate_many([f, VarContext(["x", "z"]).variable("x")], [2, 5])

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
    """Term products made by kernel multiplication from here on: those of
    terms_mul and those of the int loop _mul_ints, which makes the
    products inside terms_pow (and those of terms_mul on rational
    operands, which are then counted twice)."""
    products = []

    def counting(mul):
        def call(a, b, *out):
            products.append(len(a) * len(b))
            return mul(a, b, *out)
        return call

    for name in ("terms_mul", "_mul_ints"):
        monkeypatch.setattr(_kernel, name, counting(getattr(_kernel, name)))
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
    ONE_TERM = ("int", "fraction", "zero", "monomial")

    def test_seeded_substitutions_match_the_per_term_algorithm(self, monkeypatch):
        repacked = []
        original = polyring._repack

        def counted(terms, images):
            repacked.append(len(terms))
            return original(terms, images)

        def substitute(f, images, dst):
            """f's image, checked against the per-term algorithm; images of
            one term at most, and only they, take the re-packing path."""
            before = len(repacked)
            with monkeypatch.context() as spying:
                spying.setattr(polyring, "_repack", counted)
                got = f.substitute(images, target_context=dst)
            assert got == per_term_substitute(f, images, dst), (f, images)
            one_term = all(
                not isinstance(images[name], Polynomial) or images[name].term_count() <= 1
                for name in f.variables_present()
            )
            assert (len(repacked) > before) == one_term, (f, images)
            return got

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
            zeros += substitute(f, images, dst).is_zero()
        assert zeros > 60
        # about half of these cases draw one-term images only
        assert 250 < len(repacked) < 450
        # then only ints, fractions, zeros and monomials, with x0 and x1
        # sharing one image in every other case, so terms meet and cancel
        before, zeros = len(repacked), 0
        for case in range(300):
            src = VarContext([f"x{i}" for i in range(rng.randint(2, 6))])
            dst = VarContext([f"t{i}" for i in range(rng.randint(1, 5))])
            f = random_sparse(rng, src, max_terms=12, max_degree=8)
            if case % 2 == 0:
                g = random_sparse(rng, VarContext(["x0"]), max_terms=4, max_degree=8)
                lift = g.substitute({"x0": src.variable("x0")}, src)
                f = f * rng.randint(0, 1) + lift - g.substitute({"x0": src.variable("x1")}, src)
            images = {
                name: random_image(rng, rng.choice(self.ONE_TERM), dst)
                for name in src.names
            }
            if case % 2 == 0:
                images["x1"] = images["x0"]
            zeros += substitute(f, images, dst).is_zero()
        assert len(repacked) - before == 300 and sum(repacked[before:]) > 1200
        assert zeros > 100

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

    def test_monomial_images_make_no_products(self, monkeypatch):
        # the slice of the cubic maps each variable to a variable or 1, and
        # dehomogenize sets one variable to 1
        cubic = catalog.hypersurface("bourgain")
        products = count_products(monkeypatch)
        f = infinity_line_family(cubic).f
        assert str(f) == "p^2*z1 + p*z2 - z3"
        assert str(f.dehomogenize("z1")) == "p^2 + p*z2 - z3"
        assert products == []

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

    def test_zero_arguments_are_named(self):
        ctx = VarContext(["x", "y"])
        x, y = ctx.variables()
        cases = [
            (Polynomial.zero(ctx), x * y + 1, "first input is zero; need degree >= 1 in 'x'"),
            (x * y + 1, y - y, "second input is zero; need degree >= 1 in 'x'"),
            # a nonzero input of degree 0 keeps its message
            (x * y + 1, y, "second input has degree 0 in 'x'; need >= 1"),
        ]
        for f, g, message in cases:
            with pytest.raises(DegreeError) as raised:
                sylvester_resultant(f, g, "x")
            assert str(raised.value) == message

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

    def test_int_quotient_past_the_digit_limit(self):
        # eliminate's and the packed PRS's one int quotient; its message
        # gives sizes, as an int of more digits than the interpreter's
        # limit for printing one (4,300 by default) cannot be printed
        with pytest.raises(InexactDivisionError, match="bit"):
            polyring._exact_quotient(10 ** 5000 + 1, 10 ** 4999)
        assert polyring._exact_quotient(10 ** 5000, 10 ** 4999) == 10


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


@pytest.fixture
def path(monkeypatch):
    """The representations the PRS ran on, one per resultant, told apart
    by the exact quotient sylvester_resultant passes it."""
    ran = []
    original = polyring._subresultant_prs
    names = {polyring._exact_int_quotient: "kronecker",
             Polynomial.exact_div: "polynomials"}

    def spy(a, b, div):
        ran.append(names[div])
        return original(a, b, div)

    monkeypatch.setattr(polyring, "_subresultant_prs", spy)
    return ran


class TestResultantAgainstSylvesterDeterminant:
    def test_random_pairs_at_rational_points(self, path):
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
        assert "polynomials" in path
        path.clear()
        # dense pairs homogeneous in the plane variables take the Kronecker
        # path, and meet the Sylvester determinant exactly, not up to a ratio
        for _ in range(30):
            plane = rng.randint(1, 3)
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            f = dense_in_p(rng, plane, m, rng.randint(1, 2), rational=rng.random() < 0.5)
            g = dense_in_p(rng, plane, n, rng.randint(1, 2), rational=rng.random() < 0.5)
            res = sylvester_resultant(f, g, "p")
            for _ in range(3):
                point = [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                               for _ in range(plane)]
                assert res.evaluate(point) == numeric_sylvester(f, g, "p", point)
        assert path == ["kronecker"] * 30

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

        def counted(name, original, products=lambda *args: 1):
            def call(*args):
                calls.extend([name] * products(*args))
                assert len(calls) < 2000, "envelope work is not polynomial"
                return original(*args)
            return call

        # a power a**e is the e - 1 products of the kernel's power loop;
        # terms_pow returns 1 or a itself for e = 0 or 1
        monkeypatch.setattr(_kernel, "terms_pow", counted(
            "product", _kernel.terms_pow, lambda a, e: max(e - 1, 0)))
        monkeypatch.setattr(_kernel, "terms_mul", counted("product", _kernel.terms_mul))
        monkeypatch.setattr(_kernel, "terms_exact_div",
                            counted("division", _kernel.terms_exact_div))
        monkeypatch.setattr(polyring, "_pseudo_remainder",
                            counted("prem", polyring._pseudo_remainder))
        lf = dense_line_family(random.Random(76), 8)
        # coefficients of 2^40 and more widen the packed slots past the
        # selector's limit, so this family takes the PRS on Polynomials:
        # 126 products (those inside powers included, and each of the two
        # in one pseudo-remainder coefficient) and 21 exact divisions, over
        # the same 7 pseudo-remainders as below
        envelope(LineFamily(lf.f * (1 << 40), "p"))
        assert calls.count("product") <= 126
        assert 0 < calls.count("division") <= 21
        assert calls.count("prem") == 7
        calls.clear()
        # the family itself takes the Kronecker path: one pseudo-remainder
        # per degree step of the normal sequence, 8 and 7 down to 1, and
        # no term-dict work
        envelope(lf)
        assert calls == ["prem"] * 7


def polynomial_pseudo_remainder(a, b):
    """The pseudo-remainder on Polynomial coefficients, written out again
    for the oracle of TestIntegerPRSDifferential."""
    lead, rest = b[-1], b[:-1]
    r = list(a)
    steps = len(a) - len(b) + 1
    while len(r) >= len(b):
        top = r.pop()
        k = len(r) - len(rest)
        r = [c * lead if c else c for c in r]
        for j, c in enumerate(rest):
            if c:
                r[k + j] = r[k + j] - top * c
        steps -= 1
        while r and not r[-1]:
            r.pop()
    if steps and r:
        scale = lead ** steps
        r = [c * scale for c in r]
    return r


def polynomial_resultant(f, g, var):
    """The subresultant PRS on the Polynomial coefficients of f and g as
    given, rational ones included, with nothing packed or cleared: the
    oracle of TestIntegerPRSDifferential."""
    f._check_context(g)
    m = f.degree_in(var)
    n = g.degree_in(var)
    if m < 1:
        raise DegreeError(f"first input has degree {m} in {var!r}; need >= 1")
    if n < 1:
        raise DegreeError(f"second input has degree {n} in {var!r}; need >= 1")
    sign = 1
    if m < n:
        f, g = g, f
        sign = -1 if m * n % 2 else 1
    a = f.coefficients_in(var)
    b = g.coefficients_in(var)
    one = Polynomial.one(f.context)
    lead = h = one
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        r = polynomial_pseudo_remainder(a, b)
        if not r:
            return Polynomial.zero(f.context)
        divisor = lead * h ** delta
        if divisor != one:
            r = [c.exact_div(divisor) for c in r]
        a, b = b, r
        lead = a[-1]
        if delta == 1:
            h = lead
        elif delta > 1:
            h = (lead ** delta).exact_div(h ** (delta - 1))
    d = len(a) - 1
    res = b[0] if d == 1 else (b[0] ** d).exact_div(h ** (d - 1))
    return res if sign > 0 else -res


def outcome(resultant, f, g, var):
    """The resultant, or the type of the error it raised."""
    try:
        return resultant(f, g, var)
    except Exception as exc:  # compared by type with the oracle's
        return type(exc)


def sparse_in_x(rng, ctx, degree, rational):
    """Exact degree `degree` in x with a term free of x, each power of x
    in between present with probability 1/3, so remainder chains skip
    degrees."""
    others = len(ctx.names) - 1
    x = ctx.names.index("x")
    terms = {}
    for k in range(degree + 1):
        if 0 < k < degree and rng.random() > 1 / 3:
            continue
        for _ in range(rng.randint(1, 2)):
            exps = [rng.randint(0, 2) for _ in range(others)]
            exps.insert(x, k)
            num = rng.choice([-1, 1]) * rng.randint(1, 9)
            terms[tuple(exps)] = Fraction(num, rng.randint(1, 4) if rational else 1)
    f = Polynomial(ctx, terms)
    return f if f.degree_in("x") == degree else sparse_in_x(rng, ctx, degree, rational)


class TestIntegerPRSDifferential:
    """sylvester_resultant, on packed ints or on Polynomials cleared to
    integer coefficients, against the PRS on the inputs as given."""

    SHAPES = ("dense family", "sparse", "rational", "swapped", "common factor",
              "var inside", "huge", "wide")

    def draw(self, rng, shape):
        """(f, g, var) of one shape."""
        if shape == "dense family":
            lf = dense_line_family(rng, rng.randint(3, 5 if rng.random() < 0.9 else 6))
            return lf.f, lf.f.partial_derivative("p"), "p"
        ctx = VarContext(["a", "x", "b"] if shape == "var inside" else ["x", "a", "b"])
        m, n = rng.randint(2, 5), rng.randint(1, 4)
        if shape == "swapped":
            m, n = rng.randint(1, 3), rng.randint(2, 5)
            m = min(m, n - 1)
        rational = shape in ("rational", "swapped", "var inside")
        f = sparse_in_x(rng, ctx, m, rational)
        g = sparse_in_x(rng, ctx, n, rational)
        if shape == "common factor":
            x, a, _ = ctx.variables()
            factor = x - a if rng.random() < 0.5 else x * x + a * x - 3
            f, g = f * factor, g * factor
        elif shape == "huge":
            big = [(1 << 64) + 1, 3 ** 50, (1 << 100) - 1, -(5 ** 40)]
            f = f * rng.choice(big)
            g = g * Fraction(rng.choice(big), rng.choice(big))
        elif shape == "wide":
            # degrees near the packed keys' limit: some chains overflow
            a = ctx.variable("a")
            f = f * a ** rng.choice([1 << 28, 1 << 29, 1 << 30])
            g = g * a ** rng.choice([1 << 28, 1 << 29, 1 << 30])
        return f, g, "x"

    def test_seeded_pairs_match_the_polynomial_prs(self, monkeypatch):
        # record the powers sylvester_resultant takes of polynomials with
        # several terms, so the delta > 1 branches are seen to run
        powers = []
        original = Polynomial.__pow__

        def counted(a, e):
            powers.append(e if a.term_count() > 1 else 0)
            return original(a, e)

        rng = random.Random(1919)
        seen = {"zero": 0, "nonzero": 0, DegreeError: 0}
        for case in range(320):
            shape = self.SHAPES[case % len(self.SHAPES)]
            f, g, var = self.draw(rng, shape)
            with monkeypatch.context() as spying:
                spying.setattr(Polynomial, "__pow__", counted)
                got = outcome(sylvester_resultant, f, g, var)
            want = outcome(polynomial_resultant, f, g, var)
            assert got == want, (shape, case, f, g)
            if isinstance(got, Polynomial):
                assert got._terms == want._terms and str(got) == str(want)
                seen["nonzero" if got else "zero"] += 1
            else:
                seen[got] += 1
            if shape == "common factor":
                assert got == 0
        assert max(powers) > 1
        assert seen["zero"] >= 40 and seen["nonzero"] >= 250 and seen[DegreeError] >= 10

    def test_refusals_match_the_polynomial_prs(self):
        ctx = VarContext(["x", "y"])
        x, y = ctx.variables()
        wide = x ** (2 ** 31)
        # a product of the PRS, x^(2^31) * x^(2^31), has total degree
        # 2^32, past the packed keys' limit: lead times a coefficient in
        # the first pair, the top coefficient times one of g's in the second
        for resultant in (polynomial_resultant, sylvester_resultant):
            with pytest.raises(DegreeError):
                resultant(wide * y ** 2 + 1, wide * y + 1, "y")
            with pytest.raises(DegreeError):
                resultant(wide * y ** 2 + 1, y + wide, "y")
            with pytest.raises(DegreeError):
                resultant(x + 1, y + 1, "y")  # constant in y
            with pytest.raises(ContextMismatchError):
                resultant(x + y, VarContext(["x", "y", "z"]).variable("y"), "y")
        assert sylvester_resultant(wide * y + 1, y - 1, "y") == -wide - 1

    def check(self, f, g, var="p"):
        """sylvester_resultant(f, g) equals the oracle, and is returned."""
        got = sylvester_resultant(f, g, var)
        want = polynomial_resultant(f, g, var)
        assert got._terms == want._terms and str(got) == str(want), (f, g)
        return got

    def test_kronecker_cases_match_the_polynomial_prs(self, path):
        rng = random.Random(2222)
        for degree in (3, 4, 5, 6):
            # rational coefficients, both orders: the sign of the swap
            f = dense_in_p(rng, 3, degree, 1, rational=True)
            g = dense_in_p(rng, 3, degree - rng.randint(1, 2), 1, rational=True)
            swap = (-1) ** (f.degree_in("p") * g.degree_in("p"))
            assert self.check(f, g) == swap * self.check(g, f)
            # a common factor homogeneous in the plane: the resultant is 0
            ctx = f.context
            p, z1, z2, _ = ctx.variables()
            factor = p * z1 - rng.randint(1, 5) * z2
            assert self.check(f * factor, dense_in_p(rng, 3, 2, 1) * factor) == 0
        # a univariate pair, and one with a single plane variable: no packing
        x = VarContext(["x"]).variable("x")
        self.check(3 * x ** 5 - x ** 3 + 7 * x - 2, 4 * x ** 3 + 5 * x ** 2 - 9, "x")
        self.check(dense_in_p(rng, 1, 5, 2), dense_in_p(rng, 1, 3, 4))
        # a coefficient at the slot bound: the sequence ends on +16, and
        # the Goldstein-Graham bound sqrt(S_F * S_G) = sqrt(1 * 257) is 16.03
        p, y = VarContext(["p", "y"]).variables()
        assert self.check(p * y, p * y - 16 * y) == -16 * y ** 2
        # homogeneous of degree 2 and 3 in 2 plane variables, of degree 1
        # in 4 plane variables (3 packed)
        self.check(dense_in_p(rng, 2, 4, 2), dense_in_p(rng, 2, 3, 3))
        self.check(dense_in_p(rng, 4, 3, 1), dense_in_p(rng, 4, 2, 1))
        assert path == ["kronecker"] * 17
        path.clear()
        # dense families of degree 6 to 8 in p with rational coefficients,
        # against one of lower degree given first (m < n) and second
        for degree in (6, 7, 8, 8):
            f = dense_in_p(rng, 3, degree, 1, rational=True)
            g = dense_in_p(rng, 3, rng.randint(degree - 3, degree - 1), 1, rational=True)
            swap = (-1) ** (f.degree_in("p") * g.degree_in("p"))
            assert self.check(g, f) == swap * self.check(f, g) != 0
        assert path == ["kronecker"] * 8

    def test_each_selector_condition_picks_its_path(self, path):
        rng = random.Random(2323)
        ctx = VarContext(["p", "z1", "z2", "z3"])
        p, z1, z2, z3 = ctx.variables()
        f = dense_in_p(rng, 3, 4, 1)
        g = f.partial_derivative("p")
        cases = [
            # every p-coefficient homogeneous of one degree in the plane
            (f, g, "kronecker"),
            (f + 1, g, "polynomials"),
            # at least a fifth of the box: 3 of the 15 monomials of
            # p^0..p^4 times z1, z2, z3, and 3 of the 12 for degree 3
            (p ** 4 * z1 + p * z2 - z3, p ** 3 * z1 + p ** 2 * z2 + z3, "kronecker"),
            (p ** 4 * z1 - z3, p ** 3 * z1 + p ** 2 * z2 + z3, "polynomials"),
            # slots of B bits: coefficients of 2^100 widen them past the limit.
            # The limit is B <= 288 here (D = 7, 2 packed variables); the
            # bound gives B = 288 at 2^60, where the l1-norm product
            # ||F||_1^n * ||G||_1^m, the slot width before it, gave 296
            (f, g * (1 << 5), "kronecker"),
            (f, g * (1 << 60), "kronecker"),
            (f, g * (1 << 61), "polynomials"),
            (f, g * (1 << 100), "polynomials"),
            # at most 3 packed variables: 4 plane variables pack 3, 5 pack 4
            # (slots narrow enough for the limit of 3)
            (dense_in_p(rng, 4, 3, 1), dense_in_p(rng, 4, 2, 1), "kronecker"),
            (dense_in_p(rng, 5, 2, 1), dense_in_p(rng, 5, 1, 1), "polynomials"),
        ]
        # (max(m, n) + 2) * D below DEGREE_LIMIT, D = n*dF + m*dG = 3*2^k
        y = VarContext(["p", "y"]).variable("y")
        q = y.context.variable("p")
        for k, ran in ((27, "kronecker"), (29, "polynomials")):
            cases.append(((q ** 2 - 3 * q + 1) * y ** 2 ** k, (2 * q + 5) * y ** 2 ** k, ran))
        for f, g, ran in cases:
            path.clear()
            self.check(f, g)
            assert path == [ran], (f, g)

    def test_slot_width_bounds_the_resultant(self, path, monkeypatch):
        # every coefficient of the resultant fits a signed slot of the
        # layout's width: seeded dense pairs, and families with equal
        # magnitudes or alternating signs, the near-worst case of the
        # bound, 9*(z1 + ...)*sum(+-p^k) against its derivative; with 1, 2
        # and 3 plane variables, of which 0, 1 and 2 are packed
        widths = []
        original = polyring._kronecker_layout

        def spy(a, b, context, i):
            layout = original(a, b, context, i)
            widths.append(layout and layout[3])
            return layout

        monkeypatch.setattr(polyring, "_kronecker_layout", spy)
        rng = random.Random(2424)
        pairs = []
        for plane in (1, 2, 3):
            for _ in range(4):
                m = rng.randint(2, 6)
                rational = rng.random() < 0.5
                f = dense_in_p(rng, plane, m, rng.randint(1, 2), rational)
                g = dense_in_p(rng, plane, rng.randint(1, m), rng.randint(1, 2), rational)
                pairs.append((f, g))
            ctx = VarContext(["p"] + [f"z{i}" for i in range(1, plane + 1)])
            p, *z = ctx.variables()
            for degree in (3, 6, 9):
                for sign in (1, -1):
                    f = 9 * sum(z) * sum(sign ** k * p ** k for k in range(degree + 1))
                    pairs.append((f, f.partial_derivative("p")))
        for f, g in pairs:
            widths.clear()
            res = self.check(f, g)
            [bits] = widths
            assert res and max(abs(n) for n, _ in res._terms.values()) < 1 << (bits - 1)
        assert path == ["kronecker"] * len(pairs)
        # two widths pinned, each below the l1-norm product's
        # (2 * ||F||_1^n * ||G||_1^m).bit_length() + 1
        p, z1, z2, z3 = VarContext(["p", "z1", "z2", "z3"]).variables()
        f = 9 * (z1 + z2 + z3) * sum((-1) ** k * p ** k for k in range(6))
        lf = dense_line_family(random.Random(75), 8)
        for f, g, bits, before in ((f, f.partial_derivative("p"), 64, 75),
                                   (lf.f, lf.f.partial_derivative("p"), 103, 124)):
            widths.clear()
            self.check(f, g)
            l1 = [sum(abs(n) for n, _ in h._terms.values()) for h in (f, g)]
            n, m = g.degree_in("p"), f.degree_in("p")
            assert widths == [bits]
            assert (2 * l1[0] ** n * l1[1] ** m).bit_length() + 1 == before
        # the bound met in bit length: Res(z*p^4, z*(p^2 + c)) = c^4 * z^6
        # against sqrt((1 + c^2)^4), so one bit fewer would not hold it
        p, z = VarContext(["p", "z"]).variables()
        c = (1 << 40) - 3
        widths.clear()
        assert self.check(z * p ** 4, z * (p ** 2 + c)) == c ** 4 * z ** 6
        assert widths == [(c ** 4).bit_length() + 1] == [161]

    def test_sparse_family_stays_on_polynomials(self, path):
        # its packed box would hold about 4 * 10^6 slots of some 11,550
        # bits each; the selector refuses it on density alone
        p, z1, z2, z3 = VarContext(["p", "z1", "z2", "z3"]).variables()
        family = LineFamily(p ** 1000 * z1 + p * z2 - z3, "p")
        env = envelope(family)
        assert path == ["polynomials"]
        f = family.f
        assert env == primitive_part(polynomial_resultant(f, f.partial_derivative("p"), "p"))

    def test_sparse_family_wraps_only_the_powers_present(self, monkeypatch):
        # p^40*z1 + p^7*z2 - z3 and its derivative: 41 and 40 coefficients,
        # of which 3 and 2 are nonzero; the zero ones are one Polynomial
        p, z1, z2, z3 = VarContext(["p", "z1", "z2", "z3"]).variables()
        f = p ** 40 * z1 + p ** 7 * z2 - z3
        seen = []
        original = polyring._subresultant_prs

        def spy(a, b, div):
            seen.append((a, b))
            return original(a, b, div)

        monkeypatch.setattr(polyring, "_subresultant_prs", spy)
        env = sylvester_resultant(f, f.partial_derivative("p"), "p")
        [(a, b)] = seen
        assert (len(a), len(b)) == (41, 40)
        assert [k for k, c in enumerate(a) if c] == [0, 7, 40]
        assert [k for k, c in enumerate(b) if c] == [6, 39]
        assert len({id(c) for c in a + b if not c}) == 1
        assert env == polynomial_resultant(f, f.partial_derivative("p"), "p")


def dense_in_p(rng, plane, degree, delta, rational=False):
    """Exact degree `degree` in p, every monomial of degree `delta` in
    `plane` plane variables at every power of p, nonzero coefficients of
    at most 4 bits (over 1..4 when rational)."""
    ctx = VarContext(["p"] + [f"z{i}" for i in range(1, plane + 1)])
    terms = {}
    for k in range(degree + 1):
        for mono in combinations_with_replacement(range(plane), delta):
            exps = [k] + [0] * plane
            for j in mono:
                exps[1 + j] += 1
            num = rng.choice([-1, 1]) * rng.randint(1, 15)
            terms[tuple(exps)] = Fraction(num, rng.randint(1, 4)) if rational else num
    return Polynomial(ctx, terms)


def repeated_int_power(a, e):
    """a**e for an int dict by e products of terms_mul's own loop on
    integer pairs: the oracle of TestIntegerPower."""
    out = {0: (1, 1)}
    for _ in range(e):
        out = _kernel.terms_mul(out, {key: (n, 1) for key, n in a.items()})
    return {key: n for key, (n, _) in out.items()}


def int_loop_power(a, e):
    """_kernel._pow_ints(a, e), e >= 1, with its cancelled keys dropped."""
    return {key: n for key, n in _kernel._pow_ints(a, e).items() if n}


class TestIntegerPower:
    """The one power loop, _kernel._pow_ints, and Polynomial.__pow__ on
    integer polynomials, against repeated products."""

    def test_seeded_powers_match_repeated_multiplication(self):
        rng = random.Random(2121)
        for case in range(200):
            ctx = VarContext(["x", "y", "z"][: rng.randint(1, 3)])
            f = random_integer_polynomial(rng, ctx, max_terms=1 if case % 5 == 0 else 5)
            if f.is_zero():
                continue
            if case % 4 == 1:
                f = -f if f.leading_coefficient() > 0 else f
            elif case % 4 == 2:
                f = f * ((1 << 64) + 1)
            a, _ = _kernel._cleared(f._terms)
            e = rng.randint(0, 9)
            want = repeated_int_power(a, e)
            if e:
                assert int_loop_power(a, e) == want, (f, e)
            got = (f ** e)._terms
            assert got == {key: (n, 1) for key, n in want.items()}, (f, e)
            assert all(n for n, _ in got.values())
            assert a == _kernel._cleared(f._terms)[0]

    def test_cancelling_terms_are_dropped(self):
        ctx = VarContext(["x", "y"])
        x, y = ctx.variables()
        # (x^2 + 2xy - 2y^2)^2 has no x^2 y^2 term; below the lead x^3,
        # that tail cancels inside its own powers
        for f in (x ** 2 + 2 * x * y - 2 * y ** 2, x ** 3 + x ** 2 + 2 * x * y - 2 * y ** 2):
            a, _ = _kernel._cleared(f._terms)
            for e in range(2, 6):
                want = repeated_int_power(a, e)
                assert int_loop_power(a, e) == want
                assert (f ** e)._terms == {k: (n, 1) for k, n in want.items()}
                assert Polynomial._make(ctx, {k: (n, 1) for k, n in want.items()}) == f ** e

    def test_degree_error_at_the_limit(self):
        ctx = VarContext(["x", "y"])
        x, y = ctx.variables()
        shift = ctx._degree_shift
        d = (_kernel.DEGREE_LIMIT - 1) // 3  # 3 * d is the largest degree
        assert 3 * d == _kernel.DEGREE_LIMIT - 1
        for f, fits in ((x ** d + y, True), (x ** (d + 1) + y, False),
                        (2 * x ** (d + 1), False)):
            a, _ = _kernel._cleared(f._terms)
            if fits:
                got = (f ** 3)._terms
                assert got == {k: (n, 1) for k, n in repeated_int_power(a, 3).items()}
                assert max(got) >> shift == _kernel.DEGREE_LIMIT - 1
                assert int_loop_power(a, 3) == repeated_int_power(a, 3)
            else:
                with pytest.raises(DegreeError):
                    f ** 3
        big = x ** (d + 1) + y
        assert big ** 0 == 1
        assert (big ** 1)._terms is big._terms


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

    def test_primitive_input_comes_back_itself(self):
        ctx = VarContext(["x", "y"])
        x, y = ctx.variables()
        for f in (3 * x + 2 * y, -(x ** 2) + 6 * y, x * 0 + 1, Polynomial.zero(ctx)):
            assert primitive_part(f) is f
        # content above 1, rational coefficients and a negative leading
        # coefficient: divided by the positive content, the sign kept
        for f, want in ((6 * x - 4 * y, 3 * x - 2 * y),
                        (Fraction(1, 2) * x + Fraction(1, 3) * y, 3 * x + 2 * y),
                        (-10 * x ** 2 + 4, -5 * x ** 2 + 2),
                        (Fraction(-2, 3) * x * y - Fraction(4, 9), -3 * x * y - 2)):
            got = primitive_part(f)
            assert got is not f and got._terms == want._terms
            assert content(f) * got == f

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
            # primitive_part as it was: f times the inverse of its content
            want = f if f.is_zero() else f * (1 / loop_content(f))
            assert primitive_part(f)._terms == want._terms
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
