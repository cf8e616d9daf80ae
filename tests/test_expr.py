"""Expression grammar: parsing, round-trips, and byte-offset errors."""

import random

import pytest

from conftest import make_random_polynomial
from torsal.errors import ExprSyntaxError, UnknownVariableError
from torsal.expr import (
    MAX_NESTING,
    Num,
    Product,
    Sum,
    Var,
    parse,
    parse_polynomial,
    to_polynomial,
)
from torsal.polyring import Polynomial, VarContext, format_polynomial

XY = VarContext(["x", "y"])


class TestBasics:
    def test_numbers_and_precedence(self):
        ctx = VarContext(["x"])
        x = ctx.variable("x")
        assert parse_polynomial("2^3", ctx) == 8
        assert parse_polynomial("1 + 2*3", ctx) == 7
        assert parse_polynomial("2*x^3", ctx) == 2 * x ** 3
        assert parse_polynomial("(1 + x)^2", ctx) == 1 + 2 * x + x ** 2
        assert parse_polynomial("x^0", ctx) == 1

    def test_products_fold_numbers_and_powers(self):
        x, y = XY.variables()
        assert parse_polynomial("2^3*x^2*3*x*y^0", XY) == 24 * x ** 3
        assert parse_polynomial("-1*x^2*(x+y)*2", XY) == -2 * x ** 2 * (x + y)
        assert parse_polynomial("(x+y)^2*0*x", XY) == 0
        assert parse_polynomial("x*(x-y)*y*(x+y)^0", XY) == x * y * (x - y)

    def test_whitespace_insensitive(self):
        a = parse_polynomial("x*y+  2", XY)
        b = parse_polynomial("x * y + 2", XY)
        assert a == b

    def test_unary_minus_binds_before_power(self):
        # '-x^2' is (-x)^2 because '-' is part of the base
        ctx = VarContext(["x"])
        x = ctx.variable("x")
        assert parse_polynomial("-x^2", ctx) == x ** 2
        assert parse_polynomial("-(x^2)", ctx) == -(x ** 2)
        assert parse_polynomial("--x", ctx) == x
        assert parse_polynomial("1 - -x", ctx) == 1 + x

    def test_subtraction_chains_left(self):
        ctx = VarContext(["x"])
        x = ctx.variable("x")
        assert parse_polynomial("x - 1 - 2", ctx) == x - 3

    def test_sums_and_products_are_flat(self):
        a, b, c, d = (Var(n) for n in "abcd")
        assert parse("a - b*c*2 + (c - d)") == Sum((
            (1, a),
            (-1, Product((b, c, Num(2)))),
            (1, Sum(((1, c), (-1, d)))),
        ))
        assert parse("a*b") == Product((a, b)) and parse("a") == a

    def test_multicharacter_identifiers(self):
        ctx = VarContext(["lam", "x10"])
        lam, x10 = ctx.variables()
        assert parse_polynomial("lam^2*x10", ctx) == lam ** 2 * x10

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            parse_polynomial("x + q", XY)

    def test_ast_reuse(self):
        node = parse("x + y")
        assert node == Sum(((1, Var("x")), (1, Var("y"))))
        assert to_polynomial(node, XY) == XY.variable("x") + XY.variable("y")
        other = VarContext(["x", "y", "z"])
        assert to_polynomial(node, other) == other.variable("x") + other.variable("y")


class TestErrors:
    @pytest.mark.parametrize(
        "text,offset",
        [
            ("", 0),
            ("x +", 3),
            ("(x", 2),
            ("x^y", 2),
            ("x^-2", 2),
            ("x*", 2),
            ("2x", 1),
            ("x y", 2),
            ("x$", 1),
            ("x/y", 1),
            ("z*α", 2),
        ],
    )
    def test_byte_offsets(self, text, offset):
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse(text)
        assert exc_info.value.offset == offset
        assert f"byte offset {offset}" in str(exc_info.value)

    def test_implicit_multiplication_is_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_polynomial("2*z1 + 3z1", VarContext(["z1"]))

    def test_division_is_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("1/2")


class TestNesting:
    def test_deep_parentheses_are_a_syntax_error(self):
        text = "(" * 3000 + "x" + ")" * 3000
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse(text)
        # the first '(' past the limit
        assert exc_info.value.offset == MAX_NESTING

    def test_deep_unary_minus_is_a_syntax_error(self):
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse("1 + " + "-" * 3000 + "x")
        assert exc_info.value.offset == 4 + MAX_NESTING

    def test_nesting_up_to_the_limit_parses(self):
        ctx = VarContext(["x"])
        x = ctx.variable("x")
        assert parse_polynomial("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, ctx) == x
        half = MAX_NESTING // 2
        text = "(-" * half + "x" + ")" * half
        assert parse_polynomial(text, ctx) == (-1) ** half * x
        # closed groups do not count against later ones
        assert parse_polynomial("(x)*" * 3000 + "1", ctx) == x ** 3000

    def test_long_sums_and_products_do_not_recurse(self):
        ctx = VarContext(["x", "y"])
        x, y = ctx.variables()
        assert parse_polynomial(" + ".join(["x*y"] * 5000), ctx) == 5000 * x * y
        assert parse_polynomial(" - ".join(["x"] * 5001), ctx) == -4999 * x
        assert parse_polynomial("*".join(["x", "2", "y"] * 2000), ctx) == (
            2 ** 2000 * x ** 2000 * y ** 2000
        )

    def test_canonical_text_of_a_large_power_parses_back(self):
        ctx = VarContext(["x", "y", "z"])
        f = parse_polynomial("(x+y+z)^44", ctx)
        assert f.term_count() == 1035
        text = format_polynomial(f)
        assert parse_polynomial(text, ctx) == f

    def test_ast_of_a_long_sum_compares_hashes_and_prints(self):
        ctx = VarContext(["x", "y", "z"])
        text = format_polynomial(parse_polynomial("(x+y+z)^44", ctx))
        first, second = parse(text), parse(text)
        assert first == second and hash(first) == hash(second)
        assert repr(first) == repr(second)
        assert first != parse(text.replace("y^44", "y^43"))
        assert to_polynomial(first, ctx).term_count() == 1035


def random_expression(rng, names, depth=3):
    """Random string produced from the grammar productions themselves."""

    def base(d):
        roll = rng.random()
        if d <= 0 or roll < 0.3:
            return str(rng.randint(0, 99))
        if roll < 0.6:
            return rng.choice(names)
        if roll < 0.8:
            return "(" + expr(d - 1) + ")"
        return "-" + base(d - 1)

    def factor(d):
        text = base(d)
        if rng.random() < 0.4:
            text += "^" + str(rng.randint(0, 4))
        return text

    def term(d):
        parts = [factor(d) for _ in range(rng.randint(1, 3))]
        return "*".join(parts)

    def expr(d):
        pieces = [term(d)]
        for _ in range(rng.randint(0, 3)):
            pieces.append(rng.choice(["+", "-"]))
            pieces.append(term(d))
        sep = rng.choice(["", " "])
        return sep.join(pieces) if sep else "".join(pieces)

    return expr(depth)


class TestRoundTrip:
    def test_fifty_expression_corpus(self):
        """format(parse(s)) parses back to an equal polynomial, 50 times."""
        rng = random.Random(424242)
        contexts = [
            VarContext(["x"]),
            VarContext(["x", "y"]),
            VarContext(["p", "z1", "z2", "z3"]),
            VarContext(["lam", "u", "v"]),
            VarContext(["z0", "z1", "z2", "z3", "z4"]),
        ]
        for i in range(50):
            ctx = contexts[i % len(contexts)]
            source = random_expression(rng, list(ctx.names))
            f = parse_polynomial(source, ctx)
            text = format_polynomial(f)
            g = parse_polynomial(text, ctx)
            assert g == f, f"round-trip failed for {source!r} -> {text!r}"
            assert format_polynomial(g) == text

    def test_integer_coefficient_polynomials_round_trip(self):
        rng = random.Random(515151)
        ctx = VarContext(["p", "u", "v"])
        for _ in range(25):
            f = make_random_polynomial(rng, ctx, max_terms=6, max_exp=3)
            f = sum(
                (
                    coef.numerator * Polynomial(ctx, {mono.exponents: 1})
                    for mono, coef in f.sorted_terms()
                ),
                Polynomial.zero(ctx),
            )
            assert parse_polynomial(format_polynomial(f), ctx) == f

    def test_round_trip_hits_negative_leading_terms(self):
        ctx = VarContext(["x", "y"])
        x, y = ctx.variables()
        for f in (-x ** 2, -x * y + y, -3 * x ** 2 + x, -x - 1):
            assert parse_polynomial(format_polynomial(f), ctx) == f
