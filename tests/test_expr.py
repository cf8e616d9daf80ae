"""Expression grammar: parsing, round-trips, and byte-offset errors."""

import json
import random
import re
import sys
import time
from pathlib import Path

import pytest

from conftest import make_random_polynomial
from torsal import expr
from torsal.errors import (
    DegreeError,
    DigitLimitError,
    ExprSyntaxError,
    UnknownVariableError,
)
from torsal.expr import (
    MAX_NESTING,
    Neg,
    Num,
    Pow,
    Product,
    Sum,
    Var,
    parse,
    parse_polynomial,
    to_polynomial,
)
from torsal.polyring import Polynomial, VarContext, format_polynomial, format_rational

XY = VarContext(["x", "y"])
EXPECTED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "expected_cli.json"


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
            # every token character is ASCII, so a multi-byte character is
            # itself the first error; the later '$' is not reported
            ("x + é $", 4),
            ("x\u00a0+ 1", 1),  # no-break space is not whitespace here
            ("\U0001f600 + x", 0),
            # an undecodable argv byte, as Python passes it, and a lone
            # surrogate that no byte could have produced
            ("x+\udcff", 2),
            ("1*\ud800", 2),
            # the end of input lies after the trailing whitespace
            ("x + \t\n ", 7),
            ("(x  ", 4),
        ],
    )
    def test_byte_offsets(self, text, offset):
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse(text)
        assert exc_info.value.offset == offset
        assert f"byte offset {offset}" in str(exc_info.value)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("x$", "unexpected character '$' (byte offset 1)"),
            ("x + \udcff", "unexpected character '\\udcff' (byte offset 4)"),
            ("(x", "expected ')', found end of input (byte offset 2)"),
            ("(x y", "expected ')', found 'y' (byte offset 3)"),
            (
                "x^y",
                "expected a natural-number exponent after '^', "
                "found 'y' (byte offset 2)",
            ),
            (
                "x^",
                "expected a natural-number exponent after '^', "
                "found end of input (byte offset 2)",
            ),
            ("", "expected a value, found end of input (byte offset 0)"),
            ("x*)", "expected a value, found ')' (byte offset 2)"),
            ("x y", "trailing input 'y' (byte offset 2)"),
            ("(x))", "trailing input ')' (byte offset 3)"),
            (
                "(" * 101 + "x",
                "parentheses and unary minus nest deeper than 100 (byte offset 100)",
            ),
            # an unexpected character wins over an earlier grammar error
            ("x + * $", "unexpected character '$' (byte offset 6)"),
            # Unicode digits and letters that str.isdigit and str.isalpha
            # accept are still outside the grammar
            ("x^²", "unexpected character '²' (byte offset 2)"),
            ("٣*x", "unexpected character '٣' (byte offset 0)"),
            ("x+１", "unexpected character '１' (byte offset 2)"),
            ("é*x", "unexpected character 'é' (byte offset 0)"),
        ],
    )
    def test_messages(self, text, message):
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse(text)
        assert str(exc_info.value) == message

    def test_number_literal_past_the_int_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for text, offset in (("9" * 641, 0), ("x^" + "9" * 641, 2)):
                with pytest.raises(ExprSyntaxError) as exc_info:
                    parse(text)
                assert str(exc_info.value) == (
                    f"number literal longer than 640 digits (byte offset {offset})"
                )
            assert parse("9" * 640) == Num(int("9" * 640))
        finally:
            sys.set_int_max_str_digits(limit)

    def test_printed_coefficients_stop_at_the_int_digit_limit(self):
        # the printer and the parser share the interpreter's limit, so
        # whatever prints parses back
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            x = XY.variable("x")
            f = 10 ** 4299 * x - 1  # a coefficient of exactly 4300 digits
            text = format_polynomial(f)
            assert text == "1" + "0" * 4299 + "*x - 1"
            assert parse_polynomial(text, XY) == f
            assert format_polynomial(x / 10 ** 4299).startswith("1/1000")
            for g in (10 ** 4300 * x, x / 10 ** 4300):
                with pytest.raises(DigitLimitError, match="longer than 4300 digits"):
                    format_polynomial(g)
        finally:
            sys.set_int_max_str_digits(limit)

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


# -- differential check against a character-loop reference ----------------


class _ReferenceError(Exception):
    def __init__(self, message, index):
        super().__init__(message)
        self.message, self.index = message, index


def reference_parse(text):
    """The grammar read one character at a time, as a plain reference.

    Returns the AST, or raises _ReferenceError with the message parse()
    should give and the character index of the offending input.
    """
    toks, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        j = i + 1
        if ch.isascii() and ch.isdigit():
            while j < len(text) and text[j].isascii() and text[j].isdigit():
                j += 1
            toks.append(("nat", text[i:j], i))
        elif ch.isascii() and (ch.isalpha() or ch == "_"):
            while j < len(text) and text[j].isascii() and (
                text[j].isalnum() or text[j] == "_"
            ):
                j += 1
            toks.append(("ident", text[i:j], i))
        elif ch in "+-*^()":
            toks.append((ch, ch, i))
        else:
            raise _ReferenceError(f"unexpected character {ch!r}", i)
        i = j
    toks.append(("end", "", len(text)))
    pos, depth = 0, 0

    def found(tok):
        return "end of input" if tok[0] == "end" else repr(tok[1])

    def expr():
        nonlocal pos
        terms = [(1, term())]
        while toks[pos][0] in ("+", "-"):
            sign = 1 if toks[pos][0] == "+" else -1
            pos += 1
            terms.append((sign, term()))
        return terms[0][1] if len(terms) == 1 else Sum(tuple(terms))

    def term():
        nonlocal pos
        factors = [factor()]
        while toks[pos][0] == "*":
            pos += 1
            factors.append(factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor():
        nonlocal pos
        node = base()
        if toks[pos][0] == "^":
            tok = toks[pos + 1]
            if tok[0] != "nat":
                raise _ReferenceError(
                    "expected a natural-number exponent after '^', "
                    f"found {found(tok)}",
                    tok[2],
                )
            pos += 2
            node = Pow(node, int(tok[1]))
        return node

    def base():
        nonlocal pos, depth
        tok = toks[pos]
        if tok[0] == "nat":
            pos += 1
            return Num(int(tok[1]))
        if tok[0] == "ident":
            pos += 1
            return Var(tok[1])
        if tok[0] in ("(", "-"):
            depth += 1
            if depth > MAX_NESTING:
                raise _ReferenceError(
                    f"parentheses and unary minus nest deeper than {MAX_NESTING}",
                    tok[2],
                )
            pos += 1
            if tok[0] == "-":
                node = Neg(base())
            else:
                node = expr()
                if toks[pos][0] != ")":
                    raise _ReferenceError(
                        f"expected ')', found {found(toks[pos])}", toks[pos][2]
                    )
                pos += 1
            depth -= 1
            return node
        raise _ReferenceError(f"expected a value, found {found(tok)}", tok[2])

    node = expr()
    if toks[pos][0] != "end":
        raise _ReferenceError(f"trailing input {toks[pos][1]!r}", toks[pos][2])
    return node


# characters to splice into grammar-built strings: token characters,
# every whitespace the grammar skips, ASCII junk, multi-byte characters,
# Unicode digits, letters and spaces the grammar refuses, an undecodable
# argv byte and a lone surrogate
_SPLICE = list("xyz019_ \t\r\n+-*^()$/.") + [
    "é", "α", "٣", "ｘ", " ", "\x0b", "\U0001f600", "\udcff", "\ud800",
]


_EXPONENT = re.compile(r"\^[ \t\r\n]*([0-9]+)")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class TestDifferential:
    def test_seeded_strings_match_the_reference(self):
        rng = random.Random(606060)
        rejected = round_trips = 0
        for _ in range(3000):
            text = random_expression(
                rng, ["x", "y", "z", "lam"], depth=rng.randint(0, 3)
            )
            for _ in range(rng.randint(0, 3)):
                i, roll = rng.randint(0, len(text)), rng.random()
                if roll < 0.5:
                    text = text[:i] + rng.choice(_SPLICE) + text[i:]
                elif roll < 0.8:
                    text = text[:i] + text[i + 1:]
                else:  # runs of one character reach the nesting limit
                    text = text[:i] + rng.choice(_SPLICE) * rng.randint(2, 120) + text[i:]
            try:
                want = reference_parse(text)
            except _ReferenceError as ref:
                with pytest.raises(ExprSyntaxError) as exc_info:
                    parse(text)
                offset = len(text[: ref.index].encode("utf-8", "surrogateescape"))
                assert exc_info.value.offset == offset, repr(text)
                assert str(exc_info.value) == f"{ref.message} (byte offset {offset})"
                rejected += 1
                continue
            assert parse(text) == want, repr(text)
            # a spliced digit can make an exponent of 40 or more, whose
            # expansion, not its parsing, would dominate the test
            if max(map(int, _EXPONENT.findall(text)), default=0) >= 10:
                continue
            names = sorted(set(_IDENT.findall(text))) or ["x"]
            ctx = VarContext(names)
            f = to_polynomial(want, ctx)
            canonical = format_polynomial(f)
            g = parse_polynomial(canonical, ctx)
            assert g == f and format_polynomial(g) == canonical, repr(text)
            round_trips += 1
        # both sides of the grammar are exercised
        assert rejected > 1000 and round_trips > 1000


# -- parse_polynomial against parse() followed by to_polynomial() ----------


def seed_parse_polynomial(text, ctx):
    """parse_polynomial as parse() then to_polynomial(): the reference."""
    return to_polynomial(parse(text), ctx)


def outcome(read, text, ctx):
    """The terms read builds from text, or its exception's type, text and offset."""
    try:
        return ("terms", read(text, ctx)._terms)
    except Exception as exc:  # noqa: BLE001 - every error must match
        return (type(exc), str(exc), getattr(exc, "offset", None))


class TestTermBuilder:
    """parse_polynomial against parse() then to_polynomial(), on text the
    canonical reader accepts and on text it declines. The class keeps the
    name of the term builder it once checked, so its test ids stay put."""

    def test_seeded_strings_match_parse_then_to_polynomial(self):
        # the strings of TestDifferential, read in contexts that sometimes
        # omit a name the text uses
        rng = random.Random(606060)
        names_rng = random.Random(707070)
        kinds = {"terms": 0, "syntax": 0, "evaluation": 0}
        for _ in range(3000):
            text = random_expression(
                rng, ["x", "y", "z", "lam"], depth=rng.randint(0, 3)
            )
            for _ in range(rng.randint(0, 3)):
                i, roll = rng.randint(0, len(text)), rng.random()
                if roll < 0.5:
                    text = text[:i] + rng.choice(_SPLICE) + text[i:]
                elif roll < 0.8:
                    text = text[:i] + text[i + 1:]
                else:
                    text = text[:i] + rng.choice(_SPLICE) * rng.randint(2, 120) + text[i:]
            names = sorted(set(_IDENT.findall(text))) or ["x"]
            if len(names) > 1 and names_rng.random() < 0.3:
                names.remove(names_rng.choice(names))
            ctx = VarContext(names)
            try:
                parse(text)
            except ExprSyntaxError:
                pass
            else:
                # as in TestDifferential: an exponent of 10 or more is
                # expanded, not parsed, in both
                if max(map(int, _EXPONENT.findall(text)), default=0) >= 10:
                    continue
            want = outcome(seed_parse_polynomial, text, ctx)
            assert outcome(parse_polynomial, text, ctx) == want, repr(text)
            if want[0] == "terms":
                kinds["terms"] += 1
            else:
                kinds["syntax" if want[0] is ExprSyntaxError else "evaluation"] += 1
        assert kinds["terms"] > 900 and kinds["syntax"] > 1000
        assert kinds["evaluation"] > 100

    @pytest.mark.parametrize(
        "text,kind,message",
        [
            ("x^4294967296", DegreeError, "power has total degree 4294967296"),
            ("x^4294967295*x", DegreeError, "monomial (4294967296,) has total degree"),
            ("q*x^4294967296", UnknownVariableError, "unknown variable 'q'"),
            ("x^4294967296*q", UnknownVariableError, "unknown variable 'q'"),
            ("0*x^4294967296", "terms", {}),
            ("q + )", ExprSyntaxError, "expected a value, found ')' (byte offset 4)"),
            ("(x+1)^4294967296", DegreeError, "power has total degree 4294967296"),
            ("-x^4294967296", DegreeError, "power has total degree 4294967296"),
            ("x*(q+1)", UnknownVariableError, "unknown variable 'q'"),
            ("(q)^0", UnknownVariableError, "unknown variable 'q'"),
            ("0*q", UnknownVariableError, "unknown variable 'q'"),
            ("q^0", UnknownVariableError, "unknown variable 'q'"),
            ("x^4294967295", "terms", {4294967295 << 32 | 4294967295: (1, 1)}),
            ("-2^3*x - 3*-x + -(x)", "terms", {1 << 32 | 1: (-6, 1)}),
            ("1 - " + "-" * 100 + "x", "terms", {0: (1, 1), 1 << 32 | 1: (-1, 1)}),
            (
                "1 - " + "-" * 101 + "x",
                ExprSyntaxError,
                "nest deeper than 100 (byte offset 104)",
            ),
        ],
    )
    def test_pinned_inputs(self, text, kind, message):
        ctx = VarContext(["x"])
        got = outcome(parse_polynomial, text, ctx)
        assert got == outcome(seed_parse_polynomial, text, ctx)
        assert got[0] == kind
        if kind == "terms":
            assert got[1] == message
        else:
            assert message in got[1]

    @pytest.mark.parametrize("text", ["(x+y+z)^100000 + )", "(x+1)^4294967295 $"])
    def test_syntax_errors_come_before_any_power(self, text):
        start = time.perf_counter()
        with pytest.raises(ExprSyntaxError):
            parse_polynomial(text, VarContext(["x", "y", "z"]))
        assert time.perf_counter() - start < 1.0

    def test_canonical_text_builds_no_node_and_no_polynomial_per_term(self, monkeypatch):
        ctx = VarContext(["x", "y", "z"])
        f = parse_polynomial("(x+y+z)^44", ctx)
        text = format_polynomial(f)
        calls = {"to_polynomial": 0, "_make": 0}

        def counting_to_polynomial(node, context):
            calls["to_polynomial"] += 1
            return to_polynomial(node, context)

        make = Polynomial._make.__func__

        def counting_make(cls, context, kterms):
            calls["_make"] += 1
            return make(cls, context, kterms)

        monkeypatch.setattr(expr, "to_polynomial", counting_to_polynomial)
        monkeypatch.setattr(Polynomial, "_make", classmethod(counting_make))
        assert parse_polynomial(text, ctx) == f
        assert calls["to_polynomial"] == 0 and calls["_make"] <= 2


# -- the canonical-text reader ahead of the descent ----------------------------

_NAMES = ["x", "y", "z1", "lam", "_t", "Z0", "u2v", "p"]


def random_int_polynomial(rng, ctx, max_exp):
    """A polynomial with int coefficients: none, one or up to 12 terms, with
    one-digit and 30-digit coefficients and some exponents of 10 or more."""
    terms = {}
    for _ in range(rng.choice([0, 1, rng.randint(1, 12)])):
        exps = tuple(
            rng.choice([0, 0, 1, 2, 3, rng.randint(0, max_exp)]) for _ in range(len(ctx))
        )
        coef = rng.choice([1, -1, rng.randint(-9, 9), rng.randint(-10 ** 30, 10 ** 30)])
        terms[exps] = terms.get(exps, 0) + coef
    return Polynomial(ctx, {e: c for e, c in terms.items() if c})


class _NoDescent:
    def __init__(self, text):
        raise AssertionError(f"the descent read {text!r}")


def leading_factor_exponent(text):
    """The exponent of the first variable factor of canonical text, or None."""
    head = text.lstrip("-").split(" ")[0].split("*")
    head = [f for f in head if not f.isdigit()]
    return int(head[0].partition("^")[2] or 1) if head else None


class TestCanonicalReader:
    def test_formatted_polynomials_are_read_without_the_descent(self, monkeypatch):
        rng = random.Random(232323)
        cases = []
        for _ in range(800):
            ctx = VarContext(rng.sample(_NAMES, rng.randint(1, 6)))
            f = random_int_polynomial(rng, ctx, max_exp=150)
            if rng.random() < 0.3:
                # a new leading term -m, so a leading '-' meets odd and even
                # first exponents
                d = f.total_degree() + 1 if f else rng.randint(1, 4)
                exps = [0] * len(ctx)
                for _ in range(d):
                    exps[rng.randrange(len(ctx))] += 1
                f = f - Polynomial(ctx, {tuple(exps): rng.choice([1, 1, 12])})
            cases.append((format_polynomial(f), ctx, f))
        limit = sys.get_int_max_str_digits()
        x, y = XY.variables()
        at_limit = 10 ** (limit - 1) * x ** 2 - y
        cases.append((format_polynomial(at_limit), XY, at_limit))
        seen = {"zero": 0, "constant": 0, "odd": 0, "even": 0, "digits": 0, "exponent": 0}
        monkeypatch.setattr(expr, "_Parser", _NoDescent)
        for text, ctx, f in cases:
            assert parse_polynomial(text, ctx) == f, repr(text)
            seen["zero"] += text == "0"
            seen["constant"] += f.is_constant() and text != "0"
            if text[0] == "-" and f.total_degree():
                seen["odd" if leading_factor_exponent(text) & 1 else "even"] += 1
            seen["digits"] += re.search(r"(^|[ *-])[0-9]{2,}\*", text) is not None
            seen["exponent"] += re.search(r"\^[0-9]{2,}", text) is not None
        assert len(format_polynomial(at_limit).split("*")[0]) == limit
        assert min(seen.values()) > 10, seen

    @pytest.mark.parametrize(
        "text,terms",
        [
            ("-x^2*y", {3 << 64 | 2 << 32 | 1: (1, 1)}),
            ("-x^3*y", {4 << 64 | 3 << 32 | 1: (-1, 1)}),
            ("-x*y + 2", {2 << 64 | 1 << 32 | 1: (-1, 1), 0: (2, 1)}),
            ("-x^0", {0: (1, 1)}),
            ("-12*x^2", {2 << 64 | 2 << 32: (-12, 1)}),
            ("-0 + x - x", {}),
            ("x*x*y^2 - 3*y^2*x^2 + 007", {4 << 64 | 2 << 32 | 2: (-2, 1), 0: (7, 1)}),
        ],
    )
    def test_leading_minus_and_summed_keys(self, monkeypatch, text, terms):
        want = outcome(seed_parse_polynomial, text, XY)
        assert want == ("terms", terms)
        monkeypatch.setattr(expr, "_Parser", _NoDescent)
        assert outcome(parse_polynomial, text, XY) == want

    @pytest.mark.parametrize(
        "text",
        [
            "q*x", "(x)", "x  + y", "x\t+ y", "x +y", " x", "x ", "1/2*x", "2^3*x",
            "x^2^3", "x^", "x^y", "x*", "*x", "", "-", "x + ", "x + -y", "--x",
            "x*3", "3*4", "x*y*x*y", "2*x*y*x", "x^4294967296", "x^4294967295*x", "1" + "0" * 4300 + "*x",
            "x^1" + "0" * 4300, "x²", "١*x", "x + \udcff",
        ],
    )
    def test_declined_text_goes_to_the_descent(self, monkeypatch, text):
        assert expr._canonical(text, XY) is None
        want = outcome(seed_parse_polynomial, text, XY)
        assert outcome(parse_polynomial, text, XY) == want

    def test_mutated_canonical_text_matches_parse_then_to_polynomial(self, monkeypatch):
        rng = random.Random(242424)
        splice = list("xyz019_ \t+-*^()/") + ["  ", " + ", " - ", "^2", "*x", "é"]
        read = {True: 0, False: 0}
        canonical = expr._canonical

        def counting(text, context):
            out = canonical(text, context)
            read[out is not None] += 1
            return out

        monkeypatch.setattr(expr, "_canonical", counting)
        limit = sys.get_int_max_str_digits()
        for _ in range(2000):
            ctx = VarContext(rng.sample(_NAMES, rng.randint(1, 4)))
            f = random_int_polynomial(rng, ctx, max_exp=9)
            if rng.random() < 0.05:
                f = f + 10 ** (limit - 1) * ctx.variable(ctx.names[0])
            text = format_polynomial(f)
            for _ in range(rng.randint(0, 3)):
                i, roll = rng.randint(0, len(text)), rng.random()
                if roll < 0.5:
                    text = text[:i] + rng.choice(splice) + text[i:]
                elif roll < 0.8:
                    text = text[:i] + text[i + 1:]
                else:
                    text = text[:i] + rng.choice(splice) + text[i + 1:]
            names = list(ctx.names)
            if len(names) > 1 and rng.random() < 0.2:
                names.remove(rng.choice(names))
            ctx = VarContext(names)
            if "(" in text or max(map(len, _EXPONENT.findall(text)), default=0) > 2:
                # a group, or '^' spliced into a long number, may be a power
                # too large to expand: compared only where it is a syntax error
                try:
                    parse(text)
                except ExprSyntaxError:
                    pass
                else:
                    continue
            want = outcome(seed_parse_polynomial, text, ctx)
            assert outcome(parse_polynomial, text, ctx) == want, repr(text)
        assert read[True] > 400 and read[False] > 1000, read

    def test_every_stored_cli_polynomial_is_read_without_the_descent(self):
        # the fields of the stored CLI outputs that hold polynomials with
        # int coefficients; the file is only read
        fields = {
            "polynomial", "family", "envelope", "input", "output", "canonical",
            "conic", "generators", "image", "determinant", "matrix", "map",
            "gradient", "residual",
        }
        texts = []

        def walk(value, field):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(v, k)
            elif isinstance(value, list):
                for v in value:
                    walk(v, field)
            elif isinstance(value, str) and field in fields:
                texts.append(value)

        for case in json.loads(EXPECTED_CLI.read_text()).values():
            if case["stdout"]:
                walk(json.loads(case["stdout"]), None)
        assert len(texts) > 100
        for text in texts:
            ctx = VarContext(sorted(set(_IDENT.findall(text))) or ["x"])
            terms = expr._canonical(text, ctx)
            assert terms is not None, repr(text)
            assert terms == seed_parse_polynomial(text, ctx)._terms, repr(text)


# -- the formatter against the term-by-term algorithm it replaced ------------


def reference_format(f):
    """Canonical text built term by term from unpacked exponent vectors."""
    if f.is_zero():
        return "0"
    pieces = []
    for idx, (mono, coef) in enumerate(f.sorted_terms()):
        num, den = coef.numerator, coef.denominator
        factors = []
        for name, e in zip(f.context.names, mono.exponents):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = format_rational(abs(num), den)
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
            if idx == 0 and num < 0 and "^" in factors[0]:
                body = "1*" + body
        else:
            body = mag + "*" + "*".join(factors)
        if idx == 0:
            pieces.append(body if num > 0 else "-" + body)
        else:
            pieces.append((" + " if num > 0 else " - ") + body)
    return "".join(pieces)


class TestFormatter:
    def test_seeded_polynomials_match_the_reference(self):
        rng = random.Random(818181)
        leading_unit = {True: 0, False: 0}  # "-1*" written, or not
        for _ in range(600):
            n = rng.randint(1, 6)
            ctx = VarContext([f"v{i}" for i in range(n)])
            f = make_random_polynomial(rng, ctx, max_terms=8, max_exp=40)
            if rng.random() < 0.5:
                # a new leading term -m: the first variable of m is v_i, with
                # exponent 1 or more, and the rest of its degree lies after it
                i = rng.randrange(n)
                d = max(f.total_degree() + 1, 1)
                exps = [0] * n
                exps[i] = 1 if i < n - 1 and rng.random() < 0.5 else rng.randint(1, d)
                for _ in range(d - exps[i]):
                    exps[rng.randrange(i + 1, n) if i < n - 1 else i] += 1
                f = f - Polynomial(ctx, {tuple(exps): 1})
            text = format_polynomial(f)
            assert text == reference_format(f), repr(text)
            if f and f.leading_coefficient() == -1 and f.total_degree() > 0:
                leading_unit[text.startswith("-1*")] += 1
        assert leading_unit[True] > 20 and leading_unit[False] > 20

    def test_digit_limit_is_unchanged(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            x, y = XY.variables()
            for f in (10 ** 4300 * x + y, x ** 2 + y / 10 ** 4300, x - 10 ** 4299 * y):
                try:
                    want = reference_format(f)
                except DigitLimitError as exc:
                    with pytest.raises(DigitLimitError) as exc_info:
                        format_polynomial(f)
                    assert str(exc_info.value) == str(exc)
                else:
                    assert format_polynomial(f) == want
        finally:
            sys.set_int_max_str_digits(limit)
