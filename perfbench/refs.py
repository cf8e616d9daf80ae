"""Independent references the benchmark checks torsal's results against.

Nothing here calls torsal's arithmetic: values come from plain
``fractions.Fraction`` computations, so a defect in the kernel, the
polynomial wrapper or the determinant routine cannot hide itself.
"""

from __future__ import annotations

import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\S))")


def eval_expression(text: str, values: dict, number=Fraction):
    """Value of a grammar expression (see ``torsal.expr``) at a rational point.

    Same grammar, written independently: '^' takes a natural literal and
    binds looser than unary minus, so "-x^2" is (-x)^2. Sums and products
    are loops, so long canonical strings do not recurse. ``number`` maps
    a literal's digits to a value of the same type as ``values``.
    """
    tokens = []
    for num, ident, op in _TOKEN.findall(text):
        tokens.append(("n", int(num)) if num else ("v", ident) if ident else ("o", op))
    tokens.append(("o", "end"))
    pos = 0

    def peek():
        return tokens[pos]

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        value = term()
        while peek() in (("o", "+"), ("o", "-")):
            sign = take()[1]
            rhs = term()
            value = value + rhs if sign == "+" else value - rhs
        return value

    def term():
        value = factor()
        while peek() == ("o", "*"):
            take()
            value *= factor()
        return value

    def factor():
        value = base()
        if peek() == ("o", "^"):
            take()
            kind, exponent = take()
            if kind != "n":
                raise ValueError(f"exponent expected in {text!r}")
            value = value ** exponent
        return value

    def base():
        kind, tok = take()
        if kind == "n":
            return number(tok)
        if kind == "v":
            return values[tok]
        if tok == "(":
            value = expr()
            if take() != ("o", ")"):
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return value
        if tok == "-":
            return -base()
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    value = expr()
    if peek() != ("o", "end"):
        raise ValueError(f"trailing input in {text!r}")
    return value


def eval_terms(terms, point) -> Fraction:
    """Value of ``[(coefficient, exponents), ...]`` at a rational point."""
    total = Fraction(0)
    for coef, exps in terms:
        value = Fraction(coef)
        for x, e in zip(point, exps):
            if e:
                value *= Fraction(x) ** e
        total += value
    return total


def poly_value(f, point) -> Fraction:
    """Value of a torsal Polynomial, read term by term, at a rational point.

    Only the term list is taken from torsal; the evaluation is Fraction
    arithmetic, not the kernel's ``terms_eval``.
    """
    return eval_terms(
        [(coef, mono.exponents) for mono, coef in f.sorted_terms()], point
    )


def det_fraction(rows) -> Fraction:
    """Determinant of a rational matrix by Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        pivot = a[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = a[r][col] / pivot
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def sylvester_det(f_coeffs, g_coeffs) -> Fraction:
    """Numeric Sylvester determinant from descending coefficient lists.

    The lists keep their formal length even when a leading coefficient is
    zero, so specialising before or after taking the determinant agrees.
    """
    m, n = len(f_coeffs) - 1, len(g_coeffs) - 1
    size = m + n
    rows = [[0] * i + list(f_coeffs) + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + list(g_coeffs) + [0] * (size - n - 1 - i) for i in range(m)]
    return det_fraction(rows)


def same_up_to_ratio(pairs) -> bool:
    """Whether got = c * ref at every (got, ref) pair for one nonzero c."""
    ratio = None
    for got, ref in pairs:
        if (got == 0) != (ref == 0):
            return False
        if ref:
            r = Fraction(got) / Fraction(ref)
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return ratio is not None
