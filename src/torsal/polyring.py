"""Exact multivariate polynomial ring over arbitrary-precision rationals.

Polynomials are immutable values in canonical form: a fixed variable
context, no zero coefficients, coefficients in lowest terms. Structural
equality is the identity test; there is no floating point anywhere.

Terms are held by the kernel (torsal._kernel): a dict from one packed
int per monomial to a (numerator, denominator) int pair. Exponent tuples
and Monomial are the public face; packing and unpacking happen here, and
so does the field-width guard: a product, power or substitution whose
total degree could reach the kernel's DEGREE_LIMIT raises DegreeError
instead of building a wrong key. The dict has no order. Descending
graded-lexicographic order is sorted once, on the packed ints, where it
can be seen (sorted_terms, leading_monomial, leading_coefficient,
format_polynomial) and cached on the polynomial; equality, hashing and
evaluation do not depend on it. Coefficients are exposed as
fractions.Fraction. Cross-context arithmetic is a hard error, never a
coercion.

Exact division: ``f.exact_div(g)`` is the q with q*g = f. The kernel
divides by g's leading term, taking the remainder's grlex-largest
monomial each step, and raises InexactDivisionError as soon as that
monomial is not a multiple of g's leading one, which happens exactly when
g does not divide f; a wrong quotient is never returned.

Resultants: ``sylvester_resultant`` never builds the Sylvester matrix. It
runs the subresultant polynomial remainder sequence in the eliminated
variable, with coefficients in the ring of the remaining variables
(Collins 1967; Brown and Traub 1971; Cohen, "A Course in Computational
Algebraic Number Theory", Alg. 3.3.7, without content removal): each
pseudo-remainder is divided exactly by g*h^delta and each new h is
g^delta divided exactly by h^(delta-1). The number of ring operations
grows polynomially in the degrees, where cofactor expansion of the
matrix grows factorially.

Linear algebra: ``eliminate`` is the one elimination, fraction-free
Gauss-Jordan (Bareiss 1968) with exact division by the previous pivot.
det_over_ring reads the determinant off it, and projgeom's adjugate,
frame inverse and rank are built on it.

Sign conventions, fixed here and relied on by callers:

* ``sylvester_resultant(f, g, var)`` is the determinant of the Sylvester
  matrix whose first deg_var(g) rows carry the coefficients of f
  (descending powers of var) and whose last deg_var(f) rows carry those
  of g. In particular Res(p - a, p - b) = a - b, and for a quadratic
  f = a*p^2 + b*p + c one has Res_p(f, df/dp) = -a*(b^2 - 4*a*c).
* ``discriminant(f, var)`` is b^2 - 4*a*c from the var-coefficients,
  i.e. -Res_var(f, df/dvar) / a for the quadratic case handled here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from torsal import _kernel as K
from torsal._kernel import DEGREE_LIMIT, MASK, WIDTH
from torsal.errors import (
    ContextMismatchError,
    DegreeError,
    InexactDivisionError,
    MissingAssignmentError,
    UnknownVariableError,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _degree_guard(degree, what):
    if degree >= DEGREE_LIMIT:
        raise DegreeError(
            f"{what} has total degree {degree}; packed monomials allow "
            f"at most {DEGREE_LIMIT - 1}"
        )


class VarContext:
    """An ordered, immutable list of distinct variable names.

    Exponent vectors of monomials index into it; two contexts compare
    equal exactly when their name tuples match. It also knows the layout
    of packed keys in its ring: the field of variable i starts at bit
    ``_shifts[i]`` and the total degree at bit ``_degree_shift``.
    """

    __slots__ = ("names", "_index", "_shifts", "_degree_shift")

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise ValueError("a variable context needs at least one name")
        for n in names:
            if not isinstance(n, str) or not _NAME_RE.match(n):
                raise ValueError(f"invalid variable name {n!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        n = len(names)
        self._shifts = tuple((n - 1 - i) * WIDTH for i in range(n))
        self._degree_shift = n * WIDTH

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariableError(name, self) from None

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        return name in self._index

    def __eq__(self, other):
        return isinstance(other, VarContext) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarContext({', '.join(self.names)})"

    def _pack(self, exps) -> int:
        """Packed key of a valid exponent vector; DegreeError past the limit."""
        degree = sum(exps)
        _degree_guard(degree, f"monomial {tuple(exps)}")
        key = degree
        for e in exps:
            key = (key << WIDTH) | e
        return key

    def _unpack(self, key) -> tuple:
        return tuple([(key >> s) & MASK for s in self._shifts])

    def variable(self, name: str) -> "Polynomial":
        """The variable `name` as a polynomial."""
        key = (1 << self._degree_shift) | (1 << self._shifts[self.index(name)])
        return Polynomial._make(self, {key: (1, 1)})

    def variables(self) -> tuple["Polynomial", ...]:
        """All context variables, in order, as polynomials."""
        return tuple(self.variable(n) for n in self.names)


def _grlex_key(exps):
    return (sum(exps), exps)


@total_ordering
@dataclass(frozen=True)
class Monomial:
    """Exponent vector of one term; ordered graded-lexicographically."""

    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if any((not isinstance(e, int)) or e < 0 for e in self.exponents):
            raise ValueError(f"exponents must be non-negative ints: {self.exponents}")

    @property
    def total_degree(self) -> int:
        return sum(self.exponents)

    def __lt__(self, other):
        return _grlex_key(self.exponents) < _grlex_key(other.exponents)


def _coeff_pair(value):
    if isinstance(value, int):
        return (value, 1)
    if isinstance(value, Fraction):
        return (value.numerator, value.denominator)
    raise TypeError(f"coefficient must be int or Fraction, got {type(value).__name__}")


class Polynomial:
    """Canonical sparse polynomial over the rationals in a fixed context."""

    __slots__ = ("context", "_terms", "_hash", "_order")

    def __init__(self, context: VarContext, terms=None):
        kterms = {}
        n = len(context)
        for key, value in (terms or {}).items():
            exps = key.exponents if isinstance(key, Monomial) else tuple(key)
            if len(exps) != n:
                raise ValueError(
                    f"exponent vector {exps} does not match context of size {n}"
                )
            if any((not isinstance(e, int)) or e < 0 for e in exps):
                raise ValueError(f"exponents must be non-negative ints: {exps}")
            pair = K.rat_norm(*_coeff_pair(value))
            if pair[0]:
                packed = context._pack(exps)
                cur = kterms.get(packed)
                kterms[packed] = pair if cur is None else K.rat_add(*cur, *pair)
                if kterms[packed][0] == 0:
                    del kterms[packed]
        self.context = context
        self._terms = kterms
        self._hash = None
        self._order = None

    @classmethod
    def _make(cls, context, kterms):
        # internal: kterms already normalized by the kernel, and owned by
        # the new polynomial from here on (never changed again)
        self = object.__new__(cls)
        self.context = context
        self._terms = kterms
        self._hash = None
        self._order = None
        return self

    @classmethod
    def zero(cls, context: VarContext) -> "Polynomial":
        return cls._make(context, {})

    @classmethod
    def constant(cls, context: VarContext, value) -> "Polynomial":
        pair = K.rat_norm(*_coeff_pair(value))
        if pair[0] == 0:
            return cls.zero(context)
        return cls._make(context, {0: pair})

    @classmethod
    def one(cls, context: VarContext) -> "Polynomial":
        return cls.constant(context, 1)

    # -- views ---------------------------------------------------------

    def _keys_descending(self) -> list:
        """Packed keys in descending graded-lex order, sorted once."""
        order = self._order
        if order is None:
            order = self._order = sorted(self._terms, reverse=True)
        return order

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def total_degree(self) -> int:
        """Largest term degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> self.context._degree_shift

    def is_homogeneous(self) -> bool:
        shift = self.context._degree_shift
        return len({key >> shift for key in self._terms}) <= 1

    def is_constant(self) -> bool:
        # the monomial 1 is the only key of degree 0, and it is 0
        return not any(self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        if not self._terms:
            return Fraction(0)
        (n, d), = self._terms.values()
        return Fraction(n, d)

    def sorted_terms(self):
        """Terms as (Monomial, Fraction) pairs, descending graded-lex."""
        unpack, terms = self.context._unpack, self._terms
        return [
            (Monomial(unpack(key)), Fraction(*terms[key]))
            for key in self._keys_descending()
        ]

    def coefficient(self, key) -> Fraction:
        exps = key.exponents if isinstance(key, Monomial) else tuple(key)
        if (len(exps) != len(self.context)
                or any((not isinstance(e, int)) or e < 0 for e in exps)
                or sum(exps) >= DEGREE_LIMIT):
            return Fraction(0)
        pair = self._terms.get(self.context._pack(exps))
        return Fraction(*pair) if pair else Fraction(0)

    def leading_monomial(self) -> Monomial:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return Monomial(self.context._unpack(self._keys_descending()[0]))

    def leading_coefficient(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        return Fraction(*self._terms[self._keys_descending()[0]])

    def variables_present(self) -> tuple:
        """Names of variables that occur with positive exponent."""
        fields = 0
        for key in self._terms:
            fields |= key
        return tuple(
            name for name, s in zip(self.context.names, self.context._shifts)
            if (fields >> s) & MASK
        )

    def term_count(self) -> int:
        return len(self._terms)

    def degree_in(self, var: str) -> int:
        """Largest exponent of `var` (0 when absent); -1 for the zero polynomial."""
        s = self.context._shifts[self.context.index(var)]
        if not self._terms:
            return -1
        return max((key >> s) & MASK for key in self._terms)

    def coefficients_in(self, var: str) -> list:
        """Coefficients of var^0, var^1, ... as polynomials (var removed)."""
        s = self.context._shifts[self.context.index(var)]
        unit = (1 << self.context._degree_shift) + (1 << s)
        deg = self.degree_in(var)
        buckets = [dict() for _ in range(max(deg, 0) + 1)]
        for key, pair in self._terms.items():
            e = (key >> s) & MASK
            buckets[e][key - e * unit] = pair
        return [Polynomial._make(self.context, b) for b in buckets]

    # -- arithmetic ----------------------------------------------------

    def _check_context(self, other):
        if self.context != other.context:
            raise ContextMismatchError(
                f"context ({', '.join(self.context.names)}) vs "
                f"({', '.join(other.context.names)})"
            )

    def _promote(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.context, other)
        return None

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        self._check_context(other)
        return Polynomial._make(self.context, K.terms_add(self._terms, other._terms))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.context, K.terms_neg(self._terms))

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        self._check_context(other)
        return Polynomial._make(
            self.context, K.terms_add(self._terms, other._terms, -1)
        )

    def __rsub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            pair = _coeff_pair(other)
            return Polynomial._make(self.context, K.terms_scale(self._terms, *pair))
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_context(other)
        if self._terms and other._terms:
            _degree_guard(self.total_degree() + other.total_degree(), "product")
        return Polynomial._make(self.context, K.terms_mul(self._terms, other._terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (Fraction(1) / Fraction(other))

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """The polynomial q with q * other == self.

        Raises InexactDivisionError when other does not divide self, and
        ZeroDivisionError when other is zero.
        """
        if not isinstance(other, Polynomial):
            raise TypeError(f"exact_div needs a Polynomial, got {type(other).__name__}")
        self._check_context(other)
        return Polynomial._make(
            self.context, K.terms_exact_div(self._terms, other._terms)
        )

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a non-negative int")
        if self._terms:
            _degree_guard(self.total_degree() * n, "power")
        return Polynomial._make(self.context, K.terms_pow(self._terms, n))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.context, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.context == other.context and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.context.names, frozenset(self._terms.items()))
            )
        return self._hash

    def __repr__(self):
        return f"Polynomial({self})"

    def __str__(self):
        return format_polynomial(self)

    # -- calculus and structure ----------------------------------------

    def partial_derivative(self, var: str) -> "Polynomial":
        """Formal partial derivative with respect to `var`."""
        s = self.context._shifts[self.context.index(var)]
        unit = (1 << self.context._degree_shift) + (1 << s)
        out = {}
        for key, (n, d) in self._terms.items():
            e = (key >> s) & MASK
            if e:
                out[key - unit] = K.rat_norm(n * e, d)
        return Polynomial._make(self.context, out)

    def substitute(self, assignment, target_context: VarContext | None = None):
        """Ring-homomorphic image under var -> polynomial replacement.

        Every variable that occurs in f must have an image; images may be
        polynomials (sharing one target context) or plain rationals.
        """
        images = {}
        for name, img in assignment.items():
            self.context.index(name)  # validates the name
            images[name] = img
        target = target_context
        for img in images.values():
            if isinstance(img, Polynomial):
                if target is None:
                    target = img.context
                elif target != img.context:
                    raise ContextMismatchError(
                        f"substitution images mix contexts "
                        f"({', '.join(target.names)}) vs "
                        f"({', '.join(img.context.names)})"
                    )
        if target is None:
            raise ValueError(
                "substitute() needs at least one polynomial image or an "
                "explicit target_context"
            )
        needed = self.variables_present()
        for name in needed:
            if name not in images:
                raise MissingAssignmentError(
                    f"no image for variable {name!r} occurring in f"
                )
        # variable index -> [image^0, image^1, ...] term dicts, grown on demand
        powers = {}
        image_degree = 0
        for name in needed:
            img = images[name]
            if not isinstance(img, Polynomial):
                img = Polynomial.constant(target, img)
            powers[self.context.index(name)] = [{0: (1, 1)}, img._terms]
            image_degree = max(image_degree, img.total_degree())
        if self._terms:
            _degree_guard(self.total_degree() * image_degree, "substitution")

        def power_of(i, e):
            cache = powers[i]
            while len(cache) <= e:
                cache.append(K.terms_mul(cache[-1], cache[1]))
            return cache[e]

        shifts = self.context._shifts
        acc = {}
        for key, pair in self._terms.items():
            term = {0: pair}
            for i, s in enumerate(shifts):
                e = (key >> s) & MASK
                if e:
                    term = K.terms_mul(term, power_of(i, e))
            K.add_into(acc, term)
        return Polynomial._make(target, acc)

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point (one entry per context variable)."""
        point = list(point)
        if len(point) != len(self.context):
            raise ValueError(
                f"point has {len(point)} entries, context has {len(self.context)}"
            )
        pairs = [_coeff_pair(x if isinstance(x, (int, Fraction)) else Fraction(x))
                 for x in point]
        return Fraction(*K.terms_eval(self._terms, pairs))

    def homogenize(self, new_var: str, degree: int | None = None) -> "Polynomial":
        """Homogenize to `degree` with `new_var` prepended to the context."""
        if new_var in self.context:
            raise ValueError(f"variable {new_var!r} already in context")
        d = self.total_degree()
        if degree is None:
            degree = max(d, 0)
        if degree < d:
            raise DegreeError(
                f"target degree {degree} below total degree {d}"
            )
        _degree_guard(degree, "homogenization")
        ctx = VarContext((new_var,) + self.context.names)
        shift = self.context._degree_shift  # the old degree field becomes new_var's
        fields = (1 << shift) - 1
        top = degree << ctx._degree_shift
        out = {}
        for key, pair in self._terms.items():
            out[top | (degree - (key >> shift)) << shift | (key & fields)] = pair
        return Polynomial._make(ctx, out)

    def dehomogenize(self, var: str) -> "Polynomial":
        """Set `var` to 1 and drop it from the context."""
        i = self.context.index(var)
        names = self.context.names[:i] + self.context.names[i + 1:]
        ctx = VarContext(names)
        s = self.context._shifts[i]
        below = (1 << s) - 1
        fields = (1 << self.context._degree_shift) - 1
        shift = self.context._degree_shift
        out = {}
        for key, pair in self._terms.items():
            e = (key >> s) & MASK
            rest = (((key >> shift) - e) << ctx._degree_shift
                    | (key & fields) >> (s + WIDTH) << s
                    | key & below)
            K.add_into(out, {rest: pair})
        return Polynomial._make(ctx, out)

    def rename(self, new_names) -> "Polynomial":
        """Same polynomial over a context with positionally renamed variables."""
        ctx = VarContext(new_names)
        if len(ctx) != len(self.context):
            raise ValueError(
                f"renaming needs {len(self.context)} names, got {len(ctx)}"
            )
        # the key layout depends on the number of variables only
        return Polynomial._make(ctx, self._terms)


def signed_sum(context: VarContext, summands) -> Polynomial:
    """Sum of ``(sign, polynomial)`` pairs (sign +1 or -1) in `context`.

    All summands accumulate into one term dict, so the cost is linear in
    the total number of terms.
    """
    out = {}
    for sign, f in summands:
        if f.context != context:
            raise ContextMismatchError(
                f"context ({', '.join(context.names)}) vs "
                f"({', '.join(f.context.names)})"
            )
        K.add_into(out, f._terms, sign)
    return Polynomial._make(context, out)


def _exact_quotient(x, d):
    """x / d where d is known to divide x: never a rounded or floored value."""
    if isinstance(x, Polynomial):
        return x.exact_div(d)
    if isinstance(x, int) and isinstance(d, int):
        q, r = divmod(x, d)
        if r:
            raise InexactDivisionError(f"{x} is not a multiple of {d}")
        return q
    return x / d


def eliminate(rows):
    """Fraction-free Gauss-Jordan elimination, in place (Bareiss 1968).

    rows is a list of equal-length lists over a commutative ring whose
    entries support +, -, * and truthiness (zero is falsy): int, Fraction
    or Polynomial. Each column in turn takes the first nonzero entry at or
    below the current row as its pivot (rows swapped as needed), and every
    other row is cleared in that column by x <- (pv*x - rv*y) / prev,
    where pv is the pivot, rv the row's entry in the pivot column, y the
    pivot row's entry and prev the previous pivot. By Sylvester's identity
    every entry stays a minor of the input, so each division is exact; an
    inexact one raises InexactDivisionError rather than rounding. Once k
    pivots are taken, their rows hold the k-th pivot on the diagonal of
    the pivot columns and zero in every other pivot column.

    Returns (sign, pivot columns): sign is -1 after an odd number of row
    swaps, and the number of pivot columns is the rank.
    """
    sign, pivots, prev = 1, [], 1
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != top:
            rows[top], rows[piv] = rows[piv], rows[top]
            sign = -sign
        prow = rows[top]
        pv = prow[col]
        # where rv*y is zero the update is pv*x/prev, which is x if pv == prev
        keep, unit = pv == prev, prev == 1
        for i, row in enumerate(rows):
            if i == top:
                continue
            rv = row[col]
            for j, (x, y) in enumerate(zip(row, prow)):
                if rv and y:
                    x = pv * x - rv * y
                elif x and not keep:
                    x = pv * x
                else:
                    continue
                row[j] = x if unit else _exact_quotient(x, prev)
        prev = pv
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return sign, pivots


def det_over_ring(rows):
    """Determinant of a square matrix over a commutative ring.

    Entries need +, -, * and truthiness (zero is falsy); works for int,
    Fraction and Polynomial alike. One fraction-free elimination
    (``eliminate``), so the number of ring operations grows as n^3: the
    determinant is the last pivot times the sign of the row swaps, or the
    ring zero when a column has no pivot.
    """
    rows = [list(r) for r in rows]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("determinant needs a non-empty square matrix")
    sign, pivots = eliminate(rows)
    if len(pivots) < n:
        return rows[0][0] * 0
    return sign * rows[n - 1][n - 1]


def _pseudo_remainder(a, b):
    """R with lc(b)^(deg a - deg b + 1) * a = Q*b + R and deg R < deg b.

    a, b and R are coefficient lists in one variable, constant term first,
    with a nonzero last entry (R is [] when it is zero); len(a) >= len(b).
    """
    lead, rest = b[-1], b[:-1]
    r = list(a)
    steps = len(a) - len(b) + 1
    while len(r) >= len(b):
        # r <- lead * r - top * x^k * b; the top coefficients cancel
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


def sylvester_resultant(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Resultant of f and g with respect to `var`.

    The determinant of the Sylvester matrix (f-rows first, descending
    coefficients; see the module docstring for the sign convention),
    computed by the subresultant PRS without building the matrix.
    """
    f._check_context(g)
    m = f.degree_in(var)
    n = g.degree_in(var)
    if m < 1:
        raise DegreeError(f"first input has degree {m} in {var!r}; need >= 1")
    if n < 1:
        raise DegreeError(f"second input has degree {n} in {var!r}; need >= 1")
    sign = 1
    if m < n:  # Res(f, g) = (-1)^(mn) Res(g, f)
        f, g = g, f
        sign = -1 if m * n % 2 else 1
    a = f.coefficients_in(var)
    b = g.coefficients_in(var)
    one = Polynomial.one(f.context)
    lead = h = one  # Cohen's g and h
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        r = _pseudo_remainder(a, b)
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


def discriminant(f: Polynomial, var: str) -> Polynomial:
    """b^2 - 4*a*c of a polynomial quadratic in `var`."""
    if f.degree_in(var) != 2:
        raise DegreeError(
            f"discriminant needs degree exactly 2 in {var!r}, "
            f"got {f.degree_in(var)}"
        )
    c0, c1, c2 = f.coefficients_in(var)
    return c1 * c1 - 4 * c2 * c0


def equal_up_to_scalar(f: Polynomial, g: Polynomial):
    """Whether f = c*g for a nonzero rational c; returns (bool, c or None)."""
    f._check_context(g)
    if f.is_zero() and g.is_zero():
        return True, Fraction(1)
    if f.is_zero() or g.is_zero():
        return False, None
    if f._terms.keys() != g._terms.keys():
        return False, None
    key = next(iter(f._terms))  # f = c*g fixes c at any shared monomial
    c = Fraction(*f._terms[key]) / Fraction(*g._terms[key])
    if f == g * c:
        return True, c
    return False, None


def content(f: Polynomial) -> Fraction:
    """Positive rational content: gcd of numerators over lcm of denominators."""
    if f.is_zero():
        return Fraction(0)
    from math import gcd, lcm

    nums = [abs(n) for (n, _) in f._terms.values()]
    dens = [d for (_, d) in f._terms.values()]
    g = 0
    for x in nums:
        g = gcd(g, x)
    l = 1
    for x in dens:
        l = lcm(l, x)
    return Fraction(g, l)


def primitive_part(f: Polynomial) -> Polynomial:
    """f divided by its content (coprime integer coefficients); 0 stays 0."""
    c = content(f)
    if c == 0:
        return f
    return f * (1 / c)


# -- canonical text rendering ------------------------------------------


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form, descending graded-lex, reparseable by the CLI grammar.

    Coefficients print as "n" or "n/d"; a denominator only appears when it
    is not 1, and such strings are output-only (the input grammar has no
    '/'). A leading negative unit coefficient is written explicitly as
    "-1*" when the first variable factor carries an exponent, because the
    grammar binds unary minus tighter than '^'.
    """
    if f.is_zero():
        return "0"
    names, unpack = f.context.names, f.context._unpack
    pieces = []
    for idx, key in enumerate(f._keys_descending()):
        num, den = f._terms[key]
        factors = []
        for name, e in zip(names, unpack(key)):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = f"{abs(num)}/{den}" if den != 1 else str(abs(num))
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
