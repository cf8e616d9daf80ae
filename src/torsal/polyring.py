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
g does not divide f; a wrong quotient is never returned. The division
runs on integers: f and g are cleared of denominators, and if a quotient
coefficient is not an integer, g is divided by its content and the
division runs once more. By Gauss's lemma the quotient by a primitive
divisor is integral, so a fraction on that pass means g does not divide f.

Resultants: ``sylvester_resultant`` never builds the Sylvester matrix. It
runs the subresultant polynomial remainder sequence in the eliminated
variable, with coefficients in the ring of the remaining variables
(Collins 1967; Brown and Traub 1971; Cohen, "A Course in Computational
Algebraic Number Theory", Alg. 3.3.7, without content removal): each
pseudo-remainder is divided exactly by g*h^delta and each new h is
g^delta divided exactly by h^(delta-1). The number of ring operations
grows polynomially in the degrees, where cofactor expansion of the
matrix grows factorially. One denominator per input: f = F/df and
g = G/dg are cleared once, and Res(f, g) = Res(F, G) / (df^n * dg^m)
with m = deg f and n = deg g. One pass over each of F and G reads its
degree in the variable, its one degree in the others if it has one, and
the sum over the powers of the squared l1 norms of their coefficients; a
second puts each term into the coefficient of its power.
Cohen's loop and its pseudo-remainder are written once, for any
coefficient ring with *, - and **, and run on one of two
representations of those coefficients:

* Kronecker (Fateman, "Can you save time in multiplying polynomials by
  encoding them as integers?", 2005): when every coefficient of F is
  homogeneous of one degree in the remaining variables, and likewise
  for G, the resultant is homogeneous of a known degree D. The last
  remaining variable is dropped, the others go to X, X^(D+1), ... with
  X = 2^B, and each term is shifted straight into the one int of its
  power, so each product and exact quotient of the sequence is one
  big-int operation. B bounds the resultant's coefficients by
  sqrt(S_F^n * S_G^m), S_F the sum of the squared l1 norms of F's
  coefficients in the variable (Goldstein and Graham 1974); the
  sequence's intermediates need not fit, as it runs on F and G evaluated
  at X, where both leading coefficients stay nonzero, and so ends on
  R(X). The result's signed base-2^B digits are read slot by slot, one
  per monomial of degree D, and the dropped exponent is D less the
  others. It is taken
  when the inputs are dense and B, times the slots per monomial of the
  result, is small (_kronecker_layout has the measured limits).
* Polynomials with integer coefficients, for every other input, one per
  power present (the absent powers share one zero): the sequence's
  products, powers and exact quotients are Polynomial's *, ** and
  exact_div, so the kernel's integer loops run and the degree guard is
  Polynomial's own.

Every quotient of the sequence is a subresultant, integral over the
integers, so one that is not raises InexactDivisionError. Both
representations give the same Polynomial.

Linear algebra: ``eliminate`` is the one elimination, fraction-free
Gauss-Jordan (Bareiss 1968) with exact division by the previous pivot.
``solve`` alone reads its sign and [d*I | X] layout, for det_over_ring,
projgeom's adjugate and frame inverse, and ruled's focal system.

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
import sys
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import product
from math import comb, gcd, isqrt, lcm

from torsal import _kernel as K
from torsal._record import Record
from torsal._kernel import DEGREE_LIMIT, MASK, WIDTH
from torsal.errors import (
    ContextMismatchError,
    DegreeError,
    DigitLimitError,
    InexactDivisionError,
    MissingAssignmentError,
    UnknownVariableError,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _times_power(terms, powers, e):
    """terms * base^e, a new dict unless e is 0 (then terms itself).

    ``powers`` = {1: base, ...} is the caller's memo of the powers of
    base; ``terms_pow`` makes each one the first time it is needed.
    """
    if not e:
        return terms
    power = powers.get(e)
    if power is None:
        power = powers[e] = K.terms_pow(powers[1], e)
    return K.terms_mul(terms, power)


def _repack(terms, images):
    """The image of a term dict under monomial or constant images, given as
    (field shift, _, image terms of at most one term) per variable present.
    Multiplying packed monomials adds their keys, so c * prod x_i^e_i goes
    to one term, key sum e_i * key_i and coefficient c * prod m_i^e_i (none
    if an image is zero); terms whose image keys meet are added."""
    moves, scales = [], []
    for s, _, img in images:
        ((key, (n, d)),) = img.items() if img else ((0, (0, 1)),)
        if key:
            moves.append((s, key))
        if (n, d) != (1, 1):
            scales.append((s, n, d))
    out = {}
    get = out.get
    for key, (n, d) in terms.items():
        image = 0
        for s, step in moves:
            image += ((key >> s) & MASK) * step
        for s, a, b in scales:
            e = (key >> s) & MASK
            if e:
                n *= a ** e
                d *= b ** e
        if n:
            cur = get(image)
            pair = (n, d) if d == 1 else K.rat_norm(n, d)
            pair = pair if cur is None else K.rat_add(*cur, *pair)
            if pair[0]:
                out[image] = pair
            else:
                del out[image]
    return out


def _by_power(terms, context, var, degree):
    """Split a dict keyed by packed monomials into one dict per power
    var^0 .. var^degree, with var removed from the keys."""
    s = context._shifts[context.index(var)]
    unit = context._units[var]
    buckets = [{} for _ in range(degree + 1)]
    for key, value in terms.items():
        e = (key >> s) & MASK
        buckets[e][key - e * unit] = value
    return buckets


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
    ``_shifts[i]`` and the total degree at bit ``_degree_shift``, and
    ``_units[name]`` is the key of the variable itself, so adding
    ``e * _units[name]`` to a key multiplies its monomial by name^e.
    """

    __slots__ = ("names", "_index", "_shifts", "_degree_shift", "_units")

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
        self._units = {
            name: (1 << self._degree_shift) | (1 << s)
            for name, s in zip(names, self._shifts)
        }

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
        self.index(name)  # UnknownVariableError
        return Polynomial._make(self, {self._units[name]: (1, 1)})

    def variables(self) -> tuple["Polynomial", ...]:
        """All context variables, in order, as polynomials."""
        return tuple(self.variable(n) for n in self.names)


def _grlex_key(exps):
    return (sum(exps), exps)


@total_ordering
class Monomial(Record):
    """Exponent vector of one term; ordered graded-lexicographically."""

    __slots__ = ("exponents",)

    def __init__(self, exponents):
        exponents = tuple(exponents)
        if any((not isinstance(e, int)) or e < 0 for e in exponents):
            raise ValueError(f"exponents must be non-negative ints: {exponents}")
        self.exponents = exponents

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
        deg = max(self.degree_in(var), 0)
        return [
            Polynomial._make(self.context, b)
            for b in _by_power(self._terms, self.context, var, deg)
        ]

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
        unit = self.context._units[var]
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

        When the image of every variable present is a monomial or a
        constant (zero included), each term goes to one term and only its
        key is re-packed (_repack): no term products. Otherwise the image
        is folded by Horner's rule over the variables that occur in f
        (Pena and Sauer, "On the multivariate Horner scheme", SIAM J.
        Numer. Anal. 37(4), 2000), one pass per variable, innermost (last)
        first. Each term starts as a partial image, its coefficient, keyed
        by its exponent fields. The pass for variable x splits each key
        into x's exponent and the rest, the fields before x's. Sorted once
        up front, the keys sharing a rest are adjacent with x-exponents
        e1 > ... > ek, and their partial images fold into one, keyed by
        the rest: acc <- acc * img^(e_j - e_j+1) + next, then
        acc * img^ek. A rest with one partial image at exponent 0 keeps
        it as it is. A pass makes at most one product per partial image
        and their number never grows, so a product that many terms share
        is made once, where expanding each term alone made one per term
        and variable in it.

        The powers of img come from ``terms_pow``, memoized within the
        pass and made only for the exponents and gaps that occur:
        x^800*y + y^800 under x -> x+1, y -> y-x makes 4,003 term
        products, where building every power of every image up to the
        largest exponent by repeated multiplication made 1,284,800.
        """
        ctx = self.context
        index = ctx._index
        for name in assignment:
            if name not in index:
                ctx.index(name)  # UnknownVariableError
        target = target_context
        for img in assignment.values():
            if isinstance(img, Polynomial):
                if target is None:
                    target = img.context
                elif img.context is not target and img.context != target:
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
            if name not in assignment:
                raise MissingAssignmentError(
                    f"no image for variable {name!r} occurring in f"
                )
        # (field shift, step, image terms) in context order; a Horner pass
        # shifts a key right by its step to drop the variable's field and
        # those of the absent variables between it and the next one present
        images = []
        image_degree = 0
        prev = -1
        for name in needed:
            img = assignment[name]
            if not isinstance(img, Polynomial):
                img = Polynomial.constant(target, img)
            i = index[name]
            images.append((ctx._shifts[i], WIDTH * (i - prev), img._terms))
            image_degree = max(image_degree, img.total_degree())
            prev = i
        if self._terms:
            _degree_guard(self.total_degree() * image_degree, "substitution")
        if all(len(img) <= 1 for _, _, img in images):
            return Polynomial._make(target, _repack(self._terms, images))

        # (exponent fields down to the innermost variable present, partial
        # image), descending: the keys that share a rest are adjacent
        fields = (1 << ctx._degree_shift) - 1
        low = ctx._shifts[prev] if needed else 0
        partial = sorted(
            [((key & fields) >> low, {0: pair}) for key, pair in self._terms.items()],
            reverse=True,
        )
        for _, step, img in reversed(images):
            powers = {1: img}  # exponent -> img^exponent
            out = []
            last, top, acc = -1, 0, None
            for prefix, part in partial:
                e = prefix & MASK
                rest = prefix >> step
                if rest == last:  # top > e, so the product is a new dict
                    acc = K.add_into(_times_power(acc, powers, top - e), part)
                else:
                    if acc is not None:
                        out.append((last, _times_power(acc, powers, top)))
                    last, acc = rest, part
                top = e
            out.append((last, _times_power(acc, powers, top)))
            partial = out
        return Polynomial._make(target, partial[0][1] if partial else {})

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point: one int or Fraction per context
        variable (TypeError for any other entry)."""
        return Fraction(*K.terms_eval(self._terms, _point_pairs(self.context, point)))

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
        if len(self.context) == 1:
            raise ValueError(
                f"cannot dehomogenize by {var!r}: it is the context's only variable"
            )
        ctx = VarContext(self.context.names[:i] + self.context.names[i + 1:])
        images = dict(zip(ctx.names, ctx.variables()))
        return self.substitute({**images, var: 1}, ctx)

    def rename(self, new_names) -> "Polynomial":
        """Same polynomial over a context with positionally renamed variables."""
        ctx = VarContext(new_names)
        if len(ctx) != len(self.context):
            raise ValueError(
                f"renaming needs {len(self.context)} names, got {len(ctx)}"
            )
        # the key layout depends on the number of variables only
        return Polynomial._make(ctx, self._terms)


def _point_pairs(context, point) -> list:
    """The (num, den) pairs of a rational point of context; ValueError for
    the wrong length, TypeError for an entry not int or Fraction."""
    point = list(point)
    if len(point) != len(context):
        raise ValueError(
            f"point has {len(point)} entries, context has {len(context)}"
        )
    return [_coeff_pair(x) for x in point]


def evaluate_many(polys, point) -> tuple:
    """(nums, den): the values of one or more polynomials over one context
    at one rational point, polys[j] at point being nums[j] / den.

    The ints share one positive denominator (not reduced), so a rank or a
    zero test can use nums alone. The point is checked as in
    Polynomial.evaluate; polynomials over different contexts raise
    ContextMismatchError.
    """
    first = polys[0]
    for f in polys:
        if f.context is not first.context:
            first._check_context(f)
    pairs = _point_pairs(first.context, point)
    return K.terms_eval_many([f._terms for f in polys], pairs)


def _exact_int_quotient(x, d):
    """x / d for ints, d nonzero; InexactDivisionError unless d divides x.

    The message gives sizes, not values: an int past the interpreter's
    digit limit cannot be printed in decimal.
    """
    q, r = divmod(x, d)
    if r:
        raise InexactDivisionError(
            f"a {x.bit_length()}-bit integer is not a multiple of a "
            f"{d.bit_length()}-bit one"
        )
    return q


def _exact_quotient(x, d):
    """x / d where d is known to divide x: never a rounded or floored value.
    A constant x is lifted into the ring of a polynomial d."""
    if isinstance(d, Polynomial):
        if not isinstance(x, Polynomial):
            x = Polynomial.constant(d.context, x)
        return x.exact_div(d)
    if isinstance(x, int) and isinstance(d, int):
        return _exact_int_quotient(x, d)
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
    # ints stay ints under the update, so an int matrix takes the int
    # division throughout
    exact = (
        _exact_int_quotient
        if all(isinstance(x, int) for row in rows for x in row)
        else _exact_quotient
    )
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
                row[j] = x if unit else exact(x, prev)
        prev = pv
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return sign, pivots


def solve(m, b):
    """(det M, adj(M) . B) from one ``eliminate`` of [M | B], M non-empty
    and square, B as many rows of one length (ValueError otherwise). The
    pass leaves [d*I | X] with d = sign*det(M), so adj(M) . B = sign*X.
    A singular M gives the ring zero and None. The first Polynomial entry
    of [M | B], if any, lifts every constant entry into its ring.
    """
    n = len(m)
    if n == 0 or any(len(r) != n for r in m):
        raise ValueError("solve needs a non-empty square matrix")
    if len(b) != n or any(len(s) != len(b[0]) for s in b):
        raise ValueError(f"solve needs {n} right-hand rows of one length")
    work = [list(r) + list(s) for r, s in zip(m, b)]
    ring = next((x for r in work for x in r if isinstance(x, Polynomial)), None)
    if ring is not None:
        ctx = ring.context
        work = [[x if isinstance(x, Polynomial) else Polynomial.constant(ctx, x)
                 for x in r] for r in work]
    sign, pivots = eliminate(work)
    if len(pivots) < n or pivots[n - 1] != n - 1:
        return work[0][0] * 0, None
    return sign * work[n - 1][n - 1], [[sign * x for x in r[n:]] for r in work]


def det_over_ring(rows):
    """Determinant of a square matrix over a commutative ring.

    Entries need +, -, * and truthiness (zero is falsy); works for int,
    Fraction and Polynomial alike. One fraction-free elimination
    (``solve`` with no right-hand side, which raises ValueError unless
    rows is non-empty and square), so ring operations grow as n^3.
    """
    return solve(rows, [()] * len(rows))[0]


def _pseudo_remainder(a, b):
    """R with lc(b)^(deg a - deg b + 1) * a = Q*b + R and deg R < deg b.

    a, b and R are coefficient lists in one variable, constant term first,
    over any ring whose elements have *, -, ** and truthiness (zero is
    falsy), with a nonzero last entry (R is [] when it is zero);
    len(a) >= len(b).
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


def _subresultant_prs(a, b, div):
    """(res, s) with Res(A, B) = (-1)^s * res, for coefficient lists a and
    b of A and B (constant term first, len(a) >= len(b) >= 2) over a ring
    as in _pseudo_remainder, with div(x, y) the exact quotient x / y;
    None when the resultant is zero.

    Cohen's Alg. 3.3.7: each pseudo-remainder is divided exactly by
    g*h^delta, and each new h is g^delta divided exactly by h^(delta-1).
    """
    flips = 0
    one = b[-1] ** 0
    lead = h = one  # Cohen's g and h
    while len(b) > 1:
        delta = len(a) - len(b)
        flips += (len(a) - 1) * (len(b) - 1)
        r = _pseudo_remainder(a, b)
        if not r:
            return None
        divisor = lead * h ** delta
        if divisor != one:
            r = [div(c, divisor) for c in r]
        a, b = b, r
        lead = a[-1]
        if delta == 1:
            h = lead
        elif delta > 1:
            h = div(lead ** delta, h ** (delta - 1))
    d = len(a) - 1
    res = b[0]
    if d != 1:
        res = div(res ** d, h ** (d - 1))
    return res, flips


# The Kronecker path's limits, from timings of both paths on seeded dense
# families (Python 3.11, one process). Each of F and G holds at least
# 1/_DENSITY of its box: the Kronecker path was 2.7x to 16x faster down
# to about a fifth, the sparsest filling measured. With k packed
# variables, a slot of B bits and (D+1)^k slots for the comb(D+k, k)
# monomials of the result, B * (D+1)^k stays within
# _SLOT_BITS[k - 1] * comb(D+k, k): the measured break-even of that
# product was about 550 for k = 1 and 2 and about 300 for k = 3, at
# every degree tried, and k = 4 lost on every input measured. They were
# measured with B from ||F||_1^n * ||G||_1^m, wider than the bound now.
_DENSITY = 5
_SLOT_BITS = (512, 512, 256)


def _read(terms, s, top):
    """(terms, degree, rest, S) for a cleared int dict, read in one pass:
    its degree in the variable whose field is at bit s (-1 for {}), the one
    degree of every term in the other variables or None, and S, the sum
    over the powers of that variable of the squared l1 norm of the power's
    coefficient."""
    degree, rest, mixed, norms = -1, None, False, {}
    for key, c in terms.items():
        e = (key >> s) & MASK
        if e > degree:
            degree = e
        d = (key >> top) - e
        if d != rest:
            mixed = rest is not None
            rest = d
        norms[e] = norms.get(e, 0) + (c if c > 0 else -c)
    return terms, degree, None if mixed else rest, sum(v * v for v in norms.values())


def _kronecker_layout(a, b, context, i):
    """(packed, last, D, bits) when a and b suit the Kronecker path, else
    None: packed holds (field shift, slot weight in bits) per packed
    variable, last is the field shift of the dropped variable (0 with no
    variable left beside var, where D is 0), D the degree of the
    resultant in the remaining variables and bits the width of a slot.

    Selection, on _read's (F, m, dF, S_F) and (G, n, dG, S_G): every
    var-coefficient of F is homogeneous of one degree dF in the remaining
    variables, and of one dG for G; each of F and G has at least
    1/_DENSITY of the monomials of its box (degree in var by that degree
    in the remaining variables); (max(m, n) + 2) * D stays below
    DEGREE_LIMIT, which bounds the degree of every product of the
    Polynomial PRS too, so neither path can raise DegreeError; and the
    packed ints stay within _SLOT_BITS.

    bits is the least width with |c| < 2^(bits-1) for every int c up to
    sqrt(S_F^n * S_G^m), the bound of Goldstein and Graham (SIAM Review
    16, 1974): on the unit torus each Sylvester entry is at most its l1
    norm, so Hadamard's inequality bounds Res(F, G) there, and by
    Parseval the root of the sum of its squared coefficients. Only the
    resultant R has to fit. The packed PRS is the integer PRS of F and G
    evaluated at the Kronecker point, where lc(F) and lc(G) stay nonzero:
    their coefficients are within the bound and their monomials within
    the box. So it yields R(X) exactly, whatever its intermediates hold.
    """
    (F, m, dF, SF), (G, n, dG, SG) = a, b
    if dF is None or dG is None:
        return None
    D = n * dF + m * dG
    if (max(m, n) + 2) * D >= DEGREE_LIMIT:
        return None
    r = len(context) - 1
    for terms, degree, delta in ((F, m, dF), (G, n, dG)):
        box = (degree + 1) * (comb(delta + r - 1, r - 1) if r else 1)
        if _DENSITY * len(terms) < box:
            return None
    shifts = [t for j, t in enumerate(context._shifts) if j != i]
    last = shifts.pop() if shifts else 0
    k = len(shifts)
    if k > len(_SLOT_BITS):
        return None
    bits = isqrt(SF ** n * SG ** m).bit_length() + 1
    if k and bits * (D + 1) ** k > _SLOT_BITS[k - 1] * comb(D + k, k):
        return None
    # variable j of the packed ones goes to X^((D+1)^j), X = 2^bits
    return [(t, (D + 1) ** j * bits) for j, t in enumerate(shifts)], last, D, bits


@lru_cache(maxsize=32)
def _slot_keys(shifts, last, D, top):
    """(slot, key) of each monomial of degree D in the remaining variables:
    packed ones at the field shifts in `shifts` (slot weights 1, D + 1,
    ...), the dropped one at `last`. Built once per layout."""
    out = []
    for exps in product(range(D + 1), repeat=len(shifts)):
        if sum(exps) <= D:
            slot = sum(e * (D + 1) ** j for j, e in enumerate(exps))
            key = D << top | (D - sum(exps)) << last
            out.append((slot, key | sum(e << t for e, t in zip(exps, shifts))))
    return tuple(out)


def _unpack(value, layout, shift):
    """The int dict of a packed result: the signed base-2^bits digits of
    value, each at its slot's monomial, the last remaining variable
    raised to D less the others' degrees. Each digit is below 2^(bits-1)
    in absolute value, so value plus 2^(bits-1) in every slot has plain
    base-2^bits digits, none borrowed: each monomial's digit is read from
    its own slot, with no divmod and no pass over the empty slots.
    """
    packed, last, D, bits = layout
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    # half * (1 + 2^bits + 2^(2*bits) + ...) over every slot
    value += half * (((1 << bits * (D + 1) ** len(packed)) - 1) // mask)
    out = {}
    for slot, key in _slot_keys(tuple(t for t, _ in packed), last, D, shift):
        digit = (value >> slot * bits & mask) - half
        if digit:
            out[key] = digit
    return out


def sylvester_resultant(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Resultant of f and g with respect to `var`.

    The determinant of the Sylvester matrix (f-rows first, descending
    coefficients; see the module docstring for the sign convention),
    computed by the subresultant PRS without building the matrix.
    """
    f._check_context(g)
    context = f.context
    i = context.index(var)
    s, top = context._shifts[i], context._degree_shift
    # f = F/df and g = G/dg, so Res(f, g) = Res(F, G) / (df^n * dg^m)
    F, df = K._cleared(f._terms)
    G, dg = K._cleared(g._terms)
    a, b = _read(F, s, top), _read(G, s, top)
    for which, (terms, degree, _, _) in (("first", a), ("second", b)):
        if degree < 1:
            raise DegreeError(
                f"{which} input has degree {degree} in {var!r}; need >= 1" if terms
                else f"{which} input is zero; need degree >= 1 in {var!r}"
            )
    m, n = a[1], b[1]
    den = df ** n * dg ** m
    flips = 0
    if m < n:  # Res(f, g) = (-1)^(mn) Res(g, f)
        a, b, m, n = b, a, n, m
        flips = m * n
    layout = _kronecker_layout(a, b, context, i)
    if layout is None:
        zero = Polynomial.zero(context)  # shared by every power absent

        def coefficients(terms, degree):
            return [Polynomial._make(context, K._pairs(c, 1, 1)) if c else zero
                    for c in _by_power(terms, context, var, degree)]
        div = Polynomial.exact_div
    else:
        packed = layout[0]

        def coefficients(terms, degree):
            # each term shifted into its slot of the int of its power
            out = [0] * (degree + 1)
            for key, c in terms.items():
                at = 0
                for t, weight in packed:
                    at += ((key >> t) & MASK) * weight
                out[(key >> s) & MASK] += c << at
            return out
        div = _exact_int_quotient
    out = _subresultant_prs(coefficients(a[0], m), coefficients(b[0], n), div)
    if out is None:
        return Polynomial.zero(context)
    res, more = out
    sign = -1 if (flips + more) % 2 else 1
    if layout is None:
        return res * Fraction(sign, den)
    res = _unpack(res, layout, context._degree_shift)
    return Polynomial._make(context, K._pairs(res, sign, den))


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
    ints, den = K._cleared(f._terms)
    return Fraction(gcd(*ints.values()), den)


def primitive_part(f: Polynomial) -> Polynomial:
    """f divided by its content (coprime integer coefficients): f itself
    when it already is primitive, 0 included, else one new term dict."""
    pairs = f._terms.values()
    num = gcd(*(n for n, _ in pairs))
    den = lcm(*(d for _, d in pairs))
    if not pairs or num == den == 1:
        return f
    return Polynomial._make(f.context, {
        key: (n // num * (den // d), 1) for key, (n, d) in f._terms.items()
    })


# -- canonical text rendering ------------------------------------------


def format_rational(num: int, den: int = 1) -> str:
    """The rational num/den as "n", or "n/d" when den is not 1.

    Takes the integers of a reduced fraction with den > 0, so a caller
    holding coefficient pairs builds no Fraction. A numerator or
    denominator longer than ``sys.get_int_max_str_digits()`` digits
    raises DigitLimitError: the interpreter will not convert it, and the
    parser rejects a literal past the same limit.
    """
    try:
        return f"{num}/{den}" if den != 1 else str(num)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise DigitLimitError(
            f"coefficient longer than {limit} digits, the interpreter's "
            "limit for printing an integer"
        ) from None


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form, descending graded-lex, reparseable by the CLI grammar.

    Coefficients print as "n" or "n/d"; a denominator only appears when it
    is not 1, and such strings are output-only (the input grammar has no
    '/'). A leading negative unit coefficient is written explicitly as
    "-1*" when the first variable factor carries an exponent, because the
    grammar binds unary minus tighter than '^'.

    A coefficient past the interpreter's digit limit raises DigitLimitError
    (see format_rational).
    """
    if f.is_zero():
        return "0"
    context, terms = f.context, f._terms
    fields = [(MASK << s, s, name) for name, s in zip(context.names, context._shifts)]
    # the text of each exponent field met, keyed by the field's bits in the
    # packed key: one entry per variable and exponent, dropped with the call
    factor_text = {}
    pieces = []
    for idx, key in enumerate(f._keys_descending()):
        num, den = terms[key]
        factors = []
        for mask, s, name in fields:
            bits = key & mask
            if bits:
                text = factor_text.get(bits)
                if text is None:
                    e = bits >> s
                    text = factor_text[bits] = name if e == 1 else f"{name}^{e}"
                factors.append(text)
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
