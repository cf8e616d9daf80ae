"""The packed term kernel against a Fraction-dict reference on random input.

The reference keeps terms as {exponent tuple: Fraction}; the kernel's
dicts are packed and unpacked through a VarContext, so every test also
checks that packing is exact.
"""

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd

import pytest

import torsal
from torsal import _kernel as K
from torsal.errors import DegreeError, InexactDivisionError
from torsal.polyring import Monomial, Polynomial, VarContext

# there is one kernel, in pure Python; the "[pure]" test ids stay as they were
KERNELS = pytest.mark.parametrize("impl", [K], ids=["pure"])
LIMIT = K.DEGREE_LIMIT


def context(nvars):
    return VarContext([f"x{i}" for i in range(nvars)])


def random_reference(rng, nvars, max_terms=8, max_exp=4, integer=False):
    out = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        num = rng.randint(-20, 20)
        if num:
            out[exps] = Fraction(num, 1 if integer else rng.randint(1, 12))
    return out


def pack(ctx, ref):
    return {ctx._pack(e): (c.numerator, c.denominator) for e, c in ref.items()}


def unpack(ctx, terms):
    """Reference form of kernel terms, checking the kernel's invariants."""
    for n, d in terms.values():
        assert n != 0 and d > 0 and gcd(n, d) == 1, (n, d)
    return {ctx._unpack(key): Fraction(n, d) for key, (n, d) in terms.items()}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_pow(a, n, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_eval(a, vals):
    total = Fraction(0)
    for e, c in a.items():
        for v, k in zip(vals, e):
            c *= v ** k
        total += c
    return total


def count_passes(monkeypatch):
    """A list that gains one entry per run of the exact-division loop."""
    passes = []
    loop = K._exact_div_ints

    def counted(*args):
        passes.append(None)
        return loop(*args)

    monkeypatch.setattr(K, "_exact_div_ints", counted)
    return passes


def cases(seed, count, **kwargs):
    """Random (context, reference) pairs, rational and integer alike."""
    rng = random.Random(seed)
    for i in range(count):
        nvars = rng.randint(1, 5)
        yield rng, context(nvars), nvars, lambda: random_reference(
            rng, nvars, integer=bool(i % 2), **kwargs
        )


def test_backend_name_is_reported():
    assert torsal.kernel_backend() == "pure"


@KERNELS
class TestRationalPrimitives:
    def test_norm(self, impl):
        assert impl.rat_norm(0, 5) == (0, 1)
        assert impl.rat_norm(2, -4) == (-1, 2)
        assert impl.rat_norm(-6, -9) == (2, 3)
        assert impl.rat_norm(7, 1) == (7, 1)
        with pytest.raises(ZeroDivisionError):
            impl.rat_norm(3, 0)

    def test_add_mul_match_fractions(self, impl):
        rng = random.Random(101)
        for _ in range(300):
            a = Fraction(rng.randint(-30, 30), rng.randint(1, 15))
            b = Fraction(rng.randint(-30, 30), rng.randint(1, 15))
            s = impl.rat_add(a.numerator, a.denominator, b.numerator, b.denominator)
            p = impl.rat_mul(a.numerator, a.denominator, b.numerator, b.denominator)
            assert Fraction(*s) == a + b
            assert Fraction(*impl.rat_norm(*p)) == a * b

    def test_mul_of_reduced_inputs_is_reduced(self, impl):
        rng = random.Random(102)
        for _ in range(200):
            a = Fraction(rng.randint(-30, 30), rng.randint(1, 15))
            b = Fraction(rng.randint(-30, 30), rng.randint(1, 15))
            n, d = impl.rat_mul(a.numerator, a.denominator, b.numerator, b.denominator)
            assert d > 0 or n == 0
            assert impl.rat_norm(n, d) == (n, d) or n == 0


@KERNELS
class TestAgainstFractionOracle:
    """Each kernel entry point against the Fraction-dict reference."""

    def test_add_neg_scale(self, impl):
        scalars = random.Random(30)
        for rng, ctx, _, draw in cases(20, 80):
            a, b = draw(), draw()
            ka, kb = pack(ctx, a), pack(ctx, b)
            assert unpack(ctx, impl.terms_add(ka, kb)) == ref_add(a, b)
            assert unpack(ctx, impl.terms_add(ka, kb, -1)) == ref_add(a, b, -1)
            assert unpack(ctx, impl.terms_neg(ka)) == {e: -c for e, c in a.items()}
            num, den = rng.randint(-6, 6), rng.randint(1, 6)
            scaled = {e: c * Fraction(num, den) for e, c in a.items() if num}
            assert unpack(ctx, impl.terms_scale(ka, num, den)) == scaled
            # integer scalars, past 2^64 too, on integer and rational dicts,
            # and a negative denominator
            num = scalars.choice([-1, 1]) * scalars.choice([1, 3, 12, 1 << 64, 7 ** 30])
            scaled = {e: c * num for e, c in a.items()}
            assert unpack(ctx, impl.terms_scale(ka, num, 1)) == scaled
            assert unpack(ctx, impl.terms_scale(ka, num, -6)) == {
                e: c * Fraction(num, -6) for e, c in a.items()
            }
            # the inputs are left as they were
            assert ka == pack(ctx, a) and kb == pack(ctx, b)

    def test_add_into_accumulates_in_place(self, impl):
        for _, ctx, _, draw in cases(24, 40):
            summands = [(sign, draw()) for sign in (1, -1, 1, -1)]
            out, expected = {}, {}
            for sign, ref in summands:
                assert impl.add_into(out, pack(ctx, ref), sign) is out
                expected = ref_add(expected, ref, sign)
            assert unpack(ctx, out) == expected

    def test_mul(self, impl):
        for _, ctx, _, draw in cases(21, 60, max_terms=6, max_exp=3):
            a, b = draw(), draw()
            assert unpack(ctx, impl.terms_mul(pack(ctx, a), pack(ctx, b))) == ref_mul(a, b)

    def test_mul_on_every_path(self, impl):
        # one-term factors on either side, integer operands, mixed
        # denominators, and coefficients past 2^64 on each of them
        rng = random.Random(28)
        big = [1 << 64, 3 ** 50, (1 << 100) + 1]
        for i in range(120):
            nvars = rng.randint(1, 4)
            ctx = context(nvars)
            shape = i % 4
            a = random_reference(rng, nvars, integer=i % 3 != 0)
            b = random_reference(rng, nvars, integer=i % 5 != 0)
            if shape == 0 and a:  # a one-term factor
                a = dict([next(iter(a.items()))])
            elif shape == 1 and b:
                b = dict([next(iter(b.items()))])
            elif shape == 2:  # huge coefficients
                a = {e: c * rng.choice(big) for e, c in a.items()}
                b = {e: c * rng.choice(big) / rng.choice(big) for e, c in b.items()}
            ka, kb = pack(ctx, a), pack(ctx, b)
            expected = ref_mul(a, b)
            assert unpack(ctx, impl.terms_mul(ka, kb)) == expected
            assert unpack(ctx, impl.terms_mul(kb, ka)) == expected
            assert ka == pack(ctx, a) and kb == pack(ctx, b)

    def test_mul_whose_sums_cancel(self, impl):
        # Q[x, y] has no zero divisors, so only a zero factor gives {};
        # cancelled sums inside a product must still leave no zero terms
        ctx = context(2)
        big = 1 << 70
        for c in (Fraction(1), Fraction(-2, 3), Fraction(big), Fraction(3, big)):
            # (x - c*y) * (x^2 + c*x*y + c^2*y^2) = x^3 - c^3*y^3: the four
            # middle products cancel in pairs
            lhs = pack(ctx, {(1, 0): Fraction(1), (0, 1): -c})
            rhs = pack(ctx, {(2, 0): Fraction(1), (1, 1): c, (0, 2): c * c})
            expected = {(3, 0): Fraction(1), (0, 3): -(c ** 3)}
            assert unpack(ctx, impl.terms_mul(lhs, rhs)) == expected
            assert unpack(ctx, impl.terms_mul(rhs, lhs)) == expected
            for factor in (lhs, rhs, pack(ctx, {(1, 1): c})):
                assert impl.terms_mul(factor, {}) == {}
                assert impl.terms_mul({}, factor) == {}
        assert impl.terms_mul({}, {}) == {}

    def test_eval(self, impl):
        for rng, ctx, nvars, draw in cases(22, 80):
            a = draw()
            vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(nvars)]
            point = [(v.numerator, v.denominator) for v in vals]
            assert Fraction(*impl.terms_eval(pack(ctx, a), point)) == ref_eval(a, vals)

    def test_pow_matches_repeated_mul(self, impl):
        draws = cases(23, 16, max_terms=6, max_exp=3)
        bases = [(nvars, draw()) for _, _, nvars, draw in draws]
        # a leading term that shares variables with the rest; summands
        # t^k r^(n-k) that overlap, x^2 * y^2 and (x*y)^2; two terms
        bases += [
            (2, {(1, 1): Fraction(1), (1, 0): Fraction(1), (0, 2): Fraction(1)}),
            (2, {(2, 0): Fraction(1, 3), (1, 1): Fraction(-2), (0, 2): Fraction(5, 7)}),
            (2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-3, 5)}),
        ]
        for nvars, base in bases:
            ctx = context(nvars)
            ka = pack(ctx, base)
            # ref_pow and repeated terms_mul, one factor per step
            acc, ref = {0: (1, 1)}, ref_pow(base, 0, nvars)
            for n in range(13):
                got = impl.terms_pow(ka, n)
                assert got == acc
                assert unpack(ctx, got) == ref
                acc, ref = impl.terms_mul(acc, ka), ref_mul(ref, base)
            assert ka == pack(ctx, base)
        with pytest.raises(ValueError):
            impl.terms_pow({0: (1, 1)}, -1)

    def test_exact_div_recovers_the_cofactor(self, impl):
        for _, ctx, _, draw in cases(26, 80, max_terms=6, max_exp=3):
            a, b = draw(), draw()
            if not b:
                continue
            kb = pack(ctx, b)
            product = pack(ctx, ref_mul(a, b))
            assert unpack(ctx, impl.terms_exact_div(product, kb)) == a
            # the inputs are left as they were
            assert product == pack(ctx, ref_mul(a, b)) and kb == pack(ctx, b)

    def test_exact_div_on_every_path(self, impl):
        # integer inputs with an integer quotient, integer inputs whose
        # quotient is not integral (the product of a/m and m*b), mixed
        # denominators, and coefficients past 2^64
        rng = random.Random(29)
        for i in range(120):
            nvars = rng.randint(1, 4)
            ctx = context(nvars)
            a = random_reference(rng, nvars, max_terms=6, max_exp=3, integer=i % 3 != 2)
            b = random_reference(rng, nvars, max_terms=5, max_exp=3, integer=i % 3 != 2)
            if not b:
                continue
            if i % 3 == 1:
                m = rng.choice([2, 3, 6, 1 << 64])
                a = {e: c / m for e, c in a.items()}
                b = {e: c * m for e, c in b.items()}
            if i % 4 == 0:
                scale = rng.choice([1 << 64, 5 ** 40])
                a = {e: c * scale for e, c in a.items()}
            product = pack(ctx, ref_mul(a, b))
            assert unpack(ctx, impl.terms_exact_div(product, pack(ctx, b))) == a

    def test_exact_div_of_integers_with_a_rational_quotient(self, impl, monkeypatch):
        # each division runs the int loop once, and once more on b divided
        # by its content when a quotient coefficient is not an integer
        ctx = context(1)
        passes = count_passes(monkeypatch)
        # (2x^2 + 3x + 1) / (2x + 2) = x + 1/2: the second coefficient is
        # not an integer, so the division runs again by x + 1
        a = pack(ctx, {(2,): Fraction(2), (1,): Fraction(3), (0,): Fraction(1)})
        b = pack(ctx, {(1,): Fraction(2), (0,): Fraction(2)})
        got = impl.terms_exact_div(a, b)
        assert unpack(ctx, got) == {(1,): Fraction(1), (0,): Fraction(1, 2)}
        assert len(passes) == 2
        # an integer quotient takes one pass: (x + 1) * (2x + 2)
        passes.clear()
        a = pack(ctx, {(2,): Fraction(2), (1,): Fraction(4), (0,): Fraction(2)})
        assert unpack(ctx, impl.terms_exact_div(a, b)) == {(1,): 1, (0,): 1}
        assert len(passes) == 1
        # (2x^2 + 3x + 2) / (2x + 2) leaves the remainder 1 after x + 1/2,
        # found only on the pass by x + 1
        passes.clear()
        a = pack(ctx, {(2,): Fraction(2), (1,): Fraction(3), (0,): Fraction(2)})
        with pytest.raises(InexactDivisionError):
            impl.terms_exact_div(a, b)
        assert len(passes) == 2
        # (x^2 + 1) / (x + 1) and (2^70*x^2 + 1) / (x + 1) leave a
        # remainder on the first pass, (x^2/2 + 1) / (x + 1) on mixed
        # denominators
        passes.clear()
        b = pack(ctx, {(1,): Fraction(1), (0,): Fraction(1)})
        for a in ({(2,): Fraction(1), (0,): Fraction(1)},
                  {(2,): Fraction(1, 2), (0,): Fraction(1)},
                  {(2,): Fraction(1 << 70), (0,): Fraction(1)}):
            with pytest.raises(InexactDivisionError):
                impl.terms_exact_div(pack(ctx, a), b)
        assert len(passes) == 3

    def test_exact_div_by_a_constant_and_of_zero(self, impl):
        for rng, ctx, nvars, draw in cases(27, 40):
            a = draw()
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            constant = {(0,) * nvars: c}
            got = impl.terms_exact_div(pack(ctx, a), pack(ctx, constant))
            assert unpack(ctx, got) == {e: v / c for e, v in a.items()}
            b = draw() or constant
            assert impl.terms_exact_div({}, pack(ctx, b)) == {}
        with pytest.raises(ZeroDivisionError):
            impl.terms_exact_div({0: (1, 1)}, {})


def test_exact_div_refuses_what_does_not_divide():
    ctx = context(3)

    def div(a, b):
        return K.terms_exact_div(pack(ctx, a), pack(ctx, b))

    x, x2, xy2 = (1, 0, 0), (2, 0, 0), (1, 2, 0)
    one, y, z = (0, 0, 0), (0, 1, 0), (0, 0, 1)
    # the leading monomial is not a multiple of the divisor's although its
    # degree is large enough: x*y^2 / x^2 borrows from the x field
    with pytest.raises(InexactDivisionError):
        div({xy2: Fraction(1)}, {x2: Fraction(1)})
    with pytest.raises(InexactDivisionError):
        div({z: Fraction(1)}, {y: Fraction(1)})
    # y / z borrows out of the last field only
    with pytest.raises(InexactDivisionError):
        div({y: Fraction(1)}, {z: Fraction(1)})
    # a borrow out of a wide field: y^(2^31) / x
    with pytest.raises(InexactDivisionError):
        div({(0, LIMIT // 2, 0): Fraction(1)}, {x: Fraction(1)})
    # a remainder is left: (x^2 + 1) / x, (x^2 + y) / (x + 1), (x^2/3) / (2x + z)
    for a, b in (
        ({x2: Fraction(1), one: Fraction(1)}, {x: Fraction(1)}),
        ({x2: Fraction(1), y: Fraction(1)}, {x: Fraction(1), one: Fraction(1)}),
        ({x2: Fraction(1, 3)}, {x: Fraction(2), z: Fraction(1)}),
    ):
        with pytest.raises(InexactDivisionError):
            div(a, b)
    assert div({(1, LIMIT // 2, 0): Fraction(6)}, {x: Fraction(4)}) == pack(
        ctx, {(0, LIMIT // 2, 0): Fraction(3, 2)}
    )


def rational_exact_div(a, b):
    """The heap division on (numerator, denominator) pairs that the int
    loop replaced, kept as the oracle of TestExactDivDifferential."""
    if not b:
        raise ZeroDivisionError("exact division by the zero polynomial")
    if not a:
        return {}
    lead = max(b)
    boundaries = 0
    for bit in range(K.WIDTH, max(a).bit_length(), K.WIDTH):
        boundaries |= 1 << bit
    ln, ld = b[lead]
    rest = [(key, pair) for key, pair in b.items() if key != lead]
    r = dict(a)
    get = r.get
    heap = [-key for key in r]
    heapify(heap)
    q = {}
    while heap:
        key = -heappop(heap)
        pair = r.pop(key, None)
        if pair is None:
            continue
        shift = key - lead
        if shift < 0 or (key ^ lead ^ shift) & boundaries:
            raise InexactDivisionError("not a multiple")
        n1, d1 = pair
        cn, cd = K.rat_mul(n1, d1, ld, ln)
        if cd < 0:
            cn, cd = -cn, -cd
        q[shift] = (cn, cd)
        for k2, (n2, d2) in rest:
            k = shift + k2
            cur = get(k)
            if cd == 1 and d2 == 1:
                pn, pd = cn * n2, 1
            else:
                pn, pd = K.rat_mul(cn, cd, n2, d2)
            if cur is None:
                r[k] = (-pn, pd)
                heappush(heap, -k)
                continue
            if cur[1] == 1 and pd == 1:
                s = (cur[0] - pn, 1)
            else:
                s = K.rat_add(cur[0], cur[1], -pn, pd)
            if s[0]:
                r[k] = s
            else:
                del r[k]
    return q


class TestExactDivDifferential:
    """terms_exact_div against the rational heap division it replaced."""

    SHAPES = ("integral", "non-primitive", "rational", "negative lead",
              "monomial", "huge")

    def draw(self, rng, shape):
        """(nvars, q, b) in reference form, b nonzero and not constant."""
        nvars = rng.randint(1, 4)
        while True:
            integer = shape in ("integral", "non-primitive") or (
                shape in ("negative lead", "huge") and rng.random() < 0.5
            )
            q = random_reference(rng, nvars, max_terms=6, max_exp=3, integer=integer)
            b = random_reference(rng, nvars, max_terms=1 if shape == "monomial" else 5,
                                 max_exp=3, integer=integer)
            if q and b and max(map(sum, b)) > 0:
                break
        if shape == "non-primitive":
            # b gets the content m and q the denominator m: the product is
            # integral, the quotient is not unless m divides all of q
            m = rng.choice([2, 3, 6, 35, 1 << 64])
            q = {e: c / m for e, c in q.items()}
            b = {e: c * m for e, c in b.items()}
        elif shape == "negative lead":
            top = max(b, key=lambda e: (sum(e), e))
            if b[top] > 0:
                b = {e: -c for e, c in b.items()}
        elif shape == "huge":
            big = [1 << 64, 3 ** 50, (1 << 100) + 1, 5 ** 40]
            q = {e: c * rng.choice(big) for e, c in q.items()}
            b = {e: c * rng.choice(big) / rng.choice(big) for e, c in b.items()}
        return nvars, q, b

    def test_seeded_pairs_match_the_rational_division(self, monkeypatch):
        passes = count_passes(monkeypatch)
        rng = random.Random(1717)
        raised, pass_counts = 0, {1: 0, 2: 0}
        for case in range(840):
            shape = self.SHAPES[case % len(self.SHAPES)]
            nvars, q, b = self.draw(rng, shape)
            ctx = context(nvars)
            a = ref_mul(q, b)
            inexact = case % 2 == 1
            if inexact:
                # a remainder of lower degree than b, which b cannot divide
                deg = max(map(sum, b))
                low = {e: c for e, c in random_reference(rng, nvars, max_exp=3).items()
                       if sum(e) < deg}
                low = low or {(0,) * nvars: Fraction(rng.choice([-1, 1]), rng.randint(1, 4))}
                a = ref_add(a, low)
            ka, kb = pack(ctx, a), pack(ctx, b)
            passes.clear()
            if inexact:
                with pytest.raises(InexactDivisionError):
                    rational_exact_div(ka, kb)
                with pytest.raises(InexactDivisionError):
                    K.terms_exact_div(ka, kb)
                raised += 1
            else:
                got = K.terms_exact_div(ka, kb)
                assert got == rational_exact_div(ka, kb), (shape, a, b)
                assert unpack(ctx, got) == q
            pass_counts[len(passes)] += 1
            # the inputs are left as they were
            assert ka == pack(ctx, a) and kb == pack(ctx, b)
        assert raised == 420
        assert min(pass_counts.values()) > 100, pass_counts


def test_cancellation_drops_terms():
    ctx = context(2)
    a = pack(ctx, {(1, 0): Fraction(1, 2), (0, 1): Fraction(3)})
    b = pack(ctx, {(1, 0): Fraction(-1, 2)})
    assert unpack(ctx, K.terms_add(a, b)) == {(0, 1): 3}
    assert K.terms_scale(a, 0, 1) == {}
    # (x - y) * (x + y): the cross terms cancel inside the product
    x_minus_y = pack(ctx, {(1, 0): Fraction(1), (0, 1): Fraction(-1)})
    x_plus_y = pack(ctx, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    assert unpack(ctx, K.terms_mul(x_minus_y, x_plus_y)) == {(2, 0): 1, (0, 2): -1}
    assert K.terms_add(x_minus_y, x_minus_y, -1) == {}


class TestPower:
    """terms_pow beyond the Fraction oracle: identity, zero, size and work."""

    def test_first_power_is_the_input_and_zero_stays_zero(self):
        a = pack(context(2), {(1, 0): Fraction(1, 2), (0, 1): Fraction(3)})
        assert K.terms_pow(a, 1) is a
        assert K.terms_pow({}, 0) == {0: (1, 1)}
        for n in (1, 2, 7):
            assert K.terms_pow({}, n) == {}

    def test_binomial_coefficients_of_a_high_power(self):
        ctx = context(1)
        x_plus_1 = pack(ctx, {(1,): Fraction(1), (0,): Fraction(1)})
        got = K.terms_pow(x_plus_1, 3000)
        assert got == {ctx._pack((k,)): (comb(3000, k), 1) for k in range(3001)}

    def test_work_stays_near_the_output_size(self, monkeypatch):
        # repeated multiplication by x+y+z makes about 45,500 term products
        # for the 44th power; the binomial split about 2,000, all of them
        # in the int loop
        products = []

        def counting(mul):
            def call(a, b, *out):
                products.append(len(a) * len(b))
                return mul(a, b, *out)
            return call

        for name in ("terms_mul", "_mul_ints"):
            monkeypatch.setattr(K, name, counting(getattr(K, name)))
        ctx = context(3)
        base = pack(ctx, {e: Fraction(1) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))})
        assert len(K.terms_pow(base, 44)) == comb(46, 2)
        assert 0 < sum(products) <= 5000


def pair_pow(a, n):
    """The binomial power loop on (numerator, denominator) pairs that the
    int loop replaced, kept as the oracle of TestPowerDifferential."""
    if n < 0:
        raise ValueError("negative exponent")
    if n == 0:
        return {0: (1, 1)}
    if n == 1 or not a:
        return a
    lead = max(a)
    tn, td = a[lead]
    if len(a) == 1:
        return {lead * n: (tn ** n, td ** n)}
    r = {key: pair for key, pair in a.items() if key != lead}
    tk, dk = tn ** n, td ** n
    out = {lead * n: (tk, dk)}
    binom, rpow = 1, r
    for k in range(n - 1, -1, -1):
        binom = binom * (k + 1) // (n - k)
        tk //= tn
        dk //= td
        cn, cd = K.rat_norm(binom * tk, dk)
        shift = lead * k
        K.add_into(out, {
            key + shift: (cn * pn, 1) if cd == pd == 1 else K.rat_mul(cn, cd, pn, pd)
            for key, (pn, pd) in rpow.items()
        })
        if k:
            rpow = K.terms_mul(rpow, r)
    return out


class TestPowerDifferential:
    """terms_pow against the pair-level binomial loop it replaced."""

    SHAPES = ("integer", "rational", "negative lead", "cancelling",
              "monomial", "huge")

    def draw(self, rng, shape):
        """(nvars, base) in reference form, base nonzero."""
        nvars = rng.randint(1, 4)
        integer = shape in ("integer", "cancelling") or (
            shape in ("negative lead", "huge") and rng.random() < 0.5
        )
        while True:
            base = random_reference(rng, nvars, max_terms=1 if shape == "monomial" else 5,
                                    max_exp=3, integer=integer)
            if base:
                break
        if shape == "negative lead":
            top = max(base, key=lambda e: (sum(e), e))
            if base[top] > 0:
                base = {e: -c for e, c in base.items()}
        elif shape == "cancelling":
            # c*(u^2 + 2uv - 2v^2) has no u^2 v^2 term in its square: alone,
            # the summands t^k r^(n-k) cancel one another; below a larger
            # leading term w, the products inside the powers of r cancel
            u = tuple(rng.randint(0, 2) for _ in range(nvars))
            v = tuple(rng.randint(0, 2) for _ in range(nvars))
            if (sum(u), u) < (sum(v), v):
                u, v = v, u
            if u == v:
                u = tuple(e + 1 for e in u)
            c = rng.choice([1, -3, 7])
            base = {
                tuple(i * x + j * y for x, y in zip(u, v)): Fraction(c * k)
                for i, j, k in ((2, 0, 1), (1, 1, 2), (0, 2, -2))
            }
            if rng.random() < 0.5:
                base[tuple(2 * x + 1 for x in u)] = Fraction(rng.choice([1, -2]))
        elif shape == "huge":
            big = [1 << 64, 3 ** 50, (1 << 100) + 1, 5 ** 40]
            base = {e: c * rng.choice(big) / rng.choice(big) for e, c in base.items()}
        return nvars, base

    def test_seeded_bases_match_the_pair_loop(self):
        rng = random.Random(2020)
        exponents, cancelled = set(), 0
        for case in range(360):
            shape = self.SHAPES[case % len(self.SHAPES)]
            nvars, base = self.draw(rng, shape)
            # high powers only of small bases, so the outputs stay small
            top = 60 if len(base) <= 2 or nvars == 1 or shape == "monomial" else 8
            n = rng.randint(2, top)
            exponents.add(n)
            ka = pack(context(nvars), base)
            got = K.terms_pow(ka, n)
            assert got == pair_pow(ka, n), (shape, base, n)
            unpack(context(nvars), got)  # lowest terms, no zero coefficient
            assert ka == pack(context(nvars), base)
            # with positive coefficients nothing cancels
            positive = {key: (abs(num), den) for key, (num, den) in ka.items()}
            cancelled += len(got) < len(pair_pow(positive, n))
        assert max(exponents) == 60 and cancelled >= 20


class TestPacking:
    def test_key_order_is_graded_lex(self):
        rng = random.Random(25)
        for _ in range(300):
            nvars = rng.randint(1, 5)
            ctx = context(nvars)
            e1 = tuple(rng.randint(0, 6) for _ in range(nvars))
            e2 = tuple(rng.randint(0, 6) for _ in range(nvars))
            assert (ctx._pack(e1) < ctx._pack(e2)) == (Monomial(e1) < Monomial(e2))
            assert ctx._unpack(ctx._pack(e1) + ctx._pack(e2)) == tuple(
                x + y for x, y in zip(e1, e2)
            )

    def test_product_up_to_the_degree_limit_is_exact(self):
        ctx = context(2)
        x, y = ctx.variables()
        big = LIMIT // 2
        f = Polynomial(ctx, {(big, 0): 3}) * Polynomial(ctx, {(0, big - 1): 5})
        assert f.sorted_terms() == [(Monomial((big, big - 1)), 15)]
        assert f.total_degree() == LIMIT - 1
        g = Polynomial(ctx, {(LIMIT - 2, 0): 1}) * x
        assert g.sorted_terms() == [(Monomial((LIMIT - 1, 0)), 1)]
        assert g.degree_in("x0") == LIMIT - 1 and g.degree_in("x1") == 0
        assert (y ** (LIMIT - 1)).sorted_terms() == [(Monomial((0, LIMIT - 1)), 1)]

    def test_products_past_the_degree_limit_raise(self):
        ctx = context(2)
        x, y = ctx.variables()
        top = Polynomial(ctx, {(LIMIT - 1, 0): 1})
        with pytest.raises(DegreeError):
            top * y
        with pytest.raises(DegreeError):
            (x * y) ** (LIMIT // 2)
        with pytest.raises(DegreeError):
            x ** LIMIT
        with pytest.raises(DegreeError):
            Polynomial(ctx, {(LIMIT, 0): 1})
        with pytest.raises(DegreeError):
            top.substitute({"x0": x * y, "x1": y})
        with pytest.raises(DegreeError):
            x.homogenize("h", LIMIT)
        # a zero factor has no degree and never trips the guard
        assert (top * Polynomial.zero(ctx)).is_zero()
        assert top.coefficient((LIMIT, 0)) == 0
