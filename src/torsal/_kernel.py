"""Term-arithmetic kernel.

Terms are plain dicts mapping packed monomial keys to rational
coefficients stored as ``(numerator, denominator)`` int pairs:
denominator positive, lowest terms, numerator nonzero (zero coefficients
are never stored). Every polynomial operation in the package bottoms out
in these loops, so they stay on bare ints instead of fractions.Fraction.
Products of integer inputs, which every implicitization starts from,
accumulate plain ints and build one pair per output term. Every other
product, scaling, power and exact quotient clears its operands to ints
(_cleared), runs one int loop (_mul_ints; _pow_ints, the one power loop,
whose products are _mul_ints; _exact_div_ints, the one division loop,
which finds the divisor's lead and borrow mask itself) and divides by
one denominator at the end (_pairs). The subresultant PRS of
torsal.polyring reaches those loops through Polynomial's *, ** and
exact_div on sparse or wide-coefficient inputs; dense inputs take its
Kronecker path, which packs each coefficient into one int and calls none
of them. Evaluation has one loop too, terms_eval_many: several dicts at
one point, as ints over one common denominator; terms_eval reduces its
single result to lowest terms.

A key packs an exponent vector (e0, ..., e_{n-1}) of total degree deg
into one int, ``WIDTH`` bits per field with e0 most significant and the
degree on top (Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007)::

    deg << (n*WIDTH) | e0 << ((n-1)*WIDTH) | ... | e_{n-1}

Multiplying monomials is then adding keys, and comparing keys as ints is
graded-lexicographic order. A field overflows only when a degree reaches
``DEGREE_LIMIT``; the caller knows the degrees and checks before it
multiplies (torsal.polyring). The key of the monomial 1 is 0 in every
context. Dicts are unordered: canonical order is established where it is
shown. A dict is never changed once built (add_into changes only the dict
its caller is building), so a result may share pairs, or be, an input.
"""

from heapq import heapify, heappop, heappush
from math import gcd, lcm

from torsal.errors import InexactDivisionError

WIDTH = 32
MASK = (1 << WIDTH) - 1
DEGREE_LIMIT = 1 << WIDTH  # degrees and exponents stay below this


def rat_norm(num, den):
    """Normalize num/den to lowest terms with a positive denominator."""
    if den == 0:
        raise ZeroDivisionError("rational with zero denominator")
    if num == 0:
        return (0, 1)
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    return (num, den)


def rat_add(n1, d1, n2, d2):
    if d1 == d2:
        n = n1 + n2
        if n == 0:
            return (0, 1)
        g = gcd(n, d1)
        return (n // g, d1 // g) if g > 1 else (n, d1)
    n = n1 * d2 + n2 * d1
    if n == 0:
        return (0, 1)
    d = d1 * d2
    g = gcd(n, d)
    return (n // g, d // g) if g > 1 else (n, d)


def rat_mul(n1, d1, n2, d2):
    # cross-reduce before multiplying; reduced inputs give a reduced result
    g1 = gcd(abs(n1), d2)
    g2 = gcd(abs(n2), d1)
    return ((n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1))


def add_into(out, b, sign=1):
    """Add sign * b into the term dict ``out`` in place and return it.

    The one accumulation loop: a sum of many term dicts costs one pass
    over each instead of a copy of the running total per summand.
    """
    get = out.get
    for key, pair in b.items():
        n, d = pair
        if sign < 0:
            n = -n
            pair = (n, d)
        cur = get(key)
        if cur is None:
            out[key] = pair
            continue
        cn, cd = cur
        if cd == 1 and d == 1:
            s, sd = cn + n, 1
        else:
            s, sd = rat_add(cn, cd, n, d)
        if s:
            out[key] = (s, sd)
        else:
            del out[key]
    return out


def terms_add(a, b, sign=1):
    """a + sign * b; cancelled coefficients are dropped."""
    return add_into(dict(a), b, sign)


def terms_neg(a):
    return {key: (-n, d) for key, (n, d) in a.items()}


def terms_scale(a, num, den):
    """Multiply every coefficient by num/den (zero scalar clears the dict)."""
    num, den = rat_norm(num, den)
    if num == 0:
        return {}
    ints, da = _cleared(a)
    return _pairs(ints, num, den * da)


def terms_mul(a, b):
    """Distributive product of two term dicts over one variable context.

    A one-term factor shifts the other's keys, which cannot collide, so
    its product needs no accumulation. Otherwise integer operands, the
    common case, accumulate plain ints, and the pairs are built once per
    output term; any other denominator sends both to _mul_cleared.
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= 1:
        if not a:
            return {}
        [(k1, (n1, d1))] = a.items()
        if d1 == 1:
            return {
                k1 + k2: (n1 * n2, 1) if d2 == 1 else rat_mul(n1, 1, n2, d2)
                for k2, (n2, d2) in b.items()
            }
        return {k1 + k2: rat_mul(n1, d1, n2, d2) for k2, (n2, d2) in b.items()}
    out = {}
    get = out.get
    for k1, (n1, d1) in a.items():
        if d1 != 1:
            return _mul_cleared(a, b)
        if out:
            for k2, (n2, _) in b.items():
                key = k1 + k2
                out[key] = get(key, 0) + n1 * n2
            continue
        # the first row cannot collide, and it checks b's denominators
        for k2, (n2, d2) in b.items():
            if d2 != 1:
                return _mul_cleared(a, b)
            out[k1 + k2] = n1 * n2
    # cancelled terms go in one pass
    return {key: (n, 1) for key, n in out.items() if n}


def _mul_cleared(a, b):
    """terms_mul when a coefficient is not an integer.

    Both operands are cleared to integers, whose products accumulate as
    in terms_mul; each output coefficient is divided by the two
    denominators once.
    """
    a, da = _cleared(a)
    b, db = _cleared(b)
    return _pairs(_mul_ints(a, b), 1, da * db)


def _mul_ints(a, b):
    """The product of the int dicts a and b, a new dict.

    Cancelled keys stay as zeros; the caller drops them in its one pass
    over the result.
    """
    out = {}
    get = out.get
    b = list(b.items())
    for k1, n1 in a.items():
        for k2, n2 in b:
            key = k1 + k2
            out[key] = get(key, 0) + n1 * n2
    return out


def _cleared(terms):
    """(ints, den): den the lcm of the denominators, ints {key: c * den}."""
    den = 1
    for _, d in terms.values():
        if den % d:
            den = lcm(den, d)
    if den == 1:
        return {key: n for key, (n, _) in terms.items()}, den
    return {key: n * (den // d) for key, (n, d) in terms.items()}, den


def _pairs(ints, num, den):
    """The term dict of num/den times each nonzero int, for den > 0."""
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    if den == 1:
        return {key: (n * num, 1) for key, n in ints.items() if n}
    return {
        key: (m // g, den // g)
        for key, n in ints.items() if n
        for m in (n * num,)
        for g in (gcd(m, den),)
    }


def terms_pow(a, n):
    """a**n for a non-negative int n: (A/den)**n = _pow_ints(A, n) / den**n."""
    if n < 0:
        raise ValueError("negative exponent")
    if n == 0:
        return {0: (1, 1)}
    if n == 1 or not a:
        return a
    if len(a) == 1:
        [(lead, (tn, td))] = a.items()
        return {lead * n: (tn ** n, td ** n)}
    ints, den = _cleared(a)
    return _pairs(_pow_ints(ints, n), 1, den ** n)


def _pow_ints(a, n):
    """a**n for a nonzero int dict a and an int n >= 1; the one power loop.

    a splits into its leading term t and the rest r, and a**n = sum over
    k of C(n, k) t**k r**(n-k) (binomial expansion; Fateman, "On the
    computation of powers of sparse polynomials", 1974, weighs it against
    repeated multiplication and squaring). Each summand is a power of r
    shifted by one key and scaled by one int. The powers of r come from
    repeated multiplication by r, which has one term fewer than a; k runs
    downward, so only one power of r and the sum are alive at a time. The
    cost is sum |r^j| * |r| term products plus one pass over each r^j,
    where repeated multiplication by a costs sum |a^j| * |a|: for
    (x+y+z)^44, 1,978 products instead of 45,537. As in _mul_ints,
    cancelled keys stay as zeros, in the result and in the powers of r;
    the caller drops them in its one pass over the result.
    """
    lead = max(a)
    t = a[lead]
    tk = t ** n
    out = {lead * n: tk}
    r = {key: c for key, c in a.items() if key != lead}
    get = out.get
    binom, rpow = 1, r
    for k in range(n - 1, -1, -1):
        # C(n, k) t**k from C(n, k+1) t**(k+1)
        binom = binom * (k + 1) // (n - k)
        tk //= t
        c = binom * tk
        shift = lead * k
        for key, m in rpow.items():
            key += shift
            out[key] = get(key, 0) + c * m
        if k:
            rpow = _mul_ints(r, rpow)
    return out


def terms_exact_div(a, b):
    """The term dict q with q * b == a, for a nonzero term dict b.

    Division by b's leading term: each step takes the remainder's largest
    key, its grlex leading monomial, divides that term by b's leading term
    and subtracts the quotient term times b. The leading monomial of a
    nonzero remainder is a multiple of b's exactly when b divides it, so
    the first one that is not (some exponent field of its key minus the
    lead key borrows) means b does not divide a: InexactDivisionError,
    never a wrong quotient.

    The division runs on ints. Both operands are cleared to integers,
    a = A/da and b = B/db, and A is divided by B. If a quotient
    coefficient is not an integer, B is divided by its content cb and A
    by the primitive B0 = B/cb once more. By Gauss's lemma a primitive
    divisor of an integer polynomial leaves an integer quotient, so a
    coefficient that is not an integer on that pass means b does not
    divide a. Otherwise q = db/(da*cb) * A/B0.
    """
    if not b:
        raise ZeroDivisionError("exact division by the zero polynomial")
    a, da = _cleared(a)
    b, db = _cleared(b)
    q = _exact_div_ints(a, b)
    cb = 1
    if q is None:
        cb = gcd(*b.values())
        if cb > 1:
            b = {key: n // cb for key, n in b.items()}
            q = _exact_div_ints(a, b)
        if q is None:
            raise _no_multiple()
    return _pairs(q, db, da * cb)


def _no_multiple():
    return InexactDivisionError(
        "exact division leaves a remainder: a leading monomial of "
        "the remainder is not a multiple of the divisor's"
    )


def _exact_div_ints(a, b):
    """The int dict A/B for int dicts A and B != {}, or None if it is not
    integral; InexactDivisionError if B does not divide A."""
    lead = max(b)
    # a field of key - lead borrows exactly when the subtraction carries a
    # borrow into the lowest bit of the field above it; a lead of degree
    # >= 1 has bits above every field boundary, and a constant one
    # cannot borrow
    boundaries = sum(1 << bit for bit in range(WIDTH, lead.bit_length(), WIDTH))
    ln = b[lead]
    rest = [(key, n) for key, n in b.items() if key != lead]
    r = dict(a)
    get = r.get
    heap = [-key for key in r]  # max-heap of remainder keys, stale ones skipped
    heapify(heap)
    q = {}
    while heap:
        key = -heappop(heap)
        n1 = r.pop(key, None)
        if n1 is None:
            continue
        shift = key - lead
        if shift < 0 or (key ^ lead ^ shift) & boundaries:
            raise _no_multiple()
        c, m = divmod(n1, ln)
        if m:
            return None
        q[shift] = c
        for k2, n2 in rest:
            k = shift + k2
            cur = get(k)
            if cur is None:
                r[k] = -c * n2
                heappush(heap, -k)
                continue
            s = cur - c * n2
            if s:
                r[k] = s
            else:
                del r[k]
    return q


def terms_eval(a, point):
    """Evaluate at a point given as a sequence of (num, den) pairs, den > 0:
    the value of terms_eval_many in lowest terms."""
    [num], den = terms_eval_many([a], point)
    return rat_norm(num, den)


def terms_eval_many(dicts, point):
    """Evaluate several term dicts at one point of (num, den) pairs, den > 0;
    the one evaluation loop.

    Returns (nums, den): dict j has the value nums[j] / den, den > 0, not
    reduced. The common denominator is L * prod(den_i ** D_i), with L the
    lcm of every coefficient denominator and D_i the largest exponent of
    variable i in any of the dicts. Each variable gets one table
    num_i**e * den_i**(D_i - e), built once for all the dicts over the
    exponents e that occur, and each distinct monomial is one product of
    table entries, so a term costs integer products only.
    """
    shifts = range((len(point) - 1) * WIDTH, -1, -WIDTH)
    keys = list(set().union(*dicts))
    # one column per variable: its exponent in each distinct monomial
    columns = [[(key >> s) & MASK for key in keys] for s in shifts]
    top = [max(column, default=0) for column in columns]
    tables = [
        {e: pn ** e * pd ** (dmax - e) for e in set(column)}
        for (pn, pd), dmax, column in zip(point, top, columns)
    ]
    monomials = {}
    for key, vector in zip(keys, zip(*columns)):
        m = 1
        for table, e in zip(tables, vector):
            m *= table[e]
        monomials[key] = m
    den = 1
    for a in dicts:
        for _, d in a.values():
            if den % d:
                den = lcm(den, d)
    nums = []
    for a in dicts:
        total = 0
        for key, (c, d) in a.items():
            total += c * (den // d) * monomials[key]
        nums.append(total)
    for (_, pd), dmax in zip(point, top):
        den *= pd ** dmax
    return nums, den
