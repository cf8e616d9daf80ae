"""Ruled and torsal structure of hypersurfaces in P^4.

Gauss maps and their generic rank, envelopes of line families, focal
systems of the line foliation, and the pencil-decomposition certificate.
Every certificate is a polynomial identity; rank statements use exact
rational sampling with a fixed seed.

Rank convention: the rank of a projective map is computed as
rank([Jacobian | image vector]) - 1 at a sample point. The generic rank
is the maximum over SAMPLE_COUNT seeded rational points; lower-rank loci
are proper closed subsets, so the max attains the generic value unless
every sample lands in a measure-zero set. Each sample evaluates the whole
matrix in one integer pass, as ints over one positive denominator, and
takes the rank of those ints: a nonzero common scale leaves a rank as it
is, so no entry becomes a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import isqrt

from torsal import catalog
from torsal._record import Record
from torsal.errors import (
    BaseLocusError,
    DegreeError,
    NotContainedError,
    VerificationError,
)
from torsal.hypersurface import (
    Hypersurface,
    ParamMap,
    contains_parametrized,
    gradient,
    per_surface,
    pullback,
)
from torsal.polyring import (
    Polynomial,
    VarContext,
    discriminant,
    evaluate_many,
    primitive_part,
    solve,
    sylvester_resultant,
)
from torsal.projgeom import ProjPoint, _frac, frame_bourgain, frame_rows, rank

SAMPLE_COUNT = 7
DEFAULT_SEED = 1729

CHART_NOTE = (
    "lam is an affine coordinate on the generator through frame rows 1 and 2; "
    "the point at lam = infinity (frame row 2) is not examined"
)


def _sample_point(rng, n):
    # small numerators and denominators keep the exact arithmetic cheap
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]


class LineFamily:
    """A family of lines in a plane: linear in three plane coordinates,
    polynomial in one family parameter."""

    __slots__ = ("f", "param", "plane_vars")

    def __init__(self, f: Polynomial, param: str):
        ctx = f.context
        names = ctx.names
        if len(names) != 4:
            raise ValueError(
                f"a LineFamily context has the parameter plus 3 plane "
                f"coordinates; got {len(names)} variables"
            )
        i = ctx.index(param)  # validates
        plane = tuple(n for n in names if n != param)
        if not f:
            raise DegreeError(
                "the family is the zero polynomial; a line family needs joint "
                f"degree exactly 1 in the plane coordinates {plane}"
            )
        if f.term_degrees(plane) != {1}:
            # the grlex-largest term that breaks the rule
            exps = next(m.exponents for m, _ in f.sorted_terms()
                        if m.total_degree - m.exponents[i] != 1)
            raise DegreeError(
                f"term {exps} has joint degree {sum(exps) - exps[i]} in the "
                f"plane coordinates {plane}; a line family needs exactly 1"
            )
        self.f = f
        self.param = param
        self.plane_vars = plane

    def __repr__(self):
        return f"LineFamily({self.f}; param={self.param})"


class FocalSystem:
    """The 2x2 focal system of the generator Z = B1 + lam*B2, and Z itself."""

    __slots__ = ("matrix", "determinant", "generator")

    def __init__(self, matrix, generator: ParamMap):
        matrix = tuple(tuple(r) for r in matrix)
        if len(matrix) != 2 or any(len(r) != 2 for r in matrix):
            raise ValueError("focal system matrix is 2x2")
        self.matrix = matrix
        (a, b), (c, d) = matrix
        self.determinant = a * d - b * c
        self.generator = generator


class FocalPoint(Record):
    __slots__ = ("lam", "multiplicity", "point", "at_infinity")
    lam: Fraction
    multiplicity: int
    point: ProjPoint
    at_infinity: bool


class FocalReport(Record):
    __slots__ = ("p", "q", "system", "roots", "residual", "chart_note")
    p: Fraction
    q: Fraction
    system: FocalSystem
    roots: tuple
    residual: Polynomial | None
    chart_note: str


class PencilReport(Record):
    __slots__ = ("checks", "conic", "verdict")
    checks: tuple
    conic: Polynomial
    verdict: str


# -- Gauss map and rank --------------------------------------------------


def gauss_map(h: Hypersurface, pm: ParamMap) -> ParamMap:
    """Each gradient component composed with pm.

    Requires pm to lie on h identically (NotContainedError otherwise):
    off the surface the gradient is not a tangent-hyperplane field. A map
    into the singular locus has no Gauss image (VerificationError).
    """
    if not contains_parametrized(h, pm):
        raise NotContainedError(
            "parametrization does not lie on the hypersurface; "
            "its Gauss image is undefined"
        )
    comps = [pullback(g, pm) for g in gradient(h)]
    if not any(comps):
        raise VerificationError(
            "the map lies in the singular locus, where the gradient "
            "vanishes identically; its Gauss image is undefined"
        )
    return ParamMap(comps)


def jacobian(pm) -> list:
    """5 x #params matrix of Polynomials; column j is d(pm)/d(param j)."""
    comps = pm.components
    params = pm.params
    return [[c.partial_derivative(name) for name in params] for c in comps]


def generic_rank(gi, seed: int = DEFAULT_SEED) -> int:
    """Generic rank of the projectivized map: max over seeded samples of
    rank([Jacobian | image]) - 1.

    The matrix of Polynomials is built once; each sample evaluates all its
    entries in one integer pass (``evaluate_many``), which returns them as
    ints over one positive common denominator. Those int rows go to
    ``rank`` as they are: scaling a matrix by a nonzero constant leaves
    its rank alone, and an entry is zero exactly when its numerator is.
    Samples with a zero image vector (base locus) are skipped; if every
    sample lands there, BaseLocusError advises retrying with a new seed.
    Sampling stops at the first sample whose [J | image] has full rank,
    min(rows, columns): no later sample could give more.
    """
    import random  # only gauss-rank samples; other CLI calls need not load it

    params = gi.params
    width = len(params) + 1
    # row i of [J | image]: the partials of component i, then component i
    entries = [
        e for jrow, c in zip(jacobian(gi), gi.components) for e in (*jrow, c)
    ]
    top = min(len(gi.components), width) - 1
    rng = random.Random(seed)
    best = None
    for _ in range(SAMPLE_COUNT):
        point = _sample_point(rng, len(params))
        values, _ = evaluate_many(entries, point)
        rows = [values[i:i + width] for i in range(0, len(values), width)]
        if not any(row[-1] for row in rows):
            continue
        r = rank(rows) - 1
        best = r if best is None else max(best, r)
        if best == top:
            break
    if best is None:
        raise BaseLocusError(seed)
    return best


# -- envelopes and the conic ---------------------------------------------


def envelope(lf: LineFamily) -> Polynomial:
    """A polynomial in the plane coordinates that vanishes on the envelope.

    Degree 2 in the parameter: the discriminant b^2 - 4*a*c. Degree
    d >= 3: the primitive part of Res_param(f, df/dparam), which is
    +-lc(f) * Disc(f), lc(f) the coefficient of param^d. So it is the
    discriminant times the member line at param = infinity, a factor
    that is not part of the envelope; it has degree 2d - 1 where the
    discriminant has 2d - 2. Families of degree < 2 in the parameter
    have no envelope (DegreeError), nor have those whose discriminant
    vanishes identically: the square of a polynomial in the parameter
    divides every plane coefficient, so a member (p = 0 in p^2*z1) is the
    zero form (DegreeError).
    """
    var = lf.param
    f = lf.f
    d = f.degree_in(var)
    if d < 2:
        raise DegreeError(
            f"family has degree {d} in {var!r}; an envelope needs degree >= 2"
        )
    env = discriminant(f, var) if d == 2 else primitive_part(
        sylvester_resultant(f, f.partial_derivative(var), var))
    if not env:
        raise DegreeError(
            f"the square of a polynomial in {var!r} divides every plane "
            "coefficient of the family, so a member is the zero form; "
            "there is no envelope"
        )
    return env


def conic_tangency_map() -> ParamMap:
    """The tangency point, frame row B1, as a ParamMap in p."""
    p = VarContext(["p"]).variable("p")
    return ParamMap(frame_rows(p, p * 0)[1])


def infinity_line_family(h: Hypersurface) -> LineFamily:
    """Restrict h to the slice {first coordinate = 1, last = p}: the
    induced family of loci in the middle three coordinates.

    For a surface ruled over the line spanned by the first and last
    basis points this is a family of lines (LineFamily validates)."""
    names = h.context.names
    ctx = VarContext(("p",) + names[1:4])
    p, *mid = ctx.variables()
    restricted = h.f.substitute(dict(zip(names, (1, *mid, p))), target_context=ctx)
    return LineFamily(restricted, "p")


def implicitize_plane_family(lf: LineFamily, outer=("z0", "z4")) -> Hypersurface:
    """Implicitize the union of planes spanned by the moving line lf (in
    the plane at infinity) and the moving proper point (1,0,0,0,t).

    With d the degree of the line equation f(t, y) in t, the surface is
    h = (-1)^d * z0^d * f(z4/z0, y): f with t renamed to z4, homogenized
    by z0 to degree d + 1. This equals the resultant
    Res_t(f, t*z0 - z4), sign included, since the second argument is
    linear in t. Certified by the pullback identity
    h(z0, y, t*z0) = (-1)^d * z0^d * f(t, y), which fixes h on the dense
    set z0 != 0 (VerificationError otherwise). A family of degree 0 in t
    sweeps no surface (DegreeError).
    """
    t, f, plane = lf.param, lf.f, lf.plane_vars
    z0_name, z4_name = outer
    d = f.degree_in(t)
    if d < 1:
        raise DegreeError(
            f"family has degree {d} in {t!r}; implicitization needs degree >= 1"
        )
    *ys, z4 = VarContext(plane + (z4_name,)).variables()
    h = f.substitute({**dict(zip(plane, ys)), t: z4}).homogenize(z0_name, d + 1)
    h = Hypersurface(-h if d % 2 else h)

    z0, *rest = VarContext((z0_name,) + f.context.names).variables()
    images = dict(zip(f.context.names, rest))  # f unchanged, with z0 added
    along = ParamMap([z0, *(images[n] for n in plane), images[t] * z0])
    if pullback(h.f, along) != (-z0) ** d * f.substitute(images):
        raise VerificationError(
            "implicitization certificate failed: h(z0, y, t*z0) is not "
            "(-1)^d * z0^d * f(t, y)"
        )
    return h


# -- symbolic frame and focal analysis ------------------------------------


def _generator(rows, lam) -> list:
    """Z = B1 + lam*B2 from the frame rows: the generator's point at lam."""
    return [b1 + lam * b2 for b1, b2 in zip(rows[1], rows[2])]


def generator_map() -> ParamMap:
    """The moving point Z = B1 + lam*B2 on the generator, in fixed
    coordinates: focal_system().generator (VerificationError as there)."""
    return focal_system().generator


@cache
def focal_system() -> FocalSystem:
    """Derive the focal system of the line foliation symbolically.

    Differentiates Z = B1 + lam*B2 by (lam, p, q) and solves for the
    frame coordinates of each partial: ``solve(F^T, partials)``, F the
    frame. det(F) must be 1 (VerificationError otherwise), so adj(F^T)
    is the inverse of F^T. Checks that d(Z)/d(lam)
    is B2 and that the transverse motion lives in span{B0, B3 + q*B4},
    and returns the 2x2 coefficient system of that motion. Entries end
    up in the (q, lam) ring; the determinant is -lam^2.

    It takes no input, so it is derived once per process and every later
    call returns the same system (``focal_system.cache_clear()`` forgets
    it).
    """
    ctx = VarContext(["p", "q", "lam"])
    p, q, lam = ctx.variables()
    frame = frame_rows(p, q)
    Z = _generator(frame, lam)
    # row j: coordinate j of each partial
    partials = [[z.partial_derivative(v) for v in ("lam", "p", "q")] for z in Z]
    det, coords = solve(list(zip(*frame)), partials)
    if det != 1:
        raise VerificationError("frame determinant is not 1")
    d_lam, d_p, d_q = map(list, zip(*coords))
    if d_lam != [0, 0, 1, 0, 0]:
        raise VerificationError("d(Z)/d(lam) is not the frame point B2")

    # transverse part: B1, B2 components are motion along the generator
    # itself and are discarded
    for coeffs in (d_p, d_q):
        if coeffs[4] != q * coeffs[3]:
            raise VerificationError(
                "transverse motion is not in span{B0, B3 + q*B4}"
            )
    matrix = [[d_p[0], d_q[0]], [d_p[3], d_q[3]]]
    if any("p" in e.variables_present() for row in matrix for e in row):
        raise VerificationError("focal entries unexpectedly involve p")
    matrix = [[e.dehomogenize("p") for e in row] for row in matrix]
    return FocalSystem(matrix, ParamMap(Z))


def _divisors(n: int) -> list:
    """The positive divisors of the nonzero integer n."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def rational_roots(f: Polynomial, var: str):
    """All rational roots of a univariate polynomial, with multiplicity.

    Returns (roots, residual): roots as (Fraction, multiplicity) pairs
    sorted ascending, and the residual factor (None when the polynomial
    splits completely over the rationals, up to a constant). The residual
    is primitive, with the sign of f's leading coefficient.

    Once f is primitive, a root d/e in lowest terms has d dividing the
    constant term and e the leading coefficient (the rational root
    theorem); each root found is divided out as e*x - d while it divides.
    """
    ctx = VarContext([var])
    x = ctx.variable(var)
    if f.context != ctx:
        f = f.substitute({var: x}, target_context=ctx)
    if f.is_zero():
        raise ValueError("the zero polynomial has every rational as a root")
    f = primitive_part(f)
    roots = []
    low = min(f.term_degrees((var,)))  # the power of x dividing f
    if low:
        roots.append((Fraction(0), low))
        f = f.exact_div(x ** low)
    while f.total_degree() > 0:
        const = f.coefficient((0,)).numerator
        lead = f.leading_coefficient().numerator
        candidates = (
            Fraction(sign * d, e)
            for e in _divisors(lead)
            for d in _divisors(const)
            for sign in (1, -1)
        )
        root = next((r for r in candidates if not f.evaluate([r])), None)
        if root is None:
            break
        factor = root.denominator * x - root.numerator
        mult = 0
        while f.total_degree() > 0 and not f.evaluate([root]):
            f = f.exact_div(factor)
            mult += 1
        roots.append((root, mult))
    roots.sort()
    return roots, f if f.total_degree() > 0 else None


@per_surface
def _generator_pullback(h: Hypersurface) -> Polynomial:
    """h(B1 + lam*B2) over Q[p, q, lam] along focal_system()'s generator."""
    return pullback(h.f, focal_system().generator)


def focal_points_on_generator(h: Hypersurface, p, q) -> FocalReport:
    """Roots of the focal determinant on the (p, q) generator, with the
    corresponding points and their at-infinity status.

    p and q are int or Fraction (TypeError otherwise). The generator lies
    on h iff h(B1 + lam*B2) over Q[p, q, lam], derived once and kept on h,
    is zero in Q[lam] at (p, q) (NotContainedError otherwise). The report
    carries the focal system whose determinant was solved."""
    p, q = _frac(p), _frac(q)
    rows = frame_bourgain(p, q).rows
    lam_ctx = VarContext(["lam"])
    lam = lam_ctx.variable("lam")
    system = focal_system()
    on_h = _generator_pullback(h)
    if on_h and on_h.substitute({"p": p, "q": q, "lam": lam},
                                target_context=lam_ctx):
        raise NotContainedError(
            f"the generator at (p, q) = ({p}, {q}) does not lie on the "
            "hypersurface"
        )
    det_q = system.determinant.substitute(
        {"q": q, "lam": lam}, target_context=lam_ctx
    )
    roots, residual = rational_roots(det_q, "lam")
    out = []
    for lam0, mult in roots:
        coords = _generator(rows, lam0)
        pt = ProjPoint(coords)
        at_inf = coords[0] == 0 and coords[4] == 0
        out.append(FocalPoint(lam0, mult, pt, at_inf))
    return FocalReport(p, q, system, tuple(out), residual, CHART_NOTE)


# -- pencil decomposition certificate --------------------------------------


PENCIL_VERDICT = "torsal: pencils of lines, centers on conic C"


@per_surface
def pencil_structure_report(h: Hypersurface) -> PencilReport:
    """Certify that the two-parameter generator family decomposes into
    plane pencils: for fixed p all generators pass through one center
    lying on the envelope conic, inside one moving 2-plane contained in h.

    Every check is a symbolic polynomial identity about the frame rows
    B0, B1, B2, built once over Q[p, q, alpha, beta, gamma]: B1 carries
    no q, B2 = q*B0 - (dB1/dp)/2, the plane alpha*B0 + beta*B1 -
    gamma*(dB1/dp)/2 lies on h, and B1 lies on the envelope conic. Only
    the standard cubic (in any variable names) is accepted; anything
    else raises VerificationError, which names every failed check.

    The certificate of each accepted surface is derived once and kept on
    it, so every later call with that surface returns the same report. A
    refused surface or a failed check raises and keeps nothing, so it
    raises again on every call.
    """
    if h.f != catalog.get("bourgain").polynomial.rename(h.context.names):
        raise VerificationError(
            "pencil structure is certified only for the standard ruled "
            "cubic; got a different polynomial"
        )

    lf = infinity_line_family(h)
    conic = envelope(lf)

    ctx = VarContext(["p", "q", "alpha", "beta", "gamma"])
    p, q, alpha, beta, gamma = ctx.variables()
    b0, b1, b2 = frame_rows(p, q)[:3]
    db1 = [c.partial_derivative("p") for c in b1]
    # B0, B1 and dB1/dp carry no q (check 2 certifies it for B1), so the
    # moving plane and the centers are read off these rows
    plane_map = ParamMap(
        [alpha * a + beta * b - gamma * d / 2 for a, b, d in zip(b0, b1, db1)]
    )
    center = {lf.param: p, **dict(zip(lf.plane_vars, b1[1:4]))}
    checks = [
        ("slice at infinity is a family of lines", True),
        ("pencil center does not move with q",
         all(c.partial_derivative("q").is_zero() for c in b1)),
        ("generators lie in the plane of the center, its tangent "
         "direction, and the moving point",
         all(b2j == q * b0j - db1j / 2 for b2j, b0j, db1j in zip(b2, b0, db1))),
        ("moving 2-plane lies on the hypersurface",
         contains_parametrized(h, plane_map)),
        ("pencil centers lie on the envelope conic",
         conic.substitute(center, target_context=ctx).is_zero()),
    ]

    if not all(ok for _, ok in checks):
        failed = [name for name, ok in checks if not ok]
        raise VerificationError("pencil certificate failed: " + "; ".join(failed))
    return PencilReport(tuple(checks), conic, PENCIL_VERDICT)
