"""Ruled and torsal structure of hypersurfaces in P^4.

Gauss maps and their generic rank, envelopes of line families, focal
systems of the line foliation, and the pencil-decomposition certificate.
Every certificate is a polynomial identity; rank statements use exact
rational sampling with a fixed seed.

Rank convention: the rank of a projective map is computed as
rank([Jacobian | image vector]) - 1 at a sample point. The generic rank
is the maximum over SAMPLE_COUNT seeded rational points; lower-rank loci
are proper closed subsets, so the max attains the generic value unless
every sample lands in a measure-zero set.
"""

from __future__ import annotations

from fractions import Fraction
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
    pullback,
)
from torsal.polyring import (
    Polynomial,
    VarContext,
    discriminant,
    primitive_part,
    sylvester_resultant,
)
from torsal.projgeom import ProjPoint, adjugate, frame_bourgain, frame_rows, rank

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
        names = f.context.names
        if len(names) != 4:
            raise ValueError(
                f"a LineFamily context has the parameter plus 3 plane "
                f"coordinates; got {len(names)} variables"
            )
        f.context.index(param)  # validates
        plane = tuple(n for n in names if n != param)
        plane_idx = [f.context.index(n) for n in plane]
        for mono, _ in f.sorted_terms():
            d = sum(mono.exponents[i] for i in plane_idx)
            if d != 1:
                raise DegreeError(
                    f"term {mono.exponents} has joint degree {d} in the plane "
                    f"coordinates {plane}; a line family needs exactly 1"
                )
        self.f = f
        self.param = param
        self.plane_vars = plane

    def __repr__(self):
        return f"LineFamily({self.f}; param={self.param})"


class FocalSystem:
    """2x2 linear system cutting out the focal points on a generator."""

    __slots__ = ("matrix", "determinant")

    def __init__(self, matrix):
        matrix = tuple(tuple(r) for r in matrix)
        if len(matrix) != 2 or any(len(r) != 2 for r in matrix):
            raise ValueError("focal system matrix is 2x2")
        self.matrix = matrix
        (a, b), (c, d) = matrix
        self.determinant = a * d - b * c


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

    Samples with a zero image vector (base locus) are skipped; if every
    sample lands there, BaseLocusError advises retrying with a new seed.
    """
    import random  # only gauss-rank samples; other CLI calls need not load it

    comps = gi.components
    params = gi.params
    jac = jacobian(gi)
    rng = random.Random(seed)
    best = None
    for _ in range(SAMPLE_COUNT):
        point = _sample_point(rng, len(params))
        image = [c.evaluate(point) for c in comps]
        if not any(image):
            continue
        rows = [
            [entry.evaluate(point) for entry in jrow] + [img]
            for jrow, img in zip(jac, image)
        ]
        r = rank(rows) - 1
        best = r if best is None else max(best, r)
    if best is None:
        raise BaseLocusError(seed)
    return best


# -- envelopes and the conic ---------------------------------------------


def envelope(lf: LineFamily) -> Polynomial:
    """Envelope of the family: discriminant in the parameter.

    The quadratic case is primary; higher degrees fall back to the
    resultant of (f, df/dparam) with integer content removed. Families
    of degree < 2 in the parameter have no envelope (DegreeError).
    """
    var = lf.param
    f = lf.f
    d = f.degree_in(var)
    if d == 2:
        return discriminant(f, var)
    if d > 2:
        return primitive_part(
            sylvester_resultant(f, f.partial_derivative(var), var)
        )
    raise DegreeError(
        f"family has degree {d} in {var!r}; an envelope needs degree >= 2"
    )


def conic_tangency_point(p) -> ProjPoint:
    """Where the moving line touches its envelope: frame row B1 at p."""
    p = Fraction(p)
    return ProjPoint(frame_rows(p, p * 0)[1])


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
    mid = names[1:4]
    ctx = VarContext(("p",) + mid)
    p = ctx.variable("p")
    assignment = {
        names[0]: Polynomial.one(ctx),
        names[4]: p,
        names[1]: ctx.variable(mid[0]),
        names[2]: ctx.variable(mid[1]),
        names[3]: ctx.variable(mid[2]),
    }
    restricted = h.f.substitute(assignment, target_context=ctx)
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
    """The moving point Z = B1 + lam*B2 on the generator, in fixed coordinates."""
    p, q, lam = VarContext(["p", "q", "lam"]).variables()
    return ParamMap(_generator(frame_rows(p, q), lam))


def focal_system() -> FocalSystem:
    """Derive the focal system of the line foliation symbolically.

    Differentiates Z = B1 + lam*B2 by (p, q, lam), rewrites each partial
    in the moving frame via the frame's adjugate (its inverse once
    det(frame) = 1, read off as row 0 of the frame times column 0 of the
    adjugate; VerificationError otherwise), checks that
    d(Z)/d(lam) is B2 and that everything else lives in
    span{B0, B1, B2, B3 + q*B4}, and returns the 2x2 coefficient system
    of the motion transverse to the generator. Entries end up in the
    (q, lam) ring; the determinant is -lam^2.
    """
    ctx = VarContext(["p", "q", "lam"])
    p, q, lam = ctx.variables()
    frame = frame_rows(p, q)
    zero = Polynomial.zero(ctx)

    inv = adjugate(frame)
    # det(frame) is row 0 of the frame times column 0 of its adjugate;
    # once it is 1, the adjugate is the inverse
    if sum((frame[0][j] * inv[j][0] for j in range(5)), zero) != 1:
        raise VerificationError("frame determinant is not 1")

    Z = _generator(frame, lam)

    def in_frame(vec):
        # row vector of A-coordinates -> row vector of frame coordinates
        return [
            sum((vec[j] * inv[j][k] for j in range(5)), zero) for k in range(5)
        ]

    d_lam = in_frame([c.partial_derivative("lam") for c in Z])
    if d_lam != [zero, zero, Polynomial.one(ctx), zero, zero]:
        raise VerificationError("d(Z)/d(lam) is not the frame point B2")

    rows = []
    for var in ("p", "q"):
        coeffs = in_frame([c.partial_derivative(var) for c in Z])
        # transverse part: B1, B2 components are motion along the
        # generator itself and are discarded
        b0, b3, b4 = coeffs[0], coeffs[3], coeffs[4]
        if b4 != q * b3:
            raise VerificationError(
                "transverse motion is not in span{B0, B3 + q*B4}"
            )
        rows.append((b0, b3))
    matrix = [[rows[0][0], rows[1][0]], [rows[0][1], rows[1][1]]]

    out = []
    for row in matrix:
        out_row = []
        for entry in row:
            if "p" in entry.variables_present():
                raise VerificationError("focal entries unexpectedly involve p")
            out_row.append(entry.dehomogenize("p"))
        out.append(out_row)
    return FocalSystem(out)


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
    low = f.sorted_terms()[-1][0].total_degree  # the power of x dividing f
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


def focal_points_on_generator(h: Hypersurface, p, q) -> FocalReport:
    """Roots of the focal determinant on the (p, q) generator, with the
    corresponding points and their at-infinity status.

    Verifies first that the generator actually lies on h. The report
    carries the focal system whose determinant was solved."""
    p, q = Fraction(p), Fraction(q)
    rows = frame_bourgain(p, q).rows
    lam_ctx = VarContext(["lam"])
    lam = lam_ctx.variable("lam")
    line = ParamMap(_generator(rows, lam))
    if not contains_parametrized(h, line):
        raise NotContainedError(
            f"the generator at (p, q) = ({p}, {q}) does not lie on the "
            "hypersurface"
        )
    system = focal_system()
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


def pencil_structure_report(h: Hypersurface) -> PencilReport:
    """Certify that the two-parameter generator family decomposes into
    plane pencils: for fixed p all generators pass through one center
    lying on the envelope conic, inside one moving 2-plane contained in h.

    Every check is a symbolic polynomial identity. Only the standard
    cubic (in any variable names) is accepted; anything else raises
    VerificationError.
    """
    if h.f != catalog.get("bourgain").polynomial.rename(h.context.names):
        raise VerificationError(
            "pencil structure is certified only for the standard ruled "
            "cubic; got a different polynomial"
        )

    checks = []

    lf = infinity_line_family(h)
    checks.append(("slice at infinity is a family of lines", True))

    conic = envelope(lf)

    p, q = VarContext(["p", "q"]).variables()
    b0, b1, b2 = frame_rows(p, q)[:3]
    center_fixed = all(c.partial_derivative("q").is_zero() for c in b1)
    checks.append(("pencil center does not move with q", center_fixed))

    db1 = [c.partial_derivative("p") for c in b1]
    in_plane = all(
        b2j == q * b0j - db1j / 2 for b2j, b0j, db1j in zip(b2, b0, db1)
    )
    checks.append(
        ("generators lie in the plane of the center, its tangent "
         "direction, and the moving point", in_plane)
    )

    alpha, beta, gamma, p = VarContext(["alpha", "beta", "gamma", "p"]).variables()
    b0p, b1p = frame_rows(p, p * 0)[:2]
    db1p = [c.partial_derivative("p") for c in b1p]
    plane_map = ParamMap(
        [
            alpha * a + beta * b - gamma * d / 2
            for a, b, d in zip(b0p, b1p, db1p)
        ]
    )
    checks.append(
        ("moving 2-plane lies on the hypersurface",
         contains_parametrized(h, plane_map))
    )

    tangency = conic_tangency_map()
    tctx = tangency.context
    center_on_conic = conic.substitute(
        {
            lf.param: tctx.variable("p"),
            lf.plane_vars[0]: tangency.components[1],
            lf.plane_vars[1]: tangency.components[2],
            lf.plane_vars[2]: tangency.components[3],
        },
        target_context=tctx,
    ).is_zero()
    checks.append(("pencil centers lie on the envelope conic", center_on_conic))

    if not all(ok for _, ok in checks):
        failed = [name for name, ok in checks if not ok]
        raise VerificationError("pencil certificate failed: " + "; ".join(failed))
    return PencilReport(tuple(checks), conic, PENCIL_VERDICT)
