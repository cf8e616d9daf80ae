"""Certified reduction of the trigonometric ruled surface to the ruled cubic.

The pipeline rationalizes x1*cos + x2*sin - x4 = 0 by the half-angle
substitution, normalizes the sign, and applies a linear identification
landing exactly on the standard cubic. Every step is stored with a
certificate kind and enough data to replay it as a polynomial identity;
reports serialize deterministically, so reruns are byte-identical.
"""

from __future__ import annotations

from fractions import Fraction

from torsal import catalog
from torsal._record import Record
from torsal.catalog import PROJECTIVE_NAMES, RATIONAL_NAMES
from torsal.errors import ContextMismatchError, DegreeError, VerificationError
from torsal.polyring import (
    Polynomial,
    VarContext,
    equal_up_to_scalar,
    format_polynomial,
    format_rational,
)

TRIG_NAMES = ("x1", "x2", "x4", "c", "s")


class TrigSurface:
    """A polynomial in (x1, x2, x4) and the formal symbols c, s standing
    for the cosine and sine of the angular coordinate.

    Joint degree in {c, s} must be at most 1 per term, so the Pythagorean
    relation is never needed and plain ring arithmetic suffices.
    """

    __slots__ = ("f",)

    def __init__(self, f: Polynomial):
        if f.context.names != TRIG_NAMES:
            raise ContextMismatchError(
                f"TrigSurface uses the fixed context {TRIG_NAMES}; "
                f"got ({', '.join(f.context.names)})"
            )
        ci = f.context.index("c")
        si = f.context.index("s")
        for mono, _ in f.sorted_terms():
            if mono.exponents[ci] + mono.exponents[si] > 1:
                raise DegreeError(
                    "trig degree exceeds 1: term with exponents "
                    f"{mono.exponents} mixes or squares c, s"
                )
        self.f = f

    @classmethod
    def context(cls) -> VarContext:
        return VarContext(TRIG_NAMES)

    @classmethod
    def standard(cls) -> "TrigSurface":
        """x1*c + x2*s - x4: the ruled surface swept by rotating lines."""
        ctx = cls.context()
        x1, x2, x4, c, s = ctx.variables()
        return cls(x1 * c + x2 * s - x4)

    def __repr__(self):
        return f"TrigSurface({self.f})"


def weierstrass_substitute(ts: TrigSurface) -> Polynomial:
    """Clear the trig functions by the half-angle parametrization.

    c goes to v^2 - u^2, s goes to 2uv, and every trig-free term is
    multiplied by u^2 + v^2 (the cleared common denominator). The result
    lives in (x1, x2, x4, u, v) and is homogeneous of degree exactly 2
    in (u, v).
    """
    f = ts.f
    cs = f.coefficients_in("c")
    f_c = cs[1] if len(cs) > 1 else Polynomial.zero(f.context)
    ss = cs[0].coefficients_in("s")
    f_s = ss[1] if len(ss) > 1 else Polynomial.zero(f.context)
    f_0 = ss[0]

    ctx = VarContext(RATIONAL_NAMES)
    x1, x2, x4, u, v = ctx.variables()
    carry = {"x1": x1, "x2": x2, "x4": x4}

    def into(g):
        return g.substitute(carry, target_context=ctx)

    return (
        into(f_c) * (v ** 2 - u ** 2)
        + into(f_s) * (2 * u * v)
        + into(f_0) * (u ** 2 + v ** 2)
    )


# -- replayable step records ----------------------------------------------


class EquivalenceStep(Record):
    """One certified transformation: `certificate` names the identity
    that links input to output, `data` carries what replaying needs."""

    __slots__ = ("name", "input", "output", "certificate", "data")

    def __init__(
        self,
        name: str,
        input: Polynomial,
        output: Polynomial,
        certificate: str,
        data: object = None,
    ):
        super().__init__(name, input, output, certificate, data)


def replay_step(step: EquivalenceStep) -> bool:
    """Re-verify one step from its stored data alone."""
    kind = step.certificate
    if kind == "regrouping-identity":
        return step.input == step.output
    if kind == "linear-substitution":
        images = dict(step.data)
        target = step.output.context
        return step.input.substitute(images, target_context=target) == step.output
    if kind == "homogenization":
        var, degree, names = step.data
        return step.input.homogenize(var, degree).rename(names) == step.output
    if kind == "half-angle":
        return weierstrass_substitute(TrigSurface(step.input)) == step.output
    if kind == "scalar-normalization":
        return step.input * step.data == step.output
    if kind == "scalar-certificate":
        return step.data != 0 and step.input == step.output * step.data
    raise ValueError(f"unknown certificate kind {kind!r}")


class EquivalenceReport(Record):
    """A chain of certified steps plus the headline substitution/scalar."""

    __slots__ = (
        "steps", "final_substitution", "final_scalar", "z3_sign_flipped", "notes"
    )
    steps: tuple
    final_substitution: tuple  # ordered (variable, Polynomial) pairs
    final_scalar: Fraction
    z3_sign_flipped: bool | None
    notes: tuple

    def replay(self) -> bool:
        """Re-verify every step certificate and the scalar's nonvanishing."""
        return all(replay_step(s) for s in self.steps) and self.final_scalar != 0

    def to_jsonable(self) -> dict:
        """Deterministic plain-data rendering (field order fixed)."""
        out = {
            "steps": [
                {
                    "name": s.name,
                    "input": format_polynomial(s.input),
                    "output": format_polynomial(s.output),
                    "certificate": s.certificate,
                    "data": _data_jsonable(s.data),
                }
                for s in self.steps
            ],
            "substitution": {
                var: format_polynomial(img) for var, img in self.final_substitution
            },
            "scalar": format_rational(*self.final_scalar.as_integer_ratio()),
        }
        if self.z3_sign_flipped is not None:
            out["z3_sign_flipped"] = self.z3_sign_flipped
        out["notes"] = list(self.notes)
        return out


def _data_jsonable(data):
    if data is None:
        return None
    if isinstance(data, Fraction):
        return format_rational(*data.as_integer_ratio())
    if isinstance(data, tuple) and len(data) == 3 and isinstance(data[1], int):
        var, degree, names = data
        return {"variable": var, "degree": degree, "names": list(names)}
    return {var: format_polynomial(img) for var, img in data}


# -- the two pipelines ------------------------------------------------------


def bourgain_affine_chain() -> EquivalenceReport:
    """Affine quartic-free derivation of the cubic: regroup, apply the
    admissible linear change (x2 + x3, x2 + 2*x3) -> (x2, x3), then
    homogenize to degree 3."""
    actx = VarContext(["x1", "x2", "x3", "x4"])
    x1, x2, x3, x4 = actx.variables()

    eq1 = x1 * x4 ** 2 + x2 * (x4 - 1) + x3 * (x4 - 2)
    eq2 = x1 * x4 ** 2 + (x2 + x3) * x4 - (x2 + 2 * x3)
    step1 = EquivalenceStep(
        "regroup by powers of x4", eq1, eq2, "regrouping-identity"
    )

    # the change sends old (x2 + x3) to new x2 and old (x2 + 2*x3) to new
    # x3; substituting the inverse images below realizes it forward
    forward = (
        ("x1", x1),
        ("x2", 2 * x2 - x3),
        ("x3", x3 - x2),
        ("x4", x4),
    )
    eq3 = eq2.substitute(dict(forward), target_context=actx)
    if eq3 != catalog.get("bourgain-affine").polynomial:
        raise VerificationError("linear change did not produce the affine cubic")
    step2 = EquivalenceStep(
        "admissible linear change of coordinates",
        eq2,
        eq3,
        "linear-substitution",
        forward,
    )

    eq4 = eq3.homogenize("z0", 3).rename(PROJECTIVE_NAMES)
    step3 = EquivalenceStep(
        "homogenize to degree 3",
        eq3,
        eq4,
        "homogenization",
        ("z0", 3, PROJECTIVE_NAMES),
    )

    report = EquivalenceReport(
        steps=(step1, step2, step3),
        final_substitution=forward,
        final_scalar=Fraction(1),
        z3_sign_flipped=None,
        notes=(
            "the substitution lists each old coordinate's image in the "
            "new coordinates",
        ),
    )
    if not report.replay():
        raise VerificationError("affine chain failed its own replay")
    return report


def standard_cubic() -> Polynomial:
    """The catalog's 'bourgain' cubic, in the projective coordinates."""
    return catalog.get("bourgain").polynomial


def sacksteder_to_bourgain() -> EquivalenceReport:
    """The full certified chain from x1*c + x2*s - x4 to the cubic.

    Half-angle rationalization, leading-sign normalization, then a linear
    identification. The z3 image is tried with both signs and the one
    passing the scalar certificate is kept; which sign won is recorded
    because the two candidates differ in the sign of the z0^2*z3 term.
    """
    ts = TrigSurface.standard()
    w = weierstrass_substitute(ts)
    step1 = EquivalenceStep(
        "half-angle rationalization", ts.f, w, "half-angle"
    )

    lead = w.leading_coefficient()
    factor = Fraction(-1) if lead < 0 else Fraction(1)
    e = w * factor
    step2 = EquivalenceStep(
        "normalize the leading sign", w, e, "scalar-normalization", factor
    )
    if e != catalog.get("sacksteder-rational").polynomial:
        raise VerificationError(
            "rationalized form is not the expected quadratic-in-(u,v) cubic"
        )

    target = standard_cubic()
    zctx = target.context
    z0, z1, z2, z3, z4 = zctx.variables()
    chosen = None
    for sign in (1, -1):
        images = (
            ("u", z0),
            ("v", z4),
            ("x1", (z3 * sign - z1) / 2),
            ("x2", -z2 / 2),
            ("x4", (z1 + z3 * sign) / 2),
        )
        candidate = e.substitute(dict(images), target_context=zctx)
        ok, scalar = equal_up_to_scalar(candidate, target)
        if ok:
            chosen = (sign, images, candidate, scalar)
            break
    if chosen is None:
        raise VerificationError(
            "neither sign of the z3 image identifies the quadric chain "
            "with the cubic"
        )
    sign, images, candidate, scalar = chosen
    step3 = EquivalenceStep(
        "linear identification", e, candidate, "linear-substitution", images
    )
    step4 = EquivalenceStep(
        "scalar certificate", candidate, target, "scalar-certificate", scalar
    )

    flipped = sign == -1
    notes = [
        "substitution lists the image of each rational-model variable in "
        "the projective coordinates",
    ]
    if flipped:
        notes.append(
            "z3 sign flipped: the candidate with z3 = x1 + x4 makes the "
            "z0^2*z3 term come out positive and fails the scalar "
            "certificate; the certified identification uses "
            "z3 = -(x1 + x4)"
        )
    report = EquivalenceReport(
        steps=(step1, step2, step3, step4),
        final_substitution=images,
        final_scalar=scalar,
        z3_sign_flipped=flipped,
        notes=tuple(notes),
    )
    if not report.replay():
        raise VerificationError("equivalence chain failed its own replay")
    return report


# -- chart bookkeeping -------------------------------------------------------


class PeriodicityNote(Record):
    __slots__ = ("chart_bound", "excluded_locus", "covering", "detail")
    chart_bound: str
    excluded_locus: str
    covering: str
    detail: str


def periodicity_note() -> PeriodicityNote:
    """Chart bookkeeping for the half-angle substitution: where it is a
    bijection, what is removed, and that the covering statement is prose."""
    return PeriodicityNote(
        chart_bound="|x3| < pi",
        excluded_locus="v = 0",
        covering="recorded, not machine-checked",
        detail=(
            "the half-angle map identifies the angular chart |x3| < pi "
            "with the rational parameter line once the locus v = 0 is "
            "removed; the angular model traverses the rational model "
            "once per period, a covering statement that is "
            "recorded, not machine-checked"
        ),
    )
