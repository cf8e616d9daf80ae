"""Homogeneous hypersurfaces in P^4 and parametrized families on them.

A Hypersurface wraps a nonzero homogeneous polynomial in five variables;
a ParamMap is a 5-tuple of polynomials in a shared parameter context.
Containment of a parametrized family is decided by exact substitution —
the result must be the zero polynomial, an identity in all parameters.
"""

from __future__ import annotations

from functools import wraps

from torsal.errors import (
    ContextMismatchError,
    NonHomogeneousError,
    PointNotOnSurfaceError,
    SingularPointError,
)
from torsal.polyring import Polynomial, VarContext, format_polynomial
from torsal.projgeom import ProjPoint


class Hypersurface:
    """A projective hypersurface {f = 0} with f homogeneous and nonzero."""

    __slots__ = ("f", "degree", "_facts")

    def __init__(self, f: Polynomial):
        if not isinstance(f, Polynomial):
            raise TypeError("Hypersurface needs a Polynomial")
        if len(f.context) != 5:
            raise ValueError(
                f"hypersurface polynomial must have 5 variables, "
                f"got {len(f.context)}"
            )
        if f.is_zero():
            raise ValueError("the zero polynomial defines no hypersurface")
        if not f.is_homogeneous():
            lead_deg, shift = f.total_degree(), f.context._degree_shift
            offending = [
                format_polynomial(Polynomial._make(f.context, {key: (1, 1)}))
                for key in f._keys_descending()
                if key >> shift != lead_deg
            ]
            raise NonHomogeneousError(offending)
        self.f = f
        self.degree = f.total_degree()
        self._facts = {}

    @property
    def context(self) -> VarContext:
        return self.f.context

    def __eq__(self, other):
        if not isinstance(other, Hypersurface):
            return NotImplemented
        return self.f == other.f

    def __hash__(self):
        return hash(self.f)

    def __repr__(self):
        return f"Hypersurface({self.f})"

    def __reduce__(self):
        # a copy re-derives its facts, keyed by functions pickle cannot name
        return Hypersurface, (self.f,)


def per_surface(derive):
    """``derive(h)``, derived on the first call for h and kept on h. A
    derivation that raises keeps nothing, so it raises on every call."""
    @wraps(derive)
    def fact(h: Hypersurface):
        if derive not in h._facts:
            h._facts[derive] = derive(h)
        return h._facts[derive]
    return fact


class ParamMap:
    """Five polynomial components over one shared parameter context."""

    __slots__ = ("components", "params")

    def __init__(self, components):
        components = tuple(components)
        if len(components) != 5:
            raise ValueError(f"a ParamMap needs 5 components, got {len(components)}")
        ctx = None
        for comp in components:
            if not isinstance(comp, Polynomial):
                raise TypeError("ParamMap components must be Polynomials")
            if ctx is None:
                ctx = comp.context
            elif comp.context != ctx:
                raise ValueError("ParamMap components must share one context")
        if all(c.is_zero() for c in components):
            raise ValueError("all-zero components do not define a map to P^4")
        self.components = components
        self.params = ctx.names

    @property
    def context(self) -> VarContext:
        return self.components[0].context

    def __eq__(self, other):
        if not isinstance(other, ParamMap):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        return "ParamMap(" + ", ".join(str(c) for c in self.components) + ")"


def gradient(h: Hypersurface) -> tuple:
    """The ordered tuple of partial derivatives of the defining polynomial."""
    return tuple(h.f.partial_derivative(name) for name in h.context.names)


def singular_locus_generators(h: Hypersurface) -> tuple:
    """Generators of the singular ideal: the gradient components.

    A point is singular iff all five vanish there; callers certify loci
    by identical vanishing under symbolic substitution.
    """
    return gradient(h)


_WITNESS_CANDIDATES = ((1, 1, 0, 1, 1), (1, 1, 0, 0, 1), (1, 0, 0, 0, 0),
                       (1, 0, 0, 0, 1), (1, 1, 1, 1, 1))


@per_surface
def singular_locus_certificate(h: Hypersurface) -> tuple:
    """(generators, on_plane, witness): h's singular_locus_generators,
    whether they all vanish identically on the plane (0, a, b, c, 0), and
    the first candidate point on h with a nonzero gradient as (coords,
    gradient values), or None. Derived once for each surface and kept
    on it."""
    generators = singular_locus_generators(h)
    a, b, c = VarContext(["a", "b", "c"]).variables()
    plane = ParamMap([0 * a, a, b, c, 0 * a])
    on_plane = all(pullback(g, plane).is_zero() for g in generators)
    for coords in _WITNESS_CANDIDATES:
        if h.f.evaluate(coords) == 0:
            values = tuple(g.evaluate(coords) for g in generators)
            if any(values):
                return generators, on_plane, (coords, values)
    return generators, on_plane, None


def contains_point(h: Hypersurface, pt: ProjPoint) -> bool:
    """Whether f(pt) = 0 (well-defined by homogeneity)."""
    return h.f.evaluate(pt.coords) == 0


def contains_parametrized(h: Hypersurface, pm: ParamMap) -> bool:
    """Whether f composed with pm is the zero polynomial — an identity
    in all parameters, not a sampled check."""
    return pullback(h.f, pm).is_zero()


def pullback(f: Polynomial, pm: ParamMap) -> Polynomial:
    """f composed with pm: f's five variables replaced by pm's components."""
    if len(f.context) != 5:
        raise ContextMismatchError(
            f"a pullback needs a 5-variable context, got {len(f.context)}"
        )
    assignment = dict(zip(f.context.names, pm.components))
    return f.substitute(assignment, target_context=pm.context)


def tangent_hyperplane(h: Hypersurface, pt: ProjPoint) -> ProjPoint:
    """The tangent hyperplane at pt, as dual projective coordinates.

    The gradient vector at pt. Raises PointNotOnSurfaceError off the
    surface and SingularPointError where the gradient vanishes — the two
    cases stay distinct because focal analysis keys on the latter.
    """
    if not contains_point(h, pt):
        raise PointNotOnSurfaceError(
            f"point {pt!r} is not on the hypersurface "
            f"({format_polynomial(h.f)} = 0)"
        )
    values = tuple(g.evaluate(pt.coords) for g in gradient(h))
    if not any(values):
        raise SingularPointError(pt.coords)
    return ProjPoint(values)
