"""Hypersurfaces: gradients, containment, tangent hyperplanes, and the
facts kept on each surface."""

import copy
import gc
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import make_random_homogeneous
from torsal import catalog, ruled
from torsal.errors import (
    NonHomogeneousError,
    PointNotOnSurfaceError,
    SingularPointError,
    VerificationError,
)
from torsal.hypersurface import (
    Hypersurface,
    ParamMap,
    contains_parametrized,
    contains_point,
    gradient,
    singular_locus_certificate,
    singular_locus_generators,
    tangent_hyperplane,
)
from torsal.polyring import Polynomial, VarContext
from torsal.projgeom import ProjPoint


@pytest.fixture
def cubic(zctx):
    z0, z1, z2, z3, z4 = zctx.variables()
    return Hypersurface(z1 * z4 ** 2 + z0 * z2 * z4 - z0 ** 2 * z3)


class TestConstruction:
    def test_rejects_non_homogeneous(self, zctx):
        z0 = zctx.variable("z0")
        with pytest.raises(NonHomogeneousError) as exc_info:
            Hypersurface(z0 ** 2 + z0)
        assert exc_info.value.offending_terms

    @pytest.mark.parametrize(
        "build,offending",
        [
            (lambda z0, z1, z2, z3, z4: z0 + z0 ** 2, ["z0"]),
            (
                lambda z0, z1, z2, z3, z4: 7 + 5 * z4 - z0 * z2 + 3 * z1 ** 3,
                ["z0*z2", "z4", "1"],
            ),
            (
                lambda z0, z1, z2, z3, z4: z2 * z3 * z4 - Fraction(1, 2) * z1 ** 2 + z0 ** 2,
                ["z0^2", "z1^2"],
            ),
        ],
        ids=["z0^2 + z0", "3*z1^3 - z0*z2 + 5*z4 + 7", "z0^2 - 1/2*z1^2 + z2*z3*z4"],
    )
    def test_non_homogeneous_error_names_each_offending_monomial(
        self, zctx, build, offending
    ):
        # every term below the leading degree, as a monic monomial, in
        # descending graded-lex order: each polynomial is written lowest
        # term first, so the order is the error's, not the input's
        with pytest.raises(NonHomogeneousError) as exc_info:
            Hypersurface(build(*zctx.variables()))
        assert exc_info.value.offending_terms == offending
        assert str(exc_info.value) == (
            "polynomial is not homogeneous; terms of differing degree: "
            + ", ".join(offending)
        )

    def test_rejects_zero_and_wrong_arity(self):
        with pytest.raises(ValueError):
            Hypersurface(Polynomial.zero(VarContext(["z0", "z1", "z2", "z3", "z4"])))
        ctx3 = VarContext(["x", "y", "z"])
        with pytest.raises(ValueError):
            Hypersurface(ctx3.variable("x") ** 2)

    @pytest.mark.parametrize("value", [3, Fraction(-1, 2)])
    def test_rejects_a_nonzero_constant(self, zctx, value):
        # a degree-0 "surface" is empty, so no plane is singular on it
        with pytest.raises(ValueError, match="nonzero constant"):
            Hypersurface(Polynomial.constant(zctx, value))

    def test_basic_accessors(self, cubic):
        assert cubic.degree == 3
        assert cubic.context.names == ("z0", "z1", "z2", "z3", "z4")

    def test_catalog_builds_each_surface_once(self, uncached_certificates):
        for name in catalog.names():
            h = catalog.hypersurface(name)
            assert catalog.hypersurface(name) is h
            assert h == catalog.get(name).hypersurface()
        assert catalog.hypersurface.cache_info().currsize == len(catalog.names())


class TestGradient:
    def test_cubic_gradient_is_the_frozen_quintuple(self, cubic, zctx):
        z0, z1, z2, z3, z4 = zctx.variables()
        expected = [
            -2 * z0 * z3 + z2 * z4,
            z4 ** 2,
            z0 * z4,
            -(z0 ** 2),
            z0 * z2 + 2 * z1 * z4,
        ]
        assert list(gradient(cubic)) == expected
        assert list(singular_locus_generators(cubic)) == expected

    def test_euler_identity(self, cubic, zctx):
        euler = sum(
            (v * g for v, g in zip(zctx.variables(), gradient(cubic))),
            Polynomial.zero(zctx),
        )
        assert euler == 3 * cubic.f

    def test_euler_identity_for_random_homogeneous(self, zctx, rand_homog):
        rng = random.Random(83)
        for _ in range(10):
            d = rng.randint(1, 4)
            h = Hypersurface(rand_homog(rng, zctx, d))
            euler = sum(
                (v * g for v, g in zip(zctx.variables(), gradient(h))),
                Polynomial.zero(zctx),
            )
            assert euler == d * h.f


class TestSingularPlane:
    def test_generators_vanish_on_symbolic_plane(self, cubic):
        plane_ctx = VarContext(["a", "b", "c"])
        a, b, c = plane_ctx.variables()
        zero = Polynomial.zero(plane_ctx)
        images = dict(zip(cubic.context.names, [zero, a, b, c, zero]))
        for g in singular_locus_generators(cubic):
            assert g.substitute(images, target_context=plane_ctx).is_zero()

    def test_gradient_nonzero_at_smooth_point(self, cubic):
        values = [g.evaluate((1, 1, 0, 1, 1)) for g in gradient(cubic)]
        assert values == [-2, 1, 1, -1, 2]

    def test_certificate_of_each_surface(self, cubic, uncached_certificates):
        generators, on_plane, witness = singular_locus_certificate(cubic)
        assert generators == singular_locus_generators(cubic) and on_plane
        assert witness == ((1, 1, 0, 1, 1), (-2, 1, 1, -1, 2))
        # kept on the surface: the same surface gives the same certificate,
        # and an equal surface built afresh derives an equal one
        certificate = singular_locus_certificate(cubic)
        assert singular_locus_certificate(cubic) is certificate
        bourgain = catalog.hypersurface("bourgain")
        assert bourgain == cubic and bourgain is not cubic
        assert singular_locus_certificate(bourgain) == certificate
        assert singular_locus_certificate(bourgain) is not certificate
        # the smooth quadric: its gradient (z4, -2z1, -2z2, -2z3, z0) is not
        # zero on the plane; the first candidate misses it, the second
        # is a smooth point of it
        quadric = catalog.hypersurface("quadric-control")
        _, on_plane, (coords, values) = singular_locus_certificate(quadric)
        assert not on_plane
        assert (coords, values) == ((1, 1, 0, 0, 1), (1, -2, 0, 0, 1))

    def test_controls_have_different_singular_behavior(self):
        quadric = catalog.hypersurface("quadric-control")
        # smooth: gradient vanishes only at the origin, which is not a point
        values = [g.evaluate((1, 0, 0, 0, 0)) for g in gradient(quadric)]
        assert any(values)


class TestContainment:
    def test_point_membership(self, cubic):
        assert contains_point(cubic, ProjPoint([0, 1, 5, -2, 0]))
        assert contains_point(cubic, ProjPoint([1, 0, 0, 0, 0]))
        assert not contains_point(cubic, ProjPoint([1, 1, 1, 1, 1]))

    def test_membership_is_scale_invariant(self, cubic):
        pt = ProjPoint([1, Fraction(1, 3), 2, Fraction(7, 9), 1])
        assert contains_point(cubic, pt) == contains_point(
            cubic, ProjPoint([-6 * c for c in pt.coords])
        )

    def test_ruling_parametrization_is_contained(self, cubic):
        ctx = VarContext(["p", "u", "v"])
        p, u, v = ctx.variables()
        pm = ParamMap([Polynomial.one(ctx), u, v - p * u, p * v, p])
        assert contains_parametrized(cubic, pm)

    def test_plane_family_parametrization_is_contained(self, cubic):
        ctx = VarContext(["alpha", "beta", "gamma", "p"])
        alpha, beta, gamma, p = ctx.variables()
        pm = ParamMap(
            [alpha, beta, gamma - 2 * p * beta, p * (gamma - p * beta), p * alpha]
        )
        assert contains_parametrized(cubic, pm)

    def test_noncontained_map_is_detected(self, cubic):
        ctx = VarContext(["p", "u", "v"])
        p, u, v = ctx.variables()
        pm = ParamMap([Polynomial.one(ctx), u, v, p * v, p])
        assert not contains_parametrized(cubic, pm)


class TestParamMap:
    def test_validation(self):
        ctx = VarContext(["t"])
        t = ctx.variable("t")
        with pytest.raises(ValueError):
            ParamMap([t, t])
        with pytest.raises(ValueError):
            ParamMap([Polynomial.zero(ctx)] * 5)

    def test_evaluate(self):
        ctx = VarContext(["t"])
        t = ctx.variable("t")
        pm = ParamMap([Polynomial.one(ctx), t, t ** 2, t ** 3, t ** 4])
        values = tuple(c.evaluate([Fraction(2)]) for c in pm.components)
        assert values == (1, 2, 4, 8, 16)


class TestTangentHyperplane:
    def test_dual_is_constant_along_a_generator(self, cubic):
        # the line lam -> (lam, 1, lam, 0, 0) lies on the surface and its
        # dual (0, 0, 0, -lam^2, lam^2) is projectively constant off lam=0
        for lam in (Fraction(1), Fraction(-3, 2), Fraction(7, 5)):
            pt = ProjPoint([lam, 1, lam, 0, 0])
            dual = tangent_hyperplane(cubic, pt)
            assert dual == ProjPoint([0, 0, 0, -1, 1])

    def test_point_off_surface_is_rejected(self, cubic):
        with pytest.raises(PointNotOnSurfaceError):
            tangent_hyperplane(cubic, ProjPoint([1, 1, 1, 1, 1]))

    def test_singular_point_error_carries_the_point(self, cubic):
        with pytest.raises(SingularPointError) as exc_info:
            tangent_hyperplane(cubic, ProjPoint([0, 1, 2, 3, 0]))
        assert exc_info.value.point == (0, 1, 2, 3, 0)

    def test_quadric_dual(self):
        quadric = catalog.hypersurface("quadric-control")
        dual = tangent_hyperplane(quadric, ProjPoint([1, 0, 0, 0, 0]))
        assert dual == ProjPoint([0, 0, 0, 0, 1])


def _derive_facts(h):
    """Derive every fact torsal keeps on a surface; a surface other than
    the standard cubic is refused a pencil certificate."""
    grad = gradient(h)
    certificate = singular_locus_certificate(h)
    focal = ruled.focal_points_on_generator(h, 1, 0)
    try:
        report = ruled.pencil_structure_report(h)
    except VerificationError:
        report = None
    return grad, certificate, focal, report


def _cubed_surfaces(seed, count):
    """bourgain + c*z0^3 for seeded rationals c: each holds the generators
    with q = 0, and each is refused a pencil certificate."""
    rng = random.Random(seed)
    bourgain = catalog.hypersurface("bourgain")
    z0 = bourgain.context.variable("z0")
    for _ in range(count):
        c = Fraction(rng.randint(1, 999), rng.randint(1, 99))
        yield Hypersurface(bourgain.f + c * z0 ** 3)


class TestFactsLiveOnTheSurface:
    def test_pickle_and_deepcopy_rederive_equal_facts(self, cubic):
        facts = _derive_facts(cubic)
        residual = ruled._generator_pullback(cubic)
        assert facts[3] is not None and not residual
        assert gradient(cubic) is facts[0] and facts[1][0] is facts[0]
        for clone in (pickle.loads(pickle.dumps(cubic)), copy.deepcopy(cubic)):
            assert clone == cubic and clone is not cubic
            assert clone.degree == cubic.degree
            # the clone starts with no facts and derives equal ones
            grad, certificate, focal, report = _derive_facts(clone)
            assert (grad, certificate, focal, report) == facts
            assert grad is not facts[0] and certificate is not facts[1]
            assert report is not facts[3]
            assert ruled._generator_pullback(clone) == residual

    def test_dropped_surfaces_free_their_facts(self):
        # a first pass fills what every surface shares (focal_system, the
        # catalog's bourgain, bounded layout caches) before the baseline
        for h in _cubed_surfaces(1, 5):
            _derive_facts(h)
        gc.collect()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            for h in _cubed_surfaces(2, 300):
                _derive_facts(h)
            del h
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        # a process-wide memo keyed on the surface keeps about 3 kB each
        assert retained < 64 * 1024, retained
