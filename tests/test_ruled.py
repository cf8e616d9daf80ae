"""Ruling structure: rank, envelopes, focal points, pencil certificates."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from test_projgeom import brute_rank
from torsal import catalog, projgeom, ruled
from torsal.errors import (
    BaseLocusError,
    DegreeError,
    NotContainedError,
    SingularPointError,
    VerificationError,
)
from torsal.hypersurface import ParamMap, tangent_hyperplane
from torsal.polyring import (
    Polynomial,
    VarContext,
    content,
    equal_up_to_scalar,
    sylvester_resultant,
)
from torsal.projgeom import ProjPoint, frame_rows
from torsal.ruled import (
    CHART_NOTE,
    DEFAULT_SEED,
    PENCIL_VERDICT,
    SAMPLE_COUNT,
    FocalSystem,
    LineFamily,
    conic_tangency_map,
    envelope,
    focal_points_on_generator,
    focal_system,
    gauss_map,
    generator_map,
    generic_rank,
    implicitize_plane_family,
    infinity_line_family,
    jacobian,
    pencil_structure_report,
    rational_roots,
)


@pytest.fixture(scope="module")
def bourgain():
    return catalog.hypersurface("bourgain")


def ruling_map():
    ctx = VarContext(["p", "u", "v"])
    p, u, v = ctx.variables()
    return ParamMap([Polynomial.one(ctx), u, v - p * u, p * v, p])


def cylinder_map():
    ctx = VarContext(["t", "u", "v"])
    t, u, v = ctx.variables()
    return ParamMap([Polynomial.one(ctx), t, u, v, t ** 2])


def quadric_map():
    ctx = VarContext(["t", "u", "v"])
    t, u, v = ctx.variables()
    return ParamMap(
        [Polynomial.one(ctx), t, u, v, t ** 2 + u ** 2 + v ** 2]
    )


class TestGaussRank:
    def test_rank_triple_through_one_code_path(self, bourgain):
        cases = [
            (bourgain, ruling_map(), 2),
            (catalog.hypersurface("cylinder-control"), cylinder_map(), 1),
            (catalog.hypersurface("quadric-control"), quadric_map(), 3),
        ]
        for h, pm, expected in cases:
            gi = gauss_map(h, pm)
            assert generic_rank(gi) == expected

    def test_rank_is_seed_deterministic(self, bourgain):
        gi = gauss_map(bourgain, ruling_map())
        first = generic_rank(gi, seed=DEFAULT_SEED)
        second = generic_rank(gi, seed=DEFAULT_SEED)
        assert first == second == 2
        assert generic_rank(gi, seed=42) == 2

    def test_sample_count_constant(self):
        assert SAMPLE_COUNT == 7

    def test_noncontained_map_is_rejected(self, bourgain):
        with pytest.raises(NotContainedError):
            gauss_map(bourgain, cylinder_map())

    def test_gauss_image_components(self, bourgain):
        gi = gauss_map(bourgain, ruling_map())
        ctx = gi.components[0].context
        p, u, v = ctx.variables()
        expected = [
            -(p ** 2) * u - p * v,
            p ** 2,
            p,
            -Polynomial.one(ctx),
            p * u + v,
        ]
        assert list(gi.components) == expected

    def test_jacobian_shape(self):
        pm = cylinder_map()
        rows = jacobian(pm)
        assert len(rows) == 5 and all(len(r) == 3 for r in rows)
        # d(t^2)/dt = 2t in the last component
        t = pm.context.variable("t")
        assert rows[4][0] == 2 * t


def fraction_generic_rank(gi, seed=DEFAULT_SEED):
    """generic_rank with every entry evaluated alone to a Fraction: the
    reference for the one integer matrix per sample. It draws its points
    from ruled._sample_point, so a patched sampler reaches both."""
    jac = jacobian(gi)
    rng = random.Random(seed)
    best = None
    for _ in range(SAMPLE_COUNT):
        point = ruled._sample_point(rng, len(gi.params))
        image = [c.evaluate(point) for c in gi.components]
        if not any(image):
            continue
        rows = [
            [entry.evaluate(point) for entry in jrow] + [img]
            for jrow, img in zip(jac, image)
        ]
        r = brute_rank(rows) - 1
        best = r if best is None else max(best, r)
    if best is None:
        raise BaseLocusError(seed)
    return best


def random_rational_map(rng, ctx):
    """Five random polynomials with coefficients of denominators up to 9.

    One map in five is one point of P^4 times a moving scale (rank 0),
    one in four involves the first parameter only (rank at most 1), and
    one in four has the factor u in every component (a base locus)."""
    def poly(nvars):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(
                rng.randint(0, 2) if i < nvars else 0 for i in range(len(ctx))
            )
            terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 9))
        return Polynomial(ctx, terms)

    roll = rng.random()
    if roll < 0.2:
        g = poly(len(ctx))
        comps = [g * Fraction(rng.randint(-5, 5), rng.randint(1, 9)) for _ in range(5)]
    else:
        comps = [poly(1 if roll < 0.45 else len(ctx)) for _ in range(5)]
    if rng.random() < 0.25:
        u = ctx.variable("u")
        comps = [c * u for c in comps]
    if not any(comps):
        comps[0] = Polynomial.one(ctx)
    return ParamMap(comps)


def rank_outcome(rank_fn, gi, seed):
    """The rank, or the BaseLocusError message."""
    try:
        return rank_fn(gi, seed)
    except BaseLocusError as exc:
        return str(exc)


class TestGaussRankAgainstFractions:
    """generic_rank evaluates [J | image] once per sample to ints over one
    denominator; the Fraction-per-entry reference must agree everywhere."""

    def test_cli_session_maps_on_300_seeds(self, bourgain):
        # the three maps of the benchmark's gauss-rank calls
        cases = [
            (bourgain, ruling_map()),
            (catalog.hypersurface("cylinder-control"), cylinder_map()),
            (catalog.hypersurface("quadric-control"), quadric_map()),
        ]
        for h, pm in cases:
            gi = gauss_map(h, pm)
            for seed in range(300):
                assert generic_rank(gi, seed) == fraction_generic_rank(gi, seed), seed

    def test_seeded_rational_maps(self):
        rng = random.Random(2121)
        ranks = set()
        for seed in range(300):
            ctx = VarContext(["p", "u", "v"][: rng.randint(2, 3)])
            pm = random_rational_map(rng, ctx)
            want = rank_outcome(fraction_generic_rank, pm, seed)
            assert rank_outcome(generic_rank, pm, seed) == want, seed
            ranks.add(want)
        assert ranks >= {0, 1, 2, 3}

    def test_every_sample_on_the_base_locus(self, monkeypatch):
        # u = 0 at every sample, and every component has the factor u
        sample = ruled._sample_point
        monkeypatch.setattr(
            ruled, "_sample_point", lambda rng, n: [sample(rng, n)[0], 0, 1][:n]
        )
        rng = random.Random(2222)
        u = VarContext(["p", "u", "v"]).variable("u")
        for seed in range(20):
            pm = random_rational_map(rng, u.context)
            pm = ParamMap([c * u for c in pm.components])
            with pytest.raises(BaseLocusError) as want:
                fraction_generic_rank(pm, seed)
            with pytest.raises(BaseLocusError) as got:
                generic_rank(pm, seed)
            assert str(got.value) == str(want.value) and got.value.seed == seed

    def test_some_samples_on_the_base_locus(self, monkeypatch):
        # u = 0 at about half the samples: those are skipped, the rest
        # decide; the coin comes from the seeded rng, so both see one set
        sample = ruled._sample_point

        def sometimes_on_the_locus(rng, n):
            point = sample(rng, n)
            if rng.random() < 0.5:
                point[1] = 0
            return point

        monkeypatch.setattr(ruled, "_sample_point", sometimes_on_the_locus)
        u = ruling_map().context.variable("u")
        gi = ParamMap([c * u for c in gauss_map(
            catalog.hypersurface("bourgain"), ruling_map()).components])
        for seed in range(30):
            want = rank_outcome(fraction_generic_rank, gi, seed)
            assert rank_outcome(generic_rank, gi, seed) == want, seed

    def test_sampling_stops_at_the_largest_possible_rank(self, bourgain, monkeypatch):
        # quadric-control reaches min(5, 4) - 1 = 3 on its first sample; the
        # ruling map's rank 2 is below that, so it takes all seven
        calls = []
        original = ruled.evaluate_many

        def counting(polys, point):
            calls.append(None)
            return original(polys, point)

        monkeypatch.setattr(ruled, "evaluate_many", counting)
        cases = [
            (catalog.hypersurface("quadric-control"), quadric_map(), 3, 1),
            (bourgain, ruling_map(), 2, SAMPLE_COUNT),
        ]
        for h, pm, expected, samples in cases:
            gi = gauss_map(h, pm)
            calls.clear()
            assert generic_rank(gi) == expected
            assert len(calls) == samples

    def test_no_entry_is_evaluated_alone(self, bourgain, monkeypatch):
        calls = []
        evaluate = Polynomial.evaluate

        def counting_evaluate(self, point):
            calls.append(None)
            return evaluate(self, point)

        gi = gauss_map(bourgain, ruling_map())
        monkeypatch.setattr(Polynomial, "evaluate", counting_evaluate)
        assert generic_rank(gi) == 2
        assert calls == []


class TestEnvelope:
    def test_line_family_needs_joint_degree_one(self):
        ctx = VarContext(["p", "z1", "z2", "z3"])
        p, z1, z2, z3 = ctx.variables()
        family = LineFamily(p ** 2 * z1 + p * z2 - z3, "p")
        assert family.plane_vars == ("z1", "z2", "z3")
        with pytest.raises(DegreeError):
            LineFamily(p * z1 ** 2 - z3, "p")
        with pytest.raises(DegreeError):
            LineFamily(z1 * z2 + z3, "p")

    def test_zero_family_is_refused_by_name(self):
        for names in (["p", "z1", "z2", "z3"], ["z1", "z2", "p", "z3"]):
            ctx = VarContext(names)
            z1 = ctx.variable("z1")
            for zero in (Polynomial.zero(ctx), z1 - z1):
                with pytest.raises(DegreeError) as raised:
                    LineFamily(zero, "p")
                plane = tuple(n for n in names if n != "p")
                assert str(raised.value) == (
                    "the family is the zero polynomial; a line family needs "
                    f"joint degree exactly 1 in the plane coordinates {plane}"
                )

    def test_line_family_error_names_the_first_offending_term(self):
        # z3^3 is stored first, but p*z1*z2 comes first in sorted order,
        # and it is the term the message has always named
        for names in (["p", "z1", "z2", "z3"], ["z1", "p", "z2", "z3"]):
            ctx = VarContext(names)
            v = dict(zip(names, ctx.variables()))
            f = v["z3"] ** 3 + v["p"] * v["z1"] * v["z2"] - v["z2"]
            assert next(iter(f._terms)) == ctx._pack((0, 0, 0, 3))
            with pytest.raises(DegreeError) as raised:
                LineFamily(f, "p")
            assert str(raised.value) == (
                "term (1, 1, 1, 0) has joint degree 2 in the plane "
                "coordinates ('z1', 'z2', 'z3'); a line family needs exactly 1"
            )

    def test_quadratic_family_envelope_is_the_conic(self):
        ctx = VarContext(["p", "z1", "z2", "z3"])
        p, z1, z2, z3 = ctx.variables()
        family = LineFamily(p ** 2 * z1 + p * z2 - z3, "p")
        assert envelope(family) == z2 ** 2 + 4 * z1 * z3

    def test_envelope_eliminates_the_parameter(self):
        ctx = VarContext(["p", "z1", "z2", "z3"])
        p, z1, z2, z3 = ctx.variables()
        family = LineFamily(p ** 3 * z1 + p * z2 - z3, "p")
        env = envelope(family)
        assert env.degree_in("p") == 0
        # Res_p(a p^3 + c p + d, 3 a p^2 + c) = a^2 (4 c^3 + 27 a d^2)
        expected = z1 ** 2 * (4 * z2 ** 3 + 27 * z1 * z3 ** 2)
        same, _ = equal_up_to_scalar(env, expected)
        assert same

    def test_degree_one_family_has_no_envelope(self):
        ctx = VarContext(["p", "z1", "z2", "z3"])
        p, z1, z2, z3 = ctx.variables()
        family = LineFamily(p * z1 - z3, "p")
        with pytest.raises(DegreeError):
            envelope(family)

    def test_family_with_a_zero_member_has_no_envelope(self):
        # a square of a polynomial in p divides every plane coefficient: the
        # discriminant vanishes identically, on the degree-2 path and on
        # the resultant's, and the family is refused
        ctx = VarContext(["p", "z1", "z2", "z3"])
        p, z1, z2, z3 = ctx.variables()
        rng = random.Random(31)
        families = [p ** 2 * z1, p ** 2 * (z1 + z2), p ** 3 * z1,
                    (p ** 2 + 1) ** 2 * z1, p ** 3 * z1 + p ** 2 * z2,
                    (p + 1) ** 2 * (z1 - 2 * z3)]
        for _ in range(6):
            line = sum(sum(rng.randint(-9, 9) * p ** k for k in range(3)) * z
                       for z in (z1, z2, z3))
            families.append((p - rng.randint(-5, 5)) ** 2 * line)
        for f in families:
            with pytest.raises(DegreeError) as raised:
                envelope(LineFamily(f, "p"))
            assert str(raised.value) == (
                "the square of a polynomial in 'p' divides every plane "
                "coefficient of the family, so a member is the zero form; "
                "there is no envelope"
            )
        # a simple factor in p alone leaves an envelope
        for f in (p * (p * z1 + z2), (p ** 2 + 1) * (p * z1 + z3),
                  (p - 1) * (p + 2) * (z1 + p * z2 - z3)):
            assert envelope(LineFamily(f, "p"))

    def test_infinity_slice_of_the_cubic(self, bourgain):
        family = infinity_line_family(bourgain)
        f = family.f
        ctx = f.context
        p, z1, z2, z3 = (ctx.variable(n) for n in ("p", "z1", "z2", "z3"))
        assert f == p ** 2 * z1 + p * z2 - z3
        assert envelope(family) == z2 ** 2 + 4 * z1 * z3


class TestTangency:
    def test_tangency_point_is_on_line_and_conic_symbolically(self):
        pm = conic_tangency_map()
        ctx = pm.context
        p = ctx.variable("p")
        # line: p^2 z1 + p z2 - z3 at (z1, z2, z3) = components 1..3
        _, c1, c2, c3, _ = pm.components
        assert (p ** 2 * c1 + p * c2 - c3).is_zero()
        # conic: z2^2 + 4 z1 z3
        assert (c2 ** 2 + 4 * c1 * c3).is_zero()

    def test_numeric_tangency_points(self):
        rng = random.Random(84)
        for _ in range(10):
            p = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            pt = ProjPoint(frame_rows(p, 0)[1])
            assert pt == ProjPoint([0, 1, -2 * p, -(p ** 2), 0])

    def test_tangency_point_takes_int_or_fraction_only(self):
        assert frame_rows(2, 0)[1] == frame_rows(Fraction(2), 0)[1]
        assert ProjPoint(frame_rows(2, 0)[1]) == ProjPoint([0, 1, -4, -4, 0])
        for bad in (0.1, "2/3", Decimal("0.1")):
            with pytest.raises(TypeError, match=type(bad).__name__):
                ProjPoint(frame_rows(bad, 0)[1])

    def test_dual_constancy_along_generators(self, bourgain):
        """Two distinct affine points of one generator share their dual."""
        rng = random.Random(85)
        gmap = generator_map()
        for _ in range(10):
            p = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            lam1 = Fraction(rng.randint(1, 9))
            lam2 = -Fraction(rng.randint(1, 9), 2)
            pt1 = ProjPoint(c.evaluate([p, q, lam1]) for c in gmap.components)
            pt2 = ProjPoint(c.evaluate([p, q, lam2]) for c in gmap.components)
            assert pt1 != pt2
            dual1 = tangent_hyperplane(bourgain, pt1)
            dual2 = tangent_hyperplane(bourgain, pt2)
            assert dual1 == dual2

    def test_generator_center_is_singular_and_on_conic(self, bourgain):
        rng = random.Random(86)
        gmap = generator_map()
        for _ in range(10):
            p = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            center = ProjPoint(c.evaluate([p, q, Fraction(0)]) for c in gmap.components)
            assert center == ProjPoint([0, 1, -2 * p, -(p ** 2), 0])
            with pytest.raises(SingularPointError) as exc_info:
                tangent_hyperplane(bourgain, center)
            z0, z1, z2, z3, z4 = exc_info.value.point
            assert z0 == 0 and z4 == 0
            assert z2 ** 2 + 4 * z1 * z3 == 0


@pytest.fixture
def uncached_focal_system():
    """focal_system() derived afresh inside the test, so a patched
    frame_rows is read; the memo is cleared again afterwards, so neither a
    patched result nor a refusal outlives the test."""
    focal_system.cache_clear()
    yield
    focal_system.cache_clear()


class TestFocal:
    def test_derived_once_per_process(self, uncached_focal_system, monkeypatch):
        rows = []

        def counted_rows(p, q):
            rows.append(None)
            return projgeom.frame_rows(p, q)

        monkeypatch.setattr(ruled, "frame_rows", counted_rows)
        first = focal_system()
        assert focal_system() is first and len(rows) == 1
        assert focal_points_on_generator(
            catalog.hypersurface("bourgain"), 1, 2
        ).system is first
        assert len(rows) == 1

    def test_matrix_and_determinant(self):
        system = focal_system()
        ctx = system.determinant.context
        q = ctx.variable("q")
        lam = ctx.variable("lam")
        assert system.matrix[0] == (2 * q, lam)
        assert system.matrix[1] == (lam, Polynomial.zero(ctx))
        assert system.determinant == -(lam ** 2)

    def test_focal_report_for_seeded_pairs(self, bourgain):
        rng = random.Random(87)
        for _ in range(10):
            p = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            report = focal_points_on_generator(bourgain, p, q)
            assert report.residual is None
            assert report.chart_note == CHART_NOTE
            (root,) = report.roots
            assert root.lam == 0 and root.multiplicity == 2
            assert root.at_infinity
            assert root.point == ProjPoint([0, 1, -2 * p, -(p ** 2), 0])

    def test_report_carries_the_solved_system(self, bourgain):
        report = focal_points_on_generator(bourgain, Fraction(2, 3), 1)
        system = report.system
        assert isinstance(system, FocalSystem)
        assert system.matrix == focal_system().matrix
        ((a, b), (c, d)) = system.matrix
        assert system.determinant == a * d - b * c
        lam = system.determinant.context.variable("lam")
        assert system.determinant == -(lam ** 2)

    def test_frame_determinant_other_than_one_is_refused(
        self, uncached_focal_system, monkeypatch
    ):
        def doubled_first_row(p, q):
            rows = projgeom.frame_rows(p, q)
            return (tuple(2 * x for x in rows[0]),) + rows[1:]

        monkeypatch.setattr(ruled, "frame_rows", doubled_first_row)
        with pytest.raises(VerificationError, match="determinant"):
            focal_system()

    def test_entries_are_the_frame_coordinates_of_the_partials(self):
        """Each entry against an independent route: the Fraction inverse
        of the numeric frame applied to the partials of the generator."""
        system = focal_system()
        gmap = generator_map()
        partials = {
            v: [c.partial_derivative(v) for c in gmap.components] for v in ("p", "q")
        }
        rng = random.Random(88)
        for _ in range(60):
            p, q, lam = (
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)
            )
            inv = projgeom.frame_bourgain(p, q).invert().rows

            def frame_coords(var):
                vec = [c.evaluate([p, q, lam]) for c in partials[var]]
                return [sum(vec[j] * inv[j][k] for j in range(5)) for k in range(5)]

            by_p, by_q = frame_coords("p"), frame_coords("q")
            expected = ((by_p[0], by_q[0]), (by_p[3], by_q[3]))
            got = tuple(
                tuple(e.evaluate([q, lam]) for e in row) for row in system.matrix
            )
            assert got == expected
            # the transverse motion is along B3 + q*B4
            assert by_p[4] == q * by_p[3] and by_q[4] == q * by_q[3]

    def test_frame_of_determinant_minus_one_is_refused(
        self, uncached_focal_system, monkeypatch
    ):
        def swapped_last_rows(p, q):
            b0, b1, b2, b3, b4 = projgeom.frame_rows(p, q)
            return (b0, b1, b2, b4, b3)

        monkeypatch.setattr(ruled, "frame_rows", swapped_last_rows)
        with pytest.raises(VerificationError, match="determinant"):
            focal_system()

    def test_row_swaps_of_the_elimination_keep_the_coordinates_signed(
        self, uncached_focal_system, monkeypatch
    ):
        # (B0, B1, B2, B4, -B3) still has determinant 1, but its
        # elimination swaps rows; Z's partials then pass the determinant
        # and d(Z)/d(lam) = B2 checks and fail only the transverse one,
        # since B3 + q*B4 = q*B3' - B4' in the new frame
        def rotated_last_rows(p, q):
            b0, b1, b2, b3, b4 = projgeom.frame_rows(p, q)
            return (b0, b1, b2, b4, tuple(-x for x in b3))

        monkeypatch.setattr(ruled, "frame_rows", rotated_last_rows)
        with pytest.raises(VerificationError, match="transverse motion"):
            focal_system()

    def test_generator_coordinates_take_int_or_fraction_only(self, bourgain):
        by_int = focal_points_on_generator(bourgain, 1, Fraction(2, 3))
        by_fraction = focal_points_on_generator(bourgain, Fraction(1), Fraction(2, 3))
        assert (by_int.p, by_int.q, by_int.roots, by_int.residual) == (
            by_fraction.p, by_fraction.q, by_fraction.roots, by_fraction.residual
        )
        assert by_int.system.matrix == by_fraction.system.matrix
        assert type(by_int.p) is Fraction and by_int.p == 1
        for bad in (0.1, "2/3", Decimal("0.1")):
            with pytest.raises(TypeError, match=type(bad).__name__):
                focal_points_on_generator(bourgain, bad, 1)
            with pytest.raises(TypeError, match=type(bad).__name__):
                focal_points_on_generator(bourgain, 1, bad)

    def test_focal_rejects_surface_without_that_generator(self):
        quadric = catalog.hypersurface("quadric-control")
        with pytest.raises(NotContainedError):
            focal_points_on_generator(quadric, Fraction(1), Fraction(1))


class TestRationalRoots:
    def test_known_factorization(self):
        ctx = VarContext(["x"])
        x = ctx.variable("x")
        f = (2 * x - 3) ** 2 * (x + 1) * (x ** 2 - 2)
        roots, residual = rational_roots(f, "x")
        assert roots == [(Fraction(-1), 1), (Fraction(3, 2), 2)]
        same, _ = equal_up_to_scalar(residual, x ** 2 - 2)
        assert same

    def test_fully_split(self):
        ctx = VarContext(["lam"])
        lam = ctx.variable("lam")
        roots, residual = rational_roots(lam ** 2 * (lam - 1), "lam")
        assert roots == [(Fraction(0), 2), (Fraction(1), 1)]
        assert residual is None

    def test_no_rational_roots(self):
        ctx = VarContext(["x"])
        x = ctx.variable("x")
        roots, residual = rational_roots(x ** 2 + 1, "x")
        assert roots == []
        same, _ = equal_up_to_scalar(residual, x ** 2 + 1)
        assert same

    def test_seeded_products_of_known_roots(self):
        rng = random.Random(4242)
        ctx = VarContext(["x"])
        x = ctx.variable("x")
        for _ in range(25):
            want = {}
            for _ in range(rng.randint(0, 4)):
                root = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                want[root] = want.get(root, 0) + rng.randint(1, 3)
            # no rational roots: a sum of even powers with positive coefficients
            residual = rng.choice(
                [None, x ** 2 + rng.randint(1, 9), 3 * x ** 4 + 2 * x ** 2 + 5]
            )
            scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30),
                             rng.randint(1, 7))
            f = Polynomial.constant(ctx, scale)
            for root, mult in want.items():
                f = f * (x - root) ** mult
            if residual is not None:
                f = f * residual
            roots, rest = rational_roots(f, "x")
            assert roots == sorted(want.items())
            if residual is None:
                assert rest is None
                continue
            same, _ = equal_up_to_scalar(rest, residual)
            assert same
            assert content(rest) == 1
            assert (rest.leading_coefficient() > 0) == (f.leading_coefficient() > 0)

    def test_roots_of_a_polynomial_in_a_larger_context(self):
        _, lam = VarContext(["q", "lam"]).variables()
        roots, residual = rational_roots(-3 * lam ** 3 + 6 * lam ** 2, "lam")
        assert roots == [(Fraction(0), 2), (Fraction(2), 1)]
        assert residual is None


class TestPencilReport:
    def test_all_checks_pass_for_the_cubic(self, bourgain):
        report = pencil_structure_report(bourgain)
        assert len(report.checks) == 5
        assert all(passed for _, passed in report.checks)
        ctx = report.conic.context
        z1, z2, z3 = (ctx.variable(n) for n in ("z1", "z2", "z3"))
        assert report.conic == z2 ** 2 + 4 * z1 * z3
        assert report.verdict == PENCIL_VERDICT

    def test_other_surfaces_are_rejected(self):
        with pytest.raises(VerificationError):
            pencil_structure_report(catalog.hypersurface("cylinder-control"))


def _tangent_of_center(p):
    """dB1/dp for the cubic's frame row B1 = (0, 1, -2p, -p^2, 0)."""
    zero = p * 0
    return (zero, zero, -2 * p ** 0, -2 * p, zero)


def _center_moving_with_q(p, q):
    # B1 scaled by 1 + q: the same centers, conic point and plane, but B1
    # now moves with q; B2 is rebuilt so that check 3 still holds
    b0, b1, b2, b3, b4 = projgeom.frame_rows(p, q)
    s = 1 + q
    b2 = tuple(q * a - s * d / 2 for a, d in zip(b0, _tangent_of_center(p)))
    return (b0, tuple(s * x for x in b1), b2, b3, b4)


def _generator_off_the_plane(p, q):
    b0, b1, b2, b3, b4 = projgeom.frame_rows(p, q)
    return (b0, b1, b3, b2, b4)


def _plane_off_the_surface(p, q):
    # B0 moved by B3, and B2 by q*B3 so that B2 = q*B0 - dB1/2 still holds
    b0, b1, b2, b3, b4 = projgeom.frame_rows(p, q)
    b0 = tuple(x + y for x, y in zip(b0, b3))
    b2 = tuple(x + q * y for x, y in zip(b2, b3))
    return (b0, b1, b2, b3, b4)


def _conic_missing_the_centers(lf):
    # the centers' first plane coordinate is 1, so the added square is 1
    # there and the conic no longer vanishes on them
    return envelope(lf) + lf.f.context.variable(lf.plane_vars[0]) ** 2


class TestPencilChecksAreComputed:
    @pytest.mark.parametrize(
        "target, patch, failed",
        [
            ("frame_rows", _center_moving_with_q,
             "pencil center does not move with q"),
            ("frame_rows", _generator_off_the_plane,
             "generators lie in the plane of the center, its tangent "
             "direction, and the moving point"),
            ("frame_rows", _plane_off_the_surface,
             "moving 2-plane lies on the hypersurface"),
            ("envelope", _conic_missing_the_centers,
             "pencil centers lie on the envelope conic"),
        ],
    )
    def test_each_broken_identity_fails_only_its_check(
        self, bourgain, uncached_certificates, monkeypatch, target, patch, failed
    ):
        monkeypatch.setattr(ruled, target, patch)
        with pytest.raises(VerificationError) as exc_info:
            pencil_structure_report(bourgain)
        assert str(exc_info.value) == "pencil certificate failed: " + failed


class TestImplicitization:
    def test_triangular_family_recovers_the_cubic(self, bourgain):
        family = infinity_line_family(bourgain)
        recovered = implicitize_plane_family(family)
        assert recovered.f == bourgain.f

    def test_certificate_rejects_wrong_pivot(self, bourgain):
        family = infinity_line_family(bourgain)
        with pytest.raises((VerificationError, DegreeError, ValueError)):
            implicitize_plane_family(family, outer=("z1", "z3"))

    def test_equals_the_resultant_on_triangular_families(self, bourgain):
        rng = random.Random(4242)
        families = [infinity_line_family(bourgain)]
        families += [
            seeded_family(rng, 1 + i % 5, triangular=True) for i in range(200)
        ]
        for family in families:
            assert implicitize_plane_family(family).f == eliminated(family)

    def test_dense_families_are_the_homogenized_family(self):
        rng = random.Random(777)
        for i in range(100):
            d = 1 + i % 5
            family = seeded_family(rng, d, triangular=False)
            h = implicitize_plane_family(family)
            assert h.context.names == ("z0", "z1", "z2", "z3", "z4")
            for _ in range(3):
                z0, z1, z2, z3, z4 = (
                    Fraction(rng.choice([-5, -2, -1, 1, 3, 7]), rng.randint(1, 4))
                    for _ in range(5)
                )
                family_value = family.f.evaluate([z4 / z0, z1, z2, z3])
                assert h.f.evaluate([z0, z1, z2, z3, z4]) == (
                    (-1) ** d * z0 ** d * family_value
                )

    def test_family_constant_in_the_parameter_is_rejected(self):
        p, z1, z2, z3 = VarContext(["p", "z1", "z2", "z3"]).variables()
        with pytest.raises(DegreeError):
            implicitize_plane_family(LineFamily(z1 + 2 * z2 - z3, "p"))

    def test_tampered_construction_fails_the_certificate(self, bourgain, monkeypatch):
        homogenize = Polynomial.homogenize

        def one_term_more(self, new_var, degree=None):
            h = homogenize(self, new_var, degree)
            return h + h.context.variable(new_var) ** h.total_degree()

        monkeypatch.setattr(Polynomial, "homogenize", one_term_more)
        with pytest.raises(VerificationError):
            implicitize_plane_family(infinity_line_family(bourgain))


def seeded_family(rng, d, triangular):
    """A line family of degree exactly d in p: sum over p^k of a linear
    form in z1, z2, z3. Triangular ones give z1 a constant coefficient."""
    ctx = VarContext(["p", "z1", "z2", "z3"])
    terms = {}
    for k in range(d + 1):
        for j in range(3):
            c = rng.randint(-9, 9)
            if triangular and j == 0:
                c = rng.choice([-3, -1, 1, 2]) if k == 0 else 0
            elif k == d and j == 1:
                c = c or 1  # keeps the degree in p at d
            if c:
                terms[(k,) + tuple(int(i == j) for i in range(3))] = c
    return LineFamily(Polynomial(ctx, terms), "p")


def eliminated(family):
    """Res_t(f, t*z0 - z4) by the subresultant PRS, as a polynomial in
    (z0, plane coordinates, z4): the reference implicit equation."""
    t = family.param
    ctx = VarContext((t, "z0") + family.plane_vars + ("z4",))
    f = family.f.substitute(
        {n: ctx.variable(n) for n in family.f.context.names}, target_context=ctx
    )
    line = ctx.variable(t) * ctx.variable("z0") - ctx.variable("z4")
    return sylvester_resultant(f, line, t).dehomogenize(t)


class TestGeneratorMap:
    def test_components_match_the_frame_rows(self):
        gmap = generator_map()
        ctx = gmap.context
        p, q, lam = ctx.variables()
        expected = [
            lam * q,
            Polynomial.one(ctx),
            -2 * p + lam,
            -(p ** 2) + lam * p,
            lam * p * q,
        ]
        assert list(gmap.components) == expected

    def test_derivative_in_lam_is_the_second_frame_row(self):
        gmap = generator_map()
        ctx = gmap.context
        p, q, lam = ctx.variables()
        derivs = [c.partial_derivative("lam") for c in gmap.components]
        assert derivs == [q, Polynomial.zero(ctx), Polynomial.one(ctx), p, p * q]
