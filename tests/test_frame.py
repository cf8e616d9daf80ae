"""One frame, one cubic: every derived object reads the same definitions.

The moving frame B0..B4 is written once, in ``projgeom.frame_rows``, and
works over any ring; the tangency point is read off its rows. The surfaces are written once, in the
catalog, and the equivalence chains and the pencil certificate compare
against those entries.
"""

import random
from fractions import Fraction

import pytest

from torsal import catalog
from torsal.equivalence import standard_cubic
from torsal.errors import ContextMismatchError, VerificationError
from torsal.hypersurface import Hypersurface, ParamMap, pullback
from torsal.polyring import Polynomial, VarContext
from torsal.projgeom import frame_bourgain, frame_rows
from torsal.ruled import (
    conic_tangency_map,
    gauss_map,
    pencil_structure_report,
)


def seeded_pairs(seed, count=10):
    rng = random.Random(seed)
    return [
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
        for _ in range(count)
    ]


class TestFrameRows:
    def test_polynomial_rows_evaluate_to_the_rational_frame(self):
        symbolic = frame_rows(*VarContext(["p", "q"]).variables())
        for p, q in seeded_pairs(4101):
            evaluated = tuple(
                tuple(entry.evaluate([p, q]) for entry in row) for row in symbolic
            )
            assert evaluated == frame_bourgain(p, q).rows

    def test_q_zero_frame_evaluates_to_the_rational_frame(self):
        p = VarContext(["p"]).variable("p")
        symbolic = frame_rows(p, p * 0)
        for p0, _ in seeded_pairs(4102):
            evaluated = tuple(
                tuple(entry.evaluate([p0]) for entry in row) for row in symbolic
            )
            assert evaluated == frame_bourgain(p0, 0).rows


class TestDerivedPoints:
    def test_tangency_point_is_frame_row_b1(self):
        for p, q in seeded_pairs(4103):
            assert frame_rows(p, p * 0)[1] == frame_bourgain(p, q).rows[1]

    def test_tangency_map_is_symbolic_frame_row_b1(self):
        pm = conic_tangency_map()
        p = pm.context.variable("p")
        assert pm.components == frame_rows(p, p * 0)[1]
        for p0, q0 in seeded_pairs(4104):
            values = tuple(c.evaluate([p0]) for c in pm.components)
            assert values == frame_bourgain(p0, q0).rows[1]


class TestOneCubic:
    def test_standard_cubic_is_the_catalog_entry(self):
        assert standard_cubic() is catalog.get("bourgain").polynomial

    def test_pencil_report_accepts_the_cubic_in_other_names(self):
        renamed = catalog.get("bourgain").polynomial.rename(("a", "b", "c", "d", "e"))
        report = pencil_structure_report(Hypersurface(renamed))
        assert all(passed for _, passed in report.checks)


class TestPullback:
    def test_pullback_composes_each_variable_with_its_component(self):
        ctx = VarContext(["t"])
        t = ctx.variable("t")
        pm = ParamMap([Polynomial.one(ctx), t, t ** 2, t ** 3, t ** 4])
        z0, z1, z2, z3, z4 = VarContext(("z0", "z1", "z2", "z3", "z4")).variables()
        assert pullback(z1 * z3 - z2 ** 2 + z0, pm) == Polynomial.one(ctx)

    def test_pullback_needs_five_variables(self):
        ctx = VarContext(["t"])
        t = ctx.variable("t")
        pm = ParamMap([t, t, t, t, t])
        with pytest.raises(ContextMismatchError):
            pullback(VarContext(["x", "y"]).variable("x"), pm)

    def test_gauss_image_of_the_singular_plane_is_refused(self):
        a, b, c = VarContext(["a", "b", "c"]).variables()
        zero = a * 0
        plane = ParamMap([zero, a, b, c, zero])
        with pytest.raises(VerificationError, match="singular locus"):
            gauss_map(catalog.hypersurface("bourgain"), plane)

    def test_gauss_image_is_a_param_map(self):
        p, u, v = VarContext(["p", "u", "v"]).variables()
        pm = ParamMap([p ** 0, u, v - p * u, p * v, p])
        assert isinstance(gauss_map(catalog.hypersurface("bourgain"), pm), ParamMap)
