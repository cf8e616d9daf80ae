"""Certified equivalence chains and the half-angle substitution."""

import json
import random
from fractions import Fraction

import pytest

from torsal import catalog
from torsal.equivalence import (
    EquivalenceStep,
    PROJECTIVE_NAMES,
    TrigSurface,
    bourgain_affine_chain,
    periodicity_note,
    replay_step,
    sacksteder_to_bourgain,
    standard_cubic,
    weierstrass_substitute,
)
from torsal.errors import ContextMismatchError, DegreeError
from torsal.hypersurface import Hypersurface, ParamMap, contains_parametrized
from torsal.polyring import Polynomial, VarContext
from torsal.ruled import gauss_map, generic_rank


class TestTrigSurface:
    def test_standard(self):
        surface = TrigSurface.standard()
        ctx = surface.f.context
        x1, x2, x4, c, s = ctx.variables()
        assert surface.f == x1 * c + x2 * s - x4

    def test_context_is_fixed(self):
        other = VarContext(["a", "b", "c", "d", "e"])
        with pytest.raises(ContextMismatchError):
            TrigSurface(other.variable("a"))

    def test_joint_trig_degree_is_capped(self):
        ctx = TrigSurface.context()
        x1, x2, x4, c, s = ctx.variables()
        with pytest.raises(DegreeError):
            TrigSurface(x1 * c ** 2)
        with pytest.raises(DegreeError):
            TrigSurface(c * s)
        TrigSurface(Polynomial.zero(ctx))  # zero is allowed


class TestWeierstrass:
    def test_standard_image(self):
        surface = TrigSurface.standard()
        w = weierstrass_substitute(surface)
        ctx = w.context
        x1, x2, x4, u, v = ctx.variables()
        assert w == x1 * (v ** 2 - u ** 2) + 2 * x2 * u * v - x4 * (u ** 2 + v ** 2)

    def test_basis_images(self):
        ctx = TrigSurface.context()
        x1, x2, x4, c, s = ctx.variables()
        wc = weierstrass_substitute(TrigSurface(c))
        ws = weierstrass_substitute(TrigSurface(s))
        w1 = weierstrass_substitute(TrigSurface(Polynomial.one(ctx)))
        rctx = wc.context
        _, _, _, u, v = rctx.variables()
        assert wc == v ** 2 - u ** 2
        assert ws == 2 * u * v
        assert w1 == u ** 2 + v ** 2

    def test_linearity(self):
        rng = random.Random(88)
        ctx = TrigSurface.context()
        x1, x2, x4, c, s = ctx.variables()
        for _ in range(10):
            def coefficient():
                return Polynomial.constant(
                    ctx, Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                )

            f = coefficient() * c + coefficient() * s + coefficient() * x1
            g = coefficient() * c + coefficient() * s + coefficient() * x4
            lhs = weierstrass_substitute(TrigSurface(f + g))
            rhs = weierstrass_substitute(TrigSurface(f)) + weierstrass_substitute(
                TrigSurface(g)
            )
            assert lhs == rhs

    def test_affine_chart_identities(self):
        """Restrictions of the half-angle image to the two affine charts."""
        w = weierstrass_substitute(TrigSurface.standard())
        ctx = w.context
        x1, x2, x4, u, v = ctx.variables()
        one = Polynomial.one(ctx)
        keep = {"x1": x1, "x2": x2, "x4": x4}
        # v = 1 chart: the image equals (x1 c + x2 s - x4)(1 + u^2) with
        # c (1+u^2) = 1 - u^2 and s (1+u^2) = 2 u
        w_v1 = w.substitute({**keep, "u": u, "v": one})
        assert w_v1 == x1 * (1 - u ** 2) + x2 * 2 * u - x4 * (1 + u ** 2)
        # u = 1 chart
        w_u1 = w.substitute({**keep, "u": one, "v": v})
        assert w_u1 == x1 * (v ** 2 - 1) + 2 * x2 * v - x4 * (1 + v ** 2)


class TestAffineChain:
    def test_replays_and_lands_on_the_cubic(self):
        report = bourgain_affine_chain()
        assert report.replay()
        assert [s.certificate for s in report.steps] == [
            "regrouping-identity",
            "linear-substitution",
            "homogenization",
        ]
        assert report.steps[-1].output == standard_cubic()
        assert report.final_scalar == 1
        assert report.z3_sign_flipped is None

    def test_middle_step_matches_catalog_affine_entry(self):
        report = bourgain_affine_chain()
        assert report.steps[1].output == catalog.get("bourgain-affine").polynomial.rename(
            report.steps[1].output.context.names
        )


class TestSackstederChain:
    def test_certificate_structure(self):
        report = sacksteder_to_bourgain()
        assert report.replay()
        assert [s.certificate for s in report.steps] == [
            "half-angle",
            "scalar-normalization",
            "linear-substitution",
            "scalar-certificate",
        ]
        assert report.final_scalar == 1
        assert report.final_scalar != 0
        assert report.z3_sign_flipped is True
        assert report.steps[-1].output == standard_cubic()

    def test_substitution_images(self):
        report = sacksteder_to_bourgain()
        images = dict(report.final_substitution)
        zctx = standard_cubic().context
        z0, z1, z2, z3, z4 = zctx.variables()
        half = Fraction(1, 2)
        assert images["u"] == z0
        assert images["v"] == z4
        assert images["x1"] == -half * z1 - half * z3
        assert images["x2"] == -half * z2
        assert images["x4"] == half * z1 - half * z3

    def test_rerun_is_byte_identical(self):
        a = json.dumps(sacksteder_to_bourgain().to_jsonable(), indent=2)
        b = json.dumps(sacksteder_to_bourgain().to_jsonable(), indent=2)
        assert a == b
        assert isinstance(a, str) and a

    def test_jsonable_field_order(self):
        payload = sacksteder_to_bourgain().to_jsonable()
        assert list(payload) == [
            "steps",
            "substitution",
            "scalar",
            "z3_sign_flipped",
            "notes",
        ]

    def test_intermediate_surface_also_has_rank_two(self):
        """The rational model inherits the ruling: compose the certified
        substitution with the cubic's ruling parametrization and check the
        generic rank of the resulting model-side map."""
        report = sacksteder_to_bourgain()
        linear = next(
            s for s in report.steps if s.certificate == "linear-substitution"
        )
        e_poly = linear.input
        images = dict(linear.data)
        pctx = VarContext(["p", "u", "v"])
        p, u, v = pctx.variables()
        ruling = {"z0": Polynomial.one(pctx), "z1": u, "z2": v - p * u,
                  "z3": p * v, "z4": p}
        components = {
            name: images[name].substitute(ruling, target_context=pctx)
            for name in ("x1", "x2", "x4", "u", "v")
        }
        pm = ParamMap([components[n] for n in ("x1", "x2", "x4", "u", "v")])
        model = Hypersurface(e_poly)
        assert contains_parametrized(model, pm)
        assert generic_rank(gauss_map(model, pm)) == 2


class TestReplayStep:
    def test_tampered_output_fails(self):
        report = sacksteder_to_bourgain()
        for step in report.steps:
            assert replay_step(step)
            broken = EquivalenceStep(
                name=step.name,
                input=step.input,
                output=step.output + 1,
                certificate=step.certificate,
                data=step.data,
            )
            assert not replay_step(broken)

    def test_unknown_certificate_kind(self):
        step = sacksteder_to_bourgain().steps[0]
        bogus = EquivalenceStep(
            name=step.name,
            input=step.input,
            output=step.output,
            certificate="no-such-kind",
            data=None,
        )
        with pytest.raises(ValueError):
            replay_step(bogus)


class TestPeriodicityNote:
    def test_fields(self):
        note = periodicity_note()
        assert note.chart_bound == "|x3| < pi"
        assert note.excluded_locus == "v = 0"
        assert note.covering == "recorded, not machine-checked"
        assert note.detail


def test_projective_names_constant():
    assert PROJECTIVE_NAMES == ("z0", "z1", "z2", "z3", "z4")
