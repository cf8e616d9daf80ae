"""Certified equivalence chains and the half-angle substitution."""

import json
import random
from fractions import Fraction

import pytest

from torsal import catalog, equivalence
from torsal.cli import schema_path
from torsal.equivalence import (
    EquivalenceReport,
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
        # of two offending terms the message names the first in sorted
        # order, x1*c^2, though c*s*x4 is stored first
        with pytest.raises(DegreeError) as raised:
            TrigSurface(c * s * x4 + x1 * c ** 2 + x2)
        assert str(raised.value) == (
            "trig degree exceeds 1: term with exponents (1, 0, 0, 2, 0) "
            "mixes or squares c, s"
        )
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


def with_fields(step, **changes):
    fields = {name: getattr(step, name) for name in EquivalenceStep.__slots__}
    return EquivalenceStep(**{**fields, **changes})


def tampered_data(step):
    """Copies of step with its data changed, or its input where it has none."""
    data = step.data
    if step.certificate == "linear-substitution":
        for i, (var, img) in enumerate(data):
            images = data[:i] + ((var, img + 1),) + data[i + 1:]
            yield var, with_fields(step, data=images)
    elif step.certificate == "homogenization":
        var, degree, names = data
        yield "degree", with_fields(step, data=(var, degree + 1, names))
    elif step.certificate.startswith("scalar-"):
        yield "scalar", with_fields(step, data=data * 2)
    else:
        assert data is None
        yield "input", with_fields(step, input=step.input + 1)


CHAINS = (sacksteder_to_bourgain, bourgain_affine_chain)


class TestCertificateKinds:
    def test_table_is_the_schema_enum(self):
        schema = json.loads(schema_path("equivalence-check").read_text())
        step = schema["properties"]["steps"]["items"]["properties"]
        assert list(equivalence._KINDS) == step["certificate"]["enum"]

    def test_the_chains_use_every_kind(self):
        used = {s.certificate for chain in CHAINS for s in chain().steps}
        assert used == set(equivalence._KINDS)

    @pytest.mark.parametrize("chain", CHAINS, ids=lambda chain: chain.__name__)
    def test_tampered_data_fails_replay(self, chain):
        for step in chain().steps:
            assert replay_step(step)
            for what, broken in tampered_data(step):
                assert not replay_step(broken), (step.name, what)

    def test_zero_scalar_certificate_fails(self):
        x, y = VarContext(["x", "y"]).variables()
        for zero in (0, Fraction(0)):
            step = EquivalenceStep("zero", x + y, x + y, "scalar-certificate", zero)
            assert not replay_step(step)

    def test_constant_images_substitute_into_the_input_ring(self):
        ctx = VarContext(["x", "y"])
        x = ctx.variable("x")
        three = Polynomial.constant(ctx, 3)
        step = EquivalenceStep("c", x, three, "linear-substitution", (("x", 3),))
        assert replay_step(step)
        assert not replay_step(with_fields(step, data=(("x", 4),)))

    def test_output_in_another_ring_fails(self):
        # the images' ring decides where the image lies, not the output's
        x = VarContext(["x", "y"]).variable("x")
        elsewhere = VarContext(["a", "b"]).variable("a")
        step = EquivalenceStep("s", x, elsewhere, "linear-substitution", (("x", x),))
        assert not replay_step(step)

    @pytest.mark.parametrize("kind", ["scalar-normalization", "scalar-certificate"])
    def test_int_scalar_renders(self, kind):
        x, y = VarContext(["x", "y"]).variables()
        step = EquivalenceStep("n", x + y, -(x + y), kind, -1)
        report = EquivalenceReport(
            steps=(step,),
            final_substitution=(("x", x),),
            final_scalar=-1,
            z3_sign_flipped=None,
            notes=(),
        )
        assert replay_step(step) and report.replay()
        payload = report.to_jsonable()
        assert payload["steps"][0]["data"] == "-1"
        assert payload["scalar"] == "-1"


class TestPeriodicityNote:
    def test_fields(self):
        note = periodicity_note()
        assert note.chart_bound == "|x3| < pi"
        assert note.excluded_locus == "v = 0"
        assert note.covering == "recorded, not machine-checked"
        assert note.detail


def test_projective_names_constant():
    assert PROJECTIVE_NAMES == ("z0", "z1", "z2", "z3", "z4")
