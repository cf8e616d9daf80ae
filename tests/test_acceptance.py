"""Acceptance criteria, one test per criterion.

The conftest reporter prints ``criterion N (...): PASS/FAIL`` for each
test in this file at the end of the run.
"""

import json
import random
from fractions import Fraction

import pytest
from jsonschema import Draft202012Validator

from test_expr import random_expression
from test_projgeom import IDENTITY, matmul
from torsal import catalog
from torsal.cli import main as cli_main
from torsal.cli import schema_path
from torsal.equivalence import sacksteder_to_bourgain
from torsal.errors import SingularPointError
from torsal.expr import parse_polynomial
from torsal.hypersurface import (
    ParamMap,
    contains_parametrized,
    gradient,
    singular_locus_generators,
    tangent_hyperplane,
)
from torsal.polyring import (
    Polynomial,
    VarContext,
    det_over_ring,
    discriminant,
    format_polynomial,
)
from torsal.projgeom import ProjPoint, adjugate, frame_bourgain, frame_rows
from torsal.ruled import (
    LineFamily,
    conic_tangency_map,
    focal_points_on_generator,
    focal_system,
    gauss_map,
    generator_map,
    generic_rank,
)


@pytest.fixture(scope="module")
def bourgain():
    return catalog.hypersurface("bourgain")


def test_c01_gradient_identity(bourgain, zctx):
    z0, z1, z2, z3, z4 = zctx.variables()
    expected = [
        -2 * z0 * z3 + z2 * z4,
        z4 ** 2,
        z0 * z4,
        -(z0 ** 2),
        z0 * z2 + 2 * z1 * z4,
    ]
    assert list(gradient(bourgain)) == expected


def test_c02_singular_locus_certificate(bourgain):
    plane_ctx = VarContext(["a", "b", "c"])
    a, b, c = plane_ctx.variables()
    zero = Polynomial.zero(plane_ctx)
    images = dict(zip(bourgain.context.names, [zero, a, b, c, zero]))
    generators = singular_locus_generators(bourgain)
    assert len(generators) == 5
    for g in generators:
        assert g.substitute(images, target_context=plane_ctx).is_zero()
    witness = [g.evaluate((1, 1, 0, 1, 1)) for g in generators]
    assert any(witness)
    assert witness == [-2, 1, 1, -1, 2]


def test_c03_containment_identities(bourgain):
    ruling_ctx = VarContext(["p", "u", "v"])
    p, u, v = ruling_ctx.variables()
    ruling = ParamMap([Polynomial.one(ruling_ctx), u, v - p * u, p * v, p])
    assert contains_parametrized(bourgain, ruling)

    plane_ctx = VarContext(["alpha", "beta", "gamma", "p"])
    alpha, beta, gamma, p = plane_ctx.variables()
    planes = ParamMap(
        [alpha, beta, gamma - 2 * p * beta, p * (gamma - p * beta), p * alpha]
    )
    assert contains_parametrized(bourgain, planes)


def test_c04_envelope_and_tangency():
    ctx = VarContext(["p", "z1", "z2", "z3"])
    p, z1, z2, z3 = ctx.variables()
    family = p ** 2 * z1 + p * z2 - z3
    assert discriminant(family, "p") == z2 ** 2 + 4 * z1 * z3

    pm = conic_tangency_map()
    p_sym = pm.context.variable("p")
    _, c1, c2, c3, _ = pm.components
    assert (p_sym ** 2 * c1 + p_sym * c2 - c3).is_zero()
    assert (c2 ** 2 + 4 * c1 * c3).is_zero()


def test_c05_gauss_rank_triple(bourgain):
    ruling_ctx = VarContext(["p", "u", "v"])
    p, u, v = ruling_ctx.variables()
    other_ctx = VarContext(["t", "u", "v"])
    t, u2, v2 = other_ctx.variables()
    cases = [
        (bourgain, [Polynomial.one(ruling_ctx), u, v - p * u, p * v, p], 2),
        (
            catalog.hypersurface("cylinder-control"),
            [Polynomial.one(other_ctx), t, u2, v2, t ** 2],
            1,
        ),
        (
            catalog.hypersurface("quadric-control"),
            [Polynomial.one(other_ctx), t, u2, v2, t ** 2 + u2 ** 2 + v2 ** 2],
            3,
        ),
    ]
    for h, components, expected in cases:
        gi = gauss_map(h, ParamMap(components))
        first = generic_rank(gi)
        second = generic_rank(gi)
        assert first == second == expected


def test_c06_tangent_hyperplane_constancy(bourgain):
    rng = random.Random(606)
    gmap = generator_map()
    for _ in range(10):
        p = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        lam1 = Fraction(rng.randint(1, 9))
        lam2 = lam1 + Fraction(rng.randint(1, 5))
        pt1 = ProjPoint(c.evaluate([p, q, lam1]) for c in gmap.components)
        pt2 = ProjPoint(c.evaluate([p, q, lam2]) for c in gmap.components)
        assert tangent_hyperplane(bourgain, pt1) == tangent_hyperplane(bourgain, pt2)
        center = ProjPoint(c.evaluate([p, q, Fraction(0)]) for c in gmap.components)
        with pytest.raises(SingularPointError) as exc_info:
            tangent_hyperplane(bourgain, center)
        point = exc_info.value.point
        assert ProjPoint(point) == ProjPoint([0, 1, -2 * p, -(p ** 2), 0])
        z1, z2, z3 = point[1], point[2], point[3]
        assert z2 ** 2 + 4 * z1 * z3 == 0


def test_c07_focal_determinant(bourgain):
    system = focal_system()
    lam = system.determinant.context.variable("lam")
    assert system.determinant == -(lam ** 2)
    rng = random.Random(707)
    for _ in range(10):
        p = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        report = focal_points_on_generator(bourgain, p, q)
        (root,) = report.roots
        assert root.lam == 0 and root.multiplicity == 2
        assert root.at_infinity
        assert report.residual is None


def test_c08_frame_consistency():
    rng = random.Random(808)
    for _ in range(10):
        p = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        m = frame_bourgain(p, q)
        assert matmul(m.rows, m.invert().rows) == IDENTITY

    ctx = VarContext(["p", "q"])
    p, q = ctx.variables()
    frame = frame_rows(*ctx.variables())
    assert det_over_ring(frame) == 1
    inverse = adjugate(frame)
    one, zero = Polynomial.one(ctx), Polynomial.zero(ctx)
    assert inverse[1] == [-2 * p * q, one, 2 * p, -(p ** 2), zero]
    assert inverse[2] == [-q, zero, one, -p, zero]


def test_c09_equivalence_pipeline(bourgain):
    report = sacksteder_to_bourgain()
    assert report.replay()
    assert report.final_scalar != 0
    assert report.z3_sign_flipped is True
    assert report.steps[-1].output == bourgain.f
    rerun = sacksteder_to_bourgain().to_jsonable()
    assert json.dumps(rerun, indent=2) == json.dumps(report.to_jsonable(), indent=2)


def test_c10_cli_contract(capsys):
    def run(argv, schema, want_code):
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert code == want_code, f"{argv}: exit {code}"
        payload = json.loads(out)
        validator = Draft202012Validator(json.loads(schema_path(schema).read_text()))
        assert not list(validator.iter_errors(payload)), argv
        return payload

    payload = run(["singular-locus", "--surface", "bourgain"], "singular-locus", 0)
    assert len(payload["generators"]) == 5
    assert payload["plane_certificate"]["vanishes_identically"] is True

    payload = run(
        [
            "gauss-rank", "--surface", "cylinder-control",
            "--param-map", "1,t,u,v,t^2", "--params", "t,u,v",
        ],
        "gauss-rank",
        0,
    )
    assert payload["rank"] == 1

    payload = run(["equivalence-check"], "equivalence-check", 0)
    assert payload["scalar"] != "0"

    rng = random.Random(1010)
    names = ["p", "z1", "z2", "z3"]
    ctx = VarContext(names)
    for _ in range(50):
        source = random_expression(rng, names)
        f = parse_polynomial(source, ctx)
        assert parse_polynomial(format_polynomial(f), ctx) == f
