"""Command-line interface.

JSON on stdout is the machine format: field order is fixed per
subcommand, rationals are rendered as ``num/den`` strings, and each
subcommand's output validates against the matching schema shipped in
``torsal/schemas/``.  ``--pretty`` switches to an aligned human
rendering.  Errors go to stderr (JSON unless ``--pretty``).

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 internal error (an exception torsal has no contract error for; it is
reported as a JSON error of type "error" naming the exception, never as
a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import resources

from torsal import catalog, equivalence, ruled
from torsal.errors import (
    BaseLocusError,
    ContextMismatchError,
    DegreeError,
    ExprSyntaxError,
    NonHomogeneousError,
    NotContainedError,
    SingularPointError,
    UnknownVariableError,
    VerificationError,
)
from torsal.expr import parse_polynomial
from torsal.hypersurface import (
    Hypersurface,
    ParamMap,
    gradient,
    pullback,
    singular_locus_generators,
)
from torsal.polyring import Polynomial, VarContext, format_polynomial
from torsal.projgeom import ProjPoint

_EXIT_OK = 0
_EXIT_VERIFY = 1
_EXIT_USAGE = 2
_EXIT_INTERNAL = 3


class _UsageError(Exception):
    """Bad arguments detected after argparse (unknown surface, bad map, ...)."""


def schema_path(name: str):
    """Filesystem path of a shipped output schema, e.g. ``"gauss-rank"``."""
    return resources.files("torsal") / "schemas" / f"{name}.schema.json"


# ---------------------------------------------------------------------------
# argument helpers


def _split_names(raw: str, what: str) -> list:
    names = [part.strip() for part in raw.split(",")]
    if any(not part for part in names):
        raise _UsageError(f"empty name in {what}: {raw!r}")
    return names


def _parse_var_context(raw: str) -> VarContext:
    try:
        return VarContext(_split_names(raw, "--vars"))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_param_map(raw_map: str, raw_params: str) -> ParamMap:
    if raw_map is None or raw_params is None:
        raise _UsageError("--param-map and --params are both required")
    try:
        context = VarContext(_split_names(raw_params, "--params"))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    pieces = raw_map.split(",")
    if len(pieces) != 5:
        raise _UsageError(
            f"--param-map needs 5 comma-separated components, got {len(pieces)}"
        )
    components = [parse_polynomial(piece.strip(), context) for piece in pieces]
    try:
        return ParamMap(components)
    except ValueError as exc:  # e.g. all-zero components
        raise _UsageError(f"--param-map: {exc}") from None


def _parse_fraction(raw: str, flag: str) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"{flag} expects a rational like 2/3: {exc}") from None


def _catalog_surface(name: str) -> Hypersurface:
    try:
        return catalog.hypersurface(name)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _check_seed(seed: int) -> int:
    if seed < 0 or seed >= 1 << 64:
        raise _UsageError(f"--seed must fit in an unsigned 64-bit value: {seed}")
    return seed


# ---------------------------------------------------------------------------
# JSON rendering helpers


def _frac_str(value) -> str:
    return str(Fraction(value))


def _point_json(point: ProjPoint) -> list:
    return [_frac_str(c) for c in point.coords]


def _poly_str(f: Polynomial) -> str:
    return format_polynomial(f)


# ---------------------------------------------------------------------------
# subcommand implementations (each returns (payload, exit_code))


def _cmd_parse_check(args) -> tuple:
    context = _parse_var_context(args.vars)
    f = parse_polynomial(args.expr, context)
    payload = {
        "ok": True,
        "canonical": _poly_str(f),
        "variables": list(context.names),
        "degree": f.total_degree(),
        "homogeneous": f.is_homogeneous(),
        "term_count": f.term_count(),
    }
    return payload, _EXIT_OK


_WITNESS_CANDIDATES = (
    (1, 1, 0, 1, 1),
    (1, 1, 0, 0, 1),
    (1, 0, 0, 0, 0),
    (1, 0, 0, 0, 1),
    (1, 1, 1, 1, 1),
)


def _smooth_witness(h: Hypersurface):
    """First candidate point lying on the surface with nonzero gradient."""
    grads = gradient(h)
    for coords in _WITNESS_CANDIDATES:
        if h.f.evaluate(coords) != 0:
            continue
        values = [g.evaluate(coords) for g in grads]
        if any(values):
            return coords, values
    return None


def _cmd_singular_locus(args) -> tuple:
    h = _catalog_surface(args.surface)
    generators = singular_locus_generators(h)
    plane_ctx = VarContext(["a", "b", "c"])
    a, b, c = plane_ctx.variables()
    plane_point = [Polynomial.zero(plane_ctx), a, b, c, Polynomial.zero(plane_ctx)]
    names = h.context.names
    on_plane = all(
        g.substitute(dict(zip(names, plane_point))).is_zero() for g in generators
    )
    payload = {
        "surface": args.surface,
        "polynomial": _poly_str(h.f),
        "generators": [_poly_str(g) for g in generators],
        "plane_certificate": {
            "equations": [f"{names[0]} = 0", f"{names[4]} = 0"],
            "parametrization": "(0, a, b, c, 0)",
            "vanishes_identically": on_plane,
        },
    }
    witness = _smooth_witness(h)
    if witness is None:
        payload["smooth_point_witness"] = None
    else:
        coords, values = witness
        payload["smooth_point_witness"] = {
            "point": [_frac_str(x) for x in coords],
            "gradient": [_frac_str(v) for v in values],
            "nonzero": True,
        }
    return payload, _EXIT_OK


def _cmd_verify_parametrization(args) -> tuple:
    h = _catalog_surface(args.surface)
    pm = _parse_param_map(args.param_map, args.params)
    residual = pullback(h.f, pm)
    contained = residual.is_zero()
    payload = {
        "surface": args.surface,
        "params": list(pm.context.names),
        "map": [_poly_str(c) for c in pm.components],
        "contained": contained,
        "residual": _poly_str(residual),
    }
    return payload, _EXIT_OK if contained else _EXIT_VERIFY


def _cmd_gauss_rank(args) -> tuple:
    h = _catalog_surface(args.surface)
    pm = _parse_param_map(args.param_map, args.params)
    gi = ruled.gauss_map(h, pm)
    seed = _check_seed(args.seed)
    rank = ruled.generic_rank(gi, seed=seed)
    payload = {
        "surface": args.surface,
        "params": list(pm.context.names),
        "rank": rank,
        "seed": seed,
        "samples": ruled.SAMPLE_COUNT,
        "image": [_poly_str(c) for c in gi.components],
    }
    return payload, _EXIT_OK


def _cmd_envelope(args) -> tuple:
    context = _parse_var_context(args.vars)
    f = parse_polynomial(args.family, context)
    try:
        family = ruled.LineFamily(f, args.param)
    except ValueError as exc:  # not the parameter plus 3 plane coordinates
        raise _UsageError(f"--vars: {exc}") from None
    env = ruled.envelope(family)
    method = "discriminant" if f.degree_in(args.param) == 2 else "resultant"
    payload = {
        "family": _poly_str(f),
        "param": args.param,
        "plane_vars": list(family.plane_vars),
        "envelope": _poly_str(env),
        "method": method,
    }
    return payload, _EXIT_OK


def _cmd_focal(args) -> tuple:
    h = _catalog_surface(args.surface)
    p = _parse_fraction(args.p, "--p")
    q = _parse_fraction(args.q, "--q")
    system = ruled.focal_system()
    report = ruled.focal_points_on_generator(h, p, q, system)
    payload = {
        "surface": args.surface,
        "p": _frac_str(p),
        "q": _frac_str(q),
        "matrix": [[_poly_str(e) for e in row] for row in system.matrix],
        "determinant": _poly_str(system.determinant),
        "roots": [
            {
                "lam": _frac_str(pt.lam),
                "multiplicity": pt.multiplicity,
                "point": _point_json(pt.point),
                "at_infinity": pt.at_infinity,
            }
            for pt in report.roots
        ],
        "residual": None if report.residual is None else _poly_str(report.residual),
        "chart_note": report.chart_note,
    }
    return payload, _EXIT_OK


def _cmd_pencil_report(args) -> tuple:
    h = _catalog_surface(args.surface)
    report = ruled.pencil_structure_report(h)
    payload = {
        "surface": args.surface,
        "checks": [
            {"name": name, "passed": passed} for name, passed in report.checks
        ],
        "conic": _poly_str(report.conic),
        "verdict": report.verdict,
    }
    return payload, _EXIT_OK


def _cmd_equivalence_check(args) -> tuple:
    if args.chain == "affine":
        report = equivalence.bourgain_affine_chain()
    else:
        report = equivalence.sacksteder_to_bourgain()
    if not report.replay():
        raise VerificationError("equivalence chain failed to replay")
    payload = {"chain": args.chain}
    payload.update(report.to_jsonable())
    if args.chain == "sacksteder":
        note = equivalence.periodicity_note()
        payload["periodicity"] = {
            "chart_bound": note.chart_bound,
            "excluded_locus": note.excluded_locus,
            "covering": note.covering,
            "detail": note.detail,
        }
    return payload, _EXIT_OK


def _cmd_catalog(args) -> tuple:
    surfaces = []
    for name in catalog.names():
        entry = catalog.get(name)
        surfaces.append(
            {
                "name": entry.name,
                "variables": list(entry.polynomial.context.names),
                "polynomial": _poly_str(entry.polynomial),
                "homogeneous": entry.homogeneous,
                "degree": entry.polynomial.total_degree(),
                "description": entry.description,
            }
        )
    return {"surfaces": surfaces}, _EXIT_OK


# ---------------------------------------------------------------------------
# pretty rendering


def _pretty_lines(payload: dict, indent: str = "") -> list:
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_pretty_lines(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for item in value:
                lines.extend(_pretty_lines(item, indent + "  "))
                lines.append("")
            if lines[-1] == "":
                lines.pop()
        elif isinstance(value, list):
            joined = ", ".join(_pretty_scalar(v) for v in value)
            lines.append(f"{indent}{key}: [{joined}]")
        else:
            lines.append(f"{indent}{key}: {_pretty_scalar(value)}")
    return lines


def _pretty_scalar(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return str(value)


def _emit(payload: dict, pretty: bool, stream) -> None:
    if pretty:
        stream.write("\n".join(_pretty_lines(payload)) + "\n")
    else:
        json.dump(payload, stream, indent=2)
        stream.write("\n")


# ---------------------------------------------------------------------------
# error mapping


# the contract errors: class -> (JSON type, exit code); any other exception
# is a defect and exits 3
_ERRORS = {
    ExprSyntaxError: ("syntax", _EXIT_USAGE),
    UnknownVariableError: ("unknown-variable", _EXIT_USAGE),
    ContextMismatchError: ("context-mismatch", _EXIT_USAGE),
    DegreeError: ("degree", _EXIT_USAGE),
    NonHomogeneousError: ("non-homogeneous", _EXIT_USAGE),
    _UsageError: ("usage", _EXIT_USAGE),
    NotContainedError: ("not-contained", _EXIT_VERIFY),
    VerificationError: ("verification", _EXIT_VERIFY),
    BaseLocusError: ("base-locus", _EXIT_VERIFY),
    SingularPointError: ("singular-point", _EXIT_VERIFY),
}


def _error_payload(exc: Exception) -> tuple:
    for cls in type(exc).__mro__:
        if cls in _ERRORS:
            kind, code = _ERRORS[cls]
            body = {"type": kind, "message": str(exc)}
            if isinstance(exc, ExprSyntaxError):
                body["byte_offset"] = exc.offset
            if isinstance(exc, SingularPointError) and exc.point is not None:
                body["point"] = [_frac_str(c) for c in exc.point]
            return {"error": body}, code
    message = f"internal error: {type(exc).__name__}: {exc}"
    return {"error": {"type": "error", "message": message}}, _EXIT_INTERNAL


# ---------------------------------------------------------------------------
# parser wiring


def _add_output_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--json", action="store_true", help="JSON output (the default)"
    )
    group.add_argument(
        "--pretty", action="store_true", help="aligned human-readable output"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsal",
        description="exact construction and verification of ruled hypersurfaces",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("parse-check", help="parse an expression and echo it")
    sub.add_argument("--expr", required=True, help="polynomial expression")
    sub.add_argument("--vars", required=True, help="comma-separated variable names")
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_parse_check)

    sub = subs.add_parser(
        "singular-locus", help="gradient generators and plane certificate"
    )
    sub.add_argument("--surface", required=True, help="catalog surface name")
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_singular_locus)

    sub = subs.add_parser(
        "verify-parametrization", help="check a map lands on a surface"
    )
    sub.add_argument("--surface", required=True)
    sub.add_argument(
        "--param-map", required=True, help="5 comma-separated expressions"
    )
    sub.add_argument("--params", required=True, help="comma-separated parameters")
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_verify_parametrization)

    sub = subs.add_parser(
        "gauss-rank", help="generic rank of the tangent-hyperplane map"
    )
    sub.add_argument("--surface", required=True)
    sub.add_argument("--param-map", required=True)
    sub.add_argument("--params", required=True)
    sub.add_argument("--seed", type=int, default=ruled.DEFAULT_SEED)
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_gauss_rank)

    sub = subs.add_parser("envelope", help="envelope of a line or plane family")
    sub.add_argument("--family", required=True, help="family polynomial")
    sub.add_argument(
        "--vars", default="p,z1,z2,z3", help="comma-separated variable names"
    )
    sub.add_argument("--param", default="p", help="family parameter name")
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_envelope)

    sub = subs.add_parser(
        "focal", help="focal matrix and focal points on one generator"
    )
    sub.add_argument("--surface", required=True)
    sub.add_argument("--p", default="1", help="rational value of p (default 1)")
    sub.add_argument("--q", default="1", help="rational value of q (default 1)")
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_focal)

    sub = subs.add_parser(
        "pencil-report", help="certify the pencil-of-lines structure"
    )
    sub.add_argument("--surface", required=True)
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_pencil_report)

    sub = subs.add_parser(
        "equivalence-check", help="replay a certified equivalence chain"
    )
    sub.add_argument(
        "--chain",
        choices=("sacksteder", "affine"),
        default="sacksteder",
        help="which chain to run (default: sacksteder)",
    )
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_equivalence_check)

    sub = subs.add_parser("catalog", help="list the built-in surfaces")
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0, None) else int(exc.code or 0)
    pretty = bool(getattr(args, "pretty", False))
    try:
        payload, code = args.func(args)
    except Exception as exc:  # contract error or defect: JSON, never a traceback
        payload, code = _error_payload(exc)
    else:
        _emit(payload, pretty, sys.stdout)
        return code
    if pretty:
        sys.stderr.write(f"error: {payload['error']['message']}\n")
    else:
        _emit(payload, False, sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
