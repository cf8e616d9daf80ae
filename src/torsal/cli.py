"""Command-line interface.

Each subcommand is declared once, as an entry of ``_COMMANDS`` (its help
and flags) and a function ``_cmd_<name>`` (dashes as underscores) that
``main`` looks up when it dispatches. Every subcommand also takes
``--json`` (the default) or ``--pretty``.

JSON on stdout is the machine format: field order is fixed per
subcommand, rationals are rendered as ``num/den`` strings by
``polyring.format_rational`` (the same renderer as polynomial
coefficients), and each subcommand's output validates against the
matching schema shipped in ``torsal/schemas/``.  ``--pretty`` switches
to an aligned human rendering.  Errors go to stderr (JSON unless
``--pretty``); argparse's own errors (unknown subcommand, missing or
unknown flag, bad flag value) come before ``--pretty`` is read, so they
are always JSON. ``-h`` prints help on stdout and exits 0.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 internal error (an exception torsal has no contract error for; it is
reported as a JSON error of type "error" naming the exception, never as
a traceback). A stdout closed by its reader is such an exception: exit 3
with a JSON error naming BrokenPipeError, or with no message at all if
stderr is closed too.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from torsal import __version__, catalog, equivalence, ruled
from torsal.errors import (
    BaseLocusError,
    ContextMismatchError,
    DegreeError,
    DigitLimitError,
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
    pullback,
    singular_locus_certificate,
)
from torsal.polyring import VarContext, format_polynomial, format_rational

_EXIT_OK = 0
_EXIT_VERIFY = 1
_EXIT_USAGE = 2
_EXIT_INTERNAL = 3


class _UsageError(Exception):
    """Bad arguments: argparse's own errors (see ``_Parser``) and those
    detected after it (unknown surface, bad map, ...)."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises its errors instead of printing usage
    text and exiting, so main reports them as JSON; subparsers inherit it."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def schema_path(name: str):
    """Filesystem path of a shipped output schema, e.g. ``"gauss-rank"``."""
    from importlib import resources  # only schema lookups need it

    return resources.files("torsal") / "schemas" / f"{name}.schema.json"


# ---------------------------------------------------------------------------
# argument helpers


def _parse_var_context(raw: str, flag: str) -> VarContext:
    names = [part.strip() for part in raw.split(",")]
    if any(not part for part in names):
        raise _UsageError(f"empty name in {flag}: {raw!r}")
    try:
        return VarContext(names)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_param_map(raw_map: str, raw_params: str) -> ParamMap:
    context = _parse_var_context(raw_params, "--params")
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


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_fraction(raw: str, flag: str) -> Fraction:
    # n or n/d, as format_rational prints it; digits are counted, never
    # converted, past the interpreter's integer-string limit
    match = _RATIONAL.fullmatch(raw)
    if match is None:
        raise _UsageError(f"{flag} expects a rational like 2/3 or -5: {raw!r}")
    num, den = match.group(1), match.group(2) or "1"
    limit = sys.get_int_max_str_digits()
    if limit and max(len(num.lstrip("+-")), len(den)) > limit:
        raise DigitLimitError(
            f"{flag} has a part longer than {limit} digits, the interpreter's "
            "limit for reading an integer"
        )
    if int(den) == 0:
        raise _UsageError(f"{flag} has a zero denominator: {raw!r}")
    return Fraction(int(num), int(den))


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
# subcommand implementations: _cmd_<name> for each name in _COMMANDS, taking
# the parsed arguments and returning (payload, exit_code)


def _cmd_parse_check(args) -> tuple:
    context = _parse_var_context(args.vars, "--vars")
    f = parse_polynomial(args.expr, context)
    payload = {
        "ok": True,
        "canonical": format_polynomial(f),
        "variables": list(context.names),
        "degree": f.total_degree(),
        "homogeneous": f.is_homogeneous(),
        "term_count": f.term_count(),
    }
    return payload, _EXIT_OK


def _cmd_singular_locus(args) -> tuple:
    h = _catalog_surface(args.surface)
    # derived once per surface; only the rendering is per call
    generators, on_plane, witness = singular_locus_certificate(h)
    names = h.context.names
    payload = {
        "surface": args.surface,
        "polynomial": format_polynomial(h.f),
        "generators": [format_polynomial(g) for g in generators],
        "plane_certificate": {
            "equations": [f"{names[0]} = 0", f"{names[4]} = 0"],
            "parametrization": "(0, a, b, c, 0)",
            "vanishes_identically": on_plane,
        },
    }
    if witness is None:
        payload["smooth_point_witness"] = None
    else:
        coords, values = witness
        payload["smooth_point_witness"] = {
            "point": [format_rational(x) for x in coords],
            "gradient": [format_rational(*v.as_integer_ratio()) for v in values],
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
        "map": [format_polynomial(c) for c in pm.components],
        "contained": contained,
        "residual": format_polynomial(residual),
    }
    return payload, _EXIT_OK if contained else _EXIT_VERIFY


def _cmd_gauss_rank(args) -> tuple:
    seed = _check_seed(args.seed)
    h = _catalog_surface(args.surface)
    pm = _parse_param_map(args.param_map, args.params)
    gi = ruled.gauss_map(h, pm)
    rank = ruled.generic_rank(gi, seed=seed)
    payload = {
        "surface": args.surface,
        "params": list(pm.context.names),
        "rank": rank,
        "seed": seed,
        "samples": ruled.SAMPLE_COUNT,
        "image": [format_polynomial(c) for c in gi.components],
    }
    return payload, _EXIT_OK


def _cmd_envelope(args) -> tuple:
    context = _parse_var_context(args.vars, "--vars")
    f = parse_polynomial(args.family, context)
    try:
        family = ruled.LineFamily(f, args.param)
    except ValueError as exc:  # not the parameter plus 3 plane coordinates
        raise _UsageError(f"--vars: {exc}") from None
    env = ruled.envelope(family)
    method = "discriminant" if f.degree_in(args.param) == 2 else "resultant"
    payload = {
        "family": format_polynomial(f),
        "param": args.param,
        "plane_vars": list(family.plane_vars),
        "envelope": format_polynomial(env),
        "method": method,
    }
    return payload, _EXIT_OK


def _cmd_focal(args) -> tuple:
    h = _catalog_surface(args.surface)
    p = _parse_fraction(args.p, "--p")
    q = _parse_fraction(args.q, "--q")
    report = ruled.focal_points_on_generator(h, p, q)
    system, residual = report.system, report.residual
    payload = {
        "surface": args.surface,
        "p": format_rational(*p.as_integer_ratio()),
        "q": format_rational(*q.as_integer_ratio()),
        "matrix": [[format_polynomial(e) for e in row] for row in system.matrix],
        "determinant": format_polynomial(system.determinant),
        "roots": [
            {
                "lam": format_rational(*pt.lam.as_integer_ratio()),
                "multiplicity": pt.multiplicity,
                "point": [
                    format_rational(*c.as_integer_ratio()) for c in pt.point.coords
                ],
                "at_infinity": pt.at_infinity,
            }
            for pt in report.roots
        ],
        "residual": None if residual is None else format_polynomial(residual),
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
        "conic": format_polynomial(report.conic),
        "verdict": report.verdict,
    }
    return payload, _EXIT_OK


def _cmd_equivalence_check(args) -> tuple:
    # both chain builders replay their certificates and raise
    # VerificationError when one fails
    if args.chain == "affine":
        report = equivalence.bourgain_affine_chain()
    else:
        report = equivalence.sacksteder_to_bourgain()
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
                "polynomial": format_polynomial(entry.polynomial),
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
            lines.pop()
        else:
            lines.append(f"{indent}{key}: {_pretty_value(value)}")
    return lines


def _pretty_value(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_pretty_value(v) for v in value) + "]"
    if value is None or isinstance(value, bool):
        return json.dumps(value)
    return str(value)


def _render(payload: dict, pretty: bool) -> str:
    if pretty:
        return "\n".join(_pretty_lines(payload)) + "\n"
    return json.dumps(payload, indent=2) + "\n"


def _write(stream, text: str):
    """Write and flush text; return the OSError of a closed stream (its
    descriptor then points at os.devnull, so the flush at shutdown passes)."""
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return exc
    return None


# ---------------------------------------------------------------------------
# error mapping


# the contract errors: class -> (JSON type, exit code); any other exception
# is a defect and exits 3
_ERRORS = {
    ExprSyntaxError: ("syntax", _EXIT_USAGE),
    UnknownVariableError: ("unknown-variable", _EXIT_USAGE),
    ContextMismatchError: ("context-mismatch", _EXIT_USAGE),
    DegreeError: ("degree", _EXIT_USAGE),
    DigitLimitError: ("digit-limit", _EXIT_USAGE),
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
                body["point"] = [
                    format_rational(*c.as_integer_ratio()) for c in exc.point
                ]
            return {"error": body}, code
    message = f"internal error: {type(exc).__name__}: {exc}"
    return {"error": {"type": "error", "message": message}}, _EXIT_INTERNAL


# ---------------------------------------------------------------------------
# parser wiring: the command table maps each name to (help, flags), a flag
# being a (name, add_argument keywords) pair; every subcommand also takes
# --json or --pretty, and runs as _cmd_<name>


_SURFACE = ("--surface", dict(required=True, help="catalog surface name"))
_PARAM_MAP = (
    ("--param-map", dict(required=True, help="5 comma-separated expressions")),
    ("--params", dict(required=True, help="comma-separated parameters")),
)
_VARS_HELP = "comma-separated variable names"

_COMMANDS = {
    "parse-check": (
        "parse an expression and echo it",
        (
            ("--expr", dict(required=True, help="polynomial expression")),
            ("--vars", dict(required=True, help=_VARS_HELP)),
        ),
    ),
    "singular-locus": ("gradient generators and plane certificate", (_SURFACE,)),
    "verify-parametrization": (
        "check a map lands on a surface",
        (_SURFACE, *_PARAM_MAP),
    ),
    "gauss-rank": (
        "generic rank of the tangent-hyperplane map",
        (_SURFACE, *_PARAM_MAP, ("--seed", dict(type=int, default=ruled.DEFAULT_SEED))),
    ),
    "envelope": (
        "envelope of a line or plane family",
        (
            ("--family", dict(required=True, help="family polynomial")),
            ("--vars", dict(default="p,z1,z2,z3", help=_VARS_HELP)),
            ("--param", dict(default="p", help="family parameter name")),
        ),
    ),
    "focal": (
        "focal matrix and focal points on one generator",
        (
            _SURFACE,
            ("--p", dict(default="1", help="rational value of p (default 1)")),
            ("--q", dict(default="1", help="rational value of q (default 1)")),
        ),
    ),
    "pencil-report": ("certify the pencil-of-lines structure", (_SURFACE,)),
    "equivalence-check": (
        "replay a certified equivalence chain",
        (
            ("--chain", dict(choices=("sacksteder", "affine"), default="sacksteder",
                             help="which chain to run (default: sacksteder)")),
        ),
    ),
    "catalog": ("list the built-in surfaces", ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torsal",
        description="exact construction and verification of ruled hypersurfaces",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for flag, options in flags:
            sub.add_argument(flag, **options)
        output = sub.add_mutually_exclusive_group()
        output.add_argument(
            "--json", action="store_true", help="JSON output (the default)"
        )
        output.add_argument(
            "--pretty", action="store_true", help="aligned human-readable output"
        )
    return parser


# built by the first main call; parse_args leaves no state behind in it, so
# every later call reuses it
_parser = None


def main(argv=None) -> int:
    """Run one CLI invocation and return its exit code.

    In-process calls share one argparse tree, built on the first call;
    importing this module builds none.
    """
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit:  # -h or --version printed its text on stdout
        return _EXIT_OK
    except _UsageError as exc:  # --pretty is not read yet: the error is JSON
        return _report(exc, False)
    # looked up per call, so a replaced _cmd_<name> takes effect
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        payload, code = command(args)
    except Exception as exc:  # contract error or defect: JSON, never a traceback
        return _report(exc, args.pretty)
    failure = _write(sys.stdout, _render(payload, args.pretty))
    if failure is None:
        return code
    return _report(failure, args.pretty)  # stdout closed: exit 3


def _report(exc: Exception, pretty: bool) -> int:
    """Write the error for exc to stderr and return its exit code."""
    payload, code = _error_payload(exc)
    if pretty:
        text = f"error: {payload['error']['message']}\n"
    else:
        text = _render(payload, False)
    _write(sys.stderr, text)  # a closed stderr too leaves only the exit code
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
