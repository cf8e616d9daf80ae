"""CLI contract: exit codes, schema-valid JSON, deterministic output."""

import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import torsal
from test_cli_golden import CASES
from test_expr import random_expression
from torsal import catalog, cli, equivalence, errors, hypersurface, projgeom, ruled
from torsal.cli import main, schema_path
from torsal.polyring import VarContext


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(lang):
    """The bodies of README's fenced code blocks in `lang`."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text("utf-8"), re.M | re.S)


# every `torsal ...` line of README's sh blocks, as the argv after `torsal`
README_COMMANDS = [
    shlex.split(line)[1:]
    for block in readme_blocks("sh")
    for line in block.splitlines()
    if line.startswith("torsal ")
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    return json.loads(schema_path(name).read_text())


def check(capsys, schema_name, argv, want_code, error=False):
    code, out, err = run_cli(capsys, *argv)
    assert code == want_code, f"{argv}: exit {code}, wanted {want_code}\n{out}{err}"
    payload = json.loads(err if error else out)
    validator = Draft202012Validator(load_schema(schema_name))
    problems = list(validator.iter_errors(payload))
    assert not problems, f"{argv}: {[p.message for p in problems]}"
    return payload


SCHEMAS = sorted((Path(torsal.__file__).parent / "schemas").glob("*.json"))


@pytest.mark.parametrize("path", SCHEMAS, ids=lambda path: path.name)
def test_shipped_schema_is_a_draft_2020_12_schema(path):
    # a schema that is not itself valid would validate payloads wrongly
    Draft202012Validator.check_schema(json.loads(path.read_text()))


def test_every_subcommand_ships_a_schema():
    # one schema per subcommand's output, and one for the error object
    names = {path.name.removesuffix(".schema.json") for path in SCHEMAS}
    assert names == set(cli._COMMANDS) | {"error"}


class TestDocumentedInvocations:
    def test_singular_locus_bourgain(self, capsys):
        payload = check(
            capsys, "singular-locus", ["singular-locus", "--surface", "bourgain"], 0
        )
        assert len(payload["generators"]) == 5
        assert payload["plane_certificate"]["vanishes_identically"] is True
        assert payload["plane_certificate"]["equations"] == ["z0 = 0", "z4 = 0"]
        assert payload["smooth_point_witness"]["gradient"] == [
            "-2", "1", "1", "-1", "2",
        ]

    def test_gauss_rank_cylinder(self, capsys):
        payload = check(
            capsys,
            "gauss-rank",
            [
                "gauss-rank", "--surface", "cylinder-control",
                "--param-map", "1,t,u,v,t^2", "--params", "t,u,v",
            ],
            0,
        )
        assert payload["rank"] == 1
        assert payload["seed"] == 1729 and payload["samples"] == 7

    def test_equivalence_check(self, capsys):
        payload = check(capsys, "equivalence-check", ["equivalence-check"], 0)
        assert payload["scalar"] != "0"
        assert payload["z3_sign_flipped"] is True
        assert payload["periodicity"]["chart_bound"] == "|x3| < pi"

    def test_verify_parametrization_ruling(self, capsys):
        payload = check(
            capsys,
            "verify-parametrization",
            [
                "verify-parametrization", "--surface", "bourgain",
                "--param-map", "1,u,v-p*u,p*v,p", "--params", "p,u,v",
            ],
            0,
        )
        assert payload["contained"] is True and payload["residual"] == "0"

    def test_readme_lists_one_command_per_documented_subcommand(self):
        assert sorted(argv[0] for argv in README_COMMANDS) == [
            "envelope", "equivalence-check", "focal", "gauss-rank",
            "singular-locus", "verify-parametrization",
        ]

    @pytest.mark.parametrize(
        "argv", README_COMMANDS, ids=[argv[0] for argv in README_COMMANDS]
    )
    def test_readme_command(self, capsys, argv):
        check(capsys, argv[0], argv, 0)

    def test_readme_python_session(self, capsys):
        (session,) = readme_blocks("python")
        exec(compile(session, str(README), "exec"), {})
        gradient, dual, roots = capsys.readouterr().out.splitlines()
        assert gradient.startswith("['") and dual.startswith("ProjPoint(")
        assert roots.startswith("(FocalPoint(")


class TestOtherSubcommands:
    def test_parse_check(self, capsys):
        payload = check(
            capsys,
            "parse-check",
            ["parse-check", "--expr", "z1*z4^2 - z0^2*z3", "--vars", "z0,z1,z3,z4"],
            0,
        )
        assert payload["homogeneous"] is True and payload["degree"] == 3

    def test_envelope(self, capsys):
        payload = check(
            capsys, "envelope", ["envelope", "--family", "p^2*z1 + p*z2 - z3"], 0
        )
        assert payload["envelope"] == "4*z1*z3 + z2^2"
        assert payload["method"] == "discriminant"

    def test_focal(self, capsys):
        payload = check(
            capsys, "focal", ["focal", "--surface", "bourgain", "--p", "2/3"], 0
        )
        assert payload["p"] == "2/3"
        assert payload["determinant"] == "-1*lam^2"
        (root,) = payload["roots"]
        assert root["lam"] == "0" and root["multiplicity"] == 2
        assert root["at_infinity"] is True
        assert root["point"] == ["0", "1", "-4/3", "-4/9", "0"]

    def test_pencil_report(self, capsys):
        payload = check(
            capsys, "pencil-report", ["pencil-report", "--surface", "bourgain"], 0
        )
        assert all(c["passed"] for c in payload["checks"])

    def test_equivalence_affine_chain(self, capsys):
        payload = check(
            capsys, "equivalence-check", ["equivalence-check", "--chain", "affine"], 0
        )
        assert payload["chain"] == "affine"
        assert "periodicity" not in payload

    def test_catalog(self, capsys):
        payload = check(capsys, "catalog", ["catalog"], 0)
        names = [s["name"] for s in payload["surfaces"]]
        assert names == [
            "bourgain",
            "bourgain-affine",
            "sacksteder-rational",
            "cylinder-control",
            "quadric-control",
        ]


class TestErrors:
    def test_syntax_error_reports_byte_offset(self, capsys):
        payload = check(
            capsys, "error", ["parse-check", "--expr", "z1*(", "--vars", "z1"], 2,
            error=True,
        )
        assert payload["error"]["type"] == "syntax"
        assert payload["error"]["byte_offset"] == 4

    @pytest.mark.parametrize("family", ["0", "z1 - z1"])
    def test_zero_line_family_is_a_degree_error(self, capsys, family):
        payload = check(
            capsys, "error", ["envelope", "--family", family], 2, error=True
        )
        assert payload["error"] == {
            "type": "degree",
            "message": "the family is the zero polynomial; a line family needs "
                       "joint degree exactly 1 in the plane coordinates "
                       "('z1', 'z2', 'z3')",
        }

    @pytest.mark.parametrize("family", [
        "p^2*z1", "p^2*(z1+z2)", "p^3*z1", "(p^2+1)^2*z1", "p^3*z1+p^2*z2",
    ])
    def test_family_with_a_zero_member_is_a_degree_error(self, capsys, family):
        payload = check(
            capsys, "error", ["envelope", "--family", family], 2, error=True
        )
        assert payload["error"] == {
            "type": "degree",
            "message": "the square of a polynomial in 'p' divides every plane "
                       "coefficient of the family, so a member is the zero "
                       "form; there is no envelope",
        }

    def test_unknown_surface(self, capsys):
        payload = check(
            capsys, "error", ["singular-locus", "--surface", "nope"], 2, error=True
        )
        assert payload["error"]["type"] == "usage"

    def test_failed_containment_exits_one(self, capsys):
        payload = check(
            capsys,
            "verify-parametrization",
            [
                "verify-parametrization", "--surface", "bourgain",
                "--param-map", "1,u,v,p*v,p", "--params", "p,u,v",
            ],
            1,
        )
        assert payload["contained"] is False and payload["residual"] != "0"

    def test_gauss_rank_off_surface_exits_one(self, capsys):
        payload = check(
            capsys, "error",
            [
                "gauss-rank", "--surface", "bourgain",
                "--param-map", "1,t,u,v,t^2", "--params", "t,u,v",
            ],
            1, error=True,
        )
        assert payload["error"]["type"] == "not-contained"

    def test_pencil_report_rejects_cylinder(self, capsys):
        payload = check(
            capsys, "error", ["pencil-report", "--surface", "cylinder-control"], 1,
            error=True,
        )
        assert payload["error"]["type"] == "verification"

    def test_bad_seed(self, capsys):
        payload = check(
            capsys, "error",
            [
                "gauss-rank", "--surface", "bourgain",
                "--param-map", "1,u,v-p*u,p*v,p", "--params", "p,u,v",
                "--seed", "-1",
            ],
            2, error=True,
        )
        assert payload["error"]["type"] == "usage"

    def test_bad_seed_is_refused_before_any_algebra(self, capsys):
        # the map is off the surface, so computing the Gauss map first
        # would exit 1 with "not-contained"
        payload = check(
            capsys, "error",
            [
                "gauss-rank", "--surface", "bourgain",
                "--param-map", "1,u,v,p*v,p", "--params", "p,u,v",
                "--seed", "-1",
            ],
            2, error=True,
        )
        assert payload["error"]["type"] == "usage"

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_exits_two(self, capsys):
        assert main(["singular-locus"]) == 2
        capsys.readouterr()

    def test_zero_param_map_is_a_usage_error(self, capsys):
        payload = check(
            capsys, "error",
            [
                "verify-parametrization", "--surface", "bourgain",
                "--param-map", "0,0,0,0,0", "--params", "t",
            ],
            2, error=True,
        )
        assert payload["error"]["type"] == "usage"
        assert "all-zero" in payload["error"]["message"]

    def test_deep_nesting_is_a_syntax_error(self, capsys):
        text = "(" * 3000 + "p" + ")" * 3000
        payload = check(
            capsys, "error", ["parse-check", "--expr", text, "--vars", "p"], 2,
            error=True,
        )
        assert payload["error"]["type"] == "syntax"
        assert payload["error"]["byte_offset"] == 100

    def test_unexpected_exception_is_a_json_error(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("simulated defect")

        monkeypatch.setattr(cli, "_cmd_catalog", broken)
        payload = check(capsys, "error", ["catalog"], 3, error=True)
        assert payload["error"] == {
            "type": "error",
            "message": "internal error: RuntimeError: simulated defect",
        }
        code, out, err = run_cli(capsys, "catalog", "--pretty")
        assert code == 3 and out == ""
        assert err == "error: internal error: RuntimeError: simulated defect\n"

    @pytest.mark.parametrize(
        "error",
        [
            errors.InexactDivisionError,
            errors.SingularMatrixError,
            errors.MissingAssignmentError,
            errors.PointNotOnSurfaceError,
        ],
    )
    def test_torsal_error_without_contract_type_is_internal(
        self, capsys, monkeypatch, error
    ):
        def broken(args):
            raise error("simulated defect")

        monkeypatch.setattr(cli, "_cmd_catalog", broken)
        payload = check(capsys, "error", ["catalog"], 3, error=True)
        assert payload["error"] == {
            "type": "error",
            "message": f"internal error: {error.__name__}: simulated defect",
        }

    @pytest.mark.parametrize("expr", ["10^5000", "x^2+10^4400*x"])
    def test_coefficient_past_the_digit_limit(self, capsys, expr):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            payload = check(
                capsys, "error", ["parse-check", "--expr", expr, "--vars", "x"], 2,
                error=True,
            )
        finally:
            sys.set_int_max_str_digits(limit)
        assert payload["error"] == {
            "type": "digit-limit",
            "message": "coefficient longer than 4300 digits, the interpreter's "
            "limit for printing an integer",
        }

    def test_focal_point_past_the_digit_limit(self, capsys):
        # p of 3,000 digits prints, but the focal point's coordinates
        # (p^2 among them) do not
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            payload = check(
                capsys, "error",
                ["focal", "--surface", "bourgain", "--p", "7" * 3000], 2,
                error=True,
            )
        finally:
            sys.set_int_max_str_digits(limit)
        assert payload["error"]["type"] == "digit-limit"
        assert "4300 digits" in payload["error"]["message"]

    def test_rational_flag_past_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            payload = check(
                capsys, "error",
                ["focal", "--surface", "bourgain", "--p", "7" * 4301 + "/3"], 2,
                error=True,
            )
        finally:
            sys.set_int_max_str_digits(limit)
        assert payload["error"]["type"] == "digit-limit"
        assert payload["error"]["message"].startswith("--p ")
        assert "4300 digits" in payload["error"]["message"]

    @pytest.mark.parametrize("raw", ["0.5", "1e3", "1/0", " 2/3", "2/-3", "x"])
    def test_rational_flag_takes_n_or_n_over_d_only(self, capsys, raw):
        payload = check(
            capsys, "error", ["focal", "--surface", "bourgain", f"--q={raw}"], 2,
            error=True,
        )
        assert payload["error"]["type"] == "usage"
        assert payload["error"]["message"].startswith("--q ")

    def test_exponent_form_is_refused_before_any_arithmetic(self, capsys):
        # Fraction("1e10000000") alone builds a ten-million-digit integer
        start = time.perf_counter()
        payload = check(
            capsys, "error", ["focal", "--surface", "bourgain", "--p=1e10000000"],
            2, error=True,
        )
        assert time.perf_counter() - start < 1
        assert payload["error"]["type"] == "usage"

    def test_equivalence_chain_that_fails_replay_exits_one(
        self, capsys, uncached_certificates, monkeypatch
    ):
        monkeypatch.setattr(equivalence, "replay_step", lambda step: False)
        for chain in ("sacksteder", "affine"):
            payload = check(
                capsys, "error", ["equivalence-check", "--chain", chain], 1,
                error=True,
            )
            assert payload["error"]["type"] == "verification"
            assert "replay" in payload["error"]["message"]

    def test_bad_param_map_arity(self, capsys):
        payload = check(
            capsys, "error",
            [
                "verify-parametrization", "--surface", "bourgain",
                "--param-map", "1,u,v", "--params", "p,u,v",
            ],
            2, error=True,
        )
        assert "5" in payload["error"]["message"]


_SEED_FLAGS = [
    "gauss-rank", "--surface", "bourgain",
    "--param-map", "1,u,v-p*u,p*v,p", "--params", "p,u,v",
]


class TestArgparseErrors:
    """argparse's own failures are JSON errors of type "usage", exit 2,
    whatever the output flags: the parse fails before --pretty is read."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["nosuch"],
            ["gauss-rank", "--surface", "bourgain"],
            ["focal", "--surface", "bourgain", "--bogus", "1"],
            _SEED_FLAGS + ["--seed", "abc"],
            ["catalog", "--json", "--pretty"],
            ["nosuch", "--pretty"],
        ],
    )
    def test_is_a_json_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        payload = json.loads(err)
        validator = Draft202012Validator(load_schema("error"))
        assert not list(validator.iter_errors(payload))
        assert payload["error"]["type"] == "usage"
        assert payload["error"]["message"].startswith("torsal")

    @pytest.mark.parametrize("argv", [["-h"], ["focal", "--help"]])
    def test_help_goes_to_stdout_and_exits_zero(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out.startswith("usage: torsal")

    def test_version_prints_the_package_version_and_exits_zero(self, capsys):
        assert run_cli(capsys, "--version") == (0, f"torsal {torsal.__version__}\n", "")
        proc = subprocess.run(
            [sys.executable, "-m", "torsal", "--version"],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "torsal 0.1.0\n", "")

    def test_package_version_is_the_pyproject_version(self):
        # a regex, not tomllib: Python 3.10 has no tomllib
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
        version = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)
        assert torsal.__version__ == version


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, capsys):
        for argv in (
            ["singular-locus", "--surface", "bourgain"],
            ["equivalence-check"],
            ["focal", "--surface", "bourgain"],
        ):
            _, first, _ = run_cli(capsys, *argv)
            _, second, _ = run_cli(capsys, *argv)
            assert first == second

    def test_field_order_is_fixed(self, capsys):
        _, out, _ = run_cli(capsys, "gauss-rank", "--surface", "cylinder-control",
                            "--param-map", "1,t,u,v,t^2", "--params", "t,u,v")
        payload = json.loads(out)
        assert list(payload) == ["surface", "params", "rank", "seed", "samples", "image"]

    def test_seed_flag_is_echoed(self, capsys):
        _, out, _ = run_cli(capsys, "gauss-rank", "--surface", "bourgain",
                            "--param-map", "1,u,v-p*u,p*v,p", "--params", "p,u,v",
                            "--seed", "7")
        assert json.loads(out)["seed"] == 7


class TestCertificatesDerivedOnce:
    def test_two_calls_derive_each_certificate_once(
        self, capsys, uncached_certificates, monkeypatch
    ):
        replayed, frames = [], []
        replay_step = equivalence.replay_step

        def counted_replay(step):
            replayed.append(step.name)
            return replay_step(step)

        def counted_rows(p, q):
            frames.append(None)
            return projgeom.frame_rows(p, q)

        monkeypatch.setattr(equivalence, "replay_step", counted_replay)
        monkeypatch.setattr(ruled, "frame_rows", counted_rows)
        for case_id in ("equivalence/sacksteder", "equivalence/affine",
                        "pencil/bourgain"):
            case = CASES[case_id]
            first = run_cli(capsys, *case["argv"])
            second = run_cli(capsys, *case["argv"])
            assert first == second == (case["exit"], case["stdout"], ""), case_id
        # 4 steps in the sacksteder chain, 3 in the affine one, each
        # replayed once; the pencil certificate builds one symbolic frame
        assert len(replayed) == 7 and len(set(replayed)) == 7
        assert len(frames) == 1

    def test_refused_surface_fails_every_call_and_is_not_kept(
        self, capsys, uncached_certificates, monkeypatch
    ):
        # a derivation of the pencil certificate first reads the standard
        # cubic, catalog.get("bourgain"); the CLI's quadric-control comes
        # from catalog.hypersurface, and a fresh equal surface is made here
        derived = []
        get = catalog.get

        def counted_get(name):
            if name == "bourgain":
                derived.append(name)
            return get(name)

        monkeypatch.setattr(catalog, "get", counted_get)
        quadric = hypersurface.Hypersurface(
            catalog.get("quadric-control").polynomial
        )
        for _ in range(2):
            payload = check(
                capsys, "error",
                ["pencil-report", "--surface", "quadric-control"], 1, error=True,
            )
            assert payload["error"]["type"] == "verification"
            with pytest.raises(errors.VerificationError, match="standard ruled"):
                ruled.pencil_structure_report(quadric)
        # every call derives again: no refusal was kept on either surface
        assert len(derived) == 4

    def test_tampering_shows_once_the_memo_is_cleared(
        self, capsys, uncached_certificates, monkeypatch
    ):
        argvs = [
            (equivalence.sacksteder_to_bourgain.cache_clear,
             ["equivalence-check", "--chain", "sacksteder"]),
            (equivalence.bourgain_affine_chain.cache_clear,
             ["equivalence-check", "--chain", "affine"]),
            # the pencil certificate is kept on the catalog surface, and
            # goes with it
            (catalog.hypersurface.cache_clear,
             ["pencil-report", "--surface", "bourgain"]),
        ]
        for _, argv in argvs:
            assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(equivalence, "replay_step", lambda step: False)

        def generator_off_the_plane(p, q):
            b0, b1, b2, b3, b4 = projgeom.frame_rows(p, q)
            return (b0, b1, b3, b2, b4)

        monkeypatch.setattr(ruled, "frame_rows", generator_off_the_plane)
        for clear, argv in argvs:
            # a certificate that passed once is not derived again ...
            assert run_cli(capsys, *argv)[0] == 0
            # ... until its memo is cleared
            clear()
            payload = check(capsys, "error", argv, 1, error=True)
            assert payload["error"]["type"] == "verification"


class TestSingularLocusDerivedOnce:
    def test_two_calls_per_surface_derive_each_certificate_once(
        self, capsys, uncached_certificates, monkeypatch
    ):
        derived = []
        generators = hypersurface.singular_locus_generators

        def counted_generators(h):
            derived.append(h)
            return generators(h)

        monkeypatch.setattr(
            hypersurface, "singular_locus_generators", counted_generators
        )
        names = catalog.names()
        for name in names:
            case = CASES[f"singular-locus/{name}"]
            first = run_cli(capsys, *case["argv"])
            second = run_cli(capsys, *case["argv"])
            assert first == second == (case["exit"], case["stdout"], ""), name
        # one derivation per catalog surface, kept on it: bourgain-affine
        # homogenizes to the polynomial of bourgain, but it is a surface of
        # its own and derives its own certificate
        surfaces = [catalog.hypersurface(n) for n in names]
        assert len(derived) == len(names) == 5
        assert all(d is h for d, h in zip(derived, surfaces))
        assert derived[0] == derived[1] and derived[0] is not derived[1]
        # a surface built afresh derives its certificate afresh
        catalog.hypersurface.cache_clear()
        case = CASES["singular-locus/bourgain"]
        assert run_cli(capsys, *case["argv"]) == (0, case["stdout"], "")
        assert len(derived) == len(names) + 1
        assert derived[-1] == surfaces[0] and derived[-1] is not surfaces[0]

    def test_unknown_surface_stores_nothing(
        self, capsys, uncached_certificates, monkeypatch
    ):
        derived = []
        generators = hypersurface.singular_locus_generators

        def counted_generators(h):
            derived.append(h)
            return generators(h)

        monkeypatch.setattr(
            hypersurface, "singular_locus_generators", counted_generators
        )
        for _ in range(2):
            payload = check(
                capsys, "error", ["singular-locus", "--surface", "nope"], 2,
                error=True,
            )
            assert payload["error"]["type"] == "usage"
        assert derived == []
        assert catalog.hypersurface.cache_info().currsize == 0


class TestPretty:
    def test_pretty_is_not_json(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--pretty")
        assert code == 0
        assert "surfaces:" in out and "{" not in out

    def test_pretty_error_goes_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, "singular-locus", "--surface", "nope",
                                 "--pretty")
        assert code == 2 and not out
        assert err.startswith("error:")

    def test_pretty_nested_list_has_no_python_quotes(self, capsys):
        code, out, _ = run_cli(
            capsys, "focal", "--surface", "bourgain", "--pretty"
        )
        assert code == 0
        assert "matrix: [[2*q, lam], [lam, 0]]\n" in out
        assert "'" not in out

    def test_json_and_pretty_conflict(self, capsys):
        assert main(["catalog", "--json", "--pretty"]) == 2
        capsys.readouterr()


class TestGrammarRoundTripViaCli:
    def test_fifty_expression_corpus(self, capsys):
        """parse-check canonicalizes 50 generated expressions to stable form."""
        rng = random.Random(90210)
        ctx_names = ["p", "z1", "z2", "z3"]
        for _ in range(50):
            # --expr=<text> form: expressions may start with a minus sign
            source = random_expression(rng, ctx_names)
            code, out, _ = run_cli(
                capsys, "parse-check", f"--expr={source}",
                "--vars", ",".join(ctx_names),
            )
            assert code == 0
            canonical = json.loads(out)["canonical"]
            code, out, _ = run_cli(
                capsys, "parse-check", f"--expr={canonical}",
                "--vars", ",".join(ctx_names),
            )
            assert code == 0
            assert json.loads(out)["canonical"] == canonical


@pytest.mark.parametrize(
    "argv,offset",
    [
        ([b"parse-check", b"--expr", b"x+\xff", b"--vars", b"x"], 2),
        ([b"envelope", b"--family", b"p^2*z1 + \xff"], 9),
        (
            [
                b"verify-parametrization", b"--surface", b"bourgain",
                b"--param-map", b"1,u,v,p*v,p*u\xfe\xff", b"--params", b"p,u,v",
            ],
            3,  # the offset counts from the start of the fifth component
        ),
    ],
)
def test_undecodable_argv_byte_is_a_syntax_error(argv, offset):
    # Python hands the byte over as a lone surrogate; it is one raw byte
    # of input, counted as such, and never an internal error
    proc = subprocess.run(
        [sys.executable.encode(), b"-m", b"torsal", *argv], capture_output=True
    )
    assert proc.returncode == 2, proc.stderr
    payload = json.loads(proc.stderr)
    validator = Draft202012Validator(load_schema("error"))
    assert not list(validator.iter_errors(payload))
    assert payload["error"]["type"] == "syntax"
    assert payload["error"]["byte_offset"] == offset


def test_coefficient_past_the_digit_limit_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "torsal", "parse-check", "--expr", "10^5000",
         "--vars", "x"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": "4300"},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    payload = json.loads(proc.stderr)
    assert not list(Draft202012Validator(load_schema("error")).iter_errors(payload))
    assert payload["error"]["type"] == "digit-limit"
    assert "4300 digits" in payload["error"]["message"]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "torsal", "catalog"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["surfaces"]


def run_into_closed_pipe(argv, stderr_closed=False):
    """Run the CLI with stdout (and optionally stderr) a pipe whose read
    end is already closed, so every write to it fails with EPIPE."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "torsal", *argv],
            stdout=write_end,
            stderr=write_end if stderr_closed else subprocess.PIPE,
            text=True, timeout=60,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog"],
        # small enough to sit in the buffer: fails only at the final flush
        ["parse-check", "--expr", "x+1", "--vars", "x"],
    ],
)
def test_closed_stdout_is_an_internal_error(argv):
    proc = run_into_closed_pipe(argv)
    assert proc.returncode == 3
    payload = json.loads(proc.stderr)  # one JSON document, nothing else
    assert not list(Draft202012Validator(load_schema("error")).iter_errors(payload))
    assert payload["error"]["type"] == "error"
    assert "BrokenPipeError" in payload["error"]["message"]
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_closed_stdout_and_stderr_exit_three_silently():
    proc = run_into_closed_pipe(["catalog"], stderr_closed=True)
    assert proc.returncode == 3
