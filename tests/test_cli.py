"""CLI contract: exit codes, schema-valid JSON, deterministic output."""

import json
import random
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator

from test_expr import random_expression
from torsal import cli, errors
from torsal.cli import main, schema_path
from torsal.polyring import VarContext


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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "torsal", "catalog"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["surfaces"]
