"""Stored CLI output: every case of perfbench/expected_cli.json, byte for byte.

The file holds the argv, exit code and exact stdout of 32 invocations
across all nine subcommands (written by perfbench/make_expected.py); the
benchmark's cli-session and cold-start workloads compare against the same
bytes. These tests only read it.
"""

import json
import random
from pathlib import Path

import pytest

from torsal import cli
from torsal.cli import main

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected_cli.json"
CASES = json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_every_subcommand_has_a_stored_case():
    commands = {case["argv"][0] for case in CASES.values()}
    assert len(CASES) == 32 and len(commands) == 9


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_stored_case_is_byte_identical(capsys, case_id):
    case = CASES[case_id]
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], "")


# argvs that fail inside argparse, or print its help or the version: an
# unknown subcommand, an unknown flag, both output flags, a --p value
# argparse takes for a flag, -h and --version
ARGPARSE_FAILURES = (
    ["nosuch"],
    ["catalog", "--bogus"],
    ["catalog", "--json", "--pretty"],
    ["focal", "--surface", "bourgain", "--p", "-1/2"],
    ["-h"],
    ["--version"],
)


def test_reused_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    def run(argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = {}
    for argv in ARGPARSE_FAILURES:
        monkeypatch.setattr(cli, "_parser", None)
        fresh[tuple(argv)] = run(argv)

    builds = []
    build = cli._build_parser

    def counted_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_build_parser", counted_build)
    order = sorted(CASES)
    random.Random(7).shuffle(order)
    for i, case_id in enumerate(order):
        case = CASES[case_id]
        assert run(case["argv"]) == (case["exit"], case["stdout"], ""), case_id
        failing = ARGPARSE_FAILURES[i % len(ARGPARSE_FAILURES)]
        assert run(failing) == fresh[tuple(failing)], failing
    assert len(builds) <= 1
