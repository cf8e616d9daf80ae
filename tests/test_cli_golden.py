"""Stored CLI output: every case of perfbench/expected_cli.json, byte for byte.

The file holds the argv, exit code and exact stdout of 32 invocations
across all nine subcommands (written by perfbench/make_expected.py); the
benchmark's cli-session and cold-start workloads compare against the same
bytes. This test only reads it.
"""

import json
from pathlib import Path

import pytest

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
