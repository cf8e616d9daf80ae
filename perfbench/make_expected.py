"""Write ``expected_cli.json``: exact stdout and exit code of each stored CLI case.

The stored bytes are the reference the ``cli-session`` and ``cold-start``
workloads compare against, so regenerate only for a deliberate change of
the CLI's output, and review the diff.

Usage: python3 perfbench/make_expected.py
"""

from __future__ import annotations

import contextlib
import io
import json

from checkout import import_torsal
from cli_cases import EXPECTED_PATH, golden_argvs


def main() -> None:
    import_torsal()
    from torsal import cli

    expected = {}
    for case_id, argv in golden_argvs().items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if err.getvalue():
            raise SystemExit(f"{case_id}: unexpected stderr {err.getvalue()!r}")
        expected[case_id] = {"argv": argv, "exit": code, "stdout": out.getvalue()}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(expected)} cases to {EXPECTED_PATH}")


if __name__ == "__main__":
    main()
