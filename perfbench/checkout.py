"""Locate the checkout under test and import torsal from its ``src/``.

The package may also be installed on the machine; importing that copy
would silently measure other code, so every entry point goes through
``import_torsal`` and every child process gets ``child_env``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckoutError(Exception):
    """The directory holds no torsal sources to measure."""


def import_torsal():
    """Put this checkout's ``src/`` first on the path and import torsal from it."""
    if not (SRC / "torsal" / "__init__.py").is_file():
        raise CheckoutError(f"no torsal sources under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import torsal
    import torsal.cli  # noqa: F401  (loads every layer)

    where = Path(torsal.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise CheckoutError(f"torsal imported from {where}, not from {SRC}")
    return torsal


def child_env() -> dict:
    """Environment for child interpreters: this checkout's sources first."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env
