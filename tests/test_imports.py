"""What a torsal process imports, and the value classes that replaced dataclasses.

Every CLI call is a fresh interpreter, so each stdlib module torsal
imports is paid on every call. ``dataclasses`` (with ``inspect``) is not
among them: the value classes derive from ``torsal._record.Record``,
which generates no code. ``import torsal.cli`` must still load every
layer, because the benchmark's span tracer patches the loaded modules.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torsal
from torsal.equivalence import EquivalenceStep
from torsal.expr import Neg, Num, Pow, Product, Sum, Var, parse
from torsal.polyring import Monomial
from torsal.ruled import FocalPoint

SRC = Path(torsal.__file__).resolve().parents[1]

# the modules perfbench/tracing.py patches once they are loaded
TRACED = (
    "torsal._kernel",
    "torsal.polyring",
    "torsal.expr",
    "torsal.projgeom",
    "torsal.hypersurface",
    "torsal.ruled",
    "torsal.equivalence",
    "torsal.catalog",
    "torsal.cli",
)


def loaded_modules(flags, code):
    """Names in sys.modules after running `code` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c",
         code + "\nimport sys\nprint('\\n'.join(sys.modules))"],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(proc.stdout.split())


# with site (as `torsal` runs) and without it (-S), where site's own
# imports cannot hide what torsal imports
@pytest.mark.parametrize(
    "flags,unwanted",
    [
        ([], {"dataclasses", "inspect"}),
        (
            ["-S"],
            {"dataclasses", "inspect", "typing", "random", "importlib.resources"},
        ),
    ],
)
def test_cli_import_loads_every_layer_and_no_unneeded_module(flags, unwanted):
    bare = loaded_modules(flags, "pass")
    cli = loaded_modules(flags, "import torsal.cli")
    assert not (cli - bare) & unwanted
    assert [m for m in TRACED if m not in cli] == []


def test_no_torsal_source_imports_dataclasses():
    for path in sorted((SRC / "torsal").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in names, f"{path.name}:{node.lineno}"


class TestMonomial:
    def test_repr_equality_and_hash(self):
        m = Monomial([1, 0])
        assert repr(m) == "Monomial(exponents=(1, 0))"
        assert m.exponents == (1, 0)
        assert m == Monomial((1, 0)) and hash(m) == hash(Monomial((1, 0)))
        assert m != Monomial((0, 1)) and m != (1, 0)
        assert {m: 1}[Monomial((1, 0))] == 1

    def test_grlex_order(self):
        ordered = [Monomial(e) for e in ((0, 0), (0, 1), (1, 0), (0, 2), (2, 1))]
        assert sorted(reversed(ordered)) == ordered
        assert Monomial((1, 0)) > Monomial((0, 1))
        assert Monomial((1, 0)) >= Monomial((1, 0)) >= Monomial((0, 1))
        assert Monomial((0, 3)) <= Monomial((1, 2))
        assert max(ordered) == Monomial((2, 1))

    def test_total_degree_and_validation(self):
        assert Monomial((2, 3)).total_degree == 5
        for bad in ((1, -1), (1.0, 0)):
            with pytest.raises(ValueError):
                Monomial(bad)


class TestAstNodes:
    def test_reprs(self):
        cases = {
            "7": "Num(value=7)",
            "x": "Var(name='x')",
            "-x": "Neg(operand=Var(name='x'))",
            "x^2": "Pow(base=Var(name='x'), exponent=2)",
            "2*x": "Product(factors=(Num(value=2), Var(name='x')))",
            "x - 1": "Sum(terms=((1, Var(name='x')), (-1, Num(value=1))))",
        }
        for text, expected in cases.items():
            assert repr(parse(text)) == expected

    def test_equality_and_hash(self):
        tree = Sum(((1, Pow(Var("x"), 2)), (-1, Product((Num(3), Neg(Var("y")))))))
        text = "x^2 - 3*-y"
        assert parse(text) == tree and hash(parse(text)) == hash(tree)
        assert parse(text) != parse("x^2 + 3*-y")
        assert Num(1) != Var("1") and Num(1) != 1
        assert Pow(Var("x"), 2) != Pow(Var("x"), 3)
        assert len({parse(text), tree, parse("x^2")}) == 2

    def test_keyword_fields(self):
        assert Pow(base=Var(name="x"), exponent=2) == Pow(Var("x"), 2)
        assert Sum(terms=()).terms == ()


class TestRecords:
    def test_fields_by_position_keyword_and_default(self):
        a = FocalPoint(1, 2, None, at_infinity=False)
        b = FocalPoint(lam=1, multiplicity=2, point=None, at_infinity=False)
        assert a == b and hash(a) == hash(b)
        assert a != FocalPoint(1, 2, None, True)
        assert repr(a) == (
            "FocalPoint(lam=1, multiplicity=2, point=None, at_infinity=False)"
        )
        assert EquivalenceStep("n", 1, 1, "regrouping-identity").data is None

    @pytest.mark.parametrize(
        "args,kwargs",
        [
            ((1, 2, 3), {}),  # a field missing
            ((1, 2, 3, 4, 5), {}),  # one too many
            ((1, 2, 3), {"lam": 4}),  # given twice
            ((1, 2, 3), {"colour": 4}),  # no such field
        ],
    )
    def test_bad_fields_are_refused(self, args, kwargs):
        with pytest.raises(TypeError):
            FocalPoint(*args, **kwargs)
