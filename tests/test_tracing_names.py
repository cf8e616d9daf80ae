"""The benchmark's span tracer finds every torsal name it patches.

``perfbench/tracing.py`` looks up each entry of ``FUNCTIONS`` with
``getattr`` and each entry of ``METHODS`` in its class ``__dict__``; a
renamed or deleted function would stop every ``--trace 1`` run from
installing. The module uses only the standard library, so it is loaded
here by path, without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import torsal.cli  # noqa: F401  (loads every torsal module the tracer patches)
from torsal import catalog, expr, ruled
from torsal.polyring import VarContext

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracing):
    for module, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (
            f"{module}.{attr}"
        )


def test_every_traced_method_resolves(tracing):
    for module, cls_name, attrs, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        for attr in attrs:
            assert attr in cls.__dict__, f"{module}.{cls_name}.{attr}"


def test_focal_points_run_through_the_frame_span(tracing):
    tracer = tracing.Tracer()
    try:  # a failed install leaves some patches behind: undo them too
        tracer.install()
        ruled.focal_points_on_generator(catalog.hypersurface("bourgain"), 1, 1)
    finally:
        tracer.uninstall()
    spans = tracer.summary()["spans"]
    assert spans["projgeom.frame"][0] > 0
    assert spans["ruled.focal_points"][0] == 1


@pytest.mark.parametrize("text,descents", [("v-p*u", 1), ("p*u + v", 0)])
def test_typed_text_runs_through_the_parse_span(tracing, text, descents):
    # expr.parse.* measures the descent: text the canonical reader
    # declines is parsed once, canonical text not at all
    ctx = VarContext(["p", "u", "v"])
    tracer = tracing.Tracer()
    try:
        tracer.install()
        expr.parse_polynomial(text, ctx)
    finally:
        tracer.uninstall()
    spans = tracer.summary()["spans"]
    assert spans.get("expr.parse", [0])[0] == descents
