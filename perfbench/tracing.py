"""Span tracing of torsal's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function at every module-level
binding in the loaded ``torsal.*`` modules (``ruled`` imports ``adjugate``
by name, ``cli`` imports ``gradient``, and so on) and each traced method on
its class; ``uninstall`` puts the originals back. A span records its name,
parent, start and end; spans stay in memory and are written out at the
end. A span's self time is its duration minus the time of its child spans.

Span names are ``<layer>.<what>``; the layers are torsal's modules:
kernel (``torsal._kernel``), polyring, expr, projgeom, hypersurface, ruled,
equivalence, catalog and cli.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "kernel", "polyring", "expr", "projgeom", "hypersurface",
          "ruled", "equivalence", "catalog")

# (module, function, span name); a function shares its span name with
# others of the same role, e.g. both equivalence chains are "equivalence.chain"
FUNCTIONS = (
    ("torsal._kernel", "terms_add", "kernel.add"),
    ("torsal._kernel", "terms_mul", "kernel.mul"),
    ("torsal._kernel", "terms_pow", "kernel.pow"),
    ("torsal._kernel", "terms_eval", "kernel.eval"),
    ("torsal._kernel", "terms_neg", "kernel.neg"),
    ("torsal._kernel", "terms_scale", "kernel.scale"),
    ("torsal.polyring", "det_over_ring", "polyring.det"),
    ("torsal.polyring", "sylvester_resultant", "polyring.resultant"),
    ("torsal.polyring", "discriminant", "polyring.discriminant"),
    ("torsal.polyring", "equal_up_to_scalar", "polyring.equal_up_to_scalar"),
    ("torsal.polyring", "primitive_part", "polyring.primitive_part"),
    ("torsal.polyring", "format_polynomial", "polyring.format"),
    ("torsal.expr", "parse", "expr.parse"),
    ("torsal.expr", "to_polynomial", "expr.to_polynomial"),
    ("torsal.expr", "parse_polynomial", "expr.parse_polynomial"),
    ("torsal.projgeom", "rank", "projgeom.rank"),
    ("torsal.projgeom", "adjugate", "projgeom.adjugate"),
    ("torsal.projgeom", "frame_bourgain", "projgeom.frame"),
    ("torsal.projgeom", "change_polynomial_coordinates", "projgeom.frame"),
    ("torsal.hypersurface", "contains_parametrized", "hypersurface.contains"),
    ("torsal.hypersurface", "contains_point", "hypersurface.contains"),
    ("torsal.hypersurface", "gradient", "hypersurface.gradient"),
    ("torsal.hypersurface", "singular_locus_generators", "hypersurface.singular_locus"),
    ("torsal.hypersurface", "tangent_hyperplane", "hypersurface.tangent_hyperplane"),
    ("torsal.ruled", "gauss_map", "ruled.gauss_map"),
    ("torsal.ruled", "jacobian", "ruled.jacobian"),
    ("torsal.ruled", "generic_rank", "ruled.generic_rank"),
    ("torsal.ruled", "envelope", "ruled.envelope"),
    ("torsal.ruled", "infinity_line_family", "ruled.infinity_line_family"),
    ("torsal.ruled", "implicitize_plane_family", "ruled.implicitize"),
    ("torsal.ruled", "generator_map", "ruled.generator_map"),
    ("torsal.ruled", "focal_system", "ruled.focal_system"),
    ("torsal.ruled", "rational_roots", "ruled.rational_roots"),
    ("torsal.ruled", "focal_points_on_generator", "ruled.focal_points"),
    ("torsal.ruled", "conic_tangency_map", "ruled.conic_tangency_map"),
    ("torsal.ruled", "pencil_structure_report", "ruled.pencil"),
    ("torsal.equivalence", "weierstrass_substitute", "equivalence.weierstrass"),
    ("torsal.equivalence", "replay_step", "equivalence.replay_step"),
    ("torsal.equivalence", "bourgain_affine_chain", "equivalence.chain"),
    ("torsal.equivalence", "sacksteder_to_bourgain", "equivalence.chain"),
    ("torsal.equivalence", "standard_cubic", "equivalence.standard_cubic"),
    ("torsal.catalog", "names", "catalog.lookup"),
    ("torsal.catalog", "get", "catalog.lookup"),
    ("torsal.catalog", "hypersurface", "catalog.lookup"),
    ("torsal.cli", "main", "cli.main"),
)

# functions that call themselves through their module global: the span
# covers the outer call only, and the recursion runs unwrapped, so tracing
# adds no stack depth to it
RECURSIVE = {"to_polynomial"}

ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__neg__", "__pow__", "__truediv__")
METHODS = (  # (module, class, methods, span name)
    ("torsal.polyring", "Polynomial", ARITH, "polyring.arith"),
    ("torsal.polyring", "Polynomial", ("substitute",), "polyring.substitute"),
    ("torsal.polyring", "Polynomial", ("evaluate",), "polyring.evaluate"),
    ("torsal.polyring", "Polynomial", ("partial_derivative",), "polyring.partial_derivative"),
    ("torsal.polyring", "Polynomial", ("coefficients_in",), "polyring.coefficients_in"),
    ("torsal.polyring", "Polynomial", ("homogenize", "dehomogenize", "rename"), "polyring.recontext"),
    ("torsal.projgeom", "FrameMatrix", ("__init__", "invert"), "projgeom.frame"),
    ("torsal.hypersurface", "Hypersurface", ("__init__",), "hypersurface.construct"),
    ("torsal.hypersurface", "ParamMap", ("__init__",), "hypersurface.construct"),
    ("torsal.equivalence", "EquivalenceReport", ("replay",), "equivalence.replay"),
    ("torsal.equivalence", "EquivalenceReport", ("to_jsonable",), "equivalence.render"),
    ("torsal.catalog", "CatalogEntry", ("hypersurface",), "catalog.lookup"),
)


class Tracer:
    """Spans and counters for one traced run; see the module docstring."""

    def __init__(self):
        self.names = []
        self.layers = []
        self._ids = {}
        self.calls, self.total, self.self_time, self.errors = [], [], [], []
        self.counters = defaultdict(float)
        self.peaks = defaultdict(int)
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._patches = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(name.split(".")[0])
            for column in (self.calls, self.errors):
                column.append(0)
            for column in (self.total, self.self_time):
                column.append(0.0)
        return self._ids[name]

    def wrap(self, fn, name, hook=None, rebind=()):
        """``fn`` inside a span; ``hook(args, result, seconds)`` sees each success.

        ``rebind`` lists (owner, attribute) pairs reset to ``fn`` for the
        duration of the call, so a recursive ``fn`` recurses unwrapped.
        """
        nid = self._id(name)
        layer = self.layers[nid]
        layers = self.layers
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, total, self_time, errors = self.calls, self.total, self.self_time, self.errors
        clock = perf_counter

        def wrapper(*args, **kwargs):
            index = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            for owner, attr in rebind:
                setattr(owner, attr, fn)
            start = clock()
            span_start.append(start)
            span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # count an exception once per layer it leaves
                if len(stack) < 2 or layers[span_name[stack[-2][0]]] != layer:
                    errors[nid] += 1
                raise
            finally:
                end = clock()
                for owner, attr in rebind:
                    setattr(owner, attr, wrapper)
                span_end[index] = end
                stack.pop()
                duration = end - start
                calls[nid] += 1
                total[nid] += duration
                self_time[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook_start = clock()
                hook(args, result, duration)
                if stack:  # the hook's own cost is nobody's self time
                    stack[-1][1] += clock() - hook_start
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- hooks ------------------------------------------------------------------

    def _terms_hook(self, args, result, seconds):
        # kernel results are term dicts: {exponents: (numerator, denominator)}
        peaks = self.peaks
        if len(result) > peaks["polyring.peak_terms"]:
            peaks["polyring.peak_terms"] = len(result)

    def _product_hook(self, args, result, seconds):
        # coefficients grow under products; sums add at most one bit
        self._terms_hook(args, result, seconds)
        bits = max((max(abs(n).bit_length(), d.bit_length()) for n, d in result.values()), default=0)
        if bits > self.peaks["polyring.max_coeff_bits"]:
            self.peaks["polyring.max_coeff_bits"] = bits

    def _mul_hook(self, args, result, seconds):
        self.counters["kernel.mul.terms_out"] += len(result)
        self._product_hook(args, result, seconds)

    def _parse_hook(self, args, result, seconds):
        self.counters["expr.parse.bytes"] += len(args[0].encode("utf-8"))

    def _det_hook(self, args, result, seconds):
        size = len(args[0])
        self.counters[f"polyring.det.n{size}.calls"] += 1
        self.counters[f"polyring.det.n{size}.s"] += seconds

    def _hook_for(self, span: str):
        return {
            "kernel.add": self._terms_hook,
            "kernel.mul": self._mul_hook,
            "kernel.pow": self._product_hook,
            "kernel.scale": self._product_hook,
            "expr.parse": self._parse_hook,
            "polyring.det": self._det_hook,
        }.get(span)

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "torsal" or name.startswith("torsal."))
        }
        for module, attr, span in FUNCTIONS:
            fn = getattr(modules[module], attr)
            bindings = [
                (mod, name) for mod in modules.values()
                for name, value in vars(mod).items() if value is fn
            ]
            rebind = bindings if attr in RECURSIVE else ()
            wrapper = self.wrap(fn, span, self._hook_for(span), rebind)
            for mod, name in bindings:
                self._patches.append((mod, name, fn))
                setattr(mod, name, wrapper)
        for module, cls_name, attrs, span in METHODS:
            cls = getattr(modules[module], cls_name)
            for attr in attrs:
                fn = cls.__dict__[attr]
                self._patches.append((cls, attr, fn))
                setattr(cls, attr, self.wrap(fn, span, self._hook_for(span)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates that add up across processes (see ``merge``)."""
        return {
            "spans": {
                name: [self.calls[i], self.total[i], self.self_time[i], self.errors[i]]
                for i, name in enumerate(self.names)
            },
            "counters": dict(self.counters),
            "peaks": dict(self.peaks),
        }

    def span_rows(self):
        """(index, parent, name, start, end) per recorded span."""
        for i in range(len(self.span_start)):
            yield i, self.span_parent[i], self.names[self.span_name[i]], self.span_start[i], self.span_end[i]


def merge(into: dict, summary: dict) -> dict:
    """Add one ``Tracer.summary`` into another (peaks take the maximum)."""
    for name, row in summary["spans"].items():
        cur = into["spans"].setdefault(name, [0, 0.0, 0.0, 0])
        for i, value in enumerate(row):
            cur[i] += value
    for name, value in summary["counters"].items():
        into["counters"][name] = into["counters"].get(name, 0) + value
    for name, value in summary["peaks"].items():
        into["peaks"][name] = max(into["peaks"].get(name, 0), value)
    return into


def empty_summary() -> dict:
    return {"spans": {}, "counters": {}, "peaks": {}}


class ChildTraces:
    """Summaries and spans gathered from traced child processes."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.summary = empty_summary()
        self.rows = []  # (process, index, parent, name, start, end)
        self.count = 0

    def next_path(self):
        self.count += 1
        return self.out_dir / f"child-{self.count}.json"

    def collect(self, path) -> None:
        """Merge one child's summary (absent if the child was killed)."""
        try:
            with open(path, encoding="utf-8") as fh:
                summary = json.load(fh)
        except FileNotFoundError:
            return
        path.unlink()
        process = int(path.stem.rpartition("-")[2])
        self.rows.extend((process, *row) for row in summary.pop("span_rows"))
        merge(self.summary, summary)


# metric name -> unit; the order is the order of BENCHMARK.json's per_layer
LAYER_METRICS = {
    "import.interpreter_ms": "ms",
    "import.torsal_cli_ms": "ms",
    "cli.main.calls": "count/op",
    "cli.self_ms": "ms/op",
    "cli.self_share": "share",
    "kernel.mul.calls": "count/op",
    "kernel.mul.self_ms": "ms/op",
    "kernel.mul.terms_out": "terms/op",
    "kernel.add.calls": "count/op",
    "kernel.add.self_ms": "ms/op",
    "kernel.pow.calls": "count/op",
    "kernel.eval.calls": "count/op",
    "kernel.eval.self_ms": "ms/op",
    "polyring.arith.calls": "count/op",
    "polyring.arith.self_ms": "ms/op",
    "polyring.substitute.self_ms": "ms/op",
    "polyring.format.self_ms": "ms/op",
    "polyring.peak_terms": "terms",
    "polyring.max_coeff_bits": "bits",
    "polyring.det.calls": "count/op",
    "polyring.det.n5_ms": "ms",
    "polyring.det.n7_ms": "ms",
    "polyring.det.n9_ms": "ms",
    "polyring.resultant.ms": "ms",
    "expr.parse.self_ms": "ms/op",
    "expr.parse.bytes": "bytes/op",
    "expr.to_polynomial.self_ms": "ms/op",
    "projgeom.rank.calls": "count/op",
    "projgeom.rank.self_ms": "ms/op",
    "projgeom.adjugate.ms": "ms",
    "projgeom.frame.self_ms": "ms/op",
    "hypersurface.contains.calls": "count/op",
    "hypersurface.contains.self_ms": "ms/op",
    "hypersurface.gradient.self_ms": "ms/op",
    "ruled.focal_system.calls": "count/op",
    "ruled.focal_system.ms": "ms",
    "ruled.envelope.ms": "ms",
    "ruled.generic_rank.self_ms": "ms/op",
    "ruled.pencil.ms": "ms",
    "equivalence.chain.ms": "ms",
    "equivalence.replay.ms": "ms",
    "catalog.lookup.calls": "count/op",
    **{f"{layer}.errors": "count/op" for layer in LAYERS},
    "trace.overhead_ops_per_s": "1/s",
    "trace.overhead_share": "share",
}


def layer_values(summary: dict, ops: int) -> dict:
    """Per-layer metric values from a merged summary over ``ops`` operations.

    ``*.calls`` and ``*.errors`` are per operation; ``*.self_ms`` is self
    time per operation; a bare ``*.ms`` is the mean inclusive time of one
    call of that span (0 when it never ran). The import and trace
    metrics are measured by the caller.
    """
    spans, counters, peaks = summary["spans"], summary["counters"], summary["peaks"]

    def row(span):
        return spans.get(span, [0, 0.0, 0.0, 0])

    def per_op(value):
        return value / ops

    def mean_ms(span):
        calls, total = row(span)[:2]
        return total * 1000 / calls if calls else 0.0

    def det_ms(size):
        calls = counters.get(f"polyring.det.n{size}.calls", 0)
        return counters.get(f"polyring.det.n{size}.s", 0.0) * 1000 / calls if calls else 0.0

    cli_calls, cli_total, cli_self, _ = row("cli.main")
    values = {
        "cli.main.calls": per_op(cli_calls),
        "cli.self_ms": per_op(cli_self * 1000),
        "cli.self_share": cli_self / cli_total if cli_total else 0.0,
        "kernel.mul.terms_out": per_op(counters.get("kernel.mul.terms_out", 0)),
        "polyring.peak_terms": peaks.get("polyring.peak_terms", 0),
        "polyring.max_coeff_bits": peaks.get("polyring.max_coeff_bits", 0),
        "polyring.det.n5_ms": det_ms(5),
        "polyring.det.n7_ms": det_ms(7),
        "polyring.det.n9_ms": det_ms(9),
        "expr.parse.bytes": per_op(counters.get("expr.parse.bytes", 0)),
    }
    for metric in LAYER_METRICS:
        if metric in values or metric.startswith(("import.", "trace.")):
            continue
        span, _, what = metric.rpartition(".")
        if what == "calls":
            values[metric] = per_op(row(span)[0])
        elif what == "self_ms":
            values[metric] = per_op(row(span)[2] * 1000)
        elif what == "ms":
            values[metric] = mean_ms(span)
        elif what == "errors":
            values[metric] = per_op(sum(r[3] for name, r in spans.items() if name.split(".")[0] == span))
        else:
            raise KeyError(metric)
    return values
