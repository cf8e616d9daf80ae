"""The four workloads: seeded inputs, the operations to time, their checks.

Every workload is a closed loop with one client: an operation starts
when the previous one has finished. A workload hands out its operations
one cycle at a time; each cycle has a fixed mix of operation kinds, with
inputs drawn from ``random.Random(f"{seed}:{name}:{cycle}")``, so the
mix is the same on every seed and only the inputs change. Expected
values are computed when the cycle is built, before any of its
operations is timed.
"""

from __future__ import annotations

import contextlib
import io
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, Optional

import refs
from calibrate import Yardstick
from checkout import ROOT, SRC, CheckoutError, child_env
from cli_cases import CliCase, CliCases

CHILD = Path(__file__).with_name("child.py")
# cold-start times read as if `python -c pass` took this long (calibrate.py)
INTERPRETER_REF_S = 0.05
# random expressions whose total degree could pass this are drawn again:
# a handful of huge ones would make a cycle's work depend on the seed
MAX_RANDOM_DEGREE = 12


@dataclass
class Op:
    """One timed call. ``check`` gets its result and returns None when it
    is right, else ``("wrong" | "failed", reason)``."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[tuple]]


def _rational(rng, lo=-9, hi=9, den=9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _nonzero(rng, bound=9) -> int:
    return rng.choice([k for k in range(-bound, bound + 1) if k])


def _expect(ok: bool, reason: str):
    return None if ok else ("wrong", reason)


# -- cli-session and cold-start ------------------------------------------------


class CliSession:
    """In-process ``cli.main(argv)`` over a seeded mix of all nine subcommands.

    Why: every polynomial is small, so per-object overhead in polyring
    and the cli layer (argparse, error mapping, JSON) dominate.
    """

    name = "cli-session"
    TAIL_PERCENTILE = 95  # about 5000 calls in 20 s; p95 falls among the 6 focal calls

    def __init__(self, seed: int):
        from torsal import cli

        self.cli = cli
        self.seed = seed
        self.cases = CliCases()

    def _op(self, case: CliCase) -> Op:
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(case.argv)
            return code, out.getvalue(), err.getvalue()

        return Op(case.kind, run, lambda result: case.check(*result))

    def yardstick(self) -> Yardstick:
        return Yardstick.small()

    def cycle(self, index: int) -> list:
        rng = random.Random(f"{self.seed}:{self.name}:{index}")
        return [self._op(case) for case in self.cases.session_cycle(rng)]

    def warmup(self) -> list:
        return self.cycle(-1)


class ColdStart:
    """Each operation is a fresh ``python -m torsal <subcommand>`` process.

    Why: this is what a shell user waits for; interpreter start and the
    import of torsal dominate, so it is the only workload where the
    import layer shows.
    """

    name = "cold-start"
    TAIL_PERCENTILE = 75  # about 130 processes in 20 s

    def __init__(self, seed: int):
        self.seed = seed
        self.cases = CliCases()
        self.env = child_env()
        self.command = [sys.executable, "-m", "torsal"]
        self.child_traces = None
        code, out, _ = self.spawn([sys.executable, "-c", "import torsal; print(torsal.__file__)"])
        if code != 0 or SRC.resolve() not in Path(out.strip()).resolve().parents:
            raise CheckoutError(f"child processes import torsal from {out.strip()!r}, not {SRC}")

    def yardstick(self) -> Yardstick:
        return Yardstick(lambda: self.spawn([sys.executable, "-c", "pass"]),
                         ref_s=INTERPRETER_REF_S, every_s=0.4, repeat=1)

    def trace_children(self, child_traces) -> None:
        """Run each later operation in a traced child (see child.py trace)."""
        self.child_traces = child_traces

    def spawn(self, argv: list):
        proc = subprocess.run(
            argv, cwd=ROOT, env=self.env, capture_output=True, timeout=120
        )
        return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")

    def _op(self, case: CliCase) -> Op:
        if self.child_traces is None:
            return Op(
                case.kind,
                lambda: self.spawn(self.command + case.argv),
                lambda result: case.check(*result),
            )
        path = self.child_traces.next_path()
        command = [sys.executable, str(CHILD), "trace", str(path)] + case.argv

        def check(result):
            self.child_traces.collect(path)
            return case.check(*result)

        return Op(case.kind, lambda: self.spawn(command), check)

    def cycle(self, index: int) -> list:
        rng = random.Random(f"{self.seed}:{self.name}:{index}")
        return [self._op(case) for case in self.cases.cold_cycle(rng)]

    def warmup(self) -> list:
        return [self._op(self.cases.catalog())]


# -- expand ----------------------------------------------------------------------


def random_expression(rng, names, depth=3) -> str:
    """Random text from the grammar's own productions (see torsal.expr)."""

    def base(d):
        roll = rng.random()
        if d <= 0 or roll < 0.3:
            return str(rng.randint(0, 99))
        if roll < 0.6:
            return rng.choice(names)
        if roll < 0.8:
            return "(" + expr(d - 1) + ")"
        return "-" + base(d - 1)

    def factor(d):
        text = base(d)
        if rng.random() < 0.4:
            text += "^" + str(rng.randint(0, 4))
        return text

    def term(d):
        return "*".join(factor(d) for _ in range(rng.randint(1, 3)))

    def expr(d):
        pieces = [term(d)]
        for _ in range(rng.randint(0, 3)):
            pieces.append(rng.choice(["+", "-"]))
            pieces.append(term(d))
        return rng.choice(["", " "]).join(pieces)

    return expr(depth)


class _Degree:
    """Upper bound on total degree, in the operations the grammar has."""

    def __init__(self, d):
        self.d = d

    def __add__(self, other):
        return _Degree(max(self.d, other.d))

    __sub__ = __add__

    def __mul__(self, other):
        return _Degree(self.d + other.d)

    def __pow__(self, n):
        return _Degree(self.d * n)

    def __neg__(self):
        return self


def _degree_bound(text, names) -> int:
    return refs.eval_expression(text, {n: _Degree(1) for n in names}, lambda _: _Degree(0)).d


class Expand:
    """Parse, expand, canonically print and reparse; change coordinates.

    Why: term dicts get large, so kernel multiplication and the
    canonical sort in polyring do the work; cli and linear algebra do
    none. The sweep keeps (x+y+z)^44, whose canonical reparse is a known
    RecursionError, so that failure is counted, not hidden.
    """

    name = "expand"
    TAIL_PERCENTILE = 95  # about 450 operations in 20 s
    SWEEPS = (  # (base, coefficients of the base's linear form, exponents)
        ("x+y+z", (1, 1, 1), (10, 20, 30, 36, 36, 40, 44)),
        ("w+x+2*y-3*z", (1, 1, 2, -3), (5, 10, 15)),
    )
    # The counts (60 operations a cycle) place the median inside the block
    # of quartic coordinate changes and p95 in the middle of the two
    # (x+y+z)^36 sweeps, so neither lands between two kinds of operation
    # whose times differ a lot.
    RANDOM_PER_CYCLE = 16
    CUBIC_FRAMES = 4
    QUARTIC_FRAMES = 30
    RANDOM_NAMES = ("p", "z1", "z2", "z3")

    def __init__(self, seed: int):
        from torsal import catalog, expr, polyring, projgeom

        self.expr, self.polyring, self.projgeom = expr, polyring, projgeom
        self.seed = seed
        self.cubic = catalog.hypersurface("bourgain").f
        self.zctx = self.cubic.context
        self.contexts = {
            3: polyring.VarContext(["x", "y", "z"]),
            4: polyring.VarContext(["w", "x", "y", "z"]),
        }
        self.random_ctx = polyring.VarContext(self.RANDOM_NAMES)

    def _round_trip(self, text, ctx):
        f = self.expr.parse_polynomial(text, ctx)
        canonical = self.polyring.format_polynomial(f)
        return f, canonical, self.expr.parse_polynomial(canonical, ctx)

    def sweep_op(self, rng, base, coeffs, n) -> Op:
        ctx = self.contexts[len(coeffs)]
        point = [_rational(rng) for _ in coeffs]
        expected = sum(c * x for c, x in zip(coeffs, point)) ** n
        count = comb(n + len(coeffs) - 1, len(coeffs) - 1)
        values = dict(zip(ctx.names, point))

        def run():
            f, canonical, g = self._round_trip(f"({base})^{n}", ctx)
            return f, canonical, g, f.evaluate(point)

        def check(result):
            f, canonical, g, value = result
            return (
                _expect(f.term_count() == count, f"({base})^{n}: term count")
                or _expect(value == expected, f"({base})^{n}: value at a point")
                or _expect(g == f, f"({base})^{n}: reparse differs")
                or _expect(refs.eval_expression(canonical, values) == expected,
                           f"({base})^{n}: canonical text value")
            )

        return Op(f"sweep/{len(coeffs)}v-{n}", run, check)

    def random_op(self, rng) -> Op:
        text = random_expression(rng, self.RANDOM_NAMES)
        while _degree_bound(text, self.RANDOM_NAMES) > MAX_RANDOM_DEGREE:
            text = random_expression(rng, self.RANDOM_NAMES)
        point = [_rational(rng) for _ in self.RANDOM_NAMES]
        values = dict(zip(self.RANDOM_NAMES, point))
        expected = refs.eval_expression(text, values)

        def run():
            f, canonical, g = self._round_trip(text, self.random_ctx)
            return f, canonical, g, f.evaluate(point)

        def check(result):
            f, canonical, g, value = result
            return (
                _expect(value == expected, f"{text!r}: value at a point")
                or _expect(g == f, f"{text!r}: reparse differs")
                or _expect(refs.eval_expression(canonical, values) == expected,
                           f"{text!r}: canonical text value")
            )

        return Op("random-expression", run, check)

    def frame_op(self, rng, quartic: bool) -> Op:
        while True:  # dense, so every image is a full linear form and the work is even
            rows = [[_nonzero(rng, 3) for _ in range(5)] for _ in range(5)]
            if refs.det_fraction(rows):
                break
        if quartic:
            terms = {}
            while len(terms) < 12:
                exps = [0] * 5
                for _ in range(4):
                    exps[rng.randrange(5)] += 1
                terms[tuple(exps)] = _nonzero(rng)
            f = self.polyring.Polynomial(self.zctx, terms)
            ref_terms = [(c, e) for e, c in terms.items()]
        else:
            f = self.cubic
            ref_terms = [(c, m.exponents) for m, c in f.sorted_terms()]
        degree = 4 if quartic else 3
        point = [_rational(rng) for _ in range(5)]
        # variable i becomes sum_j rows[i][j] * var_j, so g(v) = f(rows . v)
        image = [sum(Fraction(m) * x for m, x in zip(row, point)) for row in rows]
        expected = refs.eval_terms(ref_terms, image)

        def run():
            frame = self.projgeom.FrameMatrix(rows)
            g = self.projgeom.change_polynomial_coordinates(f, frame)
            return g, g.evaluate(point)

        def check(result):
            g, value = result
            return (
                _expect(value == expected, "coordinate change: value at a point")
                or _expect(g.is_homogeneous() and g.total_degree() == degree,
                           "coordinate change: degree or homogeneity")
            )

        return Op("frame-quartic" if quartic else "frame-cubic", run, check)

    def yardstick(self) -> Yardstick:
        return Yardstick.large()

    def cycle(self, index: int) -> list:
        rng = random.Random(f"{self.seed}:{self.name}:{index}")
        ops = [
            self.sweep_op(rng, base, coeffs, n)
            for base, coeffs, exponents in self.SWEEPS
            for n in exponents
        ]
        ops += [self.random_op(rng) for _ in range(self.RANDOM_PER_CYCLE)]
        ops += [self.frame_op(rng, quartic=False) for _ in range(self.CUBIC_FRAMES)]
        ops += [self.frame_op(rng, quartic=True) for _ in range(self.QUARTIC_FRAMES)]
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list:
        rng = random.Random(f"{self.seed}:{self.name}:warmup")
        return [self.sweep_op(rng, "x+y+z", (1, 1, 1), 10), self.random_op(rng),
                self.frame_op(rng, quartic=True)]


# -- eliminate -------------------------------------------------------------------


def _dense_family(rng, degree):
    """Coefficient triples (a_k, b_k, c_k) of sum_k p^k (a_k z1 + b_k z2 + c_k z3)."""
    return [(_nonzero(rng), _nonzero(rng), _nonzero(rng)) for _ in range(degree + 1)]


def _homogenized_family_value(triples, z):
    """z0^d * f(p = z4/z0) at z = (z0, z1, z2, z3, z4): the implicit surface."""
    z0, z1, z2, z3, z4 = z
    d = len(triples) - 1
    return sum(
        z0 ** (d - k) * z4 ** k * (a * z1 + b * z2 + c * z3)
        for k, (a, b, c) in enumerate(triples)
    )


class Eliminate:
    """Resultants and determinants over the polynomial ring.

    Why: det_over_ring does the work; envelopes of dense line families
    of degree 3, 4 and 5 in p give 5x5, 7x7 and 9x9 Sylvester matrices,
    so the per-size times expose its growth. Degree 6 (about 5.7 s per
    envelope at the seed) is left out to fit the run length.
    """

    name = "eliminate"
    TAIL_PERCENTILE = 95  # about 500 operations in 20 s
    ENVELOPES = ((3, 4), (4, 2), (5, 1))  # (degree in p, envelopes per cycle)
    POINTS = 4

    def __init__(self, seed: int):
        from torsal import catalog, polyring, ruled

        self.polyring, self.ruled = polyring, ruled
        self.seed = seed
        self.ctx = polyring.VarContext(["p", "z1", "z2", "z3"])
        self.cubic = catalog.hypersurface("bourgain")
        self.cubic_family = ruled.infinity_line_family(self.cubic)
        # the slice z0 = 1, z4 = p of the cubic: z1*p^2 + z2*p - z3
        self.cubic_triples = [(0, 0, -1), (0, 1, 0), (1, 0, 0)]

    def _family(self, triples):
        terms = {}
        for k, (a, b, c) in enumerate(triples):
            for exps, coef in (((k, 1, 0, 0), a), ((k, 0, 1, 0), b), ((k, 0, 0, 1), c)):
                if coef:
                    terms[exps] = coef
        return self.polyring.Polynomial(self.ctx, terms)

    def envelope_op(self, rng, degree) -> Op:
        triples = _dense_family(rng, degree)
        family = self._family(triples)
        points = [[_rational(rng) for _ in range(3)] for _ in range(self.POINTS)]
        expected = []
        for z1, z2, z3 in points:
            f = [a * z1 + b * z2 + c * z3 for a, b, c in reversed(triples)]
            df = [k * c for k, c in zip(range(degree, 0, -1), f)]
            expected.append(refs.sylvester_det(f, df))

        def run():
            return self.ruled.envelope(self.ruled.LineFamily(family, "p"))

        def check(env):
            if any(m.exponents[0] for m, _ in env.sorted_terms()):
                return "wrong", f"envelope of degree {degree}: still involves p"
            got = [refs.poly_value(env, [0] + z) for z in points]
            return _expect(refs.same_up_to_ratio(zip(got, expected)),
                           f"envelope of degree {degree}: not the Sylvester determinant")

        return Op(f"envelope/{degree}", run, check)

    def focal_op(self, rng) -> Op:
        points = [(_rational(rng), _rational(rng)) for _ in range(self.POINTS)]

        def check(fs):
            for q, lam in points:
                m = [[refs.poly_value(e, (q, lam)) for e in row] for row in fs.matrix]
                det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
                if det != -lam * lam or refs.poly_value(fs.determinant, (q, lam)) != -lam * lam:
                    return "wrong", "focal system: determinant is not -lam^2"
            return None

        return Op("focal-system", self.ruled.focal_system, check)

    def implicitize_op(self, rng, cubic: bool) -> Op:
        if cubic:
            triples, family = self.cubic_triples, self.cubic_family
        else:
            # triangular: z1 has a constant coefficient, z2 and z3 cubic ones
            degree = 3
            a = [_nonzero(rng)] + [0] * degree
            triples = [(a[k], _nonzero(rng), rng.randint(-9, 9)) for k in range(degree + 1)]
            family = self.ruled.LineFamily(self._family(triples), "p")
        points = [[_rational(rng) for _ in range(5)] for _ in range(self.POINTS)]
        expected = [_homogenized_family_value(triples, z) for z in points]

        def run():
            return self.ruled.implicitize_plane_family(family)

        def check(h):
            if cubic and h.f != self.cubic.f:
                return "wrong", "implicitization does not recover the cubic"
            got = [refs.poly_value(h.f, z) for z in points]
            return _expect(refs.same_up_to_ratio(zip(got, expected)),
                           "implicitization: not the homogenized family")

        return Op("implicitize/cubic" if cubic else "implicitize/seeded", run, check)

    def yardstick(self) -> Yardstick:
        return Yardstick.small()

    def cycle(self, index: int) -> list:
        rng = random.Random(f"{self.seed}:{self.name}:{index}")
        ops = [self.envelope_op(rng, d) for d, count in self.ENVELOPES for _ in range(count)]
        ops += [self.focal_op(rng) for _ in range(2)]
        ops += [self.implicitize_op(rng, cubic=True), self.implicitize_op(rng, cubic=False)]
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list:
        rng = random.Random(f"{self.seed}:{self.name}:warmup")
        return [self.envelope_op(rng, 3), self.focal_op(rng),
                self.implicitize_op(rng, cubic=False)]


WORKLOADS = {w.name: w for w in (ColdStart, CliSession, Expand, Eliminate)}
