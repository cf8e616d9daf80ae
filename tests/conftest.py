"""Shared fixtures and the acceptance-criteria reporter.

The reporter collects outcomes of the tests in test_acceptance.py and
prints one ``criterion N (...): PASS/FAIL`` line per criterion at the
end of the run, so the acceptance record survives output capturing.
"""

import random
import re
from fractions import Fraction

import pytest

from torsal import catalog, equivalence, ruled
from torsal.polyring import Polynomial, VarContext

PROJECTIVE = ("z0", "z1", "z2", "z3", "z4")


@pytest.fixture
def zctx() -> VarContext:
    return VarContext(PROJECTIVE)


# every process-wide memo: what each process derives once. A fact of a
# surface lives on the surface, so clearing catalog.hypersurface drops the
# catalog surfaces together with their facts.
CERTIFICATES = (
    equivalence.sacksteder_to_bourgain,
    equivalence.bourgain_affine_chain,
    ruled.focal_system,
    catalog.hypersurface,
)


@pytest.fixture
def uncached_certificates():
    """Every memo of CERTIFICATES derived afresh inside the test, so a
    patched helper is read and a count of derivations does not depend on
    the tests that ran before; the memos are cleared again afterwards, so
    nothing derived with a patched helper outlives the test. A surface
    built before the fixture ran keeps the facts derived on it, so such a
    test takes its catalog surfaces from catalog.hypersurface inside it."""
    for certificate in CERTIFICATES:
        certificate.cache_clear()
    yield
    for certificate in CERTIFICATES:
        certificate.cache_clear()


def make_random_polynomial(
    rng: random.Random,
    context: VarContext,
    max_terms: int = 6,
    max_exp: int = 3,
    nonzero: bool = False,
) -> Polynomial:
    """Small random polynomial with rational coefficients."""
    n = len(context.names)
    terms = {}
    count = rng.randint(1 if nonzero else 0, max_terms)
    for _ in range(count):
        exps = tuple(rng.randint(0, max_exp) for _ in range(n))
        coef = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        terms[exps] = terms.get(exps, Fraction(0)) + coef
    f = Polynomial(context, {e: c for e, c in terms.items() if c})
    if nonzero and f.is_zero():
        return context.variable(context.names[0])
    return f


def make_random_homogeneous(
    rng: random.Random, context: VarContext, degree: int, max_terms: int = 6
) -> Polynomial:
    """Random homogeneous polynomial of the exact given degree."""
    n = len(context.names)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * n
        for _ in range(degree):
            exps[rng.randrange(n)] += 1
        coef = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coef
    f = Polynomial(context, {e: c for e, c in terms.items() if c})
    if f.is_zero():
        exps = [degree] + [0] * (n - 1)
        f = Polynomial(context, {tuple(exps): 1})
    return f


@pytest.fixture
def rand_poly():
    return make_random_polynomial


@pytest.fixture
def rand_homog():
    return make_random_homogeneous


# ---------------------------------------------------------------------------
# acceptance reporting

_CRITERION = re.compile(r"test_c(\d+)_(\w+)")
_acceptance_results = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    match = _CRITERION.search(report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    label = match.group(2).replace("_", " ")
    if report.when == "call":
        outcome = "PASS" if report.passed else "FAIL"
        _acceptance_results[number] = (label, outcome)
    elif report.when == "setup" and (report.failed or report.skipped):
        _acceptance_results[number] = (label, "FAIL")


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_acceptance_results):
        label, outcome = _acceptance_results[number]
        terminalreporter.write_line(f"criterion {number} ({label}): {outcome}")
