"""CLI invocations for the ``cli-session`` and ``cold-start`` workloads.

Each case pairs an argv with the outcome the CLI contract documents:
the exit code, the exact stdout bytes, and for errors the JSON error
type on stderr. Byte-exact stdout comes from ``expected_cli.json``
(written once by ``make_expected.py``); for focal and gauss-rank the
seeded fields are filled in from Fraction arithmetic. Hand-written
checks of the key facts run on top of the byte comparison.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

EXPECTED_PATH = Path(__file__).with_name("expected_cli.json")

# documented exit codes (torsal.cli): 0 success, 1 verification, 2 usage
EXIT_VERIFY, EXIT_USAGE = 1, 2

GAUSS_MAPS = {  # name: (surface, param map, params, generic rank)
    "ruling": ("bourgain", "1,u,v-p*u,p*v,p", "p,u,v", 2),
    "cylinder": ("cylinder-control", "1,t,u,v,t^2", "t,u,v", 1),
    "quadric": ("quadric-control", "1,t,u,v,t^2+u^2+v^2", "t,u,v", 3),
}
NOT_CONTAINED = {
    "bourgain-off": ("bourgain", "1,u,v,p*v,p", "p,u,v"),
    "cylinder-off": ("cylinder-control", "1,t,u,v,t", "t,u,v"),
}
ENVELOPE_FAMILIES = (
    "p^2*z1 + p*z2 - z3",
    "3*p^2*z1 - 2*p*z2 + 5*z3",
    "(p^2 + 1)*z1 + 2*p*z2 - z3",
    "p^2*z2 - 4*p*z1 + 7*z3",
    "2*p^2*z3 + p*z1 - p*z2 + z1",
    "-(p^2)*z1 + 6*p*z3 - 9*z2",
)
PARSE_EXPRESSIONS = (
    "(p+z1)^3 - z2*z3",
    "-z1^2 + 3*p*z2",
    "2*(z1 - z3)^2*p",
    "(p - 1)*(p + 1)",
    "z1*z2*z3 - p^3 + 7",
    "((z1+z2)^2 - z3)^2",
    "-(p^2) - -z1",
    "4 - 3*z3^3*p",
)
SURFACES = (
    "bourgain",
    "bourgain-affine",
    "sacksteder-rational",
    "cylinder-control",
    "quadric-control",
)
PENCIL_VERDICT = "torsal: pencils of lines, centers on conic C"
ZERO_MAP_ARGV = [
    "verify-parametrization", "--surface", "bourgain",
    "--param-map", "0,0,0,0,0", "--params", "t",
]


def golden_argvs() -> dict:
    """Every case whose stdout is stored byte for byte, by case id."""
    out = {}
    for name, (surface, pmap, params, _) in GAUSS_MAPS.items():
        out[f"gauss-rank/{name}"] = [
            "gauss-rank", "--surface", surface, "--param-map", pmap,
            "--params", params, "--seed=1729",
        ]
        out[f"verify/{name}"] = [
            "verify-parametrization", "--surface", surface,
            "--param-map", pmap, "--params", params,
        ]
    for name, (surface, pmap, params) in NOT_CONTAINED.items():
        out[f"verify/{name}"] = [
            "verify-parametrization", "--surface", surface,
            "--param-map", pmap, "--params", params,
        ]
    out["focal"] = ["focal", "--surface", "bourgain", "--p=1", "--q=1"]
    out["pencil/bourgain"] = ["pencil-report", "--surface", "bourgain"]
    out["equivalence/sacksteder"] = ["equivalence-check", "--chain", "sacksteder"]
    out["equivalence/affine"] = ["equivalence-check", "--chain", "affine"]
    for i, family in enumerate(ENVELOPE_FAMILIES):
        out[f"envelope/{i}"] = ["envelope", f"--family={family}"]
    out["catalog"] = ["catalog"]
    for i, text in enumerate(PARSE_EXPRESSIONS):
        out[f"parse-check/{i}"] = ["parse-check", f"--expr={text}", "--vars", "p,z1,z2,z3"]
    for surface in SURFACES:
        out[f"singular-locus/{surface}"] = ["singular-locus", "--surface", surface]
    return out


@dataclass
class CliCase:
    """One CLI call and the outcome its contract documents."""

    kind: str
    argv: list
    exit: int
    stdout: str
    error_type: Optional[str] = None
    byte_offset: Optional[int] = None
    fact: Optional[Callable[[dict], bool]] = None

    def check(self, code: int, out: str, err: str):
        """None when the outcome matches, else (kind, reason).

        A traceback is a crash ("failed"); any other deviation is a wrong
        result ("wrong").
        """
        if "Traceback (most recent call last)" in err:
            return "failed", f"{self.kind}: traceback, exit {code}"
        if code != self.exit:
            return "wrong", f"{self.kind}: exit {code}, expected {self.exit}"
        if out != self.stdout:
            return "wrong", f"{self.kind}: stdout differs from the expected bytes"
        if self.error_type is not None:
            try:
                body = json.loads(err)["error"]
            except (ValueError, KeyError, TypeError):
                return "wrong", f"{self.kind}: stderr is not a JSON error"
            if body.get("type") != self.error_type:
                return "wrong", f"{self.kind}: error type {body.get('type')!r}"
            if self.byte_offset is not None and body.get("byte_offset") != self.byte_offset:
                return "wrong", f"{self.kind}: byte offset {body.get('byte_offset')!r}"
        if self.fact is not None and not self.fact(json.loads(out)):
            return "wrong", f"{self.kind}: hand-written fact check failed"
        return None


def _dumps(payload: dict) -> str:
    # the CLI renders with json.dump(payload, indent=2) plus a newline
    return json.dumps(payload, indent=2) + "\n"


def _rational(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _focal_fact(payload) -> bool:
    (root,) = payload["roots"]
    return (
        payload["determinant"] == "-1*lam^2"
        and root["lam"] == "0"
        and root["multiplicity"] == 2
        and root["at_infinity"] is True
    )


class CliCases:
    """Seeded case builders over the stored expected outputs."""

    def __init__(self, expected_path: Path = EXPECTED_PATH):
        with open(expected_path, encoding="utf-8") as fh:
            self.golden = json.load(fh)
        missing = set(golden_argvs()) - set(self.golden)
        if missing:
            raise ValueError(f"{expected_path} lacks cases: {sorted(missing)}")

    def _stored(self, case_id: str, fact=None) -> CliCase:
        entry = self.golden[case_id]
        return CliCase(case_id, list(entry["argv"]), entry["exit"], entry["stdout"], fact=fact)

    def gauss_rank(self, rng, name: str) -> CliCase:
        rank = GAUSS_MAPS[name][3]
        seed = rng.randrange(1 << 64)
        case = self._stored(f"gauss-rank/{name}", fact=lambda p: p["rank"] == rank)
        case.argv[-1] = f"--seed={seed}"
        payload = json.loads(case.stdout)
        payload["seed"] = seed
        case.stdout = _dumps(payload)
        return case

    def verify(self, name: str) -> CliCase:
        contained = name in GAUSS_MAPS
        return self._stored(
            f"verify/{name}",
            fact=lambda p: p["contained"] is contained and (p["residual"] == "0") is contained,
        )

    def focal(self, rng) -> CliCase:
        p, q = _rational(rng), _rational(rng)
        case = self._stored("focal", fact=_focal_fact)
        case.argv[-2:] = [f"--p={p}", f"--q={q}"]
        payload = json.loads(case.stdout)
        payload["p"], payload["q"] = str(p), str(q)
        # the double focal point at lam = 0 is frame row B1 = (0, 1, -2p, -p^2, 0)
        payload["roots"][0]["point"] = ["0", "1", str(-2 * p), str(-p * p), "0"]
        case.stdout = _dumps(payload)
        return case

    def pencil(self) -> CliCase:
        return self._stored(
            "pencil/bourgain",
            fact=lambda p: p["verdict"] == PENCIL_VERDICT and all(c["passed"] for c in p["checks"]),
        )

    def pencil_rejected(self) -> CliCase:
        # any surface but the standard cubic is a documented verification failure
        return CliCase("pencil/quadric", ["pencil-report", "--surface", "quadric-control"],
                       EXIT_VERIFY, "", error_type="verification")

    def equivalence(self, chain: str) -> CliCase:
        def fact(p):
            flipped_ok = p.get("z3_sign_flipped") is True if chain == "sacksteder" else True
            return p["chain"] == chain and Fraction(p["scalar"]) != 0 and flipped_ok
        return self._stored(f"equivalence/{chain}", fact=fact)

    def envelope(self, rng) -> CliCase:
        i = rng.randrange(len(ENVELOPE_FAMILIES))
        return self._stored(f"envelope/{i}", fact=lambda p: p["method"] == "discriminant")

    def catalog(self) -> CliCase:
        return self._stored("catalog", fact=lambda p: tuple(s["name"] for s in p["surfaces"]) == SURFACES)

    def parse_check(self, rng) -> CliCase:
        return self._stored(f"parse-check/{rng.randrange(len(PARSE_EXPRESSIONS))}")

    def singular_locus(self, rng) -> CliCase:
        surface = rng.choice(SURFACES)
        fact = None
        if surface == "bourgain":
            fact = lambda p: p["plane_certificate"]["vanishes_identically"] is True  # noqa: E731
        return self._stored(f"singular-locus/{surface}", fact=fact)

    # -- malformed input, expected outcome from the documented contract --

    def syntax_error(self, rng) -> CliCase:
        text = rng.choice(PARSE_EXPRESSIONS)
        pos = rng.randrange(len(text) + 1)
        bad = text[:pos] + rng.choice("$#@!?;&") + text[pos:]
        return CliCase("malformed/syntax", ["parse-check", f"--expr={bad}", "--vars", "p,z1,z2,z3"],
                       EXIT_USAGE, "", error_type="syntax", byte_offset=len(bad[:pos].encode()))

    def unknown_surface(self, rng) -> CliCase:
        name = f"surface-{rng.randrange(1 << 32):08x}"
        return CliCase("malformed/surface", ["singular-locus", "--surface", name],
                       EXIT_USAGE, "", error_type="usage")

    def bad_seed(self, rng) -> CliCase:
        seed = rng.choice([(1 << 64) + rng.randrange(1 << 32), -1 - rng.randrange(1 << 32)])
        surface, pmap, params, _ = GAUSS_MAPS["cylinder"]
        argv = ["gauss-rank", "--surface", surface, "--param-map", pmap,
                "--params", params, f"--seed={seed}"]
        return CliCase("malformed/seed", argv, EXIT_USAGE, "", error_type="usage")

    def zero_map(self) -> CliCase:
        # all-zero components define no map: a usage error by contract
        return CliCase("malformed/zero-map", list(ZERO_MAP_ARGV), EXIT_USAGE, "", error_type="usage")

    # -- workload mixes ------------------------------------------------------

    def session_cycle(self, rng: random.Random) -> list:
        """40 calls over all nine subcommands; 4 of them malformed."""
        cases = []
        for name in GAUSS_MAPS:
            cases += [self.gauss_rank(rng, name) for _ in range(2)]
        cases += [self.verify(rng.choice(list(GAUSS_MAPS))) for _ in range(2)]
        cases += [self.verify(name) for name in NOT_CONTAINED]
        cases += [self.focal(rng) for _ in range(6)]
        cases += [self.pencil(), self.pencil_rejected()]
        cases += [self.equivalence(c) for c in ("sacksteder", "affine") for _ in range(2)]
        cases += [self.envelope(rng) for _ in range(4)]
        cases += [self.catalog() for _ in range(2)]
        cases += [self.parse_check(rng) for _ in range(4)]
        cases += [self.singular_locus(rng) for _ in range(4)]
        cases += [self.syntax_error(rng), self.unknown_surface(rng),
                  self.bad_seed(rng), self.zero_map()]
        rng.shuffle(cases)
        return cases

    def cold_cycle(self, rng: random.Random) -> list:
        """The cheap subcommands a shell user runs one process at a time."""
        return [self.catalog(), self.focal(rng),
                self.equivalence(rng.choice(("sacksteder", "affine")))]
