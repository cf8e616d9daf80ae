"""Named built-in surfaces for the CLI and the test suite.

Affine entries are stored as given and homogenized on demand by
``CatalogEntry.hypersurface()``, so every entry — affine or not — yields
a valid homogeneous hypersurface through one accessor.
"""

from __future__ import annotations

from functools import cache

from torsal._record import Record
from torsal.hypersurface import Hypersurface
from torsal.polyring import Polynomial, VarContext

PROJECTIVE_NAMES = ("z0", "z1", "z2", "z3", "z4")
RATIONAL_NAMES = ("x1", "x2", "x4", "u", "v")


class CatalogEntry(Record):
    __slots__ = ("name", "polynomial", "homogeneous", "description")
    name: str
    polynomial: Polynomial
    homogeneous: bool
    description: str

    def hypersurface(self) -> Hypersurface:
        """The entry as a homogeneous hypersurface.

        Affine entries are homogenized to their total degree with a new
        first variable and renamed to the projective coordinates."""
        if self.homogeneous:
            return Hypersurface(self.polynomial)
        f = self.polynomial.homogenize("z0", self.polynomial.total_degree())
        return Hypersurface(f.rename(PROJECTIVE_NAMES))


def _build() -> dict:
    zctx = VarContext(PROJECTIVE_NAMES)
    z0, z1, z2, z3, z4 = zctx.variables()

    actx = VarContext(["x1", "x2", "x3", "x4"])
    x1, x2, x3, x4 = actx.variables()

    rctx = VarContext(RATIONAL_NAMES)
    r1, r2, r4, u, v = rctx.variables()

    entries = [
        CatalogEntry(
            "bourgain",
            z1 * z4 ** 2 + z0 * z2 * z4 - z0 ** 2 * z3,
            True,
            "ruled cubic, tangentially degenerate of rank 2; singular "
            "exactly on the plane z0 = z4 = 0",
        ),
        CatalogEntry(
            "bourgain-affine",
            x1 * x4 ** 2 + x2 * x4 - x3,
            False,
            "affine chart of the ruled cubic (homogenizes to 'bourgain')",
        ),
        CatalogEntry(
            "sacksteder-rational",
            (r4 + r1) * u ** 2 + (r4 - r1) * v ** 2 - 2 * r2 * u * v,
            True,
            "half-angle rational model of the rotating-line surface; "
            "linearly identified with 'bourgain'",
        ),
        CatalogEntry(
            "cylinder-control",
            z1 ** 2 - z0 * z4,
            True,
            "control surface: parabolic cylinder, Gauss rank 1",
        ),
        CatalogEntry(
            "quadric-control",
            z0 * z4 - z1 ** 2 - z2 ** 2 - z3 ** 2,
            True,
            "control surface: smooth quadric, Gauss rank 3",
        ),
    ]
    return {e.name: e for e in entries}


_ENTRIES = _build()


def names() -> tuple:
    """Catalog names, in a fixed documented order."""
    return tuple(_ENTRIES)


def get(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise ValueError(
            f"unknown surface {name!r}; available: {', '.join(_ENTRIES)}"
        ) from None


@cache
def hypersurface(name: str) -> Hypersurface:
    """get(name).hypersurface(), built once per process for each entry
    (an unknown name raises and stores nothing)."""
    return get(name).hypersurface()
