"""Exit codes of inputs the geometry refuses: a typed error, never exit 3."""

import pytest

from test_cli import check


def test_gauss_rank_of_a_map_into_the_singular_plane(capsys):
    payload = check(
        capsys, "error",
        [
            "gauss-rank", "--surface", "bourgain",
            "--param-map", "0,a,b,c,0", "--params", "a,b,c",
        ],
        1, error=True,
    )
    assert payload["error"]["type"] == "verification"
    assert "singular locus" in payload["error"]["message"]


@pytest.mark.parametrize("names", ["p,z1,z2", "p,z1,z2,z3,z4"])
def test_envelope_needs_the_parameter_and_three_plane_coordinates(capsys, names):
    payload = check(
        capsys, "error",
        ["envelope", "--family", "p^2*z1+z2", "--vars", names],
        2, error=True,
    )
    assert payload["error"]["type"] == "usage"
    assert payload["error"]["message"].startswith("--vars:")
