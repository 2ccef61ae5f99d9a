"""Golden digests of ``autonetsim run`` exports.

Determinism within one build is checked elsewhere (two runs agree); these
constants pin the exported bytes across builds, so a change to the export
writers or to the simulation that moves any byte fails here.
"""

import hashlib
from pathlib import Path

import pytest

from autonetsim.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# case id -> (scenario, --format, extra arguments, sha256 of the export tree)
GOLDEN = {
    "small_network-csv": ("small_network.andl", "csv", [],
                          "5503e9afa3cc76ff682e6e46a9a2facf665154d172735c8f56618a5c59f97e67"),
    "small_network-structured": ("small_network.andl", "structured", [],
                                 "268b62a77571ec04c93e61c885fa41abe5876062c9db757cdce4ecbed97ed672"),
    "two_pools-csv": ("two_pools.andl", "csv", [],
                      "1f052fc1809fbe32050df8af490c066bc9cdf15dd69774c49e84ccd62dbbf8b9"),
    "two_pools-structured": ("two_pools.andl", "structured", [],
                             "13662756160440f99da9cca3cfecac321b655a000ef415b91a1eea509703433a"),
    "small_network-structured-window": ("small_network.andl", "structured",
                                        ["--window", "10ms:60ms"],
                                        "fcc7c08464ed6a88a19ac63b9eb6ab42502a99c88025fe2a0375af8bbdec4400"),
}


def tree_digest(root: Path) -> str:
    """sha256 over every file's path relative to ``root`` and its bytes, in path order."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_export_bytes_match_golden_digest(case, tmp_path, capsys):
    scenario, fmt, extra, digest = GOLDEN[case]
    out = tmp_path / "out"
    assert main(["run", str(SCENARIOS / scenario), "--horizon", "200ms", "--seed", "1",
                 "--format", fmt, "--out", str(out), *extra]) == 0
    capsys.readouterr()
    assert tree_digest(out) == digest
