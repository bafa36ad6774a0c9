"""Golden outputs: every registered experiment, at gate 7's short
horizons and seed 0, writes a CSV and an SVG whose sha256 is pinned here.

A refactor that is meant to leave the numbers alone must leave these
bytes alone.  When a change is meant to move them, rerun the experiment,
update the value, and say in CHANGES.md why the bytes moved."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from avgsa.experiments import experiment_names, run_experiment

# the shipped investment parameters sit outside the Feller region on purpose
pytestmark = pytest.mark.filterwarnings(
    "ignore:2\\*kappa\\*vartheta:UserWarning"
)

# the shortened overrides of gate 7 (tests/test_acceptance.py)
_SHORT = {
    "implicit-correlation": {"horizon": 20_000},
    "var-cvar": {"horizon": 50_000},
    "ergodic-investment": {"horizon": 20_000},
    "two-armed-bandit": {"horizon": 20_000},
    "dark-pool": {"horizon": 20_000},
    "discrepancy": {"params": {"max_exponent": 9}},
    "rate-fit": {"horizon": 20_000},
}

# experiment -> (trajectory.csv sha256, plot file name, plot sha256)
_GOLDEN = {
    "implicit-correlation": (
        "6cda232044d18b3de5ce05a38e6cfaaa7521a7e76429ea85054685f0b3eac4e4",
        "rho.svg",
        "770bdea9fe6185a2639316d62a6dc162b1803759bcfd595c0377e25779f854ee",
    ),
    "var-cvar": (
        "8a58091e846f470462f5d21ec6f7229b9d58c163d9b991698b7c64584f15987a",
        "theta_0.svg",
        "19b418d84b7fb13399b46e648eaac899b9daa750fe0fb56e2285871805db1231",
    ),
    "ergodic-investment": (
        "e2fa51750c3dfb61533086df047b026e8df880187efcb12068a5f284f6c1245f",
        "capacity.svg",
        "37d5b837a5c2762c19ae950bf66c1d98d5304b6a7b9be3d94b947465da1db087",
    ),
    "two-armed-bandit": (
        "0a199dc7d8a6f7e037fe9d87373dccc58d11320a9a2f9f54772e2cdad5244082",
        "theta_0.svg",
        "d264e529505ed45f062d62262180fc78f153c4d447ab8d8242fe96cfd3e20617",
    ),
    "dark-pool": (
        "117312d9f61c9adca07f0ae8e184d006c722e413162eb8a2b53490e3c111c53d",
        "mean_cost_reduction.svg",
        "1ef6339a13c5df9446c1faeca008b9a2c0d8aafe9442b08782777fe3600108f7",
    ),
    "discrepancy": (
        "45e38340ef132b60bad373735d9de1c7884e3d2b3f7dd563b4d3649349580de1",
        "dstar_halton.svg",
        "e92edc6c8b727672d5dd96aa5ae6f53442242a0840c9b445a622b3fe2a47e10e",
    ),
    "rate-fit": (
        "80d2d76c51c1620fa901efab3cfd0a888158588e5479fddc2883a9870951c4f1",
        "abs_error.svg",
        "40cc3a3094eba19c8c38bfd619e7619f43b49d37734e3f8cffe70b90f2592db0",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_every_registered_experiment_has_a_golden_value():
    assert sorted(_GOLDEN) == sorted(experiment_names())


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_output_bytes(tmp_path, name):
    art = run_experiment(
        {"experiment": name, "seed": 0, "output_dir": str(tmp_path), **_SHORT[name]}
    )
    csv_sha, plot_name, plot_sha = _GOLDEN[name]
    assert _sha256(art.csv_path) == csv_sha
    assert Path(art.plot_path).name == plot_name
    assert _sha256(art.plot_path) == plot_sha
