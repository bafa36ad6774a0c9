"""Golden outputs: every registered experiment, at gate 7's short
horizons and seed 0, writes a CSV and an SVG whose sha256 is pinned here,
and a ``summary.json`` and ``effective_config.yaml`` whose sha256 is
pinned once the run-dependent lines are normalised (the summary's
``runtime_seconds``, the config's ``output_dir``).

A refactor that is meant to leave the numbers alone must leave these
bytes alone.  When a change is meant to move them, rerun the experiment,
update the value, and say in CHANGES.md why the bytes moved."""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path

import numpy as np
import pytest

from avgsa.engine import read_csv_columns
from avgsa.experiments import experiment_names, load_config, run_experiment
from avgsa.plotting import render_line_svg

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


# experiment -> (summary.json sha256 without its runtime_seconds line,
#                effective_config.yaml sha256 with output_dir set to OUT)
_GOLDEN_RECORDS = {
    "implicit-correlation": (
        "edb9aa7c46ad046b2d5c7e022eb186bf1cfd024d870c245398b7d54b0fd00f57",
        "118bab1370ab446cd4a6f9f6e22f04342721521415ab4885a2287ffb3f13e5b2",
    ),
    "var-cvar": (
        "55a82a497959bfb1a3f67e1cd26f0bc88bf12984adf64ed474367111157970e8",
        "b1863a2c33152a7f965764b3d26454d62db946e03634e7801248362e3b37285b",
    ),
    "ergodic-investment": (
        "968d637b368ed94c97f8c8ce67354ff9c78bef8700d3fd0ea1c5f66899c12905",
        "a6fd5190d4e6df5ab90e370ba7a64b1ed10570f15da8615c23812589e511a956",
    ),
    "two-armed-bandit": (
        "462fd2d57b5e8214e63482570272af5c96d12b516b45cdcdf8b89a7b2aaad1c1",
        "f46e1ab7b8a6650ecccf2d848021696bdb4fa79dab76f87dc8427635f4f46d4a",
    ),
    "dark-pool": (
        "6014ac7632613ea2a4b75777ca3559a2980fc5b1787a55b44a6ffa919c80f587",
        "71761f2964eed50480456a803fd39f1ec7b456cd428317de25a0b9a67107e489",
    ),
    "discrepancy": (
        "f2a4e5b87ff4df2984d71c148855901a10819ab11d3e39691cb09e35e15dd528",
        "8ad6e90566b35b90bdbef83d8c78e8141f9993c26ae7ea4d166a28c787ec6b25",
    ),
    "rate-fit": (
        "7bdaf01a9bb8274b908bbf2b6be71a9c35298b6443478d67f2c494b23f77b8e5",
        "3bc40363b4807067ba74ec160502265b3b56d3f6bef73553009b737676b9e3ee",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _summary_sha256(path) -> str:
    lines = Path(path).read_bytes().splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(b'  "runtime_seconds": ')]
    assert len(kept) == len(lines) - 1
    return hashlib.sha256(b"".join(kept)).hexdigest()


def _refuse_constant(token):
    raise ValueError(f"summary.json holds {token}, which strict JSON does not allow")


def _assert_strict_json(path) -> None:
    # json.dump writes NaN and Infinity as bare tokens; a strict parser
    # such as jq refuses them
    json.loads(Path(path).read_text(), parse_constant=_refuse_constant)


def _config_sha256(path, out_dir) -> str:
    text = Path(path).read_bytes()
    line = f"output_dir: {out_dir}\n".encode()
    assert text.count(line) == 1
    return hashlib.sha256(text.replace(line, b"output_dir: OUT\n")).hexdigest()


def test_every_registered_experiment_has_a_golden_value():
    assert sorted(_GOLDEN) == sorted(experiment_names())
    assert sorted(_GOLDEN_RECORDS) == sorted(experiment_names())


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_output_bytes(tmp_path, name):
    art = run_experiment(
        {"experiment": name, "seed": 0, "output_dir": str(tmp_path), **_SHORT[name]}
    )
    csv_sha, plot_name, plot_sha = _GOLDEN[name]
    assert _sha256(art.csv_path) == csv_sha
    assert Path(art.plot_path).name == plot_name
    assert _sha256(art.plot_path) == plot_sha
    summary_sha, config_sha = _GOLDEN_RECORDS[name]
    _assert_strict_json(art.out_dir / "summary.json")
    assert _summary_sha256(art.out_dir / "summary.json") == summary_sha
    assert _config_sha256(art.out_dir / "effective_config.yaml", tmp_path) == config_sha


# The four-venue shipped config at horizon 20 000: its zero-rebate venue is
# pinned to the boundary, so the allocation safeguard clips on many steps
# and these bytes cover the clipping path the registry default never takes.
_FOUR_VENUES = Path(__file__).resolve().parents[1] / "configs" / "dark-pool-four-venues.yaml"
_FOUR_VENUES_GOLDEN = (
    "d320b4db178c283e7f3176e7ca7fd0606658d37a2ac5b3d0e8abec20cf8c970c",
    "mean_cost_reduction.svg",
    "8dff542aebcc544f473fe04e579269081fcde1d12397ac4ce14a78b9899f01b1",
    "126c16a35d571c5a398c98555eed55f7849c3da9a2fc29723567d8d0558379ad",
)


def test_golden_output_bytes_dark_pool_four_venues(tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="avgsa.applications.darkpool")
    raw = {**load_config(_FOUR_VENUES), "horizon": 20_000, "output_dir": str(tmp_path)}
    art = run_experiment(raw)
    csv_sha, plot_name, plot_sha, summary_sha = _FOUR_VENUES_GOLDEN
    assert _sha256(art.csv_path) == csv_sha
    assert Path(art.plot_path).name == plot_name
    assert _sha256(art.plot_path) == plot_sha
    _assert_strict_json(art.out_dir / "summary.json")
    assert _summary_sha256(art.out_dir / "summary.json") == summary_sha
    clips = art.summary["notes"]["safeguard_count"]
    assert clips == 7459
    # the config's comment promises the safeguard is logged once: a WARNING at
    # the first clipped step, then one DEBUG record per further clipped step
    records = [r for r in caplog.records if r.name == "avgsa.applications.darkpool"]
    assert [r.levelno for r in records] == [logging.WARNING] + [logging.DEBUG] * (clips - 1)
    steps = [r.args[0] for r in records]
    assert steps == sorted(set(steps))          # one record per clipped step, in step order
    # the clip count recorded every 100 steps brackets the first clipped step
    cols = read_csv_columns(art.csv_path)
    i = int(np.argmax(cols["safeguard_count"] > 0))
    assert cols["n"][i - 1] < steps[0] <= cols["n"][i]


def test_two_venue_safeguard_never_clips_or_logs(tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="avgsa.applications.darkpool")
    two_venues = _FOUR_VENUES.with_name("dark-pool-two-venues.yaml")
    art = run_experiment({**load_config(two_venues), "horizon": 20_000, "output_dir": str(tmp_path)})
    assert art.summary["notes"]["safeguard_count"] == 0
    assert [r for r in caplog.records if r.name == "avgsa.applications.darkpool"] == []


# rate-fit recorded at every step over 10 000 steps: the CSV's 10 001 rows
# cross the writer's sub-blocks, and the log-x plot's points cross the
# renderer's blocks with the n = 0 point dropped
_STRIDE_ONE_GOLDEN = (
    "6dc7ee0015ebefd0108fb0c44304f38bd2ca60204a463a3fc1baf2d8759003d8",
    "c7e2557995d3984d5aa915b959622feb5686b4e4884a058a4cfd14bdd23ee573",
)


def test_golden_output_bytes_rate_fit_at_stride_one(tmp_path):
    art = run_experiment({"experiment": "rate-fit", "seed": 0, "horizon": 10_000,
                          "record_stride": 1, "output_dir": str(tmp_path)})
    assert _sha256(art.csv_path) == _STRIDE_ONE_GOLDEN[0]
    assert _sha256(art.plot_path) == _STRIDE_ONE_GOLDEN[1]


# whole SVG documents on the branches the experiment plots never take: an
# empty title, a title to escape, a target on a log axis, and a flat series
# whose y range is padded around its target
_BRANCH_SVG_GOLDEN = {
    ("", None, False): "7ba3898f5daa57ca4b3d928721fe1655f44b06cb819b4be7c827c69f8749f779",
    ("", None, True): "2f5839a460a1afcc86f297712f2176225dda464d76a9bfcfaf022c0e3c751f44",
    ("", 0.05, False): "695f9e3b983663cccf4669f7c1b7a2f464311db4150878648c3354038f3b2562",
    ("", 0.05, True): "7cb40f6669f5a24b7b762902d01929e6494ead12448ffdb5990a709d6d341afe",
    ("a<b&c", None, False): "ecfa212a3e7e337e51acb5a9dee8e9ff360108cd217f69813132ad50a2928c87",
    ("a<b&c", None, True): "b90ca755506ac805a6c132d0dfd45b14f448b95c8a89d68e3386663fe0033aa9",
    ("a<b&c", 0.05, False): "77975184f29be7a8c8ef46c0a8aa9d6b7217cc0a2d0dfce333572beebadd075d",
    ("a<b&c", 0.05, True): "547def402cc172544d795d11a0e32b70a27f69f3cd2cc87e961665c821661b1e",
}
_FLAT_SVG_GOLDEN = "d1ab31edafdb3e16d60773a57dc0621615ed1f0c0f53d88ac4721f91e0e2c149"


@pytest.mark.parametrize("title, target, logx", list(_BRANCH_SVG_GOLDEN))
def test_svg_document_bytes_on_every_chrome_branch(title, target, logx):
    x = np.arange(1, 500)
    doc = render_line_svg(x, 1.0 / np.sqrt(x), title=title, target=target, logx=logx)
    assert hashlib.sha256(doc.encode()).hexdigest() == _BRANCH_SVG_GOLDEN[title, target, logx]


def test_svg_document_bytes_of_a_flat_series_on_its_target():
    doc = render_line_svg(np.arange(1, 500), np.ones(499), target=1.0)
    assert hashlib.sha256(doc.encode()).hexdigest() == _FLAT_SVG_GOLDEN
