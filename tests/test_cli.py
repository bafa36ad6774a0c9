"""Registry, config validation, artifact plumbing, and the command-line
verbs."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import avgsa
from avgsa.cli import main
from avgsa.engine import StepSchedule, read_csv_columns, run, write_trajectory_csv
from avgsa.experiments import (
    _DARKPOOL_SERIES_CAP,
    _RATE_FIT_MEANS,
    _RECORD_CAP,
    REGISTRY,
    ConfigError,
    _scalar_source,
    _split_seed,
    describe_experiments,
    run_experiment,
    validate_config,
)
from avgsa.plotting import render_line_svg

pytestmark = pytest.mark.filterwarnings(
    "ignore:2\\*kappa\\*vartheta:UserWarning"
)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_validate_fills_defaults_in_canonical_order():
    cfg = validate_config({"experiment": "implicit-correlation", "seed": 3})
    assert list(cfg) == [
        "experiment", "seed", "horizon", "record_stride", "output_dir",
        "step", "source", "params",
    ]
    assert cfg["horizon"] == 100_000
    assert cfg["step"] == {"c": 8.0, "a": 1.0}
    assert cfg["source"]["kind"] == "halton-gaussian"
    assert cfg["params"]["market_price"] == 30.75
    assert cfg["output_dir"] == "runs/implicit-correlation"


def test_validate_requires_seed_and_experiment():
    with pytest.raises(ConfigError, match="seed"):
        validate_config({"experiment": "var-cvar"})
    with pytest.raises(ConfigError, match="experiment"):
        validate_config({"seed": 1})
    with pytest.raises(ConfigError, match="unknown name"):
        validate_config({"experiment": "nope", "seed": 1})


def test_validate_rejects_unknown_keys_anywhere():
    with pytest.raises(ConfigError, match="typo"):
        validate_config({"experiment": "var-cvar", "seed": 1, "typo": 2})
    with pytest.raises(ConfigError, match="step.gamma"):
        validate_config(
            {"experiment": "var-cvar", "seed": 1, "step": {"gamma": 0.1}}
        )
    with pytest.raises(ConfigError, match="params.strike_price"):
        validate_config(
            {"experiment": "implicit-correlation", "seed": 1,
             "params": {"strike_price": 90.0}}
        )


def test_validate_type_errors():
    with pytest.raises(ConfigError, match="seed"):
        validate_config({"experiment": "var-cvar", "seed": "five"})
    with pytest.raises(ConfigError, match="seed"):
        validate_config({"experiment": "var-cvar", "seed": -1})
    with pytest.raises(ConfigError, match="horizon"):
        validate_config({"experiment": "var-cvar", "seed": 1, "horizon": 0})
    with pytest.raises(ConfigError, match="step.c"):
        validate_config(
            {"experiment": "var-cvar", "seed": 1, "step": {"c": -2.0}}
        )


def test_validate_refuses_inadmissible_power_pair():
    # i.i.d. innovations average at the n^(-1/2) rate, so a step exponent
    # of 0.4 falls outside the (1/2, 1] band and must be refused before
    # any computation starts.
    with pytest.raises(ConfigError, match="not admissible"):
        validate_config(
            {"experiment": "var-cvar", "seed": 1, "step": {"a": 0.4}}
        )
    # the same exponent is fine at the boundary of the band
    validate_config({"experiment": "var-cvar", "seed": 1, "step": {"a": 0.51}})


def test_validate_refuses_wrong_source_kind():
    with pytest.raises(ConfigError, match="source.kind"):
        validate_config(
            {"experiment": "implicit-correlation", "seed": 1,
             "source": {"kind": "finite-markov-chain"}}
        )


def test_validate_refuses_removed_darkpool_keys():
    # the renormalisation period and the oracle grid step are constants now
    for key, value in (("renorm_every", 10_000), ("oracle_resolution", 0.01)):
        with pytest.raises(ConfigError, match=f"unknown key 'params.{key}'"):
            validate_config({"experiment": "dark-pool", "seed": 1, "params": {key: value}})


def test_validate_bandit_step_scale_gate():
    with pytest.raises(ConfigError, match="step.c"):
        validate_config(
            {"experiment": "two-armed-bandit", "seed": 1, "step": {"c": 2.0}}
        )


def test_validate_darkpool_shape_gate():
    with pytest.raises(ConfigError, match="one entry per pool"):
        validate_config(
            {"experiment": "dark-pool", "seed": 1, "horizon": 10,
             "params": {"mix": [0.5, 0.5], "scale": [0.6],
                        "rebates": [0.02, 0.05]}}
        )


def _schema_leaves(schema, path=""):
    for key, spec in schema.items():
        dotted = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            yield from _schema_leaves(spec, dotted)
        else:
            yield dotted, spec


def test_every_schema_default_passes_its_caster():
    # validation fills defaults in without casting them, so a default
    # outside its own key's interval would go unnoticed
    for exp in REGISTRY.values():
        for dotted, (default, caster) in _schema_leaves(exp.schema):
            if default is not None:   # seed: required, output_dir: derived
                assert caster(dotted, default) == default, (exp.name, dotted)
        validate_config({"experiment": exp.name, "seed": 0})


# (experiment, config body, dotted key, interval).  The first ten are
# out-of-domain configs that, but for var-cvar's alpha, used to pass
# validation and crash or fail at run time; the rest pin each interval's
# refused endpoints.
_OUT_OF_DOMAIN = [
    ("var-cvar", {"params": {"alpha": 1.0}}, "params.alpha", "(0, 1)"),
    ("two-armed-bandit", {"source": {"kind": "ar1", "mixing": 1.0}},
     "source.mixing", "(-1, 1)"),
    ("two-armed-bandit", {"source": {"kind": "ar1", "mixing": 1.5}},
     "source.mixing", "(-1, 1)"),
    ("two-armed-bandit", {"params": {"freq_a": 1.5}}, "params.freq_a", "[0, 1]"),
    ("two-armed-bandit", {"params": {"theta0": -0.1}}, "params.theta0", "[0, 1]"),
    ("ergodic-investment", {"params": {"alpha": 1.0}}, "params.alpha", "(0, 1)"),
    ("ergodic-investment", {"source": {"exponent": 0.5}},
     "source.exponent", "(0, 0.3333333333333333]"),
    ("dark-pool", {"source": {"mixing": 1.0}}, "source.mixing", "(-1, 1)"),
    ("dark-pool", {"params": {"rebates": [0.02, 1.0]}}, "params.rebates[1]", "[0, 1)"),
    ("rate-fit", {"source": {"kind": "ar1-mixing", "mixing": 1.0}},
     "source.mixing", "(-1, 1)"),
    ("var-cvar", {"params": {"alpha": 0.0}}, "params.alpha", "(0, 1)"),
    ("var-cvar", {"source": {"kind": "ar1-mixing", "mixing": -1.0}},
     "source.mixing", "(-1, 1)"),
    ("two-armed-bandit", {"step": {"c": 1.5}}, "step.c", "(0, 1]"),
    ("two-armed-bandit", {"step": {"c": 0.0}}, "step.c", "(0, 1]"),
    ("two-armed-bandit", {"params": {"freq_b": -0.1}}, "params.freq_b", "[0, 1]"),
    ("ergodic-investment", {"params": {"beta": 0.0}}, "params.beta", "(0, 1)"),
    ("ergodic-investment", {"params": {"beta": 1.0}}, "params.beta", "(0, 1)"),
    ("ergodic-investment", {"source": {"exponent": 0.0}},
     "source.exponent", "(0, 0.3333333333333333]"),
    ("dark-pool", {"params": {"mix": [0.5, 1.5]}}, "params.mix[1]", "[0, 1]"),
    ("dark-pool", {"params": {"scale": [0.6, 0.0]}}, "params.scale[1]", "(0, inf)"),
    # a kind that ignores the mixing coefficient still refuses a bad one
    ("rate-fit", {"source": {"kind": "halton", "mixing": 2.0}}, "source.mixing", "(-1, 1)"),
    ("discrepancy", {"params": {"max_exponent": 15}}, "params.max_exponent", "[1, 14]"),
    ("discrepancy", {"seed": -1}, "seed", "[0, inf)"),
]


@pytest.mark.parametrize(
    "experiment, body, key, interval", _OUT_OF_DOMAIN,
    ids=[f"{e}-{k}-{i}" for i, (e, _, k, _) in enumerate(_OUT_OF_DOMAIN)],
)
def test_out_of_domain_value_is_refused_before_any_file(
    tmp_path, capsys, experiment, body, key, interval
):
    raw = {"experiment": experiment, "seed": 0, "output_dir": str(tmp_path / "out"), **body}
    with pytest.raises(ConfigError) as info:
        validate_config(raw)
    assert str(info.value).startswith(f"{key}: must lie in {interval}, got ")
    cfg = _write_cfg(tmp_path / "c.yaml", yaml.safe_dump(raw))
    for command in (["run", cfg], ["sweep", cfg, "--seeds", "0..1"]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "experiment, body",
    [
        ("two-armed-bandit", {"params": {"freq_a": 1.0, "freq_b": 0.0, "theta0": 0.0}}),
        ("two-armed-bandit", {"source": {"kind": "ar1"}, "step": {"c": 1.0},
                              "params": {"freq_a": 0.0, "freq_b": 1.0, "theta0": 1.0}}),
        ("ergodic-investment", {"source": {"exponent": 1 / 3}}),
        ("dark-pool", {"params": {"mix": [0.0, 1.0], "rebates": [0.0, 0.05]}}),
        ("var-cvar", {"source": {"kind": "ar1-mixing", "mixing": -0.99}}),
    ],
    ids=["freq-endpoints-iid", "freq-endpoints-ar1", "exponent-third", "mix-rebate-endpoints",
         "mixing-near-minus-one"],
)
def test_in_domain_endpoints_validate_and_run(tmp_path, experiment, body):
    arts = run_experiment({"experiment": experiment, "seed": 0, "horizon": 500,
                           "output_dir": str(tmp_path / "out"), **body})
    assert arts.summary["status"] == "ok"


def test_discrepancy_budget_is_checked_before_the_run():
    # star_discrepancy_exact refuses n**q * q > 1e8 for its n = 2**k points
    base = {"experiment": "discrepancy", "seed": 0}
    validate_config({**base, "params": {"max_exponent": 12}})
    validate_config({**base, "source": {"dimension": 3}, "params": {"max_exponent": 8}})
    for dim, k in ((2, 13), (3, 9), (10**9, 14)):
        with pytest.raises(ConfigError, match="params.max_exponent: .* budget"):
            validate_config({**base, "source": {"dimension": dim},
                             "params": {"max_exponent": k}})
    with pytest.raises(ConfigError, match="min_exponent < max_exponent"):
        validate_config({**base, "params": {"min_exponent": 9, "max_exponent": 9}})


def test_discrepancy_budget_counts_the_grid_corners():
    # 4 points in 11-D walk up to 5**11 corners: 5**11 * 11 > 1e8 > 4**11 * 11
    with pytest.raises(ConfigError, match=r"params.max_exponent: .* \(n\+1\)\*\*q"):
        validate_config({"experiment": "discrepancy", "seed": 0,
                         "source": {"dimension": 11},
                         "params": {"min_exponent": 1, "max_exponent": 2}})


@pytest.mark.parametrize("jobs", [
    "1", pytest.param("2", marks=pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="--jobs 2 needs two CPUs")),
])
def test_cli_sweep_reports_a_run_time_parameter_error(tmp_path, capsys, jobs):
    # the optimal capacity overflows only once the run computes it; the
    # replication's ValueError must come back as a config error, exit 2
    cfg = _write_cfg(
        tmp_path / "c.yaml",
        "experiment: ergodic-investment\nseed: 0\nhorizon: 200\n"
        f"params: {{beta: 0.999, cost: 1.0e-9}}\noutput_dir: {tmp_path / 'out'}\n",
    )
    assert main(["sweep", cfg, "--seeds", "0..1", "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "beta=0.999" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["run"],
    ["sweep", "--seeds", "0..1", "--jobs", "1"],
    pytest.param(["sweep", "--seeds", "0..1", "--jobs", "2"], marks=pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="--jobs 2 needs two CPUs")),
], ids=["run", "sweep-jobs-1", "sweep-jobs-2"])
@pytest.mark.parametrize("body, message", [
    # the closed-form optimal capacity overflows once the runner computes it
    ("experiment: ergodic-investment\nparams: {beta: 0.999, cost: 1.0e-9}\n", "beta=0.999"),
    # the lognormal volumes overflow; the series builder refuses the key by name
    ("experiment: dark-pool\nsource: {log_sigma: 2000}\n", "log_sigma = 2000"),
], ids=["investment-overflow", "darkpool-infinite-volume"])
def test_cli_run_time_refusal_writes_nothing(tmp_path, capsys, command, body, message):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path / "c.yaml", f"{body}seed: 0\nhorizon: 200\noutput_dir: {out}\n")
    assert main([command[0], cfg, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert "Warning" not in err
    assert not out.exists()


def test_cli_refusal_prints_the_refused_value_in_full(tmp_path, capsys):
    # a step exponent 1e-13 above the interval's closed end: rounded to six
    # digits it would read a = 1, a value inside the interval it is refused by
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path / "c.yaml", "experiment: rate-fit\nseed: 0\n"
                     "source: {kind: iid-uniform}\nstep: {a: 1.0000000000001}\n"
                     f"output_dir: {out}\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "a=1.0000000000001 is not admissible" in err
    assert "(violated: a = 1.0000000000001 outside (1-beta, 1] = (0.5, 1])" in err
    assert not out.exists()


def test_shipped_configs_validate_with_distinct_output_dirs():
    # two shipped configs writing to one directory overwrite each other
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
    assert paths
    dirs = {p.name: validate_config(yaml.safe_load(p.read_text()))["output_dir"] for p in paths}
    assert len(set(dirs.values())) == len(dirs), dirs


def test_split_seed_is_stable_and_spread():
    a = _split_seed(7, 0)
    assert a == _split_seed(7, 0)
    assert a != _split_seed(7, 1)
    assert a != _split_seed(8, 0)


# ---------------------------------------------------------------------------
# run pipeline and artifacts
# ---------------------------------------------------------------------------

def _small_corr_cfg(tmp_path, **over):
    cfg = {
        "experiment": "implicit-correlation",
        "seed": 0,
        "horizon": 2_000,
        "output_dir": str(tmp_path / "corr"),
    }
    cfg.update(over)
    return cfg


def test_run_experiment_writes_all_artifacts(tmp_path):
    arts = run_experiment(_small_corr_cfg(tmp_path))
    assert arts.csv_path.exists()
    assert arts.plot_path.exists() and arts.plot_path.suffix == ".svg"
    assert (arts.out_dir / "summary.json").exists()
    assert (arts.out_dir / "effective_config.yaml").exists()
    s = json.loads((arts.out_dir / "summary.json").read_text())
    assert list(s) == [
        "experiment", "seed", "horizon", "status", "final", "target",
        "error", "fitted_rate", "runtime_seconds", "csv", "plot",
        "failure", "notes",
    ]
    assert s["status"] == "ok"
    assert s["seed"] == 0 and s["horizon"] == 2_000
    assert s["failure"] is None
    assert isinstance(s["final"][0], float)
    assert s["error"] == pytest.approx(abs(s["notes"]["rho_final"] + 0.5))
    cols = read_csv_columns(arts.csv_path)
    assert set(cols) == {"n", "theta_0", "rho"}


def test_effective_config_round_trips_byte_identical(tmp_path):
    arts = run_experiment(_small_corr_cfg(tmp_path))
    csv1 = arts.csv_path.read_bytes()
    svg1 = arts.plot_path.read_bytes()
    sum1 = json.loads((arts.out_dir / "summary.json").read_text())
    # rerun from the serialized effective config
    with open(arts.out_dir / "effective_config.yaml") as fh:
        effective = yaml.safe_load(fh)
    arts2 = run_experiment(effective)
    assert arts2.csv_path.read_bytes() == csv1
    assert arts2.plot_path.read_bytes() == svg1
    sum2 = json.loads((arts2.out_dir / "summary.json").read_text())
    sum1.pop("runtime_seconds")
    sum2.pop("runtime_seconds")
    assert sum1 == sum2


def test_run_experiment_abort_still_writes_summary(tmp_path):
    cfg = {
        "experiment": "rate-fit",
        "seed": 0,
        "horizon": 500,
        "step": {"c": 1e12},
        "source": {"kind": "iid-gaussian"},
        "output_dir": str(tmp_path / "boom"),
    }
    arts = run_experiment(cfg)
    assert arts.summary["status"] == "aborted"
    assert "diverged" in arts.summary["failure"]
    assert arts.csv_path is None
    s = json.loads((arts.out_dir / "summary.json").read_text())
    assert s["status"] == "aborted" and s["final"] is None


def test_registry_names_and_descriptions():
    names = [n for n, _ in describe_experiments()]
    assert names == [
        "implicit-correlation", "var-cvar", "ergodic-investment",
        "two-armed-bandit", "dark-pool", "discrepancy", "rate-fit",
    ]
    assert all(desc for _, desc in describe_experiments())
    assert set(names) == set(REGISTRY)


def test_run_var_cvar_summary_semantics(tmp_path):
    arts = run_experiment({
        "experiment": "var-cvar",
        "seed": 3,
        "horizon": 50_000,
        "output_dir": str(tmp_path / "var"),
    })
    s = arts.summary
    assert s["target"][0] == pytest.approx(1.6448536269514715, abs=1e-12)
    assert s["error"] == pytest.approx(abs(s["final"][0] - s["target"][0]))
    assert s["notes"]["cvar_target"] == pytest.approx(2.0627128075074306, abs=1e-10)
    assert s["error"] <= 0.2


def test_run_investment_reports_closed_form_target(tmp_path):
    arts = run_experiment({
        "experiment": "ergodic-investment",
        "seed": 0,
        "horizon": 5_000,
        "output_dir": str(tmp_path / "inv"),
    })
    s = arts.summary
    assert s["target"][0] == pytest.approx(2.361106757792026, rel=1e-12)
    assert s["notes"]["feller_condition"] is False
    assert s["notes"]["capacity_final"] > 0.0


def test_run_bandit_classification_note(tmp_path):
    arts = run_experiment({
        "experiment": "two-armed-bandit",
        "seed": 0,
        "horizon": 5_000,
        "output_dir": str(tmp_path / "band"),
    })
    assert arts.summary["notes"]["classification"] in ("near-0", "near-1", "undecided")
    assert arts.summary["target"] == [1.0]


def test_run_darkpool_two_pools_has_oracle_target(tmp_path):
    arts = run_experiment({
        "experiment": "dark-pool",
        "seed": 7,
        "horizon": 4_000,
        "output_dir": str(tmp_path / "dp"),
    })
    s = arts.summary
    assert len(s["final"]) == 2
    assert s["target"] is not None and abs(sum(s["target"]) - 1.0) < 1e-9
    assert s["notes"]["safeguard_count"] >= 0


_THREE_POOLS = {"mix": [0.3, 0.3, 0.4], "scale": [0.5, 0.2, 0.1], "rebates": [0.01, 0.02, 0.03]}


@pytest.mark.parametrize(
    "name, override, plot_target",
    [
        ("implicit-correlation", {"params": {"target_rho": None}}, False),
        ("two-armed-bandit", {"params": {"freq_a": 0.5, "freq_b": 0.5}}, False),
        ("dark-pool", {"params": _THREE_POOLS}, False),
        ("var-cvar", {}, True),
        ("ergodic-investment", {}, True),
        ("rate-fit", {}, False),
        ("dark-pool", {}, False),
        ("discrepancy", {"params": {"min_exponent": 2, "max_exponent": 8}}, False),
    ],
    ids=["correlation-no-target", "bandit-even", "dark-pool-three", "var-cvar",
         "investment", "rate-fit", "dark-pool-two", "discrepancy"],
)
def test_summary_numbers_follow_the_outcome_contract(tmp_path, name, override, plot_target):
    horizon = {} if name == "discrepancy" else {"horizon": 3_000}
    arts = run_experiment({"experiment": name, "seed": 2, "output_dir": str(tmp_path),
                           **horizon, **override})
    s = arts.summary
    cols = read_csv_columns(arts.csv_path)
    channel = Path(arts.plot_path).stem
    thetas = [cols[k][-1] for k in cols if k.startswith("theta_")]
    assert s["final"] == (thetas or [cols[channel][-1]])
    # the plot draws target[0] exactly when the error path is |channel - target[0]|
    line = s["target"][0] if plot_target else None
    svg = render_line_svg(cols["n"], cols[channel], title=f"{name} (seed 2)",
                          xlabel="n", ylabel=channel, target=line,
                          logx=name in ("rate-fit", "discrepancy"))
    assert Path(arts.plot_path).read_text() == svg
    if s["target"] is None:
        assert s["error"] is None
    if plot_target:
        assert s["error"] == abs(cols[channel][-1] - s["target"][0])
    elif name == "rate-fit":
        assert s["error"] == cols["abs_error"][-1]
    elif name == "dark-pool" and s["target"] is not None:
        assert s["error"] == max(abs(cols[f"theta_{i}"][-1] - t) for i, t in enumerate(s["target"]))
    assert (s["fitted_rate"] is None) == (s["target"] is None and name != "discrepancy")


def test_run_discrepancy_table_and_rate(tmp_path):
    arts = run_experiment({
        "experiment": "discrepancy",
        "seed": 0,
        "output_dir": str(tmp_path / "disc"),
        "params": {"min_exponent": 4, "max_exponent": 8},
    })
    cols = read_csv_columns(arts.csv_path)
    assert list(cols) == ["n", "dstar_halton", "dstar_iid"]
    np.testing.assert_array_equal(cols["n"], [16, 32, 64, 128, 256])
    # the low-discrepancy stream beats independent sampling at the end
    assert cols["dstar_halton"][-1] < cols["dstar_iid"][-1]
    assert arts.summary["fitted_rate"] > 0.5
    # the summary horizon is the table's last size, not a config default
    assert arts.summary["horizon"] == 256
    # the table has no horizon and steps nothing: those keys are refused
    for key, value in (("horizon", 7), ("step", {"c": 123.0})):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            run_experiment({"experiment": "discrepancy", "seed": 0, key: value,
                            "output_dir": str(tmp_path / "bad")})


def test_run_rate_fit_recovers_running_mean_rate(tmp_path):
    arts = run_experiment({
        "experiment": "rate-fit",
        "seed": 0,
        "horizon": 20_000,
        "output_dir": str(tmp_path / "rate"),
    })
    s = arts.summary
    # gamma = 1/n on a uniform stream is the running mean; its error decay
    # fits close to first order for the low-discrepancy driver
    assert s["target"] == [0.5]
    assert 0.6 <= s["fitted_rate"] <= 1.2
    assert s["error"] <= 1e-3


@pytest.mark.parametrize("stride", [1, 7, 100])
@pytest.mark.parametrize("kind", list(_RATE_FIT_MEANS))
def test_rate_fit_abs_error_is_the_monitor_column_bit_for_bit(tmp_path, kind, stride):
    # abs_error is derived from the recorded path after the loop: it must
    # hold a hand loop's abs(th - mean) bit for bit, and the run's CSV the
    # bytes that the per-record monitor abs(th - mean) writes
    raw = {"experiment": "rate-fit", "seed": 3, "horizon": 3_001, "record_stride": stride,
           "source": {"kind": kind}, "params": {"theta0": -2.5},
           "output_dir": str(tmp_path / "out")}
    cfg, mean = validate_config(raw), _RATE_FIT_MEANS[kind]
    traj = REGISTRY["rate-fit"].runner(cfg).trajectory
    hand = np.array([abs(th - mean) for th in traj.thetas[:, 0].tolist()])
    assert hand[0] == abs(-2.5 - mean)
    np.testing.assert_array_equal(traj.channel("abs_error").view(np.int64), hand.view(np.int64))

    watched = run(cfg["params"]["theta0"], _scalar_source(cfg), lambda th, y: th - y[0],
                  StepSchedule(**cfg["step"]), cfg["horizon"], record_stride=stride,
                  monitors={"abs_error": lambda n, th: abs(th - mean)})
    write_trajectory_csv(watched, tmp_path / "watched.csv")
    arts = run_experiment(raw)
    assert arts.csv_path.read_bytes() == (tmp_path / "watched.csv").read_bytes()


def test_rate_fit_theta0_shows_only_in_record_0_at_the_default_step(tmp_path):
    # c = 1, a = 1: the first gain is 1, so theta_1 = theta0 - (theta0 - y_1),
    # which is y_1 up to one rounding, and every later record follows from it
    trajs = []
    for theta0 in (0.0, -2.5):
        cfg = validate_config({"experiment": "rate-fit", "seed": 0, "horizon": 10_000,
                               "source": {"kind": "halton"}, "params": {"theta0": theta0},
                               "output_dir": str(tmp_path / "out")})
        assert cfg["step"] == {"c": 1.0, "a": 1.0}
        trajs.append(REGISTRY["rate-fit"].runner(cfg).trajectory)
    zero, shifted = trajs
    assert zero.thetas[0, 0] == 0.0 and shifted.thetas[0, 0] == -2.5
    for name in zero.channel_names():
        np.testing.assert_array_equal(zero.channel(name)[1:].view(np.int64),
                                      shifted.channel(name)[1:].view(np.int64))


@pytest.mark.parametrize("name", [n for n, e in REGISTRY.items() if "step" in e.schema])
def test_record_count_above_the_cap_is_refused_before_any_file(tmp_path, capsys, monkeypatch,
                                                               name):
    # a stepped run keeps ceil(horizon / record_stride) + 1 records, the
    # steps 0, s, 2s, ... below the horizon and the horizon itself; the
    # dark-pool series cap, tested on its own below, would refuse most of
    # these horizons first, so it is lifted here
    monkeypatch.setattr("avgsa.experiments._DARKPOOL_SERIES_CAP", float("inf"))
    base = {"experiment": name, "seed": 0, "output_dir": str(tmp_path / "out")}
    for horizon, stride in [(_RECORD_CAP - 1, 1), (3 * (_RECORD_CAP - 1), 3),
                            (3 * (_RECORD_CAP - 2) + 1, 3), (10**12, 10**6)]:
        validate_config({**base, "horizon": horizon, "record_stride": stride})
    for horizon, stride in [(3 * (_RECORD_CAP - 1) + 1, 3), (_RECORD_CAP, 1)]:
        with pytest.raises(ConfigError) as info:
            validate_config({**base, "horizon": horizon, "record_stride": stride})
        assert str(info.value) == (
            f"horizon: ceil({horizon} / record_stride {stride}) + 1 = {_RECORD_CAP + 1} records, "
            f"above the cap of {_RECORD_CAP}; raise record_stride or lower horizon"
        )
    raw = {**base, "horizon": _RECORD_CAP, "record_stride": 1}
    cfg = _write_cfg(tmp_path / "c.yaml", yaml.safe_dump(raw))
    for command in (["run", cfg], ["sweep", cfg, "--seeds", "0..1"]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: horizon: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, pools", [("dark-pool-four-venues.yaml", 4),
                                           ("dark-pool-two-venues.yaml", 2)])
def test_darkpool_series_above_the_cap_is_refused_before_any_file(tmp_path, capsys,
                                                                   config, pools):
    # the run builds horizon * (1 + pools) series values before step 1
    raw = yaml.safe_load((Path(__file__).resolve().parents[1] / "configs" / config).read_text())
    raw["output_dir"] = str(tmp_path / "out")
    largest = _DARKPOOL_SERIES_CAP // (1 + pools)
    validate_config({**raw, "horizon": largest})
    # each of these passes the record cap: at stride 100 or more it keeps at most 1e7 records
    for horizon, stride in [(largest + 1, 100), (999_999_900, 100), (10**10, 10_000)]:
        with pytest.raises(ConfigError) as info:
            validate_config({**raw, "horizon": horizon, "record_stride": stride})
        assert str(info.value) == (
            f"horizon: {horizon} orders * (1 + {pools} pools) = {horizon * (1 + pools)} "
            f"series values, above the cap of {_DARKPOOL_SERIES_CAP}; lower horizon"
        )
    cfg = _write_cfg(tmp_path / "c.yaml", yaml.safe_dump({**raw, "horizon": largest + 1}))
    for command in (["run", cfg], ["sweep", cfg, "--seeds", "0..1"]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: horizon: {largest + 1} orders ")
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# the command line itself
# ---------------------------------------------------------------------------

def _write_cfg(path, text):
    path.write_text(text)
    return str(path)


def test_cli_list_prints_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("implicit-correlation", "var-cvar", "dark-pool"):
        assert name in out


def test_cli_run_and_plot_round_trip(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path / "c.yaml",
        "experiment: implicit-correlation\n"
        "seed: 0\n"
        "horizon: 2000\n"
        f"output_dir: {tmp_path / 'out'}\n",
    )
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "implicit-correlation" in out and "ok" in out
    csv = tmp_path / "out" / "trajectory.csv"
    assert main(["plot", str(csv), "--channel", "rho", "--target", "-0.5"]) == 0
    svg = capsys.readouterr().out.strip()
    assert svg.endswith(".svg")
    first = (tmp_path / "out" / "trajectory.rho.svg").read_bytes()
    assert main(["plot", str(csv), "--channel", "rho", "--target", "-0.5"]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "trajectory.rho.svg").read_bytes() == first


def test_cli_plot_draws_the_int64_steps_as_their_floats(tmp_path, capsys):
    # the reader returns n as int64; the plot has the bytes of float steps
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path / "c.yaml", "experiment: rate-fit\nseed: 0\nhorizon: 5000\n"
                     f"record_stride: 1\noutput_dir: {out}\n")
    assert main(["run", cfg]) == 0
    csv = out / "trajectory.csv"
    assert main(["plot", str(csv), "--channel", "abs_error", "--logx",
                 "--out", str(tmp_path / "p.svg")]) == 0
    capsys.readouterr()
    cols = read_csv_columns(csv)
    assert cols["n"].dtype == np.int64
    assert (tmp_path / "p.svg").read_text() == render_line_svg(
        cols["n"].astype(float), cols["abs_error"], title="trajectory.csv",
        xlabel="n", ylabel="abs_error", logx=True)


def test_cli_plot_rejects_unknown_channel(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path / "c.yaml",
        "experiment: rate-fit\nseed: 0\nhorizon: 600\n"
        f"output_dir: {tmp_path / 'out'}\n",
    )
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    csv = str(tmp_path / "out" / "trajectory.csv")
    assert main(["plot", csv, "--channel", "nope"]) == 2
    err = capsys.readouterr().err
    assert "theta_0" in err and "abs_error" in err


def test_cli_plot_refuses_a_channel_that_is_no_path_suffix(tmp_path, capsys):
    # the default output path is the CSV's with suffix .<channel>.svg,
    # which "a/b" cannot be: refused like any other unwritable plot
    csv = tmp_path / "f.csv"
    csv.write_text("n,a/b\n0,1.0\n1,2.0\n")
    assert main(["plot", str(csv), "--channel", "a/b"]) == 2
    assert capsys.readouterr().err.startswith("cannot plot:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv"]


def test_cli_plot_rejects_malformed_csv_with_row_number(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("n,theta_0\n0,1.0\n100,2.0,extra\n")
    assert main(["plot", str(bad), "--channel", "theta_0"]) == 2
    assert ":3:" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
def test_cli_plot_rejects_non_finite_target(tmp_path, capsys, target):
    csv = tmp_path / "t.csv"
    csv.write_text("n,theta_0\n0,1.0\n100,2.0\n")
    out = tmp_path / "t.svg"
    assert main(["plot", str(csv), "--channel", "theta_0", f"--target={target}",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot plot" in err and "target" in err
    assert not out.exists()


def test_cli_run_config_error_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.yaml", "experiment: var-cvar\n")
    assert main(["run", cfg]) == 2
    assert "seed" in capsys.readouterr().err
    missing = str(tmp_path / "nothere.yaml")
    assert main(["run", missing]) == 2


@pytest.mark.parametrize(
    "experiment, body, key",
    [
        ("implicit-correlation", "params: {target_rho: .nan}", "params.target_rho"),
        ("var-cvar", "step: {c: .inf}", "step.c"),
        ("rate-fit", "params: {theta0: -.inf}", "params.theta0"),
        ("dark-pool", "params: {mix: [.nan, 0.5]}", "params.mix[0]"),
        ("rate-fit", "params: {theta0: " + "9" * 400 + "}", "params.theta0"),
    ],
    ids=["target_rho-nan", "c-inf", "theta0-minus-inf", "mix-nan", "theta0-huge-int"],
)
def test_cli_run_refuses_non_finite_numbers(tmp_path, capsys, experiment, body, key):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path / "c.yaml",
        f"experiment: {experiment}\nseed: 0\n{body}\noutput_dir: {out}\n",
    )
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "0..1"]],
                         ids=["run", "sweep"])
def test_cli_malformed_yaml_is_a_config_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path / "c.yaml",
        f"experiment: rate-fit\noutput_dir: {out}\nseed: [0,\n",
    )
    assert main([command[0], cfg, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and re.search(r"line \d+, column \d+", err)
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "0..1"]],
                         ids=["run", "sweep"])
@pytest.mark.parametrize(
    "body, key, line",
    [
        # safe_load would keep the second block and run with c = 1.0
        ("step: {c: 0.5}\nstep: {a: 0.9}\n", "step", 5),
        ("step:\n  c: 0.5\n  c: 0.6\n", "c", 6),
    ],
    ids=["top-level", "nested"],
)
def test_cli_repeated_key_is_a_config_error(tmp_path, capsys, command, body, key, line):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path / "c.yaml",
        f"experiment: rate-fit\nseed: 0\nhorizon: 2000\n{body}output_dir: {out}\n",
    )
    assert main([command[0], cfg, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: repeated key at line {line}")
    assert not out.exists()


@pytest.mark.parametrize(
    "body, key",
    [
        ("1: 2\nfoo: 3\n", "unknown key '1'"),
        ("? null\nfoo: 3\n", "unknown key 'None'"),
        ("params:\n  1: 2\n  foo: 3\n", "unknown key 'params.1'"),
        ("params:\n  ? null\n  foo: 3\n", "unknown key 'params.None'"),
    ],
    ids=["root-int", "root-null", "params-int", "params-null"],
)
def test_cli_non_string_key_is_a_config_error(tmp_path, capsys, body, key):
    # YAML keys need not be strings; one beside a string key is refused
    # by name instead of failing to sort
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path / "c.yaml",
                     f"experiment: rate-fit\nseed: 0\n{body}output_dir: {out}\n")
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}; allowed here:")
    assert not out.exists()


def test_cli_unhashable_experiment_name_is_a_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.yaml", "experiment: [1, 2]\nseed: 0\n")
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: experiment: unknown name [1, 2]")


def test_cli_plot_reports_an_unwritable_output(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    csv.write_text("n,theta_0\n0,1.0\n100,2.0\n")
    out = tmp_path / "missing" / "a.svg"
    assert main(["plot", str(csv), "--channel", "theta_0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot plot:") and "No such file or directory" in err


@pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "0..1"]],
                         ids=["run", "sweep"])
def test_cli_unwritable_output_dir_is_a_write_error(tmp_path, capsys, command):
    # the config reads fine; its output_dir lies under a regular file
    (tmp_path / "afile").write_text("")
    cfg = _write_cfg(
        tmp_path / "c.yaml",
        f"experiment: rate-fit\nseed: 0\nhorizon: 1000\noutput_dir: {tmp_path / 'afile' / 'out'}\n",
    )
    assert main([command[0], cfg, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write artifacts:") and "Not a directory" in err


@pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "0..2"]],
                         ids=["run", "sweep"])
def test_cli_unwritable_output_dir_is_refused_before_the_run(
    tmp_path, capsys, monkeypatch, command
):
    # found only once artifacts were written, the refusal came after a whole
    # run; it must come before the runner, and make nothing
    def runner(cfg):
        raise AssertionError("the runner ran for an unwritable output_dir")

    monkeypatch.setitem(REGISTRY, "dark-pool",
                        dataclasses.replace(REGISTRY["dark-pool"], runner=runner))
    (tmp_path / "afile").write_text("")
    cfg = _write_cfg(
        tmp_path / "c.yaml",
        f"experiment: dark-pool\nseed: 0\noutput_dir: {tmp_path / 'afile' / 'out'}\n",
    )
    assert main([command[0], cfg, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write artifacts:") and "Not a directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "c.yaml"]


def _refuse_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def test_cli_darkpool_divergence_aborts_with_a_strict_json_summary(tmp_path):
    # every key lies in its interval, yet the allocation overflows into NaN;
    # unguarded, the run exited 0 with status ok and bare NaN tokens in
    # summary.json.  A subprocess, so numpy's overflow warnings stay warnings.
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path / "c.yaml",
        "experiment: dark-pool\nseed: 7\nhorizon: 2000\nstep: {c: 1.0e+308}\n"
        f"source: {{log_sigma: 3.0}}\noutput_dir: {out}\n",
    )
    env = {**os.environ, "PYTHONPATH": str(Path(avgsa.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "avgsa.cli", "run", cfg], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_refuse_constant)
    assert summary["status"] == "aborted" and "step 130" in summary["failure"]
    assert summary["final"] is None and not (out / "trajectory.csv").exists()


def test_cli_run_refuses_target_beyond_float_range(tmp_path, capsys):
    # the closed-form capacity (0.7 E[Y^0.8] / 1e-4)^1000 overflows; the
    # run stops before the recursion instead of crashing after it
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path / "c.yaml",
        "experiment: ergodic-investment\nseed: 0\nhorizon: 2000\n"
        f"params: {{beta: 0.999, cost: 0.0001}}\noutput_dir: {out}\n",
    )
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "beta=0.999" in err and "cost=0.0001" in err
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("experiment, params, error", [
    ("ergodic-investment", "theta_tilde0: -1000000000.0",
     "ZeroDivisionError: 0.0 cannot be raised to a negative power"),
    ("implicit-correlation", "rate: 1000.0", "OverflowError: math range error"),
], ids=["investment", "correlation"])
def test_cli_run_field_error_aborts_like_a_divergence(tmp_path, capsys, experiment, params,
                                                      error):
    # every key lies in its interval, yet the field raises at step 1; before,
    # the run ended in a traceback and wrote nothing
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path / "c.yaml", f"experiment: {experiment}\nseed: 0\nhorizon: 2000\n"
                     f"params: {{{params}}}\noutput_dir: {out}\n")
    assert main(["run", cfg]) == 1
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "aborted"
    assert summary["failure"].startswith(f"iterate diverged at step 1: {error} (theta = ")
    assert sorted(p.name for p in out.iterdir()) == ["effective_config.yaml", "summary.json"]


def test_cli_run_refuses_a_discount_beyond_float_range(tmp_path, capsys):
    # exp(1904.9) overflowed while the kernel was built, in a traceback
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path / "c.yaml", "experiment: implicit-correlation\nseed: 0\n"
                     f"params: {{rate: -1904.9}}\noutput_dir: {out}\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "rate=-1904.9" in err and "maturity=1" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "0..1"]],
                         ids=["run", "sweep"])
@pytest.mark.parametrize("horizon, stride", [(10, 10), (10, 11), (1, 1)])
def test_cli_rate_fit_refuses_a_stride_that_leaves_one_log_x_point(tmp_path, capsys, command,
                                                                   horizon, stride):
    # the log-x plot draws the records past n = 0; with one, the SVG writer
    # refused after the config and CSV were on disk, and no summary followed
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path / "c.yaml", f"experiment: rate-fit\nseed: 0\nhorizon: {horizon}\n"
                     f"record_stride: {stride}\noutput_dir: {out}\n")
    assert main([command[0], cfg, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: record_stride: {stride} >= horizon {horizon} ")
    assert not out.exists()


def test_cli_run_investment_at_large_gamma_shape(tmp_path, capsys):
    # sigma = 0.05 meets the Feller condition with an invariant Gamma shape
    # of 800, whose Gamma function is beyond the float range
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path / "c.yaml",
        "experiment: ergodic-investment\nseed: 0\nhorizon: 2000\n"
        f"params: {{sigma: 0.05}}\noutput_dir: {out}\n",
    )
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "ok" and np.isfinite(summary["target"][0])


def test_cli_run_abort_exit_code(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path / "c.yaml",
        "experiment: rate-fit\nseed: 0\nhorizon: 500\n"
        "step: {c: 1.0e+12}\nsource: {kind: iid-gaussian}\n"
        f"output_dir: {tmp_path / 'boom'}\n",
    )
    assert main(["run", cfg]) == 1
    assert (tmp_path / "boom" / "summary.json").exists()
    assert (tmp_path / "boom" / "effective_config.yaml").exists()
    assert not (tmp_path / "boom" / "trajectory.csv").exists()
    capsys.readouterr()


def test_cli_sweep_writes_per_seed_dirs(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path / "c.yaml",
        "experiment: two-armed-bandit\nseed: 0\nhorizon: 2000\n"
        f"output_dir: {tmp_path / 'sweep'}\n",
    )
    assert main(["sweep", cfg, "--seeds", "0..2"]) == 0
    out = capsys.readouterr().out
    assert "3 runs, 0 failed" in out
    for s in range(3):
        assert (tmp_path / "sweep" / f"seed-{s}" / "summary.json").exists()
    # the seed in each summary matches its directory
    s1 = json.loads((tmp_path / "sweep" / "seed-1" / "summary.json").read_text())
    assert s1["seed"] == 1


def test_cli_sweep_rejects_bad_range(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path / "c.yaml",
        "experiment: two-armed-bandit\nseed: 0\nhorizon: 100\n",
    )
    assert main(["sweep", cfg, "--seeds", "5..2"]) == 2
    assert main(["sweep", cfg, "--seeds", "abc"]) == 2
    # more workers than CPUs is refused before any pool is built
    jobs = str((os.cpu_count() or 1) + 1)
    assert main(["sweep", cfg, "--seeds", "0..1", "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_cli_sweep_memory_is_flat_in_the_seed_range(tmp_path, monkeypatch):
    # with the replication stubbed out, what remains is what the sweep
    # itself holds: O(jobs) configs and summaries, not one per seed
    monkeypatch.setattr("avgsa.cli.run_experiment", lambda cfg: SimpleNamespace(
        summary={"seed": cfg["seed"], "status": "ok", "error": 0.5}))
    cfg = _write_cfg(tmp_path / "c.yaml", "experiment: rate-fit\nseed: 0\n")
    peaks = []
    # stdout goes to a sink that keeps nothing, so the trace holds the sweep alone
    with contextlib.redirect_stdout(SimpleNamespace(write=len)):
        for hi in (0, 999, 9_999):        # the first run warms every cache
            tracemalloc.start()
            try:
                assert main(["sweep", cfg, "--seeds", f"0..{hi}"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    # the peak moves by a few hundred bytes from run to run, whatever the range;
    # holding even one pointer a seed would add 8 B for each of the 9000 more seeds
    assert peaks[2] - peaks[1] < 8 * (9_999 - 999), peaks


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 needs two CPUs")
def test_cli_sweep_pool_streams_in_seed_order_past_its_queue(tmp_path, monkeypatch, capsys):
    # 21 seeds cross the pool's queue of 4 * jobs = 8 runs more than twice.  Seed 0
    # ends last of its queue; the runs that started before it ended must lie in
    # that queue, so the pool holds O(jobs) configs and summaries, not one a seed.
    # The pool forks, so the stub reaches its workers.
    ran = tmp_path / "ran"
    ran.mkdir()

    def stub(cfg):
        (ran / str(cfg["seed"])).touch()
        if cfg["seed"] == 0:
            time.sleep(0.5)
            (tmp_path / "seen").write_text(" ".join(p.name for p in ran.iterdir()))
        return SimpleNamespace(summary={"seed": cfg["seed"], "status": "ok", "error": 0.5})

    monkeypatch.setattr("avgsa.cli.run_experiment", stub)
    cfg = _write_cfg(tmp_path / "c.yaml", "experiment: rate-fit\nseed: 0\n")
    assert main(["sweep", cfg, "--seeds", "0..20", "--jobs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"seed {s}: ok  error=0.5" for s in range(21)]
    assert lines[-1].startswith("21 runs, 0 failed, artifacts under ")
    assert sorted(p.name for p in ran.iterdir()) == sorted(str(s) for s in range(21))
    assert max(int(s) for s in (tmp_path / "seen").read_text().split()) <= 4 * 2


# ---------------------------------------------------------------------------
# the SVG renderer
# ---------------------------------------------------------------------------

def test_render_svg_deterministic_and_self_contained():
    x = np.arange(1, 200)
    y = 1.0 / np.sqrt(x)
    a = render_line_svg(x, y, title="decay", ylabel="err", target=0.0)
    b = render_line_svg(x, y, title="decay", ylabel="err", target=0.0)
    assert a == b
    assert a.startswith("<svg ") and a.rstrip().endswith("</svg>")
    # no external fetches: a strict static document
    assert "http://" not in a.replace("http://www.w3.org/2000/svg", "")
    assert "polyline" in a and "decay" in a


def test_render_svg_logx_and_validation():
    x = np.array([1.0, 10.0, 100.0, 1000.0])
    y = np.array([1.0, 0.5, 0.2, 0.1])
    doc = render_line_svg(x, y, logx=True)
    assert "log scale" in doc
    with pytest.raises(ValueError):
        render_line_svg([1.0], [2.0])
    with pytest.raises(ValueError):
        render_line_svg([1.0, 2.0], [1.0, 2.0, 3.0])
    # all points dropped on a log axis
    with pytest.raises(ValueError):
        render_line_svg([-1.0, -2.0], [1.0, 2.0], logx=True)
    # a target line needs a finite height
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="target"):
            render_line_svg([1.0, 2.0], [3.0, 4.0], target=bad)


def test_render_svg_escapes_labels():
    doc = render_line_svg([1.0, 2.0], [3.0, 4.0], title="a<b&c", ylabel="x>y")
    assert "a&lt;b&amp;c" in doc and "x&gt;y" in doc


def test_the_package_loads_only_numpy_and_pyyaml():
    # runtime dependencies stay at numpy + PyYAML: every module the CLI,
    # the experiments and the applications load comes from the standard
    # library, the package itself, or one of these two distributions
    env = {**os.environ, "PYTHONPATH": str(Path(avgsa.__file__).resolve().parents[1])}
    code = """
import importlib, importlib.metadata, pkgutil, sys
before = set(sys.modules)
import avgsa.applications, avgsa.cli, avgsa.experiments
for info in pkgutil.iter_modules(avgsa.applications.__path__):
    importlib.import_module(f"avgsa.applications.{info.name}")
owners = importlib.metadata.packages_distributions()
tops = {name.partition(".")[0] for name in set(sys.modules) - before} - {"avgsa"}
print(sorted({dist for top in tops for dist in owners.get(top, [])}))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['PyYAML', 'numpy']"


def test_importing_the_cli_leaves_out_multiprocessing():
    # only a sweep with --jobs > 1 imports the process pool, which pulls
    # in multiprocessing; every other command starts without it.  The CSV
    # kernel is imported on the first trajectory write, so start-up does
    # not compile it either.
    env = {**os.environ, "PYTHONPATH": str(Path(avgsa.__file__).resolve().parents[1])}
    code = ("import sys, avgsa.cli; print(sorted(m for m in sys.modules if 'multiprocessing' in m),"
            " 'avgsa.csvtext' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] False"
