"""Registry, config validation, artifact plumbing, and the command-line
verbs."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import avgsa
from avgsa.cli import main
from avgsa.engine import read_csv_columns
from avgsa.experiments import (
    REGISTRY,
    ConfigError,
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
    assert arts.summary_path.exists()
    assert arts.config_path.exists()
    s = json.loads(arts.summary_path.read_text())
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
    sum1 = json.loads(arts.summary_path.read_text())
    # rerun from the serialized effective config
    with open(arts.config_path) as fh:
        effective = yaml.safe_load(fh)
    arts2 = run_experiment(effective)
    assert arts2.csv_path.read_bytes() == csv1
    assert arts2.plot_path.read_bytes() == svg1
    sum2 = json.loads(arts2.summary_path.read_text())
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
    s = json.loads(arts.summary_path.read_text())
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


def test_importing_the_cli_leaves_out_multiprocessing():
    # only a sweep with --jobs > 1 imports the process pool, which pulls
    # in multiprocessing; every other command starts without it
    env = {**os.environ, "PYTHONPATH": str(Path(avgsa.__file__).resolve().parents[1])}
    code = "import sys, avgsa.cli; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
