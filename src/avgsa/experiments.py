"""Named, config-driven experiments over the recursion engine.

Each experiment couples an innovation stream, a step schedule, and an
update field into a reproducible run: YAML config in, deterministic CSV +
SVG + JSON summary out.  The registry is what the command line exposes;
every entry validates its config strictly before any file is written:
unknown keys are hard errors (a silently ignored typo can invalidate a
replication), each key's schema caster refuses a value outside its
interval, naming the key and the interval, and inadmissible
schedule/source pairs are refused too.

All randomness flows from the single config ``seed`` through indexed
splits, one per stream: replications are reproducible individually and
adding a component never reshuffles the others.
"""

from __future__ import annotations

import errno
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np
import yaml

from avgsa import engine
from avgsa.applications import bandit as bd
from avgsa.applications import correlation as corr
from avgsa.applications import darkpool as dp
from avgsa.applications import investment as inv
from avgsa.applications import varcvar as vc
from avgsa.diagnostics import ErrorPath, fit_rate
from avgsa.engine import StepSchedule, Trajectory
from avgsa.innovations import _DISCREPANCY_BUDGET, _within_discrepancy_budget
from avgsa.innovations import ar1_stationary_scale, make_source, star_discrepancy_exact
from avgsa.plotting import write_line_svg

__all__ = [
    "ConfigError",
    "RunArtifacts",
    "REGISTRY",
    "experiment_names",
    "describe_experiments",
    "load_config",
    "validate_config",
    "run_experiment",
]


class ConfigError(ValueError):
    """A configuration problem, reported with the offending dotted key."""


# ---------------------------------------------------------------------------
# schema machinery
# ---------------------------------------------------------------------------
#
# A schema is a nested dict mirroring the config tree; each leaf is a
# (default, caster) pair.  Validation merges user values over defaults,
# casting as it goes, and rejects keys the schema does not know.

def _number(lo=-math.inf, hi=math.inf, ends: str = "()", integer: bool = False):
    """Caster for a finite number between ``lo`` and ``hi``, each end open
    or closed as ``ends`` says: "()", "(]", "[)" or "[]".  bool is refused;
    an ``integer`` key takes only ints, any other key returns a float."""
    interval = f"{ends[0]}{lo!r}, {hi!r}{ends[1]}"

    def cast(path: str, v):
        if isinstance(v, bool) or not isinstance(v, int if integer else (int, float)):
            kind = "an integer" if integer else "a number"
            raise ConfigError(f"{path}: expected {kind}, got {v!r}")
        if not integer:
            try:
                v = float(v)
            except OverflowError:
                raise ConfigError(
                    f"{path}: must be finite, got an integer too big for a float"
                ) from None
            if not math.isfinite(v):
                raise ConfigError(f"{path}: must be finite, got {v}")
        above = lo <= v if ends[0] == "[" else lo < v
        below = v <= hi if ends[1] == "]" else v < hi
        if not (above and below):
            raise ConfigError(f"{path}: must lie in {interval}, got {v}")
        return v

    return cast


# the casters most keys share
_REAL = _number()
_POSITIVE = _number(0)
_COUNT = _number(1, ends="[)", integer=True)


def _str_caster(path: str, v) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"{path}: expected a string, got {v!r}")
    return v


def _bool_caster(path: str, v) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{path}: expected true/false, got {v!r}")
    return v


def _floats(item):
    def cast(path: str, v) -> list:
        if not isinstance(v, (list, tuple)) or not v:
            raise ConfigError(f"{path}: expected a nonempty list of numbers, got {v!r}")
        return [item(f"{path}[{i}]", x) for i, x in enumerate(v)]

    return cast


def _optional(caster):
    def cast(path: str, v):
        return None if v is None else caster(path, v)

    return cast


def _choice(*options: str):
    def cast(path: str, v) -> str:
        if v not in options:
            raise ConfigError(f"{path}: {v!r} not supported; choose one of " + ", ".join(options))
        return v

    return cast


def _merge(schema: dict, given: dict, path: str) -> dict:
    out: dict = {}
    unknown = set(given) - set(schema)
    if unknown:
        key = min(unknown, key=str)   # str: YAML keys need not be strings
        dotted = f"{path}.{key}" if path else str(key)
        raise ConfigError(
            f"unknown key {dotted!r}; allowed here: " + ", ".join(schema)
        )
    for key, spec in schema.items():
        sub_path = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            sub_given = given.get(key, {})
            if sub_given is None:
                sub_given = {}
            if not isinstance(sub_given, dict):
                raise ConfigError(f"{sub_path}: expected a mapping")
            out[key] = _merge(spec, sub_given, sub_path)
        else:
            default, caster = spec
            if key in given:
                out[key] = caster(sub_path, given[key])
            else:
                out[key] = default
    return out


# ---------------------------------------------------------------------------
# registry plumbing
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What a runner hands back; ``run_experiment`` derives every summary
    number from it.

    ``channel`` is the plotted trajectory column.  Given a ``target`` and
    no ``errors``, the error path is ``|channel - target[0]|`` and the plot
    draws ``target[0]``; a runner with another error measure passes its
    path as ``errors``.  The summary ``error`` is the path's last value
    when there is a target, and ``fitted_rate`` the power-law fit of the
    path whenever there is one.
    """

    trajectory: Trajectory
    channel: str
    target: list | None = None
    errors: np.ndarray | None = None
    logx: bool = False
    notes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    schema: dict
    runner: Callable
    # extra config checks beyond the schema, run at validation time so a
    # bad config is refused before any computation starts
    preflight: Callable | None = None


@dataclass(frozen=True)
class RunArtifacts:
    """Where a run wrote its artifacts, plus the parsed summary."""

    out_dir: Path
    csv_path: Path | None
    plot_path: Path | None
    summary: dict


def _split_seed(seed: int, index: int) -> int:
    """Indexed split of the config seed: stable, collision-free child
    seeds, one per random component."""
    return int(np.random.SeedSequence((int(seed), int(index))).generate_state(1)[0])


# innovation-averaging decay exponent the pre-run admissibility gate uses
# for every independent or geometrically mixing stream; low-discrepancy
# streams go through the dimension-aware rule and the Euler path through
# its own step exponent instead
_POWER_RATE_BETA = 0.5


def _gate_admissibility(kind: str, dimension: int, step_cfg: dict, source_cfg: dict) -> None:
    a, c = step_cfg["a"], step_cfg["c"]
    if kind in ("halton", "halton-gaussian"):
        report = engine.admissible_qsa(dimension, a)
    elif kind == "cir-euler":
        report = engine.admissible_power_pair(a, source_cfg["exponent"])
    else:
        report = engine.admissible_power_pair(a, _POWER_RATE_BETA)
    if not report.ok:
        raise ConfigError(
            f"step schedule c={c!r}, a={a!r} is not admissible for source "
            f"'{kind}': {report.rule} (violated: {report.failed_condition})"
        )


def _fit_error_decay(ns: np.ndarray, errors: np.ndarray) -> float | None:
    """Power-law fit of an error path; None when the path carries too
    little information (early records, exact zeros)."""
    try:
        fit = fit_rate(ErrorPath(ns=ns, errors=errors))
    except ValueError:
        return None
    return fit.beta_hat + 0.0  # fold -0.0 into 0.0 for clean reporting


# ---------------------------------------------------------------------------
# the experiments
# ---------------------------------------------------------------------------

_COMMON_SCHEMA = {
    "seed": (None, _number(0, ends="[)", integer=True)),
    "horizon": None,          # filled per experiment
    "record_stride": (100, _COUNT),
    "output_dir": (None, _optional(_str_caster)),
}


def _schema(horizon: int, step: dict, source: dict, params: dict) -> dict:
    return {**_COMMON_SCHEMA, "horizon": (horizon, _COUNT),
            "step": step, "source": source, "params": params}


def _scalar_source(cfg: dict):
    """The one-dimensional stream of ``source.kind``, with its mixing
    coefficient for the AR(1) chain."""
    kind = cfg["source"]["kind"]
    kwargs = {"a": cfg["source"]["mixing"]} if kind == "ar1-mixing" else {}
    return make_source(kind, 1, _split_seed(cfg["seed"], 0), **kwargs)


def _run_correlation(cfg: dict) -> Outcome:
    pr = cfg["params"]
    p = corr.BestOfCallParams(
        x1=pr["x1"], x2=pr["x2"], rate=pr["rate"],
        sigma1=pr["sigma1"], sigma2=pr["sigma2"],
        maturity=pr["maturity"], strike=pr["strike"],
        market_price=pr["market_price"],
    )
    src = make_source(cfg["source"]["kind"], 2, _split_seed(cfg["seed"], 0))
    traj = corr.calibrate_correlation(
        p, src, StepSchedule(**cfg["step"]),
        cfg["horizon"], theta0=pr["theta0"], record_stride=cfg["record_stride"],
    )
    tgt = pr["target_rho"]
    return Outcome(
        traj, "rho", target=None if tgt is None else [tgt],
        notes={"rho_final": float(traj.channel("rho")[-1])},
    )


def _var_cvar_targets(kind: str, alpha: float, mixing: float):
    """Analytic quantile / tail-mean pair for the supported laws."""
    nd = NormalDist()
    if kind == "iid-uniform":
        return alpha, (1.0 + alpha) / 2.0
    scale = 1.0
    if kind == "ar1-mixing":
        # stationary marginal of x' = a x + xi is N(0, 1/(1-a^2))
        scale = ar1_stationary_scale(mixing)
    z = nd.inv_cdf(alpha)
    es = math.exp(-z * z / 2.0) / (math.sqrt(2.0 * math.pi) * (1.0 - alpha))
    return scale * z, scale * es


def _run_var_cvar(cfg: dict) -> Outcome:
    alpha = cfg["params"]["alpha"]
    traj = vc.var_cvar_trajectory(
        _scalar_source(cfg), StepSchedule(**cfg["step"]), cfg["horizon"],
        alpha=alpha, theta0=cfg["params"]["theta0"],
        record_stride=cfg["record_stride"],
    )
    q, es = _var_cvar_targets(cfg["source"]["kind"], alpha, cfg["source"]["mixing"])
    zeta = float(traj.channel("cvar")[-1])
    return Outcome(
        traj, "theta_0", target=[q],
        notes={"cvar_final": zeta, "cvar_target": es, "cvar_error": abs(zeta - es)},
    )


def _run_investment(cfg: dict) -> Outcome:
    pr = cfg["params"]
    p = inv.CirParams(kappa=pr["kappa"], vartheta=pr["vartheta"], sigma=pr["sigma"])
    q = inv.CobbDouglasParams(alpha=pr["alpha"], beta=pr["beta"], cost=pr["cost"])
    star = inv.theta_star_closed_form(p, q)
    traj = inv.investment_run(
        p, q, StepSchedule(**cfg["step"]), cfg["horizon"],
        step0=cfg["source"]["step0"], exponent=cfg["source"]["exponent"],
        seed=_split_seed(cfg["seed"], 0), theta_tilde0=pr["theta_tilde0"],
        chain_rule=pr["chain_rule"], record_stride=cfg["record_stride"],
    )
    return Outcome(
        traj, "capacity", target=[star],
        notes={
            "capacity_final": float(traj.channel("capacity")[-1]),
            "feller_condition": p.feller,
        },
    )


def _run_bandit(cfg: dict) -> Outcome:
    pr = cfg["params"]
    events = bd.make_event_source(
        cfg["source"]["kind"], pr["freq_a"], pr["freq_b"],
        _split_seed(cfg["seed"], 0), mixing=cfg["source"]["mixing"],
    )
    uniforms = make_source("iid-uniform", 1, _split_seed(cfg["seed"], 1))
    res = bd.bandit_run(
        events, uniforms, StepSchedule(**cfg["step"]),
        cfg["horizon"], theta0=pr["theta0"], record_stride=cfg["record_stride"],
    )
    target = None
    if pr["freq_a"] != pr["freq_b"]:
        target = [1.0 if pr["freq_a"] > pr["freq_b"] else 0.0]
    return Outcome(
        res.trajectory, "theta_0", target=target,
        notes={"classification": res.classification},
    )


# a dark-pool run holds its whole series, horizon * (1 + pools) values, from
# before step 1: 96-104 B an order measured with two venues, 176 B with four,
# so 5e7 values, 100 times the shipped four-venue series, are about 1.8 GB
_DARKPOOL_SERIES_CAP = 50_000_000


def _preflight_darkpool(cfg: dict) -> None:
    pr = cfg["params"]
    sizes = {len(pr["mix"]), len(pr["scale"]), len(pr["rebates"])}
    if len(sizes) != 1:
        raise ConfigError(
            "params: mix, scale and rebates must have one entry per pool "
            f"(got lengths {len(pr['mix'])}, {len(pr['scale'])}, {len(pr['rebates'])})"
        )
    if (pools := sizes.pop()) < 2:
        raise ConfigError("params: need at least two pools")
    if (values := cfg["horizon"] * (1 + pools)) > _DARKPOOL_SERIES_CAP:
        raise ConfigError(f"horizon: {cfg['horizon']} orders * (1 + {pools} pools) = {values} "
                          f"series values, above the cap of {_DARKPOOL_SERIES_CAP}; lower horizon")


def _run_darkpool(cfg: dict) -> Outcome:
    pr = cfg["params"]
    mix, scale, rebates = (np.asarray(pr[k], dtype=float) for k in ("mix", "scale", "rebates"))
    volumes, capacities = dp.synthetic_darkpool_series(
        cfg["horizon"], seed=_split_seed(cfg["seed"], 0), mix=mix, scale=scale,
        mixing=cfg["source"]["mixing"], log_sigma=cfg["source"]["log_sigma"],
    )
    traj = dp.darkpool_run(
        volumes, capacities, rebates,
        StepSchedule(**cfg["step"]), record_stride=cfg["record_stride"],
    )
    out = Outcome(
        traj, "mean_cost_reduction",
        notes={"safeguard_count": int(traj.channel("safeguard_count")[-1]),
               "oracle_allocation": None},
    )
    if mix.size == 2:
        # the brute-force reference is cheap for two pools; the summary
        # error is the sup-norm distance of the allocation path to it
        oracle = dp.brute_force_allocation(volumes, capacities, rebates)
        out.target = oracle.tolist()
        out.notes["oracle_allocation"] = oracle.tolist()
        out.errors = np.abs(traj.thetas - oracle).max(axis=1)
    return out


def _preflight_discrepancy(cfg: dict) -> None:
    """Refuse an empty exponent range, and a largest table of ``n = 2**k1``
    points whose critical grid breaks the exact-discrepancy budget
    ``(n+1)**q * q <= 1e8``."""
    k0, k1 = cfg["params"]["min_exponent"], cfg["params"]["max_exponent"]
    q = cfg["source"]["dimension"]
    if k0 >= k1:
        raise ConfigError(f"params: need min_exponent < max_exponent, got {k0}..{k1}")
    if not _within_discrepancy_budget(1 << k1, q):
        raise ConfigError(
            f"params.max_exponent: 2**{k1} points in dimension {q} exceed the exact "
            f"discrepancy budget, (n+1)**q * q <= {_DISCREPANCY_BUDGET:.0e}"
        )


def _run_discrepancy(cfg: dict) -> Outcome:
    pr = cfg["params"]
    dim = cfg["source"]["dimension"]
    ks = range(pr["min_exponent"], pr["max_exponent"] + 1)

    def dstar(kind: str, seed: int, k: int) -> float:
        return star_discrepancy_exact(make_source(kind, dim, seed).take_block(1 << k))

    hal = np.asarray([dstar("halton", 0, k) for k in ks])
    ref = np.asarray([dstar("iid-uniform", _split_seed(cfg["seed"], k), k) for k in ks])
    # a table with no iterate: zero theta columns, two monitor channels
    table = Trajectory(
        ns=np.asarray([1 << k for k in ks], dtype=np.int64),
        thetas=np.empty((len(ks), 0)),
        monitors={"dstar_halton": hal, "dstar_iid": ref},
    )
    return Outcome(
        table, "dstar_halton", errors=hal, logx=True,
        notes={"dstar_final_halton": float(hal[-1]), "dstar_final_iid": float(ref[-1])},
    )


_RATE_FIT_MEANS = {"halton": 0.5, "iid-uniform": 0.5, "iid-gaussian": 0.0, "ar1-mixing": 0.0}


def _preflight_rate_fit(cfg: dict) -> None:
    """Refuse a path with fewer than two records past ``n = 0``, the
    points its log-x plot draws."""
    if cfg["record_stride"] >= cfg["horizon"]:
        raise ConfigError(f"record_stride: {cfg['record_stride']} >= horizon {cfg['horizon']} "
                          "leaves the log-x plot one point past n = 0; lower record_stride")


def _run_rate_fit(cfg: dict) -> Outcome:
    mean = _RATE_FIT_MEANS[cfg["source"]["kind"]]
    traj = engine.run(
        cfg["params"]["theta0"], _scalar_source(cfg), lambda th, y: th - y[0],
        StepSchedule(**cfg["step"]), cfg["horizon"],
        record_stride=cfg["record_stride"],
    )
    # the recorded path holds every value this column needs: one subtraction
    # and one abs per record, the IEEE operations a monitor would apply
    errors = traj.monitors["abs_error"] = traj.thetas[:, 0] - mean
    np.abs(errors, out=errors)
    return Outcome(traj, "abs_error", target=[mean], errors=errors, logx=True)


REGISTRY: dict = {}


def _register(exp: Experiment) -> None:
    REGISTRY[exp.name] = exp


_register(Experiment(
    name="implicit-correlation",
    description="calibrate the implied correlation of a best-of-two call to a market quote",
    schema=_schema(
        horizon=100_000,
        step={"c": (8.0, _POSITIVE), "a": (1.0, _REAL)},
        source={"kind": ("halton-gaussian", _choice("halton-gaussian", "iid-gaussian"))},
        params={
            "x1": (100.0, _POSITIVE), "x2": (100.0, _POSITIVE),
            "rate": (0.10, _REAL),
            "sigma1": (0.30, _POSITIVE), "sigma2": (0.30, _POSITIVE),
            "maturity": (1.0, _POSITIVE), "strike": (100.0, _REAL),
            "market_price": (30.75, _POSITIVE),
            "theta0": (0.0, _REAL),
            "target_rho": (-0.5, _optional(_REAL)),
        },
    ),
    runner=_run_correlation,
))

_register(Experiment(
    name="var-cvar",
    description="track a value-at-risk quantile with its expected-shortfall companion",
    schema=_schema(
        horizon=1_000_000,
        step={"c": (4.0, _POSITIVE), "a": (0.75, _REAL)},
        source={
            "kind": ("iid-gaussian", _choice("iid-gaussian", "iid-uniform", "ar1-mixing")),
            "mixing": (0.5, _number(-1, 1)),
        },
        params={"alpha": (0.95, _number(0, 1)), "theta0": (0.0, _REAL)},
    ),
    runner=_run_var_cvar,
))

_register(Experiment(
    name="ergodic-investment",
    description="optimal capacity under a mean-reverting productivity diffusion",
    schema=_schema(
        horizon=100_000,
        step={"c": (5.0, _POSITIVE), "a": (1.0, _REAL)},
        source={
            "kind": ("cir-euler", _choice("cir-euler")),
            "step0": (1.0, _POSITIVE),
            "exponent": (1.0 / 3.0, _number(0, 1 / 3, "(]")),
        },
        params={
            "kappa": (1.0, _POSITIVE), "vartheta": (1.0, _POSITIVE),
            "sigma": (1.5, _POSITIVE),
            "alpha": (0.8, _number(0, 1)), "beta": (0.7, _number(0, 1)),
            "cost": (0.5, _POSITIVE),
            "theta_tilde0": (0.0, _REAL),
            "chain_rule": (True, _bool_caster),
        },
    ),
    runner=_run_investment,
))

_register(Experiment(
    name="two-armed-bandit",
    description="play-the-winner urn fraction with i.i.d. or dependent event streams",
    schema=_schema(
        horizon=100_000,
        # the urn fraction stays in [0, 1] only while every step, and so
        # the first one, c, is at most 1
        step={"c": (1.0, _number(0, 1, "(]")), "a": (0.9, _REAL)},
        source={"kind": ("iid", _choice("iid", "ar1")), "mixing": (0.5, _number(-1, 1))},
        params={
            "freq_a": (0.6, _number(0, 1, "[]")), "freq_b": (0.4, _number(0, 1, "[]")),
            "theta0": (0.5, _number(0, 1, "[]")),
        },
    ),
    runner=_run_bandit,
))

_register(Experiment(
    name="dark-pool",
    description="censored-demand order split across venues with stationary synthetic flow",
    schema=_schema(
        horizon=100_000,
        step={"c": (2.0, _POSITIVE), "a": (0.75, _REAL)},
        source={
            "kind": ("synthetic-lognormal", _choice("synthetic-lognormal")),
            "mixing": (0.5, _number(-1, 1)),
            "log_sigma": (0.5, _POSITIVE),
        },
        params={
            "mix": ([0.5, 0.5], _floats(_number(0, 1, "[]"))),
            "scale": ([0.6, 0.15], _floats(_POSITIVE)),
            "rebates": ([0.02, 0.05], _floats(_number(0, 1, "[)"))),
        },
    ),
    runner=_run_darkpool,
    preflight=_preflight_darkpool,
))

_register(Experiment(
    name="discrepancy",
    description="diagnostic: star-discrepancy decay of the low-discrepancy stream vs i.i.d.",
    # no horizon, record stride or step: the table's sizes are the powers
    # of two from min_exponent to max_exponent, and nothing is stepped
    schema={
        "seed": _COMMON_SCHEMA["seed"],
        "output_dir": _COMMON_SCHEMA["output_dir"],
        "source": {"kind": ("halton", _choice("halton")), "dimension": (2, _COUNT)},
        "params": {
            "min_exponent": (6, _COUNT),
            "max_exponent": (12, _number(1, 14, "[]", integer=True)),
        },
    },
    runner=_run_discrepancy,
    preflight=_preflight_discrepancy,
))

_register(Experiment(
    name="rate-fit",
    description="diagnostic: fit the error-decay exponent of a known-target recursion",
    schema=_schema(
        horizon=100_000,
        step={"c": (1.0, _POSITIVE), "a": (1.0, _REAL)},
        source={
            "kind": ("halton", _choice("halton", "iid-uniform", "iid-gaussian", "ar1-mixing")),
            "mixing": (0.5, _number(-1, 1)),
        },
        params={"theta0": (0.0, _REAL)},  # first gain is c; c = 1 makes theta_1 y_1 up to rounding
    ),
    runner=_run_rate_fit,
    preflight=_preflight_rate_fit,
))


def experiment_names() -> list:
    return list(REGISTRY)


def describe_experiments() -> list:
    """(name, one-line description) pairs in registry order."""
    return [(e.name, e.description) for e in REGISTRY.values()]


# ---------------------------------------------------------------------------
# config validation and the run pipeline
# ---------------------------------------------------------------------------

class _ConfigLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that refuses a key repeated within one mapping,
    which ``safe_load`` would resolve by keeping the last value."""

    def construct_mapping(self, node, deep=False):
        first_line: dict = {}
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=deep)
            line = key_node.start_mark.line + 1
            try:
                seen = key in first_line
            except TypeError:   # unhashable: the base class reports it
                continue
            if seen:
                raise ConfigError(
                    f"{key}: repeated key at line {line} "
                    f"(first at line {first_line[key]})"
                )
            first_line[key] = line
        return super().construct_mapping(node, deep=deep)


def load_config(path) -> dict:
    """Read a YAML config file.  A key repeated within one mapping is a
    ``ConfigError`` naming the key and its line; malformed YAML raises
    ``yaml.YAMLError``."""
    with open(path, "r") as fh:
        return yaml.load(fh, Loader=_ConfigLoader)


# a run holds 8 bytes per column per record until its artifacts are
# written (flat array("d") buffers, and the int64 ns), so 1e7 records are
# 80 MB a column: 100 times the densest shipped or tested run, 1e5 steps
# at record_stride 1.  No stage after the runner holds more than a block
# per column: the CSV, the plot's points and the rate fit each go a block
# at a time.  Besides the run's columns, only two things grow with the
# records: an error path derived from a target (one more column) and the
# plot's keep mask (1 byte a record).
_RECORD_CAP = 10_000_000


def validate_config(raw: dict) -> dict:
    """Merge a raw config mapping over the experiment's defaults.

    Returns the effective config with every default filled in, in
    canonical key order.  Unknown keys anywhere in the tree, a value
    outside its key's interval, a source kind the experiment does not
    support, a missing seed, inadmissible schedule/source pairs and a
    stepped run keeping more than ``_RECORD_CAP`` records
    (``ceil(horizon / record_stride) + 1``) are all hard errors.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    name = raw.get("experiment")
    if name is None:
        raise ConfigError("experiment: required (one of " + ", ".join(REGISTRY) + ")")
    if not isinstance(name, str) or name not in REGISTRY:
        raise ConfigError(
            f"experiment: unknown name {name!r}; registered: " + ", ".join(REGISTRY)
        )
    exp = REGISTRY[name]
    cfg = _merge(exp.schema, {k: v for k, v in raw.items() if k != "experiment"}, "")
    if cfg["seed"] is None:
        raise ConfigError("seed: required — runs must be reproducible, "
                          "so there is no wall-clock default")
    if cfg["output_dir"] is None:
        cfg["output_dir"] = f"runs/{name}"
    dim = 2 if name == "implicit-correlation" else cfg["source"].get("dimension", 1)
    if "step" in cfg:   # only a stepped recursion has a schedule to gate
        _gate_admissibility(cfg["source"]["kind"], dim, cfg["step"], cfg["source"])
        records = -(-cfg["horizon"] // cfg["record_stride"]) + 1   # the length of ns
        if records > _RECORD_CAP:
            raise ConfigError(
                f"horizon: ceil({cfg['horizon']} / record_stride {cfg['record_stride']}) + 1 = "
                f"{records} records, above the cap of {_RECORD_CAP}; "
                "raise record_stride or lower horizon"
            )
    if exp.preflight is not None:
        exp.preflight(cfg)
    return {"experiment": name, **cfg}


_SUMMARY_KEYS = (
    "experiment", "seed", "horizon", "status", "final", "target", "error",
    "fitted_rate", "runtime_seconds", "csv", "plot", "failure", "notes",
)


def _write_summary(path: Path, summary: dict) -> dict:
    ordered = {k: summary.get(k) for k in _SUMMARY_KEYS}
    with open(path, "w", newline="\n") as fh:
        json.dump(ordered, fh, indent=2)
        fh.write("\n")
    return ordered


def _check_writable(out_dir: Path) -> None:
    """Refuse an output directory that cannot be made, without making it:
    its nearest existing ancestor must be a directory this process may
    write to.  Raises ``OSError``."""
    ancestor = out_dir.absolute()
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(ancestor))
    if not os.access(ancestor, os.W_OK):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), str(ancestor))


def run_experiment(config) -> RunArtifacts:
    """Execute one configured experiment and write its artifacts.

    ``config`` is a path to a YAML file or an already-parsed mapping.
    The output directory receives ``effective_config.yaml`` (the config
    with all defaults filled in — rerunning it reproduces the artifacts
    byte for byte), ``trajectory.csv``, a convergence plot, and
    ``summary.json``.  An output directory that cannot be made is refused
    with ``OSError`` before the run.  Nothing is written until the runner
    returns: a config it refuses leaves no directory behind.  The summary
    and config are written even when the divergence guard aborts the run,
    with the failure cause in place of results.
    """
    raw = load_config(config) if isinstance(config, (str, Path)) else config
    cfg = validate_config(raw)

    exp = REGISTRY[cfg["experiment"]]
    out_dir = Path(cfg["output_dir"])
    _check_writable(out_dir)
    summary = {
        "experiment": cfg["experiment"],
        "seed": cfg["seed"],
        "horizon": cfg.get("horizon"),
        "status": "ok",
        "failure": None,
        "notes": {},
    }
    start = time.perf_counter()
    try:
        outcome = exp.runner(cfg)
    except engine.DivergenceError as exc:
        outcome = None
        summary.update(status="aborted", failure=str(exc))
    summary["runtime_seconds"] = round(time.perf_counter() - start, 6)

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "effective_config.yaml", "w", newline="\n") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
    csv_path = plot_path = None
    if outcome is not None:
        traj, name = outcome.trajectory, outcome.channel
        values = traj.channel(name)
        target, errors, line = outcome.target, outcome.errors, None
        if target is not None and errors is None:
            line = target[0]
            errors = values - line
            np.abs(errors, out=errors)
        csv_path = out_dir / "trajectory.csv"
        engine.write_trajectory_csv(traj, csv_path)
        plot_path = out_dir / f"{name}.svg"
        write_line_svg(
            plot_path, traj.ns, values,
            title=f"{cfg['experiment']} (seed {cfg['seed']})",
            xlabel="n", ylabel=name, target=line, logx=outcome.logx,
        )
        summary.update(
            horizon=int(traj.ns[-1]),
            # a d = 0 table has no iterate: its final value is the channel's
            final=traj.final_theta.tolist() if traj.dimension else [float(values[-1])],
            target=target,
            error=None if target is None else float(errors[-1]),
            fitted_rate=None if errors is None else _fit_error_decay(traj.ns, errors),
            csv=csv_path.name, plot=plot_path.name, notes=outcome.notes,
        )
    return RunArtifacts(out_dir, csv_path, plot_path,
                        _write_summary(out_dir / "summary.json", summary))
