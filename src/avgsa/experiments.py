"""Named, config-driven experiments over the recursion engine.

Each experiment couples an innovation stream, a step schedule, and an
update field into a reproducible run: YAML config in, deterministic CSV +
SVG + JSON summary out.  The registry is what the command line exposes;
every entry validates its config strictly (unknown keys are hard errors —
a silently ignored typo can invalidate a replication) and refuses
inadmissible schedule/source pairs before any computation starts.

All randomness flows from the single config ``seed`` through indexed
splits, one per stream: replications are reproducible individually and
adding a component never reshuffles the others.
"""

from __future__ import annotations

import json
import math
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
from avgsa.innovations import make_source, star_discrepancy_exact
from avgsa.plotting import write_line_svg

__all__ = [
    "ConfigError",
    "RunArtifacts",
    "REGISTRY",
    "experiment_names",
    "describe_experiments",
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

def _int_pos(path: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected a positive integer, got {v!r}")
    if v < 1:
        raise ConfigError(f"{path}: must be >= 1, got {v}")
    return v


def _seed_caster(path: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected a nonnegative integer seed, got {v!r}")
    if v < 0:
        raise ConfigError(f"{path}: seed must be nonnegative, got {v}")
    return v


def _float_any(path: str, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        raise ConfigError(f"{path}: must be finite, got an integer too big for a float") from None
    if not math.isfinite(x):
        raise ConfigError(f"{path}: must be finite, got {x}")
    return x


def _float_pos(path: str, v) -> float:
    x = _float_any(path, v)
    if x <= 0.0:
        raise ConfigError(f"{path}: must be positive, got {x}")
    return x


def _str_caster(path: str, v) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"{path}: expected a string, got {v!r}")
    return v


def _bool_caster(path: str, v) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{path}: expected true/false, got {v!r}")
    return v


def _floats_caster(path: str, v) -> list:
    if not isinstance(v, (list, tuple)) or not v:
        raise ConfigError(f"{path}: expected a nonempty list of numbers, got {v!r}")
    return [_float_any(f"{path}[{i}]", x) for i, x in enumerate(v)]


def _optional(caster):
    def cast(path: str, v):
        return None if v is None else caster(path, v)

    return cast


def _merge(schema: dict, given: dict, path: str) -> dict:
    out: dict = {}
    unknown = set(given) - set(schema)
    if unknown:
        key = sorted(unknown)[0]
        dotted = f"{path}.{key}" if path else key
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
    """What a runner hands back to the artifact writer."""

    trajectory: Trajectory
    final: list | None = None
    target: list | None = None
    error: float | None = None
    fitted_rate: float | None = None
    plot_channel: str = "theta_0"
    plot_target: float | None = None
    plot_logx: bool = False
    notes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    schema: dict
    source_kinds: tuple
    runner: Callable
    # extra config checks beyond the schema, run at validation time so a
    # bad config is refused before any computation starts
    preflight: Callable | None = None


@dataclass(frozen=True)
class RunArtifacts:
    """Paths of everything a run wrote, plus the parsed summary."""

    experiment: str
    seed: int
    out_dir: Path
    config_path: Path
    summary_path: Path
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
        report = engine.admissible_qsa("finite-variation", dimension, a)
    elif kind == "cir-euler":
        report = engine.admissible_power_pair(a, source_cfg["exponent"])
    else:
        report = engine.admissible_power_pair(a, _POWER_RATE_BETA)
    if not report.ok:
        raise ConfigError(
            f"step schedule c={c:g}, a={a:g} is not admissible for source "
            f"'{kind}': {report.rule} (violated: {report.failed_condition})"
        )


def _fit_error_decay(ns: np.ndarray, errors: np.ndarray) -> float | None:
    """Power-law fit of an error path; None when the path carries too
    little information (early records, exact zeros)."""
    mask = ns > 0
    if int(mask.sum()) < 5:
        return None
    try:
        fit = fit_rate(ErrorPath(ns=ns[mask].astype(np.int64), errors=errors[mask]))
    except ValueError:
        return None
    return fit.beta_hat + 0.0  # fold -0.0 into 0.0 for clean reporting


# ---------------------------------------------------------------------------
# the experiments
# ---------------------------------------------------------------------------

_COMMON_SCHEMA = {
    "seed": (None, _seed_caster),
    "horizon": None,          # filled per experiment
    "record_stride": (100, _int_pos),
    "output_dir": (None, _optional(_str_caster)),
}


def _schema(horizon: int, step: dict, source: dict, params: dict) -> dict:
    out = dict(_COMMON_SCHEMA)
    out["horizon"] = (horizon, _int_pos)
    out["step"] = step
    out["source"] = source
    out["params"] = params
    return out


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
    rho = float(traj.channel("rho")[-1])
    out = Outcome(
        trajectory=traj,
        final=[float(traj.final_theta[0])],
        plot_channel="rho",
        notes={"rho_final": rho},
    )
    tgt = pr["target_rho"]
    if tgt is not None:
        errs = np.abs(traj.channel("rho") - tgt)
        out.target = [tgt]
        out.error = float(errs[-1])
        out.fitted_rate = _fit_error_decay(traj.ns, errs)
        out.plot_target = tgt
    return out


def _var_cvar_targets(kind: str, alpha: float, mixing: float):
    """Analytic quantile / tail-mean pair for the supported laws."""
    nd = NormalDist()
    if kind == "iid-uniform":
        return alpha, (1.0 + alpha) / 2.0
    scale = 1.0
    if kind == "ar1-mixing":
        # stationary marginal of x' = a x + xi is N(0, 1/(1-a^2))
        scale = 1.0 / math.sqrt(1.0 - mixing * mixing)
    z = nd.inv_cdf(alpha)
    es = math.exp(-z * z / 2.0) / (math.sqrt(2.0 * math.pi) * (1.0 - alpha))
    return scale * z, scale * es


def _preflight_var_cvar(cfg: dict) -> None:
    alpha = cfg["params"]["alpha"]
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"params.alpha: must lie in (0, 1), got {alpha}")
    if not -1.0 < cfg["source"]["mixing"] < 1.0:
        raise ConfigError("source.mixing: must lie in (-1, 1)")


def _run_var_cvar(cfg: dict) -> Outcome:
    kind = cfg["source"]["kind"]
    mixing = cfg["source"]["mixing"]
    kwargs = {"a": mixing} if kind == "ar1-mixing" else {}
    src = make_source(kind, 1, _split_seed(cfg["seed"], 0), **kwargs)
    alpha = cfg["params"]["alpha"]
    traj = vc.var_cvar_trajectory(
        src, StepSchedule(**cfg["step"]), cfg["horizon"],
        alpha=alpha, theta0=cfg["params"]["theta0"],
        record_stride=cfg["record_stride"],
    )
    q, es = _var_cvar_targets(kind, alpha, mixing)
    theta = float(traj.final_theta[0])
    zeta = float(traj.channel("cvar")[-1])
    errs = np.abs(traj.channel("theta_0") - q)
    return Outcome(
        trajectory=traj,
        final=[theta],
        target=[q],
        error=float(errs[-1]),
        fitted_rate=_fit_error_decay(traj.ns, errs),
        plot_channel="theta_0",
        plot_target=q,
        notes={
            "cvar_final": zeta,
            "cvar_target": es,
            "cvar_error": abs(zeta - es),
        },
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
    errs = np.abs(traj.channel("capacity") - star)
    return Outcome(
        trajectory=traj,
        final=[float(traj.final_theta[0])],
        target=[star],
        error=float(errs[-1]),
        fitted_rate=_fit_error_decay(traj.ns, errs),
        plot_channel="capacity",
        plot_target=star,
        notes={
            "capacity_final": float(traj.channel("capacity")[-1]),
            "feller_condition": bool(2.0 * pr["kappa"] * pr["vartheta"] > pr["sigma"] ** 2),
        },
    )


def _preflight_bandit(cfg: dict) -> None:
    if cfg["step"]["c"] > 1.0:
        raise ConfigError(
            "step.c: the urn fraction leaves [0, 1] unless the first step "
            f"c * 1^(-a) is at most 1; got c = {cfg['step']['c']:g}"
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
    traj = res.trajectory
    out = Outcome(
        trajectory=traj,
        final=[float(traj.final_theta[0])],
        plot_channel="theta_0",
        notes={"classification": res.classification},
    )
    if pr["freq_a"] != pr["freq_b"]:
        tgt = 1.0 if pr["freq_a"] > pr["freq_b"] else 0.0
        errs = np.abs(traj.channel("theta_0") - tgt)
        out.target = [tgt]
        out.error = float(errs[-1])
        out.fitted_rate = _fit_error_decay(traj.ns, errs)
        out.plot_target = tgt
    return out


def _preflight_darkpool(cfg: dict) -> None:
    pr = cfg["params"]
    sizes = {len(pr["mix"]), len(pr["scale"]), len(pr["rebates"])}
    if len(sizes) != 1:
        raise ConfigError(
            "params: mix, scale and rebates must have one entry per pool "
            f"(got lengths {len(pr['mix'])}, {len(pr['scale'])}, {len(pr['rebates'])})"
        )
    if sizes.pop() < 2:
        raise ConfigError("params: need at least two pools")


def _run_darkpool(cfg: dict) -> Outcome:
    pr = cfg["params"]
    mix = np.asarray(pr["mix"], dtype=float)
    scale = np.asarray(pr["scale"], dtype=float)
    rebates = np.asarray(pr["rebates"], dtype=float)
    volumes, capacities = dp.synthetic_darkpool_series(
        cfg["horizon"], seed=_split_seed(cfg["seed"], 0), mix=mix, scale=scale,
        mixing=cfg["source"]["mixing"], log_sigma=cfg["source"]["log_sigma"],
    )
    traj = dp.darkpool_run(
        volumes, capacities, rebates,
        StepSchedule(**cfg["step"]),
        record_stride=cfg["record_stride"], renorm_every=pr["renorm_every"],
    )
    out = Outcome(
        trajectory=traj,
        final=[float(v) for v in traj.final_theta],
        plot_channel="mean_cost_reduction",
        notes={"safeguard_count": int(traj.channel("safeguard_count")[-1])},
    )
    if mix.size == 2:
        # the brute-force reference is cheap for two pools; it is the
        # yardstick the summary error reports against
        oracle = dp.brute_force_allocation(
            volumes, capacities, rebates, resolution=pr["oracle_resolution"]
        )
        errs = np.abs(traj.thetas - oracle).max(axis=1)
        out.target = [float(v) for v in oracle]
        out.error = float(errs[-1])
        out.fitted_rate = _fit_error_decay(traj.ns, errs)
        out.notes["oracle_allocation"] = [float(v) for v in oracle]
    else:
        out.notes["oracle_allocation"] = None
    return out


def _preflight_discrepancy(cfg: dict) -> None:
    k0, k1 = cfg["params"]["min_exponent"], cfg["params"]["max_exponent"]
    if not 1 <= k0 < k1 <= 14:
        raise ConfigError(
            f"params: need 1 <= min_exponent < max_exponent <= 14, got {k0}..{k1}"
        )


def _run_discrepancy(cfg: dict) -> Outcome:
    pr = cfg["params"]
    k0, k1 = pr["min_exponent"], pr["max_exponent"]
    dim = cfg["source"]["dimension"]
    ns, d_halton, d_iid = [], [], []
    for k in range(k0, k1 + 1):
        n = 1 << k
        ns.append(n)
        d_halton.append(star_discrepancy_exact(make_source("halton", dim, 0).take_block(n)))
        iid = make_source("iid-uniform", dim, _split_seed(cfg["seed"], k))
        d_iid.append(star_discrepancy_exact(iid.take_block(n)))
    ns_arr = np.asarray(ns, dtype=np.int64)
    hal = np.asarray(d_halton)
    ref = np.asarray(d_iid)
    # a table with no iterate: zero theta columns, two monitor channels
    table = Trajectory(
        ns=ns_arr,
        thetas=np.empty((ns_arr.size, 0)),
        monitors={"dstar_halton": hal, "dstar_iid": ref},
        final_theta=np.empty(0),
    )
    return Outcome(
        trajectory=table,
        final=[float(hal[-1])],
        fitted_rate=_fit_error_decay(ns_arr, hal),
        plot_channel="dstar_halton",
        plot_logx=True,
        notes={
            "dstar_final_halton": float(hal[-1]),
            "dstar_final_iid": float(ref[-1]),
        },
    )


_RATE_FIT_MEANS = {
    "halton": 0.5,
    "iid-uniform": 0.5,
    "iid-gaussian": 0.0,
    "ar1-mixing": 0.0,
}


def _run_rate_fit(cfg: dict) -> Outcome:
    kind = cfg["source"]["kind"]
    mixing = cfg["source"]["mixing"]
    kwargs = {"a": mixing} if kind == "ar1-mixing" else {}
    src = make_source(kind, 1, _split_seed(cfg["seed"], 0), **kwargs)
    mean = _RATE_FIT_MEANS[kind]
    traj = engine.run(
        cfg["params"]["theta0"], src, lambda th, y: th - float(y[0]),
        StepSchedule(**cfg["step"]), cfg["horizon"],
        record_stride=cfg["record_stride"],
        monitors={"abs_error": lambda n, th: abs(th - mean)},
    )
    errs = traj.channel("abs_error")
    rate = _fit_error_decay(traj.ns, errs)
    return Outcome(
        trajectory=traj,
        final=[float(traj.final_theta[0])],
        target=[mean],
        error=float(errs[-1]),
        fitted_rate=rate,
        plot_channel="abs_error",
        plot_logx=True,
    )


REGISTRY: dict = {}


def _register(exp: Experiment) -> None:
    REGISTRY[exp.name] = exp


_register(Experiment(
    name="implicit-correlation",
    description="calibrate the implied correlation of a best-of-two call to a market quote",
    schema=_schema(
        horizon=100_000,
        step={"c": (8.0, _float_pos), "a": (1.0, _float_any)},
        source={"kind": ("halton-gaussian", _str_caster)},
        params={
            "x1": (100.0, _float_pos), "x2": (100.0, _float_pos),
            "rate": (0.10, _float_any),
            "sigma1": (0.30, _float_pos), "sigma2": (0.30, _float_pos),
            "maturity": (1.0, _float_pos), "strike": (100.0, _float_any),
            "market_price": (30.75, _float_pos),
            "theta0": (0.0, _float_any),
            "target_rho": (-0.5, _optional(_float_any)),
        },
    ),
    source_kinds=("halton-gaussian", "iid-gaussian"),
    runner=_run_correlation,
))

_register(Experiment(
    name="var-cvar",
    description="track a value-at-risk quantile with its expected-shortfall companion",
    schema=_schema(
        horizon=1_000_000,
        step={"c": (4.0, _float_pos), "a": (0.75, _float_any)},
        source={"kind": ("iid-gaussian", _str_caster), "mixing": (0.5, _float_any)},
        params={"alpha": (0.95, _float_any), "theta0": (0.0, _float_any)},
    ),
    source_kinds=("iid-gaussian", "iid-uniform", "ar1-mixing"),
    runner=_run_var_cvar,
    preflight=_preflight_var_cvar,
))

_register(Experiment(
    name="ergodic-investment",
    description="optimal capacity under a mean-reverting productivity diffusion",
    schema=_schema(
        horizon=100_000,
        step={"c": (5.0, _float_pos), "a": (1.0, _float_any)},
        source={
            "kind": ("cir-euler", _str_caster),
            "step0": (1.0, _float_pos),
            "exponent": (1.0 / 3.0, _float_pos),
        },
        params={
            "kappa": (1.0, _float_pos), "vartheta": (1.0, _float_pos),
            "sigma": (1.5, _float_pos),
            "alpha": (0.8, _float_any), "beta": (0.7, _float_any),
            "cost": (0.5, _float_pos),
            "theta_tilde0": (0.0, _float_any),
            "chain_rule": (True, _bool_caster),
        },
    ),
    source_kinds=("cir-euler",),
    runner=_run_investment,
))

_register(Experiment(
    name="two-armed-bandit",
    description="play-the-winner urn fraction with i.i.d. or dependent event streams",
    schema=_schema(
        horizon=100_000,
        step={"c": (1.0, _float_pos), "a": (0.9, _float_any)},
        source={"kind": ("iid", _str_caster), "mixing": (0.5, _float_any)},
        params={
            "freq_a": (0.6, _float_any), "freq_b": (0.4, _float_any),
            "theta0": (0.5, _float_any),
        },
    ),
    source_kinds=("iid", "ar1"),
    runner=_run_bandit,
    preflight=_preflight_bandit,
))

_register(Experiment(
    name="dark-pool",
    description="censored-demand order split across venues with stationary synthetic flow",
    schema=_schema(
        horizon=100_000,
        step={"c": (2.0, _float_pos), "a": (0.75, _float_any)},
        source={
            "kind": ("synthetic-lognormal", _str_caster),
            "mixing": (0.5, _float_any),
            "log_sigma": (0.5, _float_pos),
        },
        params={
            "mix": ([0.5, 0.5], _floats_caster),
            "scale": ([0.6, 0.15], _floats_caster),
            "rebates": ([0.02, 0.05], _floats_caster),
            "renorm_every": (10_000, _int_pos),
            "oracle_resolution": (0.01, _float_pos),
        },
    ),
    source_kinds=("synthetic-lognormal",),
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
        "source": {"kind": ("halton", _str_caster), "dimension": (2, _int_pos)},
        "params": {"min_exponent": (6, _int_pos), "max_exponent": (12, _int_pos)},
    },
    source_kinds=("halton",),
    runner=_run_discrepancy,
    preflight=_preflight_discrepancy,
))

_register(Experiment(
    name="rate-fit",
    description="diagnostic: fit the error-decay exponent of a known-target recursion",
    schema=_schema(
        horizon=100_000,
        step={"c": (1.0, _float_pos), "a": (1.0, _float_any)},
        source={"kind": ("halton", _str_caster), "mixing": (0.5, _float_any)},
        params={"theta0": (0.0, _float_any)},
    ),
    source_kinds=("halton", "iid-uniform", "iid-gaussian", "ar1-mixing"),
    runner=_run_rate_fit,
))


def experiment_names() -> list:
    return list(REGISTRY)


def describe_experiments() -> list:
    """(name, one-line description) pairs in registry order."""
    return [(e.name, e.description) for e in REGISTRY.values()]


# ---------------------------------------------------------------------------
# config validation and the run pipeline
# ---------------------------------------------------------------------------

def validate_config(raw: dict) -> dict:
    """Merge a raw config mapping over the experiment's defaults.

    Returns the effective config with every default filled in, in
    canonical key order.  Unknown keys anywhere in the tree, a missing
    seed, and inadmissible schedule/source pairs are all hard errors.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    name = raw.get("experiment")
    if name is None:
        raise ConfigError("experiment: required (one of " + ", ".join(REGISTRY) + ")")
    if name not in REGISTRY:
        raise ConfigError(
            f"experiment: unknown name {name!r}; registered: " + ", ".join(REGISTRY)
        )
    exp = REGISTRY[name]
    body = {k: v for k, v in raw.items() if k != "experiment"}
    for key in body:
        if key not in exp.schema:
            raise ConfigError(
                f"unknown key {key!r}; allowed: experiment, " + ", ".join(exp.schema)
            )
    cfg = _merge(exp.schema, body, "")
    if cfg["seed"] is None:
        raise ConfigError("seed: required — runs must be reproducible, "
                          "so there is no wall-clock default")
    kind = cfg["source"]["kind"]
    if kind not in exp.source_kinds:
        raise ConfigError(
            f"source.kind: {kind!r} not supported by {name}; "
            "choose one of " + ", ".join(exp.source_kinds)
        )
    if cfg["output_dir"] is None:
        cfg["output_dir"] = f"runs/{name}"
    dim = 2 if name == "implicit-correlation" else cfg["source"].get("dimension", 1)
    if "step" in cfg:   # only a stepped recursion has a schedule to gate
        _gate_admissibility(kind, dim, cfg["step"], cfg["source"])
    if exp.preflight is not None:
        exp.preflight(cfg)
    effective = {"experiment": name}
    effective.update(cfg)
    return effective


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


def run_experiment(config) -> RunArtifacts:
    """Execute one configured experiment and write its artifacts.

    ``config`` is a path to a YAML file or an already-parsed mapping.
    The output directory receives ``effective_config.yaml`` (the config
    with all defaults filled in — rerunning it reproduces the artifacts
    byte for byte), ``trajectory.csv``, a convergence plot, and
    ``summary.json``.  The summary is written even when the divergence
    guard aborts the run, with the failure cause in place of results.
    """
    if isinstance(config, (str, Path)):
        with open(config, "r") as fh:
            raw = yaml.safe_load(fh)
        cfg = validate_config(raw)
    else:
        cfg = validate_config(dict(config))

    exp = REGISTRY[cfg["experiment"]]
    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "effective_config.yaml"
    with open(config_path, "w", newline="\n") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)

    summary = {
        "experiment": cfg["experiment"],
        "seed": cfg["seed"],
        "horizon": cfg.get("horizon"),
        "status": "ok",
        "failure": None,
        "notes": {},
    }
    summary_path = out_dir / "summary.json"
    csv_path: Path | None = None
    plot_path: Path | None = None

    start = time.perf_counter()
    try:
        outcome = exp.runner(cfg)
    except engine.DivergenceError as exc:
        summary["status"] = "aborted"
        summary["failure"] = str(exc)
        summary["runtime_seconds"] = round(time.perf_counter() - start, 6)
        summary = _write_summary(summary_path, summary)
        return RunArtifacts(
            experiment=cfg["experiment"], seed=cfg["seed"], out_dir=out_dir,
            config_path=config_path, summary_path=summary_path,
            csv_path=None, plot_path=None, summary=summary,
        )
    runtime = round(time.perf_counter() - start, 6)

    csv_path = out_dir / "trajectory.csv"
    traj = outcome.trajectory
    engine.write_trajectory_csv(traj, csv_path)

    plot_path = out_dir / f"{outcome.plot_channel}.svg"
    write_line_svg(
        plot_path, traj.ns, traj.channel(outcome.plot_channel),
        title=f"{cfg['experiment']} (seed {cfg['seed']})",
        xlabel="n", ylabel=outcome.plot_channel,
        target=outcome.plot_target, logx=outcome.plot_logx,
    )

    summary.update(
        horizon=int(traj.ns[-1]), final=outcome.final, target=outcome.target,
        error=outcome.error, fitted_rate=outcome.fitted_rate, runtime_seconds=runtime,
        csv=csv_path.name, plot=plot_path.name, notes=outcome.notes,
    )
    summary = _write_summary(summary_path, summary)
    return RunArtifacts(
        experiment=cfg["experiment"], seed=cfg["seed"], out_dir=out_dir,
        config_path=config_path, summary_path=summary_path,
        csv_path=csv_path, plot_path=plot_path, summary=summary,
    )
