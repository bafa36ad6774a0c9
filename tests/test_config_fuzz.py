"""Schema-valid configs never crash: a property test over the config tree.

Every leaf of every experiment's schema in ``experiments.REGISTRY`` gets
a strategy made from its caster: numbers around the key's default, at
its interval's ends and at the float edges (0, +-1e-300, +-1e300,
1 +- 1e-12), every ``kind`` a ``_choice`` allows, both booleans, and
lists of one to pools + 1 entries.  A drawn config is either refused,
with a ``ValueError`` (``ConfigError`` is one) and no output directory,
or it runs to status ``ok`` or ``aborted`` with every artifact that
status promises, and a rerun writes the same bytes.  The examples are
derandomized, so every run of the suite draws the same configs."""

from __future__ import annotations

import inspect
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from avgsa.experiments import REGISTRY, run_experiment

pytestmark = pytest.mark.filterwarnings("ignore:2\\*kappa\\*vartheta:UserWarning")

# the float edges every number key is tried at
_EDGES = [0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0 - 1e-12, 1.0 + 1e-12, 1.0, -1.0]

# the integer keys that size a run: stepped horizons stay at most 300, and
# the discrepancy table's largest size, 2**max_exponent, at most 256
_SIZE_CAPS = {"horizon": 300, "max_exponent": 8}


def _numbers(key: str, default, lo, hi, ends: str, integer: bool):
    """Values for one ``_number`` caster: around ``default``, at the
    interval's ends and their neighbours, and at the float edges.  One
    branch in three draws from every edge, so some values lie outside the
    interval and are refused; the others stay inside it."""
    if integer:
        cap = _SIZE_CAPS.get(key)
        first = 0 if lo == -math.inf else int(lo)
        last = (cap if cap is not None else int(hi) if hi < math.inf
                else 2 * default if default else first + 300)
        edges = [first - 1, first, first + 1, last]
        if cap is None:
            edges += [last + 1] + ([2**53 + 1, 2**64] if hi == math.inf else [])
        return st.integers(first, last) | st.sampled_from(edges)
    edges = _EDGES + [default, -default, default * (1.0 + 1e-12), default * (1.0 - 1e-12)]
    for end in (lo, hi):
        if math.isfinite(end):
            edges += [end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf)]
    scale = 4.0 * max(abs(default), 1.0)
    low, high = max(lo, default - scale), min(hi, default + scale)
    near = st.floats(low, high, exclude_min=low == lo and ends[0] == "(",
                     exclude_max=high == hi and ends[1] == ")")
    inside = [v for v in edges if (lo <= v if ends[0] == "[" else lo < v)
              and (v <= hi if ends[1] == "]" else v < hi)]
    return near | st.sampled_from(inside) | st.sampled_from(edges)


def _leaf(key: str, default, caster):
    """The strategy of one schema leaf, read from its caster; a caster of
    a kind this table does not know fails the test."""
    kind = caster.__qualname__.split(".")[0]
    cells = inspect.getclosurevars(caster).nonlocals
    if kind == "_number":
        return _numbers(key, default, *(cells[k] for k in ("lo", "hi", "ends", "integer")))
    if kind == "_choice":
        return st.sampled_from(cells["options"])
    if kind == "_optional":
        return st.none() | _leaf(key, default, cells["caster"])
    if kind == "_floats":
        item = _leaf(key, default[0], cells["item"])
        return st.lists(item, min_size=1, max_size=len(default) + 1)
    if kind == "_bool_caster":
        return st.booleans()
    raise AssertionError(f"{key}: no strategy for the caster {caster.__qualname__}")


def _tree(schema: dict):
    """A strategy for a config subtree: the seed, the size keys and every
    subtree always drawn, any other key drawn or left to its default."""
    drawn, optional = {}, {}
    for key, spec in schema.items():
        if key == "output_dir":
            continue            # each example writes into its own directory
        if isinstance(spec, dict):
            drawn[key] = _tree(spec)
        else:
            (drawn if key == "seed" or key in _SIZE_CAPS else optional)[key] = _leaf(key, *spec)
    return st.fixed_dictionaries(drawn, optional=optional)


def _configs(name: str):
    return _tree(REGISTRY[name].schema).map(lambda cfg: {"experiment": name, **cfg})


# built for every experiment at import, so a leaf without a strategy fails collection
CONFIGS = st.one_of([_configs(name) for name in REGISTRY])

# the artifacts each status writes besides effective_config.yaml and summary.json
_ARTIFACTS = {"ok": 2, "aborted": 0}


def _run(raw: dict, out: Path):
    """Run ``raw`` into ``out``: ``None`` when it is refused, the summary
    and the bytes of each artifact when it runs."""
    try:
        arts = run_experiment({**raw, "output_dir": str(out)})
    except ValueError:
        assert not out.exists(), "a refused config left a directory"
        return None
    summary = dict(arts.summary)
    del summary["runtime_seconds"]
    status = summary["status"]
    assert status in _ARTIFACTS, summary
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    assert files.keys() >= {"effective_config.yaml", "summary.json"}
    assert json.loads(files.pop("summary.json"))["status"] == status
    files.pop("effective_config.yaml")
    assert len(files) == _ARTIFACTS[status], sorted(files)
    if status == "ok":
        assert set(files) == {summary["csv"], summary["plot"]}
    else:
        assert summary["failure"] and summary["csv"] is None and summary["plot"] is None
    return summary, files


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(CONFIGS)
@example({"experiment": "implicit-correlation", "seed": 0, "horizon": 10,
          "params": {"sigma2": 1.0e300}})
@example({"experiment": "ergodic-investment", "seed": 0, "horizon": 10,
          "params": {"sigma": 1.0e300}})
@example({"experiment": "ergodic-investment", "seed": 0, "horizon": 10,
          "params": {"sigma": 1.0e-300}})
@example({"experiment": "ergodic-investment", "seed": 0, "horizon": 10,
          "params": {"cost": 5.0e-324}})
@example({"experiment": "ergodic-investment", "seed": 0, "horizon": 10,
          "params": {"kappa": 1.0e300, "sigma": 1.0e-3}})
def test_schema_valid_configs_are_refused_or_run(raw):
    with tempfile.TemporaryDirectory() as tmp:
        first = _run(raw, Path(tmp) / "a")
        if first is not None:
            # a rerun writes the same bytes and the same summary
            assert _run(raw, Path(tmp) / "b") == first

