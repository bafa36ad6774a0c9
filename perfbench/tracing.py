"""Spans around the public calls into each avgsa layer, from outside.

``Tracer.install`` replaces the public functions with wrappers at every
place they are bound (the defining module and each module that imported
them by name); ``uninstall`` puts the originals back.  Spans stay in
memory: ``[name, start, end, parent, run_id, size]``.  Per-step ``next()``
calls are only counted, never wrapped in spans.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from time import perf_counter

NAME, START, END, PARENT, RUN, SIZE = range(6)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    def __init__(self, avgsa):
        self.avgsa = avgsa            # namespace of the imported avgsa modules
        self.spans: list[list] = []
        self.run_id = None
        self.next_calls = 0
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, size=None):
        """``fn`` wrapped in a span; ``size(args, kwargs, result)`` is the
        work count stored with it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None,
                   tracer.run_id, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                tracer._stack.pop()
            if size is not None:
                rec[SIZE] = size(args, kwargs, out)
            return out

        return traced

    def _patch(self, sites, name, size=None):
        first_owner, attr = sites[0]
        wrapped = self.wrap(name, getattr(first_owner, attr), size)
        for owner, attr in sites:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def install(self) -> None:
        a = self.avgsa
        ex, cli, eng = a.experiments, a.cli, a.engine
        self._patch([(ex, "run_experiment"), (cli, "run_experiment")],
                    "experiments.run_experiment")
        self._patch([(ex, "validate_config"), (cli, "validate_config")],
                    "experiments.validate_config")
        self._patch([(eng, "run"), (a.correlation, "run"), (a.investment, "run")],
                    "engine.run", lambda args, kw, out: _arg(args, kw, 4, "horizon"))
        self._patch([(eng, "write_trajectory_csv")], "engine.write_trajectory_csv",
                    lambda args, kw, out: os.path.getsize(_arg(args, kw, 1, "path")))
        self._patch([(ex, "write_line_svg"), (cli, "write_line_svg")],
                    "plotting.write_line_svg", lambda args, kw, out: len(args[1]))
        self._patch([(ex, "fit_rate")], "diagnostics.fit_rate")
        for module, fn in (
            (a.varcvar, "var_cvar_trajectory"), (a.bandit, "bandit_run"),
            (a.darkpool, "darkpool_run"), (a.correlation, "calibrate_correlation"),
            (a.investment, "investment_run"), (a.darkpool, "synthetic_darkpool_series"),
            (a.darkpool, "brute_force_allocation"),
        ):
            self._patch([(module, fn)], f"applications.{fn}")
        self._patch([(a.innovations.InnovationSource, "take_block")],
                    "innovations.take_block", lambda args, kw, out: len(out))

        source_cls = a.innovations.InnovationSource
        plain_next = source_cls.next
        tracer = self

        def counted_next(src):
            tracer.next_calls += 1
            return plain_next(src)

        self._undo.append((source_cls, "next", plain_next))
        source_cls.next = counted_next

        registry = ex.REGISTRY
        for key, exp in list(registry.items()):
            self._undo.append((registry, key, exp))
            registry[key] = dataclasses.replace(
                exp, runner=self.wrap(f"experiments.runner.{key}", exp.runner))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans = []
        self.next_calls = 0


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans, next_calls: int) -> dict:
    """Per-layer totals and counts of one traced pass."""
    own = self_times(spans)

    def total(name, times=own):
        return sum(t for s, t in zip(spans, times) if s[NAME] == name)

    def size(name):
        return sum(s[SIZE] for s in spans if s[NAME] == name)

    def count(name):
        return sum(1 for s in spans if s[NAME] == name)

    durations = [s[END] - s[START] for s in spans]
    kids: dict[int, list[int]] = {}
    for j, s in enumerate(spans):
        kids.setdefault(s[PARENT], []).append(j)
    artifacts = sweep_overhead = 0.0
    replications = 0
    for i, s in enumerate(spans):
        children = kids.get(i, [])
        if s[NAME] == "experiments.run_experiment":
            artifacts += durations[i] - sum(
                durations[j] for j in children
                if spans[j][NAME].startswith("experiments.runner."))
        elif s[NAME] == "cli.sweep":
            runs = [j for j in children if spans[j][NAME] == "experiments.run_experiment"]
            replications += len(runs)
            sweep_overhead += durations[i] - sum(durations[j] for j in runs)

    return {
        "innovations.take_block_s": total("innovations.take_block"),
        "innovations.rows_drawn": next_calls + size("innovations.take_block"),
        "engine.run_s": total("engine.run"),
        "engine.steps": size("engine.run"),
        "engine.write_trajectory_csv_s": total("engine.write_trajectory_csv"),
        "engine.csv_bytes": size("engine.write_trajectory_csv"),
        "diagnostics.fit_rate_s": total("diagnostics.fit_rate"),
        "diagnostics.fit_rate_calls": count("diagnostics.fit_rate"),
        "experiments.validate_config_s": total("experiments.validate_config"),
        "experiments.artifacts_s": artifacts,
        "plotting.write_line_svg_s": total("plotting.write_line_svg"),
        "plotting.svg_points": size("plotting.write_line_svg"),
        "cli.sweep_s": total("cli.sweep", durations),
        "cli.sweep_overhead_s": sweep_overhead,
        "cli.replications": replications,
    }
