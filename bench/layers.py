"""Per-layer tracing of odelof from outside the program.

:class:`Tracer` replaces public callables of odelof's modules with timing
wrappers wherever they are bound: the defining module, every other odelof
module that imported the name, and class attributes for methods. Each call
records a span (name, start, end, parent); hooks add counts read from the
arguments or the result. Spans stay in memory and are turned into metrics
when the run ends. A callable that no longer exists is reported as missing
and its metrics read 0; the run goes on.

The layers are odelof's modules. A span's self time is its duration minus
the time its direct child spans cover. Where a name wraps two callables
that can nest (``estimate_forcing`` calling ``ForcingOperator.fit``), the
outermost span gives the busy time, the call and the hook counts, and the
self times of all of them add up.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict


def _sde_steps(bound: inspect.BoundArguments) -> int:
    bound.apply_defaults()
    times, step = bound.arguments["times"], bound.arguments["step"]
    return sum(
        max(1, math.ceil((b - a) / step - 1e-12)) for a, b in zip(times[:-1], times[1:])
    )


def _response_cols(bound: inspect.BoundArguments) -> int:
    shape = getattr(bound.arguments["responses"], "shape", ())
    return 1 if len(shape) < 2 else int(shape[1])


# span name, defining module, callable, hooks: (counter, "pre"|"post", fn)
TARGETS = [
    ("systems.integrate", "odelof.systems", "integrate", ()),
    ("systems.simulate_sde", "odelof.systems", "simulate_sde",
     (("systems.sde_steps", "pre", _sde_steps),)),
    ("splines.design_matrix", "odelof.splines", "BSplineBasis.design_matrix", ()),
    ("splines.spline_eval", "odelof.splines", "SplineFunction.__call__", ()),
    ("splines.smoothing_fit", "odelof.splines", "SmoothingOperator.fit", ()),
    ("smoothers.design_build", "odelof.smoothers", "AdditiveSmootherDesign.__init__", ()),
    ("smoothers.fit_values", "odelof.smoothers", "AdditiveSmootherDesign.fit_values",
     (("smoothers.fit_values.cols", "pre", _response_cols),)),
    ("estimate.quad_grid", "odelof.estimate", "quad_grid", ()),
    ("estimate.gradient_match", "odelof.estimate", "gradient_match",
     (("estimate.gradient_match.gn_iters", "post", lambda r: r.n_iter),)),
    ("estimate.gradient_match", "odelof.estimate", "gradient_match_order2",
     (("estimate.gradient_match.gn_iters", "post", lambda r: r.n_iter),)),
    ("estimate.forcing", "odelof.estimate", "estimate_forcing",
     (("estimate.forcing.gn_iters", "post", lambda r: r.n_iter),
      ("estimate.forcing.unconverged", "post", lambda r: int(not r.converged)))),
    ("estimate.forcing", "odelof.estimate", "ForcingOperator.fit",
     (("estimate.forcing.gn_iters", "post", lambda r: r.n_iter),
      ("estimate.forcing.unconverged", "post", lambda r: int(not r.converged)))),
    ("pipeline.runner_build", "odelof.pipeline", "PipelineRunner.__init__", ()),
    ("pipeline.run", "odelof.pipeline", "PipelineRunner.run", ()),
    ("diagnose.test", "odelof.diagnose", "case2_test", ()),
    ("diagnose.test", "odelof.diagnose", "case3_test", ()),
    ("diagnose.test", "odelof.power", "diagnose_series", ()),
    ("diagnose.block_permute", "odelof.diagnose", "block_permute", ()),
    ("diagnose.f_stat", "odelof.diagnose", "f_stat_case2", ()),
    ("diagnose.f_stat", "odelof.diagnose", "f_stat_case3", ()),
    ("diagnose.bootstrap_resample", "odelof.diagnose", "residual_bootstrap_resample", ()),
    ("power.study", "odelof.power", "run_power_study", ()),
    ("power.report_json", "odelof.diagnose", "report_json",
     (("power.report_bytes", "post", lambda r: len(r.encode())),)),
]

# The per-layer metrics a traced run prints, in order, with their units.
METRICS = [
    ("systems.integrate.busy_s", "s"),
    ("systems.simulate_sde.busy_s", "s"),
    ("systems.sde_steps_per_s", "1/s"),
    ("splines.design_matrix.calls", "count"),
    ("splines.design_matrix.busy_s", "s"),
    ("splines.spline_eval.calls", "count"),
    ("splines.spline_eval.busy_s", "s"),
    ("splines.smoothing_fit.busy_s", "s"),
    ("smoothers.design_build.calls", "count"),
    ("smoothers.design_build.busy_s", "s"),
    ("smoothers.fit_values.calls", "count"),
    ("smoothers.fit_values.busy_s", "s"),
    ("smoothers.fit_values.cols", "count"),
    ("estimate.quad_grid.busy_s", "s"),
    ("estimate.gradient_match.busy_s", "s"),
    ("estimate.gradient_match.gn_iters", "count"),
    ("estimate.forcing.busy_s", "s"),
    ("estimate.forcing.gn_iters", "count"),
    ("estimate.forcing.unconverged", "count"),
    ("pipeline.runner_build.busy_s", "s"),
    ("pipeline.run.calls", "count"),
    ("pipeline.run.busy_s", "s"),
    ("pipeline.run.self_s", "s"),
    ("diagnose.test.self_s", "s"),
    ("diagnose.block_permute.busy_s", "s"),
    ("diagnose.f_stat.busy_s", "s"),
    ("diagnose.bootstrap_resample.busy_s", "s"),
    ("diagnose.exceedances", "count"),
    ("power.study.self_s", "s"),
    ("power.report_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
]


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)  # open spans per name
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for name, module, qualname, hooks in TARGETS:
            try:
                owner = importlib.import_module(module)
                for part in qualname.split(".")[:-1]:
                    owner = getattr(owner, part)
                attr = qualname.split(".")[-1]
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{qualname}")
                continue
            wrapper = self._wrap(name, original, hooks)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "odelof" and not mod_name.startswith("odelof."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, original, hooks):
        signature = inspect.signature(original)
        pre = [(c, fn) for c, when, fn in hooks if when == "pre"]
        post = [(c, fn) for c, when, fn in hooks if when == "post"]
        spans, stack, counts, open_ = self.spans, self._stack, self.counts, self._open
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            outermost = open_[name] == 0
            if outermost:
                for counter, fn in pre:
                    counts[counter] += fn(signature.bind(*args, **kwargs))
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            open_[name] += 1
            try:
                result = original(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
                open_[name] -= 1
            if outermost:
                for counter, fn in post:
                    counts[counter] += fn(result)
            return result

        return traced

    def _totals(self):
        """Busy time, calls and self time per span name."""
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            # A span nested in one of its own name is part of that outer
            # call: its self time counts, its duration and call do not.
            self_time[name] += end - start - child_time[i]
            if not self._has_ancestor(i, name):
                busy[name] += end - start
                calls[name] += 1
        return busy, calls, self_time

    def self_times(self) -> dict[str, float]:
        """Self time per span name, largest first."""
        return dict(sorted(self._totals()[2].items(), key=lambda kv: -kv[1]))

    def metrics(self, exceedances: int, overhead_pct: float) -> dict[str, float]:
        """The per-layer metrics of everything traced so far."""
        busy, calls, self_time = self._totals()
        sde_busy = busy["systems.simulate_sde"]
        values = {
            "systems.sde_steps_per_s": self.counts["systems.sde_steps"] / sde_busy if sde_busy else 0.0,
            "diagnose.exceedances": exceedances,
            "trace.overhead_pct": overhead_pct,
        }
        for metric, _unit in METRICS:
            if metric in values:
                continue
            span, _, kind = metric.rpartition(".")
            if kind == "busy_s":
                values[metric] = busy[span]
            elif kind == "self_s":
                values[metric] = self_time[span]
            elif kind == "calls":
                values[metric] = calls[span]
            else:
                values[metric] = self.counts[metric]
        return values

    def write(self, path: str) -> None:
        """Spans as Chrome trace events (chrome://tracing, Perfetto)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": i, "parent": parent},
            }
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "counts": dict(self.counts)}, fh)

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
