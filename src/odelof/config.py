"""Experiment configuration: JSON schema, per-system defaults, validation.

A config is a JSON object; unknown keys are rejected so typos fail loudly.
Builtin systems carry experiment defaults (grid, noise levels, proposed
model, forcing placement, smoothing knobs) that user values override
key by key. The fully resolved dictionary is echoed into every output
directory so a run can be reproduced from its artifacts alone.

Validation states only JSON shape, kinds and names. Every other rule is
stated once, where the value is used: validation builds the objects a
config describes (the smoothing and test settings, and the model with its
forcing) and runs the simulators' own checks on the generator keys (theta,
x0, t_span, observed, the variances, the steps and the rate scale), and
reports their :class:`ArgumentError` as a :class:`ConfigError` with each
field named by its key path. A test's fit to its grid is checked by
:func:`_check_tests` once the grid is known, through the geometry the
test itself resolves, together with the model it needs and, for a given
series, that series' columns against the model.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import Any, Optional, Union

import numpy as np

from .diagnose import TestConfig, _geometry
from .errors import ArgumentError, ConfigError, is_count, is_finite_real
from .pipeline import PipelineSettings, check_columns, check_model
from .smoothers import SmootherSettings
from .splines import make_basis
from .systems import (
    MAX_GRID_POINTS,
    DynamicalSystem,
    ForcingSpec,
    _check_rate_scale,
    _check_start,
    _check_step,
    _check_substeps,
    _check_theta,
    _check_times,
    _check_variances,
    _observed_indices,
    builtin_names,
    builtin_system,
    scale_rate,
    with_forcing,
)

# smoothing-block keys of the SmootherSettings fields, by field name
_SMOOTHER_KEYS = {"total_dim": "smoother_dim", "interaction": "h_interaction"}
# the smoothing-block key of each name the pipeline's checks give a
# smoothing field: the SmootherSettings fields, and gradient matching's
# free_mask
_FIELD_KEYS = {**_SMOOTHER_KEYS, "free_mask": "theta_free"}


def _smoothing_block(settings: PipelineSettings) -> dict:
    """The smoothing block of ``settings``."""
    block = asdict(settings)
    smoother = block.pop("smoother")
    block.update((_SMOOTHER_KEYS[name], v) for name, v in smoother.items())
    return block


def _pipeline_settings(block: dict) -> PipelineSettings:
    """The PipelineSettings of a smoothing block; its lists become tuples."""
    kw = {key: tuple(v) if isinstance(v, list) else v for key, v in block.items()}
    smoother = SmootherSettings(**{name: kw.pop(key) for name, key in _SMOOTHER_KEYS.items()})
    return PipelineSettings(smoother=smoother, **kw)


# The smoothing and test blocks default to PipelineSettings and TestConfig,
# which also state their ranges.
_GENERIC: dict[str, Any] = {
    "system": None,
    "theta": None,
    "x0": None,
    "t_span": None,
    "n_points": None,
    "generator": "ode",
    "ode": {"rate_scale": 1.0, "substep": None},
    "sde": {"sigma2": 0.01, "step": 0.001},
    "noise_var": None,
    "observed": None,
    "model": None,
    "forcing": None,
    "smoothing": _smoothing_block(PipelineSettings()),
    "test": {f.name: f.default for f in fields(TestConfig) if f.name != "seed"},
    "tests": ["case2", "case3"],
    "replicates": 50,
    "jobs": 1,
    "master_seed": None,
    "out_dir": "results",
    "cells": None,
}

_EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "linear2d": {
        "x0": [1.0, 0.0],
        "t_span": [0.0, 55.0],
        "n_points": 440,
        "noise_var": 0.25,
        "observed": [1, 2],
        "model": "linear2d",
        "forcing": {"mode": "additive", "target": 2},
    },
    "vanderpol": {
        "x0": [0.0, 2.0],
        "t_span": [0.0, 55.0],
        "n_points": 440,
        "noise_var": 0.001,
        "observed": [1, 2],
        "model": "linear2d",
        "forcing": {"mode": "additive", "target": 2},
    },
    "rossler": {
        "x0": [1.0, 1.0, 0.0],
        "t_span": [0.0, 55.0],
        "n_points": 440,
        "noise_var": 0.01,
        "sde": {"sigma2": 0.004},
        "observed": [1, 2],
        "model": "linear2d",
        "forcing": {"mode": "additive", "target": 1},
    },
    "rossler_chaotic": {
        "x0": [1.0, 1.0, 0.0],
        "t_span": [0.0, 55.0],
        "n_points": 440,
        "noise_var": 0.01,
        "sde": {"sigma2": 0.004},
        "observed": [1, 2],
        "model": "linear2d",
        "forcing": {"mode": "additive", "target": 1},
        "ode": {"rate_scale": 2.0},
    },
    "rosenzweig_macarthur_log": {
        "x0": [0.0, -0.6931471805599453],
        "t_span": [0.0, 110.0],
        "n_points": 440,
        "noise_var": 0.25,
        "observed": [1, 2],
        "model": "rosenzweig_macarthur_log",
        "smoothing": {
            "x_knot_spacing": 0.5,
            "g_knot_spacing": 3.0,
            "theta_init": [1.0, 6.0, 1.0, 2.0, 0.5, 0.2, 1.0],
            "theta_free": [True, True, True, True, True, True, False],
        },
    },
    "vanderpol_order2": {
        "x0": [0.2, 0.0],
        "t_span": [0.0, 6.0],
        "n_points": 440,
        "noise_var": 0.0001,
        "sde": {"sigma2": 0.0001},
        "observed": [1],
        "model": "vanderpol_order2",
        "smoothing": {
            "x_knot_spacing": 0.025,
            "g_knot_spacing": 0.11,
            "second_order": True,
        },
        "test": {"block_len": 50, "end_trim": 100},
    },
}

_VALID_TESTS = ("case2", "case3")


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _fail(source: str, key: str, msg: str):
    raise ConfigError(f"{source}: {key} {msg}")


def _check_keys(source: str, d: dict, allowed: dict, prefix: str = ""):
    for key in d:
        if key not in allowed:
            path = f"{prefix}{key}"
            raise ConfigError(f"{source}: unknown key {path!r}")
        if isinstance(allowed[key], dict):
            if not isinstance(d[key], dict):
                raise ConfigError(f"{source}: {prefix}{key} must be an object, got {d[key]!r}")
            _check_keys(source, d[key], allowed[key], prefix=f"{prefix}{key}.")


def _require(source: str, *rules) -> None:
    """Fail at the key of the first of ``rules``, (key, holds, message)
    triples, that does not hold."""
    for key, holds, msg in rules:
        if not holds:
            _fail(source, key, msg)


def _numbers(v, size=None) -> bool:
    """Whether ``v`` is a non-empty list of finite numbers, of ``size`` if given."""
    return (
        isinstance(v, list) and bool(v) and all(map(is_finite_real, v)) and size in (None, len(v))
    )


def _paths(key: str, fields) -> dict:
    """The key path of each of ``fields``, field names of the objects block
    ``key`` builds: ``x_penalty`` is ``smoothing.x_penalty``, ``total_dim``
    ``smoothing.smoother_dim`` and ``free_mask`` ``smoothing.theta_free``."""
    return {name: f"{key}.{_FIELD_KEYS.get(name, name)}" for name in fields}


# the key paths of the simulators' argument names that are not config keys
_GENERATOR_PATHS = {
    "sigma2": "sde.sigma2",
    "step": "sde.step",
    "substep": "ode.substep",
    "factor": "ode.rate_scale",
}


@contextmanager
def _at(source: str, paths: dict):
    """Turn an ArgumentError raised inside into a ConfigError whose message
    names each field of ``paths`` by its key path there."""
    try:
        yield
    except ArgumentError as exc:
        named = rf"(?<![\w'])(?:{'|'.join(paths)})(?![\w'])"
        msg = re.sub(named, lambda m: paths[m[0]], str(exc))
        raise ConfigError(f"{source}: {msg}") from None


def _check_generator(cfg: dict, source: str) -> None:
    """Run the simulators' own checks on the generator keys. A config
    without a builtin system has no sizes: each variance list is sized by
    itself and observed indices have no upper bound, so only ranges are
    checked, and the system named in size messages is never shown."""
    system = cfg["system"]
    generator = builtin_system(system) if isinstance(system, str) else None
    dim = generator.dim if generator else math.inf
    obs, nv, sde, ode = cfg["observed"], cfg["noise_var"], cfg["sde"], cfg["ode"]
    with _at(source, _GENERATOR_PATHS):
        if generator is not None:
            if cfg["theta"] is not None:
                _check_theta(generator, cfg["theta"])
            if cfg["x0"] is not None:
                _check_start(generator, cfg["x0"])
        n_obs = dim if obs is None else _observed_indices(obs, dim, system).size
        if nv is not None:
            _check_variances(nv, n_obs if generator else np.size(nv), "noise_var", system)
        s2 = sde["sigma2"]
        _check_variances(s2, dim if generator else np.size(s2), "sigma2", system)
        _check_rate_scale(ode["rate_scale"])
        steps = {"step": _check_step(sde["step"], "step")}
        if ode["substep"] is not None:
            steps["substep"] = _check_step(ode["substep"], "substep")
        step = "step" if cfg["generator"] == "sde" else "substep"
        ts, npts = cfg["t_span"], cfg["n_points"]
        if step in steps and ts is not None and npts is not None:
            # the configured simulator's substeps on the grid simulate_series
            # builds, whose interval follows from its ends
            interval = (float(ts[1]) - float(ts[0])) / (npts - 1)
            _check_substeps(interval, steps[step], step)


def _check_tests(config: "ExperimentConfig", times: np.ndarray, n_columns=None) -> None:
    """Raise ConfigError, at its key path, when the configured tests cannot
    run on a series at the observation ``times``: without a model, on
    ``n_columns`` observed coordinates that do not fit the model (None for
    a simulated series, whose count validation checked), or with blocks,
    an end trim or a case-3 lag that do not fit the times."""
    model = config.model_system()
    settings = config.pipeline_settings()
    g_basis = make_basis(settings.g_order, (times[0], times[-1]), settings.g_knot_spacing)
    test = TestConfig(seed=0, **config.test_kwargs())
    paths = {**_paths("smoothing", ("second_order",)), **_paths("test", config.resolved["test"])}
    with _at(config.source, paths):
        if n_columns is not None:
            check_columns(n_columns, settings, model, "the series")
        for kind in config.tests:
            _geometry(kind, times, g_basis.support_width, test, settings.smoother)


@dataclass
class ExperimentConfig:
    """Validated, fully resolved experiment description.

    ``raw`` keeps the pre-resolution input so that power-study cells can
    inherit only the keys the user actually set; the resolved dict fills
    every unset key with None, which must not override a cell's own
    system defaults.
    """

    resolved: dict
    source: str = "config"
    raw: Optional[dict] = None

    # -- typed accessors -------------------------------------------------

    @property
    def system_name(self) -> Optional[str]:
        s = self.resolved["system"]
        return s if isinstance(s, str) else None

    @property
    def data_csv(self) -> Optional[str]:
        s = self.resolved["system"]
        return s["csv"] if isinstance(s, dict) else None

    @property
    def generator(self) -> str:
        return self.resolved["generator"]

    @property
    def tests(self) -> list[str]:
        return list(self.resolved["tests"])

    @property
    def replicates(self) -> int:
        return self.resolved["replicates"]

    @property
    def jobs(self) -> int:
        return self.resolved["jobs"]

    @property
    def master_seed(self) -> Optional[int]:
        return self.resolved["master_seed"]

    @property
    def out_dir(self) -> str:
        return self.resolved["out_dir"]

    def require_simulation(self):
        if self.system_name is None:
            raise ConfigError(
                f"{self.source}: simulation requires a builtin 'system' name, "
                "not a csv data source"
            )
        for key in ("x0", "t_span", "n_points", "noise_var"):
            if self.resolved[key] is None:
                raise ConfigError(f"{self.source}: {key} is required to simulate")

    def require_seed(self):
        if self.master_seed is None:
            raise ConfigError(
                f"{self.source}: master_seed is required (set it in the config "
                "or pass --seed)"
            )

    def generator_system(self) -> DynamicalSystem:
        """System used to generate data, with the ODE rate scale applied."""
        self.require_simulation()
        sys = builtin_system(self.system_name)
        scale = self.resolved["ode"]["rate_scale"]
        if self.generator == "ode" and scale != 1.0:
            sys = scale_rate(sys, scale)
        return sys

    def generator_theta(self):
        sys = builtin_system(self.system_name)
        theta = self.resolved["theta"]
        return sys.theta_default if theta is None else np.asarray(theta, dtype=float)

    def model_system(self) -> DynamicalSystem:
        """Proposed model with the configured forcing placement."""
        name = self.resolved["model"]
        if name is None:
            raise ConfigError(f"{self.source}: 'model' is required for diagnosis")
        sys = builtin_system(name)
        forcing = self.resolved["forcing"]
        if forcing is not None:
            sys = with_forcing(sys, ForcingSpec(forcing["mode"], forcing["target"]))
        return sys

    def pipeline_settings(self) -> PipelineSettings:
        return _pipeline_settings(self.resolved["smoothing"])

    def test_kwargs(self) -> dict:
        return dict(self.resolved["test"])

    def cells(self) -> list["ExperimentConfig"]:
        """Per-cell configs for a power study (self if no cells given)."""
        raw_cells = self.resolved.get("cells")
        if not raw_cells:
            return [self]
        top = self.raw if self.raw is not None else self.resolved
        base = {k: v for k, v in top.items() if k != "cells"}
        out = []
        for i, cell in enumerate(raw_cells):
            src = f"{self.source}: cells[{i}]"
            cell_raw = _deep_merge(base, cell)
            out.append(ExperimentConfig(_resolve(cell_raw, src), source=src, raw=cell_raw))
        return out

    def cell_name(self) -> str:
        sysname = self.system_name or "csv"
        return f"{sysname}_{self.generator}"

    def echo_json(self) -> str:
        return json.dumps(self.resolved, indent=2, sort_keys=True) + "\n"


def load_config(path: Union[str, os.PathLike]) -> ExperimentConfig:
    """Parse and validate a JSON config file.

    Raises
    ------
    ConfigError
        With file, line, and column for JSON syntax errors, or with the
        offending key path for semantic problems.
    """
    source = str(path)
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{source}: cannot read config: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer literal too long for Python to convert
        raise ConfigError(f"{source}: {exc}") from None
    return config_from_dict(raw, source=source)


def config_from_dict(raw: dict, source: str = "config") -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    resolved = _resolve(raw, source)
    return ExperimentConfig(resolved, source=source, raw=copy.deepcopy(raw))


def _resolve(raw: dict, source: str) -> dict:
    _check_keys(source, raw, _GENERIC)

    system = raw.get("system")
    base = copy.deepcopy(_GENERIC)
    if isinstance(system, str):
        if system not in _EXPERIMENT_DEFAULTS:
            known = ", ".join(sorted(builtin_names()))
            raise ConfigError(f"{source}: system must be one of {known}, got {system!r}")
        base = _deep_merge(base, _EXPERIMENT_DEFAULTS[system])
    merged = _deep_merge(base, raw)
    _validate(merged, source)
    return merged


def _validate(cfg: dict, source: str) -> None:
    system, ts, npts, nv = cfg["system"], cfg["t_span"], cfg["n_points"], cfg["noise_var"]
    obs, sigma2 = cfg["observed"], cfg["sde"]["sigma2"]
    csv = isinstance(system, dict) and set(system) == {"csv"} and isinstance(system["csv"], str)
    numbers = "must be a list of finite numbers"
    _require(
        source,
        (
            "system",
            system is None or isinstance(system, str) or csv,
            'must be a builtin name or {"csv": path}',
        ),
        (
            "generator",
            cfg["generator"] in ("ode", "sde"),
            f"must be 'ode' or 'sde', got {cfg['generator']!r}",
        ),
        ("theta", cfg["theta"] is None or _numbers(cfg["theta"]), numbers),
        ("x0", cfg["x0"] is None or _numbers(cfg["x0"]), numbers),
        ("t_span", ts is None or _numbers(ts, 2), "must be [start, end], two finite numbers"),
    )
    if ts is not None:
        # the ends of the grid simulate_series builds, which may be too long
        # to build here; its spacing (end - start) / (n_points - 1) is
        # finite where the ends' is
        with _at(source, _GENERATOR_PATHS):
            _check_times(ts, "t_span")
    variances = "must be a finite number or a non-empty list of them"
    _require(
        source,
        # the fewest observation times a pipeline fits
        (
            "n_points",
            npts is None or is_count(npts) and 4 <= npts <= MAX_GRID_POINTS,
            f"must be an integer from 4 to {MAX_GRID_POINTS}, got {npts!r}",
        ),
        ("noise_var", nv is None or is_finite_real(nv) or _numbers(nv), variances),
        (
            "observed",
            obs is None or isinstance(obs, list) and all(map(is_count, obs)),
            "must be a list of 1-based coordinate indices",
        ),
        ("sde.sigma2", is_finite_real(sigma2) or _numbers(sigma2), variances),
    )
    _check_generator(cfg, source)

    model = cfg["model"]
    if model is not None and model not in builtin_names():
        known = ", ".join(sorted(builtin_names()))
        _fail(source, "model", f"must be one of {known}, got {model!r}")
    forcing = cfg["forcing"]
    if forcing is not None:
        if not isinstance(forcing, dict) or set(forcing) - {"mode", "target"}:
            _fail(source, "forcing", 'must be {"mode": ..., "target": ...}')
        with _at(source, _paths("forcing", ("mode", "target"))):
            spec = ForcingSpec(forcing.get("mode"), forcing.get("target"))
            if model is not None:
                with_forcing(builtin_system(model), spec)

    sm = cfg["smoothing"]
    with _at(source, _paths("smoothing", [*sm, *_FIELD_KEYS])):
        settings = _pipeline_settings(sm)
        if model is not None:
            proposed = builtin_system(model)
            check_model(settings, proposed)
            if isinstance(system, str):
                n_obs = builtin_system(system).dim if obs is None else len(obs)
                check_columns(n_obs, settings, proposed, system)
    with _at(source, _paths("test", cfg["test"])):
        TestConfig(seed=0, **cfg["test"])

    tests, seed, out_dir, cells = cfg["tests"], cfg["master_seed"], cfg["out_dir"], cfg["cells"]
    positive = "must be a positive integer"
    _require(
        source,
        (
            "tests",
            isinstance(tests, list)
            and tests
            and all(x in _VALID_TESTS for x in tests)
            and len(set(tests)) == len(tests),
            f"must be a non-empty subset of {list(_VALID_TESTS)}",
        ),
        ("replicates", is_count(cfg["replicates"]) and cfg["replicates"] >= 1, positive),
        ("jobs", is_count(cfg["jobs"]) and cfg["jobs"] >= 1, positive),
        (
            "master_seed",
            seed is None or is_count(seed) and seed >= 0,
            "must be a nonnegative integer",
        ),
        ("out_dir", isinstance(out_dir, str) and out_dir, "must be a non-empty path string"),
        (
            "cells",
            cells is None
            or isinstance(cells, list) and cells and all(isinstance(c, dict) for c in cells),
            "must be a non-empty list of config overrides",
        ),
    )
