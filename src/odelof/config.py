"""Experiment configuration: JSON schema, per-system defaults, validation.

A config is a JSON object; unknown keys are rejected so typos fail loudly.
Builtin systems carry experiment defaults (grid, noise levels, proposed
model, forcing placement, smoothing knobs) that user values override
key by key. The fully resolved dictionary is echoed into every output
directory so a run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from typing import Any, Optional, Union

from .diagnose import TestConfig
from .errors import ArgumentError, ConfigError
from .pipeline import PipelineSettings, low_spline_orders
from .smoothers import SmootherSettings
from .systems import (
    DynamicalSystem,
    ForcingSpec,
    builtin_names,
    builtin_system,
    scale_rate,
    with_forcing,
)

# smoothing-block keys of the SmootherSettings fields, by field name
_SMOOTHER_KEYS = {"total_dim": "smoother_dim", "interaction": "h_interaction"}


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
        "sde": {"sigma2": 0.01},
        "observed": [1, 2],
        "model": "linear2d",
        "forcing": {"mode": "additive", "target": 2},
    },
    "vanderpol": {
        "x0": [0.0, 2.0],
        "t_span": [0.0, 55.0],
        "n_points": 440,
        "noise_var": 0.001,
        "sde": {"sigma2": 0.01},
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
        "sde": {"sigma2": 0.01},
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


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_pos(v) -> bool:
    return _is_num(v) and v > 0


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_bool(v) -> bool:
    return isinstance(v, bool)


def _list_of(is_item, what: str):
    return (lambda v: isinstance(v, list) and all(map(is_item, v)), f"a list of {what}")


_INT = (_is_int, "an integer")
_NUM = (_is_num, "a finite number")
_BOOL = (_is_bool, "true or false")

# JSON types of the smoothing and test keys; a key that defaults to null
# may be null
_BLOCK_TYPES = {
    "smoothing": {
        "x_order": _INT,
        "x_knot_spacing": _NUM,
        "x_penalty": _NUM,
        "g_order": _INT,
        "g_knot_spacing": _NUM,
        "g_penalty": _NUM,
        "quad_per_spacing": _INT,
        "smoother_dim": _INT,
        "h_interaction": _BOOL,
        "second_order": _BOOL,
        "theta_init": _list_of(_is_num, "numbers"),
        "theta_free": _list_of(_is_bool, "booleans"),
    },
    "test": {
        "b1": _INT,
        "b2": _INT,
        "block_len": _INT,
        "delta": _NUM,
        "alpha": _NUM,
        "end_trim": _INT,
        "max_failed_fraction": _NUM,
    },
}


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
        import numpy as np

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
    system = cfg["system"]
    if system is not None:
        if isinstance(system, dict):
            if set(system) != {"csv"} or not isinstance(system["csv"], str):
                _fail(source, "system", 'as an object must be {"csv": "path"}')
        elif not isinstance(system, str):
            _fail(source, "system", "must be a builtin name or {\"csv\": path}")

    if cfg["generator"] not in ("ode", "sde"):
        _fail(source, "generator", f"must be 'ode' or 'sde', got {cfg['generator']!r}")

    for key in ("theta", "x0"):
        v = cfg[key]
        if v is not None and not (
            isinstance(v, list) and v and all(_is_num(x) for x in v)
        ):
            _fail(source, key, "must be a list of finite numbers")
    ts = cfg["t_span"]
    if ts is not None:
        if not (
            isinstance(ts, list) and len(ts) == 2 and all(_is_num(x) for x in ts)
            and ts[1] > ts[0]
        ):
            _fail(source, "t_span", "must be [start, end] with end > start")
    npts = cfg["n_points"]
    if npts is not None and not (_is_int(npts) and npts >= 4):
        _fail(source, "n_points", f"must be an integer >= 4, got {npts!r}")
    nv = cfg["noise_var"]
    if nv is not None:
        ok = (_is_num(nv) and nv >= 0) or (
            isinstance(nv, list) and nv and all(_is_num(x) and x >= 0 for x in nv)
        )
        if not ok:
            _fail(source, "noise_var", "must be a nonnegative number or list")
    obs = cfg["observed"]
    if obs is not None and not (
        isinstance(obs, list) and obs and all(_is_int(x) and x >= 1 for x in obs)
    ):
        _fail(source, "observed", "must be a list of 1-based coordinate indices")
    sde = cfg["sde"]
    s2 = sde["sigma2"]
    ok = (_is_num(s2) and s2 >= 0) or (
        isinstance(s2, list) and s2 and all(_is_num(x) and x >= 0 for x in s2)
    )
    if not ok:
        _fail(source, "sde.sigma2", "must be a nonnegative number or list")
    if isinstance(system, str):
        generator = builtin_system(system)
        n_obs = len(obs) if obs is not None else generator.dim
        for key, v, size in (
            ("theta", cfg["theta"], generator.n_params),
            ("x0", cfg["x0"], generator.dim),
            ("noise_var", nv, n_obs),
            ("sde.sigma2", s2, generator.dim),
        ):
            if isinstance(v, list) and len(v) != size:
                _fail(source, key, f"has {len(v)} entries, {system} expects {size}")
        if obs is not None and max(obs) > generator.dim:
            _fail(source, "observed", f"indices must lie in 1..{generator.dim} for {system}")

    ode = cfg["ode"]
    if not _is_num(ode["rate_scale"]) or ode["rate_scale"] == 0:
        _fail(source, "ode.rate_scale", "must be a nonzero finite number")
    if ode["substep"] is not None and not _is_pos(ode["substep"]):
        _fail(source, "ode.substep", "must be a positive number or null")
    if not _is_pos(sde["step"]):
        _fail(source, "sde.step", "must be a positive number")

    model = cfg["model"]
    if model is not None and model not in builtin_names():
        known = ", ".join(sorted(builtin_names()))
        _fail(source, "model", f"must be one of {known}, got {model!r}")
    forcing = cfg["forcing"]
    if forcing is not None:
        if not isinstance(forcing, dict) or set(forcing) - {"mode", "target"}:
            _fail(source, "forcing", 'must be {"mode": ..., "target": ...}')
        if forcing.get("mode") not in ("additive", "parameter_replacement"):
            _fail(source, "forcing.mode", "must be 'additive' or 'parameter_replacement'")
        if not (_is_int(forcing.get("target")) and forcing["target"] >= 1):
            _fail(source, "forcing.target", "must be a 1-based integer index")

    for block, types in _BLOCK_TYPES.items():
        for key, (is_type, what) in types.items():
            v = cfg[block][key]
            nullable = _GENERIC[block][key] is None
            if not (is_type(v) or (nullable and v is None)):
                what += " or null" if nullable else ""
                _fail(source, f"{block}.{key}", f"must be {what}, got {v!r}")
    sm = cfg["smoothing"]
    for key, why in low_spline_orders(sm):
        _fail(
            source,
            f"smoothing.{key}",
            f"must be >= 3 with smoothing.{why}, which takes second derivatives; got {sm[key]}",
        )
    try:
        _pipeline_settings(sm)
        TestConfig(seed=0, **cfg["test"])
    except ArgumentError as exc:
        # the message starts with the field it names
        name, _, why = str(exc).partition(" ")
        block = "test" if name in cfg["test"] else "smoothing"
        _fail(source, f"{block}.{_SMOOTHER_KEYS.get(name, name)}", why)
    if model is not None:
        proposed = builtin_system(model)
        if sm["second_order"] and proposed.dim != 2:
            _fail(
                source,
                "smoothing.second_order",
                f"fits the state (x, dx/dt) of a two-dimensional model; {model} has "
                f"dimension {proposed.dim}",
            )
        if forcing is not None:
            mode = forcing["mode"]
            size, what = (
                (proposed.dim, "coordinates")
                if mode == "additive"
                else (proposed.n_params, "parameters")
            )
            if forcing["target"] > size:
                _fail(
                    source,
                    "forcing.target",
                    f"must lie in 1..{size} ({model} has {size} {what} for {mode} forcing), "
                    f"got {forcing['target']}",
                )
            replaced = proposed.rate.replaced
            if mode == "parameter_replacement" and forcing["target"] != replaced:
                _fail(
                    source,
                    "forcing.target",
                    f"has no parameter_replacement value: {model} has no parameter that g "
                    f"can replace, got {forcing['target']}"
                    if replaced is None
                    else f"must be {replaced} for parameter_replacement forcing ({model} puts "
                    f"g in place of parameter {replaced}), got {forcing['target']}",
                )
        for key in ("theta_init", "theta_free"):
            v = sm[key]
            if v is not None and len(v) != proposed.n_params:
                _fail(
                    source,
                    f"smoothing.{key}",
                    f"has {len(v)} entries, {model} expects {proposed.n_params}",
                )
    if sm["second_order"] and isinstance(system, str):
        if n_obs != 1:
            _fail(
                source,
                "smoothing.second_order",
                f"fits one observed coordinate; {system} observes {n_obs}",
            )

    tests = cfg["tests"]
    if not (
        isinstance(tests, list)
        and tests
        and all(x in _VALID_TESTS for x in tests)
        and len(set(tests)) == len(tests)
    ):
        _fail(source, "tests", f"must be a non-empty subset of {list(_VALID_TESTS)}")

    if not (_is_int(cfg["replicates"]) and cfg["replicates"] >= 1):
        _fail(source, "replicates", "must be a positive integer")
    if not (_is_int(cfg["jobs"]) and cfg["jobs"] >= 1):
        _fail(source, "jobs", "must be a positive integer")
    if cfg["master_seed"] is not None and not (
        _is_int(cfg["master_seed"]) and cfg["master_seed"] >= 0
    ):
        _fail(source, "master_seed", "must be a nonnegative integer")
    if not isinstance(cfg["out_dir"], str) or not cfg["out_dir"]:
        _fail(source, "out_dir", "must be a non-empty path string")
    cells = cfg.get("cells")
    if cells is not None and not (
        isinstance(cells, list) and cells and all(isinstance(c, dict) for c in cells)
    ):
        _fail(source, "cells", "must be a non-empty list of config overrides")
