import hashlib
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from odelof import (
    ConfigError,
    PipelineSettings,
    TestConfig,
    config_from_dict,
    load_config,
)
from odelof.systems import MAX_GRID_POINTS, MAX_SUBSTEPS


class TestDefaults:
    def test_linear2d(self):
        cfg = config_from_dict({"system": "linear2d"})
        r = cfg.resolved
        assert r["x0"] == [1.0, 0.0]
        assert r["t_span"] == [0.0, 55.0]
        assert r["n_points"] == 440
        assert r["noise_var"] == 0.25
        assert r["model"] == "linear2d"
        assert r["forcing"] == {"mode": "additive", "target": 2}
        assert r["test"]["b1"] == 100 and r["test"]["b2"] == 199
        assert cfg.tests == ["case2", "case3"]
        assert cfg.generator == "ode"

    def test_vanderpol_proposes_linear_model(self):
        cfg = config_from_dict({"system": "vanderpol"})
        assert cfg.resolved["x0"] == [0.0, 2.0]
        assert cfg.resolved["noise_var"] == 0.001
        assert cfg.resolved["model"] == "linear2d"

    def test_rossler_partial_observation(self):
        cfg = config_from_dict({"system": "rossler"})
        assert cfg.resolved["observed"] == [1, 2]
        assert cfg.resolved["forcing"]["target"] == 1
        assert cfg.resolved["sde"]["sigma2"] == 0.004

    def test_order2_experiment(self):
        cfg = config_from_dict({"system": "vanderpol_order2"})
        r = cfg.resolved
        assert r["observed"] == [1]
        assert r["smoothing"]["second_order"] is True
        assert r["smoothing"]["x_knot_spacing"] == 0.025
        assert r["test"]["block_len"] == 50
        assert r["test"]["end_trim"] == 100

    def test_overrides_merge_key_by_key(self):
        cfg = config_from_dict(
            {"system": "linear2d", "noise_var": 0.5, "test": {"b2": 99}}
        )
        r = cfg.resolved
        assert r["noise_var"] == 0.5
        assert r["test"]["b2"] == 99
        assert r["test"]["b1"] == 100  # untouched sibling survives
        assert r["smoothing"]["x_knot_spacing"] == 0.25


def key_path(key, override, id=None):
    """A rejection row whose message must name ``key`` as its full key path."""
    return pytest.param(override, rf"^config: {re.escape(key)} ", id=id or key)


class TestRejection:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'systm'"):
            config_from_dict({"systm": "linear2d"})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="unknown key 'test.b3'"):
            config_from_dict({"system": "linear2d", "test": {"b3": 1}})
        with pytest.raises(ConfigError, match="smoothing.knots"):
            config_from_dict({"system": "linear2d", "smoothing": {"knots": 0.5}})

    def test_unknown_system(self):
        with pytest.raises(ConfigError, match="system must be one of"):
            config_from_dict({"system": "lorenz"})

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            config_from_dict([1, 2, 3])

    @pytest.mark.parametrize(
        "override, fragment",
        [
            # these rows keep the ids they were first collected under
            key_path("noise_var", {"noise_var": -1.0}, id="override0-noise_var"),
            key_path("n_points", {"n_points": 3}, id="override1-n_points"),
            key_path("t_span", {"t_span": [5.0, 1.0]}, id="override2-t_span"),
            key_path("generator", {"generator": "pde"}, id="override3-generator"),
            key_path("tests", {"tests": ["case4"]}, id="override4-tests"),
            key_path("replicates", {"replicates": 0}, id="override5-replicates"),
            key_path("jobs", {"jobs": 0}, id="override6-jobs"),
            key_path("test.alpha", {"test": {"alpha": 2.0}}, id="override7-alpha"),
            key_path("observed", {"observed": [0]}, id="override8-observed"),
            key_path(
                "forcing.mode",
                {"forcing": {"mode": "multiplicative", "target": 1}},
                id="override9-forcing",
            ),
            key_path("system", {"system": {"csv": 3}}, id="system-object"),
            key_path("system", {"system": 5}, id="system-type"),
            key_path("theta", {"theta": [1.0, "a"]}),
            key_path("x0", {"x0": []}),
            key_path("sde.sigma2", {"sde": {"sigma2": -0.1}}),
            key_path("ode.rate_scale", {"ode": {"rate_scale": 0}}),
            key_path("ode.substep", {"ode": {"substep": -0.01}}),
            key_path("sde.step", {"sde": {"step": 0}}),
            key_path("model", {"model": "lorenz"}),
            key_path("forcing", {"forcing": "additive"}),
            key_path("forcing.target", {"forcing": {"mode": "additive", "target": 1.5}}),
            key_path("smoothing.x_knot_spacing", {"smoothing": {"x_knot_spacing": 0}}),
            key_path("smoothing.g_knot_spacing", {"smoothing": {"g_knot_spacing": -1.0}}),
            key_path("smoothing.x_penalty", {"smoothing": {"x_penalty": -1.0}}),
            key_path("smoothing.g_penalty", {"smoothing": {"g_penalty": "0"}}),
            key_path("smoothing.x_order", {"smoothing": {"x_order": 9}}),
            key_path("smoothing.g_order", {"smoothing": {"g_order": 3.5}}),
            key_path("smoothing.quad_per_spacing", {"smoothing": {"quad_per_spacing": 0}}),
            key_path("smoothing.smoother_dim", {"smoothing": {"smoother_dim": 7}}),
            key_path("smoothing.h_interaction", {"smoothing": {"h_interaction": 1}}),
            key_path("smoothing.second_order", {"smoothing": {"second_order": "no"}}),
            key_path("smoothing.theta_init", {"smoothing": {"theta_init": [0.0, "b"]}}),
            key_path("smoothing.theta_free", {"smoothing": {"theta_free": [1, 0, 1, 0]}}),
            key_path("test.b1", {"test": {"b1": 0}}),
            key_path("test.b2", {"test": {"b2": 2.5}}),
            key_path("test.block_len", {"test": {"block_len": 1}}),
            key_path("test.delta", {"test": {"delta": -1.0}}),
            key_path("test.end_trim", {"test": {"end_trim": -1}}),
            key_path("test.max_failed_fraction", {"test": {"max_failed_fraction": 1.0}}),
            key_path("master_seed", {"master_seed": -1}),
            key_path("out_dir", {"out_dir": ""}),
            key_path("cells", {"cells": []}),
            key_path("smoothing", {"smoothing": 5}),
            key_path("ode", {"ode": None}),
            # integers too large for a float are not finite numbers
            key_path("theta", {"theta": [10**400, 1, 1, 1]}, id="theta-oversized"),
            key_path("noise_var", {"noise_var": 10**400}, id="noise_var-oversized"),
            key_path("t_span", {"t_span": [0, 10**400]}, id="t_span-oversized"),
            key_path(
                "smoothing.x_penalty",
                {"smoothing": {"x_penalty": 10**400}},
                id="x_penalty-oversized",
            ),
            key_path("test.delta", {"test": {"delta": 10**400}}, id="delta-oversized"),
            # the grid spacing (end - start) / (n_points - 1) overflows
            key_path("t_span", {"t_span": [-1e308, 1e308]}, id="t_span-spacing-overflows"),
            # the size policy: a grid numpy cannot allocate, and substeps
            # that would fail in numpy or step for practically ever
            key_path("n_points", {"n_points": 10**30}, id="n_points-oversized"),
            key_path(
                "sde.step",
                {"generator": "sde", "sde": {"step": 1e-300}},
                id="sde-step-too-many-substeps",
            ),
            key_path("ode.substep", {"ode": {"substep": 1e-300}}, id="substep-too-many-substeps"),
            # gradient matching's rule for the free parameters, and the
            # pipeline's for the data columns against the model
            key_path(
                "smoothing.theta_free",
                {"smoothing": {"theta_free": [False] * 4}},
                id="theta_free-fixes-every-parameter",
            ),
            key_path(
                "smoothing.theta_free",
                {"smoothing": {"theta_free": [True, False, True, True]}},
                id="theta_free-without-theta_init",
            ),
            key_path("model", {"observed": [2]}, id="observed-against-the-model"),
        ],
    )
    def test_semantic_checks(self, override, fragment):
        raw = {"system": "linear2d"}
        raw.update(override)
        with pytest.raises(ConfigError, match=fragment):
            config_from_dict(raw)

    def test_integers_a_float_holds_are_numbers(self):
        # 10**30 validates as 1e30 does
        big = 10**30
        config_from_dict(
            {
                "system": "linear2d",
                "theta": [big, 1, 1, 1],
                "noise_var": big,
                "t_span": [0, big],
                "smoothing": {"x_penalty": big},
                "test": {"delta": big},
            }
        )

    def test_size_policy_bounds_are_inclusive(self):
        # the most substeps per interval and the longest grid validate; the
        # grid is never built
        interval = 55.0 / 439
        config_from_dict(
            {"system": "vanderpol", "generator": "sde", "sde": {"step": interval / MAX_SUBSTEPS}}
        )
        config_from_dict({"system": "vanderpol", "ode": {"substep": interval / MAX_SUBSTEPS}})
        config_from_dict({"system": "vanderpol", "n_points": MAX_GRID_POINTS})
        # the step of the other generator is not used, so only its range counts
        config_from_dict({"system": "vanderpol", "sde": {"step": 1e-300}})

    @pytest.mark.parametrize(
        "smoothing, fragment",
        [
            ({"x_order": 2}, r"smoothing\.x_order must be >= 3 with smoothing\.x_penalty > 0"),
            (
                {"x_order": 2, "x_penalty": 0.0, "second_order": True},
                r"smoothing\.x_order must be >= 3 with smoothing\.second_order",
            ),
            (
                {"g_order": 2, "g_penalty": 0.5},
                r"smoothing\.g_order must be >= 3 with smoothing\.g_penalty > 0",
            ),
        ],
    )
    def test_second_derivatives_need_order_3(self, smoothing, fragment):
        with pytest.raises(ConfigError, match=fragment):
            config_from_dict({"system": "linear2d", "smoothing": smoothing})

    def test_second_order_needs_a_two_dimensional_model(self):
        with pytest.raises(ConfigError, match=r"smoothing\.second_order .* rossler has dimension 3"):
            config_from_dict(
                {"system": "rossler", "model": "rossler", "smoothing": {"second_order": True}}
            )

    def test_second_order_needs_one_observed_coordinate(self):
        with pytest.raises(ConfigError, match=r"smoothing\.second_order .* vanderpol_order2 observes 2"):
            config_from_dict({"system": "vanderpol_order2", "observed": [1, 2], "master_seed": 1})
        with pytest.raises(ConfigError, match=r"smoothing\.second_order .* vanderpol observes 2"):
            config_from_dict(
                {"system": "vanderpol", "model": "vanderpol", "smoothing": {"second_order": True}}
            )

    def test_order_2_without_a_penalty_is_valid(self):
        cfg = config_from_dict(
            {"system": "linear2d", "smoothing": {"x_order": 2, "x_penalty": 0.0, "g_order": 2}}
        )
        settings = cfg.pipeline_settings()
        assert (settings.x_order, settings.g_order) == (2, 2)

    def test_messages_carry_the_source(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"system": "linear2d", "noise_var": -1}')
        with pytest.raises(ConfigError, match="exp.json"):
            load_config(path)


class TestLoadConfig:
    def test_round_trips_a_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"system": "vanderpol", "master_seed": 7}')
        cfg = load_config(path)
        assert cfg.system_name == "vanderpol"
        assert cfg.master_seed == 7
        assert cfg.source == str(path)

    def test_syntax_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"system": "linear2d",\n  "noise_var" 0.1}')
        with pytest.raises(ConfigError, match=r"bad\.json:2:\d+"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_integer_literal_too_long_to_parse(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"system": "linear2d", "theta": [1' + "0" * 5000 + ", 1, 1, 1]}")
        with pytest.raises(ConfigError, match=r"long\.json: .*digits"):
            load_config(path)


class TestAccessors:
    def test_generator_system_scales_only_ode(self):
        ode = config_from_dict({"system": "rossler_chaotic"})
        assert ode.generator_system().name == "rossler_chaotic_x2"
        sde = config_from_dict({"system": "rossler_chaotic", "generator": "sde"})
        assert sde.generator_system().name == "rossler_chaotic"

    def test_generator_theta_default_and_override(self):
        cfg = config_from_dict({"system": "rossler"})
        assert_allclose(cfg.generator_theta(), [0.2, 0.2, 3.0])
        cfg = config_from_dict({"system": "rossler_chaotic"})
        assert_allclose(cfg.generator_theta(), [0.2, 0.2, 5.7])
        cfg = config_from_dict({"system": "rossler", "theta": [0.1, 0.2, 4.0]})
        assert_allclose(cfg.generator_theta(), [0.1, 0.2, 4.0])

    def test_model_system_attaches_forcing(self):
        cfg = config_from_dict({"system": "vanderpol"})
        model = cfg.model_system()
        assert model.name == "linear2d"
        assert model.forcing.mode == "additive" and model.forcing.target == 2
        cfg = config_from_dict({"system": "rossler"})
        assert cfg.model_system().forcing.target == 1

    def test_replacement_model_keeps_builtin_spec(self):
        cfg = config_from_dict({"system": "rosenzweig_macarthur_log"})
        model = cfg.model_system()
        assert model.forcing.mode == "parameter_replacement"
        assert model.forcing.target == 7

    @pytest.mark.parametrize(
        "model, target, fragment",
        [
            ("rosenzweig_macarthur_log", 3, r"forcing\.target must be 7 for parameter_replacement"),
            ("linear2d", 1, r"forcing\.target has no parameter_replacement value: linear2d"),
        ],
    )
    def test_replacement_target_is_the_models_replaced_parameter(self, model, target, fragment):
        raw = {
            "system": "rosenzweig_macarthur_log",
            "model": model,
            "forcing": {"mode": "parameter_replacement", "target": target},
        }
        with pytest.raises(ConfigError, match=fragment):
            config_from_dict(raw)

    def test_pipeline_settings_reflect_smoothing_block(self):
        cfg = config_from_dict(
            {"system": "vanderpol_order2", "smoothing": {"x_penalty": 1e-6}}
        )
        s = cfg.pipeline_settings()
        assert s.second_order is True
        assert s.x_knot_spacing == 0.025
        assert s.x_penalty == 1e-6

    def test_test_kwargs_match_block(self):
        cfg = config_from_dict({"system": "linear2d", "test": {"b1": 7, "b2": 19}})
        kw = cfg.test_kwargs()
        assert kw["b1"] == 7 and kw["b2"] == 19
        assert kw["alpha"] == 0.05

    def test_require_simulation_needs_builtin(self):
        cfg = config_from_dict(
            {"system": {"csv": "data.csv"}, "model": "linear2d"}
        )
        with pytest.raises(ConfigError, match="csv data source"):
            cfg.require_simulation()

    def test_require_seed(self):
        cfg = config_from_dict({"system": "linear2d"})
        with pytest.raises(ConfigError, match="master_seed"):
            cfg.require_seed()
        config_from_dict({"system": "linear2d", "master_seed": 1}).require_seed()


class TestCells:
    def test_single_config_is_its_own_cell(self):
        cfg = config_from_dict({"system": "linear2d"})
        assert cfg.cells() == [cfg]

    def test_cells_inherit_and_override(self):
        cfg = config_from_dict(
            {
                "replicates": 10,
                "master_seed": 5,
                "cells": [
                    {"system": "linear2d"},
                    {"system": "vanderpol", "generator": "sde"},
                ],
            }
        )
        cells = cfg.cells()
        assert len(cells) == 2
        assert cells[0].system_name == "linear2d"
        assert cells[0].replicates == 10
        assert cells[0].master_seed == 5
        assert cells[1].generator == "sde"
        assert cells[1].resolved["noise_var"] == 0.001
        assert "cells[1]" in cells[1].source

    def test_cell_names(self):
        cfg = config_from_dict(
            {"cells": [{"system": "linear2d"}, {"system": "linear2d", "generator": "sde"}]}
        )
        names = [c.cell_name() for c in cfg.cells()]
        assert names == ["linear2d_ode", "linear2d_sde"]

    def test_bad_cell_reports_its_index(self):
        cfg = config_from_dict(
            {"cells": [{"system": "linear2d"}, {"system": "linear2d", "noise_var": -2}]}
        )
        with pytest.raises(ConfigError, match=r"cells\[1\]"):
            cfg.cells()


class TestEcho:
    def test_echo_is_stable_json(self):
        cfg = config_from_dict({"system": "linear2d", "master_seed": 3})
        text = cfg.echo_json()
        assert text.endswith("\n")
        d = json.loads(text)
        assert d["master_seed"] == 3
        assert config_from_dict(
            {k: v for k, v in d.items() if k != "cells"}
        ).echo_json() == text

    # sha256 prefixes of the echo of {"system": name, "generator": generator}
    @pytest.mark.parametrize(
        "system, generator, digest",
        [
            ("linear2d", "ode", "420e6dd134a3b55e"),
            ("linear2d", "sde", "7ef1d11d51e9ea21"),
            ("rosenzweig_macarthur_log", "ode", "d00f7f4e3ff3dced"),
            ("rosenzweig_macarthur_log", "sde", "4fe4f9b4c7d3ec28"),
            ("rossler", "ode", "1a250e4dfe146e7f"),
            ("rossler", "sde", "d2cf4952e55cadaa"),
            ("rossler_chaotic", "ode", "6e88490b2b5a880e"),
            ("rossler_chaotic", "sde", "af94c61774e7d349"),
            ("vanderpol", "ode", "e8ea3b3475020e85"),
            ("vanderpol", "sde", "228ce6255924f5de"),
            ("vanderpol_order2", "ode", "a5c2072fa1c1981b"),
            ("vanderpol_order2", "sde", "5218fc02b014dddb"),
        ],
    )
    def test_echo_is_pinned(self, system, generator, digest):
        text = config_from_dict({"system": system, "generator": generator}).echo_json()
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_defaults_are_the_apis(self):
        cfg = config_from_dict({"system": "linear2d"})
        assert cfg.pipeline_settings() == PipelineSettings()
        assert TestConfig(seed=0, **cfg.test_kwargs()) == TestConfig(seed=0)
