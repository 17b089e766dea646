import numpy as np
import pytest
from numpy.testing import assert_allclose

from odelof import ConfigError, config_from_dict, load_config


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
            ({"noise_var": -1.0}, "noise_var"),
            ({"n_points": 3}, "n_points"),
            ({"t_span": [5.0, 1.0]}, "t_span"),
            ({"generator": "pde"}, "generator"),
            ({"tests": ["case4"]}, "tests"),
            ({"replicates": 0}, "replicates"),
            ({"jobs": 0}, "jobs"),
            ({"test": {"alpha": 2.0}}, "alpha"),
            ({"observed": [0]}, "observed"),
            ({"forcing": {"mode": "multiplicative", "target": 1}}, "forcing"),
        ],
    )
    def test_semantic_checks(self, override, fragment):
        raw = {"system": "linear2d"}
        raw.update(override)
        with pytest.raises(ConfigError, match=fragment):
            config_from_dict(raw)

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
        import json

        d = json.loads(text)
        assert d["master_seed"] == 3
        assert config_from_dict(
            {k: v for k, v in d.items() if k != "cells"}
        ).echo_json() == text
