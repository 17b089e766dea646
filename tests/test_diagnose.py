import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import odelof
from odelof import (
    ArgumentError,
    DegenerateDesignError,
    DiagnosticReport,
    PipelineError,
    TestAbortedError,
    TestConfig,
    builtin_system,
    case2_test,
    case3_test,
    default_block_len,
    f_stat_case2,
    f_stat_case3,
    integrate,
    observe,
    report_json,
    residual_bootstrap_resample,
)
from odelof import diagnose
from odelof.diagnose import (
    _F_REL,
    _TIE_REL,
    _Blocks,
    _Case2Stat,
    _Case3Stat,
    _PERM_BLOCK,
    _PermutationStat,
    _from_json_float,
    _geometry,
    _run_test,
    _json_float,
)
from odelof.pipeline import PipelineRunner
from odelof.smoothers import AdditiveSmootherDesign, SmootherSettings


class TestFStatistics:
    def test_case2_hand_value(self):
        res = f_stat_case2([1.0, 2.0, 3.0], [1.0, 2.0, 2.0])
        assert res.flag is None
        assert abs(res.value - 2.0 / 3.0) <= 1e-12

    def test_case3_hand_value(self):
        res = f_stat_case3([1.0, 2.0, 3.0], [2.0, 2.0, 2.0], [1.0, 2.0, 2.5])
        assert res.flag is None
        assert abs(res.value - 5.0) <= 1e-12

    def test_zero_over_zero(self):
        res = f_stat_case2([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
        assert res.value == 0.0
        assert res.flag == "zero_over_zero"

    def test_zero_denominator(self):
        res = f_stat_case2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert math.isinf(res.value)
        assert res.flag == "zero_denominator"

    def test_case3_degenerate_flags(self):
        h = [1.0, 2.0, 3.0]
        same = f_stat_case3(h, h, h)
        assert same.value == 0.0 and same.flag == "zero_over_zero"
        res = f_stat_case3(h, [0.0, 0.0, 0.0], h)
        assert math.isinf(res.value) and res.flag == "zero_denominator"

    def test_multivariate_rows(self):
        g = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]])
        h = np.array([[1.0, 0.0], [2.0, 1.0], [2.0, 1.0]])
        res = f_stat_case2(g, h)
        hbar = h.mean(axis=0)
        num = np.mean(np.sum((h - hbar) ** 2, axis=1))
        den = np.mean(np.sum((g - h) ** 2, axis=1))
        assert res.value == pytest.approx(num / den, rel=1e-15)

    def test_shape_checks(self):
        with pytest.raises(ArgumentError, match="share a shape"):
            f_stat_case2([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ArgumentError, match="at least 2 rows"):
            f_stat_case2([1.0], [1.0])
        with pytest.raises(ArgumentError, match="non-finite"):
            f_stat_case2([1.0, np.nan], [1.0, 2.0])

    @staticmethod
    def statistics(d):
        # five (g, h, h1) triples of 40 rows and d columns
        rng = np.random.default_rng(d)
        g = rng.standard_normal((5, 40, d))
        h = 0.5 * g + 0.1 * rng.standard_normal((5, 40, d))
        h1 = h + 0.1 * rng.standard_normal((5, 40, d))
        g[1] = h[1] = h1[1] = 2.0  # zero_over_zero in both cases
        h[2] = g[2]  # case 2: zero_denominator
        h1[3] = g[3]  # case 3: zero_denominator
        return g, h, h1

    @pytest.mark.parametrize("d", [1, 2])
    def test_case2_mean_squares_and_flags(self, d):
        g, h, _ = self.statistics(d)
        res = [f_stat_case2(g[j], h[j]) for j in range(g.shape[0])]
        assert [r.flag for r in res[:3]] == [None, "zero_over_zero", "zero_denominator"]
        num = np.mean(np.sum((h[0] - h[0].mean(axis=0)) ** 2, axis=1))
        den = np.mean(np.sum((g[0] - h[0]) ** 2, axis=1))
        assert res[0].value == pytest.approx(num / den, rel=1e-14)
        assert res[1].value == 0.0 and math.isinf(res[2].value)

    @pytest.mark.parametrize("d", [1, 2])
    def test_case3_mean_squares_and_flags(self, d):
        g, h0, h1 = self.statistics(d)
        res = [f_stat_case3(g[j], h0[j], h1[j]) for j in range(g.shape[0])]
        assert [res[j].flag for j in (0, 1, 3)] == [None, "zero_over_zero", "zero_denominator"]
        num = np.mean(np.sum((h1[0] - h0[0]) ** 2, axis=1))
        den = np.mean(np.sum((g[0] - h1[0]) ** 2, axis=1))
        assert res[0].value == pytest.approx(num / den, rel=1e-14)
        assert res[1].value == 0.0 and math.isinf(res[3].value)

    def test_statistics_leave_inputs_alone(self):
        g, h0, h1 = self.statistics(1)
        before = [a.copy() for a in (g, h0, h1)]
        for j in range(g.shape[0]):
            f_stat_case2(g[j], h0[j])
            f_stat_case3(g[j], h0[j], h1[j])
        for a, b in zip((g, h0, h1), before):
            assert np.array_equal(a, b)


def reference_block_permute(values, block_len, rng):
    """The rows of ``values`` in blocks of ``block_len`` (the last may be
    short), reordered by one ``rng.permutation`` draw of the block order."""
    v = np.asarray(values, dtype=float)
    n_blocks = -(-v.shape[0] // block_len)
    blocks = [v[k * block_len : (k + 1) * block_len] for k in range(n_blocks)]
    return np.concatenate([blocks[k] for k in rng.permutation(n_blocks)])


def one_block_permutation(n, block_len, seed):
    blocks = _Blocks(n, block_len)
    return blocks.rows(blocks.orders(1, np.random.default_rng(seed)))[0]


class TestBlockPermutations:
    @pytest.mark.parametrize("n, block_len", [(60, 5), (63, 5), (7, 10), (9, 1)])
    def test_orders_are_successive_permutation_draws(self, n, block_len):
        rng_a, rng_b = np.random.default_rng(12), np.random.default_rng(12)
        blocks = _Blocks(n, block_len)
        orders = blocks.orders(30, rng_a)
        assert orders.shape == (30, blocks.n_blocks)
        expected = [rng_b.permutation(blocks.n_blocks) for _ in range(30)]
        assert np.array_equal(orders, expected)
        # the next draw of both generators agrees
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("n, block_len", [(60, 5), (63, 5), (7, 10), (9, 1)])
    def test_rows_follow_the_orders(self, n, block_len):
        rng_a, rng_b = np.random.default_rng(12), np.random.default_rng(12)
        blocks = _Blocks(n, block_len)
        rows = blocks.rows(blocks.orders(30, rng_a))
        expected = [reference_block_permute(np.arange(n), block_len, rng_b) for _ in range(30)]
        assert np.array_equal(rows, expected)

    def test_short_final_block_moves_whole(self):
        blocks = _Blocks(11, 4)
        for row in blocks.rows(blocks.orders(20, np.random.default_rng(5))):
            assert np.array_equal(np.sort(row), np.arange(11))
            at = int(np.flatnonzero(row == 8)[0])
            assert np.array_equal(row[at : at + 3], [8, 9, 10])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ArgumentError, match="block_len"):
            _Blocks(5, 0)
        with pytest.raises(ArgumentError, match="nothing"):
            _Blocks(0, 2)

    def test_preserves_row_multiset(self):
        v = np.random.default_rng(0).standard_normal((37, 2))
        out = v[one_block_permutation(37, 5, 1)]
        assert out.shape == v.shape
        assert np.array_equal(np.sort(out, axis=0), np.sort(v, axis=0))

    def test_blocks_stay_contiguous(self):
        chunks = one_block_permutation(12, 3, 2).reshape(4, 3)
        # each chunk is one of the original runs of 3 consecutive rows
        for c in chunks:
            assert np.array_equal(np.diff(c), [1, 1])
            assert c[0] % 3 == 0

    def test_block_len_at_least_n_is_identity(self):
        assert np.array_equal(one_block_permutation(10, 10, 3), np.arange(10))
        assert np.array_equal(one_block_permutation(10, 25, 4), np.arange(10))

    @pytest.mark.parametrize(
        "n, block_len, count", [(352, 9, 199), (240, 50, 199), (400, 7, 1000)]
    )
    def test_draws_in_blocks_are_one_draw(self, n, block_len, count):
        # the permutation null draws _PERM_BLOCK orders at a time
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        blocks = _Blocks(n, block_len)
        whole = blocks.orders(count, rng_a)
        parts = [
            blocks.orders(min(_PERM_BLOCK, count - at), rng_b)
            for at in range(0, count, _PERM_BLOCK)
        ]
        assert np.array_equal(whole, np.vstack(parts))
        assert rng_a.random() == rng_b.random()

    def test_deterministic_under_seed(self):
        blocks = _Blocks(20, 4)
        a = blocks.orders(5, np.random.default_rng(7))
        b = blocks.orders(5, np.random.default_rng(7))
        assert np.array_equal(a, b)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        block=st.integers(min_value=1, max_value=70),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_multiset_property(self, n, block, seed):
        assert np.array_equal(np.sort(one_block_permutation(n, block, seed)), np.arange(n))

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        block=st.integers(min_value=1, max_value=70),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_gathered_sums_are_sums_over_permuted_rows(self, n, block, seed):
        # each permutation's sum of its blocks' table entries is the sum
        # over its rows of a[p] src[row p], whether or not a short final
        # block shifts the blocks after it
        rng = np.random.default_rng(seed)
        a, src = rng.standard_normal((n, 3)), rng.standard_normal(n)
        blocks = _Blocks(n, block)
        orders = blocks.orders(12, rng)
        sums = blocks.gather(blocks.table(a, src), blocks.slots(orders))
        expected = [src[rows] @ a for rows in blocks.rows(orders)]
        assert_allclose(sums, expected, rtol=1e-12, atol=1e-12)


class TestResidualBootstrap:
    def test_rows_are_fitted_plus_some_residual(self):
        rng = np.random.default_rng(5)
        fitted = np.arange(20, dtype=float)[:, None] * np.array([1.0, 10.0])
        resid = rng.standard_normal((20, 2))
        values = fitted + resid
        out = residual_bootstrap_resample(values, fitted, np.random.default_rng(6))
        drawn = out - fitted
        # joint resampling: both columns of a drawn row come from the same
        # original residual row
        for row in drawn:
            match = np.all(np.isclose(resid, row), axis=1)
            assert match.any()

    def test_shape_mismatch(self):
        with pytest.raises(ArgumentError, match="must match"):
            residual_bootstrap_resample(
                np.zeros((5, 2)), np.zeros((4, 2)), np.random.default_rng(0)
            )


class TestDefaultBlockLen:
    def test_values(self):
        assert default_block_len(4.0, 0.125) == 33
        assert default_block_len(4.0, 1.0) == 5
        assert default_block_len(4.0, 55.0 / 439.0) == 32

    def test_rejects_bad_spacing(self):
        with pytest.raises(ArgumentError):
            default_block_len(4.0, 0.0)


class TestConfigValidation:
    def test_defaults(self):
        c = TestConfig(seed=1)
        assert c.b1 == 100 and c.b2 == 199
        assert c.alpha == 0.05
        assert c.block_len is None and c.delta is None and c.end_trim is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"b1": 0},
            {"b2": 0},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"block_len": 1},
            {"delta": 0.0},
            {"end_trim": -1},
            {"max_failed_fraction": 1.0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ArgumentError):
            TestConfig(seed=1, **kwargs)

    def test_seed_is_required(self):
        with pytest.raises(TypeError):
            TestConfig()


class TestJsonFloats:
    def test_infinities_survive_json(self):
        assert _json_float(math.inf) == "inf"
        assert _json_float(-math.inf) == "-inf"
        assert _json_float(1.5) == 1.5
        assert _from_json_float("inf") == math.inf
        assert _from_json_float("-inf") == -math.inf
        assert _from_json_float(2.5) == 2.5


@pytest.fixture(scope="module")
def vdp_series():
    system = builtin_system("vanderpol")
    times = np.linspace(0.0, 55.0, 440)
    path = integrate(system, system.theta_default, np.array([0.0, 2.0]), times)
    return observe(path, 0.001, seed=40)


@pytest.fixture(scope="module")
def linear_series():
    system = builtin_system("linear2d")
    times = np.linspace(0.0, 55.0, 440)
    path = integrate(
        system, np.array([0.0, -1.0, 1.0, 0.0]), np.array([1.0, 0.0]), times
    )
    return observe(path, 0.25, seed=41)


class TestCase2EndToEnd:
    def test_detects_cubic_misfit(self, vdp_series):
        report = case2_test(
            vdp_series,
            builtin_system("linear2d"),
            TestConfig(seed=100, b1=5, b2=99),
        )
        assert report.kind == "case2"
        assert report.reject
        assert report.p_mean < 0.05
        assert len(report.p_values) == 5
        assert len(report.f0_boot) == 5
        assert all(0.0 < p <= 1.0 for p in report.p_values)
        assert all(p >= 1.0 / 100.0 for p in report.p_values)
        assert report.block_len == 32
        assert report.end_trim == 16
        assert report.n_obs == 440
        assert report.edf_h_alt is None
        assert report.delta is None
        assert report.model == "linear2d"
        assert len(report.theta) == 4

    def test_retains_correct_model(self, linear_series):
        report = case2_test(
            linear_series,
            builtin_system("linear2d"),
            TestConfig(seed=101, b1=5, b2=99),
        )
        assert not report.reject
        assert report.p_mean > 0.05

    def test_deterministic_given_seed(self, vdp_series):
        cfg = TestConfig(seed=102, b1=3, b2=19)
        a = case2_test(vdp_series, builtin_system("linear2d"), cfg)
        b = case2_test(vdp_series, builtin_system("linear2d"), cfg)
        assert report_json(a) == report_json(b)
        c = case2_test(
            vdp_series, builtin_system("linear2d"), TestConfig(seed=103, b1=3, b2=19)
        )
        assert report_json(a) != report_json(c)

    def test_round_trip(self, vdp_series, tmp_path):
        config = TestConfig(seed=104, b1=3, b2=19)
        case2 = case2_test(vdp_series, builtin_system("linear2d"), config)
        case3 = case3_test(vdp_series, builtin_system("linear2d"), config)
        assert case3.delta is not None and case3.edf_h_alt is not None
        infinite = dataclasses.replace(case2, f0=math.inf, f0_boot=(math.inf,) + case2.f0_boot[1:])
        for i, report in enumerate((case2, case3, infinite)):
            path = tmp_path / f"report{i}.json"
            report.save(path)
            loaded = DiagnosticReport.load(path)
            assert report_json(loaded) == report_json(report)
            assert loaded == report
            # the archived splines evaluate identically
            t = np.linspace(5.0, 50.0, 7)
            assert np.array_equal(loaded.g_spline(t), report.g_spline(t))
            assert np.array_equal(loaded.xhat_spline(t), report.xhat_spline(t))
        assert '"f0": "inf"' in report_json(infinite)


class TestCase3EndToEnd:
    def test_fields_and_default_delta(self, vdp_series):
        report = case3_test(
            vdp_series,
            builtin_system("vanderpol"),
            TestConfig(seed=105, b1=3, b2=19),
        )
        assert report.kind == "case3"
        assert report.edf_h_alt is not None
        # one block span: 32 samples at spacing 55 / 439
        assert report.delta == pytest.approx(32 * (55.0 / 439.0))
        # the correct model: permuted F values fall on both sides of F0
        assert report.p_values == (0.85, 0.25, 0.25)
        assert report.version

    def test_more_permutations_than_a_block(self, vdp_series, linear_series):
        # B2 = 199 draws and fits the null in four blocks of up to _PERM_BLOCK
        config = TestConfig(seed=107, b1=2, b2=199)
        case3 = case3_test(vdp_series, builtin_system("vanderpol"), config)
        assert case3.p_values == (0.3, 0.34)
        assert case3.f0 == pytest.approx(0.3799123761004252, rel=1e-9)
        case2 = case2_test(linear_series, builtin_system("linear2d"), config)
        assert case2.p_values == (0.61, 0.96)
        assert case2.f0 == pytest.approx(0.281899982266366, rel=1e-9)

    def test_explicit_delta_respected(self, vdp_series):
        report = case3_test(
            vdp_series,
            builtin_system("vanderpol"),
            TestConfig(seed=106, b1=2, b2=19, delta=5.0),
        )
        assert report.delta == 5.0


class TestGuards:
    def test_too_few_points_after_trim(self):
        system = builtin_system("linear2d")
        times = np.linspace(0.0, 10.0, 30)
        path = integrate(
            system, np.array([0.0, -1.0, 1.0, 0.0]), np.array([1.0, 0.0]), times
        )
        series = observe(path, 0.01, seed=1)
        with pytest.raises(ArgumentError, match="too few"):
            case2_test(series, system, TestConfig(seed=1, b1=2, b2=19))

    @pytest.mark.parametrize(
        "test, message",
        [
            (
                TestConfig(seed=1, block_len=200),
                "^block_len 200 and end_trim 100 leave too few points: 240 of 440 observations "
                "remain, and the blocks need 400$",
            ),
            (
                TestConfig(seed=1, end_trim=209),
                "^block_len 32 and end_trim 209 leave too few points: 22 of 440",
            ),
            (
                TestConfig(seed=1, delta=50.0),
                "^delta 50 leaves 8 of 408 trimmed rows with a lagged time in range, fewer "
                "than 16; shorten the lag or the trim$",
            ),
        ],
    )
    def test_geometry_names_the_field_that_does_not_fit(self, vdp_series, test, message):
        with pytest.raises(ArgumentError, match=message):
            _geometry("case3", vdp_series.times, 4.0, test, SmootherSettings())

    @pytest.mark.parametrize("kind", ["case2", "case3"])
    def test_geometry_of_a_report_is_its_tests(self, vdp_series, kind):
        report = _run_test(
            kind, vdp_series, builtin_system("linear2d"), TestConfig(seed=5, b1=2, b2=9), None
        )
        rows, stat, resolved = _geometry(kind, vdp_series.times, None, report, SmootherSettings())
        assert resolved == {
            "spacing": report.spacing,
            "block_len": 32,
            "end_trim": 16,
            "delta": None if kind == "case2" else 32 * report.spacing,
        }
        assert {name: getattr(report, name) for name in resolved} == resolved
        assert rows == slice(16, 424)
        assert type(stat) is (_Case2Stat if kind == "case2" else _Case3Stat)

    def test_abort_when_replicates_fail(self, vdp_series, monkeypatch):
        original = _Case2Stat.evaluate

        def flaky(self, designs, g, block_len, perm_rng=None, b2=0):
            if perm_rng is not None:
                raise ArgumentError("synthetic replicate failure")
            return original(self, designs, g, block_len, perm_rng, b2)

        monkeypatch.setattr(_Case2Stat, "evaluate", flaky)
        with pytest.raises(TestAbortedError) as err:
            case2_test(
                vdp_series,
                builtin_system("linear2d"),
                TestConfig(seed=107, b1=4, b2=19, max_failed_fraction=0.0),
            )
        assert err.value.n_failed == 1
        assert "synthetic replicate failure" in str(err.value)

    def test_series_type_checked(self):
        with pytest.raises(ArgumentError, match="TimeSeries"):
            case2_test(np.zeros((10, 2)), builtin_system("linear2d"), TestConfig(seed=1))


class TestReplicateChunks:
    """Replicates are refitted and their designs built a chunk at a time;
    no report, failure or abort depends on the chunk size. Refits and
    design builds run in replicate order, after the original fit's, so
    failures are injected by call count: refit call c is replicate c - 1."""

    CHUNKS = (1, 3, diagnose._REPLICATE_CHUNK)

    @staticmethod
    def outcome(monkeypatch, series, chunk, kind, b1, refits=(), builds=(), frac=0.5):
        run, lay_out = PipelineRunner.run, AdditiveSmootherDesign._lay_out
        calls = {"run": 0, "build": 0}

        def count(name):
            calls[name] += 1
            return calls[name] - 1

        def failing_run(self, values):
            at = count("run")
            if at in refits:
                raise PipelineError(f"synthetic refit failure at call {at}")
            return run(self, values)

        def failing_lay_out(self, *args):
            at = count("build")
            if at in builds:
                raise DegenerateDesignError(f"synthetic design failure at build {at}")
            return lay_out(self, *args)

        test = case2_test if kind == "case2" else case3_test
        config = TestConfig(seed=5, b1=b1, b2=19, max_failed_fraction=frac)
        with monkeypatch.context() as patch:  # undone before the next run
            patch.setattr(diagnose, "_REPLICATE_CHUNK", chunk)
            patch.setattr(PipelineRunner, "run", failing_run)
            patch.setattr(AdditiveSmootherDesign, "_lay_out", failing_lay_out)
            try:
                return report_json(test(series, builtin_system("linear2d"), config))
            except TestAbortedError as exc:
                return exc.n_failed, exc.n_total, str(exc), tuple(exc.messages)

    @pytest.mark.parametrize("kind", ["case2", "case3"])
    def test_reports_do_not_depend_on_the_chunk(self, vdp_series, monkeypatch, kind):
        b1 = 17
        assert b1 > max(self.CHUNKS)  # at least two chunks at every size
        reports = {self.outcome(monkeypatch, vdp_series, c, kind, b1) for c in self.CHUNKS}
        assert len(reports) == 1
        assert json.loads(reports.pop())["n_failed"] == 0

    @pytest.mark.parametrize(
        "kind, builds, failed",
        [
            # case 2 builds one design per fit: build 9 is replicate 9's,
            # replicate 5's refit having failed
            ("case2", 9, "replicate 9: synthetic design failure at build 9"),
            # case 3 builds h0 and h1 per fit: build 15 is replicate 7's h1
            ("case3", 15, "replicate 7: synthetic design failure at build 15"),
        ],
    )
    def test_failures_in_mid_chunk(self, vdp_series, monkeypatch, kind, builds, failed):
        reports = {
            self.outcome(monkeypatch, vdp_series, c, kind, 20, refits=(6,), builds=(builds,))
            for c in self.CHUNKS
        }
        assert len(reports) == 1
        report = json.loads(reports.pop())
        assert report["n_failed"] == 2
        assert report["failure_messages"] == [
            "replicate 5: synthetic refit failure at call 6",
            failed,
        ]
        assert len(report["p_values"]) == 18

    @pytest.mark.parametrize(
        "kind, refits, builds, failed",
        [
            # replicates 3 and 17 fail their refits; build 18 is replicate 19's
            ("case2", (4, 18), (18,), (3, 17, 19)),
            # replicate 3 fails its refit; builds 33 and 36 are the h1 of
            # replicate 16 and the h0 of replicate 18
            ("case3", (4,), (33, 36), (3, 16, 18)),
        ],
    )
    def test_abort_in_the_second_chunk(self, vdp_series, monkeypatch, kind, refits, builds, failed):
        aborts = {
            self.outcome(monkeypatch, vdp_series, c, kind, 20, refits, builds, frac=0.1)
            for c in self.CHUNKS
        }
        assert len(aborts) == 1
        n_failed, n_total, message, messages = aborts.pop()
        assert (n_failed, n_total) == (3, failed[-1] + 1)
        assert n_total > diagnose._REPLICATE_CHUNK
        assert message == (
            f"3 of {n_total} bootstrap replicates failed (cap 2 of 20); "
            f"last error: synthetic design failure at build {builds[-1]}"
        )
        assert [m.split(":")[0] for m in messages] == [f"replicate {b}" for b in failed]

    def test_the_original_fits_failure_raises(self, vdp_series, monkeypatch):
        # the original fit is member 0 of the first chunk; its h1 build is
        # build 1, and its failure is the test's, not a replicate's
        for chunk in self.CHUNKS:
            with pytest.raises(DegenerateDesignError, match="^synthetic design failure at build 1$"):
                self.outcome(monkeypatch, vdp_series, chunk, "case3", 5, builds=(1,))


class TestReportJson:
    def test_sorted_keys_and_trailing_newline(self, vdp_series):
        report = case2_test(
            vdp_series, builtin_system("linear2d"), TestConfig(seed=108, b1=2, b2=19)
        )
        text = report_json(report)
        assert text.endswith("\n")
        d = json.loads(text)
        assert list(d) == sorted(d)
        assert d["kind"] == "case2"
        assert d["b2"] == 19


def fit_one(design, y):
    """Fitted values and EDF of one response: row 0 of ``fit_many(y[None])``."""
    fits = design.fit_many(y[None])
    return fits.fitted[0], fits.edf[0]


def lone_designs(stat, states):
    """The designs of ``stat`` on ``states``, each built on its own."""
    layouts = stat._layouts(states)
    return [AdditiveSmootherDesign(x, stat.settings, groups=g) for x, g in layouts]


def case3_setup(system, interaction, seed=11):
    """A case-3 statistic on one simulated dataset, as the test builds it."""
    from odelof import config_from_dict
    from odelof.pipeline import PipelineRunner
    from odelof.power import simulate_series

    config = config_from_dict(
        {"system": system, "master_seed": seed, "smoothing": {"h_interaction": interaction}}
    )
    series = simulate_series(config, np.random.SeedSequence(seed, spawn_key=(0, 0)))
    settings = config.pipeline_settings()
    runner = PipelineRunner(series.times, config.model_system(), settings)
    fit = runner.run(series.values)
    test = TestConfig(seed=seed, **config.test_kwargs())
    width = runner.g_basis.support_width
    rows, stat, resolved = _geometry("case3", series.times, width, test, settings.smoother)
    return stat, fit.state_obs[rows], fit.g_obs[rows], resolved["block_len"]


class TestCase3LagUpdate:
    """The lagged-state h1, rebuilt once per replicate, and its batched null."""

    @pytest.mark.parametrize(
        "system, interaction",
        [("vanderpol", True), ("vanderpol", False), ("vanderpol_order2", True)],
    )
    def test_permuted_statistics_match_full_builds(self, system, interaction):
        # the batched null against a one-row fit per design and
        # permutation; vanderpol_order2 observes one coordinate and fits
        # the state (x, dx/dt)
        stat, states, g, block_len = case3_setup(system, interaction)
        (designs,) = stat.designs([states])
        f0, p_b, edf0, edf1 = stat.evaluate(
            designs, g, perm_rng=np.random.default_rng(4), b2=99, block_len=block_len
        )
        rows = stat.valid
        design0, design1 = lone_designs(stat, states)
        h0, edf_h0 = fit_one(design0, g)
        h1, edf_h1 = fit_one(design1, g[rows])
        rng = np.random.default_rng(4)
        f_k = []
        for _ in range(99):
            g_k = reference_block_permute(g - h0, block_len, rng) + h0
            h0_k = fit_one(design0, g_k)[0][rows]
            f_k.append(f_stat_case3(g_k[rows], h0_k, fit_one(design1, g_k[rows])[0]).value)
        one_row = f_stat_case3(g[rows], h0[rows], h1)
        assert f0.value == pytest.approx(one_row.value, rel=_F_REL)
        assert f0.flag is one_row.flag is None
        assert (edf0, edf1) == (edf_h0, edf_h1)
        # vanderpol_order2 has five blocks, so the identity order can recur;
        # its one-row fits round differently from F0's Gram formulas, and
        # the tie rule counts it
        count = sum(f >= f0.value * (1 - _TIE_REL) for f in f_k)
        assert p_b == (1 + count) / 100

    def test_h1_design_is_states_and_lagged_states(self):
        stat, states, _, _ = case3_setup("vanderpol", True)
        design = lone_designs(stat, states)[1]
        rows = stat.valid
        assert design.groups == ((0, 1), (2, 3))
        assert np.array_equal(design.predictors[:, :2], states[rows])
        for j in range(2):
            lagged = np.interp(stat.times[rows] - stat.delta, stat.times, states[:, j])
            assert np.array_equal(design.predictors[:, 2 + j], lagged)
        additive = _Case3Stat(stat.times, SmootherSettings(), stat.delta, stat.valid)
        additive = lone_designs(additive, states)[1]
        assert additive.groups == ((0,), (1,), (2,), (3,))

    def test_degenerate_lag_fit_fails_its_replicate(self, vdp_series, monkeypatch):
        # a null fit that raises costs that bootstrap replicate and not the
        # test; with b2 = 19 each replicate picks one null batch for h0 and
        # then one for h1, after F0's batch of one
        original = AdditiveSmootherDesign.shrink_projections
        calls = []

        def degenerate_first_h1(self, z, yy):
            if len(z) > 1:
                calls.append(None)
                if len(calls) == 2:
                    raise DegenerateDesignError("synthetic degenerate h1 fit")
            return original(self, z, yy)

        monkeypatch.setattr(AdditiveSmootherDesign, "shrink_projections", degenerate_first_h1)
        report = case3_test(
            vdp_series,
            builtin_system("vanderpol"),
            TestConfig(seed=109, b1=3, b2=19, max_failed_fraction=0.5),
        )
        assert len(calls) == 6
        assert report.n_failed == 1
        assert len(report.p_values) == 2
        assert "replicate 0" in report.failure_messages[0]
        assert "synthetic degenerate h1 fit" in report.failure_messages[0]

    @pytest.mark.parametrize(
        "system, p_values",
        [
            ("linear2d", (0.86, 0.08, 0.14, 0.44)),
            ("rossler_chaotic", (0.02, 0.02, 0.02, 0.02)),
            ("vanderpol", (0.84, 0.92, 0.86, 0.88)),
        ],
    )
    def test_pinned_p_values(self, system, p_values):
        # linear2d and vanderpol have permuted F values above and below F0,
        # so a changed statistic or a flipped comparison would move them;
        # rossler_chaotic, whose third state is missing, sits at the floor
        assert fixture_p_values(system, "case3") == p_values


def one_row_null(kind, stat, states, g, block_len, b2, seed):
    """The F values of ``b2`` block permutations drawn from ``seed``, each
    from one-row fits of its permuted response on designs built alone."""
    rng = np.random.default_rng(seed)
    designs = lone_designs(stat, states)
    if kind == "case2":
        return np.array([
            f_stat_case2(g_k, fit_one(designs[0], g_k)[0]).value
            for g_k in (reference_block_permute(g, block_len, rng) for _ in range(b2))
        ])
    rows = stat.valid
    h0 = fit_one(designs[0], g)[0]
    values = []
    for _ in range(b2):
        g_k = reference_block_permute(g - h0, block_len, rng) + h0
        h1_k = fit_one(designs[1], g_k[rows])[0]
        values.append(f_stat_case3(g_k[rows], fit_one(designs[0], g_k)[0][rows], h1_k).value)
    return np.array(values)


class TestNullMatchesOneRowFits:
    """Each null F from the block sums is within _F_REL of the F of its
    permuted response's one-row fits, and p_b counts as theirs does."""

    @staticmethod
    def compare(monkeypatch, kind, stat, states, g, block_len, b2=99):
        unsure = []
        original = diagnose._unsure

        def spy(*args):
            unsure.append(original(*args))
            return unsure[-1]

        monkeypatch.setattr(diagnose, "_unsure", spy)
        (designs,) = stat.designs([states])
        blocks = _Blocks(g.size, block_len)
        assert blocks.full < blocks.n_blocks  # a short final block shifts the others
        f0, p_b, _, _ = stat.evaluate(
            designs, g, perm_rng=np.random.default_rng(4), b2=b2, block_len=block_len
        )
        # a test centres g before any fit, and so does the reference: one-row
        # fits of a response far off zero round at about eps |mean g|
        centred = g - g.mean()
        grams, refit, _ = stat._null(designs, centred, blocks)
        null = diagnose._null_values(grams, refit, blocks.orders(b2, np.random.default_rng(4)))
        reference = one_row_null(kind, stat, states, centred, block_len, b2, 4)
        assert_allclose(null, reference, rtol=diagnose._F_REL, atol=0)
        reach = f0.value * (1 - _TIE_REL)
        assert p_b == (1 + np.count_nonzero(reference >= reach)) / (b2 + 1)
        return np.concatenate(unsure)

    @staticmethod
    def stat(kind, system, interaction):
        stat3, states, g, block_len = case3_setup(system, interaction)
        return (stat3 if kind == "case3" else _Case2Stat(stat3.settings)), states, g, block_len

    @pytest.mark.parametrize("kind", ["case2", "case3"])
    @pytest.mark.parametrize("interaction", [True, False])
    def test_fixture_forcing(self, monkeypatch, kind, interaction):
        # 408 trimmed rows in blocks of 32: the last block has 24
        stat, states, g, block_len = self.stat(kind, "vanderpol", interaction)
        unsure = self.compare(monkeypatch, kind, stat, states, g, block_len)
        assert not unsure.any()

    @pytest.mark.parametrize("kind", ["case2", "case3"])
    def test_near_exact_fit_is_refitted(self, monkeypatch, kind):
        # g = sin(x1) x2 + 5 + N(0, 1e-14) on the vanderpol_order2 state
        # (x, dx/dt) fits to about 1e-7 against a mean of 5: the Gram
        # formulas cancel most of ||y||^2, and the guard refits those rows
        stat, states, _, block_len = self.stat(kind, "vanderpol_order2", True)
        noise = 1e-7 * np.random.default_rng(3).standard_normal(states.shape[0])
        g = np.sin(states[:, 0]) * states[:, 1] + 5.0 + noise
        unsure = self.compare(monkeypatch, kind, stat, states, g, block_len)
        assert unsure.any()


class TestShiftInvariance:
    """F does not change with a constant added to g, and a test centres g
    once: a shifted forcing reads the same F0 and p_b, and the Gram
    formulas hold every row of its null and F0's."""

    @pytest.mark.parametrize("kind", ["case2", "case3"])
    @pytest.mark.parametrize("system", ["vanderpol", "linear2d"])
    def test_shifted_forcing_reads_the_same(self, monkeypatch, kind, system):
        stat, states, g, block_len = TestNullMatchesOneRowFits.stat(kind, system, True)
        unsure = []
        original = diagnose._unsure

        def spy(*args):
            unsure.append(original(*args))
            return unsure[-1]

        monkeypatch.setattr(diagnose, "_unsure", spy)
        (designs,) = stat.designs([states])
        (f0, p_b), *shifted = [
            stat.evaluate(
                designs, g_s, block_len=block_len, perm_rng=np.random.default_rng(4), b2=199
            )[:2]
            for g_s in (g, g + 50.0, g + 5.0 - g.mean())
        ]
        for f0_s, p_s in shifted:
            assert f0_s.value == pytest.approx(f0.value, rel=1e-13, abs=0)
            assert p_s == p_b
        assert not np.concatenate(unsure).any()


class TestCase2Batched:
    @pytest.mark.parametrize(
        "system, p_values",
        [
            ("linear2d", (0.16, 0.32, 0.3, 0.58)),
            ("vanderpol", (0.02, 0.02, 0.02, 0.02)),
        ],
    )
    def test_pinned_p_values(self, system, p_values):
        # p-values of the per-permutation implementation: linear2d has
        # permuted F values above and below F0; vanderpol sits at the floor
        assert fixture_p_values(system, "case2") == p_values

    def test_counts_match_per_permutation_fits(self, vdp_series):
        # the batched null against a one-row fit per permutation
        fit = PipelineRunner(vdp_series.times, builtin_system("linear2d")).run(vdp_series.values)
        states, g = fit.state_obs[10:-10], fit.g_obs[10:-10]
        stat = _Case2Stat(SmootherSettings())
        f0, p_b, edf, _ = stat.evaluate(
            stat.designs([states])[0], g, perm_rng=np.random.default_rng(4), b2=99, block_len=9
        )
        design = AdditiveSmootherDesign(states)
        rng = np.random.default_rng(4)
        f_k = []
        for _ in range(99):
            g_k = reference_block_permute(g, 9, rng)
            f_k.append(f_stat_case2(g_k, fit_one(design, g_k)[0]).value)
        h, edf_h = fit_one(design, g)
        one_row = f_stat_case2(g, h)
        assert f0.value == pytest.approx(one_row.value, rel=_F_REL)
        assert f0.flag is one_row.flag is None
        assert edf == edf_h
        assert p_b == (1 + sum(f >= f0.value for f in f_k)) / 100


    def test_degenerate_ties_count_as_exceedances(self, vdp_series):
        # a zero response fits exactly: F0 and every permuted F read 0/0
        fit = PipelineRunner(vdp_series.times, builtin_system("linear2d")).run(vdp_series.values)
        stat = _Case2Stat(SmootherSettings())
        f0, p_b, _, _ = stat.evaluate(
            stat.designs([fit.state_obs])[0], np.zeros(vdp_series.times.size),
            perm_rng=np.random.default_rng(0), b2=19, block_len=9,
        )
        assert f0 == (0.0, "zero_over_zero")
        assert p_b == 1.0


class StubNull(_PermutationStat):
    """A statistic whose F0 and null F values are given: the Gram
    formulas of its first batch, the identity order, read F0, and those of
    its second the null values, all sure."""

    def __init__(self, f0, null_values):
        self.batches = ([f0], null_values)

    def _null(self, designs, g, blocks):
        batches = iter(self.batches)

        def grams(orders):
            values = np.array(next(batches), dtype=float)[: len(orders)]
            return values, np.zeros(len(orders), dtype=bool), np.zeros(len(orders))

        return grams, None, None


class TestPermutationTies:
    def evaluate(self, f0, null_values):
        stat = StubNull(f0, null_values)
        return stat.evaluate(
            (), np.zeros(40), 4, perm_rng=np.random.default_rng(0), b2=len(null_values)
        )[1]

    def test_rounding_below_f0_counts_as_a_tie(self):
        # the identity order in a larger batch, or refitted by one-row fits,
        # reproduces F0 only to rounding
        f0 = 80.60143969173889
        assert self.evaluate(f0, [80.60143969162252, f0 * (1 - 1e-9), f0 * (1 - 1e-6), 0.0]) == 3 / 5

    def test_far_values_count_as_exact_comparisons(self):
        assert self.evaluate(2.0, [2.0, 2.5, 1.9, 1.0]) == 3 / 5
        assert self.evaluate(0.0, [0.0, 0.0, 1.0]) == 1.0
        assert self.evaluate(math.inf, [math.inf, 1e300, 0.0]) == 2 / 4


class TestReplacementForcingFixture:
    @pytest.mark.parametrize(
        "kind, p_values, f0",
        [
            ("case2", (0.14, 0.06, 0.16, 0.02), 1.692443963003649),
            ("case3", (0.54, 0.02, 0.94, 0.14), 0.792658209279638),
        ],
    )
    def test_pinned_p_values(self, kind, p_values, f0):
        # p-values and F0 of the dense least-squares Gauss-Newton step on
        # rosenzweig_macarthur_log (parameter-replacement forcing); the
        # banded normal-equation step moves the refits only by rounding.
        # Case 3's values are those of the lagged-state statistic.
        report = fixture_report("rosenzweig_macarthur_log", kind)
        assert report.n_failed == 0
        assert report.p_values == p_values
        assert report.f0 == pytest.approx(f0, rel=1e-9)


def fixture_report(system, kind):
    """Report of one test on the fixed-seed fixture of ``system``."""
    from odelof import config_from_dict
    from odelof.power import diagnose_series, simulate_series

    config = config_from_dict({"system": system, "master_seed": 11, "test": {"b1": 4, "b2": 49}})
    series = simulate_series(config, np.random.SeedSequence(11, spawn_key=(0, 0)))
    return diagnose_series(config, series, kind, np.random.SeedSequence(11, spawn_key=(1,)))


def fixture_p_values(system, kind):
    """p-values of one test on the fixed-seed fixture of ``system``."""
    return fixture_report(system, kind).p_values


def fixture_reports():
    """Report JSON of case 2 and case 3 on the fixtures of vanderpol
    (additive forcing) and rosenzweig_macarthur_log (parameter
    replacement)."""
    return {
        f"{system} {kind}": report_json(fixture_report(system, kind))
        for system in ("vanderpol", "rosenzweig_macarthur_log")
        for kind in ("case2", "case3")
    }


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: BLAS runs one thread")
def test_report_bytes_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS reads its thread count when it loads, so each count runs in
    # a child interpreter; every Gram of the fits is a band summed in a
    # fixed order, and no product whose rounding follows the thread count
    # reaches a report
    child = """
import json
from test_diagnose import fixture_reports
print(json.dumps(fixture_reports()))
"""
    src = str(Path(odelof.__file__).parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", child],
            cwd=Path(__file__).parent,
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        ).stdout
        reports.append(json.loads(out.splitlines()[-1]))
    assert len(reports[0]) == 4
    for name, report in reports[0].items():
        assert report == reports[1][name], name
