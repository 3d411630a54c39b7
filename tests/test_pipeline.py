"""Pipeline tests: alignment, direction pairs, lag sweeps, windows, reports."""

import json
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from teflow import (
    AnalysisSpec,
    DatedSeries,
    NullCache,
    TeConfig,
    WindowScheme,
    align,
    apply_transform,
    lag_sweep,
    run_analysis,
    run_pair,
    window_analysis,
)
from teflow.errors import (
    ConfigError,
    EmptyIntersection,
    InvariantViolation,
    LagTooLargeForSample,
    WindowTooSmall,
)
from teflow.pipeline import REPORT_COLUMNS
from teflow.synth import ProcessSpec, generate
import teflow.te as te_mod
from teflow.te import substream


def day(i):
    return date(2015, 1, 1) + timedelta(days=i)


def ds(values, label, start=0):
    dates = tuple(day(start + i) for i in range(len(values)))
    return DatedSeries(dates=dates, values=np.asarray(values, dtype=float), label=label)


def synthetic_pair(n, seed, kind="iid_binary", **kw):
    src, tgt = generate(ProcessSpec(kind=kind, length=n, seed=seed, **kw))
    return ds(src, "x"), ds(tgt, "y")


def regime_pair(n, seed):
    """Independent first half, copy-coupled (delay 1) second half."""
    src = substream(seed, 50, 0).integers(0, 2, size=n)
    tgt = substream(seed, 51, 0).integers(0, 2, size=n)
    half = n // 2
    tgt[half:] = src[half - 1: n - 1]
    return ds(src, "x"), ds(tgt, "y")


FAST = TeConfig(n_shuffles=10, n_bootstrap=20, seed=5)


class TestAlign:
    def test_disjoint_ranges(self):
        with pytest.raises(EmptyIntersection):
            align(ds([1, 2], "a", start=0), ds([1, 2], "b", start=10))

    def test_identical_dates_returned_unchanged(self):
        a, b = ds([1, 2, 3], "a"), ds([4, 5, 6], "b")
        out_a, out_b = align(a, b)
        assert out_a is a and out_b is b

    def test_weekend_gap_intersection(self):
        a = ds(list(range(7)), "a")
        b_dates = tuple(d for d in a.dates if d != day(5))
        b = DatedSeries(dates=b_dates, values=np.arange(6, dtype=float), label="b")
        out_a, out_b = align(a, b)
        assert len(out_a) == len(out_b) == 6
        assert out_a.dates == out_b.dates
        assert day(5) not in out_a.dates


class TestRunPair:
    def test_requires_alignment(self):
        with pytest.raises(InvariantViolation):
            run_pair(ds([1, 2, 3], "a"), ds([1, 2, 3], "b", start=1), FAST)

    def test_direction_labels(self):
        src, tgt = synthetic_pair(300, 1)
        fwd, bwd = run_pair(src, tgt, FAST)
        assert fwd.direction == "x->y"
        assert bwd.direction == "y->x"

    def test_deterministic(self):
        src, tgt = synthetic_pair(400, 2)
        a = run_pair(src, tgt, FAST)
        b = run_pair(src, tgt, FAST)
        assert a == b

    def test_direction_streams_differ(self):
        src, tgt = synthetic_pair(400, 3)
        fwd, bwd = run_pair(src, tgt, FAST)
        assert fwd.config.seed != bwd.config.seed

    def test_one_way_coupling_detected(self):
        src, tgt = synthetic_pair(4000, 4, kind="copy")
        cfg = TeConfig(n_shuffles=30, n_bootstrap=100, seed=11)
        fwd, bwd = run_pair(src, tgt, cfg)
        assert fwd.p_value < 0.05
        assert bwd.p_value > 0.05

    def test_no_coupling_not_significant(self):
        high = 0
        for seed in range(20):
            src, tgt = synthetic_pair(1500, 100 + seed)
            cfg = TeConfig(n_shuffles=1, n_bootstrap=100, seed=seed)
            fwd, _ = run_pair(src, tgt, cfg)
            high += fwd.p_value > 0.05
        assert high >= 18

    def test_monotone_transform_of_inputs_leaves_estimates_unchanged(self):
        src, tgt = synthetic_pair(800, 19, kind="gaussian_ar1", phi=0.4)
        cubed = DatedSeries(dates=src.dates, values=src.values ** 3, label="x")
        scaled = DatedSeries(dates=tgt.dates, values=5.0 * tgt.values + 2.0, label="y")
        assert run_pair(src, tgt, FAST) == run_pair(cubed, scaled, FAST)


class TestLagSweep:
    def test_curve_shapes(self):
        src, tgt = synthetic_pair(600, 5)
        curves = lag_sweep(src, tgt, FAST, (1, 3))
        assert set(curves) == {"x->y", "y->x"}
        for curve in curves.values():
            assert [lag for lag, _ in curve] == [1, 2, 3]

    def test_lag_one_identical_to_run_pair(self):
        src, tgt = synthetic_pair(500, 6)
        fwd, bwd = run_pair(src, tgt, FAST)
        curves = lag_sweep(src, tgt, FAST, (1, 1))
        assert curves["x->y"][0][1] == fwd
        assert curves["y->x"][0][1] == bwd

    def test_delayed_coupling_found_at_matching_lag(self):
        src, tgt = synthetic_pair(6000, 7, kind="copy", delay=2)
        cfg = TeConfig(n_shuffles=30, n_bootstrap=100, seed=13)
        curves = lag_sweep(src, tgt, cfg, (1, 3))
        forward = {lag: est for lag, est in curves["x->y"]}
        assert forward[1].p_value > 0.05   # history too short to see the delay
        assert forward[2].p_value < 0.05
        assert forward[3].p_value < 0.05

    def test_shift_mode_lag_one_matches_history_mode(self):
        src, tgt = synthetic_pair(500, 8)
        a = lag_sweep(src, tgt, FAST, (1, 1), mode="history")
        b = lag_sweep(src, tgt, FAST, (1, 1), mode="shift")
        assert a == b

    def test_shift_mode_finds_delay_with_short_history(self):
        src, tgt = synthetic_pair(6000, 9, kind="copy", delay=3)
        cfg = TeConfig(n_shuffles=30, n_bootstrap=100, seed=17)
        curves = lag_sweep(src, tgt, cfg, (1, 4), mode="shift")
        forward = {lag: est for lag, est in curves["x->y"]}
        assert forward[3].p_value < 0.05
        assert forward[1].p_value > 0.05

    def test_thin_coverage_warns_not_raises(self):
        src, tgt = synthetic_pair(120, 10)
        with pytest.warns(LagTooLargeForSample):
            curves = lag_sweep(src, tgt, TeConfig(n_shuffles=2, n_bootstrap=0, seed=1),
                               (3, 3))
        assert len(curves["x->y"]) == 1

    def test_bad_range(self):
        src, tgt = synthetic_pair(100, 11)
        with pytest.raises(ConfigError):
            lag_sweep(src, tgt, FAST, (0, 2))


@pytest.mark.filterwarnings("ignore::teflow.errors.LagTooLargeForSample")
class TestNullReuse:
    """A NullCache draws each distinct shuffle set and Markov null once, and changes
    no result."""

    @staticmethod
    def counted(monkeypatch, name):
        """Per call of te.<name>: the array it returned."""
        calls = []
        draw = getattr(te_mod, name)

        def counted(*args):
            calls.append(draw(*args))
            return calls[-1]

        monkeypatch.setattr(te_mod, name, counted)
        return calls

    @staticmethod
    def held(cache, name):
        """The sets the cache holds for te.<name>, in the order they were stored."""
        draw = getattr(te_mod, name)
        return [rows for (fn, _), (_, rows) in cache._store.items() if fn is draw]

    @pytest.fixture
    def regenerations(self, monkeypatch):
        return self.counted(monkeypatch, "_markov_null_sources")

    @pytest.fixture
    def shuffles(self, monkeypatch):
        return self.counted(monkeypatch, "_shuffled_sources")

    def sweep(self, cfg, cache):
        src, tgt = synthetic_pair(2000, 20)
        return src, tgt, lag_sweep(src, tgt, cfg, (1, 8), null_cache=cache)

    def test_pinned_order_sweep_regenerates_once_per_direction(self, regenerations):
        src, tgt, curves = self.sweep(replace(FAST, block_order=1), NullCache())
        assert len(regenerations) == 2
        for lag in range(1, 9):
            fwd, bwd = run_pair(src, tgt, replace(FAST, block_order=1, k=lag, l=lag))
            assert curves["x->y"][lag - 1] == (lag, fwd)
            assert curves["y->x"][lag - 1] == (lag, bwd)
        assert len(regenerations) == 2 + 16  # without a cache, every call regenerates

    def test_default_order_sweep_holds_one_set_per_direction(self, regenerations):
        cache = NullCache()
        self.sweep(FAST, cache)
        assert len(regenerations) == 16  # order = lag, so no two lags share a null
        nulls = self.held(cache, "_markov_null_sources")
        assert len(nulls) == 2
        # each new key replaced its seed's set, so only the last lag's two are held
        assert all(held is drawn for held, drawn in zip(nulls, regenerations[-2:]))

    def test_held_nulls_are_read_only(self, regenerations):
        self.sweep(replace(FAST, block_order=1), NullCache())
        assert regenerations and not any(a.flags.writeable for a in regenerations)

    def test_sweep_draws_each_direction_shuffle_set_once(self, shuffles):
        cache = NullCache()
        cfg = replace(FAST, block_order=1)
        src, tgt, curves = self.sweep(cfg, cache)
        assert len(shuffles) == 2
        assert all(held is drawn
                   for held, drawn in zip(self.held(cache, "_shuffled_sources"), shuffles))
        assert not any(a.flags.writeable for a in shuffles)
        for lag in range(1, 9):
            fwd, bwd = run_pair(src, tgt, replace(cfg, k=lag, l=lag))
            assert curves["x->y"][lag - 1] == (lag, fwd)
            assert curves["y->x"][lag - 1] == (lag, bwd)
        assert len(shuffles) == 2 + 16  # without a cache, every call draws

    def test_run_analysis_reuses_only_identical_nulls(self, regenerations):
        src, tgt = synthetic_pair(400, 21)
        cfg = replace(FAST, block_order=1)
        spec = AnalysisSpec(pairs=(("x", "y"),), te_config=cfg, lag_range=(1, 3),
                            window_scheme=WindowScheme(count=2))
        report = run_analysis(spec, {"x": src, "y": tgt})
        # base rows and lags 1-3 share both directions' nulls; the windows run
        # without the cache, each on its own symbols
        assert len(regenerations) == 2 + 2 * 2
        assert report.rows == list(run_pair(src, tgt, cfg))
        assert report.window_results == window_analysis(src, tgt, cfg, WindowScheme(count=2))[0]


class TestWindowAnalysis:
    def test_partition_2300_by_4(self):
        src, tgt = synthetic_pair(2300, 12)
        windows, dropped = window_analysis(src, tgt, FAST, WindowScheme(count=4))
        assert len(windows) == 4
        assert dropped == 0
        sizes = set()
        for w in windows:
            sizes.add((w.end - w.start).days + 1)
        assert sizes == {575}

    def test_remainder_dropped_from_end(self):
        src, tgt = synthetic_pair(2303, 13)
        windows, dropped = window_analysis(src, tgt, FAST, WindowScheme(count=4))
        assert len(windows) == 4
        assert dropped == 3
        assert windows[-1].end == src.dates[4 * 575 - 1]

    def test_windows_partition_prefix_without_overlap(self):
        src, tgt = synthetic_pair(1000, 14)
        windows, _ = window_analysis(src, tgt, FAST, WindowScheme(size=250))
        starts = [w.start for w in windows]
        ends = [w.end for w in windows]
        assert starts[0] == src.dates[0]
        for prev_end, nxt_start in zip(ends, starts[1:]):
            assert (nxt_start - prev_end).days == 1

    def test_size_based_scheme(self):
        src, tgt = synthetic_pair(130, 15)
        windows, dropped = window_analysis(src, tgt, FAST, WindowScheme(size=60))
        assert len(windows) == 2
        assert dropped == 10

    def test_window_too_small(self):
        src, tgt = synthetic_pair(40, 16)
        with pytest.raises(WindowTooSmall):
            window_analysis(src, tgt, FAST, WindowScheme(count=8))

    def test_scheme_validation(self):
        with pytest.raises(ConfigError):
            WindowScheme()
        with pytest.raises(ConfigError):
            WindowScheme(count=2, size=100)

    def test_regime_shift_visible_in_windows(self):
        src, tgt = regime_pair(2000, 0)
        cfg = TeConfig(n_shuffles=50, n_bootstrap=100, seed=0)
        windows, _ = window_analysis(src, tgt, cfg, WindowScheme(count=4))
        assert windows[0].forward.p_value > 0.05
        assert windows[-1].forward.p_value < 0.05


class TestTransforms:
    def test_levels_passthrough(self):
        s = ds([1, 2, 3], "a")
        assert apply_transform(s, "levels") is s

    def test_diff(self):
        s = ds([1.0, 3.0, 6.0], "a")
        assert apply_transform(s, "diff").values.tolist() == [2.0, 3.0]

    def test_unknown(self):
        with pytest.raises(ConfigError):
            apply_transform(ds([1, 2], "a"), "zscore")


class TestRunAnalysisAndReport:
    def make_report(self, tmp_path, **spec_kw):
        src, tgt = synthetic_pair(700, 17)
        spec = AnalysisSpec(pairs=(("x", "y"),), te_config=FAST, **spec_kw)
        return run_analysis(spec, {"x": src, "y": tgt})

    def test_rows_both_directions(self, tmp_path):
        report = self.make_report(tmp_path)
        assert [r.direction for r in report.rows] == ["x->y", "y->x"]

    def test_csv_schema(self, tmp_path):
        report = self.make_report(tmp_path)
        path = tmp_path / "report.csv"
        report.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header.split(",") == REPORT_COLUMNS

    def test_json_roundtrips_values(self, tmp_path):
        report = self.make_report(tmp_path, lag_range=(1, 2))
        path = tmp_path / "report.json"
        report.write_json(path)
        doc = json.loads(path.read_text())
        assert [r["direction"] for r in doc["rows"]] == ["x->y", "y->x"]
        assert doc["rows"][0]["ete"] == report.rows[0].ete
        assert len(doc["lag_curves"]["x->y"]) == 2

    def test_windows_in_report(self, tmp_path):
        report = self.make_report(tmp_path, window_scheme=WindowScheme(count=2))
        assert len(report.window_results) == 2
        doc = report.to_dict()
        assert doc["window_results"][0]["forward"]["direction"] == "x->y"

    def test_transform_applied_before_alignment(self):
        levels = ds([10.0, 12.0, 11.0, 15.0, 14.0] * 60, "gtc")
        src, tgt = synthetic_pair(300, 18)
        spec = AnalysisSpec(pairs=(("gtc", "y"),), te_config=FAST,
                            transforms={"gtc": "diff"})
        report = run_analysis(spec, {"gtc": levels, "y": tgt})
        # differencing drops the first date, so one fewer effective row
        assert report.rows[0].n_effective == 299 - 1

    def test_unknown_label(self):
        with pytest.raises(ConfigError, match="nope"):
            run_analysis(AnalysisSpec(pairs=(("nope", "y"),), te_config=FAST),
                         {"y": ds([1, 2, 3], "y")})

    def test_report_reproducible(self, tmp_path):
        a = self.make_report(tmp_path)
        b = self.make_report(tmp_path)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_csv(pa)
        b.write_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()
