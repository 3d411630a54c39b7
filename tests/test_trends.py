"""Attention index tests: keyword presets, trend parsing, composites, differencing."""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teflow import (
    DatedSeries,
    KeywordSet,
    build_composite,
    first_difference,
    load_keyword_file,
    load_trend_csv,
    preset,
)
from teflow.errors import (
    InvariantViolation,
    NoConstituentData,
    SeriesTooShort,
    ValueOutOfRange,
)


def day(i):
    return date(2020, 1, 1) + timedelta(days=i)


def ds(values, label="kw", start=0):
    dates = tuple(day(start + i) for i in range(len(values)))
    return DatedSeries(dates=dates, values=np.array(values, dtype=float), label=label)


class TestPresets:
    @pytest.mark.parametrize("name,size", [
        ("full", 38), ("subset1", 21), ("subset2", 10), ("subset3", 5),
    ])
    def test_preset_sizes(self, name, size):
        assert len(preset(name)) == size

    def test_subset3_terms(self):
        assert set(preset("subset3").keywords) == {
            "Bitcoin", "BTC", "cryptocurrency", "blockchain", "crypto",
        }

    def test_subsets_nest_in_full(self):
        full = {k.casefold() for k in preset("full").keywords}
        for name in ("subset1", "subset2", "subset3"):
            assert {k.casefold() for k in preset(name).keywords} <= full

    def test_unknown_preset(self):
        with pytest.raises(ValueOutOfRange, match="subset2"):
            preset("subset9")

    def test_duplicates_rejected_after_casefold(self):
        with pytest.raises(InvariantViolation):
            KeywordSet(name="bad", keywords=("Bitcoin", " bitcoin "))

    def test_custom_keyword_file(self, tmp_path):
        p = tmp_path / "mine.txt"
        p.write_text("# uncertainty terms\neconomy\nrecession\n\ninflation\n")
        ks = load_keyword_file(p)
        assert ks.name == "mine"
        assert ks.keywords == ("economy", "recession", "inflation")


class TestLoadTrendCsv:
    def test_single_row(self, tmp_path):
        p = tmp_path / "btc.csv"
        p.write_text("date,value\n2017-12-10,100\n")
        s = load_trend_csv(p, "BTC")
        assert s.values.tolist() == [100.0]
        assert s.dates == (date(2017, 12, 10),)
        assert s.label == "BTC"

    def test_value_out_of_range(self, tmp_path):
        p = tmp_path / "btc.csv"
        p.write_text("date,value\n2017-12-10,103\n")
        with pytest.raises(ValueOutOfRange):
            load_trend_csv(p, "BTC")

    def test_tolerant_mode_skips_export_preamble(self, tmp_path):
        clean = tmp_path / "clean.csv"
        clean.write_text("date,value\n2020-01-01,55\n2020-01-02,60\n")
        exported = tmp_path / "exported.csv"
        exported.write_text("Category: All categories\n\n"
                            "Day,bitcoin: (Worldwide)\n2020-01-01,55\n2020-01-02,60\n")
        a = load_trend_csv(clean, "bitcoin")
        b = load_trend_csv(exported, "bitcoin")
        assert a.dates == b.dates
        assert a.values.tolist() == b.values.tolist()


class TestComposite:
    def test_pairwise_mean(self):
        idx = build_composite({"a": ds([40.0]), "b": ds([60.0])},
                              KeywordSet("s", ("a", "b")))
        assert idx.levels.values.tolist() == [50.0]
        assert idx.coverage == (2,)

    def test_missing_keyword_day_reduces_coverage(self):
        idx = build_composite({"a": ds([40.0, 20.0]), "b": ds([60.0])},
                              KeywordSet("s", ("a", "b")))
        assert idx.levels.values.tolist() == [50.0, 20.0]
        assert idx.coverage == (2, 1)

    def test_five_keyword_mean(self):
        series = {f"k{i}": ds([v]) for i, v in enumerate((10.0, 20.0, 30.0, 40.0, 50.0))}
        idx = build_composite(series, KeywordSet("s", tuple(series)))
        assert idx.levels.values.tolist() == [30.0]

    def test_no_constituent_data(self):
        with pytest.raises(NoConstituentData):
            build_composite({"other": ds([1.0])}, KeywordSet("s", ("a", "b")))

    def test_single_keyword_equals_its_series(self):
        s = ds([10.0, 30.0, 70.0], label="only")
        idx = build_composite({"only": s}, KeywordSet("s", ("only",)))
        assert idx.levels.values.tolist() == s.values.tolist()
        assert idx.levels.dates == s.dates

    def test_permutation_invariance(self):
        series = {"a": ds([10.0, 20.0]), "b": ds([30.0, 50.0]), "c": ds([50.0, 80.0])}
        fwd = build_composite(series, KeywordSet("s", ("a", "b", "c")))
        rev = build_composite(series, KeywordSet("s", ("c", "a", "b")))
        assert fwd.levels.values.tolist() == rev.levels.values.tolist()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_level_bounded_by_constituents(self, data):
        n_kw = data.draw(st.integers(1, 5))
        n_days = data.draw(st.integers(1, 8))
        series = {}
        for i in range(n_kw):
            vals = data.draw(st.lists(st.integers(0, 100), min_size=n_days, max_size=n_days))
            series[f"k{i}"] = ds([float(v) for v in vals])
        idx = build_composite(series, KeywordSet("s", tuple(series)))
        for j, d in enumerate(idx.levels.dates):
            todays = [s.values[s.dates.index(d)] for s in series.values() if d in s.dates]
            assert min(todays) - 1e-12 <= idx.levels.values[j] <= max(todays) + 1e-12


class TestFirstDifference:
    def test_constant(self):
        assert first_difference(ds([50.0, 50.0, 50.0])).values.tolist() == [0.0, 0.0]

    def test_definition(self):
        d = first_difference(ds([10.0, 35.0]))
        assert d.values.tolist() == [25.0]
        assert d.dates == (day(1),)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            first_difference(ds([10.0]))

    def test_cumsum_inverts_differencing(self):
        s = ds([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
        d = first_difference(s)
        rebuilt = s.values[0] + np.concatenate([[0.0], np.cumsum(d.values)])
        assert rebuilt.tolist() == s.values.tolist()

    @given(st.lists(st.integers(0, 100), min_size=2, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_difference_of_cumsum_is_identity(self, increments):
        base = np.cumsum(np.array(increments, dtype=float))
        s = ds(base.tolist())
        d = first_difference(s)
        assert d.values.tolist() == pytest.approx(np.diff(base).tolist(), abs=0)
