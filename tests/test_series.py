"""DatedSeries invariants and the generic date,value loader."""

import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teflow import DatedSeries, load_ohlc_csv, load_series_csv, load_trend_csv
from teflow.errors import NonFiniteValue, ParseError, TeflowError


def days(n, start=0):
    return tuple(date(2020, 1, 1) + timedelta(days=start + i) for i in range(n))


def test_dates_must_increase():
    with pytest.raises(ParseError):
        DatedSeries(dates=(date(2020, 1, 2), date(2020, 1, 1)),
                    values=np.array([1.0, 2.0]))


def test_nan_rejected_unless_allowed():
    with pytest.raises(NonFiniteValue):
        DatedSeries(dates=days(2), values=np.array([1.0, float("nan")]))
    s = DatedSeries(dates=days(2), values=np.array([1.0, float("nan")]), allow_missing=True)
    assert len(s.drop_missing()) == 1


def test_infinity_never_valid():
    with pytest.raises(NonFiniteValue):
        DatedSeries(dates=days(1), values=np.array([float("inf")]), allow_missing=True)


def test_window_slice():
    s = DatedSeries(dates=days(5), values=np.arange(5.0), label="s")
    w = s.window(1, 4)
    assert w.dates == days(3, start=1)
    assert w.values.tolist() == [1.0, 2.0, 3.0]
    assert w.label == "s"


def test_csv_roundtrip(tmp_path):
    s = DatedSeries(dates=days(3), values=np.array([1.5, -2.25, 0.0]), label="x")
    p = tmp_path / "s.csv"
    s.to_csv(p)
    loaded = load_series_csv(p)
    assert loaded.dates == s.dates
    assert loaded.values.tolist() == s.values.tolist()
    assert loaded.label == "s"  # label defaults to the file stem


def test_loader_errors_carry_position(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("date,value\n2020-01-01,1.0\n2020-01-02,oops\n")
    with pytest.raises(ParseError) as exc:
        load_series_csv(p)
    assert exc.value.line == 3
    assert exc.value.path.endswith("bad.csv")


def test_loader_rejects_duplicates_and_sorts(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("date,value\n2020-01-02,1\n2020-01-01,2\n")
    s = load_series_csv(p)
    assert s.dates == (date(2020, 1, 1), date(2020, 1, 2))
    p.write_text("date,value\n2020-01-01,1\n2020-01-01,2\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_series_csv(p)


def test_loader_missing_file(tmp_path):
    with pytest.raises(ParseError, match="not found"):
        load_series_csv(tmp_path / "absent.csv")


def test_undecodable_bytes_are_a_parse_error(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"date,value\n2020-01-01,1\n2020-01-02,\xe9\n")
    with pytest.raises(ParseError, match="UTF-8") as exc:
        load_series_csv(p)
    assert exc.value.line == 3
    assert exc.value.path.endswith("latin1.csv")


def test_oversized_field_is_a_parse_error(tmp_path):
    p = tmp_path / "huge.csv"
    p.write_text("date,value\n2020-01-01," + "1" * 200_000 + "\n")
    with pytest.raises(ParseError) as exc:
        load_series_csv(p)
    assert exc.value.line == 2


_FIELD = st.one_of(
    st.dates().map(date.isoformat),
    st.floats().map(repr),
    st.integers(-5, 150).map(str),
    st.text(max_size=6),
)
_ROW = st.lists(_FIELD, max_size=6).map(",".join)
_HEADER = st.sampled_from(["date,value", "date,open,high,low,close", "Category: All", ""])
_CSV_TEXT = st.builds(lambda head, rows: "\n".join([head, *rows]), _HEADER, st.lists(_ROW, max_size=8))


@given(st.one_of(_CSV_TEXT.map(str.encode), st.text().map(str.encode), st.binary()))
@example(b"date,value\n2020-01-01,\xff\n")
@example(b"date,open,high,low,close\n2020-01-01," + b"1" * 131_073 + b",2,0.5,1\n")
@settings(max_examples=300, deadline=None)
def test_loaders_raise_only_teflow_errors(data):
    """Whatever the bytes, each loader returns a series or raises a TeflowError."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.csv"
        path.write_bytes(data)
        for load in (load_series_csv, load_ohlc_csv, lambda p: load_trend_csv(p, "kw")):
            try:
                load(path)
            except TeflowError:
                pass
