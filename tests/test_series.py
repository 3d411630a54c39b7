"""DatedSeries invariants, the dated CSV loaders and the CSV writers."""

import csv
import io
import tempfile
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teflow import DatedSeries, OhlcBar, OhlcSeries, load_ohlc_csv, load_series_csv, load_trend_csv
from teflow import series as series_module
from teflow.errors import NonFiniteValue, ParseError, TeflowError
from teflow.market import garman_klass_values
from teflow.series import format_value


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


def test_leading_byte_order_mark_is_dropped(tmp_path):
    p = tmp_path / "excel.csv"
    p.write_bytes(b"\xef\xbb\xbfdate,open,high,low,close\n2020-01-01,1,2,0.5,1.5\n")
    assert load_ohlc_csv(p).bars == (OhlcBar(date(2020, 1, 1), 1.0, 2.0, 0.5, 1.5),)
    p.write_bytes(b"\xef\xbb\xbf" * 2 + b"date,open,high,low,close\n2020-01-01,1,2,0.5,1.5\n")
    with pytest.raises(ParseError, match="expected header"):
        load_ohlc_csv(p)  # only one mark is dropped
    p.write_bytes(b"\xef\xbb\xbfdate,value\n2020-01-01,\xe9\n")
    with pytest.raises(ParseError, match=r"not UTF-8 text \(byte 25\)") as exc:
        load_series_csv(p)
    assert exc.value.line == 2


def test_plain_files_are_read_by_columns(tmp_path):
    """The row loop is not needed for a plain file, with or without an export preamble."""
    p = tmp_path / "plain.csv"
    with mock.patch.object(series_module, "_read_rows", side_effect=AssertionError):
        p.write_text("date,value\n2020-01-01,1.5\n2020-01-03,-2\n")
        assert load_series_csv(p).values.tolist() == [1.5, -2.0]
        p.write_text("Category: All categories\n\ndate,value\r\n2020-01-01,3\r\n")
        assert load_trend_csv(p, "kw").values.tolist() == [3.0]
        p.write_text("date,open,high,low,close\n2020-01-01,1,2,0.5,1.5\n")
        assert len(load_ohlc_csv(p)) == 1


_DAY = st.integers(0, 12).map(lambda i: (date(2020, 1, 1) + timedelta(days=i)).isoformat())
_NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers(-5, 150).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1_0", "-0.0", "1e-300", "5e+20"]),
)
_FIELD = st.one_of(
    st.dates().map(date.isoformat),
    _DAY,
    _NUMBER,
    st.text(max_size=6),
    st.builds("{}{}{}".format, st.sampled_from([" ", "\t"]), st.one_of(_DAY, _NUMBER),
              st.sampled_from(["", " "])),
    st.builds('"{}"'.format, st.one_of(_DAY, _NUMBER)),
    st.just("\0"),
)
_ROW = st.lists(_FIELD, max_size=6).map(",".join)
_BAR = st.tuples(st.integers(1, 99), st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)).map(
    lambda t: f"{t[0] + t[1]},{t[0] + max(t[1], t[2]) + t[3]},{t[0]},{t[0] + t[2]}")
_PREAMBLE = st.sampled_from(["", "\ufeff", "Category: All categories\n\n",
                             "\ufeffCategory: All categories\n \n"])


@st.composite
def _csv_text(draw):
    """Dated CSV text, mostly well-formed, with the oddities a loader must reject or tolerate."""
    header, body = draw(st.sampled_from([("date,value", _NUMBER),
                                         ("date,open,high,low,close", _BAR)]))
    rows = draw(st.lists(st.tuples(_DAY, body), max_size=8))
    if draw(st.booleans()):  # strictly increasing dates, as in a well-formed file
        rows = [((date(2020, 2, 1) + timedelta(days=i)).isoformat(), v)
                for i, (_, v) in enumerate(rows)]
    lines = [draw(st.sampled_from([header, header, "Date , Value", "Category: All", ""]))]
    lines += [",".join(row) for row in rows]
    if len(lines) > 2 and draw(st.booleans()):  # move a line break to another comma
        i = draw(st.integers(1, len(lines) - 2))
        fields = f"{lines[i]},{lines[i + 1]}".split(",")
        cut = draw(st.integers(1, len(fields) - 1))
        lines[i:i + 2] = [",".join(fields[:cut]), ",".join(fields[cut:])]
    odd = st.one_of(st.tuples(_DAY, _ROW).map(",".join), _ROW, st.sampled_from(["", " \t"]))
    for line in draw(st.lists(odd, max_size=8)):
        lines.insert(draw(st.integers(1, len(lines))), line)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return draw(_PREAMBLE) + end.join(lines) + draw(st.sampled_from(["", end]))


_CSV_TEXT = _csv_text()


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


def _outcome(load, path):
    """What a loader returns, or the type, message, path and line of what it raises."""
    try:
        got = load(path)
    except TeflowError as err:
        return type(err), str(err), getattr(err, "path", None), getattr(err, "line", None)
    if isinstance(got, OhlcSeries):
        return got.bars
    return got.dates, got.values.tobytes(), got.label


@given(_CSV_TEXT)
@example("date,value\n2020-01-01," + "0" * 200_000 + "\n")
@example("date,value\n2020-01-01\n1,2020-01-02,2\n")
@example('date,value\n"2020-01-01","1"\n')
@example('"date\n2020-01-01,1\n')
@settings(max_examples=400, deadline=None)
def test_column_reader_matches_row_loop(text):
    """Every loader gives the same series, or the same error, as the row loop alone."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.csv"
        path.write_text(text, encoding="utf-8", newline="")
        for load in (load_series_csv, load_ohlc_csv, lambda p: load_trend_csv(p, "kw")):
            got = _outcome(load, path)
            with mock.patch.object(series_module, "_read_columns", return_value=None):
                assert got == _outcome(load, path)


def _csv_writer_bytes(header, rows):
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode("utf-8")


def test_writers_match_csv_writer(tmp_path):
    values = [-0.0, *garman_klass_values(np.array([1.0]), np.array([1.0]), np.array([1.0]),
                                         np.array([2.0])), 1e-300, 5e+20]
    assert np.isnan(values[1])
    s = DatedSeries(dates=days(4), values=np.array(values), label="volatility_gk",
                    allow_missing=True)
    s.to_csv(tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_bytes() == _csv_writer_bytes(
        ["date", "value"], ([d.isoformat(), format_value(v)] for d, v in zip(s.dates, values)))
    prices = [(1e-300, 1e-300, 1e-300, 1e-300), (1.0, 5e+20, 0.5, 2.0), (3.25, 4.0, 1e-300, 1.0)]
    ohlc = OhlcSeries(bars=tuple(OhlcBar(d, *p) for d, p in zip(days(3), prices)))
    ohlc.to_csv(tmp_path / "ohlc.csv")
    assert (tmp_path / "ohlc.csv").read_bytes() == _csv_writer_bytes(
        ["date", "open", "high", "low", "close"],
        ([d.isoformat(), *map(format_value, p)] for d, p in zip(days(3), prices)))
