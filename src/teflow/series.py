"""Dated value series: the common carrier for prices, returns, volatilities and index levels."""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path

import numpy as np

from .errors import EmptyIntersection, NonFiniteValue, ParseError


def format_value(x: float) -> str:
    """Canonical float formatting used by every CSV writer (byte-stable across runs)."""
    return format(float(x), ".12g")


@dataclass(frozen=True)
class DatedSeries:
    """Ordered (date, value) observations with strictly increasing dates.

    Values must be finite unless the series was built with ``allow_missing``,
    in which case NaN marks a missing observation (infinities are never valid).
    """

    dates: tuple[date, ...]
    values: np.ndarray
    label: str = ""
    allow_missing: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.dates) != vals.shape[0]:
            raise ValueError("dates and values must have equal length")
        if not all(map(operator.lt, self.dates, self.dates[1:])):
            cur = next(c for p, c in zip(self.dates, self.dates[1:]) if c <= p)
            raise ParseError(f"dates not strictly increasing near {cur.isoformat()}")
        if np.isinf(vals).any():
            raise NonFiniteValue(f"infinite value in series {self.label!r}")
        if not self.allow_missing and np.isnan(vals).any():
            raise NonFiniteValue(f"missing (NaN) value in series {self.label!r}")

    def __len__(self) -> int:
        return len(self.dates)

    def window(self, start: int, stop: int) -> "DatedSeries":
        """Contiguous slice by positional index."""
        return replace(self, dates=self.dates[start:stop], values=self.values[start:stop])

    def drop_missing(self) -> "DatedSeries":
        """Remove NaN observations; result is a fully finite series."""
        keep = ~np.isnan(self.values)
        dates = tuple(d for d, k in zip(self.dates, keep) if k)
        return replace(self, dates=dates, values=self.values[keep], allow_missing=False)

    def to_csv(self, path) -> None:
        write_lines(path, ["date,value", *(f"{d.isoformat()},{format_value(v)}"
                                           for d, v in zip(self.dates, self.values.tolist()))])


def read_text(path) -> str:
    """The UTF-8 text of an input file, without a leading byte order mark.

    A missing or undecodable file is a ParseError.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ParseError("file not found", path=path) from None
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ParseError(f"not UTF-8 text (byte {err.start})", path=path, line=line) from None


def read_lines(path) -> list[tuple[int, str]]:
    """``(line number, stripped text)`` of each line that is neither blank nor a ``#`` comment."""
    return [(i, text) for i, line in enumerate(read_text(path).splitlines(), start=1)
            if (text := line.strip()) and not text.startswith("#")]


def read_dated_csv(path, parse, columns: int, header=None,
                   skip_preamble: bool = False) -> tuple[list[date], np.ndarray]:
    """A CSV whose first column is an ISO date, as sorted dates and an ``(n, columns - 1)`` table.

    The first row is a header; it must equal ``header`` (case and spacing
    aside) when one is given. ``skip_preamble`` skips a leading export
    preamble (a line without a comma, then blank lines) when one is detected.
    Blank rows are skipped; every other row has ``columns`` fields.
    ``parse(day, fields[1:], path, line)`` checks one row and returns its
    value, or its values as a tuple; duplicate dates are rejected after it.

    A plain file is read a column at a time. Anything else goes through the
    row loop, which alone decides every error and its line.
    """
    path = Path(path)
    text = read_text(path)
    lines = text.splitlines()
    offset = 0
    if skip_preamble and lines and lines[0].strip() and "," not in lines[0]:
        offset = 1
        while offset < len(lines) and not lines[offset].strip():
            offset += 1
    lines = lines[offset:]
    return (_read_columns(text, lines, columns, header)
            or _read_rows(lines, offset, path, parse, columns, header))


def _read_columns(text: str, lines: list[str], columns: int,
                  header) -> tuple[list[date], np.ndarray] | None:
    """:func:`read_dated_csv` a column at a time, or None when the row loop must decide.

    That is when the text holds a quote or a NUL, there are no lines, a line
    is longer than the csv field limit, the header differs, a row has the
    wrong number of commas (a blank row has none), a field does not parse, a
    value is not finite or the dates are not strictly increasing.
    """
    limit = csv.field_size_limit()
    if ('"' in text or "\0" in text or not lines
            or (len(text) >= limit and max(map(len, lines)) >= limit)):
        return None
    if header is not None and [c.strip().lower() for c in lines[0].split(",")] != list(header):
        return None
    rows = lines[1:]
    if {line.count(",") for line in rows} - {columns - 1}:
        return None
    fields = ",".join(rows).split(",")
    days = fields[::columns]
    del fields[::columns]
    try:
        dates = list(map(date.fromisoformat, days))
        table = np.fromiter(map(float, fields), float, len(fields))
    except ValueError:
        return None
    if not (np.isfinite(table).all() and all(map(operator.lt, dates, dates[1:]))):
        return None
    return dates, table.reshape(len(dates), columns - 1)


def _read_rows(lines: list[str], offset: int, path: Path, parse, columns: int,
               header) -> tuple[list[date], np.ndarray]:
    """:func:`read_dated_csv` one csv row at a time; ``lines[0]`` is line ``offset + 1``."""
    reader = csv.reader(lines)
    try:
        rows = list(reader)
    except csv.Error as err:
        raise ParseError(f"malformed CSV: {err}", path=path, line=offset + reader.line_num) from None
    if not rows:
        raise ParseError("missing header row", path=path, line=offset + 1)
    if header is not None and [c.strip().lower() for c in rows[0]] != list(header):
        raise ParseError(f"expected header {','.join(header)!r}", path=path, line=offset + 1)
    parsed: dict[date, object] = {}
    for i, row in enumerate(rows[1:], start=offset + 2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != columns:
            raise ParseError(f"expected {columns} columns, got {len(row)}", path=path, line=i)
        try:
            day = date.fromisoformat(row[0].strip())
        except ValueError:
            raise ParseError(f"bad date {row[0]!r}", path=path, line=i) from None
        value = parse(day, row[1:], path, i)
        if day in parsed:
            raise ParseError(f"duplicate date {day.isoformat()}", path=path, line=i)
        parsed[day] = value
    dates = sorted(parsed)
    return dates, np.array([parsed[d] for d in dates], dtype=float).reshape(len(dates), columns - 1)


def join_fields(items) -> str:
    """``items`` as one CSV line; only an item holding a comma, a quote or a line break is quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(items)
    return buf.getvalue()


def split_fields(text: str) -> list[str]:
    """The items of a line written by :func:`join_fields`."""
    return next(csv.reader([text]), [])


def write_csv(path, header, rows) -> None:
    """Write ``header`` then ``rows`` as UTF-8 CSV, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_lines(path, lines) -> None:
    """Write CSV lines whose fields need no quoting, byte for byte as :func:`write_csv` would."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([*lines, ""]))


def _parse_value(day: date, fields: list[str], path: Path, line: int) -> float:
    try:
        v = float(fields[0])
    except ValueError:
        raise ParseError(f"bad value {fields[0]!r}", path=path, line=line) from None
    if not math.isfinite(v):
        raise NonFiniteValue(f"{path}:{line}: non-finite value")
    return v


def load_series_csv(path, label: str | None = None, skip_preamble: bool = False) -> DatedSeries:
    """Read a two-column ``date,value`` CSV with one header row.

    ``skip_preamble`` tolerates a leading export preamble (a category line
    followed by a blank line) when one is detected.
    """
    path = Path(path)
    dates, table = read_dated_csv(path, _parse_value, 2, skip_preamble=skip_preamble)
    return DatedSeries(dates=dates, values=table[:, 0],
                       label=label if label is not None else path.stem)


def align(series_a: DatedSeries, series_b: DatedSeries) -> tuple[DatedSeries, DatedSeries]:
    """Inner join on dates; both outputs share one strictly increasing date vector."""
    if series_a.dates == series_b.dates:
        return series_a, series_b
    common = sorted(set(series_a.dates) & set(series_b.dates))
    if not common:
        raise EmptyIntersection(
            f"series {series_a.label!r} and {series_b.label!r} share no dates"
        )
    idx_a = {d: i for i, d in enumerate(series_a.dates)}
    idx_b = {d: i for i, d in enumerate(series_b.dates)}
    sel_a = np.array([idx_a[d] for d in common])
    sel_b = np.array([idx_b[d] for d in common])
    out_a = replace(series_a, dates=tuple(common), values=series_a.values[sel_a])
    out_b = replace(series_b, dates=tuple(common), values=series_b.values[sel_b])
    return out_a, out_b
