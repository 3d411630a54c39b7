"""Daily OHLC ingestion, log returns, and range-based volatility estimators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import InvariantViolation, NonPositivePrice, ParseError, SeriesTooShort
from .series import DatedSeries, format_value, read_dated_csv, write_csv

_LN2 = math.log(2.0)
_PARKINSON_SCALE = 1.0 / (4.0 * _LN2)
_GK_CLOSE_WEIGHT = 2.0 * _LN2 - 1.0

OHLC_HEADER = ["date", "open", "high", "low", "close"]


@dataclass(frozen=True)
class OhlcBar:
    """One daily bar; prices are validated on construction."""

    day: date
    open: float
    high: float
    low: float
    close: float

    def __post_init__(self):
        if min(self.open, self.high, self.low, self.close) <= 0:
            raise NonPositivePrice(f"{self.day.isoformat()}: prices must be > 0")
        if self.high < max(self.open, self.close) or self.low > min(self.open, self.close):
            raise InvariantViolation(
                f"{self.day.isoformat()}: high/low must bracket open and close"
            )


@dataclass(frozen=True)
class OhlcSeries:
    """Daily bars with strictly increasing dates."""

    bars: tuple[OhlcBar, ...]

    def __post_init__(self):
        object.__setattr__(self, "bars", tuple(self.bars))
        for prev, cur in zip(self.bars, self.bars[1:]):
            if cur.day <= prev.day:
                raise InvariantViolation(f"bar dates not strictly increasing at {cur.day.isoformat()}")

    def __len__(self) -> int:
        return len(self.bars)

    @property
    def dates(self) -> tuple[date, ...]:
        return tuple(b.day for b in self.bars)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(b, name) for b in self.bars], dtype=float)

    def to_csv(self, path) -> None:
        write_csv(path, OHLC_HEADER,
                  ([b.day.isoformat()] + [format_value(v) for v in (b.open, b.high, b.low, b.close)]
                   for b in self.bars))


def _parse_bar(day: date, fields: list[str], path: Path, line: int) -> OhlcBar:
    try:
        o, h, lo, c = (float(x) for x in fields)
    except ValueError:
        raise ParseError("bad price field", path=path, line=line) from None
    if not all(math.isfinite(v) for v in (o, h, lo, c)):
        raise ParseError("non-finite price", path=path, line=line)
    return OhlcBar(day=day, open=o, high=h, low=lo, close=c)


def load_ohlc_csv(path) -> OhlcSeries:
    """Parse, sort and validate a `date,open,high,low,close` CSV."""
    rows = read_dated_csv(path, _parse_bar, len(OHLC_HEADER), header=OHLC_HEADER)
    return OhlcSeries(bars=tuple(bar for _, bar in rows))


def log_returns(series: OhlcSeries) -> DatedSeries:
    """r_t = ln(close_t / close_{t-1}), dated at t; length shrinks by one."""
    if len(series) < 2:
        raise SeriesTooShort("log returns need at least 2 bars")
    closes = series.column("close")
    values = np.log(closes[1:] / closes[:-1])
    return DatedSeries(dates=series.dates[1:], values=values, label="return")


def parkinson_values(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Daily Parkinson estimator: sqrt( (ln(high/low))^2 / (4 ln 2) )."""
    return np.sqrt(_PARKINSON_SCALE * np.log(high / low) ** 2)


def garman_klass_values(open_: np.ndarray, high: np.ndarray,
                        low: np.ndarray, close: np.ndarray) -> np.ndarray:
    """Daily Garman-Klass estimator; a negative radicand (data error) yields NaN."""
    radicand = 0.5 * np.log(high / low) ** 2 - _GK_CLOSE_WEIGHT * np.log(close / open_) ** 2
    with np.errstate(invalid="ignore"):
        return np.where(radicand < 0, np.nan, np.sqrt(np.abs(radicand)))


def parkinson_volatility(series: OhlcSeries) -> DatedSeries:
    """Per-day high-low range volatility; same dates as the input bars."""
    values = parkinson_values(series.column("high"), series.column("low"))
    return DatedSeries(dates=series.dates, values=values, label="volatility")


def garman_klass_volatility(series: OhlcSeries) -> DatedSeries:
    """Per-day range+body volatility; impossible bars are flagged missing, not dropped."""
    values = garman_klass_values(series.column("open"), series.column("high"),
                                 series.column("low"), series.column("close"))
    return DatedSeries(dates=series.dates, values=values, label="volatility_gk", allow_missing=True)
