"""Search-attention index construction from per-keyword trend series.

Consumes already-continuous daily `date,value` files (values 0..100, one per
keyword) and averages them into a composite index. Multi-request stitching of
provider exports is out of scope; inputs must already be continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import InvariantViolation, NoConstituentData, SeriesTooShort, ValueOutOfRange
from .series import DatedSeries, load_series_csv, read_lines

PRESET_NAMES = ("full", "subset1", "subset2", "subset3")


@dataclass(frozen=True)
class KeywordSet:
    """A named, duplicate-free list of search terms."""

    name: str
    keywords: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "keywords", tuple(self.keywords))
        if not self.keywords:
            raise InvariantViolation(f"keyword set {self.name!r} is empty")
        folded = [k.strip().casefold() for k in self.keywords]
        if len(set(folded)) != len(folded):
            raise InvariantViolation(f"keyword set {self.name!r} has duplicates after case-folding")

    def __len__(self) -> int:
        return len(self.keywords)


def preset(name: str) -> KeywordSet:
    """Built-in keyword sets shipped with the package (one term per line)."""
    if name not in PRESET_NAMES:
        raise ValueOutOfRange(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    text = resources.files("teflow.presets").joinpath(f"{name}.txt").read_text()
    terms = [line.strip() for line in text.splitlines() if line.strip()]
    return KeywordSet(name=name, keywords=tuple(terms))


def load_keyword_file(path) -> KeywordSet:
    """User-supplied keyword list, one term per line; blank lines and # comments skipped."""
    path = Path(path)
    return KeywordSet(name=path.stem, keywords=tuple(text for _, text in read_lines(path)))


def load_trend_csv(path, keyword: str) -> DatedSeries:
    """Read one keyword's daily series; values must lie in [0, 100].

    A leading provider-export preamble (category line plus blank line) is
    skipped when one is detected.
    """
    series = load_series_csv(path, label=keyword, skip_preamble=True)
    if series.values.size and (series.values.min() < 0 or series.values.max() > 100):
        bad = float(series.values[(series.values < 0) | (series.values > 100)][0])
        raise ValueOutOfRange(f"{path}: trend value {bad} outside [0, 100] for {keyword!r}")
    return series


@dataclass(frozen=True)
class CompositeIndex:
    """Arithmetic-mean attention index with per-day constituent coverage."""

    levels: DatedSeries
    constituents: KeywordSet
    coverage: tuple[int, ...]

    def __post_init__(self):
        if len(self.coverage) != len(self.levels):
            raise InvariantViolation("coverage must align with index dates")
        if any(c < 1 or c > len(self.constituents) for c in self.coverage):
            raise InvariantViolation("coverage must lie in [1, constituent count]")


def build_composite(series_by_keyword: dict[str, DatedSeries], keyword_set: KeywordSet) -> CompositeIndex:
    """Per-date arithmetic mean over the set's keywords that have a value that day.

    Dates covered by no keyword are omitted. Contributions are summed in
    keyword-name order so the result is independent of input ordering.
    """
    members = [k for k in sorted(keyword_set.keywords, key=str.casefold)
               if k in series_by_keyword]
    if not members:
        raise NoConstituentData(f"no data for any keyword of set {keyword_set.name!r}")
    per_date: dict = {}
    for kw in members:
        s = series_by_keyword[kw]
        for d, v in zip(s.dates, s.values):
            if math.isnan(v):
                continue
            per_date.setdefault(d, []).append(float(v))
    if not per_date:
        raise NoConstituentData(f"all keyword series of set {keyword_set.name!r} are empty")
    dates = sorted(per_date)
    values = np.array([math.fsum(per_date[d]) / len(per_date[d]) for d in dates])
    coverage = tuple(len(per_date[d]) for d in dates)
    levels = DatedSeries(dates=tuple(dates), values=values, label=keyword_set.name)
    return CompositeIndex(levels=levels, constituents=keyword_set, coverage=coverage)


def first_difference(series: DatedSeries) -> DatedSeries:
    """d_t = v_t - v_{t-1} over consecutive observations, dated at t."""
    if len(series) < 2:
        raise SeriesTooShort("first difference needs at least 2 observations")
    values = np.diff(series.values)
    label = f"{series.label}_diff" if series.label else "diff"
    return DatedSeries(dates=series.dates[1:], values=values, label=label)
