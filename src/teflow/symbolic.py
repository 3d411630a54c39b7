"""Quantile symbolization: map continuous series onto a small discrete alphabet."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateSeriesWarning, NonFiniteValue, SeriesTooShort
from .series import DatedSeries


def validate_cuts(quantile_cuts: Sequence[float]) -> tuple[float, ...]:
    """Quantile cuts must be strictly ascending and lie in the open interval (0, 1)."""
    cuts = tuple(float(c) for c in quantile_cuts)
    if not cuts:
        raise ConfigError("quantile_cuts must be nonempty")
    if any(not (0.0 < c < 1.0) for c in cuts):
        raise ConfigError(f"quantile_cuts must lie in (0, 1): {cuts}")
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ConfigError(f"quantile_cuts must be strictly ascending: {cuts}")
    return cuts


@dataclass(frozen=True)
class SymbolSeries:
    """A discretized series over the alphabet {0..m-1} plus the bin edges that produced it.

    Symbols are stored in the narrowest unsigned type that holds the
    alphabet: one byte per symbol for alphabets of up to 256 symbols.
    ``degenerate`` marks series with no variation, collapsed to the single
    symbol 0 (alphabet size 1); downstream transfer entropy of such a series
    is exactly zero.
    """

    symbols: np.ndarray
    alphabet_size: int
    bin_edges: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        syms = np.asarray(self.symbols, dtype=np.int64)
        edges = np.asarray(self.bin_edges, dtype=float)
        object.__setattr__(self, "bin_edges", edges)
        if self.alphabet_size < 1:
            raise ConfigError("alphabet_size must be >= 1")
        if edges.shape[0] != self.alphabet_size - 1:
            raise ConfigError("bin_edges must have alphabet_size - 1 entries")
        if edges.shape[0] > 1 and not np.all(np.diff(edges) > 0):
            raise ConfigError("bin_edges must be strictly ascending")
        if syms.size and (syms.min() < 0 or syms.max() >= self.alphabet_size):
            raise ConfigError("symbols must lie in [0, alphabet_size)")
        object.__setattr__(self, "symbols", syms.astype(np.min_scalar_type(self.alphabet_size - 1)))

    def __len__(self) -> int:
        return len(self.symbols)

    @classmethod
    def from_symbols(cls, symbols, alphabet_size: int | None = None) -> "SymbolSeries":
        """Wrap an already-discrete integer sequence.

        Edges are fabricated at integer midpoints so the edge invariant holds.
        """
        syms = np.asarray(symbols, dtype=np.int64)
        m = int(alphabet_size) if alphabet_size is not None else int(syms.max()) + 1 if syms.size else 1
        edges = np.arange(m - 1, dtype=float) + 0.5
        return cls(symbols=syms, alphabet_size=m, bin_edges=edges, degenerate=(m == 1))


def symbolize(series: DatedSeries | Sequence[float] | np.ndarray,
              quantile_cuts: Sequence[float]) -> SymbolSeries:
    """Discretize a series at its empirical quantiles.

    Bin edges are the linear-interpolation quantiles of the values at
    ``quantile_cuts``; each value's symbol is the number of edges strictly
    below it, so ties land in the lower bin. A constant series collapses to
    a single-symbol alphabet and is flagged degenerate rather than rejected.
    """
    cuts = validate_cuts(quantile_cuts)
    values = series.values if isinstance(series, DatedSeries) else np.asarray(series, dtype=float)
    if values.ndim != 1:
        raise ConfigError("symbolize expects a one-dimensional series")
    if values.shape[0] < 2:
        raise SeriesTooShort("symbolize requires at least 2 observations")
    if not np.isfinite(values).all():
        raise NonFiniteValue("symbolize rejects NaN/inf input; clean the series first")

    if values.min() == values.max():
        warnings.warn("series has no variation; returning single-symbol series",
                      DegenerateSeriesWarning, stacklevel=2)
        return SymbolSeries(symbols=np.zeros(values.shape[0], dtype=int), alphabet_size=1,
                            bin_edges=np.empty(0), degenerate=True)

    edges = np.quantile(values, cuts)
    # heavy ties can collapse neighbouring quantiles; keep edges strictly ascending
    edges = np.unique(edges)
    symbols = np.searchsorted(edges, values, side="left")
    return SymbolSeries(symbols=symbols, alphabet_size=edges.shape[0] + 1, bin_edges=edges)
