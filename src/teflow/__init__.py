"""Directional information flow between time series.

Plug-in Shannon transfer entropy with shuffle-corrected effective transfer
entropy and Markov-bootstrap inference, plus the data layer for market
(returns, range volatilities) and search-attention (composite keyword index)
series, lag sweeps, and non-overlapping window analyses.

The public names below are imported from their modules on first use, so
``import teflow.cli`` loads only what the command it runs needs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_PUBLIC = {
    "errors": ("TeflowError",),
    "market": ("OhlcBar", "OhlcSeries", "garman_klass_volatility", "load_ohlc_csv",
               "log_returns", "parkinson_volatility"),
    "pipeline": ("AnalysisReport", "AnalysisSpec", "WindowResult", "WindowScheme",
                 "apply_transform", "lag_sweep", "run_analysis", "run_pair", "window_analysis"),
    "series": ("DatedSeries", "align", "load_series_csv"),
    "symbolic": ("SymbolSeries", "symbolize"),
    "synth": ("ProcessSpec", "binary_entropy", "generate", "population_te"),
    "te": ("JointCounts", "NullCache", "TeConfig", "TeEstimate", "bootstrap_inference",
           "count_transitions", "effective_transfer_entropy", "estimate",
           "shuffle_surrogate_te", "transfer_entropy"),
    "trends": ("CompositeIndex", "KeywordSet", "build_composite", "first_difference",
               "load_keyword_file", "load_trend_csv", "preset"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _PUBLIC:  # a submodule: ``import teflow`` then ``teflow.te`` works
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_PUBLIC))
