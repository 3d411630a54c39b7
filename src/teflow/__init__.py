"""Directional information flow between time series.

Plug-in Shannon transfer entropy with shuffle-corrected effective transfer
entropy and Markov-bootstrap inference, plus the data layer for market
(returns, range volatilities) and search-attention (composite keyword index)
series, lag sweeps, and non-overlapping window analyses.
"""

from .errors import TeflowError
from .market import (
    OhlcBar,
    OhlcSeries,
    garman_klass_volatility,
    load_ohlc_csv,
    log_returns,
    parkinson_volatility,
)
from .pipeline import (
    AnalysisReport,
    AnalysisSpec,
    WindowResult,
    WindowScheme,
    apply_transform,
    lag_sweep,
    run_analysis,
    run_pair,
    window_analysis,
)
from .series import DatedSeries, align, load_series_csv
from .symbolic import SymbolSeries, symbolize
from .synth import ProcessSpec, binary_entropy, generate, population_te
from .te import (
    JointCounts,
    NullCache,
    TeConfig,
    TeEstimate,
    bootstrap_inference,
    count_transitions,
    effective_transfer_entropy,
    estimate,
    shuffle_surrogate_te,
    transfer_entropy,
)
from .trends import (
    CompositeIndex,
    KeywordSet,
    build_composite,
    first_difference,
    load_keyword_file,
    load_trend_csv,
    preset,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "AnalysisSpec",
    "CompositeIndex",
    "DatedSeries",
    "JointCounts",
    "KeywordSet",
    "NullCache",
    "OhlcBar",
    "OhlcSeries",
    "ProcessSpec",
    "SymbolSeries",
    "TeConfig",
    "TeEstimate",
    "TeflowError",
    "WindowResult",
    "WindowScheme",
    "align",
    "apply_transform",
    "binary_entropy",
    "bootstrap_inference",
    "build_composite",
    "count_transitions",
    "effective_transfer_entropy",
    "estimate",
    "first_difference",
    "garman_klass_volatility",
    "generate",
    "lag_sweep",
    "load_keyword_file",
    "load_ohlc_csv",
    "load_series_csv",
    "load_trend_csv",
    "log_returns",
    "parkinson_volatility",
    "population_te",
    "preset",
    "run_analysis",
    "run_pair",
    "shuffle_surrogate_te",
    "symbolize",
    "transfer_entropy",
    "window_analysis",
]
