"""Direction-pair analyses over aligned dated series: single runs, lag sweeps,
and non-overlapping window analyses, assembled into serializable reports."""

from __future__ import annotations

import json
import logging
import warnings
from dataclasses import asdict, dataclass, field, replace
from datetime import date
from typing import Mapping

from .choices import LAG_MODES, TRANSFORMS
from .errors import ConfigError, InvariantViolation, LagTooLargeForSample, SeriesTooShort, WindowTooSmall
from .series import DatedSeries, align, format_value, write_csv
from .symbolic import symbolize
from .te import _DOMAIN_DIRECTION, NullCache, TeConfig, TeEstimate, derive_seed, estimate
from .trends import first_difference

log = logging.getLogger(__name__)


REPORT_COLUMNS = ["direction", "lag", "window_start", "window_end", "te", "ete",
                  "std_err", "p_value", "n_effective", "config_digest"]


def apply_transform(series: DatedSeries, transform: str) -> DatedSeries:
    """Per-series preprocessing: pass through levels, or take first differences."""
    if transform == "levels":
        return series
    if transform == "diff":
        return first_difference(series)
    raise ConfigError(f"unknown transform {transform!r}; one of {TRANSFORMS}")


def _label(series: DatedSeries, fallback: str) -> str:
    return series.label or fallback


def _direction_config(config: TeConfig, index: int) -> TeConfig:
    # forward and backward get independent stream families from the master seed
    return replace(config, seed=derive_seed(config.seed, _DOMAIN_DIRECTION, index))


def run_pair(source: DatedSeries, target: DatedSeries, config: TeConfig, *,
             null_cache: NullCache | None = None) -> tuple[TeEstimate, TeEstimate]:
    """Both directional estimates for one aligned pair.

    Series are symbolized individually (after any transforms, which the caller
    applies) with the config's quantile cuts. Returns (source->target,
    target->source). A ``null_cache`` lets later calls of the same run reuse
    the shuffled sources and the bootstrap nulls (see :class:`NullCache`).
    """
    if source.dates != target.dates:
        raise InvariantViolation("run_pair requires date-aligned inputs; call align() first")
    if len(source) <= max(config.k, config.l) + 1:
        raise SeriesTooShort(
            f"need more than max(k, l) + 1 = {max(config.k, config.l) + 1} aligned observations"
        )
    src_name = _label(source, "source")
    tgt_name = _label(target, "target")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate windows are legitimate; TE is 0 there
        s_sym = symbolize(source, config.quantile_cuts)
        t_sym = symbolize(target, config.quantile_cuts)
    forward = estimate(t_sym, s_sym, _direction_config(config, 0),
                       direction=f"{src_name}->{tgt_name}", null_cache=null_cache)
    backward = estimate(s_sym, t_sym, _direction_config(config, 1),
                        direction=f"{tgt_name}->{src_name}", null_cache=null_cache)
    return forward, backward


def _coverage_check(n_obs: int, config: TeConfig, lag: int) -> None:
    states = config.alphabet_size ** (2 * lag + 1)
    n_eff = n_obs - lag
    if n_eff / states < 5:
        warnings.warn(
            f"lag {lag}: on average fewer than 5 observed tuples per possible state "
            f"({n_eff} tuples over {states} states); estimates will be unstable",
            LagTooLargeForSample, stacklevel=3)


def lag_sweep(source: DatedSeries, target: DatedSeries, config: TeConfig,
              lag_range: tuple[int, int], mode: str = "history", *,
              null_cache: NullCache | None = None) -> dict[str, list[tuple[int, TeEstimate]]]:
    """Estimates per lag for both directions.

    The default interpretation varies both history lengths jointly
    (k = l = lag). ``mode="shift"`` instead keeps k = l = 1 and shifts the
    source back by lag-1 days, as a sensitivity alternative; lag 1 is
    identical in both modes. With a ``null_cache``, every history-mode lag
    shares one shuffle set per direction, and with a pinned ``block_order``
    one null set per direction too.
    """
    lo, hi = int(lag_range[0]), int(lag_range[1])
    if lo < 1 or hi < lo:
        raise ConfigError(f"lag range must satisfy 1 <= lo <= hi, got ({lo}, {hi})")
    if mode not in LAG_MODES:
        raise ConfigError(f"unknown lag mode {mode!r}; one of {LAG_MODES}")
    curves: dict[str, list[tuple[int, TeEstimate]]] = {}
    for lag in range(lo, hi + 1):
        if mode == "history":
            cfg = replace(config, k=lag, l=lag)
            _coverage_check(len(source), cfg, lag)
            fwd, bwd = run_pair(source, target, cfg, null_cache=null_cache)
        else:
            shift = lag - 1
            if len(source) - shift <= max(config.k, config.l) + 1:
                raise SeriesTooShort(f"lag {lag} leaves too few overlapping observations")
            n = len(source)
            dates = target.dates[shift:]
            src = replace(source, dates=dates, values=source.values[: n - shift])
            tgt = target.window(shift, n)
            fwd, bwd = run_pair(src, tgt, config, null_cache=null_cache)
        curves.setdefault(fwd.direction, []).append((lag, fwd))
        curves.setdefault(bwd.direction, []).append((lag, bwd))
    return curves


@dataclass(frozen=True)
class WindowScheme:
    """Either a fixed number of windows or a fixed window length, not both."""

    count: int | None = None
    size: int | None = None

    def __post_init__(self):
        if (self.count is None) == (self.size is None):
            raise ConfigError("specify exactly one of count or size")
        if self.count is not None and self.count < 1:
            raise ConfigError("window count must be >= 1")
        if self.size is not None and self.size < 2:
            raise ConfigError("window size must be >= 2")


@dataclass(frozen=True)
class WindowResult:
    index: int
    start: date
    end: date
    forward: TeEstimate
    backward: TeEstimate


def window_analysis(source: DatedSeries, target: DatedSeries, config: TeConfig,
                    scheme: WindowScheme) -> tuple[list[WindowResult], int]:
    """Full run_pair per consecutive, non-overlapping, equal-sized window.

    Windows partition a prefix of the aligned sample; remainder observations
    are dropped from the end (the count is logged and returned). Each window
    is symbolized with its own local quantiles.
    """
    if source.dates != target.dates:
        raise InvariantViolation("window_analysis requires date-aligned inputs")
    n = len(source)
    min_viable = max(config.k, config.l) + 11
    if scheme.count is not None:
        count = scheme.count
        size = n // count
    else:
        size = scheme.size
        count = n // size
    if size < min_viable or count < 1:
        raise WindowTooSmall(
            f"{count} windows of {size} observations; windows must hold at least {min_viable}"
        )
    dropped = n - count * size
    if dropped:
        log.info("window analysis drops %d trailing observations (%d windows of %d)",
                 dropped, count, size)
    results = []
    for w in range(count):
        lo, hi = w * size, (w + 1) * size
        fwd, bwd = run_pair(source.window(lo, hi), target.window(lo, hi), config)
        results.append(WindowResult(index=w, start=source.dates[lo],
                                    end=source.dates[hi - 1], forward=fwd, backward=bwd))
    return results, dropped


@dataclass(frozen=True)
class AnalysisSpec:
    """Declarative description of one experiment grid.

    ``pairs`` lists (source label, target label); labels key into the series
    mapping handed to :func:`run_analysis`, and each pair is reported in both
    directions. ``transforms`` maps a label to "levels" or "diff". A
    ``lag_range`` adds a lag sweep.
    """

    pairs: tuple[tuple[str, str], ...]
    te_config: TeConfig
    lag_range: tuple[int, int] | None = None
    window_scheme: WindowScheme | None = None
    transforms: Mapping[str, str] = field(default_factory=dict)
    lag_mode: str = "history"
    include_base_rows: bool = True

    def __post_init__(self):
        if not self.pairs:
            raise ConfigError("at least one direction pair is required")
        if self.lag_range is not None and not 1 <= self.lag_range[0] <= self.lag_range[1]:
            raise ConfigError("lag range lower bound must be >= 1 and <= upper bound")
        for label, t in self.transforms.items():
            if t not in TRANSFORMS:
                raise ConfigError(f"unknown transform {t!r} for {label!r}")


@dataclass
class AnalysisReport:
    """Direction rows plus optional lag curves and window results, ready to serialize."""

    rows: list[TeEstimate] = field(default_factory=list)
    lag_curves: dict[str, list[tuple[int, TeEstimate]]] = field(default_factory=dict)
    window_results: list[WindowResult] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def _flat(self):
        """(estimate, lag, window_start, window_end) for every row, in stable order."""
        for est in self.rows:
            yield est, _lag_of(est.config), None, None
        for direction in self.lag_curves:
            for lag, est in self.lag_curves[direction]:
                yield est, lag, None, None
        for wr in self.window_results:
            yield wr.forward, _lag_of(wr.forward.config), wr.start, wr.end
            yield wr.backward, _lag_of(wr.backward.config), wr.start, wr.end

    def write_csv(self, path) -> None:
        write_csv(path, REPORT_COLUMNS, ([
            est.direction,
            lag,
            start.isoformat() if start else "",
            end.isoformat() if end else "",
            format_value(est.te),
            format_value(est.ete),
            format_value(est.std_err) if est.std_err is not None else "",
            format_value(est.p_value) if est.p_value is not None else "",
            est.n_effective,
            est.config.digest(),
        ] for est, lag, start, end in self._flat()))

    def to_dict(self) -> dict:
        def enc(est: TeEstimate, lag) -> dict:
            d = asdict(est)
            d["lag"] = lag
            d["config"].update(block_order=est.config.effective_block_order,
                               digest=est.config.digest())
            return d

        return {
            "rows": [enc(e, _lag_of(e.config)) for e in self.rows],
            "lag_curves": {
                direction: [enc(e, lag) for lag, e in curve]
                for direction, curve in self.lag_curves.items()
            },
            "window_results": [
                {
                    "index": wr.index,
                    "window_start": wr.start.isoformat(),
                    "window_end": wr.end.isoformat(),
                    "forward": enc(wr.forward, _lag_of(wr.forward.config)),
                    "backward": enc(wr.backward, _lag_of(wr.backward.config)),
                }
                for wr in self.window_results
            ],
            "meta": self.meta,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _lag_of(config: TeConfig) -> int | str:
    return config.k if config.k == config.l else f"{config.k}:{config.l}"


def run_analysis(spec: AnalysisSpec, series_by_label: Mapping[str, DatedSeries]) -> AnalysisReport:
    """Execute one AnalysisSpec over named series and collect every result.

    Transforms are applied per series first, then each pair is inner-joined on
    dates. Reports are reproducible bit for bit from (inputs, spec, seed).
    One :class:`NullCache` serves the base rows and lag sweeps of the whole
    run, so each of their distinct shuffle sets and bootstrap nulls is drawn
    once. Windows run without it: each symbolizes its own slice, so no two
    share a set.
    """
    report = AnalysisReport()
    null_cache = NullCache()
    report.meta["seed"] = spec.te_config.seed
    for src_label, tgt_label in spec.pairs:
        try:
            src = series_by_label[src_label]
            tgt = series_by_label[tgt_label]
        except KeyError as missing:
            raise ConfigError(f"no series labeled {missing.args[0]!r}") from None
        src = apply_transform(src, spec.transforms.get(src_label, "levels"))
        tgt = apply_transform(tgt, spec.transforms.get(tgt_label, "levels"))
        src, tgt = align(src.drop_missing(), tgt.drop_missing())
        if spec.include_base_rows:
            report.rows.extend(run_pair(src, tgt, spec.te_config, null_cache=null_cache))
        if spec.lag_range is not None:
            curves = lag_sweep(src, tgt, spec.te_config, spec.lag_range, mode=spec.lag_mode,
                               null_cache=null_cache)
            for direction, curve in curves.items():
                report.lag_curves.setdefault(direction, []).extend(curve)
        if spec.window_scheme is not None:
            windows, dropped = window_analysis(src, tgt, spec.te_config, spec.window_scheme)
            report.window_results.extend(windows)
            report.meta[f"dropped_observations[{src.label}->{tgt.label}]"] = dropped
    return report
