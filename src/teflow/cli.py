"""Command-line front end: ingestion, index construction, and reproducible analyses.

Exit codes: 0 success, 2 input/validation error, 3 statistical-procedure failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from datetime import date, timedelta
from pathlib import Path
from typing import TYPE_CHECKING

from .choices import KINDS, LAG_MODES, PRESET_NAMES, TRANSFORMS
from .errors import ConfigError, InvalidSpec, ParseError, TeflowError, UsageError
from .series import (DatedSeries, format_value, join_fields, load_series_csv, read_lines, read_text,
                     split_fields, write_csv, write_lines)

if TYPE_CHECKING:
    from .pipeline import AnalysisReport

log = logging.getLogger(__name__)

SIGNIFICANCE = 0.05


def _parse_quantiles(text: str) -> tuple[float, ...]:
    try:
        cuts = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad quantile list {text!r}") from None
    return cuts


def _add_estimator_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("estimator")
    g.add_argument("--k", type=int, default=1, help="target history length")
    g.add_argument("--l", type=int, default=1, help="source history length")
    g.add_argument("--quantiles", type=_parse_quantiles, default=(0.05, 0.95),
                   metavar="Q1,Q2,...", help="symbolization quantile cuts (default 0.05,0.95)")
    g.add_argument("--base", type=float, default=2.0, help="logarithm base (default 2, bits)")
    g.add_argument("--shuffles", type=int, default=100, help="surrogate shuffle count")
    g.add_argument("--boot", type=int, default=300,
                   help="bootstrap replications for std.err/p-value (0 disables inference)")
    g.add_argument("--block-order", type=int, default=None,
                   help="Markov order of the bootstrap source regeneration (default: l)")
    g.add_argument("--seed", type=int, default=0, help="master seed")
    g.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p.add_argument("--config", type=Path, default=None,
                   help="key=value file supplying flag defaults")
    p.add_argument("--plot-data", action="store_true",
                   help="also write plot-ready CSVs where applicable")
    p.add_argument("--json-errors", action="store_true",
                   help="emit errors as machine-readable JSON on stderr")


def _write_run_config(args) -> None:
    """Audit trail next to the outputs: a --config file that replays the run, unset flags left out."""
    lines = [f"command = {args.command}"]
    for key in sorted(vars(args).keys() - {"func", "json_errors", "config", "command"}):
        value = getattr(args, key)
        if value is None or value is False or value == []:
            continue
        if isinstance(value, (list, tuple)):
            value = join_fields(str(v) for v in value)
        lines.append(f"{key} = {value}")
    (args.out / f"{args.command}_config.txt").write_text("\n".join(lines) + "\n")


def read_config_file(path: Path) -> dict[str, str]:
    """Plain key = value configuration; blank lines and lines starting with # are skipped."""
    values: dict[str, str] = {}
    for i, line in read_lines(path):
        if "=" not in line:
            raise ParseError("expected key = value", path=path, line=i)
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _inject_config(argv: list[str], commands: dict[str, argparse.ArgumentParser]) -> list[str]:
    """Expand --config FILE into the flags it sets that argv does not give itself.

    A ``command`` key must name the subcommand. Repeatable flags take comma
    lists, quoted CSV-style. A flag on the command line also drops the file's
    values for the flags it excludes.
    """
    if not argv or argv[0] not in commands:
        return argv  # argparse reports what is wrong with such a command line
    find = _Parser(prog=f"teflow {argv[0]}", add_help=False)
    find.add_argument("--config", type=Path)
    path = find.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    values = read_config_file(path)
    recorded = values.pop("command", argv[0])
    if recorded != argv[0]:
        raise ConfigError(f"{path} is a record of the {recorded!r} command, not {argv[0]!r}")
    parser = commands[argv[0]]
    given = {arg.split("=", 1)[0] for arg in argv[1:]}
    if "--target" in given:
        given.add("--target-label")  # labels pair with targets by position
    # argparse has no public accessor for these groups; if the private names
    # change, test_explicit_flag_displaces_its_exclusive_group fails
    for group in parser._mutually_exclusive_groups:
        flags = {opt for action in group._group_actions for opt in action.option_strings}
        if flags & given:
            given |= flags
    injected: list[str] = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if flag in given:
            continue
        default = parser.get_default(key)
        if isinstance(default, bool) and value.lower() in ("true", "false"):
            injected += [flag] * (value.lower() == "true")
        else:
            for part in split_fields(value) if isinstance(default, list) else [value]:
                injected += [flag, part]
    # keep the subcommand first, then config-derived flags, then explicit flags
    return argv[:1] + injected + argv[1:]


# ---------------------------------------------------------------------------
# subcommands: each imports the analysis modules it uses, so that a data
# command does not load the estimator


def cmd_ingest(args) -> None:
    from .market import load_ohlc_csv
    from .trends import load_trend_csv

    trend_files = sorted(args.trends_dir.glob("*.csv")) if args.trends_dir else []
    trend_files += args.trend
    # validate every input before writing anything
    ohlc = load_ohlc_csv(args.ohlc) if args.ohlc else None
    trends = [(f, load_trend_csv(f, keyword=f.stem)) for f in trend_files]
    if ohlc is None and not trends:
        raise ParseError("nothing to ingest; pass --ohlc and/or --trends-dir/--trend")
    if ohlc is not None:
        dest = args.out / (args.ohlc.stem + ".csv")
        ohlc.to_csv(dest)
        print(f"ohlc: {len(ohlc)} bars -> {dest}")
    for f, series in trends:
        dest = args.out / (f.stem + ".csv")
        series.to_csv(dest)
        print(f"trend {f.stem!r}: {len(series)} rows -> {dest}")


def cmd_index(args) -> None:
    from .trends import build_composite, first_difference, load_keyword_file, load_trend_csv, preset

    kw_set = load_keyword_file(args.keywords) if args.set is None else preset(args.set)
    series_by_keyword = {}
    for kw in kw_set.keywords:
        candidates = [args.input_dir / f"{kw}.csv", args.input_dir / f"{kw.casefold()}.csv"]
        found = next((c for c in candidates if c.exists()), None)
        if found is None:
            log.warning("no file for keyword %r; composite coverage reduced", kw)
            continue
        series_by_keyword[kw] = load_trend_csv(found, keyword=kw)
    composite = build_composite(series_by_keyword, kw_set)
    diff = first_difference(composite.levels) if args.diff else None
    levels_path = args.out / f"{kw_set.name}.csv"
    composite.levels.to_csv(levels_path)
    write_lines(args.out / f"{kw_set.name}_coverage.csv", ["date,coverage", *(
        f"{d.isoformat()},{c}" for d, c in zip(composite.levels.dates, composite.coverage))])
    print(f"index {kw_set.name!r}: {len(composite.levels)} days, "
          f"{len(series_by_keyword)}/{len(kw_set)} keywords -> {levels_path}")
    if diff is not None:
        diff_path = args.out / f"{kw_set.name}_diff.csv"
        diff.to_csv(diff_path)
        print(f"first differences -> {diff_path}")


def cmd_returns(args) -> None:
    from .market import load_ohlc_csv, log_returns

    series = load_ohlc_csv(args.ohlc)
    dest = args.out / "returns.csv"
    log_returns(series).to_csv(dest)
    print(f"log returns: {len(series) - 1} rows -> {dest}")


def cmd_vol(args) -> None:
    from .market import garman_klass_volatility, load_ohlc_csv, parkinson_volatility

    series = load_ohlc_csv(args.ohlc)
    if args.method == "parkinson":
        vol = parkinson_volatility(series)
        dest = args.out / "vol_parkinson.csv"
    else:
        vol = garman_klass_volatility(series).drop_missing()
        dest = args.out / "vol_gk.csv"
    vol.to_csv(dest)
    print(f"{args.method} volatility: {len(vol)} rows -> {dest}")


def _run_pair_command(args, **spec_fields) -> AnalysisReport:
    """Analyse --source against every --target; write ``<command>_report.csv`` and .json.

    ``spec_fields`` are the :class:`AnalysisSpec` fields the command sets
    beyond its pairs, estimator config and transforms.
    """
    from .pipeline import AnalysisSpec, run_analysis
    from .te import TeConfig

    if len(args.target_label) > len(args.target):
        raise ConfigError(f"{len(args.target_label)} --target-label values for "
                          f"{len(args.target)} --target files; give at most one label per target")
    source = load_series_csv(args.source, label=args.source_label)
    labels = args.target_label + [None] * len(args.target)
    targets = [load_series_csv(path, label=label) for path, label in zip(args.target, labels)]
    series = {source.label: source}
    transforms = {source.label: args.source_transform}
    for t in targets:
        if t.label in series:
            raise ConfigError(f"two input series are labelled {t.label!r}; "
                              "give each target a distinct --target-label")
        series[t.label] = t
        transforms[t.label] = args.target_transform
    config = TeConfig(k=args.k, l=args.l, quantile_cuts=args.quantiles,
                      log_base=args.base, n_shuffles=args.shuffles, n_bootstrap=args.boot,
                      block_order=args.block_order, seed=args.seed)
    spec = AnalysisSpec(pairs=tuple((source.label, t.label) for t in targets), te_config=config,
                        transforms=transforms, **spec_fields)
    report = run_analysis(spec, series)
    csv_path = args.out / f"{args.command}_report.csv"
    report.write_csv(csv_path)
    report.write_json(args.out / f"{args.command}_report.json")
    print(f"report -> {csv_path} and .json")
    return report


def _write_plot_csv(path: Path, header: list[str], rows) -> None:
    """One line per (leading fields, estimate): the fields, then ETE, p-value and significance."""
    write_csv(path, header + ["ete", "p_value", "significant"],
              ([*fields, format_value(est.ete),
                "" if est.p_value is None else format_value(est.p_value),
                "" if est.p_value is None else int(est.p_value < SIGNIFICANCE)]
               for fields, est in rows))
    print(f"plot data -> {path}")


def cmd_te(args) -> None:
    report = _run_pair_command(args)
    for est in report.rows:
        p = "n/a" if est.p_value is None else format_value(est.p_value)
        print(f"  {est.direction}: TE={est.te:.4f} ETE={est.ete:.4f} p={p}")


def cmd_lagsweep(args) -> None:
    report = _run_pair_command(args, lag_range=(args.min_lag, args.max_lag),
                               include_base_rows=False, lag_mode=args.mode)
    if args.plot_data:
        _write_plot_csv(args.out / "lagsweep_plot.csv", ["direction", "lag"],
                        (([direction, lag], est) for direction, curve in report.lag_curves.items()
                         for lag, est in curve))


def cmd_windows(args) -> None:
    from .pipeline import WindowScheme

    scheme = WindowScheme(count=args.count, size=args.size)
    report = _run_pair_command(args, window_scheme=scheme, include_base_rows=False)
    if args.plot_data:
        _write_plot_csv(args.out / "windows_plot.csv",
                        ["direction", "window_index", "window_start", "window_end"],
                        (([est.direction, wr.index, wr.start.isoformat(), wr.end.isoformat()], est)
                         for wr in report.window_results for est in (wr.forward, wr.backward)))


def cmd_synthgen(args) -> None:
    from .synth import ProcessSpec, generate

    tables = {}
    if args.tables:
        text = read_text(args.tables)
        try:
            raw = json.loads(text)
            tables = {"source_transitions": raw["source"], "target_transitions": raw["target"]}
        except (ValueError, KeyError, TypeError) as err:
            raise InvalidSpec(f"{args.tables}: expected a JSON object with \"source\" and "
                              f"\"target\" transition tables ({type(err).__name__}: {err})") from None
    spec = ProcessSpec(kind=args.kind, length=args.length, seed=args.seed,
                       delay=args.delay, noise=args.noise, phi=args.phi, **tables)
    src, tgt = generate(spec)
    start = date(2015, 1, 1)
    dates = tuple(start + timedelta(days=i) for i in range(args.length))
    DatedSeries(dates=dates, values=src, label="synth_source").to_csv(args.out / "synth_source.csv")
    DatedSeries(dates=dates, values=tgt, label="synth_target").to_csv(args.out / "synth_target.csv")
    print(f"{args.kind} pair of length {args.length} -> {args.out / 'synth_source.csv'}, "
          f"{args.out / 'synth_target.csv'}")


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as UsageError, so main() reports them like any other input error.

    Flags must be spelled in full, so that _inject_config sees every flag given.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{message} (see '{self.prog} --help')")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="teflow",
        description="Directional information flow between time series: transfer entropy, "
                    "effective transfer entropy, and the market/attention data pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and normalize input CSVs")
    p.add_argument("--ohlc", type=Path, default=None, help="OHLC CSV to validate")
    p.add_argument("--trends-dir", type=Path, default=None, help="directory of keyword CSVs")
    p.add_argument("--trend", type=Path, action="append", default=[],
                   help="single keyword CSV (repeatable)")
    _add_io_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("index", help="build a composite attention index")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--set", default=None,
                   help=f"built-in keyword set: one of {', '.join(PRESET_NAMES)}")
    g.add_argument("--keywords", type=Path, default=None, help="custom keyword list file")
    p.add_argument("--input-dir", type=Path, required=True, help="directory of keyword CSVs")
    p.add_argument("--diff", action="store_true", help="also write first differences")
    _add_io_flags(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("returns", help="log returns from OHLC closes")
    p.add_argument("--ohlc", type=Path, required=True)
    _add_io_flags(p)
    p.set_defaults(func=cmd_returns)

    p = sub.add_parser("vol", help="daily range volatility from OHLC bars")
    p.add_argument("--ohlc", type=Path, required=True)
    p.add_argument("--method", choices=("parkinson", "gk"), default="parkinson")
    _add_io_flags(p)
    p.set_defaults(func=cmd_vol)

    def add_pair_flags(p):
        p.add_argument("--source", type=Path, required=True, help="source series CSV")
        p.add_argument("--target", type=Path, action="append", default=[], required=True,
                       help="target series CSV (repeatable)")
        p.add_argument("--source-label", default=None)
        p.add_argument("--target-label", action="append", default=[])
        p.add_argument("--source-transform", choices=TRANSFORMS, default="levels")
        p.add_argument("--target-transform", choices=TRANSFORMS, default="levels")
        _add_estimator_flags(p)
        _add_io_flags(p)

    p = sub.add_parser("te", help="both-direction effective transfer entropy")
    add_pair_flags(p)
    p.set_defaults(func=cmd_te)

    p = sub.add_parser("lagsweep", help="estimates across a range of lags")
    add_pair_flags(p)
    p.add_argument("--min-lag", type=int, default=1)
    p.add_argument("--max-lag", type=int, required=True)
    p.add_argument("--mode", choices=LAG_MODES, default="history",
                   help="history: k=l=lag; shift: keep --k and --l (1 by default) and "
                        "shift the source back lag-1 days")
    p.set_defaults(func=cmd_lagsweep)

    p = sub.add_parser("windows", help="non-overlapping window analysis")
    add_pair_flags(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--count", type=int, default=None, help="number of equal windows")
    g.add_argument("--size", type=int, default=None, help="window length in observations")
    p.set_defaults(func=cmd_windows)

    p = sub.add_parser("synthgen", help="generate a synthetic pair with known coupling")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--delay", type=int, default=1, help="copy delay")
    p.add_argument("--noise", type=float, default=0.0, help="copy flip probability")
    p.add_argument("--phi", type=float, default=0.5, help="AR(1) coefficient")
    p.add_argument("--tables", type=Path, default=None,
                   help="JSON file with coupled_markov transition tables")
    p.add_argument("--seed", type=int, default=0)
    _add_io_flags(p)
    p.set_defaults(func=cmd_synthgen)

    parser.commands = sub.choices  # subcommand parsers by name, for _inject_config
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    json_errors = "--json-errors" in argv
    try:
        parser = build_parser()
        args = parser.parse_args(_inject_config(argv, parser.commands))
        json_errors = args.json_errors
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
        args.func(args)
        _write_run_config(args)
        return 0
    except (TeflowError, OSError) as err:
        # an unreadable --config or an uncreatable --out is bad input, not a crash
        exit_code = err.exit_code if isinstance(err, TeflowError) else 2
        if json_errors:
            payload = {"error": type(err).__name__, "message": str(err), "exit_code": exit_code}
            print(json.dumps(payload), file=sys.stderr)
        else:
            print(f"error: {err}", file=sys.stderr)
        return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
