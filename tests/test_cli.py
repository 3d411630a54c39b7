"""CLI tests: subcommand flows, exit codes, config files, reproducibility."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import teflow
from teflow.cli import main, read_config_file
from teflow.pipeline import REPORT_COLUMNS

FIXTURES = Path(__file__).parent / "fixtures"


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """Normalized inputs, composite index, returns and volatility from fixtures."""
    root = tmp_path_factory.mktemp("cli")
    norm = root / "norm"
    assert run(["ingest", "--ohlc", FIXTURES / "ohlc.csv",
                "--trends-dir", FIXTURES / "trends", "--out", norm]) == 0
    assert run(["index", "--set", "subset3", "--input-dir", norm, "--diff",
                "--out", root]) == 0
    assert run(["returns", "--ohlc", norm / "ohlc.csv", "--out", root]) == 0
    assert run(["vol", "--ohlc", norm / "ohlc.csv", "--method", "parkinson",
                "--out", root]) == 0
    return root


def json_error(capsys):
    return json.loads(capsys.readouterr().err.strip())


def read_report(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestIngest:
    def test_normalizes_and_validates(self, tmp_path):
        out = tmp_path / "norm"
        assert run(["ingest", "--ohlc", FIXTURES / "ohlc.csv", "--out", out]) == 0
        assert (out / "ohlc.csv").exists()
        assert (out / "ingest_config.txt").exists()

    def test_trend_directory_batch(self, tmp_path):
        out = tmp_path / "norm"
        assert run(["ingest", "--trends-dir", FIXTURES / "trends", "--out", out]) == 0
        names = {p.name for p in out.glob("*.csv")}
        assert {"Bitcoin.csv", "BTC.csv", "crypto.csv",
                "blockchain.csv", "cryptocurrency.csv"} <= names
        # the preamble-carrying export was normalized to a clean two-column file
        head = (out / "cryptocurrency.csv").read_text().splitlines()[0]
        assert head == "date,value"

    def test_malformed_date_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,open,high,low,close\n2020-13-45,1,2,0.5,1\n")
        assert run(["ingest", "--ohlc", bad, "--out", tmp_path]) == 2
        assert "bad.csv" in capsys.readouterr().err

    def test_json_errors_flag(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,open,high,low,close\nnot-a-date,1,2,0.5,1\n")
        assert run(["ingest", "--ohlc", bad, "--out", tmp_path, "--json-errors"]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ParseError"
        assert payload["exit_code"] == 2


class TestIndex:
    def test_composite_rows_are_keyword_means(self, tmp_path, prepared):
        levels = read_report(prepared / "subset3.csv")
        norm = prepared / "norm"
        keyword_values = {}
        for kw in ("Bitcoin", "BTC", "cryptocurrency", "blockchain", "crypto"):
            for row in read_report(norm / f"{kw}.csv"):
                keyword_values.setdefault(row["date"], []).append(float(row["value"]))
        for row in levels[:50]:
            vals = keyword_values[row["date"]]
            assert float(row["value"]) == pytest.approx(sum(vals) / len(vals), abs=1e-9)

    def test_missing_keyword_reduces_coverage(self, tmp_path, prepared):
        out = tmp_path / "partial"
        partial = tmp_path / "inputs"
        partial.mkdir()
        for kw in ("Bitcoin", "BTC"):
            (partial / f"{kw}.csv").write_bytes((prepared / "norm" / f"{kw}.csv").read_bytes())
        assert run(["index", "--set", "subset3", "--input-dir", partial, "--out", out]) == 0
        coverage = read_report(out / "subset3_coverage.csv")
        assert all(int(r["coverage"]) == 2 for r in coverage)

    def test_unknown_set_is_an_error(self, tmp_path, capsys):
        code = run(["index", "--set", "subset7", "--input-dir", tmp_path, "--out", tmp_path])
        assert code == 2
        assert "subset" in capsys.readouterr().err

    def test_non_utf8_keyword_file_exits_2(self, tmp_path, prepared, capsys):
        kw = tmp_path / "mine.txt"
        kw.write_bytes(b"Bitcoin\nBTC\n\xe9ther\n")
        assert run(["index", "--keywords", kw, "--input-dir", prepared / "norm",
                    "--out", tmp_path, "--json-errors"]) == 2
        payload = json_error(capsys)
        assert payload["error"] == "ParseError"
        assert "mine.txt:3" in payload["message"]

    def test_set_and_keywords_exclude_each_other(self, tmp_path, prepared, capsys):
        kws = tmp_path / "kw.txt"
        kws.write_text("Bitcoin\n")
        for flags in (["--set", "subset3", "--keywords", kws], []):  # both, then neither
            assert run(["index", *flags, "--input-dir", prepared / "norm",
                        "--out", tmp_path / "idx", "--json-errors"]) == 2
            payload = json_error(capsys)
            assert payload["error"] == "UsageError"
            assert "--set" in payload["message"] and "--keywords" in payload["message"]
        assert not (tmp_path / "idx").exists()

    def test_custom_keyword_file(self, tmp_path, prepared):
        kws = tmp_path / "gtu.txt"
        kws.write_text("Bitcoin\nBTC\n")
        out = tmp_path / "gtu_out"
        assert run(["index", "--keywords", kws, "--input-dir", prepared / "norm",
                    "--out", out]) == 0
        assert (out / "gtu.csv").exists()


class TestDerivedSeries:
    def test_returns_output(self, prepared):
        rows = read_report(prepared / "returns.csv")
        assert len(rows) == 614  # 615 bars -> 614 returns
        assert set(rows[0]) == {"date", "value"}

    def test_vol_output(self, prepared):
        rows = read_report(prepared / "vol_parkinson.csv")
        assert len(rows) == 615
        assert all(float(r["value"]) >= 0 for r in rows[:20])

    def test_gk_method(self, tmp_path, prepared):
        assert run(["vol", "--ohlc", prepared / "norm" / "ohlc.csv", "--method", "gk",
                    "--out", tmp_path]) == 0
        assert (tmp_path / "vol_gk.csv").exists()

    def test_ohlc_saved_with_byte_order_mark(self, tmp_path, prepared):
        excel = tmp_path / "excel.csv"
        excel.write_bytes(b"\xef\xbb\xbf" + (prepared / "norm" / "ohlc.csv").read_bytes())
        assert run(["returns", "--ohlc", excel, "--out", tmp_path]) == 0
        assert (tmp_path / "returns.csv").read_bytes() == (prepared / "returns.csv").read_bytes()


class TestTeCommand:
    def test_two_direction_rows_and_schema(self, tmp_path, prepared):
        out = tmp_path / "te"
        assert run(["te", "--source", prepared / "subset3_diff.csv",
                    "--source-label", "GTC",
                    "--target", prepared / "returns.csv", "--target-label", "Return",
                    "--k", "1", "--l", "1", "--shuffles", "20", "--boot", "40",
                    "--seed", "42", "--out", out]) == 0
        rows = read_report(out / "te_report.csv")
        assert [r["direction"] for r in rows] == ["GTC->Return", "Return->GTC"]
        assert list(rows[0]) == REPORT_COLUMNS
        for row in rows:
            assert float(row["te"]) >= 0.0
            assert 0.0 <= float(row["p_value"]) <= 1.0
        assert (out / "te_report.json").exists()
        assert (out / "te_config.txt").exists()

    def test_outputs_roundtrip_through_loaders(self, tmp_path, prepared):
        from teflow import load_series_csv

        series = load_series_csv(prepared / "subset3_diff.csv")
        assert len(series) > 600

    def test_boot_zero_reports_absent_markers(self, tmp_path, prepared):
        out = tmp_path / "te0"
        assert run(["te", "--source", prepared / "subset3_diff.csv",
                    "--target", prepared / "returns.csv",
                    "--shuffles", "5", "--boot", "0", "--out", out]) == 0
        rows = read_report(out / "te_report.csv")
        assert rows[0]["std_err"] == "" and rows[0]["p_value"] == ""

    def test_config_file_supplies_defaults(self, tmp_path, prepared):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "seed = 9\n"
            "shuffles = 7\n"
            "boot = 0\n"
            f"source = {prepared / 'subset3_diff.csv'}\n"
            f"target = {prepared / 'returns.csv'}\n"
        )
        out = tmp_path / "from_cfg"
        assert run(["te", "--config", cfg, "--out", out]) == 0
        resolved = read_config_file(out / "te_config.txt")
        assert resolved["seed"] == "9"
        assert resolved["shuffles"] == "7"

    def test_explicit_flag_overrides_config_file(self, tmp_path, prepared):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 9\nboot = 0\nshuffles = 5\n"
                       f"source = {prepared / 'subset3_diff.csv'}\n"
                       f"target = {prepared / 'returns.csv'}\n")
        out = tmp_path / "override"
        assert run(["te", "--config", cfg, "--seed", "123", "--out", out]) == 0
        assert read_config_file(out / "te_config.txt")["seed"] == "123"


def replay_commands(prepared):
    """One command line per subcommand, each without --out."""
    trends = FIXTURES / "trends"
    pair = ["--source", prepared / "subset3_diff.csv", "--source-label", "GTC",
            "--target", prepared / "returns.csv", "--target-label", "Return",
            "--target", prepared / "vol_parkinson.csv", "--target-label", "Volatility",
            "--shuffles", "3", "--boot", "5", "--seed", "3"]
    return {
        "ingest": ["--ohlc", FIXTURES / "ohlc.csv",
                   "--trend", trends / "BTC.csv", "--trend", trends / "crypto.csv"],
        "index": ["--set", "subset3", "--input-dir", prepared / "norm", "--diff"],
        "returns": ["--ohlc", prepared / "norm" / "ohlc.csv"],
        "vol": ["--ohlc", prepared / "norm" / "ohlc.csv", "--method", "gk"],
        "te": pair,
        "lagsweep": pair + ["--max-lag", "2", "--plot-data"],
        "windows": pair + ["--count", "2", "--plot-data"],
        "synthgen": ["--kind", "copy", "--length", "200", "--noise", "0.1", "--seed", "2"],
    }


class TestRunRecord:
    @pytest.mark.parametrize("command", ["ingest", "index", "returns", "vol", "te",
                                         "lagsweep", "windows", "synthgen"])
    def test_record_replays_the_run(self, tmp_path, prepared, command):
        first, replay = tmp_path / "first", tmp_path / "replay"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # lag 2 on the short fixture warns by design
            assert run([command, *replay_commands(prepared)[command], "--out", first]) == 0
            record = first / f"{command}_config.txt"
            assert run([command, "--config", record, "--out", replay]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in replay.iterdir())
        for name in names:
            want = (first / name).read_bytes()
            if name == record.name:  # the records differ in their out line only
                want = want.replace(f"out = {first}".encode(), f"out = {replay}".encode())
            assert (replay / name).read_bytes() == want, name

    def test_unset_flags_are_left_out(self, tmp_path, prepared):
        assert run(["te", *replay_commands(prepared)["te"], "--out", tmp_path]) == 0
        record = read_config_file(tmp_path / "te_config.txt")
        assert record["command"] == "te"
        assert not {"block_order", "plot_data"} & record.keys()

    def test_repeated_trend_flags_replay_both_files(self, tmp_path):
        trend, other = tmp_path / "b,tc.csv", FIXTURES / "trends" / "crypto.csv"
        trend.write_bytes((FIXTURES / "trends" / "BTC.csv").read_bytes())
        assert run(["ingest", "--trend", trend, "--trend", other, "--out", tmp_path / "a"]) == 0
        record = tmp_path / "a" / "ingest_config.txt"
        assert read_config_file(record)["trend"] == f'"{trend}",{other}'  # the comma item is quoted
        assert run(["ingest", "--config", record, "--out", tmp_path / "b"]) == 0
        assert sorted(p.name for p in (tmp_path / "b").glob("*.csv")) == ["b,tc.csv", "crypto.csv"]

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        config = tmp_path / "run.txt"
        config.write_text("# a whole-line comment\n  # an indented one\nsource = a#1.csv\n")
        assert read_config_file(config) == {"source": "a#1.csv"}

    def test_record_of_another_command_exits_2(self, tmp_path, capsys):
        assert run(["returns", "--ohlc", FIXTURES / "ohlc.csv", "--out", tmp_path / "a"]) == 0
        capsys.readouterr()
        assert run(["vol", "--config", tmp_path / "a" / "returns_config.txt",
                    "--out", tmp_path / "b", "--json-errors"]) == 2
        payload = json_error(capsys)
        assert payload["error"] == "ConfigError"
        assert "'returns'" in payload["message"] and "'vol'" in payload["message"]
        assert not (tmp_path / "b").exists()

    def test_explicit_target_replaces_config_targets(self, tmp_path, prepared):
        config = tmp_path / "run.cfg"
        config.write_text(f"source = {prepared / 'subset3_diff.csv'}\n"
                          f"target = {prepared / 'returns.csv'},{prepared / 'vol_parkinson.csv'}\n"
                          "target_label = Return,Volatility\nshuffles = 2\nboot = 0\n")
        out = tmp_path / "out"
        # the explicit target takes its own label, not the first recorded one
        assert run(["te", "--config", config, f"--target={prepared / 'vol_parkinson.csv'}",
                    "--out", out]) == 0
        rows = read_report(out / "te_report.csv")
        assert [r["direction"] for r in rows] == ["subset3_diff->vol_parkinson",
                                                 "vol_parkinson->subset3_diff"]
        assert read_config_file(out / "te_config.txt")["target"] == str(prepared / "vol_parkinson.csv")

    def test_explicit_flag_displaces_its_exclusive_group(self, tmp_path, prepared):
        kws = tmp_path / "gtu.txt"
        kws.write_text("Bitcoin\nBTC\n")
        recorded = replay_commands(prepared)
        # command: (explicit flag, recorded key it drops, the other flags, an output to compare)
        cases = {"windows": (["--size", "200"], "count", recorded["te"], "windows_report.csv"),
                 "index": (["--keywords", kws], "set", ["--input-dir", prepared / "norm", "--diff"],
                           "gtu_diff.csv")}
        for command, (explicit, dropped, rest, output) in cases.items():
            first, replay, direct = (tmp_path / command / d for d in ("first", "replay", "direct"))
            assert run([command, *recorded[command], "--out", first]) == 0
            assert run([command, "--config", first / f"{command}_config.txt", *explicit,
                        "--out", replay]) == 0
            assert dropped not in read_config_file(replay / f"{command}_config.txt")
            assert run([command, *rest, *explicit, "--out", direct]) == 0
            assert (replay / output).read_bytes() == (direct / output).read_bytes()


class TestLagSweepCommand:
    def test_single_lag_gives_one_row_per_direction(self, tmp_path, prepared):
        out = tmp_path / "lag1"
        assert run(["lagsweep", "--source", prepared / "subset3_diff.csv",
                    "--target", prepared / "returns.csv", "--min-lag", "1", "--max-lag", "1",
                    "--shuffles", "3", "--boot", "5", "--out", out]) == 0
        rows = read_report(out / "lagsweep_report.csv")
        assert [(r["direction"], r["lag"]) for r in rows] == [
            ("subset3_diff->returns", "1"), ("returns->subset3_diff", "1")]

    def test_rows_per_direction(self, tmp_path, prepared):
        out = tmp_path / "lags"
        assert run(["lagsweep", "--source", prepared / "subset3_diff.csv",
                    "--source-label", "GTC",
                    "--target", prepared / "returns.csv", "--target-label", "Return",
                    "--max-lag", "3", "--shuffles", "5", "--boot", "10",
                    "--seed", "1", "--out", out, "--plot-data"]) == 0
        rows = read_report(out / "lagsweep_report.csv")
        per_dir = {}
        for r in rows:
            per_dir.setdefault(r["direction"], []).append(int(r["lag"]))
        assert per_dir == {"GTC->Return": [1, 2, 3], "Return->GTC": [1, 2, 3]}
        plot = read_report(out / "lagsweep_plot.csv")
        assert {r["direction"] for r in plot} == {"GTC->Return", "Return->GTC"}
        assert set(plot[0]) == {"direction", "lag", "ete", "p_value", "significant"}

    def test_max_lag_8_gives_8_rows_per_direction(self, tmp_path, prepared):
        out = tmp_path / "lags8"
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # deep lags on a short sample warn by design
            assert run(["lagsweep", "--source", prepared / "subset3_diff.csv",
                        "--target", prepared / "returns.csv",
                        "--max-lag", "8", "--shuffles", "1", "--boot", "0",
                        "--seed", "2", "--out", out]) == 0
        rows = read_report(out / "lagsweep_report.csv")
        per_dir = {}
        for r in rows:
            per_dir.setdefault(r["direction"], []).append(int(r["lag"]))
        assert all(lags == list(range(1, 9)) for lags in per_dir.values())
        assert len(per_dir) == 2


class TestWindowsCommand:
    def test_window_rows(self, tmp_path, prepared):
        out = tmp_path / "win"
        assert run(["windows", "--source", prepared / "subset3_diff.csv",
                    "--source-label", "GTC",
                    "--target", prepared / "returns.csv", "--target-label", "Return",
                    "--count", "3", "--shuffles", "5", "--boot", "10",
                    "--seed", "1", "--out", out, "--plot-data"]) == 0
        rows = read_report(out / "windows_report.csv")
        assert len(rows) == 6  # 3 windows x 2 directions
        assert all(r["window_start"] and r["window_end"] for r in rows)
        doc = json.loads((out / "windows_report.json").read_text())
        assert len(doc["window_results"]) == 3
        plot = read_report(out / "windows_plot.csv")
        assert len(plot) == 6


class TestExitCodes:
    def test_statistical_failure_exits_3(self, tmp_path, capsys):
        # a source whose final order-2 context occurs nowhere else; the Markov
        # regeneration hits the unvisited state and aborts with exit code 3
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        src_vals = [0, 1] * 12 + [0, 2]
        tgt_vals = [0, 1, 1, 0] * 6 + [1, 0]
        rows = lambda vals: "date,value\n" + "\n".join(
            f"2020-01-{i + 1:02d},{v}" for i, v in enumerate(vals))
        src.write_text(rows(src_vals) + "\n")
        tgt.write_text(rows(tgt_vals) + "\n")
        code = run(["te", "--source", src, "--target", tgt,
                    "--quantiles", "0.25,0.75", "--block-order", "2",
                    "--shuffles", "2", "--boot", "50", "--seed", "1",
                    "--out", tmp_path, "--json-errors"])
        assert code == 3
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "InsufficientData"

    def test_missing_input_exits_2(self, tmp_path):
        assert run(["te", "--source", tmp_path / "nope.csv",
                    "--target", tmp_path / "also_nope.csv", "--out", tmp_path]) == 2

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert run(["returns", "--config", tmp_path / "missing.txt", "--ohlc",
                    FIXTURES / "ohlc.csv", "--out", tmp_path, "--json-errors"]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["exit_code"] == 2
        assert "missing.txt" in payload["message"]

    def test_uncreatable_out_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        assert run(["returns", "--ohlc", FIXTURES / "ohlc.csv", "--out", blocker / "sub"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "blocker" in err

    def test_usage_error_honours_json_errors(self, capsys):
        assert run(["te", "--k", "abc", "--json-errors"]) == 2
        payload = json_error(capsys)
        assert payload["error"] == "UsageError"
        assert payload["exit_code"] == 2
        assert "--k" in payload["message"]

    def test_failed_command_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["ingest", "--out", out]) == 2
        assert "nothing to ingest" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_file_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.txt"
        config.write_bytes(b"seed = 1\nsource_label = \xff\n")
        assert run(["returns", "--config", config, "--ohlc", FIXTURES / "ohlc.csv",
                    "--out", tmp_path, "--json-errors"]) == 2
        payload = json_error(capsys)
        assert payload["error"] == "ParseError"
        assert "run.txt:2" in payload["message"]

    def test_repeated_label_is_rejected(self, tmp_path, capsys):
        rows = "date,value\n" + "".join(f"2020-01-{d:02d},{d % 3}\n" for d in range(1, 29))
        for name in ("src.csv", "a/ret.csv", "b/ret.csv"):
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(rows)
        common = ["--shuffles", "2", "--boot", "0", "--out", tmp_path / "out", "--json-errors"]
        assert run(["te", "--source", tmp_path / "src.csv", "--target", tmp_path / "a/ret.csv",
                    "--target", tmp_path / "b/ret.csv", *common]) == 2
        payload = json_error(capsys)
        assert payload["error"] == "ConfigError"
        assert "'ret'" in payload["message"] and "--target-label" in payload["message"]
        # a target labelled like the source would be compared with itself
        assert run(["te", "--source", tmp_path / "src.csv", "--target", tmp_path / "a/ret.csv",
                    "--target-label", "src", *common]) == 2
        assert "'src'" in json_error(capsys)["message"]
        assert not (tmp_path / "out").exists()

    def test_more_labels_than_targets_exits_2(self, tmp_path, prepared, capsys):
        out = tmp_path / "out"
        assert run(["te", "--source", prepared / "subset3_diff.csv",
                    "--target", prepared / "returns.csv",
                    "--target-label", "Return", "--target-label", "Extra",
                    "--shuffles", "2", "--boot", "0", "--out", out, "--json-errors"]) == 2
        payload = json_error(capsys)
        assert payload["error"] == "ConfigError"
        assert "2 --target-label values for 1 --target" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("base", ["inf", "nan"])
    def test_non_finite_base_exits_2(self, tmp_path, prepared, capsys, base):
        out = tmp_path / "out"
        assert run(["te", "--source", prepared / "subset3_diff.csv",
                    "--target", prepared / "returns.csv", "--base", base,
                    "--shuffles", "2", "--boot", "0", "--out", out, "--json-errors"]) == 2
        payload = json_error(capsys)
        assert payload["error"] == "ConfigError"
        assert "log_base" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("case", [
        "quantile list", "config line", "price field", "price value", "window count",
        "window size", "joint states", "bootstrap states", "negative seed", "history length",
        "block order length"])
    def test_rejected_input_exits_2_and_writes_nothing(self, tmp_path, prepared, capsys, case):
        config = tmp_path / "run.txt"
        config.write_text("seed = 1\nshuffles 2\n")
        ohlc = tmp_path / "bars.csv"
        price = {"price field": "x", "price value": "inf"}.get(case, "1")
        ohlc.write_text(f"date,open,high,low,close\n2020-01-01,1,2,0.5,1\n"
                        f"2020-01-02,1,{price},0.5,1\n")
        pair = ["--source", prepared / "subset3_diff.csv", "--target", prepared / "returns.csv",
                "--shuffles", "2", "--boot", "5"]
        command, flags, message = {
            "quantile list": ("te", ["--quantiles", "a,b"], "bad quantile list 'a,b'"),
            "config line": ("returns", ["--config", config, "--ohlc", FIXTURES / "ohlc.csv"],
                            f"{config}:2: expected key = value"),
            "price field": ("returns", ["--ohlc", ohlc], f"{ohlc}:3: bad price field"),
            "price value": ("returns", ["--ohlc", ohlc], f"{ohlc}:3: non-finite price"),
            "window count": ("windows", ["--count", "0"], "window count must be >= 1"),
            "window size": ("windows", ["--size", "1"], "window size must be >= 2"),
            "joint states": ("te", ["--k", "40", "--l", "40"],
                             "joint state space exceeds 64-bit encoding"),
            "bootstrap states": ("te", ["--block-order", "20"], "bootstrap state space too large"),
            "negative seed": ("te", ["--seed", "-1"], "seed must be unsigned"),
            # the fixture pair has 614 aligned rows
            "history length": ("te", ["--k", "613"],
                               "need more than max(k, l) + 1 = 614 aligned observations"),
            "block order length": ("te", ["--block-order", "614"],
                                   "need more than block_order = 614 observations"),
        }[case]
        if command != "returns":
            flags = [*pair, *flags]
        out = tmp_path / "out"
        assert run([command, *flags, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert run([command, *flags, "--out", out, "--json-errors"]) == 2
        payload = json_error(capsys)
        assert payload["exit_code"] == 2 and message in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, recorded, abbreviated", [
        ("index", ["--set", "subset3", "--di"], None, "--di"),
        ("index", ["--key", "KW"], "set = subset3", "--key"),
        ("windows", ["--count", "2", "--shuf", "2"], None, "--shuf"),
        ("windows", ["--si", "400"], "count = 2", "--si"),
    ], ids=["index", "index-config", "windows", "windows-config"])
    def test_abbreviated_flag_exits_2(self, tmp_path, prepared, capsys, command, flags,
                                      recorded, abbreviated):
        # an abbreviation would slip past --config precedence, which matches flags
        # by their full spelling, so no flag may be abbreviated
        kws = tmp_path / "kw.txt"
        kws.write_text("Bitcoin\n")
        flags = [kws if f == "KW" else f for f in flags]
        if recorded is not None:
            config = tmp_path / "run.txt"
            config.write_text(f"command = {command}\n{recorded}\n")
            flags = ["--config", config, *flags]
        rest = (["--input-dir", prepared / "norm"] if command == "index" else
                ["--source", prepared / "subset3_diff.csv", "--target", prepared / "returns.csv",
                 "--boot", "0"])
        out = tmp_path / "out"
        assert run([command, *rest, *flags, "--out", out, "--json-errors"]) == 2
        payload = json_error(capsys)
        assert payload["error"] == "UsageError"
        assert f"unrecognized arguments: {abbreviated}" in payload["message"]
        assert not out.exists()


class TestSynthgenCommand:
    def test_writes_pair_with_consecutive_dates(self, tmp_path):
        out = tmp_path / "synth"
        assert run(["synthgen", "--kind", "copy", "--length", "50", "--delay", "1",
                    "--seed", "3", "--out", out]) == 0
        src = read_report(out / "synth_source.csv")
        tgt = read_report(out / "synth_target.csv")
        assert len(src) == len(tgt) == 50
        assert src[0]["date"] == "2015-01-01"
        assert src[1]["date"] == "2015-01-02"

    def test_generated_pair_flows_through_te(self, tmp_path):
        out = tmp_path / "flow"
        assert run(["synthgen", "--kind", "copy", "--length", "2000", "--seed", "4",
                    "--out", out]) == 0
        assert run(["te", "--source", out / "synth_source.csv",
                    "--target", out / "synth_target.csv",
                    "--shuffles", "10", "--boot", "50", "--seed", "5",
                    "--out", out]) == 0
        rows = read_report(out / "te_report.csv")
        forward = next(r for r in rows if r["direction"] == "synth_source->synth_target")
        assert float(forward["ete"]) > 0.9
        assert float(forward["p_value"]) == 0.0

    def test_coupled_markov_tables_from_json(self, tmp_path):
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps({
            "source": [[0.7, 0.3], [0.2, 0.8]],
            "target": [[[0.9, 0.1], [0.3, 0.7]], [[0.6, 0.4], [0.1, 0.9]]],
        }))
        out = tmp_path / "markov"
        assert run(["synthgen", "--kind", "coupled_markov", "--length", "300",
                    "--tables", tables, "--seed", "6", "--out", out]) == 0
        assert (out / "synth_source.csv").exists()

    def test_invalid_spec_exits_2(self, tmp_path):
        assert run(["synthgen", "--kind", "copy", "--length", "100",
                    "--noise", "0.9", "--out", tmp_path]) == 2

    def test_copy_delay_beyond_length_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["synthgen", "--kind", "copy", "--length", "5", "--delay", "10",
                    "--out", out, "--json-errors"]) == 2
        assert json_error(capsys)["error"] == "InvalidSpec"
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"source": [[0.7, 0.3], [0.2, 0.8]], "target": ',  # not JSON
        '{"source": [[0.7, 0.3], [0.2, 0.8]]}',  # no target tables
        '{"source": [[0.7, 0.3], [0.2]], "target": [[[1.0]]]}',  # ragged
    ])
    def test_bad_tables_exit_2(self, tmp_path, capsys, text):
        tables = tmp_path / "tables.json"
        tables.write_text(text)
        assert run(["synthgen", "--kind", "coupled_markov", "--length", "300",
                    "--tables", tables, "--out", tmp_path, "--json-errors"]) == 2
        assert json_error(capsys)["error"] == "InvalidSpec"


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, prepared):
        args = ["te", "--source", prepared / "subset3_diff.csv",
                "--target", prepared / "returns.csv",
                "--shuffles", "10", "--boot", "20", "--seed", "77"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", out_a]) == 0
        assert run(args + ["--out", out_b]) == 0
        assert (out_a / "te_report.csv").read_bytes() == (out_b / "te_report.csv").read_bytes()
        assert (out_a / "te_report.json").read_bytes() == (out_b / "te_report.json").read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path, prepared):
        args = ["te", "--source", prepared / "subset3_diff.csv",
                "--target", prepared / "returns.csv",
                "--shuffles", "10", "--boot", "20", "--seed", "77"]
        out_a, out_b = tmp_path / "t1", tmp_path / "t4"
        assert run(args + ["--threads", "1", "--out", out_a]) == 0
        assert run(args + ["--threads", "4", "--out", out_b]) == 0
        assert (out_a / "te_report.csv").read_bytes() == (out_b / "te_report.csv").read_bytes()


def run_fresh(code, *args):
    """Run ``code`` in a new interpreter that imports teflow from where this process does."""
    env = dict(os.environ, PYTHONPATH=str(Path(teflow.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


PUBLIC_NAMES = """
    AnalysisReport AnalysisSpec CompositeIndex DatedSeries JointCounts KeywordSet NullCache
    OhlcBar OhlcSeries ProcessSpec SymbolSeries TeConfig TeEstimate TeflowError WindowResult
    WindowScheme align apply_transform binary_entropy bootstrap_inference build_composite
    count_transitions effective_transfer_entropy estimate first_difference
    garman_klass_volatility generate lag_sweep load_keyword_file load_ohlc_csv load_series_csv
    load_trend_csv log_returns parkinson_volatility population_te preset run_analysis run_pair
    shuffle_surrogate_te symbolize transfer_entropy window_analysis
""".split()


class TestImports:
    def test_data_commands_do_not_load_the_estimator(self, tmp_path):
        loaded = run_fresh("""
import json, sys
from teflow.cli import main
fixtures, out = sys.argv[1:]
for argv in (["ingest", "--ohlc", fixtures + "/ohlc.csv", "--trends-dir", fixtures + "/trends",
              "--out", out],
             ["index", "--set", "subset3", "--input-dir", out, "--diff", "--out", out],
             ["returns", "--ohlc", out + "/ohlc.csv", "--out", out],
             ["vol", "--ohlc", out + "/ohlc.csv", "--out", out]):
    assert main(argv) == 0, argv
print(json.dumps([m for m in ("teflow.te", "teflow.pipeline", "teflow.synth") if m in sys.modules]))
""", FIXTURES, tmp_path)
        assert loaded == []

    def test_package_names_resolve_on_use(self):
        found = run_fresh("""
import json, sys
import teflow
loaded = [m for m in sys.modules if m.startswith("teflow.")]
names = {}
exec("from teflow import *", names)
del names["__builtins__"]
print(json.dumps({
    "loaded_by_import": loaded,
    "star": sorted(names),
    "all": teflow.__all__,
    "version": teflow.__version__,
    "missing_from_dir": sorted(set(teflow.__all__) - set(dir(teflow))),
    "home": sorted({name for name, obj in names.items()
                    if getattr(sys.modules[obj.__module__], name) is not obj}),
    "submodule": teflow.te.estimate is names["estimate"],
}))
""")
        assert found == {"loaded_by_import": [], "star": PUBLIC_NAMES, "all": PUBLIC_NAMES,
                         "version": "0.1.0", "missing_from_dir": [], "home": [],
                         "submodule": True}
