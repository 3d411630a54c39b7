"""teflow benchmark: closed-loop batch runs of the teflow CLI, one caller, ``--threads 1``.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 bench/run.py --workload study --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --record-digests        # refresh bench/expected_digests.json

Workloads (see WORKLOADS for why each was chosen):
    study           the paper's pipeline as six CLI processes over 2300 days
    lagsweep_deep   lagsweep over lags 1-8 on one 2300-day pair
    long_pair       te on one 20000-day pair at k = l = 1

``--trace 0`` repeats the workload for ``--seconds`` and reports end-to-end
metrics (wall_s, te_evals_per_s, peak_rss_mb, setup_s). ``--trace 1`` runs it
untraced for ``--seconds``, then once with every teflow layer traced in each
CLI process, plus a fixed coverage pass and a direct probe of the te layer,
and reports per-layer metrics. Every run checks the outputs: exit codes,
report invariants, byte-identical reports across repeats, sha256 digests of
the reports at the reference seed, and an analytic copy-process oracle. The
last line of stdout is one JSON object; the lines before it are a readable
table and the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from inputs import FULL_KEYWORDS, Market, copy_process_te_bits  # noqa: E402
from tracing import KERNEL, LAYERS, kernel_inside, self_times  # noqa: E402

ROOT = Path.cwd()
WORK = BENCH / "_work"
DIGESTS = BENCH / "expected_digests.json"

REFERENCE_SEED = 0
RECORDED_SEEDS = 32
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # children are killed past this, so a run ends within 180 s
ESTIMATOR = ["--shuffles", "100", "--boot", "300", "--threads", "1"]
ORACLE_DAYS, ORACLE_NOISE, ORACLE_TOL_BITS = 20000, 0.11, 0.02

# baseline estimate() times at n=2300 from ROADMAP.md (2 cores, numpy 2.4), keyed by lag
ROADMAP_ESTIMATE_MS = {1: 167.0, 3: 389.0, 5: 1190.0}

ESTIMATE_KEYS = ("direction", "lag", "te", "ete", "surrogate_mean", "std_err", "p_value",
                 "n_effective", "window_start", "window_end")
CONFIG_KEYS = ("k", "l", "quantile_cuts", "log_base", "n_shuffles", "n_bootstrap",
               "block_order", "seed", "digest")
REPORT_HEADER = "direction,lag,window_start,window_end,te,ete,std_err,p_value,n_effective,config_digest"


# ---------------------------------------------------------------------------
# workloads


def _pair_flags(source: str, targets: list[tuple[str, str]]) -> list[str]:
    flags = ["--source", source, "--source-label", "GTC"]
    for path, label in targets:
        flags += ["--target", path, "--target-label", label]
    return flags


def _study_commands(seed: int, index_flags: list[str], stem: str, targets, windows: int):
    pair = _pair_flags(f"out/{stem}_diff.csv", targets)
    return [
        ["ingest", "--ohlc", "raw/ohlc.csv", "--trends-dir", "raw/trends", "--out", "out"],
        ["index", *index_flags, "--input-dir", "out", "--diff", "--out", "out"],
        ["returns", "--ohlc", "out/ohlc.csv", "--out", "out"],
        ["vol", "--ohlc", "out/ohlc.csv", "--method", "parkinson", "--out", "out"],
        ["te", *pair, "--k", "1", "--l", "1", *ESTIMATOR, "--seed", str(seed), "--out", "out"],
        ["windows", *pair, "--count", str(windows), *ESTIMATOR, "--seed", str(seed),
         "--out", "out"],
    ]


BOTH_TARGETS = [("out/returns.csv", "Return"), ("out/vol_parkinson.csv", "Volatility")]
RETURN_TARGET = [("pair/return.csv", "Return")]


def study_inputs(d: Path, seed: int) -> None:
    market = Market(2300, len(FULL_KEYWORDS), seed)
    (d / "raw").mkdir(parents=True)
    market.write_ohlc(d / "raw/ohlc.csv")
    market.write_trends(d / "raw/trends", FULL_KEYWORDS)


def study_commands(seed: int):
    return _study_commands(seed, ["--set", "full"], "full", BOTH_TARGETS, 4)


def pair_inputs(days: int) -> Callable[[Path, int], None]:
    def make(d: Path, seed: int) -> None:
        (d / "pair").mkdir(parents=True)
        Market(days + 1, 5, seed).write_pair(d / "pair/gtc.csv", d / "pair/return.csv")
    return make


def lagsweep_commands(seed: int):
    # block order 1: an order-8 Markov null can reach a source state never
    # visited in 2300 days and exit 3 (InsufficientData) on some seeds
    return [["lagsweep", *_pair_flags("pair/gtc.csv", RETURN_TARGET), "--min-lag", "1",
             "--max-lag", "8", "--block-order", "1", *ESTIMATOR, "--seed", str(seed),
             "--out", "out", "--plot-data"]]


def long_pair_commands(seed: int):
    return [["te", *_pair_flags("pair/gtc.csv", RETURN_TARGET), "--k", "1", "--l", "1",
             *ESTIMATOR, "--seed", str(seed), "--out", "out"]]


COVERAGE_KEYWORDS = FULL_KEYWORDS[:5]


def coverage_inputs(d: Path, seed: int) -> None:
    market = Market(620, len(COVERAGE_KEYWORDS), seed)
    (d / "raw").mkdir(parents=True)
    market.write_ohlc(d / "raw/ohlc.csv")
    market.write_trends(d / "raw/trends", COVERAGE_KEYWORDS)
    (d / "raw/keywords.txt").write_text("\n".join(COVERAGE_KEYWORDS) + "\n")


def coverage_commands(seed: int):
    cmds = _study_commands(seed, ["--keywords", "raw/keywords.txt"], "keywords",
                           BOTH_TARGETS[:1], 2)
    cmds.append(["lagsweep", *_pair_flags("out/keywords_diff.csv", BOTH_TARGETS[:1]),
                 "--max-lag", "2", *ESTIMATOR, "--seed", str(seed), "--out", "out"])
    return cmds


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[Path, int], None]
    commands: Callable[[int], list[list[str]]]
    outputs: tuple[str, ...]
    estimates: int  # estimates the reports must hold


WORKLOADS = {w.name: w for w in (
    Workload("study",
             "the paper's full pipeline as six CLI processes over 2300 days with 38 keyword "
             "files; the only workload where start-up, CSV parsing and index building weigh",
             study_inputs, study_commands,
             ("out/ohlc.csv", "out/full.csv", "out/full_coverage.csv", "out/full_diff.csv",
              "out/returns.csv", "out/vol_parkinson.csv", "out/te_report.csv",
              "out/te_report.json", "out/windows_report.csv", "out/windows_report.json"),
             4 + 16),
    Workload("lagsweep_deep",
             "lags 1-8 at k=l=lag on a 2300-day pair: the count+TE kernel dominates and "
             "state occupancy falls to under 1e-5, so kernel changes show here",
             pair_inputs(2300), lagsweep_commands,
             ("out/lagsweep_report.csv", "out/lagsweep_report.json", "out/lagsweep_plot.csv"),
             16),
    Workload("long_pair",
             "te on a 20000-day pair at k=l=1: Markov null regeneration and the (300, n) "
             "bootstrap arrays dominate; kernel changes should leave it unmoved",
             pair_inputs(20000), long_pair_commands,
             ("out/te_report.csv", "out/te_report.json"), 2),
)}

COVERAGE = Workload("coverage", "fills per-layer metrics for layers a workload does not call",
                    coverage_inputs, coverage_commands, (), 0)


# ---------------------------------------------------------------------------
# processes


class Runner:
    """Starts child processes against the checkout's ``src`` and keeps the run's deadline."""

    def __init__(self):
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def spawn(self, argv: list[str], cwd: Path, stderr_path: Path) -> tuple[int, float, int]:
        """Run argv to completion; (exit code, wall seconds, peak RSS in KiB)."""
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def teflow(self, args: list[str], cwd: Path, stderr_path: Path):
        return self.spawn([sys.executable, "-m", "teflow.cli", *args], cwd, stderr_path)

    def import_times(self, repeats: int) -> list[float]:
        """Wall time of fresh interpreters that import teflow.cli and exit."""
        walls = []
        for i in range(repeats + 1):
            code, wall, _ = self.spawn([sys.executable, "-c", "import teflow.cli"], WORK,
                                       WORK / "import.err")
            if code != 0:
                raise SystemExit("teflow.cli does not import from this checkout's src/")
            if i:  # the first start compiles bytecode
                walls.append(wall)
        return walls


def check_checkout(runner: Runner) -> None:
    """Refuse to run unless the program under test is this checkout's src/teflow."""
    if not (ROOT / "src/teflow/__init__.py").is_file():
        raise SystemExit(f"no src/teflow package under {ROOT}; run from a teflow checkout")
    probe = subprocess.run([sys.executable, "-c", "import teflow; print(teflow.__file__)"],
                           cwd=WORK, env=runner.env, capture_output=True, text=True, timeout=60)
    found = Path(probe.stdout.strip() or "/nonexistent").resolve()
    if probe.returncode != 0 or ROOT / "src" not in found.parents:
        raise SystemExit(f"teflow imports from {found}, not from {ROOT / 'src'}")


# ---------------------------------------------------------------------------
# output checks


def _estimates(doc: dict):
    for est in doc.get("rows", []):
        yield est
    for curve in doc.get("lag_curves", {}).values():
        yield from curve
    for wr in doc.get("window_results", []):
        yield wr["forward"]
        yield wr["backward"]


def _canonical(value):
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    return value


def canonical_report(doc: dict) -> bytes:
    """The report's estimates on a fixed key set, floats at the CSV's 12 digits.

    Keys added to the JSON report later (diagnostics, run manifest in
    ``meta``) do not change this digest; any change to an estimate does.
    """
    def est(e):
        out = {k: _canonical(e[k]) for k in ESTIMATE_KEYS if k in e}
        out["config"] = {k: _canonical(e["config"][k]) for k in CONFIG_KEYS}
        return out

    core = {
        "rows": [est(e) for e in doc.get("rows", [])],
        "lag_curves": {d: [est(e) for e in c] for d, c in doc.get("lag_curves", {}).items()},
        "window_results": [{"index": w["index"], "window_start": w["window_start"],
                            "window_end": w["window_end"], "forward": est(w["forward"]),
                            "backward": est(w["backward"])}
                           for w in doc.get("window_results", [])],
    }
    return json.dumps(core, sort_keys=True).encode()


def digest_outputs(d: Path, workload: Workload) -> dict[str, str | None]:
    out = {}
    for rel in workload.outputs:
        path = d / rel
        if not path.is_file():
            out[rel] = None
            continue
        data = path.read_bytes()
        if rel.endswith(".json"):
            data = canonical_report(json.loads(data))
        out[rel] = hashlib.sha256(data).hexdigest()
    return out


def check_reports(d: Path, workload: Workload) -> tuple[list[str], int]:
    """Report invariants; (problems found, TE evaluations the reports account for)."""
    problems, evals, n_json = [], 0, 0
    for rel in workload.outputs:
        path = d / rel
        if not path.is_file():
            problems.append(f"{rel}: missing")
            continue
        if rel.endswith("_report.csv"):
            lines = path.read_text().splitlines()
            if not lines or lines[0] != REPORT_HEADER:
                problems.append(f"{rel}: unexpected header")
            rows = len(lines) - 1
            report = path.with_suffix(".json")
            if report.is_file() and rows != sum(1 for _ in _estimates(json.loads(report.read_text()))):
                problems.append(f"{rel}: {rows} rows disagree with the JSON report")
        if not rel.endswith("_report.json"):
            continue
        for e in _estimates(json.loads(path.read_text())):
            n_json += 1
            cfg = e["config"]
            evals += 1 + cfg["n_shuffles"] + cfg["n_bootstrap"]
            ok = (e["te"] >= 0 and e["ete"] == e["te"] - e["surrogate_mean"]
                  and e["std_err"] is not None and e["std_err"] >= 0
                  and e["p_value"] is not None and 0.0 <= e["p_value"] <= 1.0
                  and all(math.isfinite(e[k]) for k in ("te", "ete", "std_err", "p_value")))
            if not ok:
                problems.append(f"{rel}: invalid estimate {e['direction']} lag {e['lag']}")
    if n_json != workload.estimates:
        problems.append(f"{workload.name}: {n_json} estimates, expected {workload.estimates}")
    return problems, evals


def copy_oracle(seed: int) -> tuple[bool, str]:
    """Plug-in TE of a noisy binary copy process against 1 - H(noise); untimed."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from teflow.symbolic import SymbolSeries
    from teflow.synth import ProcessSpec, generate
    from teflow.te import count_transitions, transfer_entropy

    src, tgt = generate(ProcessSpec(kind="copy", length=ORACLE_DAYS, seed=seed, delay=1,
                                    noise=ORACLE_NOISE))
    est = transfer_entropy(count_transitions(SymbolSeries.from_symbols(tgt, 2),
                                             SymbolSeries.from_symbols(src, 2), 1, 1))
    exact = copy_process_te_bits(ORACLE_NOISE)
    ok = abs(est - exact) <= ORACLE_TOL_BITS
    return ok, f"copy oracle: TE {est:.5f} bits vs 1-H({ORACLE_NOISE}) = {exact:.5f} (tol {ORACLE_TOL_BITS})"


# ---------------------------------------------------------------------------
# one pass over a workload


@dataclass
class Pass:
    wall_s: float
    exits: list[int]
    peak_rss_kb: int
    evals: int
    problems: list[str]
    digests: dict
    undersampled: int
    traced: list[dict] | None = None


def prepare(workload: Workload, seed: int, tag: str) -> Path:
    d = WORK / f"{workload.name}-{tag}"
    if d.exists():
        shutil.rmtree(d)
    d.mkdir(parents=True)
    workload.make_inputs(d, seed)
    return d


def run_pass(runner: Runner, workload: Workload, d: Path, seed: int, traced: bool) -> Pass:
    out = d / "out"
    if out.exists():
        shutil.rmtree(out)
    commands = workload.commands(seed)
    exits, walls, rss, children = [], [], 0, []
    undersampled = 0
    for i, args in enumerate(commands):
        err = d / f"cmd{i}.err"
        if traced:
            spans = d / f"cmd{i}.trace.json"
            argv = [sys.executable, str(BENCH / "child.py"), "cli", str(spans), "--", *args]
            code, wall, peak = runner.spawn(argv, d, err)
            if code == 0:
                child = json.loads(spans.read_text())
                child["command"] = args[0]
                children.append(child)
                code = child["exit_code"]
                undersampled += child["warnings"].get("LagTooLargeForSample", 0)
        else:
            code, wall, peak = runner.teflow(args, d, err)
            undersampled += err.read_text(errors="replace").count("LagTooLargeForSample:")
        exits.append(code)
        walls.append(wall)
        rss = max(rss, peak)
    problems = [f"command {a[0]} exited {c}" for a, c in zip(commands, exits) if c]
    evals = 0
    if workload.outputs:
        found, evals = check_reports(d, workload)
        problems += found
    return Pass(sum(walls), exits, rss, evals, problems,
                digest_outputs(d, workload), undersampled, children if traced else None)


def digest_check(runner: Runner, workload: Workload, seed: int, digests: dict) -> list[str]:
    """Reports must hash to the digests recorded for their seed.

    Digests are recorded for seeds 0 to RECORDED_SEEDS - 1. A run at any other
    seed also reruns the workload, untimed, at the reference seed and checks that.
    """
    if not DIGESTS.is_file():
        return [f"{DIGESTS.name} is missing"]
    recorded = json.loads(DIGESTS.read_text()).get(workload.name, {})
    problems = []
    if str(seed) not in recorded:
        if str(REFERENCE_SEED) not in recorded:
            return [f"{DIGESTS.name}: no digests for {workload.name}"]
        seed = REFERENCE_SEED
        reference = run_pass(runner, workload, prepare(workload, seed, "reference"), seed,
                             traced=False)
        problems, digests = list(reference.problems), reference.digests
    for rel, sha in recorded[str(seed)].items():
        if digests.get(rel) != sha:
            problems.append(f"seed {seed}: {rel} sha256 {digests.get(rel)} != recorded {sha}")
    return problems


# ---------------------------------------------------------------------------
# statistics and per-layer metrics


def summary(values: list[float]) -> dict:
    """Minimum and median, plus the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"min": values[0], "median": statistics.median(values), "n": n}
    if n >= 20:
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}"] = values[max(0, math.ceil(pct / 100 * n) - 1)]
    return out


def _ms(ns: float) -> float:
    return ns / 1e6


def layer_metrics(children: list[dict]) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics from traced CLI processes: name -> (value, unit, samples).

    A metric is present only when its layer was called.
    """
    m: dict[str, tuple[float, str, int]] = {}
    calls: dict[str, list[float]] = {}
    layer_self = {layer: 0 for layer in LAYERS}
    kernel_ns, evals, rows, regen = 0, 0, 0, []
    estimates = []
    for child in children:
        spans, notes = child["spans"], child["notes"]
        own = self_times(spans)
        inside = kernel_inside(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            layer_self[name.split(".", 1)[0]] += own[i]
            calls.setdefault(name, []).append(end - start)
            if name in KERNEL and (parent < 0 or spans[parent][0] not in KERNEL):
                kernel_ns += end - start
            if name == "te.bootstrap_inference":
                regen.append(end - start - inside[i])
            if name == "series.load_series_csv":
                rows += notes.get(str(i), {}).get("rows", 0)
            if name == "cli.main":
                m[f"cli.{child['command']}_s"] = ((end - start) / 1e9, "s", 1)
        estimates += child["estimates"]
        evals += sum(e["evals"] for e in child["estimates"])

    def total(metric, *names):
        durations = [x for n in names for x in calls.get(n, [])]
        if durations:
            scale = 1e9 if metric.endswith("_s") else 1e6
            m[metric] = (sum(durations) / scale, metric.rsplit("_", 1)[1], len(durations))

    def mean(metric, name):
        if name in calls:
            m[metric] = (_ms(statistics.fmean(calls[name])), "ms", len(calls[name]))

    for layer, ns in layer_self.items():
        if any(n.split(".", 1)[0] == layer for n in calls):
            m[f"{layer}.self_s"] = (ns / 1e9, "s", 1)
    total("series.load_series_csv_ms", "series.load_series_csv")
    if "series.load_series_csv" in calls:
        m["series.rows_per_s"] = (rows / (sum(calls["series.load_series_csv"]) / 1e9), "1/s",
                                  len(calls["series.load_series_csv"]))
    total("trends.load_trend_csv_ms", "trends.load_trend_csv")
    total("trends.build_composite_ms", "trends.build_composite")
    total("market.load_ohlc_csv_ms", "market.load_ohlc_csv")
    total("market.volatility_ms", "market.parkinson_volatility", "market.garman_klass_volatility")
    total("symbolic.symbolize_ms", "symbolic.symbolize")
    mean("te.shuffle_ms", "te.shuffle_surrogate_te")
    mean("te.bootstrap_ms", "te.bootstrap_inference")
    mean("pipeline.run_pair_ms", "pipeline.run_pair")
    total("pipeline.lag_sweep_s", "pipeline.lag_sweep")
    total("pipeline.window_analysis_s", "pipeline.window_analysis")
    if regen:
        m["te.markov_regen_ms"] = (_ms(statistics.fmean(regen)), "ms", len(regen))
    if estimates:
        m["te.evals"] = (evals, "count", len(estimates))
        m["te.kernel_us"] = (kernel_ns / evals / 1e3, "us", evals)
        m["te.joint_states_observed"] = (sum(e["observed"] for e in estimates), "count",
                                         len(estimates))
        m["te.state_occupancy"] = (min(e["observed"] / e["possible"] for e in estimates),
                                   "ratio", len(estimates))
    if children:
        m["mem.import_mb"] = (max(c["import_rss_kb"] for c in children) / 1024, "MB", len(children))
        m["mem.peak_rss_mb"] = (max(c["maxrss_kb"] for c in children) / 1024, "MB", len(children))
    for metric, name in (("mem.shuffle_mb", "te.shuffle_surrogate_te"),
                         ("mem.bootstrap_mb", "te.bootstrap_inference")):
        notes = [n for c in children for i, n in c["notes"].items()
                 if c["spans"][int(i)][0] == name]
        exact = [n["peak_above_start_kb"] for n in notes if n["raised_peak"]]
        if notes:
            kb = max(exact) if exact else min(n["peak_above_start_kb"] for n in notes)
            m[metric] = (kb / 1024, "MB", len(notes))
    return m


def probe_metrics(cases: list[dict]) -> dict[str, tuple[float, str, int]]:
    m = {}
    for c in cases:
        tag = f"n{c['days']}_lag{c['lag']}"
        m[f"probe.estimate_ms.{tag}"] = (c["estimate_ms"], "ms", 1)
        m[f"probe.kernel_us.{tag}"] = (c["kernel_us"], "us", 1)
        m[f"probe.markov_regen_ms.{tag}"] = (c["markov_regen_ms"], "ms", 1)
    return m


# ---------------------------------------------------------------------------
# the run


def note_load(stage: str, record: dict) -> None:
    record[f"loadavg_1m_{stage}"] = os.getloadavg()[0]


def base_record() -> dict:
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        commit = git.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"commit": commit, "src_sha256": src.hexdigest(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def print_table(metrics: dict[str, tuple], extra: dict[str, dict] | None = None) -> None:
    for name, (value, unit, n) in metrics.items():
        tail = ""
        if extra and name in extra:
            s = extra[name]
            shown = [f"{k}={v:.6g}" for k, v in s.items() if k in ("min", "median") or k[1:].isdigit()]
            tail = s.get("from") or " ".join(shown) + ("" if s.get("n", 0) >= 20 else " (no tail: n<20)")
        print(f"  {name:<34} {value:>14.6g} {unit:<6} n={n} {tail}")


def measure(args) -> int:
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    runner = Runner()
    check_checkout(runner)
    record = base_record()
    record.update(workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  why=workload.why)
    note_load("start", record)

    setup = runner.import_times(SETUP_REPEATS)
    d = prepare(workload, args.seed, f"seed{args.seed}")
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(runner, workload, d, args.seed, traced=False))
        if time.perf_counter() - t0 >= args.seconds:
            break

    problems: list[str] = []
    for p in passes:
        problems += p.problems
        if p.digests != passes[0].digests:
            problems.append("reports differ between repeats of the same inputs")
    attempted = sum(len(p.exits) for p in passes)
    failed = sum(1 for p in passes for c in p.exits if c)

    metrics: dict[str, tuple[float, str, int]] = {}
    stats: dict[str, dict] = {}
    walls = [p.wall_s for p in passes]
    if args.trace == 0:
        rates = [p.evals / p.wall_s for p in passes]
        rss = [p.peak_rss_kb / 1024 for p in passes]
        # On a shared 2-core VM (Xeon, Python 3.11, numpy 2.4) speed alternates
        # between a fast and a ~40 % slower state for seconds to minutes at a
        # time. The median or minimum of a run's passes flips between the two
        # states; the mean over the whole run was the steadiest figure across
        # seeds. The table also prints the median and the tail.
        metrics["wall_s"] = (statistics.fmean(walls), "s", len(walls))
        metrics["te_evals_per_s"] = (sum(p.evals for p in passes) / sum(walls), "1/s", len(passes))
        for name, unit, values in (("peak_rss_mb", "MB", rss), ("setup_s", "s", setup)):
            metrics[name] = (statistics.median(values), unit, len(values))
        for name, values in (("wall_s", walls), ("te_evals_per_s", rates),
                             ("peak_rss_mb", rss), ("setup_s", setup)):
            stats[name] = summary(values)
    else:
        traced = run_pass(runner, workload, d, args.seed, traced=True)
        attempted += len(traced.exits)
        failed += sum(1 for c in traced.exits if c)
        problems += traced.problems
        if traced.digests != passes[0].digests:
            problems.append("traced reports differ from untraced reports")
        cov_dir = prepare(COVERAGE, args.seed, f"seed{args.seed}")
        coverage = run_pass(runner, COVERAGE, cov_dir, args.seed, traced=True)
        attempted += len(coverage.exits)
        failed += sum(1 for c in coverage.exits if c)
        problems += coverage.problems
        own = layer_metrics(traced.traced)
        filled = layer_metrics(coverage.traced)
        probe_out = d / "probe.json"
        code, _, _ = runner.spawn([sys.executable, str(BENCH / "child.py"), "probe",
                                   str(probe_out), str(args.seed)], d, d / "probe.err")
        attempted += 1
        cases = []
        if code:
            failed += 1
            problems.append(f"te probe exited {code}")
        else:
            cases = json.loads(probe_out.read_text())["cases"]
        metrics["cli.import_s"] = (statistics.median(setup), "s", len(setup))
        for name in PER_LAYER:
            if name in own:
                metrics[name] = own[name]
            elif name in filled:
                metrics[name] = filled[name]
                stats[name] = {"from": "(coverage pass)"}
        metrics["pipeline.undersampled_lags"] = (traced.undersampled, "count", 1)
        metrics["trace.overhead_s"] = (traced.wall_s - statistics.fmean(walls), "s", 1)
        metrics.update(probe_metrics(cases))
        missing = [n for n in PER_LAYER if n not in metrics]
        if missing:
            problems.append(f"per-layer metrics not measured: {', '.join(missing)}")

    problems += digest_check(runner, workload, args.seed, passes[0].digests)
    oracle_ok, oracle_msg = copy_oracle(args.seed)
    if not oracle_ok:
        problems.append(oracle_msg)
    note_load("end", record)

    undersampled = [p.undersampled for p in passes]
    print(f"run record: {json.dumps(record, sort_keys=True)}")
    print(f"workload {workload.name}: {workload.why}")
    print(f"  passes={len(passes)} commands attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.6g} output_mismatches={len(problems)} "
          f"undersampled_lags/pass={undersampled[0]}")
    print(f"  {oracle_msg}")
    for problem in problems:
        print(f"  MISMATCH {problem}")
    if args.trace:
        print(f"  tracing overhead: traced pass {traced.wall_s:.4f} s - mean untraced "
              f"pass {statistics.fmean(walls):.4f} s")
        for c in cases:
            base = ROADMAP_ESTIMATE_MS.get(c["lag"]) if c["days"] == 2300 else None
            ref = f" (ROADMAP baseline {base:g} ms, ratio {c['estimate_ms'] / base:.2f})" if base else ""
            print(f"  probe estimate() n={c['days']} k=l={c['lag']} block order "
                  f"{c['block_order']}: {c['estimate_ms']:.1f} ms{ref}; shuffles "
                  f"{c['shuffle_ms']:.1f} ms, bootstrap {c['bootstrap_ms']:.1f} ms of which "
                  f"Markov regeneration {c['markov_regen_ms']:.1f} ms")
    print_table(metrics, stats)

    result = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u, _) in metrics.items()}}
    (WORK / f"last_{workload.name}_trace{args.trace}.json").write_text(
        json.dumps({"record": record, "problems": problems, "pass_walls_s": walls,
                    "result": result}, indent=1))
    for sub in WORK.iterdir():  # inputs and outputs of this run; the summary above stays
        if sub.is_dir():
            shutil.rmtree(sub)
    print(json.dumps(result))
    return 0


PER_LAYER = (
    [f"cli.{c}_s" for c in ("ingest", "index", "returns", "vol", "te", "lagsweep", "windows")]
    + [f"{layer}.self_s" for layer in LAYERS]
    + ["series.load_series_csv_ms", "series.rows_per_s", "trends.load_trend_csv_ms",
       "trends.build_composite_ms", "market.load_ohlc_csv_ms", "market.volatility_ms",
       "symbolic.symbolize_ms", "te.kernel_us", "te.joint_states_observed",
       "te.state_occupancy", "te.shuffle_ms", "te.bootstrap_ms", "te.markov_regen_ms",
       "te.evals", "pipeline.run_pair_ms", "pipeline.lag_sweep_s",
       "pipeline.window_analysis_s", "mem.import_mb", "mem.peak_rss_mb", "mem.shuffle_mb",
       "mem.bootstrap_mb"]
)


def record_digests() -> int:
    WORK.mkdir(exist_ok=True)
    runner = Runner()
    check_checkout(runner)
    table = {}
    for workload in WORKLOADS.values():
        for seed in range(RECORDED_SEEDS):
            runner = Runner()  # each pass gets the full time limit
            got = run_pass(runner, workload, prepare(workload, seed, "reference"), seed,
                           traced=False)
            if got.problems:
                raise SystemExit(f"{workload.name} seed {seed}: {got.problems}")
            table.setdefault(workload.name, {})[str(seed)] = got.digests
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="run every workload at seeds 0 to RECORDED_SEEDS - 1 and rewrite "
                        "the recorded report digests")
    args = p.parse_args(argv)
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        p.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
