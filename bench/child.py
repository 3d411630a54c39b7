"""Traced child processes of the benchmark; each writes one JSON file and exits.

    python3 bench/child.py cli OUT.json -- <teflow CLI arguments>
        Runs one CLI command in this fresh process with every layer traced.
    python3 bench/child.py probe OUT.json SEED
        Calls teflow.te.estimate directly at fixed sizes and lags.

``PYTHONPATH`` must point at the ``src`` directory of the checkout under test.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, instrument, kernel_inside, proc_status_kb  # noqa: E402

# (days, lag, block order): the n=2300 lags reproduce the estimate() baseline
# at the default block order (= l); lag 8 regenerates at order 1, because an
# order-8 chain can reach a source state never visited in 2300 days
PROBE_CASES = ((2300, 1, None), (2300, 3, None), (2300, 5, None), (2300, 8, 1), (20000, 1, None))


def _estimate_note(args, kwargs, result):
    target, source, config = args[:3]
    return {"config": config, "pair": (target, source)}


def _rows_note(args, kwargs, result):
    return {"rows": len(result)}


NOTES = {"te.estimate": _estimate_note,
         "series.load_series_csv": _rows_note,
         "trends.load_trend_csv": _rows_note}


def _estimates(tracer: Tracer, count_transitions) -> list[dict]:
    """Evaluations and joint-state coverage of every traced estimate() call.

    Coverage is counted after the traced work ends, with the untraced kernel,
    so it adds nothing to any span.
    """
    out = []
    for note in tracer.notes.values():
        if "config" not in note:
            continue
        cfg = note.pop("config")
        target, source = note.pop("pair")
        counts = count_transitions(target, source, cfg.k, cfg.l)
        out.append({"evals": 1 + cfg.n_shuffles + cfg.n_bootstrap,
                    "observed": len(counts.counts),
                    "possible": counts.alphabet_size ** (cfg.k + cfg.l + 1)})
    return out


def run_cli(out: Path, argv: list[str]) -> int:
    import teflow.cli
    import teflow.te

    count_transitions = teflow.te.count_transitions
    import_rss_kb = proc_status_kb("VmRSS:")
    tracer = Tracer()
    instrument(tracer, NOTES)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = teflow.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    categories: dict[str, int] = {}
    for w in caught:
        categories[w.category.__name__] = categories.get(w.category.__name__, 0) + 1
    estimates = _estimates(tracer, count_transitions)
    notes = {str(k): v for k, v in tracer.notes.items()}
    out.write_text(json.dumps({
        "exit_code": code, "spans": tracer.spans, "notes": notes, "estimates": estimates,
        "warnings": categories, "import_rss_kb": import_rss_kb,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


def run_probe(out: Path, seed: int) -> int:
    import teflow.te as te
    from teflow.symbolic import symbolize
    from inputs import Market

    pairs = {}
    for days in sorted({c[0] for c in PROBE_CASES}):
        market = Market(days + 1, 5, seed)
        source, target = market.pair_values()
        pairs[days] = (symbolize(target, (0.05, 0.95)), symbolize(source, (0.05, 0.95)))
    tracer = Tracer()
    instrument(tracer)
    cases = []
    for days, lag, order in PROBE_CASES:
        first = len(tracer.spans)
        cfg = te.TeConfig(k=lag, l=lag, block_order=order, seed=seed)
        t0 = time.perf_counter_ns()
        te.estimate(*pairs[days], cfg)
        wall = time.perf_counter_ns() - t0
        spans = tracer.spans[first:]
        rebased = [[n, s, e, p - first if p >= first else -1] for n, s, e, p in spans]
        inside = kernel_inside(rebased)
        boot = [i for i, sp in enumerate(rebased) if sp[0] == "te.bootstrap_inference"]
        shuf = [i for i, sp in enumerate(rebased) if sp[0] == "te.shuffle_surrogate_te"]
        top = [i for i, sp in enumerate(rebased) if sp[3] < 0]
        evals = 1 + cfg.n_shuffles + cfg.n_bootstrap
        cases.append({
            "days": days, "lag": lag, "block_order": order or lag,
            "estimate_ms": wall / 1e6,
            "kernel_us": sum(inside[i] for i in top) / evals / 1e3,
            "shuffle_ms": sum(rebased[i][2] - rebased[i][1] for i in shuf) / 1e6,
            "bootstrap_ms": sum(rebased[i][2] - rebased[i][1] for i in boot) / 1e6,
            "markov_regen_ms": sum(rebased[i][2] - rebased[i][1] - inside[i] for i in boot) / 1e6,
        })
    out.write_text(json.dumps({"cases": cases}))
    return 0


def main(argv: list[str]) -> int:
    mode, out = argv[0], Path(argv[1])
    if mode == "cli":
        return run_cli(out, argv[3:] if argv[2:3] == ["--"] else argv[2:])
    if mode == "probe":
        return run_probe(out, int(argv[2]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
