"""Regenerate the bundled fixture CSVs (illustrative synthetic data, not real quotes).

Run from the repository root:  python3 tests/fixtures/gen_fixtures.py
"""

import csv
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np

HERE = Path(__file__).parent
N_DAYS = 620
KEYWORDS = ("Bitcoin", "BTC", "cryptocurrency", "blockchain", "crypto")


def main():
    rng = np.random.default_rng(20170101)
    start = date(2017, 1, 1)
    days = [start + timedelta(days=i) for i in range(N_DAYS)]

    # geometric random walk with intraday range; a few missing exchange days
    returns = rng.normal(0.001, 0.035, size=N_DAYS)
    closes = 1000.0 * np.exp(np.cumsum(returns))
    missing = set(rng.choice(np.arange(30, N_DAYS - 20), size=5, replace=False).tolist())

    with open(HERE / "ohlc.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "open", "high", "low", "close"])
        prev_close = 1000.0
        for i, day in enumerate(days):
            c = closes[i]
            o = prev_close * math.exp(rng.normal(0, 0.004))
            hi = max(o, c) * math.exp(abs(rng.normal(0, 0.012)))
            lo = min(o, c) * math.exp(-abs(rng.normal(0, 0.012)))
            prev_close = c
            if i in missing:
                continue
            w.writerow([day.isoformat()] + [f"{v:.2f}" for v in (o, hi, lo, c)])

    # keyword attention: sticky level nudged by yesterday's absolute move
    trends_dir = HERE / "trends"
    trends_dir.mkdir(exist_ok=True)
    for kw_i, kw in enumerate(KEYWORDS):
        base = 25.0 + 8.0 * kw_i
        level = base
        rows = []
        for i, day in enumerate(days):
            shock = 180.0 * abs(returns[i - 1]) if i > 0 else 0.0
            level = base + 0.75 * (level - base) + shock + rng.normal(0, 2.5)
            value = int(min(100, max(1, round(level))))
            rows.append((day.isoformat(), value))
        path = trends_dir / f"{kw}.csv"
        with open(path, "w", newline="") as fh:
            if kw == "cryptocurrency":
                # provider-style export preamble; exercises preamble skipping
                fh.write("Category: All categories\n\n")
                fh.write(f"Day,{kw}: (Worldwide)\n")
            else:
                fh.write("date,value\n")
            for d, v in rows:
                fh.write(f"{d},{v}\n")
    print(f"wrote ohlc.csv ({N_DAYS - len(missing)} bars) and {len(KEYWORDS)} trend files")


if __name__ == "__main__":
    main()
