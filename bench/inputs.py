"""Synthetic inputs for the benchmark workloads, made only from a workload seed.

Same market/attention model as ``tests/fixtures/gen_fixtures.py``: a
geometric random walk with intraday ranges and a few missing exchange days,
and per-keyword attention levels that are sticky and nudged by yesterday's
absolute move. Extended here to any number of days and to the 38 terms of
the ``full`` keyword preset. The program under test only ever sees the CSV
files written by this module.
"""

from __future__ import annotations

import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np

# the 38 terms of the `full` preset; the study workload feeds one file per term
FULL_KEYWORDS = (
    "AES256", "crypto crash", "miner", "Mount Gox", "altcoin", "cryptocurrency",
    "minted", "Mt Gox", "anonymity", "cryptography", "public key", "Mt. Gox",
    "Bitcoin", "digital assets", "ripple", "private key", "block producer",
    "distributed ledger", "satoshi", "Proof of Authority", "blockchain", "ethereum",
    "soft fork", "Proof of Burn", "BTC", "hard fork", "stablecoin", "Proof of Stake",
    "coin", "hash", "tether", "Proof of Work", "consensus", "hashing", "token",
    "crypto", "ICO", "virtual currency",
)


class Market:
    """Daily bars and keyword attention levels for ``n_days`` consecutive days."""

    def __init__(self, n_days: int, n_keywords: int, seed: int,
                 start: date = date(2017, 1, 1)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n_days,)))
        self.days = [start + timedelta(days=i) for i in range(n_days)]
        self.returns = rng.normal(0.001, 0.035, size=n_days)
        self.closes = 1000.0 * np.exp(np.cumsum(self.returns))
        prev = np.concatenate(([1000.0], self.closes[:-1]))
        self.opens = prev * np.exp(rng.normal(0, 0.004, size=n_days))
        self.highs = np.maximum(self.opens, self.closes) * np.exp(np.abs(rng.normal(0, 0.012, n_days)))
        self.lows = np.minimum(self.opens, self.closes) * np.exp(-np.abs(rng.normal(0, 0.012, n_days)))
        n_missing = max(5, n_days // 400)
        self.missing = set(rng.choice(np.arange(30, n_days - 20), size=n_missing,
                                      replace=False).tolist())
        shock = np.concatenate(([0.0], 180.0 * np.abs(self.returns[:-1])))
        self.levels = []
        for kw_i in range(n_keywords):
            base = 25.0 + 50.0 * kw_i / max(n_keywords, 1)
            noise = rng.normal(0, 2.5, size=n_days)
            level = base
            out = np.empty(n_days)
            for i in range(n_days):
                level = base + 0.75 * (level - base) + shock[i] + noise[i]
                out[i] = level
            self.levels.append(np.clip(np.round(out), 1, 100).astype(int))

    def write_ohlc(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("date,open,high,low,close\n")
            for i, day in enumerate(self.days):
                if i in self.missing:
                    continue
                fh.write(f"{day.isoformat()},{self.opens[i]:.2f},{self.highs[i]:.2f},"
                         f"{self.lows[i]:.2f},{self.closes[i]:.2f}\n")

    def write_trends(self, directory: Path, keywords) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for kw_i, (kw, values) in enumerate(zip(keywords, self.levels)):
            with open(directory / f"{kw}.csv", "w") as fh:
                if kw_i % 5 == 2:
                    # provider-style export preamble; exercises tolerant parsing
                    fh.write("Category: All categories\n\n")
                    fh.write(f"Day,{kw}: (Worldwide)\n")
                else:
                    fh.write("date,value\n")
                for day, v in zip(self.days, values.tolist()):
                    fh.write(f"{day.isoformat()},{v}\n")

    def pair_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Attention-index first difference (source) and log returns (target), aligned."""
        return np.diff(np.mean(self.levels, axis=0)), self.returns[1:]

    def write_pair(self, source_path: Path, target_path: Path) -> None:
        for path, values in zip((source_path, target_path), self.pair_values()):
            with open(path, "w") as fh:
                fh.write("date,value\n")
                for day, v in zip(self.days[1:], values.tolist()):
                    fh.write(f"{day.isoformat()},{v!r}\n")


def copy_process_te_bits(noise: float) -> float:
    """Population TE of a binary copy process with flip probability ``noise``: 1 - H(noise)."""
    return 1.0 + noise * math.log2(noise) + (1 - noise) * math.log2(1 - noise)
