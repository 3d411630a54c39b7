"""Plug-in transfer entropy, shuffle-corrected effective transfer entropy, and
Markov-bootstrap inference on symbolized series.

All estimators are pure functions of (input, config, seed). Replications draw
from substreams derived deterministically from (seed, replication index). The
observed TE, every shuffle surrogate and every bootstrap null go through one
batched kernel, :func:`_te_rows`, so ties between them are exact.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyCounts,
    InsufficientData,
    InternalConsistencyError,
    LengthMismatch,
    SeriesTooShort,
)
from .symbolic import SymbolSeries, validate_cuts

NEGATIVE_CLAMP = 1e-12

# spawn-key domains for substream derivation
_DOMAIN_SHUFFLE = 1
_DOMAIN_BOOTSTRAP = 2
_DOMAIN_DIRECTION = 3

# below this many transition tuples a plain Python loop beats numpy dispatch
_SMALL_N = 64

# codes per block of source rows in the kernel; bounds its working memory
_BLOCK_CODES = 1 << 15

# time steps of Markov-null uniforms drawn at once; bounds their memory to
# _NULL_CHUNK x n_bootstrap doubles
_NULL_CHUNK = 1024

Pattern = tuple[int, ...]
CountKey = tuple[int, Pattern, Pattern]


def substream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Independent generator for one replication, derived from (seed, domain, index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(domain, index)))


def derive_seed(seed: int, domain: int, index: int) -> int:
    """Deterministic child seed; used to give each direction its own stream family."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, index))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class TeConfig:
    """Estimator configuration.

    ``k`` and ``l`` are the target and source history lengths. ``block_order``
    is the Markov order of the bootstrap source regeneration; None means
    "follow l". The alphabet size is always len(quantile_cuts) + 1.
    """

    k: int = 1
    l: int = 1
    quantile_cuts: tuple[float, ...] = (0.05, 0.95)
    log_base: float = 2.0
    n_shuffles: int = 100
    n_bootstrap: int = 300
    block_order: int | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "quantile_cuts", validate_cuts(self.quantile_cuts))
        if self.k < 1 or self.l < 1:
            raise ConfigError("history lengths k and l must be >= 1")
        if self.log_base <= 1.0:
            raise ConfigError("log_base must be > 1")
        if self.n_shuffles < 1:
            raise ConfigError("n_shuffles must be >= 1")
        if self.n_bootstrap < 0:
            raise ConfigError("n_bootstrap must be >= 0")
        if self.block_order is not None and self.block_order < 1:
            raise ConfigError("block_order must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be unsigned")

    @property
    def alphabet_size(self) -> int:
        return len(self.quantile_cuts) + 1

    @property
    def effective_block_order(self) -> int:
        return self.block_order if self.block_order is not None else self.l

    def digest(self) -> str:
        """Short stable fingerprint for report rows."""
        payload = repr((self.k, self.l, self.quantile_cuts, self.log_base,
                        self.n_shuffles, self.n_bootstrap, self.effective_block_order,
                        self.seed))
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class TeEstimate:
    """One directional result; mirrors the TE / ETE / Std.Err. / p-value report schema."""

    direction: str
    te: float
    ete: float
    surrogate_mean: float
    std_err: float | None
    p_value: float | None
    n_effective: int
    config: TeConfig

    def __post_init__(self):
        if self.te < 0:
            raise InternalConsistencyError(f"te must be >= 0, got {self.te}")
        if self.ete != self.te - self.surrogate_mean:
            raise InternalConsistencyError("ete must equal te - surrogate_mean exactly")
        if self.std_err is not None and self.std_err < 0:
            raise InternalConsistencyError("std_err must be >= 0")
        if self.p_value is not None and not (0.0 <= self.p_value <= 1.0):
            raise InternalConsistencyError("p_value must lie in [0, 1]")


@dataclass(frozen=True)
class JointCounts:
    """Plug-in frequency table over (next target symbol, target history, source history).

    Histories are tuples ordered most-recent-first; the tuple at step t pairs
    target[t] with the target history ending at t-1 and the source history
    ending at t-1, so contemporaneous source values never predict the
    same-step target. Values are counts, or the probabilities of an exact
    population table.
    """

    counts: Mapping[CountKey, float]
    k: int
    l: int
    alphabet_size: int

    @property
    def n_effective(self) -> int:
        return sum(self.counts.values())


def _patterns(codes: np.ndarray, m: int, length: int) -> list[Pattern]:
    """History codes decoded into tuples, most recent symbol first."""
    return list(map(tuple, (codes[:, None] // m ** np.arange(length) % m).tolist()))


def _history_codes(arr: np.ndarray, offset: int, n: int, depth: int, m: int) -> np.ndarray:
    """Base-m codes of the ``depth`` symbols before each step, per row of ``arr``."""
    codes = np.zeros(arr.shape[:-1] + (n - offset,), dtype=np.int64)
    for j in range(1, depth + 1):
        codes += arr[..., offset - j: n - j] * m ** (j - 1)
    return codes


def _target_side(target: np.ndarray, k: int, h: int, m: int):
    """Per step, its target history's rank; per rank, its code, count and counts by next symbol."""
    th_codes, th_rank, th_tot = np.unique(_history_codes(target, h, target.shape[0], k, m),
                                          return_inverse=True, return_counts=True)
    nxt_th = np.bincount(th_rank * m + target[h:], minlength=th_codes.size * m).reshape(-1, m)
    return th_rank, th_codes, th_tot, nxt_th


def _block_cells(target: np.ndarray, th_rank: np.ndarray, block: np.ndarray,
                 h: int, l: int, m: int):
    """Observed cells of each source row in ``block``: (row, next symbol, target
    history rank, source history code, count, context count), each row's cells
    in ascending joint-code order (next symbol most significant, then the
    histories, each with its most recent symbol least significant)."""
    # context-major key, so that the cells of one context sit side by side
    key = (th_rank * m ** l + _history_codes(block, h, target.shape[0], l, m)) * m + target[h:]
    key.sort(axis=1)
    new = np.ones(key.shape, dtype=bool)
    new[:, 1:] = key[:, 1:] != key[:, :-1]
    row, col = np.nonzero(new)
    count = np.diff(row * key.shape[1] + col, append=key.size)
    ctx, nxt = np.divmod(key[row, col], m)
    first = np.flatnonzero((col == 0) | (ctx != np.roll(ctx, 1)))
    ctx_count = np.repeat(np.add.reduceat(count, first), np.diff(first, append=ctx.size))
    order = np.argsort(row * m + nxt, kind="stable")
    th, sh = np.divmod(ctx[order], m ** l)
    return row[order], nxt[order], th, sh, count[order], ctx_count[order]


def _transition_counts(target: np.ndarray, source: np.ndarray,
                       k: int, l: int, m: int) -> dict[CountKey, int]:
    n = target.shape[0]
    h = max(k, l)
    if n - h <= _SMALL_N:
        counts: dict[CountKey, int] = {}
        tl = target.tolist()
        sl = source.tolist()
        if k == 1 and l == 1:
            prev_t = tl[0]
            prev_s = sl[0]
            for t in range(1, n):
                cur = tl[t]
                key = (cur, (prev_t,), (prev_s,))
                counts[key] = counts.get(key, 0) + 1
                prev_t = cur
                prev_s = sl[t]
            return counts
        for t in range(h, n):
            key = (tl[t], tuple(tl[t - k: t][::-1]), tuple(sl[t - l: t][::-1]))
            counts[key] = counts.get(key, 0) + 1
        return counts

    th_rank, th_codes, _, _ = _target_side(target, k, h, m)
    _, nxt, th, sh, count, _ = _block_cells(target, th_rank, source[None], h, l, m)
    keys = zip(nxt.tolist(), _patterns(th_codes[th], m, k), _patterns(sh, m, l))
    return dict(zip(keys, count.tolist()))


def _te_rows(target: np.ndarray, sources: Iterable[np.ndarray],
             k: int, l: int, m: int, log_base: float) -> np.ndarray:
    """Plug-in TE of ``target`` against each source row, in order.

    Bit for bit what :func:`transfer_entropy` gives on the row's cells taken
    in ascending joint-code order: ratios from exact integer products, logs
    from ``math.log`` and each row summed left to right. Rows are drawn from
    ``sources`` one block at a time, so a lazy iterable is never held whole.
    """
    h = max(k, l)
    span = target.shape[0] - h
    th_rank, _, th_tot, nxt_th = _target_side(target, k, h, m)
    sources = iter(sources)
    out = []
    while rows := list(islice(sources, max(1, _BLOCK_CODES // span))):
        block = np.stack(rows, dtype=np.int64)  # Markov null sources arrive as int16
        row, nxt, th, _, count, ctx_count = _block_cells(target, th_rank, block, h, l, m)
        ratio = (count * th_tot[th]) / (ctx_count * nxt_th[th, nxt])
        terms = count * np.fromiter(map(math.log, ratio.tolist()), float, ratio.size)
        # bincount, unlike sum, adds each row's terms strictly left to right
        out.append(np.bincount(row, weights=terms, minlength=len(rows)))
    te = np.concatenate(out) / (span * math.log(log_base))
    if (te < -NEGATIVE_CLAMP).any():
        raise InternalConsistencyError(f"plug-in TE below -{NEGATIVE_CLAMP}: {te.min()}")
    return np.maximum(te, 0.0)


def _check_pair(target: SymbolSeries, source: SymbolSeries, k: int, l: int) -> int:
    if len(target) != len(source):
        raise LengthMismatch(f"target has {len(target)} symbols, source has {len(source)}")
    h = max(k, l)
    if len(target) <= h:
        raise SeriesTooShort(f"need more than max(k, l) = {h} observations, got {len(target)}")
    m = max(target.alphabet_size, source.alphabet_size)
    if (k + l + 1) * math.log2(max(m, 2)) > 62:
        raise ConfigError("joint state space exceeds 64-bit encoding; reduce k, l or the alphabet")
    return m


def count_transitions(target: SymbolSeries, source: SymbolSeries, k: int, l: int) -> JointCounts:
    """Count (next, target history, source history) tuples.

    One tuple per step t from max(k, l) to len-1; the total equals
    len - max(k, l).
    """
    if k < 1 or l < 1:
        raise ConfigError("history lengths k and l must be >= 1")
    m = _check_pair(target, source, k, l)
    counts = _transition_counts(np.asarray(target.symbols), np.asarray(source.symbols), k, l, m)
    return JointCounts(counts=counts, k=k, l=l, alphabet_size=m)


def transfer_entropy(counts: JointCounts, log_base: float = 2.0) -> float:
    """Plug-in Shannon transfer entropy from a transition count table.

    Computes sum over observed cells of p(next, th, sh) *
    log[ p(next | th, sh) / p(next | th) ] with empirical conditionals;
    cells with zero joint probability contribute nothing. The result is a
    Kullback-Leibler quantity and therefore nonnegative; rounding noise
    below 1e-12 is clamped to zero, anything more negative is an internal
    error.
    """
    if not counts.counts:
        raise EmptyCounts("transition table is empty")
    if log_base <= 1.0:
        raise ConfigError("log_base must be > 1")
    total = 0
    ctx: dict[tuple[Pattern, Pattern], int] = {}
    nxt_th: dict[tuple[int, Pattern], int] = {}
    th_tot: dict[Pattern, int] = {}
    for (nxt, th, sh), c in counts.counts.items():
        total += c
        ctx_key = (th, sh)
        ctx[ctx_key] = ctx.get(ctx_key, 0) + c
        nt_key = (nxt, th)
        nxt_th[nt_key] = nxt_th.get(nt_key, 0) + c
        th_tot[th] = th_tot.get(th, 0) + c
    acc = 0.0
    for (nxt, th, sh), c in counts.counts.items():
        # p(n|th,sh)/p(n|th) = (c * th_total) / (ctx_total * nxt_th_total), exact in ints
        acc += c * math.log(c * th_tot[th] / (ctx[(th, sh)] * nxt_th[(nxt, th)]))
    te = acc / (total * math.log(log_base))
    if te < 0.0:
        if te < -NEGATIVE_CLAMP:
            raise InternalConsistencyError(f"plug-in TE below -{NEGATIVE_CLAMP}: {te}")
        te = 0.0
    return te


def shuffle_surrogate_te(target: SymbolSeries, source: SymbolSeries, config: TeConfig,
                         permutations: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """TE values after independent uniform permutations of the source symbols.

    The target is never touched. Each replication's permutation comes from its
    own substream of config.seed, so the returned vector does not depend on
    how the replications are batched. ``permutations`` overrides the drawn
    permutations (test hook, e.g. a forced identity permutation).
    """
    m = _check_pair(target, source, config.k, config.l)
    s = source.symbols
    if permutations is None:
        permutations = (substream(config.seed, _DOMAIN_SHUFFLE, i).permutation(len(s))
                        for i in range(config.n_shuffles))
    elif len(permutations) == 0:
        raise ConfigError("need at least one permutation")
    return _te_rows(target.symbols, (s[p] for p in permutations),
                    config.k, config.l, m, config.log_base)


def effective_transfer_entropy(target: SymbolSeries, source: SymbolSeries, config: TeConfig,
                               direction: str = "source->target") -> TeEstimate:
    """Shuffle-corrected transfer entropy: raw TE minus the mean surrogate TE.

    Inference fields (std_err, p_value) are left absent; see
    :func:`bootstrap_inference` or :func:`estimate`.
    """
    m = _check_pair(target, source, config.k, config.l)
    te = float(_te_rows(target.symbols, [source.symbols], config.k, config.l, m,
                        config.log_base)[0])
    surrogate_mean = float(shuffle_surrogate_te(target, source, config).mean())
    return TeEstimate(direction=direction, te=te, ete=te - surrogate_mean,
                      surrogate_mean=surrogate_mean, std_err=None, p_value=None,
                      n_effective=len(target) - max(config.k, config.l), config=config)


def _markov_null_sources(source: np.ndarray, m: int, order: int,
                         n_reps: int, seed: int) -> np.ndarray:
    """Regenerate the source ``n_reps`` times from its own order-q transition table.

    Preserves the source's dynamics while breaking any cross-coupling to the
    target. All replications evolve jointly (vectorized across chains), each
    driven by uniforms from its own substream. The uniforms are drawn
    ``_NULL_CHUNK`` steps at a time; successive draws from one generator give
    the same doubles as a single draw of their total length.
    """
    n = source.shape[0]
    if n <= order:
        raise SeriesTooShort(f"need more than block_order = {order} observations")
    n_states = m ** order
    if n_states * m > (1 << 24):
        raise ConfigError("bootstrap state space too large; reduce block_order or alphabet")
    ctx = _history_codes(source, order, n, order, m)
    nxt = source[order:]
    table = np.bincount(ctx * m + nxt, minlength=n_states * m).reshape(n_states, m)
    row_tot = table.sum(axis=1)
    visited = row_tot > 0
    cum = np.zeros((n_states, m))
    cum[visited] = np.cumsum(table[visited] / row_tot[visited, None], axis=1)
    cum[visited, -1] = 1.0  # exact upper bound regardless of rounding

    # m <= 4096 by the check above, so int16 holds every symbol at a quarter of the memory
    out = np.empty((n_reps, n), dtype=np.int16)
    states = np.empty(n_reps, dtype=np.int64)
    rngs = []
    for i in range(n_reps):
        rng = substream(seed, _DOMAIN_BOOTSTRAP, i)
        start = int(rng.integers(ctx.shape[0]))
        states[i] = ctx[start]
        out[i, :order] = source[start: start + order]
        rngs.append(rng)

    carry = m ** (order - 1)
    uniforms = np.empty((min(_NULL_CHUNK, n - order), n_reps))
    for lo in range(order, n, _NULL_CHUNK):
        hi = min(lo + _NULL_CHUNK, n)
        for i, rng in enumerate(rngs):
            uniforms[: hi - lo, i] = rng.random(hi - lo)
        for t in range(lo, hi):
            if not visited[states].all():
                raise InsufficientData(
                    "bootstrap regeneration reached a source Markov state never visited in the data"
                )
            rows = cum[states]
            drawn = (uniforms[t - lo, :, None] > rows).sum(axis=1)
            out[:, t] = drawn
            states = drawn + m * (states % carry)
    return out


class NullCache:
    """The Markov-bootstrap null sources of one run, reused on an exact match.

    A set is keyed by (sha256 of the source symbols, alphabet size, block
    order, replication count, seed) and reused only when the whole key
    matches, so reuse cannot change a result. One set is held per seed, and a
    new key for that seed replaces it: a run derives one seed per direction,
    so it holds one set per direction. Held arrays are read-only.
    """

    def __init__(self):
        self._sets: dict[int, tuple[tuple, np.ndarray]] = {}

    def sources(self, source: np.ndarray, m: int, order: int, n_reps: int,
                seed: int) -> np.ndarray:
        """The null sources :func:`_markov_null_sources` gives for these arguments."""
        key = (hashlib.sha256(source.tobytes()).digest(), m, order, n_reps, seed)
        held = self._sets.get(seed)
        if held is None or held[0] != key:
            self._sets.pop(seed, None)  # free the old set before drawing its replacement
            nulls = _markov_null_sources(source, m, order, n_reps, seed)
            nulls.flags.writeable = False
            held = self._sets[seed] = (key, nulls)
        return held[1]


def bootstrap_inference(target: SymbolSeries, source: SymbolSeries, config: TeConfig,
                        observed_te: float | None = None, *,
                        null_cache: NullCache | None = None) -> tuple[float | None, float | None]:
    """Markov block-bootstrap null distribution for the observed TE.

    The source is regenerated ``n_bootstrap`` times at Markov order
    ``block_order`` (its own dynamics preserved, coupling destroyed); returns
    (std_err, p_value) where p is the fraction of null TEs at or above the
    observed TE. With n_bootstrap = 0 both are reported absent. A
    ``null_cache`` reuses the sources regenerated by an earlier call of the
    same run; without one they are regenerated on every call.
    """
    if config.n_bootstrap == 0:
        return None, None
    m = _check_pair(target, source, config.k, config.l)
    t, s = target.symbols, source.symbols
    if observed_te is None:
        observed_te = float(_te_rows(t, [s], config.k, config.l, m, config.log_base)[0])
    regenerate = _markov_null_sources if null_cache is None else null_cache.sources
    nulls_src = regenerate(s, m, config.effective_block_order, config.n_bootstrap, config.seed)
    null_tes = _te_rows(t, nulls_src, config.k, config.l, m, config.log_base)
    std_err = float(null_tes.std(ddof=1)) if config.n_bootstrap > 1 else 0.0
    p_value = float(np.count_nonzero(null_tes >= observed_te) / config.n_bootstrap)
    return std_err, p_value


def estimate(target: SymbolSeries, source: SymbolSeries, config: TeConfig,
             direction: str = "source->target", *,
             null_cache: NullCache | None = None) -> TeEstimate:
    """Full directional estimate: TE, ETE, and bootstrap inference in one record."""
    est = effective_transfer_entropy(target, source, config, direction=direction)
    std_err, p_value = bootstrap_inference(target, source, config, observed_te=est.te,
                                           null_cache=null_cache)
    return replace(est, std_err=std_err, p_value=p_value)
