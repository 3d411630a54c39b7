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
from typing import Mapping

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

# count tables of at most this many transition tuples keep their first-seen
# order; longer ones are sorted into the order in which _te_rows sums them
_SMALL_N = 64

# codes per block of source rows in the kernel; bounds its working memory
_BLOCK_CODES = 1 << 15

# time steps of Markov-null uniforms drawn at once; bounds their memory to
# _NULL_CHUNK x n_bootstrap doubles
_NULL_CHUNK = 512

Pattern = tuple[int, ...]
CountKey = tuple[int, Pattern, Pattern]


def substream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Independent generator for one replication, derived from (seed, domain, index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(domain, index)))


def derive_seed(seed: int, domain: int, index: int) -> int:
    """Deterministic child seed; used to give each direction its own stream family."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, index))
    return int(ss.generate_state(1, np.uint64)[0])


def _check_log_base(log_base: float) -> None:
    """Reject a logarithm base that is not a finite number above 1 (nan included)."""
    if not 1.0 < log_base < math.inf:
        raise ConfigError("log_base must be a finite number > 1")


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
        _check_log_base(self.log_base)
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


def _history_codes(arr: np.ndarray, offset: int, n: int, depth: int, m: int,
                   dtype=np.int64) -> np.ndarray:
    """Base-m codes of the ``depth`` symbols before each step from ``offset``, per row of ``arr``.

    Built by Horner's rule in ``dtype``, the oldest symbol most significant.
    """
    codes = arr[..., offset - depth: n - depth].astype(dtype)
    for j in range(depth - 1, 0, -1):
        codes *= m
        codes += arr[..., offset - j: n - j]
    return codes


def _transition_counts(target: np.ndarray, source: np.ndarray,
                       k: int, l: int) -> dict[CountKey, int]:
    n = target.shape[0]
    h = max(k, l)
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
    else:
        for t in range(h, n):
            key = (tl[t], tuple(tl[t - k: t][::-1]), tuple(sl[t - l: t][::-1]))
            counts[key] = counts.get(key, 0) + 1
    if n - h <= _SMALL_N:
        return counts
    # ascending joint code: next symbol, then each history with its oldest symbol most significant
    return dict(sorted(counts.items(), key=lambda kv: (kv[0][0], kv[0][1][::-1], kv[0][2][::-1])))


def _te_rows(target: np.ndarray, sources: np.ndarray,
             k: int, l: int, m: int, log_base: float) -> np.ndarray:
    """Plug-in TE of ``target`` against each row of the ``(R, n)`` array ``sources``.

    Bit for bit what :func:`transfer_entropy` gives on the row's cells taken
    in ascending joint-code order: ratios from exact integer products, logs
    from ``math.log`` and each row summed left to right. Rows are keyed and
    sorted one block of views at a time, which bounds the working memory.
    """
    n = target.shape[0]
    h = max(k, l)
    span = n - h
    # per step, its target history's rank; per rank, its count and its counts by next symbol
    _, th_rank, th_tot = np.unique(_history_codes(target, h, n, k, m),
                                   return_inverse=True, return_counts=True)
    nxt_th = np.bincount(th_rank * m + target[h:], minlength=th_tot.size * m)
    # a cell that is its context's only cell has the ratio (c * T) / (c * N), which
    # rounds to the same double as T / N; tabulate its log per (target history, next)
    solo_log = np.fromiter(map(math.log, (np.repeat(th_tot, m) / np.maximum(nxt_th, 1)).tolist()),
                           float, nxt_th.size)
    # per step, the target's part of the context-major key (target history, source
    # history, next); the keys fit 32 bits at moderate lags, and int32 sorts faster
    dtype = np.int32 if th_tot.size * m ** (l + 1) < 1 << 31 else np.int64
    target_key = (th_rank * m ** (l + 1) + target[h:]).astype(dtype)
    sources = np.asarray(sources)
    step = max(1, _BLOCK_CODES // span)
    out = []
    for lo in range(0, sources.shape[0], step):
        block = sources[lo: lo + step]
        key = _history_codes(block, h, n, l, m, dtype)
        key *= m
        key += target_key
        key.sort(axis=1)
        key = key.ravel()
        # cells: runs of equal keys; each row's first key starts one, whatever precedes it
        new = np.empty(key.size, dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        new[::span] = True
        start = np.flatnonzero(new)
        row_first = np.searchsorted(start, np.arange(0, key.size, span))
        # rows in the narrowest type that holds row * m + next, which the stable
        # argsort below then sorts by radix
        row = np.repeat(np.arange(len(block), dtype=np.min_scalar_type(len(block) * m)),
                        np.diff(row_first, append=start.size))
        ctx, nxt = np.divmod(key[start], m)
        # contexts: runs of cells with one (target history, source history), split at rows
        first = np.empty(ctx.size, dtype=bool)
        first[0] = True
        np.not_equal(ctx[1:], ctx[:-1], out=first[1:])
        first[row_first] = True
        tn = ctx // m ** l * m + nxt  # per cell, its (target history, next) index
        count = np.diff(start, append=key.size)
        terms = count * solo_log[tn]
        # cells that share their context: runs of them make up each such context
        lone = first.copy()
        lone[:-1] &= first[1:]
        mixed = np.flatnonzero(~lone)
        c, tn = count[mixed], tn[mixed]
        shared = np.flatnonzero(first[mixed])
        ctx_count = np.repeat(np.add.reduceat(c, shared), np.diff(shared, append=mixed.size))
        ratio = (c * th_tot[tn // m]) / (ctx_count * nxt_th[tn])
        terms[mixed] = c * np.fromiter(map(math.log, ratio.tolist()), float, mixed.size)
        # put each row's cells in ascending joint-code order (next symbol, then the
        # context); the order moves cells only within a row, so ``row`` stays as it is
        order = np.argsort(row * m + nxt.astype(row.dtype), kind="stable")
        # bincount, unlike sum, adds each row's terms strictly left to right
        out.append(np.bincount(row, weights=terms[order], minlength=len(block)))
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
    counts = _transition_counts(np.asarray(target.symbols), np.asarray(source.symbols), k, l)
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
    _check_log_base(log_base)
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


def _shuffled_sources(source: np.ndarray, m: int, n_reps: int, seed: int) -> np.ndarray:
    """The source under ``n_reps`` uniform permutations, one row each.

    Each row's permutation comes from its own substream of ``seed``, so a row
    does not depend on how many are drawn.
    """
    n = source.shape[0]
    out = np.empty((n_reps, n), dtype=np.min_scalar_type(m - 1))
    for i in range(n_reps):
        out[i] = source[substream(seed, _DOMAIN_SHUFFLE, i).permutation(n)]
    return out


def shuffle_surrogate_te(target: SymbolSeries, source: SymbolSeries, config: TeConfig, *,
                         null_cache: NullCache | None = None) -> np.ndarray:
    """TE values after independent uniform permutations of the source symbols.

    The target is never touched. Each replication's permutation comes from its
    own substream of config.seed, so the returned vector does not depend on
    how the replications are batched. A ``null_cache`` reuses the shuffled
    sources of an earlier call of the same run.
    """
    m = _check_pair(target, source, config.k, config.l)
    args = (source.symbols, m, config.n_shuffles, config.seed)
    rows = (_shuffled_sources(*args) if null_cache is None
            else null_cache.draw(_shuffled_sources, *args))
    return _te_rows(target.symbols, rows, config.k, config.l, m, config.log_base)


def effective_transfer_entropy(target: SymbolSeries, source: SymbolSeries, config: TeConfig,
                               direction: str = "source->target", *,
                               null_cache: NullCache | None = None) -> TeEstimate:
    """Shuffle-corrected transfer entropy: raw TE minus the mean surrogate TE.

    Inference fields (std_err, p_value) are left absent; see
    :func:`bootstrap_inference` or :func:`estimate`. A ``null_cache`` reuses
    the shuffled sources of an earlier call of the same run.
    """
    m = _check_pair(target, source, config.k, config.l)
    te = float(_te_rows(target.symbols, source.symbols[None], config.k, config.l, m,
                        config.log_base)[0])
    surrogate_mean = float(shuffle_surrogate_te(target, source, config,
                                                null_cache=null_cache).mean())
    return TeEstimate(direction=direction, te=te, ete=te - surrogate_mean,
                      surrogate_mean=surrogate_mean, std_err=None, p_value=None,
                      n_effective=len(target) - max(config.k, config.l), config=config)


def _draw(u: np.ndarray, cuts: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The symbol each uniform in ``u`` draws from its state: how many of the state's cuts lie below it."""
    drawn = (u > cuts[0][states]).astype(np.intp)
    for cut in cuts[1:]:
        drawn += u > cut[states]
    return drawn


def _draw_stepwise(out: np.ndarray, lo: int, uniforms: np.ndarray, cuts: np.ndarray,
                   order: int) -> None:
    """Write the chunk of every chain from step ``lo`` one time step at a time."""
    m = cuts.shape[0] + 1
    carry = m ** (order - 1)
    states = _history_codes(out, lo, lo + 1, order, m)[:, 0]
    for t, u in enumerate(np.ascontiguousarray(uniforms.T), lo):
        drawn = _draw(u, cuts, states)
        out[:, t] = drawn
        states = drawn + m * (states % carry)


def _draw_in_rounds(out: np.ndarray, lo: int, uniforms: np.ndarray, cuts: np.ndarray,
                    order: int, upper: np.ndarray, lower: np.ndarray) -> None:
    """Write the chunk of every chain from step ``lo``: fixed steps at once, open steps in rounds."""
    m = cuts.shape[0] + 1
    width = uniforms.shape[1]
    fixed = np.zeros(uniforms.shape, out.dtype)
    above_lower = np.zeros(uniforms.shape, out.dtype)
    for up, low in zip(upper, lower):
        fixed += uniforms > up
        above_lower += uniforms > low
    out[:, lo: lo + width] = fixed
    # open: lower[j] < u <= upper[j] for some cut j
    idx = np.int32 if out.size < 1 << 31 else np.int64
    row, col = np.divmod(np.flatnonzero(fixed != above_lower).astype(idx), width)
    del fixed, above_lower
    u = uniforms[row, col]
    pos = row * out.shape[1] + col + lo  # into out.ravel(), where each chain's steps are in order
    del row, col
    # an open step waits for the open step before it when that is one of its
    # ``order`` predecessors; the trailing False ends the last chain
    waits = np.zeros(pos.size + 1, dtype=bool)
    np.less_equal(np.diff(pos), order, out=waits[1:-1])
    flat = out.reshape(-1)
    ready = np.flatnonzero(~waits[:-1])
    while ready.size:
        p = pos[ready]
        state = flat[p - order].astype(np.intp)
        for j in range(order - 1, 0, -1):
            state *= m
            state += flat[p - j]
        flat[p] = _draw(u[ready], cuts, state)
        ready += 1
        ready = ready[waits[ready]]


def _markov_null_sources(source: np.ndarray, m: int, order: int,
                         n_reps: int, seed: int) -> np.ndarray:
    """Regenerate the source ``n_reps`` times from its own order-q transition table.

    Preserves the source's dynamics while breaking any cross-coupling to the
    target. Each replication is a chain driven by uniforms from its own
    substream. Row s of the cumulative transition table gives state s its
    cuts ``cuts[j, s]`` = P(next symbol <= j | s) for j < m - 1, and a uniform
    u draws the number of cuts below it (the last cumulative value, 1, never
    lies below a uniform in [0, 1), so it is left out). The uniforms are drawn
    ``_NULL_CHUNK`` steps at a time; successive draws from one generator give
    the same doubles as a single draw of their total length.

    Per cut j, ``upper[j]`` and ``lower[j]`` are the largest and smallest
    ``cuts[j, s]`` over the visited states. A step is *fixed* when no cut has
    ``lower[j] < u <= upper[j]``: every visited state then draws the number of
    ``upper`` below u, so a chunk's fixed steps take m - 1 whole-array
    comparisons. The other steps are *open*. An open step is ready once the
    open step before it in its chain is settled, or lies more than ``order``
    steps back. Each round settles every ready step from the state its
    ``order`` predecessors give, so a chunk takes as many rounds as its
    longest run of dependent open steps.

    A round costs about two steps of a per-step loop. When the table leaves
    most steps waiting on an earlier open step (a persistent source, or a high
    order), all chains are instead stepped together one time step at a time.
    Both give the same draws.

    An unvisited state's cuts are all ones, so a chain that reaches it draws
    0 and stays in range. After each chunk every state in it is checked;
    every draw before the first unvisited state is exact, so this raises
    :class:`InsufficientData` exactly when a check before each step would.
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
    cuts = np.ones((m - 1, n_states))
    cuts[:, visited] = np.cumsum(table[visited] / row_tot[visited, None], axis=1)[:, :-1].T
    upper, lower = cuts[:, visited].max(axis=1), cuts[:, visited].min(axis=1)
    # a step is open with chance at most p_open; take rounds while fewer than half
    # of the steps have an open step among their ``order`` predecessors
    p_open = min(1.0, float((upper - lower).sum()))
    in_rounds = 1.0 - (1.0 - p_open) ** order < 0.5

    out = np.empty((n_reps, n), dtype=np.min_scalar_type(m - 1))
    rngs = [substream(seed, _DOMAIN_BOOTSTRAP, i) for i in range(n_reps)]
    starts = np.fromiter((rng.integers(ctx.shape[0]) for rng in rngs), np.int64, n_reps)
    out[:, :order] = source[starts[:, None] + np.arange(order)]
    uniforms = np.empty((n_reps, min(_NULL_CHUNK, n - order)))
    for lo in range(order, n, _NULL_CHUNK):
        hi = min(lo + _NULL_CHUNK, n)
        chunk = uniforms[:, : hi - lo]
        for row, rng in zip(chunk, rngs):
            rng.random(out=row)
        if in_rounds:
            _draw_in_rounds(out, lo, chunk, cuts, order, upper, lower)
        else:
            _draw_stepwise(out, lo, chunk, cuts, order)
        # a table whose states were all visited leaves no state to check
        if not visited.all() and not visited[_history_codes(out, lo, hi, order, m, np.int32)].all():
            raise InsufficientData(
                "bootstrap regeneration reached a source Markov state never visited in the data"
            )
    return out


class NullCache:
    """The shuffled and Markov-bootstrap null sources of one run, reused on an exact match.

    A set is keyed by the sha256 of the source symbols and the draw function's
    other arguments (alphabet size, replication count, seed, and the block
    order for Markov nulls), and is reused only when the whole key matches, so
    reuse cannot change a result. One set is held per (draw function, seed),
    and a new key for that slot replaces it: a run derives one seed per
    direction, so it holds one shuffle set and one null set per direction.
    Held arrays are read-only.
    """

    def __init__(self):
        self._store: dict[tuple, tuple[tuple, np.ndarray]] = {}

    def draw(self, draw, source: np.ndarray, *args) -> np.ndarray:
        """``draw(source, *args)``, drawn once per key; ``args`` ends with the seed."""
        slot = (draw, args[-1])
        key = (hashlib.sha256(source.tobytes()).digest(), *args)
        held = self._store.get(slot)
        if held is None or held[0] != key:
            self._store.pop(slot, None)  # free the old set before drawing its replacement
            rows = draw(source, *args)
            rows.flags.writeable = False
            held = self._store[slot] = (key, rows)
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
        observed_te = float(_te_rows(t, s[None], config.k, config.l, m, config.log_base)[0])
    args = (s, m, config.effective_block_order, config.n_bootstrap, config.seed)
    nulls_src = (_markov_null_sources(*args) if null_cache is None
                 else null_cache.draw(_markov_null_sources, *args))
    null_tes = _te_rows(t, nulls_src, config.k, config.l, m, config.log_base)
    std_err = float(null_tes.std(ddof=1)) if config.n_bootstrap > 1 else 0.0
    p_value = float(np.count_nonzero(null_tes >= observed_te) / config.n_bootstrap)
    return std_err, p_value


def estimate(target: SymbolSeries, source: SymbolSeries, config: TeConfig,
             direction: str = "source->target", *,
             null_cache: NullCache | None = None) -> TeEstimate:
    """Full directional estimate: TE, ETE, and bootstrap inference in one record."""
    est = effective_transfer_entropy(target, source, config, direction=direction,
                                     null_cache=null_cache)
    std_err, p_value = bootstrap_inference(target, source, config, observed_te=est.te,
                                           null_cache=null_cache)
    return replace(est, std_err=std_err, p_value=p_value)
