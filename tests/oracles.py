"""Independent reference implementations used to validate the library.

Everything here recounts from raw sequences with plain Python and probability
arithmetic, except the Markov null reference, which needs numpy's generators;
nothing is shared with the production code paths.
"""

import functools
import itertools
import math

import numpy as np


def naive_transfer_entropy(target, source, k=1, l=1, base=2.0):
    """Triple-loop plug-in transfer entropy.

    Walks every possible (next, target-history, source-history) pattern and
    sums p * log(ratio of conditionals) from frequency tables built by a
    direct scan of the sequences.
    """
    target = list(target)
    source = list(source)
    n = len(target)
    h = max(k, l)
    full = {}
    ctx = {}
    nxt_hist = {}
    hist = {}
    for t in range(h, n):
        th = tuple(target[t - k: t][::-1])
        sh = tuple(source[t - l: t][::-1])
        nx = target[t]
        full[(nx, th, sh)] = full.get((nx, th, sh), 0) + 1
        ctx[(th, sh)] = ctx.get((th, sh), 0) + 1
        nxt_hist[(nx, th)] = nxt_hist.get((nx, th), 0) + 1
        hist[th] = hist.get(th, 0) + 1
    total = n - h
    m_t = max(target) + 1
    m_s = max(source) + 1
    te = 0.0
    for nx in range(m_t):
        for th in itertools.product(range(m_t), repeat=k):
            for sh in itertools.product(range(m_s), repeat=l):
                c = full.get((nx, th, sh), 0)
                if c == 0:
                    continue
                p_joint = c / total
                p_cond_full = c / ctx[(th, sh)]
                p_cond_marg = nxt_hist[(nx, th)] / hist[th]
                te += p_joint * math.log(p_cond_full / p_cond_marg, base)
    return te


def naive_te_binary_lag1(x, y):
    """Brute-force plug-in TE (bits) for binary sequences at k = l = 1.

    Counts the 8 possible (next, target-prev, source-prev) patterns straight
    off the sequences, then sums the ratio-of-conditionals formula over the
    pattern space. Shaped for the exhaustive equivalence sweep: the log
    arithmetic is cached per distinct count table.
    """
    cells = [0] * 8
    for t in range(1, len(y)):
        cells[y[t] * 4 + y[t - 1] * 2 + x[t - 1]] += 1
    return _te_from_cells(tuple(cells))


@functools.lru_cache(maxsize=None)
def _te_from_cells(cells):
    total = sum(cells)
    te = 0.0
    for yh in (0, 1):
        hist = (cells[0 * 4 + yh * 2 + 0] + cells[0 * 4 + yh * 2 + 1]
                + cells[1 * 4 + yh * 2 + 0] + cells[1 * 4 + yh * 2 + 1])
        if hist == 0:
            continue
        for nx in (0, 1):
            nh = cells[nx * 4 + yh * 2 + 0] + cells[nx * 4 + yh * 2 + 1]
            for xh in (0, 1):
                c = cells[nx * 4 + yh * 2 + xh]
                if c == 0:
                    continue
                ctx = cells[0 * 4 + yh * 2 + xh] + cells[1 * 4 + yh * 2 + xh]
                te += (c / total) * math.log2((c / ctx) / (nh / hist))
    return te


def naive_symbolize(values, edges):
    """Symbol = number of edges strictly below the value (ties go down)."""
    return [sum(1 for e in edges if e < v) for v in values]


def binary_entropy_bits(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def markov_pair_te_bits(source_matrix, target_tensor, power_steps=4096):
    """Exact TE (k=l=1, bits) of a jointly Markov pair by 8-cell summation.

    The stationary distribution comes from repeated squaring of the joint
    transition matrix, a different route from the library's power iteration.
    """
    m_x = len(source_matrix)
    m_y = len(target_tensor)
    size = m_x * m_y
    trans = [[0.0] * size for _ in range(size)]
    for x in range(m_x):
        for y in range(m_y):
            for x2 in range(m_x):
                for y2 in range(m_y):
                    trans[x * m_y + y][x2 * m_y + y2] = (
                        source_matrix[x][x2] * target_tensor[y][x][y2]
                    )

    def matmul(a, b):
        return [[sum(a[i][r] * b[r][j] for r in range(size)) for j in range(size)]
                for i in range(size)]

    power = trans
    steps = 1
    while steps < power_steps:
        power = matmul(power, power)
        steps *= 2
    pi = [sum(power[r][s] for r in range(size)) / size for s in range(size)]

    # p(y_next, y, x) = pi(x, y) * sum_x' A[x,x'] * B[y,x,y_next] = pi(x,y) * B[y,x,y_next]
    te = 0.0
    for y2 in range(m_y):
        for y in range(m_y):
            for x in range(m_x):
                p = pi[x * m_y + y] * target_tensor[y][x][y2]
                if p == 0.0:
                    continue
                p_ctx = pi[x * m_y + y]
                p_cond_full = p / p_ctx
                p_hist = sum(pi[xx * m_y + y] for xx in range(m_x))
                p_nxt_hist = sum(pi[xx * m_y + y] * target_tensor[y][xx][y2]
                                 for xx in range(m_x))
                p_cond_marg = p_nxt_hist / p_hist
                te += p * math.log2(p_cond_full / p_cond_marg)
    return te


def markov_null_one_shot(source, m, order, n_reps, seed, domain=2):
    """Markov-bootstrap null sources with all uniforms drawn in one call.

    Per replication: a generator from SeedSequence(seed, spawn_key=(domain, i)),
    ``integers`` for the start context, then one ``random(n - order)`` for
    every later step; then all chains step together. Returns an (n_reps, n)
    int array, or None when a chain reaches a context never followed by a
    symbol in the data.
    """
    source = np.asarray(source, dtype=np.int64)
    n = source.shape[0]
    ctx = np.zeros(n - order, dtype=np.int64)
    for j in range(1, order + 1):
        ctx += source[order - j: n - j] * m ** (j - 1)
    table = np.bincount(ctx * m + source[order:], minlength=m ** order * m).reshape(-1, m)
    row_tot = table.sum(axis=1)
    visited = row_tot > 0
    cum = np.zeros(table.shape)
    cum[visited] = np.cumsum(table[visited] / row_tot[visited, None], axis=1)
    cum[visited, -1] = 1.0
    out = np.empty((n_reps, n), dtype=np.int64)
    states = np.empty(n_reps, dtype=np.int64)
    uniforms = np.empty((n_reps, n - order))
    for i in range(n_reps):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(domain, i)))
        start = int(rng.integers(n - order))
        states[i] = ctx[start]
        out[i, :order] = source[start: start + order]
        uniforms[i] = rng.random(n - order)
    for t in range(order, n):
        if not visited[states].all():
            return None
        drawn = (uniforms[:, t - order, None] > cum[states]).sum(axis=1)
        out[:, t] = drawn
        states = drawn + m * (states % m ** (order - 1))
    return out
