"""Synthetic processes with known information-flow structure.

These generators provide ground truth the real-data experiments cannot:
the population transfer entropy of each discrete family is exactly
computable, so estimator output can be checked against analytic values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .choices import KINDS
from .errors import InvalidSpec, NoClosedForm
from .te import JointCounts, _check_log_base, transfer_entropy

# generator substream domains
_SRC = 10
_TGT = 11
_NOISE = 12

_BURN_IN = 1024
_MAX_ENUM_STATES = 2_000_000


def _rng(seed: int, domain: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(domain,)))


def binary_entropy(p: float, log_base: float = 2.0) -> float:
    """H(p) for a Bernoulli(p) variable, in units of log_base."""
    _check_log_base(log_base)
    if not 0.0 <= p <= 1.0:
        raise InvalidSpec(f"probability outside [0, 1]: {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log(p) + (1 - p) * math.log(1 - p)) / math.log(log_base)


@dataclass(frozen=True)
class ProcessSpec:
    """Specification of one synthetic (source, target) pair.

    kind:
      iid_binary       independent fair-coin pair
      copy             target_t = source_{t-delay}, flipped with prob. noise
      coupled_markov   source is a Markov chain; target transition depends on
                       (own previous state, source previous state)
      gaussian_ar1     two independent AR(1) processes with coefficient phi
    """

    kind: str
    length: int
    seed: int = 0
    delay: int = 1
    noise: float = 0.0
    phi: float = 0.5
    source_transitions: tuple[tuple[float, ...], ...] | None = None
    target_transitions: tuple[tuple[tuple[float, ...], ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}; one of {KINDS}")
        if self.length < 2:
            raise InvalidSpec("length must be >= 2")
        if self.seed < 0:
            raise InvalidSpec("seed must be unsigned")
        if self.kind == "copy":
            if not 1 <= self.delay <= self.length:
                raise InvalidSpec("copy delay must lie in [1, length]")
            if not 0.0 <= self.noise <= 0.5:
                raise InvalidSpec("copy noise must lie in [0, 0.5]")
        if self.kind == "gaussian_ar1" and not abs(self.phi) < 1:
            raise InvalidSpec("gaussian_ar1 requires |phi| < 1")
        if self.kind == "coupled_markov":
            a = self._source_matrix()
            b = self._target_tensor()
            if b.shape[1] != a.shape[0]:
                raise InvalidSpec("target table's source axis must match source state count")

    def _source_matrix(self) -> np.ndarray:
        if self.source_transitions is None:
            raise InvalidSpec("coupled_markov requires source_transitions")
        a = _numeric_table(self.source_transitions, "source_transitions")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidSpec("source_transitions must be square")
        if (a < 0).any() or not np.allclose(a.sum(axis=1), 1.0, atol=1e-9):
            raise InvalidSpec("source_transitions must be row-stochastic")
        return a

    def _target_tensor(self) -> np.ndarray:
        if self.target_transitions is None:
            raise InvalidSpec("coupled_markov requires target_transitions")
        b = _numeric_table(self.target_transitions, "target_transitions")
        if b.ndim != 3 or b.shape[0] != b.shape[2]:
            raise InvalidSpec("target_transitions must have shape (m_y, m_x, m_y)")
        if (b < 0).any() or not np.allclose(b.sum(axis=2), 1.0, atol=1e-9):
            raise InvalidSpec("target_transitions rows must sum to 1")
        return b


def _numeric_table(table, name: str) -> np.ndarray:
    try:
        return np.asarray(table, dtype=float)
    except (TypeError, ValueError):
        raise InvalidSpec(f"{name} must be a rectangular table of numbers") from None


def generate(spec: ProcessSpec) -> tuple[np.ndarray, np.ndarray]:
    """Draw one (source, target) pair; deterministic given spec.seed."""
    n = spec.length
    if spec.kind == "iid_binary":
        src = _rng(spec.seed, _SRC).integers(0, 2, size=n)
        tgt = _rng(spec.seed, _TGT).integers(0, 2, size=n)
        return src, tgt

    if spec.kind == "copy":
        src = _rng(spec.seed, _SRC).integers(0, 2, size=n)
        tgt = np.empty(n, dtype=np.int64)
        tgt[: spec.delay] = _rng(spec.seed, _TGT).integers(0, 2, size=spec.delay)
        flips = _rng(spec.seed, _NOISE).random(n - spec.delay) < spec.noise
        tgt[spec.delay:] = src[: n - spec.delay] ^ flips
        return src, tgt

    if spec.kind == "coupled_markov":
        a = spec._source_matrix()
        b = spec._target_tensor()
        m_x, m_y = a.shape[0], b.shape[0]
        cum_a = np.cumsum(a, axis=1)
        cum_b = np.cumsum(b, axis=2)
        total = n + _BURN_IN
        u_x = _rng(spec.seed, _SRC).random(total)
        u_y = _rng(spec.seed, _TGT).random(total)
        src = np.empty(total, dtype=np.int64)
        tgt = np.empty(total, dtype=np.int64)
        x = int(u_x[0] * m_x)
        y = int(u_y[0] * m_y)
        src[0], tgt[0] = x, y
        for t in range(1, total):
            nx = int(np.searchsorted(cum_a[x], u_x[t], side="right"))
            ny = int(np.searchsorted(cum_b[y, x], u_y[t], side="right"))
            nx = min(nx, m_x - 1)
            ny = min(ny, m_y - 1)
            src[t], tgt[t] = nx, ny
            x, y = nx, ny
        return src[_BURN_IN:], tgt[_BURN_IN:]

    # gaussian_ar1: independent pair, stationary initial condition
    scale = 1.0 / math.sqrt(1.0 - spec.phi ** 2)
    out = []
    for domain in (_SRC, _TGT):
        eps = _rng(spec.seed, domain).standard_normal(n)
        x = np.empty(n)
        x[0] = eps[0] * scale
        for t in range(1, n):
            x[t] = spec.phi * x[t - 1] + eps[t]
        out.append(x)
    return out[0], out[1]


def _stationary(transition: np.ndarray) -> np.ndarray:
    """Stationary distribution by power iteration (assumes an ergodic chain)."""
    n = transition.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(200_000):
        nxt = pi @ transition
        if np.abs(nxt - pi).max() < 1e-15:
            return nxt
        pi = nxt
    raise InvalidSpec("transition matrix did not converge to a stationary distribution")


def population_te(spec: ProcessSpec, k: int = 1, l: int = 1, log_base: float = 2.0) -> float:
    """Exact population transfer entropy source -> target for closed-form specs.

    iid pairs are 0 by independence; the copy family has the analytic value
    1 - H(noise) whenever the source window reaches back to the copy delay;
    coupled Markov chains are summed exactly over their stationary windows.
    gaussian_ar1 has no closed form after symbolization and must be estimated
    by long simulation.
    """
    _check_log_base(log_base)
    if k < 1 or l < 1:
        raise InvalidSpec("history lengths must be >= 1")
    if spec.kind == "iid_binary":
        return 0.0
    if spec.kind == "copy":
        if l < spec.delay:
            return 0.0
        return (1.0 - binary_entropy(spec.noise)) * math.log(2.0) / math.log(log_base)
    if spec.kind == "gaussian_ar1":
        raise NoClosedForm("gaussian_ar1 has no closed-form TE after symbolization; "
                           "estimate it by long simulation")

    a = spec._source_matrix()
    b = spec._target_tensor()
    m_x, m_y = a.shape[0], b.shape[0]
    window = max(k, l) + 1
    n_states = m_x * m_y
    if n_states ** window > _MAX_ENUM_STATES:
        raise NoClosedForm("joint window enumeration too large for exact summation")

    # joint chain transition: P[(x,y) -> (x',y')] = A[x,x'] * B[y,x,y']
    trans = (a[:, None, :, None] * b.transpose(1, 0, 2)[:, :, None, :]).reshape(n_states, n_states)
    pi = _stationary(trans)

    joint: dict = {}
    states = list(itertools.product(range(m_x), range(m_y)))
    for path in itertools.product(states, repeat=window):
        p = pi[path[0][0] * m_y + path[0][1]]
        for s, s2 in zip(path, path[1:]):
            p *= trans[s[0] * m_y + s[1], s2[0] * m_y + s2[1]]
            if p == 0.0:
                break
        if p == 0.0:
            continue
        y_next = path[-1][1]
        y_hist = tuple(path[window - 1 - j][1] for j in range(1, k + 1))
        x_hist = tuple(path[window - 1 - j][0] for j in range(1, l + 1))
        key = (y_next, y_hist, x_hist)
        joint[key] = joint.get(key, 0.0) + p

    return transfer_entropy(JointCounts(joint, k, l, max(m_x, m_y)), log_base)
