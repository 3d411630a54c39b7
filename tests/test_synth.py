"""Synthetic-process oracle tests: generation determinism and population values."""

import math

import numpy as np
import pytest

from teflow import (
    ProcessSpec,
    SymbolSeries,
    TeConfig,
    binary_entropy,
    count_transitions,
    generate,
    population_te,
    shuffle_surrogate_te,
    transfer_entropy,
)
from teflow.errors import ConfigError, InvalidSpec, NoClosedForm

from oracles import binary_entropy_bits, markov_pair_te_bits


def sym(bits, m=2):
    return SymbolSeries.from_symbols(bits, m)


MARKOV_A = ((0.7, 0.3), (0.2, 0.8))
MARKOV_B = (((0.9, 0.1), (0.3, 0.7)), ((0.6, 0.4), (0.1, 0.9)))


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"kind": "nope", "length": 100},
        {"kind": "copy", "length": 100, "delay": 0},
        {"kind": "copy", "length": 100, "noise": 0.6},
        {"kind": "gaussian_ar1", "length": 100, "phi": 1.0},
        {"kind": "iid_binary", "length": 1},
        {"kind": "coupled_markov", "length": 100},
        {"kind": "coupled_markov", "length": 100,
         "source_transitions": ((0.5, 0.6), (0.5, 0.5)),
         "target_transitions": MARKOV_B},
        {"kind": "copy", "length": 5, "delay": 10},
    ])
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(InvalidSpec):
            ProcessSpec(**kwargs)

    @pytest.mark.parametrize("base", [math.inf, math.nan, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["iid_binary", "copy", "coupled_markov"])
    def test_population_te_log_base_must_be_finite_and_above_one(self, kind, base):
        tables = {"source_transitions": MARKOV_A, "target_transitions": MARKOV_B}
        spec = ProcessSpec(kind=kind, length=100, **(tables if kind == "coupled_markov" else {}))
        with pytest.raises(ConfigError, match="log_base"):
            population_te(spec, log_base=base)

    @pytest.mark.parametrize("base", [math.inf, math.nan, 0.5, 1.0])
    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_binary_entropy_log_base_must_be_finite_and_above_one(self, p, base):
        with pytest.raises(ConfigError, match="log_base"):
            binary_entropy(p, base)

    def test_generation_deterministic(self):
        spec = ProcessSpec(kind="copy", length=500, seed=77, noise=0.1)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = generate(ProcessSpec(kind="copy", length=500, seed=78, noise=0.1))
        assert not np.array_equal(a[0], c[0])


class TestCopyProcess:
    def test_exact_copy_structure(self):
        src, tgt = generate(ProcessSpec(kind="copy", length=200, seed=1, delay=3))
        assert np.array_equal(tgt[3:], src[:-3])

    def test_noise_flips_expected_fraction(self):
        src, tgt = generate(ProcessSpec(kind="copy", length=50000, seed=2, noise=0.11))
        flip_rate = np.mean(tgt[1:] != src[:-1])
        assert flip_rate == pytest.approx(0.11, abs=0.01)

    @pytest.mark.parametrize("noise,expected_bits", [
        (0.0, 1.0),
        (0.5, 0.0),
    ])
    def test_population_te_endpoints(self, noise, expected_bits):
        spec = ProcessSpec(kind="copy", length=10, delay=1, noise=noise)
        assert population_te(spec, 1, 1) == pytest.approx(expected_bits, abs=1e-12)

    def test_population_te_noisy(self):
        spec = ProcessSpec(kind="copy", length=10, delay=1, noise=0.11)
        expected = 1.0 - binary_entropy_bits(0.11)
        assert population_te(spec, 1, 1) == pytest.approx(expected, abs=1e-12)

    def test_source_window_must_reach_delay(self):
        spec = ProcessSpec(kind="copy", length=10, delay=3)
        assert population_te(spec, 1, 2) == 0.0
        assert population_te(spec, 1, 3) == pytest.approx(1.0, abs=1e-12)

    def test_binary_entropy_matches_oracle(self):
        for p in (0.0, 0.11, 0.25, 0.5, 0.9, 1.0):
            assert binary_entropy(p) == pytest.approx(binary_entropy_bits(p), abs=1e-13)


class TestIidBinary:
    def test_population_zero(self):
        assert population_te(ProcessSpec(kind="iid_binary", length=10), 1, 1) == 0.0

    def test_sources_and_targets_independent_streams(self):
        src, tgt = generate(ProcessSpec(kind="iid_binary", length=20000, seed=3))
        assert abs(np.corrcoef(src, tgt)[0, 1]) < 0.02


class TestCoupledMarkov:
    def spec(self, n=10):
        return ProcessSpec(kind="coupled_markov", length=n, seed=4,
                           source_transitions=MARKOV_A, target_transitions=MARKOV_B)

    def test_population_matches_eight_cell_oracle(self):
        expected = markov_pair_te_bits(MARKOV_A, MARKOV_B)
        assert population_te(self.spec(), 1, 1) == pytest.approx(expected, abs=1e-10)

    def test_estimate_converges_to_population(self):
        spec = self.spec(n=200000)
        src, tgt = generate(spec)
        te = transfer_entropy(count_transitions(sym(tgt), sym(src), 1, 1))
        assert te == pytest.approx(population_te(spec, 1, 1), abs=0.01)

    def test_row_stochastic_sampling(self):
        src, tgt = generate(self.spec(n=50000))
        # empirical source transition frequencies approach the matrix
        trans = np.zeros((2, 2))
        for a, b in zip(src[:-1], src[1:]):
            trans[a, b] += 1
        trans /= trans.sum(axis=1, keepdims=True)
        assert np.allclose(trans, np.array(MARKOV_A), atol=0.02)


class TestGaussianAr1:
    def test_no_closed_form(self):
        with pytest.raises(NoClosedForm):
            population_te(ProcessSpec(kind="gaussian_ar1", length=100, phi=0.6), 1, 1)

    def test_autocorrelation_matches_phi(self):
        src, _ = generate(ProcessSpec(kind="gaussian_ar1", length=50000, seed=5, phi=0.6))
        rho = np.corrcoef(src[:-1], src[1:])[0, 1]
        assert rho == pytest.approx(0.6, abs=0.02)


class TestEstimatorConvergence:
    @pytest.mark.parametrize("noise", [0.0, 0.11, 0.3])
    def test_binary_specs_within_003_at_n_10000(self, noise):
        spec = ProcessSpec(kind="copy", length=10000, seed=6, noise=noise)
        src, tgt = generate(spec)
        te = transfer_entropy(count_transitions(sym(tgt), sym(src), 1, 1))
        assert abs(te - population_te(spec, 1, 1)) < 0.03

    def test_surrogate_mean_matches_raw_te_on_independent_pairs(self):
        spec = ProcessSpec(kind="iid_binary", length=5000, seed=7)
        src, tgt = generate(spec)
        raw = transfer_entropy(count_transitions(sym(tgt), sym(src), 1, 1))
        surr = shuffle_surrogate_te(sym(tgt), sym(src), TeConfig(n_shuffles=100, seed=7))
        assert abs(surr.mean() - raw) < 0.003
