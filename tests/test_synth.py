"""Synthetic-process oracle tests: generation determinism and population values."""

import hashlib
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

    def test_population_skips_zero_probability_paths(self):
        # a fair i.i.d. source that the target copies with delay 1: the tables
        # hold zeros, so some windows have probability 0
        spec = ProcessSpec(kind="coupled_markov", length=20000, seed=4,
                           source_transitions=((0.5, 0.5), (0.5, 0.5)),
                           target_transitions=(((1, 0), (0, 1)), ((1, 0), (0, 1))))
        assert population_te(spec, 1, 1) == 1.0
        assert population_te(spec, 2, 2) == 1.0
        src, tgt = generate(spec)
        assert np.array_equal(tgt[1:], src[:-1])
        te = transfer_entropy(count_transitions(sym(tgt), sym(src), 1, 1))
        assert te == pytest.approx(1.0, abs=0.01)

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


# sha256 of generate's (source, target) as float64 at length 500, per (kind, seed);
# any change to how the generators are derived or drawn moves them
GENERATE_SPECS = {
    "iid_binary": {},
    "copy": {"delay": 2, "noise": 0.1},
    "coupled_markov": {"source_transitions": ((0.9, 0.1), (0.2, 0.8)),
                       "target_transitions": (((0.7, 0.3), (0.1, 0.9)), ((0.6, 0.4), (0.2, 0.8)))},
    "gaussian_ar1": {"phi": 0.3},
}
GENERATE_DIGESTS = {
    ("iid_binary", 0): "671effffd928e7e9f7a817c191b3b87df191e25a6202bc14abf18f83e8525775",
    ("iid_binary", 7): "ea99c81adbe1ddef6b57294fd1463402a5444350de61fe55ee5a2a21cf783480",
    ("copy", 0): "b9d8096ac35c8873d3a8c4ec32ab2ff320c12355df6e76fa328c0d115dcd7ab4",
    ("copy", 7): "dab19555f8a4847a4d4241076ef7e82ca87aa5da0853166911656461373a4b08",
    ("coupled_markov", 0): "c534dc8bfe46fa8631d9bfc804671bd64b3b0fee89f69bd60233077b69a85030",
    ("coupled_markov", 7): "13e166a1ce770aed08738b47547e73d499924f03486562d19957c9db71bfad2e",
    ("gaussian_ar1", 0): "493d81dd70c0814728cccb3723f776a82cb4f388abb835de75a9745412bdb3fb",
    ("gaussian_ar1", 7): "d574c5856b95c1a9297dd5f8e7ce705f7470b1ea7d0be49f5b42081cc7999d9b",
}


@pytest.mark.parametrize("kind, seed", sorted(GENERATE_DIGESTS))
def test_generate_output_is_pinned(kind, seed):
    src, tgt = generate(ProcessSpec(kind=kind, length=500, seed=seed, **GENERATE_SPECS[kind]))
    digest = hashlib.sha256(src.astype(np.float64).tobytes() + tgt.astype(np.float64).tobytes())
    assert digest.hexdigest() == GENERATE_DIGESTS[kind, seed]
