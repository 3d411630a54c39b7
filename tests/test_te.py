"""Core estimator tests: counting, plug-in TE, surrogates, ETE, bootstrap."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teflow import (
    JointCounts,
    SymbolSeries,
    TeConfig,
    bootstrap_inference,
    count_transitions,
    effective_transfer_entropy,
    estimate,
    shuffle_surrogate_te,
    transfer_entropy,
)
from teflow.errors import (
    ConfigError,
    EmptyCounts,
    InsufficientData,
    InternalConsistencyError,
    LengthMismatch,
    SeriesTooShort,
)
import teflow.te as te_mod
from teflow.te import _te_rows, _transition_counts
from teflow.synth import ProcessSpec, generate

from oracles import markov_null_one_shot, naive_transfer_entropy

GOLDEN_X = [0, 1, 1, 0, 1, 0, 0, 1]
GOLDEN_Y = [0, 0, 1, 1, 0, 1, 0, 0]
GOLDEN_TE = 4 / 7 + math.log2(3) / 7 + 2 * math.log2(1.5) / 7


def sym(bits, m=2):
    return SymbolSeries.from_symbols(bits, m)


class TestCountTransitions:
    def test_direct_enumeration(self):
        counts = count_transitions(sym([0, 1, 0, 1]), sym([1, 1, 1, 1]), 1, 1)
        assert counts.counts == {
            (1, (0,), (1,)): 2,
            (0, (1,), (1,)): 1,
        }
        assert counts.n_effective == 3

    @pytest.mark.parametrize("n", [2, 5, 17])
    def test_n_effective_is_n_minus_one_at_lag_1(self, n):
        rng = np.random.default_rng(n)
        t = sym(rng.integers(0, 2, n))
        s = sym(rng.integers(0, 2, n))
        assert count_transitions(t, s, 1, 1).n_effective == n - 1

    def test_golden_count_table(self):
        counts = count_transitions(sym(GOLDEN_Y), sym(GOLDEN_X), 1, 1)
        assert counts.counts == {
            (0, (0,), (0,)): 2,
            (1, (0,), (1,)): 2,
            (1, (1,), (1,)): 1,
            (0, (1,), (0,)): 2,
        }

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            count_transitions(sym([0, 1, 0]), sym([0, 1]), 1, 1)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            count_transitions(sym([0, 1]), sym([1, 0]), 2, 2)

    def test_histories_are_most_recent_first(self):
        counts = count_transitions(sym([0, 1, 2, 0], 3), sym([2, 1, 0, 2], 3), 2, 2)
        # single tuple at t=2 and t=3
        assert counts.counts == {
            (2, (1, 0), (1, 2)): 1,
            (0, (2, 1), (0, 1)): 1,
        }

    @given(st.integers(2, 3), st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_small_and_vectorized_paths_agree(self, m, k, l, data):
        import teflow.te as te_mod

        n = data.draw(st.integers(max(k, l) + 1, 60))
        t = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
        s = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
        small = _transition_counts(t, s, k, l, m)
        threshold = te_mod._SMALL_N
        te_mod._SMALL_N = -1  # force the encoded/vectorized branch
        try:
            vectorized = _transition_counts(t, s, k, l, m)
        finally:
            te_mod._SMALL_N = threshold
        assert small == vectorized


class TestTransferEntropy:
    def test_golden_micro_example(self):
        counts = count_transitions(sym(GOLDEN_Y), sym(GOLDEN_X), 1, 1)
        te = transfer_entropy(counts, 2.0)
        assert te == pytest.approx(GOLDEN_TE, abs=1e-12)
        assert te == pytest.approx(naive_transfer_entropy(GOLDEN_Y, GOLDEN_X), abs=1e-12)

    def test_independent_pair_is_small(self):
        src, tgt = generate(ProcessSpec(kind="iid_binary", length=10000, seed=11))
        te = transfer_entropy(count_transitions(sym(tgt), sym(src), 1, 1))
        assert 0.0 <= te <= 0.002

    def test_copy_process_near_one_bit(self):
        src, tgt = generate(ProcessSpec(kind="copy", length=10000, seed=11))
        te = transfer_entropy(count_transitions(sym(tgt), sym(src), 1, 1))
        assert 0.97 <= te <= 1.0

    def test_constant_source_gives_zero(self):
        rng = np.random.default_rng(0)
        tgt = sym(rng.integers(0, 2, 500))
        src = SymbolSeries.from_symbols(np.zeros(500, dtype=int), 1)
        assert transfer_entropy(count_transitions(tgt, src, 1, 1)) == 0.0

    def test_empty_counts_rejected(self):
        with pytest.raises(EmptyCounts):
            transfer_entropy(JointCounts({}, 1, 1, 2))

    def test_log_base_scales_result(self):
        counts = count_transitions(sym(GOLDEN_Y), sym(GOLDEN_X), 1, 1)
        te_bits = transfer_entropy(counts, 2.0)
        te_nats = transfer_entropy(counts, math.e)
        assert te_nats == pytest.approx(te_bits * math.log(2.0), rel=1e-12)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_reference(self, data):
        m = data.draw(st.integers(2, 3))
        n = data.draw(st.integers(3, 12))
        t = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        s = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        te = transfer_entropy(count_transitions(sym(t, m), sym(s, m), 1, 1))
        assert te == pytest.approx(naive_transfer_entropy(t, s, 1, 1), abs=1e-12)
        assert te >= 0.0


class TestKernel:
    @given(st.integers(2, 4), st.integers(1, 5), st.integers(1, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_count_table_te_exactly(self, m, k, l, data):
        n = data.draw(st.integers(max(k, l) + 65, max(k, l) + 160))
        t = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
        s = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
        perm = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).permutation(n)
        rows = [s, np.zeros(n, dtype=np.int64), s[np.arange(n)], s[perm]]
        want = [transfer_entropy(count_transitions(sym(t, m), sym(r, m), k, l), 2.0)
                for r in rows]
        assert _te_rows(t, rows, k, l, m, 2.0).tolist() == want

    def test_block_size_does_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(3)
        t = rng.integers(0, 3, 500)
        rows = rng.integers(0, 3, (7, 500))
        whole = _te_rows(t, rows, 2, 2, 3, 2.0)
        monkeypatch.setattr(te_mod, "_BLOCK_CODES", 1000)  # blocks of 2, 2, 2 and 1 rows
        assert np.array_equal(_te_rows(t, iter(rows), 2, 2, 3, 2.0), whole)

    def test_widest_encoding_matches_python_loop(self, monkeypatch):
        # m=2, k=l=30 spans 61 bits, the widest joint code _check_pair accepts
        n = 30 + te_mod._SMALL_N  # the count table below still comes from the Python loop
        s = np.zeros(n, dtype=np.int64)
        s[[40, 75]] = 1  # sparse enough that the all-zero target history recurs
        t = np.concatenate([[0], s[:-1]])  # the target copies the source with delay 1
        loop = count_transitions(sym(t), sym(s), 30, 30)
        te = transfer_entropy(loop)
        assert te > 0.0
        assert _te_rows(t, [s], 30, 30, 2, 2.0)[0] == pytest.approx(te, abs=1e-12)
        monkeypatch.setattr(te_mod, "_SMALL_N", -1)
        assert count_transitions(sym(t), sym(s), 30, 30).counts == loop.counts


class TestKernelProperties:
    """The kernel against the triple-loop oracle, and two invariances of plug-in TE."""

    @staticmethod
    def draw_pair(data):
        m = data.draw(st.integers(2, 4), label="m")
        k = data.draw(st.integers(1, 4), label="k")
        l = data.draw(st.integers(1, 4), label="l")
        n = data.draw(st.integers(max(k, l) + 1, max(k, l) + 120), label="n")
        symbols = st.lists(st.integers(0, m - 1), min_size=n, max_size=n)
        return m, k, l, np.array(data.draw(symbols)), np.array(data.draw(symbols))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_naive_oracle(self, data):
        m, k, l, t, s = self.draw_pair(data)
        te = _te_rows(t, [s], k, l, m, 2.0)[0]
        assert te == pytest.approx(naive_transfer_entropy(t.tolist(), s.tolist(), k, l),
                                   abs=1e-12)
        assert te >= 0.0

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_relabelling_symbols_leaves_te_unchanged(self, data):
        m, k, l, t, s = self.draw_pair(data)
        relabel = np.array(data.draw(st.permutations(range(m)), label="relabel"))
        te = _te_rows(t, [s], k, l, m, 2.0)[0]
        assert _te_rows(relabel[t], [s], k, l, m, 2.0)[0] == pytest.approx(te, abs=1e-12)
        assert _te_rows(t, [relabel[s]], k, l, m, 2.0)[0] == pytest.approx(te, abs=1e-12)


class TestShuffleSurrogates:
    def test_identity_permutation_equals_raw_te(self):
        src, tgt = generate(ProcessSpec(kind="copy", length=2000, seed=4))
        t, s = sym(tgt), sym(src)
        cfg = TeConfig(n_shuffles=1, seed=1)
        raw = transfer_entropy(count_transitions(t, s, 1, 1))
        forced = shuffle_surrogate_te(t, s, cfg, permutations=[np.arange(2000)])
        assert forced.shape == (1,)
        assert forced[0] == pytest.approx(raw, abs=0)

    def test_shuffling_destroys_coupling(self):
        src, tgt = generate(ProcessSpec(kind="copy", length=10000, seed=5))
        cfg = TeConfig(n_shuffles=100, seed=7)
        surr = shuffle_surrogate_te(sym(tgt), sym(src), cfg)
        assert surr.mean() <= 0.01

    def test_independent_pair_surrogates_match_raw(self):
        src, tgt = generate(ProcessSpec(kind="iid_binary", length=5000, seed=6))
        t, s = sym(tgt), sym(src)
        cfg = TeConfig(n_shuffles=100, seed=8)
        raw = transfer_entropy(count_transitions(t, s, 1, 1))
        surr = shuffle_surrogate_te(t, s, cfg)
        assert abs(surr.mean() - raw) <= 0.003


class TestEffectiveTransferEntropy:
    def test_copy_process_ete_near_one(self):
        src, tgt = generate(ProcessSpec(kind="copy", length=10000, seed=12))
        cfg = TeConfig(n_shuffles=100, seed=2)
        est = effective_transfer_entropy(sym(tgt), sym(src), cfg)
        assert abs(est.ete - 1.0) <= 0.03

    def test_independent_pair_ete_near_zero(self):
        src, tgt = generate(ProcessSpec(kind="iid_binary", length=5000, seed=13))
        cfg = TeConfig(n_shuffles=100, seed=2)
        est = effective_transfer_entropy(sym(tgt), sym(src), cfg)
        assert abs(est.ete) <= 0.01

    def test_ete_identity_is_exact(self):
        src, tgt = generate(ProcessSpec(kind="copy", length=1500, seed=14, noise=0.2))
        cfg = TeConfig(n_shuffles=16, seed=5)
        est = effective_transfer_entropy(sym(tgt), sym(src), cfg)
        assert est.ete == est.te - est.surrogate_mean
        assert est.std_err is None and est.p_value is None

    def test_deterministic_given_seed(self):
        src, tgt = generate(ProcessSpec(kind="iid_binary", length=2000, seed=15))
        cfg = TeConfig(n_shuffles=20, seed=6)
        a = effective_transfer_entropy(sym(tgt), sym(src), cfg)
        b = effective_transfer_entropy(sym(tgt), sym(src), cfg)
        assert (a.te, a.ete, a.surrogate_mean) == (b.te, b.ete, b.surrogate_mean)


class TestBootstrapInference:
    def test_null_holds_for_independent_pairs(self):
        high_p = 0
        for seed in range(20):
            src, tgt = generate(ProcessSpec(kind="iid_binary", length=2000, seed=seed))
            cfg = TeConfig(n_shuffles=1, n_bootstrap=300, seed=seed)
            _, p = bootstrap_inference(sym(tgt), sym(src), cfg)
            high_p += p > 0.05
        assert high_p >= 18

    def test_copy_process_p_zero(self):
        src, tgt = generate(ProcessSpec(kind="copy", length=10000, seed=21))
        cfg = TeConfig(n_shuffles=1, n_bootstrap=300, seed=21)
        std_err, p = bootstrap_inference(sym(tgt), sym(src), cfg)
        assert p == 0.0
        assert std_err > 0.0

    def test_disabled_inference_returns_absent_markers(self):
        src, tgt = generate(ProcessSpec(kind="iid_binary", length=500, seed=22))
        cfg = TeConfig(n_shuffles=4, n_bootstrap=0, seed=22)
        assert bootstrap_inference(sym(tgt), sym(src), cfg) == (None, None)
        est = estimate(sym(tgt), sym(src), cfg)
        assert est.std_err is None and est.p_value is None
        assert est.te >= 0.0  # te/ete still computed

    def test_unvisited_state_raises(self):
        # symbol 2 exists in the alphabet but never occurs: order-2 contexts
        # built only from {0,1}; force a dead end with an alphabet-3 source
        # whose single 2 appears only at the very end
        src = SymbolSeries.from_symbols([0, 1, 0, 1, 0, 1, 0, 1, 0, 2], 3)
        tgt = SymbolSeries.from_symbols([0, 1, 1, 0, 1, 0, 0, 1, 1, 0], 3)
        cfg = TeConfig(n_shuffles=1, n_bootstrap=50, block_order=2, seed=1)
        with pytest.raises(InsufficientData):
            bootstrap_inference(tgt, src, cfg)


def no_dead_end_source(n, m, order, seed):
    """Random symbols whose last order-context also opens the series, so every
    context the regeneration can reach was followed by a symbol in the data."""
    head = np.random.default_rng(seed).integers(0, m, n - order)
    return np.concatenate([head, head[:order]])


class TestMarkovNullStreaming:
    """Uniforms drawn chunk by chunk give exactly the one-shot draw's nulls."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("steps", [7, 8, 9, 15, 16, 17])
    def test_chunked_equals_one_shot_draw(self, monkeypatch, m, order, steps):
        monkeypatch.setattr(te_mod, "_NULL_CHUNK", 8)
        src = no_dead_end_source(order + steps, m, order, seed=steps)
        got = te_mod._markov_null_sources(src, m, order, 5, seed=m * 10 + order)
        np.testing.assert_array_equal(got, markov_null_one_shot(src, m, order, 5, m * 10 + order))

    @pytest.mark.parametrize("steps", [te_mod._NULL_CHUNK - 1, te_mod._NULL_CHUNK,
                                       2 * te_mod._NULL_CHUNK + 1])
    def test_default_chunk_equals_one_shot_draw(self, steps):
        src = no_dead_end_source(2 + steps, 3, 2, seed=1)
        got = te_mod._markov_null_sources(src, 3, 2, 4, seed=9)
        np.testing.assert_array_equal(got, markov_null_one_shot(src, 3, 2, 4, 9))


class TestTeConfig:
    def test_alphabet_follows_cuts(self):
        assert TeConfig(quantile_cuts=(0.1, 0.5, 0.9)).alphabet_size == 4

    def test_block_order_defaults_to_l(self):
        assert TeConfig(l=3).effective_block_order == 3
        assert TeConfig(l=3, block_order=1).effective_block_order == 1

    @pytest.mark.parametrize("kwargs", [
        {"k": 0},
        {"l": 0},
        {"log_base": 1.0},
        {"n_shuffles": 0},
        {"n_bootstrap": -1},
        {"block_order": 0},
        {"quantile_cuts": (0.9, 0.1)},
        {"quantile_cuts": (0.0, 0.5)},
        {"quantile_cuts": ()},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TeConfig(**kwargs)

    def test_digest_stable_and_sensitive(self):
        a = TeConfig(seed=1)
        assert a.digest() == TeConfig(seed=1).digest()
        assert a.digest() != TeConfig(seed=2).digest()


def test_estimate_ete_identity_holds_with_inference():
    src, tgt = generate(ProcessSpec(kind="copy", length=3000, seed=30, noise=0.3))
    cfg = TeConfig(n_shuffles=25, n_bootstrap=40, seed=30)
    est = estimate(sym(tgt), sym(src), cfg, direction="x->y")
    assert est.direction == "x->y"
    assert est.ete == est.te - est.surrogate_mean
    assert 0.0 <= est.p_value <= 1.0
    assert est.n_effective == 2999


def test_te_estimate_validates_identity():
    from teflow import TeEstimate

    with pytest.raises(InternalConsistencyError):
        TeEstimate(direction="a->b", te=0.5, ete=0.1, surrogate_mean=0.1,
                   std_err=None, p_value=None, n_effective=10, config=TeConfig())
