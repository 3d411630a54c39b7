"""Core estimator tests: counting, plug-in TE, surrogates, ETE, bootstrap."""

import hashlib
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
        small = _transition_counts(t, s, k, l)
        threshold = te_mod._SMALL_N
        te_mod._SMALL_N = -1  # force the sorted branch
        try:
            ordered = _transition_counts(t, s, k, l)
        finally:
            te_mod._SMALL_N = threshold
        assert small == ordered


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

    @pytest.mark.parametrize("base", [1.0, float("inf"), float("nan")])
    def test_log_base_must_be_finite_and_above_one(self, base):
        counts = count_transitions(sym(GOLDEN_Y), sym(GOLDEN_X), 1, 1)
        with pytest.raises(ConfigError):
            transfer_entropy(counts, base)

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
        tables = [count_transitions(sym(t, m), sym(r, m), k, l) for r in rows]
        for table in tables:  # n - max(k, l) > _SMALL_N, so each table is sorted
            codes = [sum(c * m ** i for i, c in enumerate((*sh, *th, nxt)))
                     for nxt, th, sh in table.counts]
            assert codes == sorted(codes)
        want = [transfer_entropy(table, 2.0) for table in tables]
        assert _te_rows(t, rows, k, l, m, 2.0).tolist() == want

    @pytest.mark.parametrize("lag", range(1, 9))
    def test_rows_equal_count_table_te_exactly_at_bench_scale(self, lag):
        # skewed symbols at n = 2300 fill lag 8's contexts with many cells of
        # one or several next symbols, which the small drawn pairs above never reach
        rng = np.random.default_rng(lag)
        t, s = rng.choice(3, size=(2, 2300), p=[0.05, 0.9, 0.05])
        rows = [s, *(s[rng.permutation(2300)] for _ in range(2)),
                *te_mod._markov_null_sources(s, 3, 1, 2, seed=lag)]
        want = [transfer_entropy(count_transitions(sym(t, 3), sym(r, 3), lag, lag)) for r in rows]
        assert _te_rows(t, rows, lag, lag, 3, 2.0).tolist() == want

    def test_rows_split_where_keys_meet_across_rows(self):
        # the target's history never changes, so each key is 3 * source + next:
        # row a ends on key 4 (source 1, next 1) and row b starts on it
        n = 100
        t = np.zeros(n, dtype=np.int64)
        t[-1] = 1
        a = np.ones(n, dtype=np.int64)
        b = np.full(n, 2, dtype=np.int64)
        b[-2] = 1
        constant = np.zeros(n, dtype=np.int64)
        rows = [a, b, a, b, constant, constant, constant]
        solo = [_te_rows(t, [r], 1, 1, 3, 2.0)[0] for r in rows]
        assert solo[1] > 0.0
        assert _te_rows(t, rows, 1, 1, 3, 2.0).tolist() == solo
        assert solo == [transfer_entropy(count_transitions(sym(t, 3), sym(r, 3), 1, 1))
                        for r in rows]

    @pytest.mark.parametrize("histories", [3, 4])
    def test_key_width_switch_matches_count_table(self, histories):
        # m=2, k=2, l=28: keys span histories * 2**29 codes, so 3 target
        # histories fit 32-bit keys and 4 need 64-bit ones
        rng = np.random.default_rng(histories)
        s = rng.integers(0, 2, 200)
        if histories == 3:
            s[1:] &= 1 - s[:-1]  # no two ones in a row, so the history (1, 1) never occurs
        t = np.concatenate([[0], s[:-1]])  # the target copies the source with delay 1
        seen = {tuple(t[i - 2: i]) for i in range(28, 200)}
        assert len(seen) == histories
        rows = [s, s[rng.permutation(200)]]
        want = [transfer_entropy(count_transitions(sym(t), sym(r), 2, 28)) for r in rows]
        assert want[0] > 0.0
        assert _te_rows(t, rows, 2, 28, 2, 2.0).tolist() == want

    def test_block_size_does_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(3)
        t = rng.integers(0, 3, 500)
        rows = rng.integers(0, 3, (7, 500))
        whole = _te_rows(t, rows, 2, 2, 3, 2.0)
        monkeypatch.setattr(te_mod, "_BLOCK_CODES", 1000)  # blocks of 2, 2, 2 and 1 rows
        assert np.array_equal(_te_rows(t, rows, 2, 2, 3, 2.0), whole)

    def test_widest_encoding_matches_python_loop(self, monkeypatch):
        # m=2, k=l=30 spans 61 bits, the widest joint code _check_pair accepts
        n = 30 + te_mod._SMALL_N  # the count table below keeps its first-seen order
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


def skewed_source(n, order, seed):
    """i.i.d. symbols with p = .05/.9/.05 whose last order-context also opens the series."""
    head = np.random.default_rng(seed).choice(3, n - order, p=[0.05, 0.9, 0.05])
    return np.concatenate([head, head[:order]]).astype(np.uint8)


def sticky_source(n, order, seed):
    """3 symbols that repeat the last one with probability .9, with no dead end."""
    rng = np.random.default_rng(seed)
    head = [0]
    for stay, sym_ in zip(rng.random(n - order - 1) < 0.9, rng.integers(0, 3, n - order - 1)):
        head.append(head[-1] if stay else int(sym_))
    return np.array(head + head[:order], dtype=np.uint8)


ROUNDS, STEPWISE = "_draw_in_rounds", "_draw_stepwise"
DEFAULT_CHUNK = te_mod._NULL_CHUNK


@pytest.fixture
def regimes(monkeypatch):
    """The set of draw functions ``_markov_null_sources`` calls from here on."""
    called = set()
    for name in (ROUNDS, STEPWISE):
        def spy(*args, _real=getattr(te_mod, name), _name=name):
            called.add(_name)
            return _real(*args)
        monkeypatch.setattr(te_mod, name, spy)
    return called


class TestMarkovNullRegimes:
    """Fixed steps at once with open steps in rounds, and the per-step loop,
    both give exactly the one-shot draw's nulls, and raise where it fails."""

    @pytest.mark.parametrize("chunk", [8, DEFAULT_CHUNK])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("make, order, regime", [
        (skewed_source, 1, ROUNDS),
        (skewed_source, 2, ROUNDS),
        (sticky_source, 1, STEPWISE),
        (sticky_source, 2, STEPWISE),
    ])
    def test_equals_one_shot_draw(self, monkeypatch, regimes, chunk, extra, make, order, regime):
        monkeypatch.setattr(te_mod, "_NULL_CHUNK", chunk)
        src = make(order + 2 * DEFAULT_CHUNK + extra, order, seed=3)
        got = te_mod._markov_null_sources(src, 3, order, 6, seed=order)
        assert regimes == {regime}
        np.testing.assert_array_equal(got, markov_null_one_shot(src, 3, order, 6, order))

    @pytest.mark.parametrize("chunk", [8, DEFAULT_CHUNK])
    def test_open_draw_into_unvisited_state_raises(self, monkeypatch, regimes, chunk):
        # symbol 2 occurs once, last, so state 2 was never followed by a symbol;
        # only the open draws u > P(next <= 1 | s) reach it
        monkeypatch.setattr(te_mod, "_NULL_CHUNK", chunk)
        head = np.random.default_rng(4).choice(2, 3000, p=[0.1, 0.9])
        src = np.append(head, 2).astype(np.uint8)
        assert markov_null_one_shot(src, 3, 1, 5, 7) is None
        with pytest.raises(InsufficientData):
            te_mod._markov_null_sources(src, 3, 1, 5, 7)
        assert regimes == {ROUNDS}

    @pytest.mark.parametrize("chunk", [8, DEFAULT_CHUNK])
    def test_fixed_draw_into_unvisited_state_raises(self, monkeypatch, regimes, chunk):
        # 0/1 symbols with a rare 2 always between 1s, closed by (1, 2, 0): the
        # context (2, 0) is never followed by a symbol, and only (1, 2) leads to it
        monkeypatch.setattr(te_mod, "_NULL_CHUNK", chunk)
        rng = np.random.default_rng(1)
        seq = [1]
        while len(seq) < 1997:
            seq += [2, 1] if seq[-1] == 1 and rng.random() < 0.02 else [int(rng.random() >= 0.1)]
        src = np.array(seq + [1, 2, 0], dtype=np.uint8)
        follows = {}
        for t in range(2, src.size):
            follows.setdefault((src[t - 2], src[t - 1]), []).append(src[t])
        p_zero = {ctx: nxt.count(0) / len(nxt) for ctx, nxt in follows.items()}
        # (1, 2) has the least chance of a 0 among visited states, so every u that
        # draws 0 from it draws 0 from all of them: the entry is a fixed step
        assert (2, 0) not in follows and p_zero[(1, 2)] == min(p_zero.values())
        assert markov_null_one_shot(src, 3, 2, 5, 1) is None
        with pytest.raises(InsufficientData):
            te_mod._markov_null_sources(src, 3, 2, 5, 1)
        assert regimes == {ROUNDS}

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(2, 4), order=st.integers(1, 3), n=st.integers(1, 600),
           dominant=st.floats(0.5, 0.99), stay=st.sampled_from([0.0, 0.5, 0.9]),
           last=st.integers(0, 3), chunk=st.sampled_from([8, DEFAULT_CHUNK]),
           seed=st.integers(0, 2 ** 16))
    def test_property_equals_oracle_or_raises_with_it(self, m, order, n, dominant, stay, last,
                                                      chunk, seed):
        # a skewed source, persistent or not, closed by any symbol: a rare one
        # often leaves the last context unvisited
        rng = np.random.default_rng(seed)
        p = np.full(m, (1.0 - dominant) / (m - 1))
        p[seed % m] = dominant
        src = [int(rng.choice(m, p=p))]
        for _ in range(order + n - 2):
            src.append(src[-1] if rng.random() < stay else int(rng.choice(m, p=p)))
        src = np.array(src + [last % m], dtype=np.uint8)
        expected = markov_null_one_shot(src, m, order, 3, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(te_mod, "_NULL_CHUNK", chunk)
            if expected is None:
                with pytest.raises(InsufficientData):
                    te_mod._markov_null_sources(src, m, order, 3, seed)
            else:
                np.testing.assert_array_equal(
                    te_mod._markov_null_sources(src, m, order, 3, seed), expected)


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
        {"log_base": float("inf")},
        {"log_base": float("nan")},
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


def pinned_source():
    """800 i.i.d. symbols with p = .1/.8/.1; order-1 nulls of it settle in rounds, order-3 step."""
    return np.random.default_rng(2024).choice(3, size=800, p=[0.1, 0.8, 0.1])


def digest_of(rows):
    """sha256 of the rows' values as int64, whatever type holds them."""
    return hashlib.sha256(rows.astype(np.int64).tobytes()).hexdigest()


class TestSurrogateDrawsArePinned:
    """Recorded digests of both surrogate builders; moving them moves every report."""

    def test_shuffled_sources(self):
        rows = te_mod._shuffled_sources(pinned_source(), 20, 11)
        assert rows.shape == (20, 800)
        assert digest_of(rows) == "7bbcfb3fb0ec025b563f1307cf5a6a18bde44bfb2b79facee57bb796558fe6a9"

    @pytest.mark.parametrize("order, regime, digest", [
        (1, ROUNDS, "6f032d648ad39ced0c87ea5cec2203fec39ab1d40ff23b638091f3484e1717bf"),
        (3, STEPWISE, "a32f1d07b41a635f7b8b879eee4e1e45893a4945799a572d8e087b6401455299"),
    ])
    def test_markov_null_sources(self, regimes, order, regime, digest):
        rows = te_mod._markov_null_sources(pinned_source(), 3, order, 20, 11)
        assert regimes == {regime}
        assert rows.shape == (20, 800)
        assert digest_of(rows) == digest

    def test_draws_keep_the_source_symbol_type(self):
        source = SymbolSeries.from_symbols(pinned_source(), 3).symbols
        assert te_mod._shuffled_sources(source, 2, 1).dtype == np.uint8
        assert te_mod._markov_null_sources(source, 3, 1, 2, 1).dtype == np.uint8
