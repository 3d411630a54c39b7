"""Symbolization tests: quantile edges, tie handling, degenerate input, invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teflow import DatedSeries, count_transitions, symbolize, transfer_entropy
from teflow.errors import ConfigError, DegenerateSeriesWarning, NonFiniteValue, SeriesTooShort
from teflow.symbolic import SymbolSeries

from oracles import naive_symbolize


def test_median_split_of_ascending_ramp():
    s = symbolize([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], [0.5])
    assert s.symbols.tolist() == [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
    assert s.bin_edges.tolist() == [5.5]
    assert s.alphabet_size == 2
    assert not s.degenerate


def test_constant_series_degenerates_with_warning():
    with pytest.warns(DegenerateSeriesWarning):
        s = symbolize([3.0, 3.0, 3.0], [0.05, 0.95])
    assert s.degenerate
    assert s.alphabet_size == 1
    assert s.symbols.tolist() == [0, 0, 0]
    assert s.bin_edges.size == 0


def test_normal_sample_tail_frequencies():
    rng = np.random.default_rng(42)
    values = rng.standard_normal(10000)
    s = symbolize(values, [0.05, 0.95])
    freqs = np.bincount(s.symbols, minlength=3) / 10000
    assert freqs[0] == pytest.approx(0.05, abs=0.01)
    assert freqs[1] == pytest.approx(0.90, abs=0.01)
    assert freqs[2] == pytest.approx(0.05, abs=0.01)
    # direct recount against the cut definition
    assert s.symbols.tolist() == naive_symbolize(values, s.bin_edges.tolist())


def test_value_equal_to_edge_goes_to_lower_bin():
    s = symbolize([0.0, 1.0, 2.0, 3.0, 4.0], [0.5])
    edge = s.bin_edges[0]
    assert edge == 2.0
    assert s.symbols[2] == 0  # tie maps down


def test_rejects_nonfinite():
    with pytest.raises(NonFiniteValue):
        symbolize([1.0, float("nan"), 2.0], [0.5])
    with pytest.raises(NonFiniteValue):
        symbolize([1.0, float("inf"), 2.0], [0.5])


def test_rejects_too_short():
    with pytest.raises(SeriesTooShort):
        symbolize([1.0], [0.5])


@pytest.mark.parametrize("cuts", [[], [0.0, 0.5], [0.5, 0.5], [0.9, 0.1], [1.0]])
def test_rejects_bad_cuts(cuts):
    with pytest.raises(ConfigError):
        symbolize([1.0, 2.0, 3.0], cuts)


def test_heavy_ties_collapse_duplicate_edges():
    s = symbolize([0, 0, 0, 0, 0, 0, 0, 0, 1, 2], [0.2, 0.4])
    assert s.alphabet_size == 2
    assert s.bin_edges.tolist() == [0.0]
    assert s.symbols.tolist() == [0] * 8 + [1, 1]


def test_accepts_dated_series():
    from datetime import date, timedelta

    dates = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(6))
    ds = DatedSeries(dates=dates, values=np.array([5.0, 1.0, 4.0, 2.0, 6.0, 3.0]))
    s = symbolize(ds, [0.5])
    assert len(s) == 6


def test_from_symbols_roundtrip():
    s = SymbolSeries.from_symbols([0, 2, 1, 2], 3)
    assert s.alphabet_size == 3
    assert s.bin_edges.tolist() == [0.5, 1.5]
    assert len(s) == 4


@pytest.mark.parametrize("m, dtype", [(1, np.uint8), (3, np.uint8), (256, np.uint8),
                                       (257, np.uint16)])
def test_symbols_stored_in_narrowest_unsigned_type(m, dtype):
    s = SymbolSeries.from_symbols([0, m - 1], m)
    assert s.symbols.dtype == dtype
    assert s.symbols.tolist() == [0, m - 1]


@pytest.mark.parametrize("symbols", [[-1, 0], [0, 3]])
def test_out_of_range_symbols_raise_rather_than_wrap(symbols):
    with pytest.raises(ConfigError):
        SymbolSeries.from_symbols(symbols, 3)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_monotone_transform_leaves_symbols_unchanged(data):
    # integer-valued inputs and integer-exact monotone maps keep floating
    # point comparisons exact, so invariance holds without tolerance
    n = data.draw(st.integers(4, 40))
    values = np.array(data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)),
                      dtype=float)
    if values.min() == values.max():
        return
    cuts = data.draw(st.sampled_from([(0.5,), (0.25, 0.75), (0.05, 0.95), (0.2, 0.5, 0.8)]))
    transform = data.draw(st.sampled_from([
        lambda v: 3.0 * v + 7.0,
        lambda v: v ** 3,
        lambda v: 2.0 * v ** 3 + v,
    ]))
    base = symbolize(values, cuts)
    mapped = symbolize(transform(values), cuts)
    assert base.symbols.tolist() == mapped.symbols.tolist()
    assert base.alphabet_size == mapped.alphabet_size


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_te_invariant_under_monotone_maps(data):
    n = data.draw(st.integers(6, 60))
    a = np.array(data.draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n)), dtype=float)
    b = np.array(data.draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n)), dtype=float)
    if a.min() == a.max() or b.min() == b.max():
        return
    cuts = (0.25, 0.75)
    te_raw = transfer_entropy(count_transitions(symbolize(b, cuts), symbolize(a, cuts), 1, 1))
    te_mapped = transfer_entropy(count_transitions(symbolize(b ** 3, cuts),
                                                   symbolize(3.0 * a + 1.0, cuts), 1, 1))
    assert te_raw == pytest.approx(te_mapped, abs=1e-12)
