import math
from math import gamma

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracalc import SampledSeries, _kernels
from fracalc.caputo import caputo_series_orders


def brute_pairs(x, y, x_tol, y_tol):
    """O(N^2) reference: every i < j, tested with the kernel's exact condition."""
    n = len(x)
    return [
        (i, j)
        for i in range(n - 1)
        for j in range(i + 1, n)
        if abs(x[i] - x[j]) <= x_tol and abs(y[i] - y[j]) > y_tol
    ]


def scan_pairs(x, y, x_tol, y_tol):
    i, j = _kernels.multivalued_pairs(np.asarray(x, float), np.asarray(y, float), x_tol, y_tol)
    assert i.dtype == j.dtype == np.int64
    return list(zip(i.tolist(), j.tolist()))


def full_length_l1(v, a, h):
    """Order-a L1 estimate with full-length weights: the unblocked reference."""
    n = v.shape[0] - 1
    p = np.arange(n, -1, -1, dtype=np.float64) ** (1.0 - a)
    return float((p[:-1] - p[1:]) @ np.diff(v)) * h ** (-a) / gamma(2.0 - a)


def central_derivative(v, h):
    """The finite-difference derivative series the scheme for 1 < a < 2 uses."""
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return d


class TestL1WeightedSum:
    def test_hand_computed_case(self):
        # f = t^2 on {0, 1, 2}: diffs (1, 3); weights (sqrt(2)-1, 1) at e=0.5.
        want = (math.sqrt(2.0) - 1.0) * 1.0 + 1.0 * 3.0
        got = _kernels.l1_weighted_sum([np.array([0.0, 1.0, 4.0])], [0.5])
        assert got.shape == (1, 1)
        assert math.isclose(got[0, 0], want, rel_tol=1e-14)

    def test_constant_input_is_zero(self):
        got = _kernels.l1_weighted_sum([np.full(50, 3.7), np.full(50, -2.0)], [0.25, 0.75])
        assert got.shape == (2, 2) and (got == 0.0).all()

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(7, 80),
        cut=st.integers(0, 3),
        block=st.sampled_from(["1", "2", "7", "N-1", "N", "N+1"]),
        orders=st.lists(
            st.floats(0.01, 1.99).filter(lambda a: a != 1.0), min_size=1, max_size=4, unique=True
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_equals_full_length(self, n, cut, block, orders, seed):
        # Increasing, convex samples: every L1 term is positive, for the
        # samples and for their derivative series alike, so neither sum
        # cancels and each lies within (N-1) ulps of the exact sum.
        rng = np.random.default_rng(seed)
        h = 0.125
        pair = [
            SampledSeries(h, np.cumsum(np.cumsum(rng.uniform(0.5, 2.0, n + 1))))
            for _ in range(2)
        ]
        if cut:
            pair = [s.truncated((n - cut) * h) for s in pair]
        steps = pair[0].n_steps
        size = {"1": 1, "2": 2, "7": 7, "N-1": steps - 1, "N": steps, "N+1": steps + 1}[block]
        old = _kernels._L1_BLOCK
        _kernels._L1_BLOCK = size
        try:
            got = caputo_series_orders(pair, orders)
        finally:
            _kernels._L1_BLOCK = old
        for a, row in zip(orders, got):
            for s, value in zip(pair, row):
                if a < 1.0:
                    want = full_length_l1(s.values, a, h)
                else:
                    want = full_length_l1(central_derivative(s.values, h), a - 1.0, h)
                assert abs(value - want) <= 2 * steps * 2.0**-52 * abs(want)


class TestMultivaluedPairs:
    def test_hand_computed_case(self):
        x = np.array([0.0, 1.0, 0.0])
        y = np.array([0.0, 5.0, 9.0])
        assert scan_pairs(x, y, 0.1, 1.0) == [(0, 2)]

    def test_no_matches(self):
        x = np.arange(10.0)
        y = x**2
        assert scan_pairs(x, y, 1e-9, 1e-9) == []

    def test_block_boundaries(self, monkeypatch):
        # Force tiny blocks so the chunked path is exercised.
        monkeypatch.setattr(_kernels, "_BLOCK_ELEMENTS", 7)
        rng = np.random.default_rng(4)
        x = rng.integers(0, 4, 40).astype(float)
        y = rng.normal(size=40)
        assert scan_pairs(x, y, 0.5, 0.1) == brute_pairs(x, y, 0.5, 0.1)

    @pytest.mark.parametrize(
        "a,x_tol,b",
        [
            (-1.0, 1.0, 1e-17),
            (0.5803661089568823, 19.13754117251856, 19.717907281475444),
            (-1.956533897050904e16, 2.5252439080338216e16, 5687100109829177.0),
            (-1.0676621989697095e-300, 7.695129704688543e-301, -2.981492285008551e-301),
        ],
    )
    def test_match_beyond_rounded_window(self, a, x_tol, b):
        # fl(b - a) <= x_tol although b > fl(a + x_tol), so a window ending
        # at fl(a + x_tol) would miss the pair.
        assert b > a + x_tol and abs(b - a) <= x_tol
        assert scan_pairs([a, b], [0.0, 1.0], x_tol, 0.5) == [(0, 1)]

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 150),
        grid=st.integers(1, 8),
        scale=st.sampled_from([1.0, 0.1, 1e-300, 3.0e7]),
        offset=st.sampled_from([0.0, -2.0, 1e16, -1e16]),
        jitter=st.sampled_from([0.0, 1e-17, 1e-15, 1e-9]),
        tol_cells=st.sampled_from([0.5, 1.0, 2.0]),
        y_tol=st.sampled_from([0.1, 0.5, 1.0]),
        block=st.sampled_from([1, 3, 1_000_000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force(self, n, grid, scale, offset, jitter, tol_cells, y_tol, block, seed):
        # x on a small integer grid gives ties and gaps exactly equal to
        # x_tol (tol_cells = 1, 2).  Jitter puts gaps within rounding of
        # x_tol: around x = 0 it is finer than the spacing of x_tol, where
        # fl(x_j - x_i) <= x_tol although x_j > fl(x_i + x_tol).  The offsets
        # and scales move the grid to where both of those round.
        rng = np.random.default_rng(seed)
        x = offset + scale * rng.integers(0, grid, n).astype(float)
        x += scale * jitter * rng.normal(size=n)
        y = rng.integers(0, 4, n).astype(float)
        x_tol = tol_cells * scale
        old = _kernels._BLOCK_ELEMENTS
        _kernels._BLOCK_ELEMENTS = block
        try:
            got = scan_pairs(x, y, x_tol, y_tol)
        finally:
            _kernels._BLOCK_ELEMENTS = old
        assert got == brute_pairs(x.tolist(), y.tolist(), x_tol, y_tol)
