import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracalc import (
    DenominatorNearZero,
    DomainError,
    EmptySweep,
    GridMismatch,
    IndicatorPair,
    Polynomial,
    SampledSeries,
    alpha_sweep,
    caputo_series,
    detect_multivalued,
    sample,
    t_indicator,
    t_indicator_time,
)
from oracle import lin_comb, ref_caputo_poly, rel_err

IDENTITY = Polynomial((0.0, 1.0))

# t_indicator(fig1, 0.5, 200) reduces algebraically to
# (0.01*s - 3)/(0.001*s - 0.2), s = 2T/(2-alpha) = 800/3: exactly -5.
# Recomputed with the mpmath power-rule oracle and by direct quadrature.
FIG1_T_INDICATOR_HALF_200 = -5.0


class TestPairValidation:
    def test_mixed_kinds_rejected(self, refused):
        message = "indicator and factor must share one representation kind"
        refused(DomainError, message, IndicatorPair, IDENTITY, sample(IDENTITY, 1.0, 8))

    def test_grid_mismatch_rejected(self, refused):
        message = "indicator and factor grids differ: (h=0.125, N=8) vs (h=0.0625, N=16)"
        refused(GridMismatch, message, IndicatorPair, sample(IDENTITY, 1.0, 8), sample(IDENTITY, 1.0, 16))

    def test_members_are_read_only(self):
        pair = IndicatorPair(IDENTITY, IDENTITY)
        with pytest.raises(AttributeError):
            pair.x = sample(IDENTITY, 1.0, 8)
        assert pair.y is pair.x is IDENTITY


class TestAverageIndicator:
    def test_fig1_at_end(self, fig1):
        got = t_indicator(fig1.pair(), 0.0, 200.0)
        assert got == 1200.0 / 70.0  # X(200)=70, Y(200)=1200

    def test_fig1_at_zero_time(self, fig1):
        assert t_indicator(fig1.pair(), 0.0, 0.0) == 20.0  # 1400/70

    def test_identical_components_give_one(self):
        p = Polynomial((1.0, 2.0, 3.0))
        assert t_indicator(IndicatorPair(y=p, x=p), 0.0, 1.7) == 1.0

    def test_sampled_matches_polynomial(self, fig1):
        got = t_indicator(fig1.sampled_pair(2000), 0.0)
        assert rel_err(got, 1200.0 / 70.0) <= 1e-12

    def test_zero_factor_raises(self, refused):
        pair = IndicatorPair(y=Polynomial((1.0,)), x=Polynomial((-1.0, 1.0)))
        message = "factor derivative is 0.0, below threshold for scale 1.0"
        refused(DenominatorNearZero, message, t_indicator, pair, 0.0, 1.0)  # x(1) = 0

    def test_polynomial_pair_needs_time(self, refused, fig1):
        refused(DomainError, "polynomial input needs an explicit evaluation time T", t_indicator, fig1.pair(), 0.0)


class TestMarginalIndicator:
    def test_fig1_at_end(self, fig1):
        # Y'(200)/X'(200) = 1/0.2
        assert t_indicator(fig1.pair(), 1.0, 200.0) == 5.0

    def test_fig1_at_stationary_factor(self, refused, fig1):
        # X'(100) = 0.002*100 - 0.2 = 0
        message = "factor derivative is 0.0, below threshold for scale 0.2"
        refused(DenominatorNearZero, message, t_indicator, fig1.pair(), 1.0, 100.0)

    def test_proportional_dependence(self):
        x = Polynomial((1.0, 2.0, 0.5))
        pair = IndicatorPair(y=Polynomial(lin_comb((3.0, x.coeffs))), x=x)
        assert rel_err(t_indicator(pair, 1.0, 2.0), 3.0) <= 1e-12


class TestTIndicator:
    def test_order_one_sampled_close_to_marginal(self, fig1):
        got = t_indicator(fig1.sampled_pair(20000), 1.0)
        assert rel_err(got, 5.0) <= 1e-3

    def test_fig1_half_order_frozen_oracle(self, fig1):
        got = t_indicator(fig1.pair(), 0.5, 200.0)
        assert abs(got - FIG1_T_INDICATOR_HALF_200) <= 1e-8

    def test_fig1_half_order_live_oracle(self, fig1):
        num = ref_caputo_poly(fig1.y.coeffs, 0.5, 200.0)
        den = ref_caputo_poly(fig1.x.coeffs, 0.5, 200.0)
        got = t_indicator(fig1.pair(), 0.5, 200.0)
        assert rel_err(got, num / den) <= 1e-10

    def test_numeric_engine_tracks_analytic(self, fig1):
        sampled = fig1.sampled_pair(4096)
        for a in (0.25, 0.5, 0.75):
            want = t_indicator(fig1.pair(), a, 200.0)
            got = t_indicator(sampled, a)
            assert rel_err(got, want) <= 5e-3

    def test_sampled_order_cap(self, refused, fig1):
        message = "numerical engine covers 0 <= alpha < 2, got 2.0"
        refused(DomainError, message, t_indicator, fig1.sampled_pair(64), 2.0)

    def test_polynomial_engine_has_no_cap(self, fig1):
        got = t_indicator(fig1.pair(), 2.0, 200.0)
        assert got == 0.02 / 0.002  # ratio of second derivatives

    @given(st.floats(0.1, 1.9), st.floats(min_value=0.25, max_value=4.0))
    @settings(max_examples=60)
    def test_scale_covariance(self, alpha, c):
        x = Polynomial((0.0, 1.0, 1.0))
        y = Polynomial((0.0, 2.0, 0.0, 1.0))
        base = t_indicator(IndicatorPair(y=y, x=x), alpha, 3.0)
        scaled_y = t_indicator(IndicatorPair(y=Polynomial(lin_comb((c, y.coeffs))), x=x), alpha, 3.0)
        scaled_x = t_indicator(IndicatorPair(y=y, x=Polynomial(lin_comb((c, x.coeffs)))), alpha, 3.0)
        assert rel_err(scaled_y, c * base) <= 1e-12
        assert rel_err(scaled_x, base / c) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0, 1.5])
    def test_proportional_processes(self, alpha):
        x = Polynomial((0.0, 1.0, 2.0, 1.0))
        pair = IndicatorPair(y=Polynomial(lin_comb((2.5, x.coeffs))), x=x)
        assert rel_err(t_indicator(pair, alpha, 1.5), 2.5) <= 1e-12


class TestTIndicatorTime:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_identity_indicator_gives_one(self, alpha):
        assert rel_err(t_indicator_time(IDENTITY, alpha, 1.0), 1.0) <= 1e-12

    def test_fig1_first_order_is_derivative(self, fig1):
        # Y'(200) = 0.02*200 - 3 = 1
        assert t_indicator_time(fig1.y, 1.0, 200.0) == 1.0

    def test_constant_gives_zero(self):
        assert t_indicator_time(Polynomial((9.0,)), 0.5, 10.0) == 0.0

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_consistent_with_explicit_time_factor(self, fig1, alpha):
        closed = t_indicator_time(fig1.y, alpha, 100.0)
        ratio = t_indicator(IndicatorPair(y=fig1.y, x=IDENTITY), alpha, 100.0)
        assert rel_err(closed, ratio) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_consistent_on_sampled_data(self, fig1, alpha):
        ys = sample(fig1.y, 100.0, 4096)
        ts = sample(IDENTITY, 100.0, 4096)
        closed = t_indicator_time(ys, alpha)
        ratio = t_indicator(IndicatorPair(y=ys, x=ts), alpha)
        assert rel_err(closed, ratio) <= 5e-3

    @pytest.mark.parametrize("alpha", [2.0, 2.5])
    def test_order_cap(self, refused, fig1, alpha):
        message = f"time-factor form requires 0 <= alpha < 2, got {alpha!r}"
        refused(DomainError, message, t_indicator_time, fig1.y, alpha, 100.0)

    def test_order_zero_at_time_zero_rejected(self, refused, fig1):
        # Order 0 is defined at T = 0, but the prefactor T^(alpha-1) is not.
        refused(DomainError, "end time must be finite and > 0, got T=0.0", t_indicator_time, fig1.y, 0.0, 0.0)


class TestAlphaSweep:
    def test_huge_orders_annihilate(self, fig2):
        # Differentiation stops once the polynomial is zero, so an order of
        # 1e15 costs as much as an order of 5.
        assert alpha_sweep(fig2.pair(), [1e15, 1e15 + 0.5], 100.0) == [None, None]

    def test_fig1_endpoints(self, fig1):
        # One value per order, in the orders' order.
        assert alpha_sweep(fig1.pair(), [0.0, 1.0], 200.0) == [1200.0 / 70.0, 5.0]

    def test_fig1_midpoint(self, fig1):
        mid = alpha_sweep(fig1.pair(), [0.0, 0.5, 1.0], 200.0)[1]
        assert mid is not None
        assert abs(mid - FIG1_T_INDICATOR_HALF_200) <= 1e-8

    def test_empty_sweep_rejected(self, refused, fig1):
        refused(EmptySweep, "no order values given", alpha_sweep, fig1.pair(), [], 200.0)

    def test_non_increasing_rejected(self, refused, fig1):
        refused(DomainError, "orders must be strictly increasing", alpha_sweep, fig1.pair(), [0.5, 0.5], 200.0)

    # "05" once swept the orders 0 and 5, b"05" the orders 48 and 53, and
    # "0.5" raised a bare ValueError.
    @pytest.mark.parametrize(
        "alphas,shown",
        [("05", "'05'"), (b"05", "b'05'"), ("0.5", "'0.5'"), (["0.5"], "'0.5'"), ([0.5, 1j], "1j")],
        ids=["str", "bytes", "str_number", "str_entry", "complex_entry"],
    )
    def test_not_real_orders_rejected(self, refused, fig1, alphas, shown):
        refused(DomainError, f"orders must be real numbers, got {shown}", alpha_sweep, fig1.pair(), alphas, 100.0)

    # A mapping once swept its keys and a set its members, in hash order.
    @pytest.mark.parametrize(
        "make",
        [
            lambda: {0.5: "a", 0.7: "b"},
            lambda: {0.5, 0.7},
            lambda: frozenset([0.7, 0.5]),
            lambda: (a for a in [0.5, 0.7]),
        ],
        ids=["dict", "set", "frozenset", "generator"],
    )
    def test_orders_that_are_not_a_sequence_rejected(self, refused, fig1, make):
        alphas = make()
        refused(DomainError, f"orders must be real numbers, got {alphas!r}", alpha_sweep, fig1.pair(), alphas, 100.0)

    def test_degenerate_entry_is_marked_not_fatal(self):
        # D^0.5 x vanishes at T=1 for x = t^2 - (4/3) t, by construction:
        # Gamma(3)/Gamma(2.5) = (4/3)/Gamma(1.5).
        x = Polynomial((0.0, -4.0 / 3.0, 1.0))
        y = Polynomial((0.0, 1.0, 1.0))
        values = alpha_sweep(IndicatorPair(y=y, x=x), [0.25, 0.5, 0.75], 1.0)
        assert [v is None for v in values] == [False, True, False]

    def test_guard_scale_on_tiny_steps(self):
        # The guard takes max|diff(v, n)| undivided and h once: max|diff(x)| / h
        # overflows at h = 1e-320, where D^0.5 x is 2.4e160, and h^-1.5 alone
        # at h = 1e-300, where the scale at order 1.5 is about 1e250.
        x = SampledSeries(1e-320, [1.0, 2.0, 4.0, 5.0])
        y = SampledSeries(1e-320, [2.0, 3.0, 5.0, 9.0])
        want = caputo_series(y, 0.5) / caputo_series(x, 0.5)
        assert alpha_sweep(IndicatorPair(y=y, x=x), [0.0, 0.5]) == [1.8, want]
        s = SampledSeries(1e-300, [0.0, 1e-200, 3e-200, 6e-200, 10e-200, 15e-200])
        assert alpha_sweep(IndicatorPair(y=s, x=s), [0.0, 1.2, 1.5]) == [1.0, 1.0, 1.0]
        # A constant factor's base is 0: degenerate at every order above 0.
        c = SampledSeries(1e-320, [3.0] * 6)
        assert alpha_sweep(IndicatorPair(y=c, x=c), [0.0, 0.5, 1.0, 1.5, 1.9]) == [1.0, None, None, None, None]


class TestOneEvaluationPath:
    """alpha_sweep and t_indicator agree bit for bit, degenerate orders too."""

    @staticmethod
    def assert_sweep_matches_single_orders(pair, alphas, T, spot=None):
        """Check the values at the orders in ``spot`` (default: all); None marks degenerate."""
        values = alpha_sweep(pair, alphas, T)
        assert len(values) == len(alphas)
        for alpha, value in zip(alphas, values):
            if spot is not None and alpha not in spot:
                continue
            if value is None:
                with pytest.raises(DenominatorNearZero):
                    t_indicator(pair, alpha, T)
            else:
                assert value == t_indicator(pair, alpha, T)
        return [v is None for v in values]

    def test_polynomial_pair(self):
        # D^0.5 x vanishes at T=1 for x = t^2 - (4/3) t (see TestAlphaSweep),
        # and every order above 2 annihilates the quadratic.
        x = Polynomial((0.0, -4.0 / 3.0, 1.0))
        y = Polynomial((0.0, 1.0, 1.0))
        alphas = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5]
        flags = self.assert_sweep_matches_single_orders(IndicatorPair(y=y, x=x), alphas, 1.0)
        assert flags == [a in (0.5, 2.5) for a in alphas]

    @pytest.mark.parametrize("T", [None, 150.0])
    def test_sampled_pair_with_constant_factor(self, fig1, T):
        # L1 and the difference formulas annihilate constants exactly, so
        # every order > 0 is degenerate; order 0 is x(T) = 5.
        y = sample(fig1.y, 200.0, 2000)
        x = sample(Polynomial((5.0,)), 200.0, 2000)
        alphas = [0.0, 0.3, 0.7, 1.0, 1.4]
        flags = self.assert_sweep_matches_single_orders(IndicatorPair(y=y, x=x), alphas, T)
        assert flags == [False, True, True, True, True]

    # 24001 orders k/8000 on [0, 3]: 0, 1, 2 and 3 exactly, and orders in
    # (1, 2) and (2, 3).  Spot checks cover every 997th order and the edges.
    LONG_SWEEP = [k / 8000 for k in range(24001)]
    SPOT = {*LONG_SWEEP[::997], 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 1 / 8000, 2 - 1 / 8000}

    def test_long_polynomial_sweep(self, fig2):
        flags = self.assert_sweep_matches_single_orders(fig2.pair(), self.LONG_SWEEP, 385.0, self.SPOT)
        assert len(flags) == 24001 and not any(flags)

    def test_long_polynomial_sweep_degenerate_entries(self):
        # x = t^2 - (4/3) t as in test_polynomial_pair.
        pair = IndicatorPair(y=Polynomial((0.0, 1.0, 1.0)), x=Polynomial((0.0, -4.0 / 3.0, 1.0)))
        flags = self.assert_sweep_matches_single_orders(pair, self.LONG_SWEEP, 1.0, self.SPOT)
        assert flags == [a == 0.5 or a > 2.0 for a in self.LONG_SWEEP]

    def test_sampled_pair_over_several_blocks(self, fig1):
        pair = IndicatorPair(y=sample(fig1.y, 300.0, 40_000), x=sample(fig1.x, 300.0, 40_000))
        alphas = [k / 10 for k in range(20)]
        assert not any(self.assert_sweep_matches_single_orders(pair, alphas, None))


class TestOrderLimits:
    """The orders next to 0 and 1 do not tend to the order-0 and order-1 values."""

    def test_near_zero_order_tends_to_difference_ratio(self, fig1):
        # D^a f(T) -> f(T) - f(0) as a -> 0+, and X(200) = X(0) for fig1:
        # the ratio is huge, correct, and not flagged by the guard.
        got = t_indicator(fig1.pair(), 1e-9, 200.0)
        want = ref_caputo_poly(fig1.y.coeffs, 1e-9, 200.0) / ref_caputo_poly(fig1.x.coeffs, 1e-9, 200.0)
        assert rel_err(got, want) <= 1e-5
        assert abs(got + 1.0e10) <= 1e7
        assert t_indicator(fig1.pair(), 0.0, 200.0) == 1200.0 / 70.0

    @pytest.mark.parametrize("engine", ["analytic", "numeric"])
    def test_near_zero_order_tends_to_ratio_of_changes(self, fig1, engine):
        # Where X(T) != X(0) the limit is finite: (Y(T) - Y(0)) / (X(T) - X(0)),
        # -225 / -7.5 = 30 at T = 150, not the average Y(T)/X(T) = 18.8.
        # Both engines are O(a) away from it at order a.
        T = 150.0
        want = (fig1.y(T) - fig1.y(0.0)) / (fig1.x(T) - fig1.x(0.0))
        assert want == 30.0
        if engine == "analytic":
            got = t_indicator(fig1.pair(), 1e-9, T)
        else:
            got = t_indicator(fig1.sampled_pair(2000, T), 1e-9)
        assert rel_err(got, want) <= 1e-7

    def test_near_one_order_tends_to_backward_difference(self, fig1):
        # Numeric L1 tends to the first-order backward difference as a -> 1-,
        # while order 1 is the second-order three-point difference.
        pair = fig1.sampled_pair(2000)
        y, x = pair.y.values, pair.x.values
        backward = (y[-1] - y[-2]) / (x[-1] - x[-2])
        assert abs(backward - 4.9975) <= 1e-4
        assert rel_err(t_indicator(pair, 1.0 - 1e-9), backward) <= 1e-7
        assert rel_err(t_indicator(pair, 1.0), 5.0) <= 1e-12


class TestDetectMultivalued:
    def test_fig1_endpoints_witnessed(self, fig1):
        xs = sample(fig1.x, 200.0, 200)
        ys = sample(fig1.y, 200.0, 200)
        t1, t2 = detect_multivalued(xs, ys, 1e-9, 1.0)
        assert t1.dtype == t2.dtype == np.float64
        assert ((t1 == 0.0) & (t2 == 200.0)).any()

    def test_monotone_factor_has_no_witnesses(self):
        xs = sample(IDENTITY, 1.0, 100)
        ys = sample(Polynomial((0.0, 0.0, 50.0)), 1.0, 100)
        t1, t2 = detect_multivalued(xs, ys, 1e-9, 1e-6)
        assert t1.size == t2.size == 0

    def test_constant_indicator_has_no_witnesses(self, fig1):
        xs = sample(fig1.x, 200.0, 100)
        ys = sample(Polynomial((3.0,)), 200.0, 100)
        t1, t2 = detect_multivalued(xs, ys, 1.0, 1e-9)
        assert t1.size == t2.size == 0

    def test_polynomials_rejected(self, refused, fig1):
        # They once reached `values`, which a Polynomial does not have.
        message = "only sampled series can be scanned for witnesses"
        refused(DomainError, message, detect_multivalued, fig1.x, fig1.y, 1.0, 1.0)

    def test_grid_mismatch_rejected(self, refused, fig1):
        xs, ys = sample(fig1.x, 200.0, 100), sample(fig1.y, 200.0, 50)
        message = "indicator and factor grids differ: (h=4.0, N=50) vs (h=2.0, N=100)"
        refused(GridMismatch, message, detect_multivalued, xs, ys, 1.0, 1.0)

    @pytest.mark.parametrize(
        "x_tol,y_tol",
        [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)],
    )
    def test_non_positive_tolerances_rejected(self, refused, fig1, x_tol, y_tol):
        xs = sample(fig1.x, 200.0, 10)
        ys = sample(fig1.y, 200.0, 10)
        message = f"tolerances must be finite and > 0, got x_tol={x_tol!r}, y_tol={y_tol!r}"
        refused(DomainError, message, detect_multivalued, xs, ys, x_tol, y_tol)

    def test_pairs_are_time_ordered(self, fig1):
        xs = sample(fig1.x, 200.0, 400)
        ys = sample(fig1.y, 200.0, 400)
        t1, t2 = detect_multivalued(xs, ys, 0.05, 1.0)
        assert t1.size > 0 and (t1 < t2).all()
        assert (np.lexsort((t2, t1)) == np.arange(t1.size)).all()
