import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracalc import (
    DomainError,
    InsufficientData,
    Polynomial,
    SampledSeries,
    alpha_sweep,
    caputo_derivative,
    detect_multivalued,
    export_csv,
    sample,
    t_indicator,
    t_indicator_time,
)
from fracalc.caputo import _Derivative, _derivatives
from fracalc.indicators import IndicatorPair, _evaluate
from oracle import lin_comb, ref_caputo_poly, ref_caputo_quad, rel_err

coeff_lists = st.lists(st.floats(-10.0, 10.0), min_size=0, max_size=6)


# Samples 1e-320 apart, where the derivatives of order 0.99, 1 and 1.5 overflow.
TINY_STEP = SampledSeries(1e-320, [2.0, 3.0, 5.0, 9.0, 9.0])


def monomial(k):
    return Polynomial((0.0,) * k + (1.0,))


class TestFracOrder:
    """The fractional order: which orders are refused, and its guard scale."""

    @pytest.mark.parametrize(
        "alpha,n", [(0.0, 0), (1.0, 1), (2.0, 2), (0.5, 1), (1.3, 2), (2.7, 3)]
    )
    def test_inner_derivative_count(self, alpha, n):
        # The guard scale of order alpha is max|x^(n)| T^(n-alpha) / Gamma(n-alpha+1),
        # and max|(t^3)^(n)| on [0, 1] is 3!/(3-n)!.
        cube = monomial(3)
        _, _, (scale,) = _evaluate(IndicatorPair(y=cube, x=cube), np.array([alpha]), 1.0)
        want = math.factorial(3) / math.factorial(3 - n) / math.gamma(n - alpha + 1.0)
        assert math.isclose(scale, want, rel_tol=1e-14)

    @pytest.mark.parametrize("alpha,n", [(0.0, 0), (0.3, 1), (1.0, 1), (1.5, 2)])
    def test_sampled_guard_scale(self, alpha, n):
        # On a stored series, max|x^(n)| is the largest undivided n-th
        # difference over h^n, and T is N h.
        v, h = np.array([1.0, 2.5, 2.0, 4.0, 7.5, 7.0, 9.0]), 0.25
        s = SampledSeries(h, v)
        _, _, (scale,) = _evaluate(IndicatorPair(y=s, x=s), [alpha], None)
        T = (v.size - 1) * h
        want = np.abs(np.diff(v, n)).max() * T ** (n - alpha) * h**-n / math.gamma(n - alpha + 1.0)
        assert math.isclose(scale, want, rel_tol=1e-14)

    @pytest.mark.parametrize("alpha", [-0.1, float("nan"), float("inf")])
    def test_invalid_orders_rejected(self, refused, alpha):
        # Every public entry point refuses the order, polynomial and sampled.
        p, s = monomial(2), sample(monomial(2), 1.0, 16)
        for call in (
            lambda: caputo_derivative(p, alpha, 1.0),
            lambda: caputo_derivative(s, alpha),
            lambda: t_indicator(IndicatorPair(y=s, x=s), alpha),
            lambda: alpha_sweep(IndicatorPair(y=p, x=p), [alpha], 1.0),
        ):
            refused(DomainError, f"order must be finite and >= 0, got {alpha!r}", call)

    @pytest.mark.parametrize("alpha", ["0.5", b"0.5", [0.5]], ids=["str", "bytes", "list"])
    def test_non_number_orders_rejected(self, refused, alpha):
        # float() once parsed the text, so "0.5" was taken as the order 0.5.
        p, s = monomial(2), sample(monomial(2), 1.0, 16)
        for call in (
            lambda: caputo_derivative(p, alpha, 1.0),
            lambda: caputo_derivative(s, alpha),
            lambda: t_indicator(IndicatorPair(y=s, x=s), alpha),
            lambda: t_indicator_time(s, alpha),
        ):
            refused(DomainError, f"orders must be real numbers, got {alpha!r}", call)


class TestPolynomial:
    def test_zero_polynomial(self):
        p = Polynomial(())
        assert p.degree == -1 and p(3.0) == 0.0

    def test_degree_ignores_trailing_zeros(self):
        assert Polynomial((1.0, 2.0, 0.0)).degree == 1

    def test_horner_evaluation(self):
        p = Polynomial((1.0, -2.0, 3.0))
        assert p(2.0) == 1.0 - 4.0 + 12.0

    def test_vectorized_evaluation(self):
        p = Polynomial((0.0, 1.0))
        np.testing.assert_array_equal(p(np.array([0.0, 0.5, 1.0])), [0.0, 0.5, 1.0])

    def test_derivative(self):
        assert Polynomial((1.0, 2.0, 3.0)).derivative().coeffs == (2.0, 6.0)

    # Each of these once iterated into coefficients: '123' as 1 + 2t + 3t^2,
    # b'12' as its byte values 49 + 50t, a dict as its keys.
    @pytest.mark.parametrize("coeffs", ["123", b"12", {1: 2}, 5], ids=["str", "bytes", "dict", "int"])
    def test_not_a_sequence_of_numbers_rejected(self, refused, coeffs):
        message = f"polynomial coefficients must be a sequence of real numbers, got {type(coeffs).__name__}"
        refused(DomainError, message, Polynomial, coeffs)

    @pytest.mark.parametrize("entry", ["2", b"2"], ids=["str", "bytes"])
    def test_text_entry_rejected(self, refused, entry):
        refused(DomainError, f"polynomial coefficients must be real numbers, got {entry!r}", Polynomial, (1.0, entry))

    def test_non_finite_coefficient_rejected(self, refused):
        refused(DomainError, "polynomial coefficients must be finite", Polynomial, (1.0, math.inf))

    def test_ints_and_numpy_scalars_accepted(self):
        p = Polynomial([1, np.int64(2), np.float32(0.5), np.float64(3.0)])
        assert p.coeffs == (1.0, 2.0, 0.5, 3.0) and all(type(c) is float for c in p.coeffs)
        assert Polynomial(np.array([1.0, 2.0])).coeffs == (1.0, 2.0)

    def test_coeffs_are_read_only(self):
        p = Polynomial((1.0, 2.0))
        with pytest.raises(AttributeError):
            p.coeffs = (3.0,)
        assert p.coeffs == (1.0, 2.0)


class TestSampledSeries:
    def test_basic_properties(self):
        s = SampledSeries(0.5, [0.0, 1.0, 2.0])
        assert s.n_steps == 2 and s.t_end == 1.0
        np.testing.assert_allclose(s.times(), [0.0, 0.5, 1.0])

    def test_values_are_frozen(self):
        s = SampledSeries(1.0, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    @pytest.mark.parametrize("h", [0.0, -1.0, float("nan")])
    def test_bad_step_rejected(self, refused, h):
        refused(DomainError, f"step must be finite and > 0, got h={h!r}", SampledSeries, h, [0.0, 1.0, 2.0])

    def test_too_short_rejected(self, refused):
        refused(InsufficientData, "need at least 3 samples (N >= 2), got 2", SampledSeries, 1.0, [0.0, 1.0])

    def test_non_finite_values_rejected(self, refused):
        refused(DomainError, "all sample values must be finite", SampledSeries, 1.0, [0.0, float("nan"), 2.0])

    # Text once parsed into samples; complex numbers and mappings raised a
    # bare TypeError.
    @pytest.mark.parametrize(
        "values,shown",
        [
            (["1", "2", "3"], "'1'"),
            ("123", "'123'"),
            (b"123", "b'123'"),
            ([1.0, 2j, 3.0], "(1+0j)"),
            (np.array([1.0, 2j, 3.0]), "(1+0j)"),
            ({0: 1.0, 1: 2.0, 2: 3.0}, "{0: 1.0, 1: 2.0, 2: 3.0}"),
        ],
        ids=["str_entries", "str", "bytes", "complex", "complex_array", "dict"],
    )
    def test_not_real_numbers_rejected(self, refused, values, shown):
        refused(DomainError, f"sample values must be real numbers, got {shown}", SampledSeries, 1.0, values)

    def test_ints_and_fractions_accepted(self):
        s = SampledSeries(1.0, [1, Fraction(1, 3), 2**70])
        assert s.values.tolist() == [1.0, 1.0 / 3.0, 2.0**70]

    def test_two_dimensional_values_rejected(self, refused):
        refused(DomainError, "values must be one-dimensional", SampledSeries, 1.0, np.zeros((3, 3)))

    def test_truncated_on_grid(self):
        s = SampledSeries(0.25, np.arange(9.0))
        t = s.truncated(1.0)
        assert t.n_steps == 4 and t.t_end == 1.0

    def test_truncated_off_grid_rejected(self, refused):
        s = SampledSeries(0.25, np.arange(9.0))
        refused(DomainError, "t=1.1 does not lie on the sampling grid (h=0.25)", s.truncated, 1.1)

    def test_truncated_beyond_range_rejected(self, refused):
        s = SampledSeries(0.25, np.arange(9.0))
        refused(DomainError, "t=9.0 is beyond the sampled range [0, 2.0]", s.truncated, 9.0)

    def test_truncated_before_start_rejected(self, refused):
        s = SampledSeries(0.25, np.arange(9.0))
        refused(DomainError, "t=-1.0 is beyond the sampled range [0, 2.0]", s.truncated, -1.0)
        # A time that snaps to 0 is on the grid, but leaves one sample.
        refused(InsufficientData, "truncation to t=-1e-12 leaves fewer than 3 samples", s.truncated, -1e-12)

    def test_truncated_below_three_samples_rejected(self, refused):
        s = SampledSeries(0.25, np.arange(9.0))
        refused(InsufficientData, "truncation to t=0.25 leaves fewer than 3 samples", s.truncated, 0.25)

    # The block accessor sizes its buffers from the largest block, so it
    # walks the bounds more than once; a one-shot iterable must still give
    # every block.  Every block is read-only, stored or computed.
    @pytest.mark.parametrize(
        "view",
        [lambda s: s, _Derivative, lambda s: SampledSeries(0.1, np.arange(11.0) ** 2)],
        ids=["samples", "derivative", "stored"],
    )
    def test_blocks_read_a_one_shot_iterable(self, view):
        r = view(sample(monomial(2), 1.0, 10))
        got = [(b.flags.writeable, b.copy()) for b in r._blocks(iter([(0, 4), (4, 11)]))]
        assert [writeable for writeable, _ in got] == [False, False]
        assert np.concatenate([b for _, b in got]).tolist() == r.values.tolist()


GRID = SampledSeries(0.25, np.arange(9.0))


class TestScalarArguments:
    """Times, steps and tolerances are real numbers, as orders are: text, which
    ``float`` would parse, None, a list or a mapping is a DomainError.  So is
    a function, series or pair of the wrong type."""

    CALLS = {
        "caputo_poly-T": ("end times", lambda v: caputo_derivative(monomial(2), 0.5, v)),
        "t_indicator-T": ("end times", lambda v: t_indicator(IndicatorPair(monomial(2), monomial(1)), 0.5, v)),
        "caputo_series-T": ("truncation times", lambda v: caputo_derivative(GRID, 0.5, v)),
        "truncated-t": ("truncation times", lambda v: GRID.truncated(v)),
        "SampledSeries-h": ("steps", lambda v: SampledSeries(v, [1.0, 2.0, 3.0])),
        "sample-t_end": ("end times", lambda v: sample(monomial(2), v, 5)),
        "detect_multivalued-x_tol": ("tolerances", lambda v: detect_multivalued(GRID, GRID, v, 1.0)),
        "detect_multivalued-y_tol": ("tolerances", lambda v: detect_multivalued(GRID, GRID, 1.0, v)),
    }
    VALUES = {"text": "200", "None": None, "list": [1.0], "dict": {}}

    # T=None is the default: no time for a polynomial, the series' end for a series.
    @pytest.mark.parametrize(
        "call,value",
        [
            pytest.param(call, value, id=f"{call}-{name}")
            for call, (name, value) in itertools.product(CALLS, VALUES.items())
            if not (value is None and call.endswith("-T"))
        ],
    )
    def test_not_a_real_number_rejected(self, refused, call, value):
        what, f = self.CALLS[call]
        refused(DomainError, f"{what} must be real numbers, got {value!r}", f, value)

    # Most of these once ended in an AttributeError.
    NOT_A_FUNCTION = "expected a Polynomial or a SampledSeries, got {}"
    SUBJECTS = {
        "t_indicator-None": (lambda: t_indicator(None, 0.5), "expected an IndicatorPair, got NoneType"),
        "t_indicator-series": (lambda: t_indicator(GRID, 0.5), "expected an IndicatorPair, got SampledSeries"),
        "alpha_sweep-str": (lambda: alpha_sweep("fig1", [0.5]), "expected an IndicatorPair, got str"),
        "caputo_series-None": (lambda: caputo_derivative(None, 0.5), NOT_A_FUNCTION.format("NoneType")),
        "caputo_series-pair": (
            lambda: caputo_derivative(IndicatorPair(GRID, GRID), 0.5), NOT_A_FUNCTION.format("IndicatorPair")
        ),
        "caputo_poly-None": (lambda: caputo_derivative(None, 0.5, 1.0), NOT_A_FUNCTION.format("NoneType")),
        "t_indicator_time-None": (lambda: t_indicator_time(None, 0.5), NOT_A_FUNCTION.format("NoneType")),
        "sample-None": (lambda: sample(None, 1.0, 3), "expected a Polynomial, got NoneType"),
        # Checked before the end time and the step count.
        "sample-series": (lambda: sample(GRID, None, 1), "expected a Polynomial, got SampledSeries"),
        "export_csv-None": (lambda: export_csv(None, io.StringIO()), "only sampled pairs can be exported"),
        "detect_multivalued-None": (
            lambda: detect_multivalued(None, None, 1.0, 1.0), "indicator and factor must share one representation kind"
        ),
    }

    @pytest.mark.parametrize("call", SUBJECTS)
    def test_subject_of_wrong_type_rejected(self, refused, call):
        f, message = self.SUBJECTS[call]
        refused(DomainError, message, f)


class TestCaputoPoly:
    def test_constant_annihilated(self):
        assert caputo_derivative(Polynomial((5.0,)), 0.5, 2.0) == 0.0

    def test_integer_order_is_classical(self):
        # d/dt t^2 at T=3
        assert caputo_derivative(monomial(2), 1.0, 3.0) == 6.0

    def test_overflow_is_domain_error(self, refused):
        # T^1.5 at T = 1e300 overflows a double.
        refused(DomainError, "order-0.5 derivative overflows at T=1e+300", caputo_derivative, monomial(2), 0.5, 1e300)

    def test_degree_150_does_not_overflow(self):
        # Gamma(151)/Gamma(150.5) * 1^149.5: finite, although Gamma(151) is 5.7e262.
        got = caputo_derivative(monomial(150), 0.5, 1.0)
        assert got == 12.257659156029481
        assert rel_err(got, ref_caputo_poly(monomial(150).coeffs, 0.5, 1.0)) <= 1e-14

    @pytest.mark.parametrize("alpha", [201.0, 250.0])
    def test_integer_order_above_degree_200_is_zero(self, alpha):
        # The 200th derivative of t^200 is 200! = 7.9e374, which overflows;
        # orders above the degree must return 0 without passing through it.
        assert caputo_derivative(monomial(200), alpha, 1.0) == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.25, 99.5, 140.25])
    @pytest.mark.parametrize("T", [0.5, 1.0, 1.5])
    def test_log_gamma_branch_against_oracle(self, alpha, T):
        # Degrees 169 (direct gamma ratio), 171 and 200 (log-gamma): Gamma(201)
        # itself overflows a double.
        coeffs = [0.0] * 201
        coeffs[169], coeffs[171], coeffs[200] = 1.0, -2.0, 0.5
        want = ref_caputo_poly(coeffs, alpha, T)
        assert rel_err(caputo_derivative(Polynomial(tuple(coeffs)), alpha, T), want) <= 1e-12

    def test_overflowing_gamma_ratio_is_domain_error(self, refused):
        # Gamma(172)/Gamma(1.25) = 1.4e309 is beyond double range.
        message = "order-170.75 derivative overflows at T=1.0"
        refused(DomainError, message, caputo_derivative, monomial(171), 170.75, 1.0)

    @given(coeff_lists, st.one_of(st.floats(0.0, 7.5), st.integers(0, 7).map(float)),
           st.floats(0.1, 10.0))
    @example([0.0, 0.0, 2.2250738585e-313], 0.0, 2.25)
    @example([0.0, 0.0, 1.5e-323], 0.5, 10.0)
    @example([0.0, 0.0, 0.0, 0.0, 0.0, 3.5e-323], 2.5, 10.0)
    @settings(max_examples=200)
    def test_against_oracle(self, cs, alpha, T):
        got = caputo_derivative(Polynomial(tuple(cs)), alpha, T)
        want = ref_caputo_poly(cs, alpha, T)
        # Relative to the cancellation-free magnitude, sum of |terms|.  That
        # bound underflows for subnormal results, where each rounding loses up
        # to half a subnormal step outright and later products by T scale the
        # loss by at most max(1, T)**degree: at most two roundings per term.
        scale = ref_caputo_poly([abs(c) for c in cs], alpha, T)
        floor = len(cs) * math.ulp(0.0) * max(1.0, T) ** (len(cs) - 1)
        assert abs(got - want) <= 1e-13 * scale + floor

    @pytest.mark.parametrize("cs,alpha", [([0.0, 0.0, 1.5e-323], 0.5), ([0.0] * 5 + [3.5e-323], 2.5)])
    def test_subnormal_coefficient_rounds_once(self, cs, alpha):
        # Each term is c * (ratio * power).  The order (c * ratio) * power
        # rounded c * ratio to a whole subnormal step and then scaled that loss
        # by T^(k - alpha): 15 steps off here at order 0.5, 77 at order 2.5.
        got = caputo_derivative(Polynomial(tuple(cs)), alpha, 10.0)
        assert abs(got - ref_caputo_poly(cs, alpha, 10.0)) <= math.ulp(0.0)

    def test_square_half_order(self):
        # Gamma(3)/Gamma(2.5) at T=1, frozen from the mpmath oracle.
        got = caputo_derivative(monomial(2), 0.5, 1.0)
        assert rel_err(got, 1.5045055561273501) <= 1e-12
        assert rel_err(got, ref_caputo_poly((0, 0, 1), 0.5, 1.0)) <= 1e-12

    def test_low_degree_terms_vanish(self):
        # alpha in (1, 2): both constant and linear parts must drop out.
        p = Polynomial((4.0, -7.0, 0.0, 1.0))
        want = ref_caputo_poly((0.0, 0.0, 0.0, 1.0), 1.5, 2.0)
        assert rel_err(caputo_derivative(p, 1.5, 2.0), want) <= 1e-11

    def test_monomials_against_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            k = int(rng.integers(1, 7))
            a = float(rng.uniform(0.01, k))
            if abs(a - round(a)) < 1e-6:
                continue
            t_end = float(rng.uniform(0.1, 10.0))
            got = caputo_derivative(monomial(k), a, t_end)
            assert rel_err(got, ref_caputo_poly(monomial(k).coeffs, a, t_end)) <= 1e-11

    def test_order_zero_is_evaluation(self):
        p = Polynomial((1.0, 2.0, 3.0))
        assert caputo_derivative(p, 0.0, 2.0) == p(2.0)

    def test_order_zero_at_time_zero_is_evaluation(self):
        p = Polynomial((1.0, 2.0, 3.0))
        assert caputo_derivative(p, 0.0, 0.0) == p(0.0) == 1.0

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_non_positive_time_rejected(self, refused, T):
        refused(DomainError, f"end time must be finite and > 0, got T={T!r}", caputo_derivative, monomial(1), 0.5, T)

    def test_missing_time_is_domain_error(self, refused):
        message = "polynomial input needs an explicit evaluation time T"
        refused(DomainError, message, caputo_derivative, monomial(1), 0.5, None)

    @given(coeff_lists, coeff_lists, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
           st.floats(0.01, 2.99), st.floats(0.1, 10.0))
    @settings(max_examples=200)
    def test_linearity(self, cp, cq, a, b, alpha, T):
        p, q = Polynomial(tuple(cp)), Polynomial(tuple(cq))
        lhs = caputo_derivative(Polynomial(lin_comb((a, p.coeffs), (b, q.coeffs))), alpha, T)
        rhs = a * caputo_derivative(p, alpha, T) + b * caputo_derivative(q, alpha, T)
        # Scale by the cancellation-free magnitude of both operands.
        scale = abs(a) * caputo_derivative(Polynomial(tuple(abs(c) for c in cp)), alpha, T) + \
            abs(b) * caputo_derivative(Polynomial(tuple(abs(c) for c in cq)), alpha, T)
        assert abs(lhs - rhs) <= 1e-12 * scale + 1e-15

    @given(st.floats(-100.0, 100.0), st.floats(0.01, 1.99), st.floats(0.1, 10.0))
    def test_constants_annihilated_for_positive_orders(self, c, alpha, T):
        assert caputo_derivative(Polynomial((c,)), alpha, T) == 0.0

    @given(coeff_lists, st.floats(0.1, 10.0))
    def test_first_order_coincides_with_derivative(self, cs, T):
        p = Polynomial(tuple(cs))
        assert caputo_derivative(p, 1.0, T) == p.derivative()(T)


class TestCaputoL1:
    def test_constant_series_exactly_zero(self):
        s = sample(Polynomial((7.0,)), 1.0, 64)
        assert caputo_derivative(s, 0.5) == 0.0

    def test_linear_is_exact(self):
        # L1 integrates its own interpolant exactly, and that interpolant
        # reproduces linear functions: only roundoff remains.
        got = caputo_derivative(sample(Polynomial((0.0, 1.0)), 1.0, 1024), 0.5)
        assert rel_err(got, 1.1283791670955126) <= 1e-9  # 1/Gamma(1.5)

    def test_square_against_analytic_engine(self):
        got = caputo_derivative(sample(monomial(2), 1.0, 4096), 0.5)
        want = caputo_derivative(monomial(2), 0.5, 1.0)
        assert rel_err(got, want) <= 5e-3

    def test_power_grid_against_analytic_engine(self):
        for beta in (1, 2, 3, 4):
            s = sample(monomial(beta), 1.0, 4096)
            for a in (0.25, 0.5, 0.75):
                want = caputo_derivative(monomial(beta), a, 1.0)
                got = caputo_derivative(s, a)
                if want == 0.0:
                    assert abs(got) <= 1e-6
                else:
                    assert rel_err(got, want) <= 5e-3

    def test_non_polynomial_against_quadrature_oracle(self):
        import mpmath as mp

        t = np.arange(4097) / 4096
        got = caputo_derivative(SampledSeries(1 / 4096, np.exp(t)), 0.5)
        want = ref_caputo_quad(mp.exp, 0.5, 1.0)
        assert rel_err(got, want) <= 1e-4

    def test_order_zero_returns_final_value(self):
        s = sample(monomial(2), 1.0, 16)
        assert caputo_derivative(s, 0.0) == s.values[-1]

    def test_order_one_is_three_point_difference(self):
        s = sample(monomial(2), 1.0, 100)
        v = s.values
        assert caputo_derivative(s, 1.0) == (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * s.h)

    @pytest.mark.parametrize("alpha", [0.99, 1.0, 1.5])
    def test_overflow_is_domain_error(self, refused, alpha):
        # The test run would turn a numpy warning before the error into a failure.
        refused(DomainError, f"order-{alpha!r} derivative overflows at h=1e-320", caputo_derivative, TINY_STEP, alpha)

    @pytest.mark.parametrize(
        "alphas,first", [([0.5, 1.0, 0.99], 1.0), ([0.5, 0.99, 1.0], 0.99), ([0.5, 1.5, 0.99], 1.5)]
    )
    def test_overflow_names_first_order(self, refused, alphas, first):
        # Order 0.5 is finite, about 2.9e160.
        refused(DomainError, f"order-{first!r} derivative overflows at h=1e-320", _derivatives, [TINY_STEP], alphas)

    @pytest.mark.parametrize(
        "alpha,message",
        [(2.0, "numerical engine covers 0 <= alpha < 2, got 2.0"), (-0.5, "order must be finite and >= 0, got -0.5")],
        ids=["2.0", "-0.5"],
    )
    def test_order_outside_unit_interval_rejected(self, refused, alpha, message):
        refused(DomainError, message, caputo_derivative, sample(monomial(1), 1.0, 8), alpha)

    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(0.05, 0.95))
    @settings(max_examples=60)
    def test_linearity_on_summed_series(self, a, b, alpha):
        s1 = sample(Polynomial((1.0, -2.0, 0.5)), 1.0, 128)
        s2 = sample(Polynomial((0.0, 3.0, 0.0, -1.0)), 1.0, 128)
        summed = SampledSeries(s1.h, a * s1.values + b * s2.values)
        lhs = caputo_derivative(summed, alpha)
        d1, d2 = caputo_derivative(s1, alpha), caputo_derivative(s2, alpha)
        rhs = a * d1 + b * d2
        scale = abs(a) * abs(d1) + abs(b) * abs(d2)
        assert abs(lhs - rhs) <= 1e-12 * scale + 1e-12


class TestCaputoL1Extended:
    def test_constant_annihilated(self):
        s = sample(Polynomial((7.0,)), 1.0, 64)
        assert abs(caputo_derivative(s, 1.5)) <= 1e-10

    def test_linear_annihilated(self):
        got = caputo_derivative(sample(Polynomial((0.0, 1.0)), 1.0, 4096), 1.5)
        assert abs(got) <= 1e-6

    def test_square_against_analytic_engine(self):
        got = caputo_derivative(sample(monomial(2), 1.0, 4096), 1.5)
        want = caputo_derivative(monomial(2), 1.5, 1.0)  # Gamma(3)/Gamma(1.5)
        assert rel_err(got, want) <= 1e-2
        assert rel_err(got, 2.2567583341910251) <= 1e-2

    def test_cubic_against_oracle(self):
        got = caputo_derivative(sample(monomial(3), 1.0, 4096), 1.25)
        assert rel_err(got, ref_caputo_poly(monomial(3).coeffs, 1.25, 1.0)) <= 1e-2

    def test_short_series_rejected(self, refused):
        s = SampledSeries(1.0, [0.0, 1.0, 4.0, 9.0])  # N = 3
        refused(InsufficientData, "need N >= 4 samples, got N=3", caputo_derivative, s, 1.5)


class TestOrderZeroConvention:
    """The alpha -> 0+ limit is f(T) - f(0), but order 0 is defined as f(T).

    A jump therefore appears at alpha = 0 whenever f(0) != 0.  These tests
    pin the convention and keep the discontinuity visible instead of
    smoothing it over.
    """

    def test_polynomial_jump_at_zero_order(self):
        p = Polynomial((70.0, -0.2, 0.001))  # f(0) = f(200) = 70
        at_zero = caputo_derivative(p, 0.0, 200.0)
        near_zero = caputo_derivative(p, 1e-6, 200.0)
        assert at_zero == p(200.0) == 70.0
        assert abs(near_zero - (p(200.0) - p(0.0))) <= 1e-3  # limit is 0 here
        assert abs(at_zero - near_zero) > 60.0

    def test_sampled_jump_at_zero_order(self):
        p = Polynomial((70.0, -0.2, 0.001))
        s = sample(p, 200.0, 2000)
        at_zero = caputo_derivative(s, 0.0)
        near_zero = caputo_derivative(s, 1e-6)
        assert at_zero == s.values[-1]
        assert abs(near_zero - (s.values[-1] - s.values[0])) <= 1e-3
        assert abs(at_zero - near_zero) > 60.0

    @pytest.mark.parametrize("kind", ["polynomial", "sampled"])
    def test_repeated_integer_orders_agree(self, kind):
        # Each integer order is evaluated where it stands, so a repeat gives
        # the same bits as its first occurrence and as a one-order call.
        p, q = Polynomial((1.0, -2.0, 0.5)), Polynomial((0.0, 1.0, 0.25, -0.1))
        T = 2.0
        fs = [p, q] if kind == "polynomial" else [sample(p, T, 64), sample(q, T, 64)]
        values, _, fs, _ = _derivatives(fs, [1.0, 0.5, 1.0, 0.0, 0.0], T)
        for f, row in zip(fs, values):
            assert row[1] != 0.0
            assert row[0] == row[2] == caputo_derivative(f, 1.0, T)
            assert row[3] == row[4] == caputo_derivative(f, 0.0, T)


class TestCaputoSeriesDispatch:
    def test_routes_by_order(self):
        s = sample(monomial(2), 1.0, 256)
        assert caputo_derivative(s, 1.5) == caputo_derivative(SampledSeries(s.h, _Derivative(s).values), 0.5)
        assert caputo_derivative(s, 0.0) == s.values[-1]

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_time_truncates_the_series(self, alpha):
        # A series at T on its grid is the series truncated to [0, T], bit for bit.
        s = SampledSeries(0.25, np.exp(np.arange(9.0) / 4.0))
        got = caputo_derivative(s, alpha, 1.0)
        assert got == caputo_derivative(s.truncated(1.0), alpha)
        assert got != caputo_derivative(s, alpha)

    @pytest.mark.parametrize("alpha", [-0.5, float("nan"), float("inf")])
    def test_core_rejects_invalid_orders(self, refused, alpha):
        # The all-orders core checks its own orders: -0.5 would otherwise
        # send exponent 1.5 into the kernel, whose exponents lie in (0, 1].
        s = sample(monomial(2), 1.0, 16)
        refused(DomainError, f"order must be finite and >= 0, got {alpha!r}", _derivatives, [s], [0.5, alpha])

    @pytest.mark.parametrize("alpha", [2.0, 2.5, 10.0])
    def test_cap_at_two(self, refused, alpha):
        message = f"numerical engine covers 0 <= alpha < 2, got {alpha!r}"
        refused(DomainError, message, caputo_derivative, sample(monomial(2), 1.0, 256), alpha)


def _recording(monkeypatch, name):
    """Replace math.<name> with a wrapper that records its arguments."""
    seen = []
    real = getattr(math, name)

    def wrapper(z):
        seen.append(z)
        return real(z)

    monkeypatch.setattr(math, name, wrapper)
    return seen


class TestGammaErrors:
    """The closed form never hands math.gamma or math.lgamma a pole or a non-finite number."""

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -17.0])
    def test_poles_raise(self, z, monkeypatch):
        with pytest.raises(ValueError):
            math.gamma(z)
        # D^alpha t^3 with 3 + 1 - alpha = z: the integer order takes the
        # classical derivative, which is zero, and never reaches the pole.
        seen = _recording(monkeypatch, "gamma")
        assert caputo_derivative(monomial(3), 4.0 - z, 2.0) == 0.0
        assert z not in seen

    @pytest.mark.parametrize("z", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, z, monkeypatch):
        seen = _recording(monkeypatch, "gamma")
        with pytest.raises(DomainError):
            caputo_derivative(monomial(3), z, 1.0)
        assert seen == []

    @pytest.mark.parametrize("z", [0.0, -1.0, -0.5])
    def test_non_positive_rejected(self, z, monkeypatch):
        # D^alpha t^200 takes the log-gamma branch; with 200 + 1 - alpha = z
        # the order exceeds the degree, so the monomial is annihilated and
        # log-gamma only sees the positive argument of the order-0.5 term.
        seen = _recording(monkeypatch, "lgamma")
        assert caputo_derivative(monomial(200), 201.0 - z, 1.0) == 0.0
        assert caputo_derivative(monomial(200), 0.5, 1.0) > 0.0
        assert seen and min(seen) > 0.0
