"""The standard-library gamma behind the closed form.

The closed form of ``caputo_derivative`` and the indicator guard take Gamma
from ``math.gamma`` and ``math.lgamma``.  These tests hold those to the
accuracy the power rule needs, against the mpmath oracle, at arguments the
closed form's oracle tests do not reach.  What the package hands them is tested in
``test_caputo.py``.
"""

import math
from math import gamma
from math import lgamma as log_gamma

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from oracle import ref_gamma, ref_log_gamma, rel_err


class TestGammaValues:
    def test_one_is_one(self):
        assert gamma(1.0) == 1.0

    def test_half_is_sqrt_pi(self):
        assert rel_err(gamma(0.5), math.sqrt(math.pi)) <= 1e-10

    def test_integer_factorials(self):
        for k in range(1, 21):
            assert rel_err(gamma(float(k)), float(math.factorial(k - 1))) <= 1e-12

    def test_against_oracle_on_contract_range(self):
        rng = np.random.default_rng(11)
        for z in rng.uniform(0.1, 30.0, 500):
            assert rel_err(gamma(float(z)), ref_gamma(float(z))) <= 1e-10

    def test_negative_non_integer_via_reflection(self):
        for z in (-0.5, -1.5, -2.7, -9.3):
            assert rel_err(gamma(z), ref_gamma(z)) <= 1e-9


class TestGammaInvariants:
    def test_recurrence_thousand_points(self):
        rng = np.random.default_rng(1729)
        for z in rng.uniform(0.1, 20.0, 1000):
            z = float(z)
            assert abs(gamma(z + 1.0) - z * gamma(z)) / abs(gamma(z + 1.0)) <= 1e-10

    def test_reflection_on_unit_interval(self):
        rng = np.random.default_rng(3)
        for z in rng.uniform(0.001, 0.999, 500):
            z = float(z)
            want = math.pi / math.sin(math.pi * z)
            assert rel_err(gamma(z) * gamma(1.0 - z), want) <= 1e-9

    @given(st.floats(0.1, 20.0))
    def test_recurrence_property(self, z):
        assert abs(gamma(z + 1.0) - z * gamma(z)) / abs(gamma(z + 1.0)) <= 1e-10


class TestLogGamma:
    def test_at_one_and_two(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_log_factorial_ten(self):
        # ln(10!) = ln 3628800, recomputed with mpmath before freezing.
        assert rel_err(log_gamma(11.0), 15.104412573075516) <= 1e-12
        assert rel_err(log_gamma(11.0), ref_log_gamma(11.0)) <= 1e-12

    def test_consistent_with_gamma(self):
        rng = np.random.default_rng(5)
        for z in rng.uniform(0.1, 30.0, 500):
            z = float(z)
            assert rel_err(math.exp(log_gamma(z)), gamma(z)) <= 1e-10

    def test_large_argument_does_not_overflow(self):
        assert rel_err(log_gamma(300.0), ref_log_gamma(300.0)) <= 1e-12
