"""The standard-library gamma behind the closed form, and its poles.

``caputo_poly`` and the indicator guard take Gamma from ``math.gamma`` and
``math.lgamma``.  The value tests hold those to the accuracy the power
rule needs, against the mpmath oracle.  The error tests check that the
package never hands them a pole, a non-positive log-gamma argument or a
non-finite number: integer orders take the classical derivative, orders
above a monomial's degree annihilate it, and non-finite orders are
rejected before any gamma is evaluated.
"""

import math
from math import gamma
from math import lgamma as log_gamma

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracalc import DomainError, Polynomial, caputo_poly
from oracle import ref_gamma, ref_log_gamma, rel_err

CUBE = Polynomial((0.0, 0.0, 0.0, 1.0))
DEGREE_200 = Polynomial((0.0,) * 200 + (1.0,))


class TestGammaValues:
    def test_one_is_one(self):
        assert gamma(1.0) == 1.0

    def test_half_is_sqrt_pi(self):
        assert rel_err(gamma(0.5), math.sqrt(math.pi)) <= 1e-10

    def test_five_is_factorial_four(self):
        assert gamma(5.0) == 24.0

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
    @settings(deadline=None)
    def test_recurrence_property(self, z):
        assert abs(gamma(z + 1.0) - z * gamma(z)) / abs(gamma(z + 1.0)) <= 1e-10


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
    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -17.0])
    def test_poles_raise(self, z, monkeypatch):
        with pytest.raises(ValueError):
            gamma(z)
        # D^alpha t^3 with 3 + 1 - alpha = z: the integer order takes the
        # classical derivative, which is zero, and never reaches the pole.
        seen = _recording(monkeypatch, "gamma")
        assert caputo_poly(CUBE, 4.0 - z, 2.0) == 0.0
        assert z not in seen

    @pytest.mark.parametrize("z", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, z, monkeypatch):
        seen = _recording(monkeypatch, "gamma")
        with pytest.raises(DomainError):
            caputo_poly(CUBE, z, 1.0)
        assert seen == []


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

    @pytest.mark.parametrize("z", [0.0, -1.0, -0.5])
    def test_non_positive_rejected(self, z, monkeypatch):
        # D^alpha t^200 takes the log-gamma branch; with 200 + 1 - alpha = z
        # the order exceeds the degree, so the monomial is annihilated and
        # log-gamma only sees the positive argument of the order-0.5 term.
        seen = _recording(monkeypatch, "lgamma")
        assert caputo_poly(DEGREE_200, 201.0 - z, 1.0) == 0.0
        assert caputo_poly(DEGREE_200, 0.5, 1.0) > 0.0
        assert seen and min(seen) > 0.0
