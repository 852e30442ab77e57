"""Average, marginal, and fractional-order indicators of a factor/indicator pair.

A process is described parametrically by an indicator Y(t) and a factor X(t)
on [0, T].  The classical quantities at t = T are the average Y(T)/X(T) and
the marginal (dY/dT)/(dX/dT).  Replacing both derivatives by Caputo
derivatives of a common order alpha yields a one-parameter family that
reproduces the average at alpha = 0 and the marginal at alpha = 1, while
intermediate orders weight the whole history on [0, T] with a power-law
memory kernel.

Both members of a pair are differentiated by the same engine with the same
discretization, so shared quadrature error partially cancels in the ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import multivalued_pairs
from .caputo import Polynomial, SampledSeries, _derivative, _derivatives, _map
from .errors import DenominatorNearZero, DomainError, EmptySweep, GridMismatch

__all__ = [
    "IndicatorPair",
    "SweepEntry",
    "SweepResult",
    "average_indicator",
    "marginal_indicator",
    "t_indicator",
    "t_indicator_time",
    "alpha_sweep",
    "detect_multivalued",
]

# Denominators are degenerate below this fraction of their natural scale.
_REL_THRESHOLD = 1e-12

# Resolution of the probe grid used to estimate polynomial magnitudes.
_PROBE_POINTS = 513


@dataclass(frozen=True)
class IndicatorPair:
    """Indicator y and factor x on a common time interval.

    Both components must share one representation: two polynomials, or two
    sampled series on the identical grid.
    """

    y: Polynomial | SampledSeries
    x: Polynomial | SampledSeries

    def __post_init__(self):
        y, x = self.y, self.x
        if isinstance(y, Polynomial) and isinstance(x, Polynomial):
            return
        if isinstance(y, SampledSeries) and isinstance(x, SampledSeries):
            if y.n_steps != x.n_steps or not math.isclose(y.h, x.h, rel_tol=1e-12):
                raise GridMismatch(
                    f"indicator and factor grids differ: "
                    f"(h={y.h!r}, N={y.n_steps}) vs (h={x.h!r}, N={x.n_steps})"
                )
            return
        raise DomainError("indicator and factor must share one representation kind")


@dataclass(frozen=True)
class SweepEntry:
    alpha: float
    value: float | None
    degenerate: bool


@dataclass(frozen=True)
class SweepResult:
    """Indicator values across orders; degenerate entries carry no value."""

    entries: tuple[SweepEntry, ...]
    t_end: float

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _scale_base(x, n: int, T: float) -> float:
    """max|x^(n)| on [0, T]: the order-independent part of the guard scale.

    Polynomials are probed on a fixed grid; sampled series use the n-th
    divided difference (the samples themselves for n = 0).
    """
    if isinstance(x, Polynomial):
        q = _derivative(x, n)
        return float(np.max(np.abs(q(np.linspace(0.0, T, _PROBE_POINTS)))))
    d = x.values
    for _ in range(n):
        d = np.diff(d) / x.h
    return float(np.max(np.abs(d))) if d.size else 0.0


def _evaluate(pair: IndicatorPair, alphas, T):
    """Per order, the numerator and denominator of the indicator and the guard scale.

    The one evaluation path of every indicator: both members go through
    ``caputo._derivatives`` in one call, which checks the orders and T, and
    each result is an array over the orders.  The guard reads the window
    the core evaluated.  Its scale bounds |D^alpha x| by
    max|x^(n)| * T^(n-alpha) / Gamma(n-alpha+1), max|x^(n)| for integer
    orders; max|x^(n)| is computed once per distinct n.
    """
    (num, den), alphas, (_, x), T = _derivatives([pair.y, pair.x], alphas, T)
    floor = np.floor(alphas)
    n = np.where(alphas == floor, alphas, floor + 1.0)
    bases = {m: _scale_base(x, int(m), T) for m in set(n.tolist())}
    # Integer orders get Gamma(1) = T^0 = 1, so their scale is the base itself.
    e = n - alphas
    scales = _map(bases.__getitem__, n) * T ** e / _map(math.gamma, e + 1.0)
    return num, den, scales


def _degenerate(den, scale):
    return abs(den) <= _REL_THRESHOLD * scale


def _ratios(pair: IndicatorPair, alphas, T) -> list[float]:
    """The indicator at every order of ``alphas``, from one evaluation.

    Raises DenominatorNearZero at the first degenerate order in list order.
    """
    num, den, scales = (v.tolist() for v in _evaluate(pair, alphas, T))
    for d, scale in zip(den, scales):
        if _degenerate(d, scale):
            raise DenominatorNearZero(f"factor derivative is {d!r}, below threshold for scale {scale!r}")
    return [n / d for n, d in zip(num, den)]


def average_indicator(pair: IndicatorPair, T: float | None = None) -> float:
    """Y(T)/X(T), the ratio of indicator to factor at time T."""
    return _ratios(pair, [0.0], T)[0]


def marginal_indicator(pair: IndicatorPair, T: float | None = None) -> float:
    """(dY/dT)/(dX/dT), the parametric rate of the indicator in the factor.

    Polynomial pairs differentiate exactly; sampled pairs use one-sided
    second-order finite differences at the window end.
    """
    return _ratios(pair, [1.0], T)[0]


def t_indicator(pair: IndicatorPair, alpha: float, T: float | None = None) -> float:
    """Ratio of Caputo derivatives of common order alpha at time T.

    Degenerates to :func:`average_indicator` at alpha = 0 and to
    :func:`marginal_indicator` at alpha = 1 (bit-identically: the same
    evaluation paths are taken).  Neither endpoint is the limit of the
    orders next to it.  As alpha -> 0+, D^alpha f(T) tends to f(T) - f(0),
    so the ratio tends to (Y(T) - Y(0)) / (X(T) - X(0)): for the fig1 pair
    at T = 200, where X(200) = X(0), order 1e-9 gives about -1.0e10, a
    correct value the guard does not flag.  As alpha -> 1-, the numeric L1
    scheme tends to the first-order backward difference, while order 1
    uses the second-order three-point difference: an O(h) jump (4.9975
    against 5.0 for fig1 sampled with N = 2000).
    """
    return _ratios(pair, [float(alpha)], T)[0]


def t_indicator_time(y: Polynomial | SampledSeries, alpha: float, T: float | None = None) -> float:
    """The paper's T-indicator with time itself as the factor, in closed form.

    Equals Gamma(2-alpha) * T^(alpha-1) * D^alpha y(T), which is
    ``t_indicator`` against X(t) = t with the factor derivative folded in
    analytically; alpha must stay below 2 so the prefactor is finite.
    """
    a = float(alpha)
    if a >= 2.0:
        raise DomainError(f"time-factor form requires 0 <= alpha < 2, got {a!r}")
    d, _, _, T = _derivatives([y], a, T)
    if T == 0.0:
        # Order 0 admits T = 0, where the prefactor T^(alpha-1) is undefined.
        raise DomainError(f"end time must be finite and > 0, got T={T!r}")
    return math.gamma(2.0 - a) * T ** (a - 1.0) * d.item()


def alpha_sweep(pair: IndicatorPair, alphas, T: float | None = None) -> SweepResult:
    """Evaluate the T-indicator across orders, isolating degenerate entries.

    A near-zero factor derivative at one order marks that entry degenerate
    instead of aborting the sweep; every other error propagates.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise EmptySweep("no order values given")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise DomainError("orders must be strictly increasing")
    num, den, scales = _evaluate(pair, alphas, T)
    degenerate = _degenerate(den, scales)
    entries = tuple(
        SweepEntry(a, None, True) if flag else SweepEntry(a, num_a / den_a, False)
        for a, num_a, den_a, flag in zip(alphas, num.tolist(), den.tolist(), degenerate.tolist())
    )
    return SweepResult(entries, float(T) if T is not None else pair.y.t_end)


def detect_multivalued(
    x: SampledSeries, y: SampledSeries, x_tol: float, y_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Witnesses that y is not a single-valued function of x.

    Returns two float64 arrays ``(t1, t2)`` holding every pair of sample
    times t1[m] < t2[m] where the factor nearly repeats
    (|x(t1) - x(t2)| <= x_tol) yet the indicator differs
    (|y(t1) - y(t2)| > y_tol), ordered by t1, then t2.  Empty arrays mean no
    witness at these tolerances, not a proof of single-valuedness.  Both
    tolerances must be finite and > 0.  Cost is O(N log N) plus the number
    of candidate pairs, those whose factor values lie within about x_tol of
    each other; the result holds 16 bytes per witness.
    """
    x_tol, y_tol = float(x_tol), float(y_tol)
    if not (math.isfinite(x_tol) and x_tol > 0.0 and math.isfinite(y_tol) and y_tol > 0.0):
        raise DomainError(f"tolerances must be finite and > 0, got x_tol={x_tol!r}, y_tol={y_tol!r}")
    if x.n_steps != y.n_steps or not math.isclose(x.h, y.h, rel_tol=1e-12):
        raise GridMismatch(
            f"series grids differ: (h={x.h!r}, N={x.n_steps}) vs (h={y.h!r}, N={y.n_steps})"
        )
    i, j = multivalued_pairs(x.values, y.values, x_tol, y_tol)
    return i * x.h, j * x.h
