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
from .caputo import (
    FracOrder,
    Polynomial,
    SampledSeries,
    as_order,
    caputo_poly,
    caputo_series,
)
from .errors import DenominatorNearZero, DomainError, EmptySweep, GridMismatch
from .specfun import gamma

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

    @property
    def kind(self) -> str:
        return "polynomial" if isinstance(self.y, Polynomial) else "sampled"

    @property
    def t_end(self) -> float | None:
        """End of the sampled window; None for polynomial pairs."""
        if self.kind == "sampled":
            return self.y.t_end
        return None


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


def _resolve(pair, T, allow_zero_time=False):
    """Return (y, x, T); sampled components get truncated to [0, T]."""
    if pair.kind == "polynomial":
        if T is None:
            raise DomainError("polynomial pairs need an explicit evaluation time T")
        T = float(T)
        if not math.isfinite(T) or T < 0.0 or (T == 0.0 and not allow_zero_time):
            raise DomainError(f"evaluation time out of range: T={T!r}")
        return pair.y, pair.x, T
    if T is None:
        return pair.y, pair.x, pair.y.t_end
    y = pair.y.truncated(float(T))
    x = pair.x.truncated(float(T))
    return y, x, y.t_end


def _probe_max(p: Polynomial, T: float) -> float:
    ts = np.linspace(0.0, T, _PROBE_POINTS)
    return float(np.max(np.abs(p(ts))))


def _caputo_scale(x, order: FracOrder, T: float) -> float:
    """Magnitude the order-alpha derivative of x could plausibly attain.

    Bounds |D^alpha x| by max|x^(n)| * T^(n-alpha) / Gamma(n-alpha+1); for
    integer orders this is just max|x^(n)|.  Used to make the near-zero
    denominator test scale-free.
    """
    n, a = order.n, order.alpha
    if isinstance(x, Polynomial):
        q = x
        for _ in range(n):
            q = q.derivative()
        m = _probe_max(q, T)
    else:
        d = x.values
        for _ in range(n):
            d = np.diff(d) / x.h
        m = float(np.max(np.abs(d))) if d.size else 0.0
    if order.is_integer:
        return m
    return m * T ** (n - a) / gamma(n - a + 1.0)


def _guard_denominator(den: float, scale: float, what: str) -> None:
    if abs(den) <= _REL_THRESHOLD * scale:
        raise DenominatorNearZero(f"{what} is {den!r}, below threshold for scale {scale!r}")


def _ratio(pair: IndicatorPair, order: FracOrder, T) -> float:
    y, x, T = _resolve(pair, T, allow_zero_time=order.alpha == 0.0)
    if pair.kind == "polynomial":
        if order.alpha == 0.0:
            num, den = float(y(T)), float(x(T))
        else:
            num = caputo_poly(y, order, T)
            den = caputo_poly(x, order, T)
    else:
        num = caputo_series(y, order)
        den = caputo_series(x, order)
    _guard_denominator(den, _caputo_scale(x, order, T), "factor derivative")
    return num / den


def average_indicator(pair: IndicatorPair, T: float | None = None) -> float:
    """Y(T)/X(T), the ratio of indicator to factor at time T."""
    return _ratio(pair, FracOrder(0.0), T)


def marginal_indicator(pair: IndicatorPair, T: float | None = None) -> float:
    """(dY/dT)/(dX/dT), the parametric rate of the indicator in the factor.

    Polynomial pairs differentiate exactly; sampled pairs use one-sided
    second-order finite differences at the window end.
    """
    return _ratio(pair, FracOrder(1.0), T)


def t_indicator(pair: IndicatorPair, alpha: float | FracOrder, T: float | None = None) -> float:
    """Ratio of Caputo derivatives of common order alpha at time T.

    Degenerates to :func:`average_indicator` at alpha = 0 and to
    :func:`marginal_indicator` at alpha = 1 (bit-identically: the same
    evaluation paths are taken).
    """
    return _ratio(pair, as_order(alpha), T)


def t_indicator_time(
    y: Polynomial | SampledSeries, alpha: float | FracOrder, T: float | None = None
) -> float:
    """Order-alpha indicator with time itself as the factor, in closed form.

    Equals Gamma(2-alpha) * T^(alpha-1) * D^alpha y(T), which is
    ``t_indicator`` against X(t) = t with the factor derivative folded in
    analytically; alpha must stay below 2 so the prefactor is finite.
    """
    order = as_order(alpha)
    a = order.alpha
    if a >= 2.0:
        raise DomainError(f"time-factor form requires 0 <= alpha < 2, got {a!r}")
    if isinstance(y, Polynomial):
        if T is None:
            raise DomainError("polynomial input needs an explicit evaluation time T")
        T = float(T)
        if not (math.isfinite(T) and T > 0.0):
            raise DomainError(f"evaluation time must be > 0, got T={T!r}")
        d = float(y(T)) if a == 0.0 else caputo_poly(y, order, T)
    else:
        s = y if T is None else y.truncated(float(T))
        T = s.t_end
        d = caputo_series(s, order)
    return gamma(2.0 - a) * T ** (a - 1.0) * d


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
    if pair.kind == "polynomial":
        if T is None:
            raise DomainError("polynomial pairs need an explicit evaluation time T")
        t_end = float(T)
    else:
        t_end = float(T) if T is not None else pair.t_end
    entries = []
    for a in alphas:
        try:
            entries.append(SweepEntry(a, t_indicator(pair, a, T), False))
        except DenominatorNearZero:
            entries.append(SweepEntry(a, None, True))
    return SweepResult(tuple(entries), t_end)


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
