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

from .caputo import Polynomial, SampledSeries, _derivative, _derivatives
from .errors import DenominatorNearZero, DomainError, EmptySweep, GridMismatch

__all__ = [
    "IndicatorPair",
    "t_indicator",
    "t_indicator_time",
    "alpha_sweep",
    "detect_multivalued",
]

# True only for a static type checker: typing is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

# Denominators are degenerate below this fraction of their natural scale.
_REL_THRESHOLD = 1e-12

# Resolution of the probe grid used to estimate polynomial magnitudes.
_PROBE_POINTS = 513


class IndicatorPair:
    """Indicator y and factor x on a common time interval; both are read-only.

    Both components must share one representation: two polynomials, or two
    sampled series on the identical grid.
    """

    __slots__ = ("_y", "_x")

    def __init__(self, y: Polynomial | SampledSeries, x: Polynomial | SampledSeries) -> None:
        if isinstance(y, SampledSeries) and isinstance(x, SampledSeries):
            if y.n_steps != x.n_steps or not math.isclose(y.h, x.h, rel_tol=1e-12):
                raise GridMismatch(
                    f"indicator and factor grids differ: "
                    f"(h={y.h!r}, N={y.n_steps}) vs (h={x.h!r}, N={x.n_steps})"
                )
        elif not (isinstance(y, Polynomial) and isinstance(x, Polynomial)):
            raise DomainError("indicator and factor must share one representation kind")
        self._y, self._x = y, x

    @property
    def y(self) -> Polynomial | SampledSeries:
        return self._y

    @property
    def x(self) -> Polynomial | SampledSeries:
        return self._x


def _scale_bases(x, counts: list[int], T: float) -> list[float]:
    """The order-independent part of the guard scale, for each derivative count n of ``counts``.

    For polynomials, max|x^(n)| on [0, T], probed on a fixed grid of Python
    floats, the points of ``np.linspace(0, T, _PROBE_POINTS)`` bit for bit.
    For sampled series, max|diff(v, n)|, the n-th difference left undivided
    (the samples themselves for n = 0), for every n in one blocked pass over
    the samples, so that no memory grows with N.  The sampled branch of
    ``caputo._derivatives`` admits only orders below 2, so n <= 2 and the
    difference has at least one entry.
    """
    if isinstance(x, Polynomial):
        step = T / (_PROBE_POINTS - 1)
        points = [i * step for i in range(_PROBE_POINTS - 1)] + [T]
        return [max(abs(q(t)) for t in points) for q in (_derivative(x, n) for n in counts)]
    from ._kernels import max_abs_differences

    return max_abs_differences(x, counts)


def _evaluate(pair: IndicatorPair, alphas, T):
    """Per order, the numerator and denominator of the indicator and the guard scale.

    The one evaluation path of every indicator: both members go through
    ``caputo._derivatives`` in one call, which checks the orders and T, and
    each result is a list of floats over the orders.  The guard reads the
    window the core evaluated.  Its scale bounds |D^alpha x| by
    max|x^(n)| * T^(n-alpha) / Gamma(n-alpha+1), max|x^(n)| for integer
    orders; the bases of ``_scale_bases`` are computed once per call for
    all distinct n.

    On N samples of step h, max|x^(n)| is max|diff(v, n)| * h^-n, and with
    T = N h the step enters once: h^-n T^(n-alpha) = N^(n-alpha) h^-alpha.
    h^-alpha is taken as four factors h^(-alpha/4), none of which
    overflows or underflows for alpha < 2 and any finite step, and the base
    is multiplied first, so the scale is inf only where it overflows itself.
    """
    (num, den), alphas, (_, x), T = _derivatives([pair.y, pair.x], alphas, T)
    n = [a if a.is_integer() else math.floor(a) + 1.0 for a in alphas]
    distinct = sorted(set(n))
    bases = dict(zip(distinct, _scale_bases(x, [int(m) for m in distinct], T)))
    if isinstance(x, Polynomial):
        # Integer orders get Gamma(1) = T^0 = 1, so their scale is the base itself.
        return num, den, [bases[m] * T ** (m - a) / math.gamma(m - a + 1.0) for m, a in zip(n, alphas)]
    N, roots = x.n_steps, [x.h ** (-a / 4.0) for a in alphas]
    scales = [bases[m] * N ** (m - a) * r * r * r * r / math.gamma(m - a + 1.0) for m, a, r in zip(n, alphas, roots)]
    return num, den, scales


def _degenerate(den, scales) -> list[bool]:
    """The guard at every order: whether |den| is at most _REL_THRESHOLD times its scale."""
    return [abs(d) <= _REL_THRESHOLD * s for d, s in zip(den, scales)]


def _ratios(pair: IndicatorPair, alphas, T) -> list[float]:
    """The indicator at every order of ``alphas``, from one evaluation.

    Raises DenominatorNearZero at the first degenerate order in list order.
    """
    num, den, scales = _evaluate(pair, alphas, T)
    degenerate = _degenerate(den, scales)
    if True in degenerate:
        i = degenerate.index(True)
        raise DenominatorNearZero(f"factor derivative is {den[i]!r}, below threshold for scale {scales[i]!r}")
    return [n / d for n, d in zip(num, den)]


def t_indicator(pair: IndicatorPair, alpha: float, T: float | None = None) -> float:
    """Ratio of Caputo derivatives of common order alpha at time T.

    Degenerates to the average Y(T)/X(T) at alpha = 0 and to the marginal
    (dY/dT)/(dX/dT) at alpha = 1: polynomial pairs differentiate exactly,
    sampled pairs use one-sided second-order finite differences at the
    window end.  Neither endpoint is the limit of the orders next to it.
    As alpha -> 0+, D^alpha f(T) tends to f(T) - f(0),
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
    ((d,),), _, _, T = _derivatives([y], a, T)
    if T == 0.0:
        # Order 0 admits T = 0, where the prefactor T^(alpha-1) is undefined.
        raise DomainError(f"end time must be finite and > 0, got T={T!r}")
    return math.gamma(2.0 - a) * T ** (a - 1.0) * d


def alpha_sweep(pair: IndicatorPair, alphas, T: float | None = None) -> list[float | None]:
    """The T-indicator at every order of ``alphas``, None where degenerate.

    A near-zero factor derivative at one order gives None there instead of
    aborting the sweep; every other error propagates.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise EmptySweep("no order values given")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise DomainError("orders must be strictly increasing")
    num, den, scales = _evaluate(pair, alphas, T)
    return [None if bad else n / d for n, d, bad in zip(num, den, _degenerate(den, scales))]


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
    each other.  The result holds 16 bytes per witness: the times are
    written over the scan's indices, one block at a time.  Beyond the
    witnesses, the scan needs a few index arrays of N and one block of
    candidates.
    """
    x_tol, y_tol = float(x_tol), float(y_tol)
    if not (math.isfinite(x_tol) and x_tol > 0.0 and math.isfinite(y_tol) and y_tol > 0.0):
        raise DomainError(f"tolerances must be finite and > 0, got x_tol={x_tol!r}, y_tol={y_tol!r}")
    import numpy as np

    from ._kernels import blocks, multivalued_pairs

    IndicatorPair(y=y, x=x)  # raises GridMismatch unless x and y share one grid
    indices = multivalued_pairs(x.values, y.values, x_tol, y_tol)
    for k in indices:
        t = k.view(np.float64)
        for start, stop in blocks(k.size):
            np.multiply(k[start:stop], x.h, out=t[start:stop])
    return tuple(k.view(np.float64) for k in indices)
