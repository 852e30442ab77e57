"""Left-sided Caputo derivatives on [0, T].

The derivative of order ``alpha > 0`` of a function f is

    D^alpha f(T) = 1/Gamma(n - alpha) * integral_0^T f^(n)(t) (T - t)^(n - alpha - 1) dt

with n = floor(alpha) + 1 for non-integer alpha.  Integer orders coincide
with the classical derivatives (order 0 meaning plain evaluation at T), and
that convention is applied here whenever alpha is an exact integer.

Two engines are provided:

* :func:`caputo_poly` -- exact closed form for polynomials via the power rule
  ``D^alpha t^k = Gamma(k+1)/Gamma(k+1-alpha) * T^(k-alpha)`` for k >= n,
  with ``D^alpha t^k = 0`` for k <= n-1, evaluated for all orders of a call
  at once.
* :func:`caputo_series` -- product-integration quadrature for uniformly
  sampled series, 0 <= alpha < 2.  The L1 scheme replaces f by its
  piecewise-linear interpolant inside the weakly singular integral, giving
  O(h^(2-alpha)) accuracy for smooth f and exact annihilation of constants.

Both are one-order views of :func:`_derivatives`, the all-orders core that
every derivative and indicator call goes through.  It alone checks the
orders (with ``_as_orders``) and the evaluation time, and chooses between
the closed form and the L1 scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import l1_weighted_sum
from .errors import DomainError, InsufficientData

__all__ = [
    "Polynomial",
    "SampledSeries",
    "caputo_poly",
    "caputo_series",
]

# Above this the direct Gamma ratio overflows; switch to log form.
_GAMMA_DIRECT_LIMIT = 170.0

# Relative slack when matching a requested time against the sampling grid.
_GRID_SNAP_RTOL = 1e-9


@dataclass(frozen=True)
class Polynomial:
    """Polynomial sum(coeffs[k] * t^k); an empty tuple is the zero polynomial."""

    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        if any(not math.isfinite(c) for c in cs):
            raise DomainError("polynomial coefficients must be finite")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        """Index of the last non-zero coefficient; -1 for the zero polynomial."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k] != 0.0:
                return k
        return -1

    def __call__(self, t):
        """Horner evaluation; accepts scalars or numpy arrays."""
        acc = 0.0 if np.isscalar(t) else np.zeros_like(np.asarray(t, dtype=np.float64))
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self) -> Polynomial:
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))


@dataclass(frozen=True, eq=False)
class SampledSeries:
    """Uniform samples values[k] = f(k*h), k = 0..N, anchored at t = 0.

    The derivative's memory window starts at the first sample, which is
    t = 0 by definition; :func:`fracalc.ingest_csv` rejects files whose
    time stamps start elsewhere rather than shifting them.
    """

    h: float
    values: np.ndarray

    def __post_init__(self):
        h = float(self.h)
        if not (math.isfinite(h) and h > 0.0):
            raise DomainError(f"step must be finite and > 0, got h={self.h!r}")
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise DomainError("values must be one-dimensional")
        if v.shape[0] < 3:
            raise InsufficientData(f"need at least 3 samples (N >= 2), got {v.shape[0]}")
        if not np.isfinite(v).all():
            raise DomainError("all sample values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "values", v)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def t_end(self) -> float:
        return self.n_steps * self.h

    def times(self) -> np.ndarray:
        return np.arange(self.values.shape[0]) * self.h

    def truncated(self, t: float) -> SampledSeries:
        """Restrict to [0, t]; t must be finite and land on the grid (within 1e-9 relative)."""
        t = float(t)
        if not math.isfinite(t):
            raise DomainError(f"truncation time must be finite, got t={t!r}")
        k = int(round(t / self.h))
        if abs(k * self.h - t) > _GRID_SNAP_RTOL * max(abs(t), self.h):
            raise DomainError(f"t={t!r} does not lie on the sampling grid (h={self.h!r})")
        if k < 2:
            raise InsufficientData(f"truncation to t={t!r} leaves fewer than 3 samples")
        if k > self.n_steps:
            raise DomainError(f"t={t!r} is beyond the sampled range [0, {self.t_end!r}]")
        if k == self.n_steps:
            return self
        return SampledSeries(self.h, self.values[: k + 1])


def _as_orders(alphas) -> np.ndarray:
    """The orders as a float64 array, each checked finite and >= 0."""
    a = np.array(alphas, dtype=np.float64, ndmin=1)
    bad = ~(np.isfinite(a) & (a >= 0.0))
    if bad.any():
        raise DomainError(f"order must be finite and >= 0, got {a[bad][0].item()!r}")
    return a


def _derivative(p: Polynomial, n: int) -> Polynomial:
    """The n-th classical derivative; zero once n exceeds the degree.

    Beyond the degree the zero polynomial is returned without
    differentiating, so the intermediate coefficients (up to degree!)
    cannot overflow on the way to it.
    """
    if n > p.degree:
        return Polynomial()
    for _ in range(n):
        p = p.derivative()
    return p


def _map(f, values: np.ndarray) -> np.ndarray:
    """f of each value, as a float64 array."""
    return np.fromiter(map(f, values.tolist()), np.float64, values.size)


def _derivatives(fs, alphas, T=None):
    """Caputo derivatives of every function at every order: the one evaluation path.

    ``fs`` are all polynomials or all sampled series on one grid.  Returns
    ``(values, alphas, fs, T)``: ``values[i, j]`` is the derivative of
    ``fs[i]`` at order ``alphas[j]``, ``alphas`` the orders checked by
    :func:`_as_orders`, and ``fs`` and ``T`` the functions and the time
    evaluated at.

    Polynomials take the closed form and need T, finite and > 0, or 0 when
    every order is 0 (plain evaluation).  Series take the L1 scheme; with
    T given they are truncated to [0, T], and the truncated series are
    returned, otherwise they are taken at their end.

    Raises:
        DomainError: an order is negative or not finite, or T is missing
            or out of range for polynomials or off the grid for series.
    """
    alphas = _as_orders(alphas)
    if isinstance(fs[0], Polynomial):
        if T is None:
            raise DomainError("polynomial input needs an explicit evaluation time T")
        T = float(T)
        if not (math.isfinite(T) and (T > 0.0 or (T == 0.0 and not alphas.any()))):
            raise DomainError(f"end time must be finite and > 0, got T={T!r}")
        return _power_rule(fs, alphas, T), alphas, fs, T
    if T is not None:
        fs = [f.truncated(T) for f in fs]
    return _l1_orders(fs, alphas), alphas, fs, fs[0].t_end


def _power_rule(polys, alphas: np.ndarray, T: float) -> np.ndarray:
    """The polynomial branch of :func:`_derivatives`: the closed form at T.

    Row i is ``polys[i]``.  Non-integer orders take the power rule, one
    array expression per non-zero monomial t^k over the orders below k
    (t^k is annihilated by the others); Gamma(k+1)/Gamma(k+1-alpha) goes
    through log-gamma once k + 1 exceeds 170.  Exact integer orders take
    the classical derivative, order 0 being p(T).

    Raises:
        DomainError: a power T^(k-alpha) or a gamma ratio overflows, naming
            the first such order of ``alphas``.
    """
    out = np.zeros((len(polys), alphas.size))
    integer = alphas == np.floor(alphas)
    for m in set(alphas[integer].tolist()):
        at = alphas == m
        for row, p in zip(out, polys):
            row[at] = _derivative(p, int(m))(T)
    frac = np.flatnonzero(~integer)
    first_overflow = alphas.size
    with np.errstate(over="ignore", invalid="ignore"):
        for row, p in zip(out, polys):
            for k, c in enumerate(p.coeffs):
                if c == 0.0:
                    continue
                at = frac[alphas[frac] < k]
                if not at.size:
                    continue
                a = alphas[at]
                if k + 1.0 <= _GAMMA_DIRECT_LIMIT:
                    ratio = math.gamma(k + 1.0) / _map(math.gamma, k + 1.0 - a)
                else:
                    ratio = np.exp(math.lgamma(k + 1.0) - _map(math.lgamma, k + 1.0 - a))
                power = T ** (k - a)
                over = np.isinf(ratio) | np.isinf(power)
                if over.any():
                    first_overflow = min(first_overflow, int(at[over.argmax()]))
                row[at] += c * ratio * power
    if first_overflow < alphas.size:
        a = alphas[first_overflow].item()
        raise DomainError(f"order-{a!r} derivative overflows at T={T!r}")
    return out


def caputo_poly(p: Polynomial, alpha: float, T: float) -> float:
    """Caputo derivative of a polynomial at time T, in closed form.

    Non-integer orders use the power rule term by term (monomials of degree
    <= n-1 vanish); exact integer orders return the classical derivative,
    with order 0 meaning p(T), which is also defined at T = 0.
    """
    return float(_derivatives([p], float(alpha), T)[0][0, 0])


def _difference_derivative(series: SampledSeries) -> SampledSeries:
    """Second-order finite-difference estimate of f' on the same grid."""
    v = series.values
    h = series.h
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return SampledSeries(h, d)


def caputo_series(series: SampledSeries, alpha: float) -> float:
    """Numerical Caputo derivative at t_end, for 0 <= alpha < 2.

    For 0 < alpha < 1, the L1 product-integration estimate

        h^(-alpha)/Gamma(2-alpha) * sum_k [(N-k)^(1-alpha) - (N-1-k)^(1-alpha)]
                                          * (values[k+1] - values[k])

    For 1 < alpha < 2, the series is differentiated once by finite
    differences (central inside, one-sided at the ends) and the L1 scheme
    of order alpha - 1 is applied to that derivative; this needs N >= 4.
    Larger orders are rejected because repeated differencing of sampled
    data amplifies noise beyond usefulness.

    Endpoints follow the integer conventions: alpha = 0 returns f(T) and
    alpha = 1 a second-order one-sided estimate of f'(T).  Neither is the
    limit of the scheme: as alpha -> 0+ the sum tends to f(T) - f(0), and as
    alpha -> 1- only the last weight survives, giving the first-order
    backward difference (f(T) - f(T-h))/h.  So a sweep over orders jumps by
    f(0) at alpha = 0 and by O(h) at alpha = 1.
    """
    return float(_derivatives([series], float(alpha))[0][0, 0])


def _l1_orders(series, alphas: np.ndarray) -> np.ndarray:
    """The sampled branch of :func:`_derivatives`: the scheme of :func:`caputo_series`.

    Row i is ``series[i]``.  The orders in (0, 1) share one blocked kernel
    pass over the samples, and those in (1, 2) one pass over the
    finite-difference derivatives, so the cost is O(len(alphas) * N) and,
    beyond those derivatives, the extra memory does not grow with N.
    """
    n_steps = series[0].n_steps
    out = np.empty((len(series), alphas.size))
    l1, extended = [], []
    for i, a in enumerate(alphas.tolist()):
        if a >= 2.0:
            raise DomainError(f"numerical engine covers 0 <= alpha < 2, got {a!r}")
        if a == 0.0:
            out[:, i] = [s.values[-1] for s in series]
        elif a == 1.0:
            out[:, i] = [(3.0 * s.values[-1] - 4.0 * s.values[-2] + s.values[-3]) / (2.0 * s.h)
                         for s in series]
        elif a < 1.0:
            l1.append((i, a))
        elif n_steps < 4:
            raise InsufficientData(f"need N >= 4 samples, got N={n_steps}")
        else:
            # The L1 scheme of order alpha - 1 on the derivative series.
            extended.append((i, a - 1.0))
    passes = [(l1, series)]
    if extended:
        passes.append((extended, [_difference_derivative(s) for s in series]))
    for picked, rows in passes:
        if not picked:
            continue
        sums = l1_weighted_sum([r.values for r in rows], [1.0 - a for _, a in picked])
        for (i, a), row_sums in zip(picked, sums.tolist()):
            out[:, i] = [v * r.h ** (-a) / math.gamma(2.0 - a) for v, r in zip(row_sums, rows)]
    return out
