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
  at once in Python floats with ``math``: numpy is not imported on this
  path, so its bytes depend on libm alone, not on numpy's SIMD level.
* :func:`caputo_series` -- product-integration quadrature for uniformly
  sampled series, 0 <= alpha < 2.  The L1 scheme replaces f by its
  piecewise-linear interpolant inside the weakly singular integral, giving
  O(h^(2-alpha)) accuracy for smooth f and exact annihilation of constants.

Both are one-order views of :func:`_derivatives`, the all-orders core that
every derivative and indicator call goes through.  It alone checks the
orders (with ``_as_orders``) and the evaluation time, and chooses between
the closed form and the L1 scheme.  Only the sampled side imports numpy.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections.abc import Mapping

from .errors import DomainError, InsufficientData

# True only for a static type checker: typing is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

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


class Polynomial:
    """Polynomial sum(coeffs[k] * t^k); an empty tuple is the zero polynomial.

    ``coeffs`` is a sequence of real numbers, held as a read-only tuple of
    finite floats.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()) -> None:
        self._coeffs = _coefficients(coeffs)

    @property
    def coeffs(self) -> tuple[float, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Index of the last non-zero coefficient; -1 for the zero polynomial."""
        for k in range(len(self._coeffs) - 1, -1, -1):
            if self._coeffs[k] != 0.0:
                return k
        return -1

    def __call__(self, t):
        """Horner evaluation; accepts floats or numpy arrays."""
        acc = 0.0
        for c in reversed(self._coeffs):
            acc = acc * t + c
        return acc

    def derivative(self) -> Polynomial:
        return Polynomial(tuple(k * c for k, c in enumerate(self._coeffs) if k >= 1))


def _coefficients(coeffs) -> tuple[float, ...]:
    """coeffs as a tuple of floats, checked to be a sequence of finite real numbers.

    A sequence is sized and indexed by position, as a tuple, a list or a
    one-dimensional numpy array is: text, a mapping, a set, an iterator or
    a number is not.  Each entry converts with ``float``, as ints and numpy
    scalars do, but text, which ``float`` would parse, is refused.
    """
    if (
        isinstance(coeffs, (str, bytes, bytearray, Mapping))
        or not (hasattr(coeffs, "__len__") and hasattr(coeffs, "__getitem__"))
        or getattr(coeffs, "ndim", 1) != 1
    ):
        raise DomainError(f"polynomial coefficients must be a sequence of real numbers, got {type(coeffs).__name__}")
    cs = tuple(map(_real, coeffs))
    if any(not math.isfinite(c) for c in cs):
        raise DomainError("polynomial coefficients must be finite")
    return cs


def _real(c) -> float:
    """One coefficient as a float; text and what ``float`` refuses are a DomainError."""
    if not isinstance(c, (str, bytes, bytearray)):
        try:
            return float(c)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"polynomial coefficients must be real numbers, got {c!r}")


class SampledSeries:
    """Uniform samples values[k] = f(k*h), k = 0..N, anchored at t = 0.

    The derivative's memory window starts at the first sample, which is
    t = 0 by definition; :func:`fracalc.ingest_csv` rejects files whose
    time stamps start elsewhere rather than shifting them.

    A series built from an array stores it.  float64 values are held as
    given, not copied: a view, such as the leading rows of a longer array,
    stays a view.  Other input is converted to float64 once.  The array held
    is marked read-only.

    A polynomial sampled by :func:`fracalc.sample` is held as its
    coefficients, h and N instead.  Each pass over it computes the samples
    one block at a time where it reads them (``_blocks``), so the numeric
    engine holds none of them.  ``values`` is the whole read-only array in
    either form; a polynomial's is computed on first access and then kept.
    """

    __slots__ = ("_h", "_n", "_coeffs", "_values")

    def __init__(self, h: float, values) -> None:
        import numpy as np

        h = _step(h)
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 1:
            raise DomainError("values must be one-dimensional")
        self._hold(h, v.shape[0] - 1, None, v)
        v.flags.writeable = False

    @classmethod
    def _of_polynomial(cls, p: Polynomial, h: float, n: int) -> SampledSeries:
        """The samples p(k*h), k = 0..n, held as p's coefficients."""
        s = cls.__new__(cls)
        s._hold(_step(h), n, p.coeffs, None)
        return s

    def _hold(self, h: float, n: int, coeffs, values) -> None:
        """Take the series' fields, checking that there are 3 samples or more, all finite.

        A polynomial whose Horner steps are bounded below half the float
        range on [0, N*h] needs no pass over its samples (see ``_bounded``).
        """
        if n < 2:
            raise InsufficientData(f"need at least 3 samples (N >= 2), got {n + 1}")
        self._h, self._n, self._coeffs, self._values = h, n, coeffs, values
        if values is None and _bounded(coeffs, n * h):
            return
        import numpy as np

        from ._kernels import blocks

        finite = np.empty(0, dtype=bool)
        for v in self._blocks(blocks(n + 1)):
            if v.size > finite.size:
                finite = np.empty(v.size, dtype=bool)
            if not np.isfinite(v, out=finite[: v.size]).all():
                raise DomainError("all sample values must be finite")

    @property
    def h(self) -> float:
        return self._h

    @property
    def n_steps(self) -> int:
        return self._n

    @property
    def t_end(self) -> float:
        return self._n * self._h

    @property
    def values(self) -> np.ndarray:
        """The N + 1 samples as one read-only float64 array."""
        if self._values is None:
            import numpy as np

            from ._kernels import blocks

            v = np.empty(self._n + 1)
            for _ in self._blocks(blocks(v.size), out=v):
                pass
            v.flags.writeable = False
            self._values = v
        return self._values

    def _blocks(self, bounds, out=None):
        """The block accessor: values[start:stop] for each (start, stop) of ``bounds``, in order.

        Every pass that reads the samples a block at a time reads them here.
        Stored samples give read-only views.  A polynomial's samples are
        computed by Horner's rule at the times (start + i) * h, the
        arithmetic :func:`fracalc.sample` defines them by, into
        ``out[start:stop]`` when ``out`` is given.  Otherwise they go to
        buffers reused from block to block: such a block is valid until the
        next one is taken, the reader may overwrite it, and a pass holds
        three buffers of its longest block, whatever N.
        """
        if self._values is not None:
            for start, stop in bounds:
                yield self._values[start:stop]
            return
        import numpy as np

        # Horner's rule from 0 begins with 0 * t + c, which is c + 0.0 for
        # the times here, all finite and >= 0.
        *rest, top = self._coeffs or (0.0,)
        rest.reverse()
        index = np.empty(0)
        for start, stop in bounds:
            m = stop - start
            if m > index.size:
                index, t = np.arange(float(m)), np.empty(m)
                v = np.empty(m) if out is None else None
            tk = np.multiply(np.add(index[:m], start, out=t[:m]), self._h, out=t[:m])
            vk = v[:m] if out is None else out[start:stop]
            vk.fill(top + 0.0)
            # An overflow gives inf or nan without a warning, and the
            # finiteness check of the series refuses it.
            with np.errstate(over="ignore", invalid="ignore"):
                for c in rest:
                    np.add(np.multiply(vk, tk, out=vk), c, out=vk)
            yield vk

    def times(self) -> np.ndarray:
        import numpy as np

        return np.arange(self._n + 1) * self._h

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
        # The leading samples of a checked series need no second check.
        s = SampledSeries.__new__(SampledSeries)
        s._h, s._n, s._coeffs = self._h, k, self._coeffs
        s._values = None if self._values is None else self._values[: k + 1]
        return s


def _step(h) -> float:
    """h as a float, checked finite and > 0."""
    step = float(h)
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"step must be finite and > 0, got h={h!r}")
    return step


def _bounded(coeffs, t_end: float) -> bool:
    """Whether Horner's rule on these coefficients stays finite at every t in [0, t_end].

    Each Horner step on [0, t] is at most sum |c_k| max(1, t)^k in exact
    arithmetic, and rounding raises it by a factor (1 + 2^-53)^(2 * degree)
    at most, far below 2; so a bound below half the float range suffices.
    """
    m = max(1.0, t_end)
    try:
        bound = sum(abs(c) * m**k for k, c in enumerate(coeffs))
    except OverflowError:
        return False
    return bound < sys.float_info.max / 2.0


def _as_orders(alphas) -> list[float]:
    """The orders, one or a sequence, as a list of floats each checked finite and >= 0."""
    try:
        orders = [float(a) for a in alphas]
    except TypeError:
        orders = [float(alphas)]
    for a in orders:
        if not (math.isfinite(a) and a >= 0.0):
            raise DomainError(f"order must be finite and >= 0, got {a!r}")
    return orders


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


def _derivatives(fs, alphas, T=None):
    """Caputo derivatives of every function at every order: the one evaluation path.

    ``fs`` are all polynomials or all sampled series on one grid.  Returns
    ``(values, alphas, fs, T)``: ``values[i][j]`` is the derivative of
    ``fs[i]`` at order ``alphas[j]``, one list of floats per function,
    ``alphas`` the orders checked by :func:`_as_orders`, and ``fs`` and
    ``T`` the functions and the time evaluated at.

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
        if not (math.isfinite(T) and (T > 0.0 or (T == 0.0 and not any(alphas)))):
            raise DomainError(f"end time must be finite and > 0, got T={T!r}")
        return _power_rule(fs, alphas, T), alphas, fs, T
    if T is not None:
        fs = [f.truncated(T) for f in fs]
    return _l1_orders(fs, alphas), alphas, fs, fs[0].t_end


def _power_rule(polys, alphas: list[float], T: float) -> list[list[float]]:
    """The polynomial branch of :func:`_derivatives`: the closed form at T.

    Row i is ``polys[i]``.  Non-integer orders take the power rule column by
    column: per non-zero monomial t^k, one pass over the orders below k
    (t^k is annihilated by the others) gives Gamma(k+1)/Gamma(k+1-alpha) *
    T^(k-alpha), which every polynomial shares.  Each coefficient c then
    multiplies that product, so a subnormal c is rounded once.  Exact integer
    orders take the classical derivative, order 0 being p(T).

    Raises:
        DomainError: a power T^(k-alpha) or a gamma ratio overflows, naming
            the first such order of ``alphas``.
    """
    out = [[0.0] * len(alphas) for _ in polys]
    integer = {}
    for j, a in enumerate(alphas):
        if a.is_integer():
            integer.setdefault(a, []).append(j)
    for m, at in integer.items():
        for row, p in zip(out, polys):
            value = _derivative(p, int(m))(T)
            for j in at:
                row[j] = value
    # Ascending, so the orders below each k are a prefix.
    frac = sorted((j for j, a in enumerate(alphas) if not a.is_integer()), key=alphas.__getitem__)
    orders = [alphas[j] for j in frac]
    sums = [[0.0] * len(frac) for _ in polys]
    first_overflow = len(alphas)
    for k in sorted({k for p in polys for k, c in enumerate(p.coeffs) if c != 0.0}):
        terms = _monomials(k, T, orders[: bisect.bisect_left(orders, k)])
        # The terms are >= 0, so their sum is nan only where one is.
        if math.isnan(sum(terms)):
            first_overflow = min(first_overflow, *(j for j, w in zip(frac, terms) if math.isnan(w)))
        for p, row in zip(polys, sums):
            c = p.coeffs[k] if k < len(p.coeffs) else 0.0
            if c != 0.0:
                row[: len(terms)] = [v + c * w for v, w in zip(row, terms)]
    if first_overflow < len(alphas):
        raise DomainError(f"order-{alphas[first_overflow]!r} derivative overflows at T={T!r}")
    for row, values in zip(out, sums):
        for j, v in zip(frac, values):
            row[j] = v
    return out


def _monomials(k: int, T: float, orders: list[float]) -> list[float]:
    """Gamma(k+1)/Gamma(k+1-alpha) * T^(k-alpha) at each order 0 < alpha < k.

    nan stands for a factor that overflows; the product of two finite
    factors is never nan.  The gamma ratio goes through log-gamma once
    k + 1 exceeds 170.
    """
    k1, kf = k + 1.0, float(k)
    try:
        if k1 <= _GAMMA_DIRECT_LIMIT:
            g = math.gamma(k1)
            return [g / math.gamma(k1 - a) * T ** (kf - a) for a in orders]
        lg = math.lgamma(k1)
        return [math.exp(lg - math.lgamma(k1 - a)) * T ** (kf - a) for a in orders]
    except OverflowError:
        # Find the orders that overflow, one at a time.
        return [math.nan] if len(orders) == 1 else [w for a in orders for w in _monomials(k, T, [a])]


def caputo_poly(p: Polynomial, alpha: float, T: float) -> float:
    """Caputo derivative of a polynomial at time T, in closed form.

    Non-integer orders use the power rule term by term (monomials of degree
    <= n-1 vanish); exact integer orders return the classical derivative,
    with order 0 meaning p(T), which is also defined at T = 0.
    """
    return _derivatives([p], float(alpha), T)[0][0][0]


def _difference_derivative(series: SampledSeries) -> SampledSeries | None:
    """Second-order finite-difference estimate of f' on the same grid; None where a value overflows.

    It reads the whole ``values`` array, so a polynomial's samples are built.
    """
    import numpy as np

    v = series.values
    h = series.h
    d = np.empty_like(v)
    # An overflow gives inf (or nan, from inf - inf) without a warning, and
    # the series refuses it.
    with np.errstate(over="ignore", invalid="ignore"):
        d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    try:
        return SampledSeries(h, d)
    except DomainError:
        return None


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
    return _derivatives([series], float(alpha))[0][0][0]


def _l1_orders(series, alphas: list[float]) -> list[list[float]]:
    """The sampled branch of :func:`_derivatives`: the scheme of :func:`caputo_series`.

    Row i is ``series[i]``.  The orders in (0, 1) share one blocked kernel
    pass over the samples, and those in (1, 2) one pass over the
    finite-difference derivatives, so the work over the samples does not
    grow with len(alphas).  Both passes read the series a block at a time
    (``SampledSeries._blocks``).  The derivatives are whole arrays, built
    from ``values``; without orders in (1, 2) the extra memory does not
    grow with N, and a polynomial's samples are never held.

    Raises:
        DomainError: h^(-alpha) or a value overflows, naming the first
            such order of ``alphas``.
    """
    import numpy as np

    from ._kernels import l1_weighted_sum

    n_steps = series[0].n_steps
    # The last three samples of each series, for orders 0 and 1.
    ends = [next(s._blocks([(n_steps - 2, n_steps + 1)])).tolist() for s in series]
    out = np.empty((len(series), len(alphas)))
    l1, extended = [], []
    for i, a in enumerate(alphas):
        if a >= 2.0:
            raise DomainError(f"numerical engine covers 0 <= alpha < 2, got {a!r}")
        if a == 0.0:
            out[:, i] = [v2 for _, _, v2 in ends]
        elif a == 1.0:
            # In Python floats, where an overflow gives inf without a warning.
            for row, (s, (v0, v1, v2)) in enumerate(zip(series, ends)):
                out[row, i] = (3.0 * v2 - 4.0 * v1 + v0) / (2.0 * s.h)
        elif a < 1.0:
            l1.append((i, a))
        elif n_steps < 4:
            raise InsufficientData(f"need N >= 4 samples, got N={n_steps}")
        else:
            # The L1 scheme of order alpha - 1 on the derivative series.
            extended.append((i, a - 1.0))
    passes = [(l1, series)]
    if extended:
        derivatives = [_difference_derivative(s) for s in series]
        if None in derivatives:
            out[:, [i for i, _ in extended]] = math.inf
        else:
            passes.append((extended, derivatives))
    for picked, rows in passes:
        if not picked:
            continue
        sums = l1_weighted_sum(rows, [1.0 - a for _, a in picked])
        for (i, a), row_sums in zip(picked, sums.tolist()):
            try:
                out[:, i] = [v * r.h ** (-a) / math.gamma(2.0 - a) for v, r in zip(row_sums, rows)]
            except OverflowError:
                out[:, i] = math.inf  # h^(-alpha), common to the rows, overflows
    overflow = ~np.isfinite(out).all(axis=0)
    if overflow.any():
        a = alphas[int(overflow.argmax())]
        raise DomainError(f"order-{a!r} derivative overflows at h={series[0].h!r}")
    return out.tolist()
