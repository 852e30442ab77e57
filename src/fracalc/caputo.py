"""Left-sided Caputo derivatives on [0, T].

The derivative of order ``alpha > 0`` of a function f is

    D^alpha f(T) = 1/Gamma(n - alpha) * integral_0^T f^(n)(t) (T - t)^(n - alpha - 1) dt

with n = floor(alpha) + 1 for non-integer alpha.  Integer orders coincide
with the classical derivatives (order 0 meaning plain evaluation at T), and
that convention is applied here whenever alpha is an exact integer.

One public function, :func:`caputo_derivative`, takes it at one order: in
closed form for a :class:`Polynomial`, in Python floats with ``math`` alone,
so that those bytes depend on libm, not on numpy's SIMD level; and by the
L1 scheme for a :class:`SampledSeries`.  It is a one-order view of
:func:`_derivatives`, the all-orders core that every derivative and
indicator call goes through.  Only the sampled side imports numpy.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Mapping

from .errors import DomainError, InsufficientData

# True only for a static type checker: typing is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Polynomial",
    "SampledSeries",
    "caputo_derivative",
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


def _is_sequence(obj) -> bool:
    """Whether obj is sized and indexed by position, as a tuple, a list, a range or a 1-D
    numpy array is: text, a mapping, a set, an iterator or a number is not."""
    if isinstance(obj, (str, bytes, bytearray, Mapping)):
        return False
    return hasattr(obj, "__len__") and hasattr(obj, "__getitem__") and getattr(obj, "ndim", 1) == 1


def _coefficients(coeffs) -> tuple[float, ...]:
    """coeffs as a tuple of floats, checked to be a sequence of finite real numbers.

    Each entry converts with ``float``, as ints and numpy scalars do, but
    text, which ``float`` would parse, is refused.
    """
    if not _is_sequence(coeffs):
        raise DomainError(f"polynomial coefficients must be a sequence of real numbers, got {type(coeffs).__name__}")
    cs = tuple(_real(c, "polynomial coefficients") for c in coeffs)
    if any(not math.isfinite(c) for c in cs):
        raise DomainError("polynomial coefficients must be finite")
    return cs


def _real(c, what: str) -> float:
    """One number of ``what`` as a float; text and what ``float`` refuses are a DomainError."""
    if not isinstance(c, (str, bytes, bytearray)):
        try:
            return float(c)
        except OverflowError:
            return math.inf if c > 0 else -math.inf  # an int beyond the float range
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{what} must be real numbers, got {c!r}")


class SampledSeries:
    """Uniform samples values[k] = f(k*h), k = 0..N, anchored at t = 0.

    The derivative's memory window starts at the first sample, which is
    t = 0 by definition; :func:`fracalc.ingest_csv` rejects files whose
    time stamps start elsewhere rather than shifting them.

    A series built from an array stores it.  float64 values are held as
    given, not copied: a view, such as the leading rows of a longer array,
    stays a view.  Other real numbers are converted to float64 once; text
    is refused.  The array held is marked read-only.

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
        if isinstance(values, (str, bytes, bytearray)):
            raise DomainError(f"sample values must be real numbers, got {values!r}")
        try:
            v = np.asarray(values)
        except ValueError:  # ragged
            raise DomainError(f"sample values must be real numbers, got {values!r}") from None
        if v.dtype.kind not in "biuf":
            # Text, complex numbers and other objects go entry by entry.
            v = np.array([_real(c, "sample values") for c in v.ravel().tolist()]).reshape(v.shape)
        v = v.astype(np.float64, copy=False)
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
        """Take the series' fields, checking 3 samples or more, all finite, over a finite span N*h.

        The samples are checked in one pass, block by block, stored or
        computed from a polynomial's coefficients alike.
        """
        if n < 2:
            raise InsufficientData(f"need at least 3 samples (N >= 2), got {n + 1}")
        self._h, self._n, self._coeffs, self._values = h, n, coeffs, values
        import numpy as np

        from ._kernels import blocks

        finite = np.empty(0, dtype=bool)
        for v in self._blocks(blocks(n + 1)):
            if v.size > finite.size:
                finite = np.empty(v.size, dtype=bool)
            if not np.isfinite(v, out=finite[: v.size]).all():
                raise DomainError("all sample values must be finite")
        # After the samples, so that samples which overflow keep their message.
        if not math.isfinite(n * h):
            raise DomainError(f"span N*h must be finite, got N={n}, h={h!r}")

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
            bounds = list(blocks(v.size))
            for (start, stop), block in zip(bounds, self._blocks(bounds)):
                v[start:stop] = block
            v.flags.writeable = False
            self._values = v
        return self._values

    def _blocks(self, bounds):
        """The block accessor: values[start:stop] for each (start, stop) of ``bounds``, in order.

        Every pass that reads the samples a block at a time reads them here,
        ``values`` included.  Every block is read-only and valid until the
        next one is taken.  A polynomial's samples are computed by Horner's
        rule at the times (start + i) * h, the arithmetic :func:`fracalc.sample`
        defines them by, into one buffer of the longest block: a pass holds
        it, and the block's times while they are computed, whatever N.
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
        bounds = list(bounds)
        v = np.empty(max(stop - start for start, stop in bounds))
        for start, stop in bounds:
            vk = v[: stop - start]
            vk.fill(top + 0.0)
            # An overflow gives inf or nan without a warning, and the
            # finiteness check of the series refuses it.
            with np.errstate(over="ignore", invalid="ignore"):
                # The times (start + i) * h: integers below 2^53 are exact floats.
                t = np.arange(float(start), float(stop))
                t *= self._h
                for c in rest:
                    np.add(np.multiply(vk, t, out=vk), c, out=vk)
            del t
            vk.flags.writeable = False
            yield vk

    def times(self) -> np.ndarray:
        import numpy as np

        return np.arange(self._n + 1) * self._h

    def truncated(self, t: float) -> SampledSeries:
        """Restrict to [0, t]; t must be finite and land on the grid (within 1e-9 relative)."""
        t = _real(t, "truncation times")
        if not math.isfinite(t):
            raise DomainError(f"truncation time must be finite, got t={t!r}")
        if not math.isfinite(t / self.h):
            raise DomainError(f"t={t!r} is beyond the sampled range [0, {self.t_end!r}]")
        k = int(round(t / self.h))
        if abs(k * self.h - t) > _GRID_SNAP_RTOL * max(abs(t), self.h):
            raise DomainError(f"t={t!r} does not lie on the sampling grid (h={self.h!r})")
        if not 0 <= k <= self.n_steps:
            raise DomainError(f"t={t!r} is beyond the sampled range [0, {self.t_end!r}]")
        if k < 2:
            raise InsufficientData(f"truncation to t={t!r} leaves fewer than 3 samples")
        if k == self.n_steps:
            return self
        # The leading samples of a checked series need no second check.
        s = SampledSeries.__new__(SampledSeries)
        s._h, s._n, s._coeffs = self._h, k, self._coeffs
        s._values = None if self._values is None else self._values[: k + 1]
        return s


def _step(h) -> float:
    """h as a float, checked to be a real number, finite and > 0."""
    step = _real(h, "steps")
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"step must be finite and > 0, got h={h!r}")
    return step


def _as_orders(alphas) -> list[float]:
    """The orders, one real number or a sequence of them, as a list of floats each checked finite and >= 0."""
    if not _is_sequence(alphas):
        alphas = [alphas]
    # A float is its own float: the CLI's orders skip the call.
    orders = [a if type(a) is float else _real(a, "orders") for a in alphas]
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


def caputo_derivative(f, alpha: float, T: float | None = None) -> float:
    """Caputo derivative of order alpha of f at time T.

    A :class:`Polynomial` takes the closed form: the power rule
    ``D^alpha t^k = Gamma(k+1)/Gamma(k+1-alpha) * T^(k-alpha)`` for k >= n,
    term by term, with ``D^alpha t^k = 0`` for k <= n-1.  T is required,
    finite and > 0, or 0 at order 0.

    A :class:`SampledSeries` takes the L1 scheme, for 0 <= alpha < 2, at its
    end or, with T given, at T on its grid, the series being truncated to
    [0, T].  For 0 < alpha < 1 it is the product-integration estimate

        h^(-alpha)/Gamma(2-alpha) * sum_k [(N-k)^(1-alpha) - (N-1-k)^(1-alpha)]
                                          * (values[k+1] - values[k])

    which replaces f by its piecewise-linear interpolant, so it is
    O(h^(2-alpha)) accurate for smooth f and exact on constants.  For
    1 < alpha < 2 the series is differentiated once by finite differences
    (central inside, one-sided at the ends) and the L1 scheme of order
    alpha - 1 is applied to that derivative; this needs N >= 4.  Larger
    orders are rejected because repeated differencing of sampled data
    amplifies noise beyond usefulness.

    Exact integer orders take the classical derivative on both engines:
    order 0 is f(T), also at T = 0 for a polynomial, and order 1 is f'(T),
    on a series a second-order one-sided estimate.  Neither is the limit
    of the fractional orders.  As alpha -> 0+ both engines tend to
    f(T) - f(0), so a sweep over orders jumps by f(0) at alpha = 0.  As
    alpha -> 1- the closed form tends to f'(T), but only the last L1
    weight survives, giving the backward difference (f(T) - f(T-h))/h, so a
    sampled sweep jumps by O(h) at alpha = 1.

    Raises:
        DomainError: f is neither kind, alpha or T is out of range or off
            the grid, or the value overflows.
        InsufficientData: the series, truncated to T, is too short.
    """
    return _derivatives([f], [alpha], T)[0][0][0]


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
        DomainError: the functions are of neither kind, an order is
            negative or not finite, T is missing or out of range for
            polynomials or off the grid or the range for series, or a value
            overflows, naming the first such order of ``alphas`` and T or h.
    """
    alphas = _as_orders(alphas)
    if isinstance(fs[0], Polynomial):
        if T is None:
            raise DomainError("polynomial input needs an explicit evaluation time T")
        T = _real(T, "end times")
        if not (math.isfinite(T) and (T > 0.0 or (T == 0.0 and not any(alphas)))):
            raise DomainError(f"end time must be finite and > 0, got T={T!r}")
        values = _power_rule(fs, alphas, T)
    elif isinstance(fs[0], SampledSeries):
        fs = fs if T is None else [f.truncated(T) for f in fs]
        values, T = _l1_orders(fs, alphas), fs[0].t_end
    else:
        raise DomainError(f"expected a Polynomial or a SampledSeries, got {type(fs[0]).__name__}")
    if not all(all(map(math.isfinite, row)) for row in values):
        j = min(j for row in values for j, v in enumerate(row) if not math.isfinite(v))
        at = f"T={T!r}" if isinstance(fs[0], Polynomial) else f"h={fs[0].h!r}"
        raise DomainError(f"order-{alphas[j]!r} derivative overflows at {at}")
    return values, alphas, fs, T


def _power_rule(polys, alphas: list[float], T: float) -> list[list[float]]:
    """The polynomial branch of :func:`_derivatives`: the closed form at T.

    Row i is ``polys[i]``.  Non-integer orders take the power rule column by
    column: per non-zero monomial t^k, one pass over the orders below k
    (t^k is annihilated by the others) gives Gamma(k+1)/Gamma(k+1-alpha) *
    T^(k-alpha), which every polynomial shares.  Each coefficient c then
    multiplies that product, so a subnormal c is rounded once.  Exact integer
    orders take the classical derivative, order 0 being p(T).  A value
    that overflows is inf or nan.
    """
    out = [[0.0] * len(alphas) for _ in polys]
    for j, a in enumerate(alphas):
        if a.is_integer():
            for row, p in zip(out, polys):
                row[j] = _derivative(p, int(a))(T)
    # Ascending, so the orders below each k are a prefix.
    frac = sorted((j for j, a in enumerate(alphas) if not a.is_integer()), key=alphas.__getitem__)
    orders = [alphas[j] for j in frac]
    sums = [[0.0] * len(frac) for _ in polys]
    for k in sorted({k for p in polys for k, c in enumerate(p.coeffs) if c != 0.0}):
        terms = _monomials(k, T, orders[: bisect.bisect_left(orders, k)])
        for p, row in zip(polys, sums):
            c = p.coeffs[k] if k < len(p.coeffs) else 0.0
            if c != 0.0:
                row[: len(terms)] = [v + c * w for v, w in zip(row, terms)]
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


class _Derivative(SampledSeries):
    """Second-order finite-difference estimate of f' on the series' grid, read a block at a time.

    Central inside, one-sided at both ends.  It holds no samples: each
    block, read-only, is differenced from the series' block widened by two
    samples on either side.  It is not checked finite: where a difference
    overflows it reads inf or nan, which ``_derivatives`` reports as the
    order's overflow.
    """

    __slots__ = ("_series",)

    def __init__(self, series: SampledSeries) -> None:
        self._h, self._n, self._coeffs, self._values = series.h, series.n_steps, None, None
        self._series = series

    def _blocks(self, bounds):
        """The derivative at the indices of each (start, stop) of ``bounds``."""
        import numpy as np

        n, h2, bounds = self._n, 2.0 * self._h, list(bounds)
        wide = [(max(start - 2, 0), min(stop + 2, n + 1)) for start, stop in bounds]
        d = np.empty(max(stop - start for start, stop in bounds))
        for (start, stop), (lo, _), v in zip(bounds, wide, self._series._blocks(wide)):
            dk = d[: stop - start]
            inner, end = max(start, 1), min(stop, n)
            out = dk[inner - start : end - start]
            np.subtract(v[inner + 1 - lo : end + 1 - lo], v[inner - 1 - lo : end - 1 - lo], out=out)
            if start == 0:
                dk[0] = -3.0 * v[0] + 4.0 * v[1] - v[2]
            if stop == n + 1:
                dk[-1] = 3.0 * v[-1] - 4.0 * v[-2] + v[-3]
            np.divide(dk, h2, out=dk)
            dk.flags.writeable = False
            yield dk


def _l1_orders(series, alphas: list[float]) -> list[list[float]]:
    """The sampled branch of :func:`_derivatives`: the scheme of :func:`caputo_derivative`.

    Row i is ``series[i]``.  Order 0 is the last sample and order 1 the last
    value of the finite-difference derivative (``_Derivative``).  The orders
    in (0, 1) share one blocked kernel pass over the samples, and those in
    (1, 2) one pass over the derivative, so the work over the samples does
    not grow with len(alphas).  Every read goes a block at a time through
    ``_blocks``, so the extra memory does not grow with N, and a
    polynomial's samples are never held.  A value that overflows is inf
    or nan.
    """
    import numpy as np

    from ._kernels import l1_weighted_sum

    n_steps = series[0].n_steps
    rows, picked = [series, [_Derivative(s) for s in series]], [[], []]
    out = np.empty((len(series), len(alphas)))
    # An overflow gives inf or nan without a warning; ``_derivatives`` names it.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, a in enumerate(alphas):
            if a >= 2.0:
                raise DomainError(f"numerical engine covers 0 <= alpha < 2, got {a!r}")
            if a > 1.0 and n_steps < 4:
                raise InsufficientData(f"need N >= 4 samples, got N={n_steps}")
            if a.is_integer():
                out[:, i] = [next(r._blocks([(n_steps, n_steps + 1)]))[0] for r in rows[int(a)]]
            else:
                picked[int(a)].append(i)
        for m, (at, r) in enumerate(zip(picked, rows)):
            if not at:
                continue
            # The L1 scheme of order alpha - m on the m-th derivative.
            orders = [alphas[i] - m for i in at]
            sums = l1_weighted_sum(r, [1.0 - a for a in orders])
            for i, a, row_sums in zip(at, orders, sums.tolist()):
                try:
                    out[:, i] = [v * s.h ** (-a) / math.gamma(2.0 - a) for v, s in zip(row_sums, r)]
                except OverflowError:
                    out[:, i] = math.inf  # h^(-alpha), common to the rows, overflows
    return out.tolist()
