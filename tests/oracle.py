"""High-precision reference implementations, independent of the package.

Everything here is built on mpmath at 50 digits and stays deliberately
naive: power rule summed term by term, or direct quadrature of the
defining integral.  Tests compare the package against these references;
the references never call into the package.
"""

import math

import mpmath as mp

mp.mp.dps = 50


def ref_gamma(z: float) -> float:
    return float(mp.gamma(z))


def ref_log_gamma(z: float) -> float:
    return float(mp.loggamma(z))


def ref_caputo_poly(coeffs, alpha: float, T: float) -> float:
    """Power-rule reference for polynomials (classical form at integer orders)."""
    a = mp.mpf(alpha)
    t_end = mp.mpf(T)
    if a == int(a):
        cs = [mp.mpf(c) for c in coeffs]
        for _ in range(int(a)):
            cs = [k * c for k, c in enumerate(cs)][1:]
        total = mp.mpf(0)
        for k, c in enumerate(cs):
            total += c * t_end**k
        return float(total)
    n = int(mp.floor(a)) + 1
    total = mp.mpf(0)
    for k, c in enumerate(coeffs):
        if k >= n and c != 0:
            total += mp.mpf(c) * mp.gamma(k + 1) / mp.gamma(k + 1 - a) * t_end ** (k - a)
    return float(total)


def ref_caputo_quad(fprime, alpha: float, T: float) -> float:
    """Direct quadrature of the weakly singular integral, for 0 < alpha < 1.

    ``fprime`` maps an mpmath scalar to the first derivative of f.
    """
    a = mp.mpf(alpha)
    t_end = mp.mpf(T)
    if not 0 < a < 1:
        raise ValueError("quadrature reference covers 0 < alpha < 1 only")
    integral = mp.quad(lambda t: fprime(t) * (t_end - t) ** (-a), [0, t_end])
    return float(integral / mp.gamma(1 - a))


def lin_comb(*terms) -> tuple:
    """Coefficients of sum(c * p) over (c, coeffs of p) terms, low order first."""
    n = max(len(cs) for _, cs in terms)
    return tuple(sum(c * cs[k] for c, cs in terms if k < len(cs)) for k in range(n))


def rel_err(got: float, want: float) -> float:
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


assert math.isclose(ref_gamma(0.5), math.sqrt(math.pi), rel_tol=1e-15)
