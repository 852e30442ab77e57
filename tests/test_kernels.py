import ast
import math
import warnings
from math import gamma
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracalc import SampledSeries, _kernels
from fracalc.caputo import _derivatives


def brute_pairs(x, y, x_tol, y_tol):
    """O(N^2) reference: every i < j, tested with the kernel's exact condition."""
    n = len(x)
    return [
        (i, j)
        for i in range(n - 1)
        for j in range(i + 1, n)
        if abs(x[i] - x[j]) <= x_tol and abs(y[i] - y[j]) > y_tol
    ]


def scan_pairs(x, y, x_tol, y_tol):
    i, j = _kernels.multivalued_pairs(np.asarray(x, float), np.asarray(y, float), x_tol, y_tol)
    assert i.dtype == j.dtype == np.int64
    return list(zip(i.tolist(), j.tolist()))


def full_length_l1(v, a, h):
    """Order-a L1 estimate with full-length weights: the unblocked reference."""
    n = v.shape[0] - 1
    p = np.arange(n, -1, -1, dtype=np.float64) ** (1.0 - a)
    return float((p[:-1] - p[1:]) @ np.diff(v)) * h ** (-a) / gamma(2.0 - a)


def exact_terms(v, e):
    """The terms w_m * d of the order-e L1 sum, with cancellation-free weights.

    m^e - (m-1)^e = -m^e * expm1(e * log1p(-1/m)) has no cancellation: each
    term is within (3 * LIB + 6u) relative of the exact one.
    """
    d = np.diff(v)
    m = np.arange(d.size, 0, -1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        w = -(m**e) * np.expm1(e * np.log1p(-1.0 / m))
    return w * d


def exact_weight_sum(v, e):
    """Order-e L1 sum of exact_terms; math.fsum adds them without further error."""
    return math.fsum(exact_terms(v, e).tolist())


# Unit roundoff, and the relative error taken for a library function
# (numpy's log1p, expm1 and power, and libm's pow): 4 ulps.
U = 2.0**-53
LIB = 8 * U


def kernel_error_bound(v, e):
    """Bound on |l1_weighted_sum([v], [e]) - exact_weight_sum(v, e)|.

    From the rounding and truncation of the kernel, to first order in u,
    for e <= 1.  A block from count M has span s <= delta = log(5/4), so
    e^s <= 1.25; K is the most steps of an expanded block, B the number of
    blocks, and the near field holds the last 64 steps.

    - l_j = log1p(-j/M) is within kappa |l_j|, kappa = 1.14u + LIB: the
      division's u, amplified at most 1.14 times over the span, and log1p.
    - Rounded powers l^q add at most 2 e s e^(es) (kappa + es u) to the
      weight sum_q e^q/q! (l_j^q - l_{j+1}^q) (over M^e), which is at least
      e e^(-es) / m_j, and m_j s <= (K-1) e^s.  The subtractions add u times
      sum_q e^q/q! |l_j^q - l_{j+1}^q| <= e^(2es) times the weight.  Per
      weight: 1.57u + 3.91 (K-1)(kappa + 0.23u) = 1.57u + 36.6 (K-1) u.
    - The block's dot products: (K-1) u, times e^(2 delta) = 1.57.
    - Truncation: u, by the choice of Q.  Horner's rule in e over Q <= 12
      terms: 3 Q 1.57 u = 56.3u.  M^e e h: LIB + 2u.  The last step's
      bottom^e expm1(e log1p(1/bottom)): 3 LIB + 5u.  Adding into the
      result: (2B + 64) u.  Near-field differences and products: 2u.  The
      reference's own terms: 3 LIB + 6u.
    - Near field: each power is within LIB of m^e, so each weight is within
      2 LIB m^e, an error absolute, not relative to the weight.

    Relative to sum |terms|: (38.2 (K-1) + 2B + 64 + 74) u + 7 LIB, plus
    the near field's 2 LIB sum m^e |d_m|.
    """
    spans = list(_kernels._spans(v.size - 1))
    k = max((top - bottom for top, bottom in spans), default=1)
    relative = (38.2 * (k - 1) + 2 * len(spans) + 64 + 74) * U + 7 * LIB
    d = np.abs(np.diff(v))[-_kernels._NEAR_FIELD :]
    near = 2 * LIB * math.fsum((np.arange(d.size, 0, -1, dtype=np.float64) ** e * d).tolist())
    return relative * math.fsum(np.abs(exact_terms(v, e)).tolist()) + near


def central_derivative(v, h):
    """The finite-difference derivative series the scheme for 1 < a < 2 uses."""
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return d


class TestL1WeightedSum:
    def test_hand_computed_case(self):
        # f = t^2 on {0, 1, 2}: diffs (1, 3); weights (sqrt(2)-1, 1) at e=0.5.
        want = (math.sqrt(2.0) - 1.0) * 1.0 + 1.0 * 3.0
        got = _kernels.l1_weighted_sum([np.array([0.0, 1.0, 4.0])], [0.5])
        assert got.shape == (1, 1)
        assert math.isclose(got[0, 0], want, rel_tol=1e-14)

    def test_constant_input_is_zero(self):
        got = _kernels.l1_weighted_sum([np.full(50, 3.7), np.full(50, -2.0)], [0.25, 0.75])
        assert got.shape == (2, 2) and (got == 0.0).all()

    @pytest.mark.parametrize("block", [1, 2, 7, 16_384])
    def test_exponents_do_not_interact(self, monkeypatch, block):
        # Each exponent's row is bit for bit what it is when passed alone:
        # what keeps alpha_sweep equal to t_indicator.  300 steps take the
        # near field and at least three expanded blocks; 0.5 and 1.0 are the
        # exponents for which numpy's power would take a shortcut when alone.
        monkeypatch.setattr(_kernels, "_L1_BLOCK", block)
        rng = np.random.default_rng(11)
        rows = [rng.normal(size=301).cumsum(), rng.uniform(-1.0, 3.0, 301)]
        assert len(list(_kernels._spans(300))) >= 3
        exponents = [0.01, 0.25, 1.0 - 1e-9, 0.5, 1.0, 0.999]
        together = _kernels.l1_weighted_sum(rows, exponents)
        for e, row in zip(exponents, together):
            alone = _kernels.l1_weighted_sum(rows, [e])
            assert alone.shape == (1, 2)
            np.testing.assert_array_equal(row, alone[0])

    @pytest.mark.parametrize("n,block", [(15, 7), (15, 14), (15, 16_384), (1, 1), (40_000, 16_384)])
    def test_count_zero_raises_no_floating_point_error(self, monkeypatch, n, block):
        # The grid ends at count m = 0, whose log is -inf: no floating-point
        # error may surface, under the strictest settings.
        monkeypatch.setattr(_kernels, "_L1_BLOCK", block)
        v = np.arange(n + 1, dtype=np.float64) ** 2
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kernels.l1_weighted_sum([v], [0.3, 0.5, 1.0])
        assert np.isfinite(got).all()
        # At e = 1 every weight is 1: the sum telescopes to v[N] - v[0].
        assert math.isclose(got[2, 0], v[-1] - v[0], rel_tol=1e-12)

    def test_weights_within_a_few_ulps_of_the_powers(self, monkeypatch):
        # A row with one unit step at k sums to the weight of count m = N-k
        # alone, measured in ulps of m^e, as a difference of powers would
        # be: pow gives under 1.  The expansion's bound (kernel_error_bound)
        # is 18.3 (K-1) e / m ulps, under 4 since blocks keep K - 1 <= m/5.
        monkeypatch.setattr(_kernels, "_L1_BLOCK", 1000)
        n = 8000
        steps = np.unique(np.linspace(0, n - 1, 97).astype(np.int64))
        rows = (np.arange(n + 1) > steps[:, None]).astype(np.float64)
        exponents = [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0]
        got = _kernels.l1_weighted_sum(rows, exponents)
        m = (n - steps).astype(np.float64)
        for e, row in zip(exponents, got):
            with np.errstate(divide="ignore"):
                want = -(m**e) * np.expm1(e * np.log1p(-1.0 / m))
            assert (np.abs(row - want) <= 4 * 2.0**-52 * m**e).all()

    @pytest.mark.parametrize("e", [0.01, 0.5, 0.99])
    @pytest.mark.parametrize("f", [lambda t: t + np.sin(t), lambda t: t * t, lambda t: np.exp(t / 3.0)])
    def test_long_grid_against_exact_weights(self, e, f):
        v = f(np.linspace(0.0, 10.0, 200_001))
        got = _kernels.l1_weighted_sum([v], [e])[0, 0]
        want = exact_weight_sum(v, e)
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("n", [3, 10, 63, 64, 65, 100, 1000, 20_000, 200_000])
    @pytest.mark.parametrize("data", ["random_walk", "smooth", "oscillating"])
    def test_within_the_error_bound(self, n, data):
        t = np.linspace(0.0, 10.0, n + 1)
        v = {
            "random_walk": np.random.default_rng(n).normal(size=n + 1).cumsum(),
            "smooth": t + np.sin(t) + np.exp(t / 3.0),
            "oscillating": np.sin(40.0 * t) + 0.01 * t,
        }[data]
        exponents = [1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0]
        got = _kernels.l1_weighted_sum([v], exponents)[:, 0]
        for e, value in zip(exponents, got.tolist()):
            assert abs(value - exact_weight_sum(v, e)) <= kernel_error_bound(v, e)

    def test_widest_blocks_at_e_1(self):
        # Counts 100 -> 80 -> 64: both blocks span log(5/4) exactly, the
        # widest the span rule allows, and at e = 1 the series coefficients
        # 1/q! are the largest they get.  Every weight is 1: a row with one
        # unit step in those blocks sums to 1.
        n = 100
        spans = list(_kernels._spans(n))
        assert spans == [(100, 80), (80, 64)]
        assert all(math.log(top / bottom) == math.log(1.25) for top, bottom in spans)
        rows = (np.arange(n + 1) > np.arange(n - 64)[:, None]).astype(np.float64)
        got = _kernels.l1_weighted_sum(rows, [1.0])[0]
        for v, value in zip(rows, got.tolist()):
            assert abs(value - 1.0) <= kernel_error_bound(v, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(7, 80),
        cut=st.integers(0, 3),
        block=st.sampled_from(["1", "2", "7", "N-1", "N", "N+1"]),
        orders=st.lists(
            st.floats(0.01, 1.99).filter(lambda a: a != 1.0), min_size=1, max_size=4, unique=True
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_equals_full_length(self, n, cut, block, orders, seed):
        # Increasing, convex samples: every L1 term is positive, for the
        # samples and for their derivative series alike, so neither sum
        # cancels and each lies within (N-1) ulps of the exact sum.
        rng = np.random.default_rng(seed)
        h = 0.125
        pair = [
            SampledSeries(h, np.cumsum(np.cumsum(rng.uniform(0.5, 2.0, n + 1))))
            for _ in range(2)
        ]
        if cut:
            pair = [s.truncated((n - cut) * h) for s in pair]
        steps = pair[0].n_steps
        size = {"1": 1, "2": 2, "7": 7, "N-1": steps - 1, "N": steps, "N+1": steps + 1}[block]
        old = _kernels._L1_BLOCK
        _kernels._L1_BLOCK = size
        try:
            got, *_ = _derivatives(pair, orders)
        finally:
            _kernels._L1_BLOCK = old
        for a, column in zip(orders, zip(*got)):
            for s, value in zip(pair, column):
                if a < 1.0:
                    want = full_length_l1(s.values, a, h)
                else:
                    want = full_length_l1(central_derivative(s.values, h), a - 1.0, h)
                assert abs(value - want) <= 2 * steps * 2.0**-52 * abs(want)


class TestMultivaluedPairs:
    def test_hand_computed_case(self):
        x = np.array([0.0, 1.0, 0.0])
        y = np.array([0.0, 5.0, 9.0])
        assert scan_pairs(x, y, 0.1, 1.0) == [(0, 2)]

    def test_no_matches(self):
        x = np.arange(10.0)
        y = x**2
        assert scan_pairs(x, y, 1e-9, 1e-9) == []

    def test_block_boundaries(self, monkeypatch):
        # Force tiny blocks so the chunked path is exercised.
        monkeypatch.setattr(_kernels, "_BLOCK_ELEMENTS", 7)
        rng = np.random.default_rng(4)
        x = rng.integers(0, 4, 40).astype(float)
        y = rng.normal(size=40)
        assert scan_pairs(x, y, 0.5, 0.1) == brute_pairs(x, y, 0.5, 0.1)

    @pytest.mark.parametrize(
        "a,x_tol,b",
        [
            (-1.0, 1.0, 1e-17),
            (0.5803661089568823, 19.13754117251856, 19.717907281475444),
            (-1.956533897050904e16, 2.5252439080338216e16, 5687100109829177.0),
            (-1.0676621989697095e-300, 7.695129704688543e-301, -2.981492285008551e-301),
            # Also a < fl(b - x_tol): a window starting there would miss it.
            (-0.24844962539771176, 1.0420432586255162, 0.7935936332278045),
            (-7517818769901584.0, 1.8779232600891264e16, 1.1261413830989682e16),
            (-5.728401418201773e-301, 8.46077919018155e-301, 2.732377771979778e-301),
        ],
    )
    def test_match_beyond_rounded_window(self, a, x_tol, b):
        # fl(b - a) <= x_tol although b > fl(a + x_tol), so a window ending
        # at fl(a + x_tol) would miss the pair.  Each pair is kept from its
        # first row: [a, b] finds it in a's upward window, [b, a] in b's
        # downward one.  Negated, -b < fl(-a - x_tol), so [-a, -b] finds it
        # at the rounded edge of -a's downward window; [b, a] and [-b, -a]
        # reach a rounded edge where also a < fl(b - x_tol).
        assert b > a + x_tol and abs(b - a) <= x_tol
        for x in ([a, b], [b, a], [-a, -b], [-b, -a]):
            assert scan_pairs(x, [0.0, 1.0], x_tol, 0.5) == [(0, 1)]

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 150),
        grid=st.integers(1, 8),
        scale=st.sampled_from([1.0, 0.1, 1e-300, 3.0e7]),
        offset=st.sampled_from([0.0, -2.0, 1e16, -1e16]),
        jitter=st.sampled_from([0.0, 1e-17, 1e-15, 1e-9]),
        tol_cells=st.sampled_from([0.5, 1.0, 2.0]),
        y_tol=st.sampled_from([0.1, 0.5, 1.0]),
        block=st.sampled_from([1, 3, 1_000_000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force(self, n, grid, scale, offset, jitter, tol_cells, y_tol, block, seed):
        # x on a small integer grid gives ties and gaps exactly equal to
        # x_tol (tol_cells = 1, 2).  Jitter puts gaps within rounding of
        # x_tol: around x = 0 it is finer than the spacing of x_tol, where
        # fl(x_j - x_i) <= x_tol although x_j > fl(x_i + x_tol).  The offsets
        # and scales move the grid to where both of those round.
        rng = np.random.default_rng(seed)
        x = offset + scale * rng.integers(0, grid, n).astype(float)
        x += scale * jitter * rng.normal(size=n)
        y = rng.integers(0, 4, n).astype(float)
        x_tol = tol_cells * scale
        old = _kernels._BLOCK_ELEMENTS
        _kernels._BLOCK_ELEMENTS = block
        try:
            got = scan_pairs(x, y, x_tol, y_tol)
        finally:
            _kernels._BLOCK_ELEMENTS = old
        assert got == brute_pairs(x.tolist(), y.tolist(), x_tol, y_tol)


_BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot"}


def _name(node):
    """The name a Name, Attribute, Call, import alias or from-import refers to, else ''."""
    if isinstance(node, ast.Call):
        return _name(node.func)
    for kind, field in ((ast.Name, "id"), (ast.Attribute, "attr"), (ast.alias, "name"), (ast.ImportFrom, "module")):
        if isinstance(node, kind):
            return getattr(node, field) or ""
    return ""


def _blas_uses(tree):
    """Each node of ``tree`` that would reach BLAS through numpy, as a string."""
    for node in ast.walk(tree):
        name = _name(node)
        if isinstance(node, ast.MatMult):
            yield "@"
        elif isinstance(node, ast.Call) and name in _BLAS_CALLS:
            yield f"{name}()"
        elif isinstance(node, ast.Call) and name == "einsum" and any(k.arg == "optimize" for k in node.keywords):
            yield "einsum(optimize=...)"
        elif "linalg" in name.split("."):
            yield "linalg"


def test_no_blas_calls():
    # The CLI's entry gives OpenBLAS one thread (fracalc/__main__.py), which
    # costs nothing only while no code calls BLAS: numpy routes matrix
    # products, dot products, linalg and einsum with optimize through it.
    # A call that brings BLAS in has to revisit that default.
    package = Path(_kernels.__file__).parent
    found = {
        f"{path.name}:{use}"
        for path in sorted(package.glob("*.py"))
        for use in _blas_uses(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert not found


def test_no_dataclasses_or_typing_imports():
    # `import fracalc.cli` is part of every command's start-up: dataclasses
    # brings in inspect, ast, dis and tokenize, and decorating a class
    # compiles its methods at import.  Type-only imports sit under a
    # module-level `TYPE_CHECKING = False` and annotations stay strings.
    package = Path(_kernels.__file__).parent
    found = {
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.alias, ast.ImportFrom)) and _name(node).split(".")[0] in {"dataclasses", "typing"}
    }
    assert not found
