"""The library's contract on arguments of any kind.

Each public function that takes no file path returns finite floats or
raises a FracalcError, with every warning an error.  None stands only for
a degenerate order of ``alpha_sweep``.  The function, series or pair that
a function works on is one of those types; every other argument is drawn
from one pool.  The pool mixes valid polynomials, series and pairs with
text, bytes, None, mappings, sets, generators, complex numbers, arrays of
the wrong shape, ints beyond the float range and the edges of the float
range.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracalc import (
    DemoProcess,
    DenominatorNearZero,
    FracalcError,
    IndicatorPair,
    Polynomial,
    SampledSeries,
    alpha_sweep,
    caputo_poly,
    caputo_series,
    demo_process,
    detect_multivalued,
    sample,
    t_indicator,
    t_indicator_time,
)

BIG = 10**400
FIG1 = demo_process("fig1")
SMALL = SampledSeries(1.0, [1.0, 2.0, 3.0])
# Y/X at order 0 is 2e300 / 2e-300, and at order 0.5 about as large.
HUGE = IndicatorPair(y=SampledSeries(1.0, [0.0, 1e300, 2e300]), x=SampledSeries(1.0, [0.0, 1e-300, 2e-300]))

EDGES = [0.0, 5e-324, -5e-324, 1e300, 1e-300, 1.797e308, -1.797e308, math.nan, math.inf, -math.inf]
finite = st.one_of(st.sampled_from([e for e in EDGES if math.isfinite(e)]), st.floats(-10.0, 10.0))
numbers = st.one_of(st.sampled_from([*EDGES, BIG, -BIG]), st.integers(-3, 8), st.floats(-10.0, 10.0))
steps = st.one_of(st.sampled_from([5e-324, 1e-300, 1e300, 1.797e308]), st.floats(0.01, 10.0))


def _or_none(f, *args):
    """f(*args), or None where that raises a FracalcError."""
    try:
        return f(*args)
    except FracalcError:
        return None


polynomials = st.one_of(st.sampled_from([FIG1.x, FIG1.y]), st.lists(finite, max_size=4).map(Polynomial))
series = st.one_of(
    st.builds(lambda h, v: _or_none(SampledSeries, h, v), steps, st.lists(finite, min_size=3, max_size=6)),
    st.builds(lambda p, t, n: _or_none(sample, p, t, n), polynomials, numbers, st.integers(2, 6)),
)
sampled_pairs = st.integers(3, 6).flatmap(
    lambda n: st.builds(
        lambda h, y, x: _or_none(lambda: IndicatorPair(y=SampledSeries(h, y), x=SampledSeries(h, x))),
        steps,
        st.lists(finite, min_size=n, max_size=n),
        st.lists(finite, min_size=n, max_size=n),
    )
).filter(lambda p: p is not None)
pairs = st.one_of(
    st.sampled_from([FIG1.pair(), HUGE]), st.builds(IndicatorPair, polynomials, polynomials), sampled_pairs
)
odd = st.one_of(
    st.text(max_size=4),
    st.binary(max_size=4),
    st.none(),
    st.dictionaries(st.text(max_size=2), numbers, max_size=2),
    st.sets(st.floats(0.0, 3.0), max_size=3),
    st.lists(numbers, max_size=4).map(lambda xs: (x for x in xs)),
    st.complex_numbers(max_magnitude=10.0),
    st.sampled_from([complex(math.inf, 0.0), np.array(0.5), np.ones((2, 3)), [1.0, [2.0], 3.0]]),
    st.just(np.array([[1.0], [2.0, 3.0]], dtype=object)),
)
POOL = st.one_of(
    numbers,
    st.lists(numbers, max_size=6),
    st.lists(finite, max_size=6).map(np.array),
    polynomials,
    series,
    pairs,
    st.sampled_from(["fig1", "fig2"]),
    odd,
)
functions = st.one_of(polynomials, series.filter(lambda s: s is not None))

# Each name's function and a strategy per argument; None, in the pool,
# stands for an omitted T.
CALLS = {
    "Polynomial": (Polynomial, [POOL]),
    "SampledSeries": (SampledSeries, [POOL, POOL]),
    "IndicatorPair": (IndicatorPair, [POOL, POOL]),
    "caputo_poly": (caputo_poly, [functions, POOL, POOL]),
    "caputo_series": (caputo_series, [functions, POOL]),
    "t_indicator": (t_indicator, [pairs, POOL, POOL]),
    "t_indicator_time": (t_indicator_time, [functions, POOL, POOL]),
    "alpha_sweep": (alpha_sweep, [pairs, POOL, POOL]),
    "detect_multivalued": (detect_multivalued, [POOL, POOL, POOL, POOL]),
    "sample": (sample, [polynomials, POOL, POOL]),
    "demo_process": (demo_process, [POOL]),
    "DemoProcess.sampled_pair": (FIG1.sampled_pair, [POOL, POOL]),
}
calls = st.one_of([st.tuples(st.just(name), st.tuples(*args)) for name, (_, args) in CALLS.items()])


def _floats(result) -> list:
    """Every number a result holds, None included."""
    if isinstance(result, float):
        return [result]
    if isinstance(result, list):
        return result
    if isinstance(result, tuple):
        assert all(a.dtype == np.float64 for a in result)
        return [v for a in result for v in a.tolist()]
    if isinstance(result, Polynomial):
        return list(result.coeffs)
    if isinstance(result, SampledSeries):
        return [result.h, result.t_end, *result.times().tolist(), *result.values.tolist()]
    if isinstance(result, IndicatorPair):
        return _floats(result.y) + _floats(result.x)
    if isinstance(result, DemoProcess):
        return _floats(result.pair()) + [result.t_end]
    raise AssertionError(f"unexpected result {result!r}")


@given(call=calls)
@example(call=("caputo_poly", (Polynomial((1.0, 2.0)), BIG, 1.0)))
@example(call=("sample", (Polynomial((1.0, 2.0)), BIG, 5)))
@example(call=("Polynomial", ([1, BIG],)))
@example(call=("SampledSeries", (1.0, [BIG, 1, 2])))
@example(call=("detect_multivalued", (SMALL, SMALL, BIG, 1.0)))
@example(call=("SampledSeries", (1.0, [1.0, [2.0], 3.0])))
@example(call=("demo_process", (["fig1"],)))
@example(call=("caputo_poly", (Polynomial((0.0, 0.0, 1e308)), 0.5, 100.0)))
@example(call=("caputo_poly", (FIG1.x, 0.0, 1e300)))
@example(call=("t_indicator", (HUGE, 0.5, None)))
@example(call=("alpha_sweep", (HUGE, [0.0, 0.5], None)))
@example(call=("t_indicator_time", (FIG1.y, 0.0, 1e300)))
@example(call=("t_indicator_time", (FIG1.y, 0.0, 5e-324)))
@example(call=("t_indicator", (FIG1.pair(), 0.0, 1e300)))
@example(call=("SampledSeries", (1.797e308, [1.0, 2.0, 3.0])))
@example(call=("sample", (Polynomial((1.0,)), 1.7976931348623157e308, 3)))
@settings(max_examples=300, deadline=None)
def test_finite_floats_or_fracalc_error(call):
    name, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = _floats(CALLS[name][0](*args))
        except DenominatorNearZero as exc:
            # The guard compares finite numbers: an overflow is no degenerate denominator.
            assert "inf" not in str(exc) and "nan" not in str(exc)
            return
        except FracalcError:
            return
    if name == "alpha_sweep":
        values = [v for v in values if v is not None]
    assert all(type(v) is float and math.isfinite(v) for v in values), values
