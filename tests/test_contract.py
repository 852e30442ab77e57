"""The contract on arguments of any kind, for the library and the CLI.

Each public function that takes no file path returns finite floats or
raises a FracalcError, with every warning an error.  None stands only for
a degenerate order of ``alpha_sweep``.  The function, series or pair that
a function works on is one of those types or an odd value; every other
argument is drawn from one pool.  The pool mixes valid polynomials, series
and pairs with text, bytes, None, mappings, sets, generators, complex
numbers, arrays of the wrong shape, ints beyond the float range and the
edges of the float range.  README's library example runs as written.

Each command of the CLI ends with status 0 and finite numbers on the data
stream, with status 1 and one line ``error: <Name>: ...`` naming a
FracalcError or an OSError, or with status 2 and a usage error.
"""

import builtins
import contextlib
import io
import itertools
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
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
    caputo_derivative,
    demo_process,
    detect_multivalued,
    sample,
    t_indicator,
    t_indicator_time,
)
from fracalc.cli import main

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
functions = st.one_of(polynomials, series.filter(lambda s: s is not None), odd)
pairs_or_odd = st.one_of(pairs, odd)

# Each name's function and a strategy per argument; None, in the pool,
# stands for an omitted T.
CALLS = {
    "Polynomial": (Polynomial, [POOL]),
    "SampledSeries": (SampledSeries, [POOL, POOL]),
    "IndicatorPair": (IndicatorPair, [POOL, POOL]),
    "caputo_derivative": (caputo_derivative, [functions, POOL, POOL]),
    "t_indicator": (t_indicator, [pairs_or_odd, POOL, POOL]),
    "t_indicator_time": (t_indicator_time, [functions, POOL, POOL]),
    "alpha_sweep": (alpha_sweep, [pairs_or_odd, POOL, POOL]),
    "detect_multivalued": (detect_multivalued, [POOL, POOL, POOL, POOL]),
    "sample": (sample, [st.one_of(polynomials, odd), POOL, POOL]),
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
@example(call=("caputo_derivative", (Polynomial((1.0, 2.0)), BIG, 1.0)))
@example(call=("sample", (Polynomial((1.0, 2.0)), BIG, 5)))
@example(call=("Polynomial", ([1, BIG],)))
@example(call=("SampledSeries", (1.0, [BIG, 1, 2])))
@example(call=("detect_multivalued", (SMALL, SMALL, BIG, 1.0)))
@example(call=("SampledSeries", (1.0, [1.0, [2.0], 3.0])))
@example(call=("demo_process", (["fig1"],)))
@example(call=("caputo_derivative", (Polynomial((0.0, 0.0, 1e308)), 0.5, 100.0)))
@example(call=("caputo_derivative", (FIG1.x, 0.0, 1e300)))
@example(call=("t_indicator", (HUGE, 0.5, None)))
@example(call=("alpha_sweep", (HUGE, [0.0, 0.5], None)))
@example(call=("t_indicator_time", (FIG1.y, 0.0, 1e300)))
@example(call=("t_indicator_time", (FIG1.y, 0.0, 5e-324)))
@example(call=("t_indicator", (FIG1.pair(), 0.0, 1e300)))
@example(call=("SampledSeries", (1.797e308, [1.0, 2.0, 3.0])))
@example(call=("sample", (Polynomial((1.0,)), 1.7976931348623157e308, 3)))
@settings(max_examples=300)
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


def test_readme_python_blocks_run():
    # README's library example calls only what the package exports, as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})


# The CLI half.  Each option's values: those a user means, and the float
# edges, values just past each range check and text where a number
# belongs.  Most draws take a meant value.  The small N keep each run
# short; 10**15 samples do not fit in memory.
MAX = "1.7976931348623157e308"
TIMES = (
    ["0.5", "1", "7", "150", "200"],
    ["0", "-1", "nan", "inf", "-inf", "5e-324", "1e-300", "1e300", MAX, "abc"],
)
ORDERS = (
    ["0", "0.5", "1", "1.5", "1.99", "1e-300", "0:1:0.5", "0:1.9:0.1"],
    ["2", "3.7", "-0.5", "nan", "inf", "1:0:0.5", "0:1", "abc", ""],
)
STEP_COUNTS = ["2", "3", "4", "7", "20"], ["-5", "0", "1", str(10**15), "2.5"]
TOLERANCES = ["1e-9", "1", "5e-324", MAX], ["0", "-1", "nan", "inf"]
COEFFS = ["0,0,1", "1400,-3,0.01", "5", "0,0,1e308", "1e300,1e300"], ["1,inf", "", "a"]
CELLS = ["0", "1", "-1", "2.5", "1e-300", "5e-324", "1e300", "1.7e308", "-1.7e308"], ["nan", "inf", "x", ""]
CSV_STEPS = [5e-324, 1e-300, 1e-3, 0.5, 1.0, 3.0, 1e300]
CSV_SCALES = [1.0, 1e-300, 1e300]


def mostly(draw, common, rare):
    """One of ``common``, or less often one of ``rare``.  Hypothesis favours
    the ends of a list, so the rare values sit in its middle."""
    return draw(st.sampled_from([*common, *common, *rare, *common, *common]))


@st.composite
def csv_files(draw):
    """A t,x,y file on a uniform grid, its cells edges or floats of a scale per column."""
    h = draw(st.sampled_from(CSV_STEPS))
    sx, sy = draw(st.sampled_from(CSV_SCALES)), draw(st.sampled_from(CSV_SCALES))

    def cell(scale):
        return repr(scale * draw(st.floats(-1e3, 1e3))) if draw(st.booleans()) else mostly(draw, *CELLS)

    rows = [f"{k * h!r},{cell(sx)},{cell(sy)}" for k in range(draw(st.integers(0, 8)))]
    header = mostly(draw, ["t,x,y"], ["x,y"])
    return "\n".join([header, *rows]) + "\n"


@st.composite
def commands(draw):
    """An argv, with ``{csv}`` for the path of the input file, and the file's text or None."""
    command = draw(st.sampled_from(["deriv", "indicator", "sweep", "demo"]))
    options = {"--N": STEP_COUNTS, "--format": (["csv", "json"], [])}
    if command == "demo":
        argv = ["demo", draw(st.sampled_from(["fig1", "fig2"]))]
        options.update({"--x-tol": TOLERANCES, "--y-tol": TOLERANCES})
    else:
        argv = [command]
        options.update({"--T": TIMES, "--engine": (["analytic", "numeric"], [])})
        sources = {"--input": (["{csv}"], []), "--demo": (["fig1", "fig2"], [])}
        if command == "deriv":
            sources = {"--input": (["{csv}"], []), "--coeffs": COEFFS}
            options["--column"] = (["x", "y"], [])
        # Mostly one source and an order, sometimes none or both.
        for flag in mostly(draw, [[s] for s in sources], [[], list(sources)]):
            argv += [flag, mostly(draw, *sources[flag])]
        if mostly(draw, [True], [False]):
            argv += ["--alpha", mostly(draw, *ORDERS)]
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=3, unique=True)):
        argv += [flag, mostly(draw, *options[flag])]
    if mostly(draw, [False, False], [True]):
        argv += ["--x-tol" if command != "demo" else "--alpha", "1"]  # a flag the command does not take
    return argv, draw(csv_files()) if "{csv}" in argv else None


def _finite_cell(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _no_constant(name):
    raise AssertionError(f"JSON holds {name}")


# The names a status-1 line may carry.
ERROR_NAMES = {c.__name__ for c in [FracalcError, *FracalcError.__subclasses__()]} | {
    name for name, c in vars(builtins).items() if isinstance(c, type) and issubclass(c, OSError)
}


@pytest.fixture(scope="module")
def fresh_paths(tmp_path_factory):
    """A new path for each drawn file: rewriting one path can wait on the file system."""
    root = tmp_path_factory.mktemp("cli")
    return (root / f"{k}.csv" for k in itertools.count())


@given(case=commands())
# Three commands that once ended in a warning or a traceback: t/h overflows
# on a grid of step 5e-324, the factor's search window at x_tol near the
# float range, and the sample times at T near it.
@example(case=(["sweep", "--input", "{csv}", "--T", "7", "--alpha", "1e-300"],
               "t,x,y\n" + "".join(f"{k * 5e-324!r},{k},{k * k}\n" for k in range(11))))
@example(case=(["demo", "fig2", "--N", "3", "--x-tol", MAX], None))
@example(case=(["sweep", "--demo", "fig1", "--engine", "numeric", "--N", "3", "--T", MAX, "--alpha", "3.7"], None))
# Y/X = 2e300 / 2e-300 overflows.
@example(case=(["indicator", "--input", "{csv}", "--alpha", "0.5"], "t,x,y\n0,0,0\n1,1e-300,1e300\n2,2e-300,2e300\n"))
@settings(max_examples=250)
def test_cli_ends_in_one_of_three_ways(fresh_paths, case):
    argv, text = case
    if text is not None:
        path = next(fresh_paths)
        path.write_text(text)
        argv = [str(path) if a == "{csv}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        if "--format" in argv and argv[argv.index("--format") + 1] == "json":
            json.loads(out, parse_constant=_no_constant)
        else:
            cells = [c for line in out.splitlines()[1:] for c in line.split(",")]
            kinds = {"average", "marginal", "t_indicator"}
            assert all(c == "" or c in kinds or _finite_cell(c) for c in cells), out
    elif code == 1:
        assert out == ""
        name = re.fullmatch(r"error: (\w+): [^\n]*\n", err)
        assert name is not None and name[1] in ERROR_NAMES, err
    else:
        assert code == 2 and out == "", (code, out)
        assert err.startswith("usage: fracalc") and ": error: " in err.splitlines()[-1], err
