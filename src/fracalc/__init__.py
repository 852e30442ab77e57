"""Caputo fractional derivatives and memory-aware economic indicators.

Two derivative engines share one contract: an exact closed form for
polynomials and an L1 product-integration scheme for uniformly sampled
series.  On top of them sits the indicator layer, a one-parameter family of
indicator/factor ratios that spans the spectrum from the average (order 0)
to the marginal (order 1) value of an economic indicator.

``import fracalc`` loads neither numpy nor the engines: every public name
outside :mod:`fracalc.errors` is imported from its module on first access.
The closed form for polynomials never loads numpy; only code that holds
samples does.
"""

from importlib import import_module

from .errors import (
    DenominatorNearZero,
    DomainError,
    EmptySweep,
    FracalcError,
    GridMismatch,
    InsufficientData,
    NonUniformGrid,
    ParseError,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # domain types
    "Polynomial",
    "SampledSeries",
    "IndicatorPair",
    "DemoProcess",
    # derivative engines
    "caputo_poly",
    "caputo_series",
    # indicators
    "average_indicator",
    "marginal_indicator",
    "t_indicator",
    "t_indicator_time",
    "alpha_sweep",
    "detect_multivalued",
    # series construction
    "demo_process",
    "sample",
    "ingest_csv",
    "export_csv",
    # errors
    "FracalcError",
    "DomainError",
    "InsufficientData",
    "DenominatorNearZero",
    "GridMismatch",
    "NonUniformGrid",
    "ParseError",
    "EmptySweep",
]

# The submodule that defines each public name not imported above.
_LAZY = {
    "Polynomial": "caputo",
    "SampledSeries": "caputo",
    "caputo_poly": "caputo",
    "caputo_series": "caputo",
    "IndicatorPair": "indicators",
    "alpha_sweep": "indicators",
    "average_indicator": "indicators",
    "detect_multivalued": "indicators",
    "marginal_indicator": "indicators",
    "t_indicator": "indicators",
    "t_indicator_time": "indicators",
    "DemoProcess": "series",
    "demo_process": "series",
    "export_csv": "series",
    "ingest_csv": "series",
    "sample": "series",
}


def __getattr__(name):
    """Import a public name from its submodule on first access (PEP 562)."""
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
