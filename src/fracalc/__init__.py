"""Caputo fractional derivatives and memory-aware economic indicators.

One derivative function, ``caputo_derivative``, has two engines: an exact
closed form for polynomials and an L1 product-integration scheme for
uniformly sampled series.  On top of them sits the indicator layer, a
one-parameter family of indicator/factor ratios that spans the spectrum
from the average (order 0) to the marginal (order 1) value of an economic
indicator.

``import fracalc`` loads the engines but not numpy: no module imports it
at module level, and only functions that work on samples import it.  The
closed form for polynomials never loads numpy.
"""

from .caputo import Polynomial, SampledSeries, caputo_derivative
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
from .indicators import (
    IndicatorPair,
    alpha_sweep,
    detect_multivalued,
    t_indicator,
    t_indicator_time,
)
from .series import DemoProcess, demo_process, export_csv, ingest_csv, sample

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # domain types
    "Polynomial",
    "SampledSeries",
    "IndicatorPair",
    "DemoProcess",
    # derivatives
    "caputo_derivative",
    # indicators
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
