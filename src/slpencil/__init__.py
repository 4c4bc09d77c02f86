"""Eigenvalues of polynomial Sturm-Liouville pencils via spectral parameter power series."""

from .errors import (
    ConfigError,
    ExpressionError,
    GridError,
    NodeValueError,
    ParticularSolutionError,
    RootLocalizationError,
    SLPencilError,
    SolverError,
)
from .grids import (
    Grid,
    SampledFunction,
    constant,
    cumulative_integral,
    derivative,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExpressionError",
    "Grid",
    "GridError",
    "NodeValueError",
    "ParticularSolutionError",
    "RootLocalizationError",
    "SLPencilError",
    "SampledFunction",
    "SolverError",
    "constant",
    "cumulative_integral",
    "derivative",
    "sample",
]
