"""Exception types shared across the package."""


class SLPencilError(Exception):
    """Base class for all errors raised by slpencil."""


class GridError(SLPencilError, ValueError):
    """Invalid grid construction or mismatched grids in an operation."""


class NodeValueError(SLPencilError, ValueError):
    """A nodewise operation failed at a specific grid node.

    Carries ``node_index`` so callers can report where the data went bad.
    """

    def __init__(self, message: str, node_index: int):
        super().__init__(f"{message} (node {node_index})")
        self.node_index = node_index


class ParticularSolutionError(SLPencilError):
    """No acceptable non-vanishing particular solution could be produced."""


class ExpressionError(SLPencilError, ValueError):
    """Parse or evaluation failure of a coefficient expression.

    ``position`` is the 0-based character offset for parse errors, None for
    evaluation errors.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)
        self.position = position


class RootLocalizationError(SLPencilError):
    """Winding-number or subdivision machinery could not make progress."""


class ConfigError(SLPencilError, ValueError):
    """CLI configuration file failed validation."""


class SolverError(SLPencilError):
    """A solve pipeline failed after configuration was accepted."""
