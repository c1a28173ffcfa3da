"""Exception and warning types shared across the toolkit.

ValueError subclasses signal bad inputs (the CLI maps them to exit 2),
RuntimeError subclasses signal failed computations or verification
machinery (exit 1).
"""


class HeightImbalance(ValueError):
    """Coordinate heights of a vertex do not sum to zero."""


class DimensionMismatch(ValueError):
    """Operands belong to graphs with different parameters."""


class WrongDimension(ValueError):
    """Operation is only defined for three tree coordinates."""


class VertexSyntax(ValueError):
    """A vertex literal failed to parse."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonCanonicalWarning(UserWarning):
    """Parsed coordinates were legal but not in canonical form."""


class NotBalanced(ValueError):
    """Comparison point has a coordinate of nonzero height."""


class ProfileMismatch(ValueError):
    """Family's limiting spine-depth profile fails a precondition."""


class MemoryCapExceeded(RuntimeError):
    """An enumeration or array grew, or would grow, past its cap."""

    def __init__(self, message: str, size: int):
        super().__init__(f"{message} (at least {size})")
        self.size = size  # a lower bound on the size asked for


class TableMismatch(RuntimeError):
    """Computed growth table disagrees with the closed form or the metric."""
