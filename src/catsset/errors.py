"""Exception types shared across the package."""


class CatssetError(Exception):
    """Base class for errors raised by this package."""


class InvalidWordError(CatssetError, ValueError):
    """A string is not a valid word over the expected alphabet."""


class DegenerateWordError(CatssetError, ValueError):
    """An operation defined only on non-degenerate simplices got a degenerate one."""


class IndexOutOfRangeError(CatssetError, IndexError):
    """A face, degeneracy or level index lies outside the range of its object."""


class RelationConditionError(CatssetError, ValueError):
    """A pair set violates the order or interval-closure conditions."""


class BoundaryError(CatssetError, ValueError):
    """A facet tuple is not a compatible boundary."""


class StructuralError(CatssetError, ValueError):
    """Tables reference unknown labels or are missing required entries."""


class SchemaError(StructuralError):
    """A JSON document does not match the expected schema."""


class BudgetExceededError(CatssetError):
    """An enumeration or construction would exceed its configured budget."""
