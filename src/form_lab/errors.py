"""Exception types shared across the package.

The numerical layers treat physically impossible states as hard errors:
nothing is silently clamped, because a clamp would hide exactly the bugs
these checks exist to catch.
"""


class FormLabError(Exception):
    """Base class for all package-specific errors."""


class SpeedLimitError(FormLabError):
    """A speed reached or exceeded the speed of light."""


class DegenerateVelocityError(FormLabError):
    """An operation needed a velocity direction but the speed was ~zero."""


class NonFiniteError(FormLabError):
    """A NaN or infinity appeared where finite numbers are required."""


class ShapeError(FormLabError):
    """An array had the wrong shape for the requested operation."""


class SchemaError(FormLabError):
    """A file failed structural validation (bad header, field, or index)."""


class FieldError(FormLabError, ValueError):
    """A dataclass ``owner`` refused the value of its ``field``, which a caller may name by the option that set it."""

    def __init__(self, owner: type, field: str, message: str):
        super().__init__(message)
        self.owner, self.field = owner, field
