"""Exception types, and the input rules that more than one module checks."""


class SrmksError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(SrmksError, ValueError):
    """An argument violates a documented precondition."""


class SingularSystemError(SrmksError, ArithmeticError):
    """The smoother's linear system is singular or not positive definite."""


def require_int(name: str, value, minimum: int) -> None:
    """Raise InvalidInputError unless `value` is an int (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise InvalidInputError(f"{name} must be an integer >= {minimum}, got {value!r}")
