"""Exception types shared across the package."""


class SrmksError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(SrmksError, ValueError):
    """An argument violates a documented precondition."""


class SingularSystemError(SrmksError, ArithmeticError):
    """The smoother's linear system is singular or not positive definite."""
