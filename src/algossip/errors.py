"""Exception types shared across the package."""


class AlgossipError(Exception):
    """Base class for all package errors."""


class DomainError(AlgossipError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConfigError(AlgossipError, ValueError):
    """A run configuration is inconsistent or contains unknown fields."""


class KindError(AlgossipError, TypeError):
    """An operation was applied to an incompatible kind of object."""


class ConnectivityFailure(AlgossipError, RuntimeError):
    """A connected graph could not be generated within the retry budget."""


class MismatchError(AlgossipError, ValueError):
    """Traces being compared do not share the same underlying instance."""


class NumericError(AlgossipError, ArithmeticError):
    """A trajectory produced non-finite values."""
