"""Exception hierarchy shared by all isslab modules."""

__all__ = ["IsslabError", "DomainError", "DataError", "NumericError", "ContractError",
           "UnsupportedError"]


class IsslabError(Exception):
    """Base class for all errors raised by isslab."""


class DomainError(IsslabError):
    """An argument is outside the mathematical domain of the operation."""


class DataError(IsslabError):
    """Input data is malformed (non-finite samples, shape mismatch, ...)."""


class NumericError(IsslabError):
    """A numerical procedure failed (overflow, a result past the double
    range, iteration did not converge)."""


class ContractError(IsslabError):
    """A caller violated a documented precondition of an operation."""


class UnsupportedError(IsslabError):
    """The operation is not defined for this input (e.g. the complementary
    function of the identity gauge)."""
