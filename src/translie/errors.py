"""Exception types shared across the package, and the one budget gate.

Division by zero scalars raises the builtin ZeroDivisionError.
"""

# cases, triples, rows or basis entries an exhaustive enumeration may need
# before it raises BudgetExceededError instead of starting
DEFAULT_EXHAUSTIVE_CAP = 2_000_000


class TransLieError(Exception):
    """Base class for errors raised by this package."""


class IndexOverflowError(TransLieError):
    """A basis index left the supported machine range."""


class UnknownNotFoundError(TransLieError):
    """A referenced unknown is not one of the system's unknowns."""


class BudgetExceededError(TransLieError):
    """An exhaustive enumeration or iteration limit was exceeded."""


def require_budget(count, what):
    """Raise BudgetExceededError when count exceeds the exhaustive cap;
    `what` says what needs count, as in "assembly needs 12 equation
    triples"."""
    if count > DEFAULT_EXHAUSTIVE_CAP:
        raise BudgetExceededError(f"{what}, budget is {DEFAULT_EXHAUSTIVE_CAP}")


class EmptySystemError(TransLieError):
    """Constraint assembly produced no qualifying equation triples."""


class VerificationError(TransLieError):
    """A computed nullspace basis vector left a constraint row nonzero."""


class InvalidParamsError(TransLieError):
    """Product parameters failed validation; the report explains why."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class ConfigParseError(TransLieError):
    """A run configuration document is not well-formed."""


class ConfigSchemaError(TransLieError):
    """A run configuration is well-formed but violates the schema."""
