"""Exception hierarchy shared by all balcut modules."""


class BalcutError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(BalcutError):
    """Caller violated a documented precondition."""


class InvalidCut(InvalidInput):
    """A cut side was empty or covered the whole vertex set."""


class InvalidParam(InvalidInput):
    """A numeric parameter was outside its allowed range."""


class OracleTooLarge(InvalidInput):
    """Brute-force enumeration was requested above the oracle size limit."""


class CompositionError(InvalidInput):
    """An expander composition received malformed blocks or matchings."""


class DegreeTooHigh(InvalidInput):
    """Greedy matching partition requires maximum degree at most 9."""


class StaleEdge(InvalidInput):
    """An edge deletion targeted an edge that was already removed."""


class PreconditionViolated(InvalidInput):
    """A documented structural precondition failed at call time."""


class ParseError(InvalidInput):
    """A graph or cut file could not be parsed."""


class RangeError(ParseError):
    """A vertex id exceeded the declared vertex count."""


class BudgetExceeded(BalcutError):
    """A fake-edge or deleted-edge budget was exceeded."""


class RoundCapExceeded(BalcutError):
    """The cut-matching game exceeded its round cap.

    ``trace`` holds the size of each round's matching, for diagnosis.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class DiagnosticTooLarge(InvalidInput):
    """A dense diagnostic (walk potential) was requested above its size cap."""


class DiagnosticFailure(BalcutError):
    """Neither branch of a route-or-cut call met its recounted bound."""


class InternalInvariantBroken(BalcutError):
    """A self-checked postcondition failed; this indicates a bug, not bad input."""
