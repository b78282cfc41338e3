"""Exception types shared across the package.

Everything raised on purpose derives from NullstreamError so callers (and the
CLI exit-code mapping) can tell deliberate failures from bugs.
"""


class NullstreamError(Exception):
    pass


class ValidationError(NullstreamError):
    """Bad arguments or malformed input data."""


class DimensionMismatch(ValidationError):
    pass


class DegenerateInput(ValidationError):
    """Input is numerically degenerate (all-zero vectors, empty span, ...)."""


class EmptyList(ValidationError):
    pass


class ZeroDimensional(ValidationError):
    """Operation needs a subspace of positive dimension."""


class RankDeficient(NullstreamError):
    """A matrix that must have full (or stated) rank does not."""


class NotUnit(ValidationError):
    """A vector that must be unit-norm is not (tolerance 1e-6)."""


class BudgetViolation(NullstreamError):
    """A memory state or protocol message exceeds its bit budget."""


class AcceptanceTooRare(NullstreamError):
    """Rejection sampling hit its attempt cap.

    Carries the exact tail estimate so callers can see how unlikely the
    conditioning event is at the requested parameters.
    """

    def __init__(self, message, tail_estimate=None):
        super().__init__(message)
        self.tail_estimate = tail_estimate


class DegenerateOutput(NullstreamError):
    """An inner solver returned an output too small to normalize meaningfully."""


class NotSeparableInProjection(NullstreamError):
    """The perceptron could not separate the stored projected sample."""
