"""Exception types shared across the library."""


class CRSpecError(Exception):
    """Base class for all library errors."""


class EmptySetError(CRSpecError):
    """A distance or neighborhood was requested for an empty set."""


class EmptyImageError(CRSpecError):
    """An orbit died: some iterate came out empty.

    ``step`` is the first exponent whose image is empty.
    """

    def __init__(self, step):
        self.step = step
        super().__init__(f"image became empty at step {step}")


class BadRangeError(CRSpecError):
    """An orbit segment was requested with first index above the last."""


class NonPositiveGapError(CRSpecError):
    """Consecutive segments overlap or touch, so no positive gap exists."""


class NoPreimageError(CRSpecError):
    """No point maps onto the requested target under the iterated relation."""


class SizeMismatchError(CRSpecError):
    """A bijection was applied between spaces of different sizes."""


class ScenarioError(CRSpecError):
    """Base class for scenario-file problems; carries the offending line."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class ScenarioParseError(ScenarioError):
    """The scenario text is malformed."""


class ScenarioValidationError(ScenarioError):
    """The scenario parsed but refers to undefined names or invalid data."""
