"""Exception types shared across the package."""


class LinkscopeError(Exception):
    pass


class GraphParseError(LinkscopeError, ValueError):
    """Malformed edge-list text; carries the 1-based offending line number
    when one applies."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SelfLoopError(GraphParseError):
    pass


class DuplicateEdgeError(GraphParseError):
    pass


class NotFoundError(LinkscopeError, LookupError):
    pass


class DisconnectedError(LinkscopeError, ValueError):
    pass


class InvalidCycleError(LinkscopeError, ValueError):
    pass


class InvalidPathError(LinkscopeError, ValueError):
    pass


class TooFewMonitorsError(LinkscopeError, ValueError):
    pass


class NotInteriorError(LinkscopeError, ValueError):
    pass


class PathExplosionError(LinkscopeError, RuntimeError):
    """Raised when enumerating measurement paths would exceed the row cap.

    Truncating silently would make "unidentifiable" verdicts unsound, so the
    cap is a hard error.
    """

    def __init__(self, cap: int):
        super().__init__(f"number of measurement paths exceeds cap {cap}")
        self.cap = cap


class InconsistentMeasurementsError(LinkscopeError, ValueError):
    pass


class TooLargeError(LinkscopeError, ValueError):
    pass


class TooSmallError(LinkscopeError, ValueError):
    pass


class InfeasibleStageError(LinkscopeError, RuntimeError):
    """A placement stage demands more eligible nodes than the component has.

    This cannot happen if the decomposition counters are right, so it is loud
    rather than silently skipped.
    """


class InconclusiveError(LinkscopeError, RuntimeError):
    """A bounded search ran out of budget before reaching a verdict."""
