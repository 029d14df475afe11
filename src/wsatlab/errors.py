"""Exception types shared across the toolkit."""


class WsatlabError(Exception):
    """Base class for all toolkit errors."""


class GraphFormatError(WsatlabError):
    """Malformed graph6 / edge-list input."""


class ParameterRangeError(WsatlabError, ValueError):
    """A numeric parameter lies outside its documented range."""


class CapExceededError(WsatlabError):
    """An exact computation was asked to run past its configured cap."""


class BudgetExceededError(WsatlabError):
    """A search exhausted its node/matching/sample budget.

    ``partial`` carries whatever bounds or partial results were established
    before the budget ran out; they are inconclusive.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class TraceFormatError(WsatlabError, ValueError):
    """Trace JSON that is not a list of ``{"edge": [u, v], "witness": [x, ...]}``."""


class TraceIncompleteError(WsatlabError):
    """A percolation trace whose terminal graph is not complete was used
    where a weakly saturated host is required."""


class InactiveVertexError(WsatlabError):
    """Replaying a trace left some vertex inactive.

    This signals that the host is not a minimum weakly saturated graph; it
    is reported as a distinct condition rather than a crash.
    """

    def __init__(self, message: str, vertices=()):
        super().__init__(message)
        self.vertices = tuple(vertices)


class EmptyOwnershipError(WsatlabError):
    """A partition part owns no edge, so no matching can select one."""


class InfeasibleParamsError(WsatlabError):
    """Construction parameters violate a parity, range, or congruence
    constraint."""


class ConditionUnsatisfiableError(WsatlabError):
    """The expander condition cannot be satisfied for any eta in [0, 1]."""
