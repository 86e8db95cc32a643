"""Exception hierarchy shared by all locdom modules."""


class LocdomError(Exception):
    """Base class for all errors raised by this package."""


class InvalidEdge(LocdomError):
    """An edge endpoint is outside the vertex range."""


class LoopRejected(LocdomError):
    """A self-loop was supplied; only simple graphs are supported."""


class MalformedGraph6(LocdomError):
    """The input is not a valid graph6 string."""


class Unsupported(LocdomError):
    """The graph order exceeds what the codec supports."""


class MissingOrder(LocdomError):
    """Edge-list input lacks the leading 'n <count>' header."""


class ParseError(LocdomError):
    """A token in a text input could not be parsed."""


class InvalidParameter(LocdomError):
    """A parameter is outside its valid range."""


class RefusedScale(LocdomError):
    """The requested computation exceeds the configured size ceiling."""


class DomainViolation(LocdomError):
    """An argument violates a documented precondition on its domain."""


class PreconditionViolated(LocdomError):
    """A semantic precondition (e.g. 'x is locating') does not hold."""


class NotMaximal(LocdomError):
    """The given set does not attain the known maximum score sum."""


class NotGood(LocdomError):
    """The given set is not a good set."""


class Infeasible(LocdomError):
    """A step that theory guarantees possible could not be completed."""


class TwinsPresent(LocdomError):
    """The graph has twin vertices, so the bound machinery does not apply."""


class BoundViolation(LocdomError):
    """A certified witness exceeded its guaranteed size bound."""


class VerificationFailed(LocdomError):
    """A result failed its independent re-check; this is an implementation bug."""
