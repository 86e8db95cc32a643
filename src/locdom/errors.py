"""Exception hierarchy shared by all locdom modules: one class per outcome
that some caller tells apart, the one check of an int's floor that the
CLI's options and the library's ceilings share, and the one refusal of an
order above a ceiling."""

from typing import NoReturn


class LocdomError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(LocdomError):
    """An input is outside its documented format, range or precondition."""


class RefusedScale(LocdomError):
    """The requested computation exceeds the configured size ceiling."""


class TwinsPresent(LocdomError):
    """The graph has twin vertices, so the bound machinery does not apply."""


class BoundViolation(LocdomError):
    """A certified witness exceeded its guaranteed size bound."""


class VerificationFailed(LocdomError):
    """A result failed its re-check, or a step the theory guarantees could
    not be completed: a bug."""


def require_at_least(name: str, floor: int, value: int) -> int:
    """value, unless it is below floor: then InvalidInput, in the one form
    that a CLI option and a library ceiling give alike."""
    if value < floor:
        raise InvalidInput(f"{name} must be at least {floor}, got {value}")
    return value


def refuse(what: str, n: int, ceiling: int) -> NoReturn:
    """Raise for an order n above ceiling: InvalidInput when the ceiling
    itself is negative (require_at_least), else RefusedScale.  Each caller
    compares n with its ceiling first, so a call within it pays nothing."""
    require_at_least("ceiling", 0, ceiling)
    raise RefusedScale(f"{what} refused for n={n} > {ceiling}")
