"""Exception types shared across the package, and how their messages show values."""


class PidError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(PidError):
    """A requested size exceeds the supported range (source count, table cells)."""


class DomainError(PidError):
    """An antichain or collection lies outside the domain of the requested operation."""


class ValidationError(PidError):
    """A supplied object violates its invariants (masses, alphabets, antichain axioms)."""


class ParseError(ValidationError):
    """An external file or label could not be parsed."""


class CompletenessError(PidError):
    """A value table is missing entries for part of its domain, or has extras."""


class UnsupportedStructureError(PidError):
    """The operation needs a full lattice but was given a semi-lattice."""


class MeasureInconsistencyError(PidError):
    """Supplied measure values violate an identity they must satisfy."""


def shown(value) -> str:
    """``repr(value)`` for an error message; an int past the interpreter's
    limit on str digits, whose ``repr`` raises, is named by its type."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def expect(value, cls: type, what: str) -> None:
    """Refuse an object argument that is not a ``cls`` with a ValidationError
    naming its type, e.g. "alpha must be an Antichain, got NoneType"."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValidationError(f"{what} must be {article} {cls.__name__}, got {type(value).__name__}")


def choice(value, allowed, what: str, error: type = DomainError) -> None:
    """Refuse a named option that is not a str among ``allowed``, e.g.
    "unknown direction 'x'; valid: up, down"; a numpy array of strings is no str."""
    if not isinstance(value, str) or value not in allowed:
        raise error(f"unknown {what} {shown(value)}; valid: {', '.join(allowed)}")
