"""Exception types raised by qdiscord.

Everything derives from :class:`QDiscordError` so callers (and the CLI) can
distinguish bad input from internal failures with one except clause.
"""


class QDiscordError(Exception):
    """Base class for all qdiscord errors."""


class DimensionError(QDiscordError):
    """Operands have incompatible or unsupported dimensions."""


class NonHermitianError(QDiscordError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotUnitaryError(QDiscordError):
    """A matrix required to be unitary is not, beyond tolerance."""


class OutsidePhysicalError(QDiscordError):
    """Requested parameters do not correspond to a physical state."""


class ValidationError(QDiscordError, ValueError):
    """A value failed its declared invariants (trace, positivity, ...).

    Also a ValueError, so callers that catch bad values generically see it.
    """


class ParseError(QDiscordError):
    """A file could not be parsed into the expected structure."""
