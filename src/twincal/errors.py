"""Exception hierarchy shared across the package.

Every error raised by twincal derives from TwincalError so callers (and the
CLI exit-code mapping) can distinguish failure classes without string
matching.
"""


class TwincalError(Exception):
    """Base class for all twincal errors."""


class DomainError(TwincalError, ValueError):
    """A numeric argument is outside its mathematical domain."""


class GeometryError(TwincalError, ValueError):
    """A region, conjugate position or search grid leaves its beam half
    or the frame bounds."""


class DegenerateDataError(TwincalError, ValueError):
    """An estimator cannot be formed (zero denominator, too few frames,
    singular covariance)."""


class ConfigError(TwincalError, ValueError):
    """A run-configuration document failed validation."""


class StackFormatError(TwincalError, ValueError):
    """Base class for frame-stack file format errors."""


class CorruptHeaderError(StackFormatError):
    """The stack file header is missing, malformed or inconsistent."""


class TruncatedPayloadError(StackFormatError):
    """The stack payload is shorter than the header declares."""


class DigestMismatchError(StackFormatError):
    """The sidecar configuration does not match the digest stored in the
    stack header."""
