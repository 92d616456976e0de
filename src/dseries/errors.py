"""Exception types shared across the toolkit."""

__all__ = [
    "DSeriesError",
    "ResourceLimitError",
    "PrecisionLimitError",
    "TermLimitError",
    "CertificateError",
]


class DSeriesError(Exception):
    """Base class for toolkit errors."""


class ResourceLimitError(DSeriesError):
    """A configured resource cap was reached (CLI exit code 2)."""


class PrecisionLimitError(ResourceLimitError):
    """The requested enclosure precision exceeds the configured maximum,
    or the source cannot be refined that far (e.g. a finite partial-quotient
    prefix with no declared tail)."""


class TermLimitError(ResourceLimitError):
    """A summation range exceeds the configured term cap."""


class CertificateError(DSeriesError):
    """A certificate of criterion.CERTIFICATES was named for a source its
    growth law does not cover (CLI exit code 1)."""
