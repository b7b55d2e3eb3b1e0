"""Exceptions shared across the package."""


class TruncationError(Exception):
    """An exact answer would require series coefficients beyond the stored order."""


class DocumentError(Exception):
    """A system document failed schema validation."""
