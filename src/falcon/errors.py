"""Exception types shared across the package.

The CLI exits with the ``exit_code`` of the error it catches: image problems
exit 2, configuration or weight-archive problems exit 3, bad
layer/head/register indices exit 4.
"""


class FalconError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class ShapeError(FalconError):
    """Tensor dimensions are inconsistent with the requested operation."""


class NumericError(FalconError):
    """Non-finite values where finite ones are required."""


class ConfigError(FalconError):
    """Invalid configuration, or weights incompatible with a configuration."""


class BoundsError(FalconError):
    """Layer, head, or register index outside the valid range."""

    exit_code = 4


class ImageError(FalconError):
    """Malformed, truncated, or unreadable image file."""

    exit_code = 2


class ArchiveError(FalconError):
    """Malformed or unreadable tensor archive."""
