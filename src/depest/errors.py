"""Exception hierarchy shared across the toolkit.

Each class carries the CLI exit code it maps onto: usage problems exit
1, data/format problems exit 2, numeric failures exit 3.
"""


class DepestError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class ConfigError(DepestError):
    """Invalid configuration value or combination."""

    exit_code = 1


class ShapeError(DepestError):
    """Tensor/array shape does not satisfy an operation's contract."""


class DomainError(DepestError):
    """Scalar input outside the mathematical domain of an operation."""


class EmptyInputError(DepestError):
    """Operation received no data to work on."""


class EmptyOutputError(DepestError):
    """Operation would produce an empty result (e.g. everything filtered out)."""


class FormatError(DepestError):
    """On-disk data does not match the expected file format."""


class DataError(DepestError):
    """Dataset-level inconsistency (missing files, bad manifest, label range)."""


class GraphError(DepestError):
    """Misuse of the autodiff graph (non-scalar loss, double backward)."""

    exit_code = 3


class NumericError(DepestError):
    """Non-finite value where the pipeline requires finite numerics."""

    exit_code = 3
