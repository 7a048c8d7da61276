"""Exception types shared across the package.

A fault in a run configuration, a data file, a split, the numerics or a
model file raises one of the classes below, which the CLI maps onto
stable exit codes.  An argument out of range raises a plain ValueError,
which the CLI maps to exit 2, as it does ConfigError.
"""


class NeurofuzzyError(Exception):
    """Base class for all package-specific errors."""


class DataLoadError(NeurofuzzyError):
    """A dataset file could not be parsed or failed validation."""


class SplitError(NeurofuzzyError):
    """A train/test split or fold assignment could not be built."""


class ConfigError(NeurofuzzyError):
    """A run configuration is missing, malformed, or out of bounds."""

class ModelFormatError(NeurofuzzyError):
    """A model file has the wrong kind or format version."""


class NumericError(NeurofuzzyError):
    """A numeric procedure failed (non-finite values, failed solve)."""


class UndefinedKappaError(NumericError):
    """Kappa is undefined because random accuracy equals 1."""
