"""Exception types shared across the package.

Everything raised on purpose derives from CharnetError so callers (and the
CLI) can distinguish domain failures from genuine bugs.
"""


class CharnetError(Exception):
    """Base class for all errors raised by this package."""


# graph construction

class SelfLoopError(CharnetError):
    """An interaction was declared between a character and itself."""


class NonPositiveWeightError(CharnetError):
    """An edge weight was zero, negative, or not a finite number."""


class EmptyEpisodeError(CharnetError):
    """An episode was aggregated from an empty segment list."""


# dataset ingestion

class FormatError(CharnetError):
    """Input bytes do not match the documented file format."""


class InvariantError(CharnetError):
    """Structurally valid input violates a domain invariant."""


class RangeError(CharnetError):
    """A review score falls outside the 1-10 rating scale."""


class DuplicateKeyError(CharnetError):
    """The same (series, season, episode) key was rated twice."""


class EmptyDatasetError(CharnetError):
    """No episode files were supplied."""


# metric computation

class DegenerateGraphError(CharnetError):
    """The graph is too small for the requested metric."""


class NoEdgesError(CharnetError):
    """Eigenvector centrality requires at least one edge."""


class ConvergenceError(CharnetError):
    """Power iteration hit the iteration cap before reaching tolerance."""


class EmptyVectorError(CharnetError):
    """A summary was requested for an empty score vector."""


# statistics

class NonFiniteError(CharnetError):
    """An input vector contains NaN or infinity."""


class LengthMismatchError(CharnetError):
    """Paired vectors have different lengths."""


class DegenerateInputError(CharnetError):
    """A correlation input is constant or too short to rank."""


class DomainError(CharnetError):
    """A statistic was requested outside its mathematical domain."""


class InsufficientDataError(CharnetError):
    """Fewer than four rated episodes are available for correlation."""


# reporting / CLI

class UnknownMetricError(CharnetError):
    """A plot was requested for a metric name that does not exist."""


class UnknownSeriesError(CharnetError):
    """A plot was requested for a series not present in the dataset."""
