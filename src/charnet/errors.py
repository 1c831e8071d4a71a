"""Exception types shared across the package.

Everything raised on purpose derives from CharnetError, so callers (and the
CLI, which turns it into exit code 2) can tell domain failures from genuine
bugs.  There is one class per thing a caller does with an error: the
parser and load_dataset prefix a FormatError or InvariantError with where
it happened, correlate_all flags a column on a DegenerateInputError, and a
metric row turns a ConvergenceError into a warning.  DomainError and
DegenerateGraphError name the two other kinds of bad argument.  The
message says which rule failed.
"""


class CharnetError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(CharnetError):
    """Input does not match the documented formats: a malformed file or a
    field other than an edge weight, a rating outside 1-10 or given twice,
    no episode files, an unknown output format, metric or series name."""


class InvariantError(CharnetError):
    """Well-formed input breaks a graph rule: an empty name, a self-loop, a
    weight of any type that is not a positive finite number, a weight sum
    past the float range, a pair out of sorted order, an edge endpoint
    missing from the nodes, an episode without segments."""


class DomainError(CharnetError):
    """An argument lies outside its domain: a non-finite value to rank,
    paired vectors of unequal length, an unknown efficiency mode or table
    format, rows of several series, a p-value's n or rho, too few
    permutations, an eigen setting."""


class DegenerateGraphError(CharnetError):
    """The graph is too small for the requested metric, or a summary was
    asked of an empty score vector."""


class DegenerateInputError(CharnetError):
    """A correlation input is empty, constant or too short to rank, or a
    series has too few rated episodes to correlate or plot."""


class ConvergenceError(CharnetError):
    """Power iteration hit the iteration cap before reaching tolerance."""
