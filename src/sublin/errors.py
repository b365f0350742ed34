"""Exception hierarchy shared by all sublin modules.

Each error class carries the process exit code used by the CLI.
"""

# the most states one solver array may hold: the DP's widest window of
# partial sums, the G-heat grid's points; refused with ModelTooLarge before
# the array is built (about 31 B a state in the one-step float DP)
MAX_WINDOW_STATES = 10**7


class SublinError(Exception):
    """Base class for all sublin errors."""

    exit_code = 1


class UsageError(SublinError):
    """Bad command-line arguments or run configuration."""

    exit_code = 1


class ModelError(SublinError):
    """A model violates its invariants (weights, supports, schema)."""

    exit_code = 2


class NumericalFailure(SublinError):
    """NaN/inf encountered, or a numeric precondition failed at runtime."""

    exit_code = 3


class ModelTooLarge(SublinError):
    """A configured enumeration or memory cap was exceeded."""

    exit_code = 4


class StateExplosion(ModelTooLarge):
    """The DP's widest partial-sum window exceeded MAX_WINDOW_STATES, or its
    sweep exceeded the work budget."""


class NoCommonLattice(NumericalFailure):
    """Step atoms are not integer multiples of a common rational spacing.

    The model itself may be fine for static envelopes; only the lattice
    recursion needs commensurable atoms, so this is a runtime failure
    rather than a model validation error."""


class NullHistoryError(SublinError):
    """Conditioning on a history of probability zero."""

    exit_code = 3
