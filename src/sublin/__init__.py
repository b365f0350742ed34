"""Computable sublinear expectations on finite models.

Upper expectations over ambiguity sets, pseudo/nested independence
checks, robust backward recursion over partial sums, the G-heat equation
for G-normal expectations, and LLN/CLT experiment drivers.
"""

from .errors import (
    ModelError,
    ModelTooLarge,
    NoCommonLattice,
    NullHistoryError,
    NumericalFailure,
    StateExplosion,
    SublinError,
    UsageError,
)
from .gheat import (
    GParams,
    GridConfig,
    GridFunction,
    g_normal_expectation,
    gaussian_quadrature,
    solve_g_heat,
)
from .independence import (
    IndependenceReport,
    JointModel,
    check_peng_independence,
    check_pseudo_independence,
    enlarge_vertices,
    joint_model_from_dict,
    load_joint_model,
)
from .limits import (
    ExperimentRow,
    ExperimentTable,
    MomentSummary,
    clt_experiment,
    counterexample_family,
    lln_bounds,
    lln_experiment,
    moment_summary,
    prop62_experiment,
    prop63_experiment,
    squared_counterexample_family,
)
from .measures import (
    AmbiguitySet,
    DiscreteDistribution,
    EnvelopeValue,
    NumericMode,
    ambiguity_set_from_dict,
    bernoulli,
    dirac,
    load_ambiguity_set,
    lower_expectation,
    lower_probability,
    rademacher,
    same_distribution,
    upper_expectation,
    upper_probability,
)
from .phi import PhiExpression, parse_phi
from .recursion import (
    LatticeEmbedding,
    StepSequence,
    lattice_embed,
    sublinear_eval_sum,
)

__version__ = "0.1.0"
