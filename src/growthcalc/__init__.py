"""Growth-function calculus: transforms, norm estimates, and verified inequalities.

The package models positive growth functions ``u`` on ``[0, inf)``, computes
their multiplicative-scale convex conjugate ``ell_u(t) = inf_r u(r)/r^t`` and
the associated entire series ``L_u(r) = sum ell_u(n) r^n``, and machine-checks
the inequalities tying ``u``, ``ell_u`` and ``L_u`` together, along with the
weighted sequence-space norms and measure-integrability criteria they control.
"""

import types

from .growth import (
    BELL_SERIES,
    CONDITION_IDS,
    CapacityError,
    ConditionCheck,
    ConditionReport,
    EXPONENTIAL,
    GrowthFunctionSpec,
    ITERATED_EXP_SQRT,
    KINDS,
    KONDRATIEV_STREIT,
    POWER_SERIES,
    ParameterError,
    bell_series,
    check_conditions,
    default_r_grid,
    exponential,
    iterated_exp_sqrt,
    iterated_log,
    kondratiev_streit,
    log_u_grid,
    mittag_leffler,
    power_series,
    refine_grid,
    spec_from_dict,
)
from .legendre import (
    InsufficientTableError,
    LFunctionEvaluator,
    LegendreTable,
    UnboundedBelowError,
    bidual,
    l_function,
    l_function_integral,
    l_function_wide,
    legendre_sequence,
    legendre_table,
    legendre_transform,
)
from .inequality_lab import (
    CHECK_IDS,
    SLACK,
    VerificationReport,
    check_chain_order,
    check_decreasing_tail,
    check_lemma_sqrt,
    check_lemma_square,
    check_lfunction_sandwich,
    check_log_concavity,
    check_nth_root,
    check_submultiplicativity,
    check_supermultiplicativity,
    check_t2t_logconvex,
    check_table_definition,
    corrupt_table,
    equivalence_witness,
    summary_table,
    verify_function,
)
from .fock import (
    ChaosSequence,
    HypothesisViolationError,
    PairingResult,
    a_norm_1d,
    cauchy_coefficient_bound,
    dual_norm,
    exp_vector_norm,
    hermite_eval_1d,
    log_dual_norm,
    log_test_norm,
    pairing_bound,
    s_transform_1d,
    test_norm,
)
from .measures import (
    FerniqueResult,
    GreyResult,
    HidaReport,
    MEASURE_KINDS,
    MeasureSurrogate,
    PoissonResult,
    fernique_product,
    grey_integrability,
    grey_sample,
    hida_condition,
    poisson_growth_integrand,
    poisson_integrability,
    poisson_sqrtlog_integrand,
)
from .cli import ACCEPTANCE_MANIFEST, ManifestError, run

__version__ = "0.1.0"

# The public surface: every name the imports above bind, less the modules.
__all__ = sorted(
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, types.ModuleType))
)
