"""Growth-function calculus: transforms, norm estimates, and verified inequalities.

The package models positive growth functions ``u`` on ``[0, inf)``, computes
their multiplicative-scale convex conjugate ``ell_u(t) = inf_r u(r)/r^t`` and
the associated entire series ``L_u(r) = sum ell_u(n) r^n``, and machine-checks
the inequalities tying ``u``, ``ell_u`` and ``L_u`` together, along with the
weighted sequence-space norms and measure-integrability criteria they control.

``import growthcalc`` loads no submodule: each is imported the first time one
of its names is used, so the transforms (``growth`` and ``legendre``) load
without the checks, the Fock-space norms, the measures or the CLI.
"""

import importlib
import sys

__version__ = "0.1.0"

#: The public surface: each name keyed by the submodule that defines it.
_EXPORTS = {
    "growth": (
        "BELL_SERIES", "CONDITION_IDS", "CapacityError", "ConditionCheck", "ConditionReport",
        "EXPONENTIAL", "GrowthFunctionSpec", "ITERATED_EXP_SQRT", "KINDS", "KONDRATIEV_STREIT",
        "POWER_SERIES", "ParameterError", "bell_series", "check_conditions", "default_r_grid",
        "exponential", "iterated_exp_sqrt", "iterated_log", "kondratiev_streit", "log_u_grid",
        "mittag_leffler", "power_series", "refine_grid", "spec_from_dict",
    ),
    "legendre": (
        "InsufficientTableError", "LFunctionEvaluator", "LegendreTable", "UnboundedBelowError",
        "bidual", "l_function", "l_function_integral", "l_function_wide", "legendre_sequence",
        "legendre_table", "legendre_transform",
    ),
    "inequality_lab": (
        "CHECK_IDS", "SLACK", "VerificationReport", "check_chain_order", "check_decreasing_tail",
        "check_lemma_sqrt", "check_lemma_square", "check_lfunction_sandwich",
        "check_log_concavity", "check_nth_root", "check_submultiplicativity",
        "check_supermultiplicativity", "check_t2t_logconvex", "check_table_definition",
        "corrupt_table", "equivalence_witness", "summary_table", "verify_function",
    ),
    "fock": (
        "ChaosSequence", "HypothesisViolationError", "PairingResult", "a_norm_1d",
        "cauchy_coefficient_bound", "dual_norm", "exp_vector_norm", "hermite_eval_1d",
        "log_dual_norm", "log_test_norm", "pairing_bound", "s_transform_1d", "test_norm",
    ),
    "measures": (
        "FerniqueResult", "GreyResult", "HidaReport", "MEASURE_KINDS", "MeasureSurrogate",
        "PoissonResult", "fernique_product", "grey_integrability", "grey_sample",
        "hida_condition", "poisson_growth_integrand", "poisson_integrability",
        "poisson_sqrtlog_integrand",
    ),
    "cli": ("ACCEPTANCE_MANIFEST", "ManifestError", "run"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _module(name):
    path = f"{__name__}.{name}"
    return sys.modules.get(path) or importlib.import_module(path)


def __getattr__(name):
    """Import a submodule on first use (PEP 562).  A name is looked up on its
    submodule at every access and never stored here, so a function patched
    there (by a tracer or a test) is what callers get."""
    if name in _HOME:
        return getattr(_module(_HOME[name]), name)
    if name in _EXPORTS:
        return _module(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
