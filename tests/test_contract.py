"""The contract of every public numeric argument, generated from one table.

``CONTRACT`` names each public callable with a numeric parameter, how to
call it, and a valid value for each such parameter.  Hypothesis swaps one
parameter at a time for an edge value: zeros, subnormals, the largest
doubles, infinities, NaN, bools, ints past the doubles, ``None``, strings,
numpy scalars and 0-d arrays, bare or planted in an otherwise valid array.
Each call must return a value holding no NaN or raise one of the library's
own errors; the values that no rule admits must raise ``ParameterError``, and
a size or loop count past the size cap must raise ``CapacityError``.
"""

from __future__ import annotations

import dataclasses
import inspect
import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import growthcalc as gc
from growthcalc.growth import _SIZE_CAP
from growthcalc import (
    EXPONENTIAL,
    ITERATED_EXP_SQRT,
    KONDRATIEV_STREIT,
    POWER_SERIES,
    CapacityError,
    ChaosSequence,
    GrowthFunctionSpec,
    HypothesisViolationError,
    InsufficientTableError,
    LFunctionEvaluator,
    LegendreTable,
    ManifestError,
    MeasureSurrogate,
    ParameterError,
    UnboundedBelowError,
)

ERRORS = (ParameterError, CapacityError, UnboundedBelowError, InsufficientTableError)

KS = gc.kondratiev_streit(0.5)
KS0 = gc.kondratiev_streit(0.0)
SERIES = gc.power_series([0.0, -1.0, -3.0])
TABLE = gc.legendre_sequence(KS, 12)
EV = LFunctionEvaluator.from_spec(KS, n_max=60)
SEQ = ChaosSequence((1.0, 0.5, 0.25))
GRID = np.geomspace(0.01, 10.0, 12)
MANIFEST = {"schema_version": 1, "jobs": [
    {"id": "ml", "kind": "eval", "lam": 0.5, "t": [1.0], "expect": [0.4275835762]}]}


def _specs(beta=0.5, k=2, c=1.0, log_coeffs=(0.0, -1.0)):
    return [GrowthFunctionSpec(KONDRATIEV_STREIT, beta=beta),
            GrowthFunctionSpec(ITERATED_EXP_SQRT, k=k), GrowthFunctionSpec(EXPONENTIAL, c=c),
            GrowthFunctionSpec(POWER_SERIES, log_coeffs=log_coeffs)]


#: name -> (call taking the numeric arguments by keyword, a valid value of
#: each; an array value marks an array parameter, ``extra`` errors the call
#: documents besides ``ERRORS``).
CONTRACT = {
    "GrowthFunctionSpec": (_specs, {"beta": 0.5, "k": 2, "c": 1.0,
                                    "log_coeffs": np.array([0.0, -1.0])}),
    "GrowthFunctionSpec.log_u": (lambda r: SERIES.log_u(r), {"r": 2.0}),
    "bell_series": (gc.bell_series, {"k": 2}),
    "check_conditions": (lambda r_grid: gc.check_conditions(KS, r_grid),
                         {"r_grid": np.geomspace(1e-3, 1e3, 10)}),
    "exponential": (gc.exponential, {"c": 1.0}),
    "iterated_exp_sqrt": (gc.iterated_exp_sqrt, {"k": 2}),
    "iterated_log": (gc.iterated_log, {"k": 2, "r": 10.0}),
    "kondratiev_streit": (gc.kondratiev_streit, {"beta": 0.5}),
    "log_u_grid": (lambda rs: gc.log_u_grid(SERIES, rs), {"rs": GRID}),
    "mittag_leffler": (gc.mittag_leffler, {"lam": 0.5, "t": 1.0}),
    "power_series": (gc.power_series, {"log_coeffs": np.array([0.0, -1.0, -3.0])}),
    "refine_grid": (gc.refine_grid, {"grid": GRID}),
    "LFunctionEvaluator.from_spec": (lambda n_max: LFunctionEvaluator.from_spec(KS, n_max),
                                     {"n_max": 8}),
    "LegendreTable": (lambda t, log_ell, r_star: LegendreTable("x", t, log_ell, r_star),
                      {"t": TABLE.t, "log_ell": TABLE.log_ell, "r_star": TABLE.r_star}),
    "bidual": (lambda r: gc.bidual(KS, r), {"r": 2.0}),
    "l_function": (lambda r: gc.l_function(EV, r), {"r": GRID}),
    "l_function_integral": (lambda r: gc.l_function_integral(KS, r), {"r": np.array([1e3])}),
    "l_function_wide": (lambda r: gc.l_function_wide(EV, r), {"r": GRID}),
    "legendre_sequence": (lambda n_max: gc.legendre_sequence(KS, n_max), {"n_max": 4}),
    "legendre_table": (lambda t_values: gc.legendre_table(KS, t_values),
                       {"t_values": np.array([0.5, 1.0, 2.0])}),
    "legendre_transform": (lambda t, s_hint: gc.legendre_transform(KS, t, s_hint),
                           {"t": 2.0, "s_hint": 1.0}),
    "check_chain_order": (lambda n_max: gc.check_chain_order([KS0, KS], n_max), {"n_max": 12}),
    "check_lemma_sqrt": (lambda a, r_grid: gc.check_lemma_sqrt(KS, EV, a, r_grid),
                         {"a": 2.0, "r_grid": GRID}),
    "check_lemma_square": (lambda r_grid: gc.check_lemma_square(EV, r_grid), {"r_grid": GRID}),
    "check_lfunction_sandwich": (lambda a, r_grid: gc.check_lfunction_sandwich(KS, EV, a, r_grid),
                                 {"a": 2.0, "r_grid": GRID}),
    "corrupt_table": (lambda index, factor: gc.corrupt_table(TABLE, index, factor),
                      {"index": 3, "factor": 1.01}),
    "equivalence_witness": (lambda r_grid: gc.equivalence_witness(KS, KS0, r_grid),
                            {"r_grid": GRID}),
    "verify_function": (lambda n_max, r_grid, a: gc.verify_function(
        KS, n_max, EV, r_grid, ["log-concavity", "lseries-sqrt-bound"], a),
        {"n_max": 4, "r_grid": GRID, "a": 2.0}),
    "ChaosSequence": (ChaosSequence, {"values": np.array([1.0, 0.5])}),
    "ChaosSequence.delta": (ChaosSequence.delta, {"n": 2, "size": 4}),
    "ChaosSequence.exponential_vector": (ChaosSequence.exponential_vector,
                                         {"xi": 0.5, "n_max": 4}),
    "a_norm_1d": (lambda p, x_grid, rho: gc.a_norm_1d(SEQ, KS, p, x_grid, rho),
                  {"p": 1, "x_grid": np.linspace(-3.0, 3.0, 7), "rho": 0.5}),
    "cauchy_coefficient_bound": (
        lambda coeffs, K, a, radius_grid: gc.cauchy_coefficient_bound(
            coeffs, KS, K, a, TABLE, radius_grid),
        {"coeffs": np.array([1.0, 0.5]), "K": 4.0, "a": 1.0, "radius_grid": GRID},
        (HypothesisViolationError,)),
    "exp_vector_norm": (lambda xi_abs: gc.exp_vector_norm(xi_abs, EV), {"xi_abs": 0.5}),
    "hermite_eval_1d": (lambda x: gc.hermite_eval_1d(SEQ, x), {"x": GRID}),
    "s_transform_1d": (lambda xi: gc.s_transform_1d(SEQ, xi), {"xi": 0.5}),
    "MeasureSurrogate": (lambda **kw: MeasureSurrogate("grey", **kw),
                         {"rho": 0.5, "q": 1, "theta": 1.0, "w": 1.0, "lam": 0.5, "n": 200,
                          "seed": 0}),
    "fernique_product": (gc.fernique_product, {"rho": 0.5, "q": 1.0, "c2": 0.1}),
    "grey_integrability": (gc.grey_integrability, {"lam": 0.5, "w": 0.1, "n": 200, "seed": 0}),
    "grey_sample": (gc.grey_sample, {"lam": 0.5, "n": 10, "seed": 0}),
    "hida_condition": (lambda p: gc.hida_condition(MeasureSurrogate("gaussian"), KS0, p),
                       {"p": 1}),
    "poisson_growth_integrand": (lambda w: gc.poisson_growth_integrand(KS, w)(3), {"w": 1.0}),
    "poisson_integrability": (
        lambda theta: gc.poisson_integrability(theta, gc.poisson_sqrtlog_integrand()),
        {"theta": 1.0}),
    "poisson_sqrtlog_integrand": (lambda w: gc.poisson_sqrtlog_integrand(w)(3), {"w": 1.0}),
    "run": (lambda seed, tol: gc.run(MANIFEST, None, seed, tol, io.StringIO()),
            {"seed": 1, "tol": 1e-6}, (ManifestError,)),
}

#: Exported result records and exceptions: they hold values the library
#: computed and check none.
RECORDS = {"ConditionCheck", "ConditionReport", "FerniqueResult", "GreyResult", "HidaReport",
           "PairingResult", "PoissonResult", "VerificationReport", "HypothesisViolationError",
           "InsufficientTableError"}

#: Values no rule admits, for any numeric parameter: among them each
#: coercion of the old rules (``float()``, a raw comparison, ``np.asarray``).
INVALID = [True, False, None, "4", math.nan, 10**400, -(10**400)]
EDGES = INVALID + [0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, math.inf,
                   -math.inf, np.float64(0.5), np.float32(2.0), np.int64(3), np.array(0.5),
                   np.array(3)]

#: The sizes and loop counts, which also draw values past the size cap.
COUNTS = {("ChaosSequence.delta", "n"), ("ChaosSequence.delta", "size"),
          ("ChaosSequence.exponential_vector", "n_max"), ("LFunctionEvaluator.from_spec", "n_max"),
          ("legendre_sequence", "n_max"), ("check_chain_order", "n_max"),
          ("verify_function", "n_max"), ("MeasureSurrogate", "n"), ("grey_integrability", "n"),
          ("grey_sample", "n"), ("hida_condition", "p")}
OVERSIZE = [10**300, _SIZE_CAP + 1]


def _entry(name):
    call, valid, *extra = CONTRACT[name]
    return call, valid, ERRORS + tuple(extra[0] if extra else ())


def _has_nan(value) -> bool:
    if isinstance(value, (float, np.floating, np.ndarray)):
        return bool(np.isnan(value).any())
    if isinstance(value, (list, tuple)):
        return any(map(_has_nan, value))
    if isinstance(value, dict):
        return any(map(_has_nan, value.values()))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return any(_has_nan(getattr(value, f.name)) for f in dataclasses.fields(value))
    return False


def _outcome(name, param, value):
    call, valid, errors = _entry(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)  # a_norm_1d's boundary note
        try:
            return call(**{**valid, param: value})
        except errors as exc:
            return exc


@st.composite
def _edge(draw, valid, count=False):
    value = draw(st.sampled_from(EDGES + OVERSIZE * count))
    if isinstance(valid, np.ndarray) and draw(st.booleans()):
        planted = valid.astype(object)
        planted[draw(st.integers(0, valid.size - 1))] = value
        return planted.tolist()
    return value


@pytest.mark.parametrize("name", sorted(CONTRACT))
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_edge_values_return_a_value_or_raise_a_library_error(name, data):
    valid = _entry(name)[1]
    param = data.draw(st.sampled_from(sorted(valid)))
    out = _outcome(name, param, data.draw(_edge(valid[param], (name, param) in COUNTS)))
    assert isinstance(out, BaseException) or not _has_nan(out), out


@pytest.mark.parametrize("name, param", sorted(COUNTS))
def test_counts_past_the_size_cap_raise_a_capacity_error(name, param):
    for value in OVERSIZE:
        out = _outcome(name, param, value)
        assert isinstance(out, CapacityError) and "size cap" in str(out), (value, out)


#: Parameters whose ``None`` asks for their default.
NONE_IS_DEFAULT = {(name, "r_grid") for name in CONTRACT} | {
    ("ChaosSequence.delta", "size"), ("a_norm_1d", "x_grid"),
    ("cauchy_coefficient_bound", "radius_grid"), ("legendre_transform", "s_hint"),
    ("run", "seed"), ("run", "tol")}


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_values_no_rule_admits_raise_a_parameter_error(name):
    valid = _entry(name)[1]
    for param in valid:
        whole = type(valid[param]) is int  # and no fraction or negative count either
        for value in INVALID + [2.5, -1] * whole:
            if value is None and (name, param) in NONE_IS_DEFAULT:
                continue
            out = _outcome(name, param, value)
            assert isinstance(out, (ParameterError, ManifestError)), (param, value, out)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_valid_values_return_a_value(name):
    call, valid, _ = _entry(name)
    assert not _has_nan(call(**valid))


_NUMERIC = re.compile(r"^(float|int|np\.ndarray|list\[float\]|tuple\[float, \.\.\.\])( |$)")


def _numeric_params(obj) -> set[str]:
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return set()
    return {p.name for p in params if _NUMERIC.match(str(p.annotation))}


def _public_callables():
    """Every export but the records, and the public methods of a class."""
    for name in gc.__all__:
        obj = getattr(gc, name)
        if name in RECORDS or not callable(obj):
            continue
        yield name, obj
        if isinstance(obj, type):
            for attr in vars(obj):
                member = getattr(obj, attr)
                if not attr.startswith("_") and callable(member):
                    yield f"{name}.{attr}", member


def test_every_export_with_a_numeric_parameter_is_in_the_contract():
    # A parameter is numeric by its annotation: float, int or an array.
    numeric = {name: params for name, obj in _public_callables()
               if (params := _numeric_params(obj))}
    assert numeric == {name: set(entry[1]) for name, entry in CONTRACT.items()}
