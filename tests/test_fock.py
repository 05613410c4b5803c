"""Chaos-coefficient norms, exponential vectors, Hermite calculus."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcalc import (
    ChaosSequence,
    HypothesisViolationError,
    LFunctionEvaluator,
    ParameterError,
    a_norm_1d,
    cauchy_coefficient_bound,
    dual_norm,
    exp_vector_norm,
    exponential,
    hermite_eval_1d,
    kondratiev_streit,
    l_function,
    legendre_sequence,
    legendre_table,
    log_dual_norm,
    log_test_norm,
    pairing_bound,
    s_transform_1d,
)
from growthcalc import test_norm as chaos_test_norm  # pytest must not collect it

finite_floats = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# chaos sequences and norms
# ---------------------------------------------------------------------------


def test_delta_norm_oracles(tables60):
    tab = tables60["ks0"]
    # |delta_1| in the test space: 1/sqrt(ell(1)) = e^{-1/2}
    assert chaos_test_norm(ChaosSequence.delta(1), tab) == pytest.approx(
        math.exp(-0.5), rel=1e-12
    )
    # |delta_2| in the dual space: 2! sqrt(ell(2)) = 2 (e/2) = e
    assert dual_norm(ChaosSequence.delta(2), tab) == pytest.approx(
        math.e, rel=1e-12
    )
    assert chaos_test_norm(ChaosSequence.delta(0), tab) == 1.0
    assert dual_norm(ChaosSequence.delta(0), tab) == 1.0


def test_norms_scale_quadratically(tables60):
    tab = tables60["ks05"]
    seq = ChaosSequence((1.0, -2.0, 0.5))
    scaled = ChaosSequence((3.0, -6.0, 1.5))
    assert chaos_test_norm(scaled, tab) == pytest.approx(3 * chaos_test_norm(seq, tab), rel=1e-12)
    assert dual_norm(scaled, tab) == pytest.approx(3 * dual_norm(seq, tab), rel=1e-12)


def test_sequence_validation():
    with pytest.raises(ParameterError):
        ChaosSequence((1.0, math.inf))
    with pytest.raises(ParameterError):
        ChaosSequence((1.0, -math.inf))  # -inf only allowed in log domain
    seq = ChaosSequence((0.0, -math.inf), log_domain=True)
    np.testing.assert_array_equal(seq.linear(), [1.0, 0.0])


def test_norm_requires_matching_integer_table(tables60):
    spec = kondratiev_streit(0.0)
    with pytest.raises(ParameterError):
        chaos_test_norm(ChaosSequence.delta(10), legendre_sequence(spec, 5))
    with pytest.raises(ParameterError):
        chaos_test_norm(ChaosSequence.delta(1),
                  legendre_table(spec, np.array([0.5, 1.5])))


def test_log_norm_overflow_stays_in_log_domain(tables60):
    tab = tables60["ks0"]
    big = ChaosSequence((800.0, 700.0), log_domain=True)
    assert math.isfinite(log_test_norm(big, tab))
    assert chaos_test_norm(big, tab) == math.inf


# ---------------------------------------------------------------------------
# exponential vectors
# ---------------------------------------------------------------------------


def test_exponential_vector_coefficients():
    seq = ChaosSequence.exponential_vector(2.0, 4)
    assert seq.log_domain
    for n, v in enumerate(seq.values):
        assert v == pytest.approx(n * math.log(2.0) - math.lgamma(n + 1), abs=1e-12)
    zero = ChaosSequence.exponential_vector(0.0, 3)
    assert zero.values[0] == 0.0
    assert all(v == -math.inf for v in zero.values[1:])


def test_exp_vector_norm_identity(evaluators):
    # |E_xi|_dual^2 = L_u(xi^2), checked through independent code paths
    ev = evaluators["ks0"]
    tab = legendre_sequence(kondratiev_streit(0.0), 200)
    for xi in (0.5, 1.0, 2.0):
        direct = dual_norm(ChaosSequence.exponential_vector(xi, 200), tab)
        assert exp_vector_norm(xi, ev) == pytest.approx(direct, rel=1e-10)


def test_exp_vector_dual_norm_is_half_the_l_series_on_one_table():
    # both sides sum the same 201 terms, so they agree to rounding
    ev = LFunctionEvaluator.from_spec(kondratiev_streit(0.0), n_max=200)
    for xi in (0.5, 1.0, 2.0):
        log_norm = log_dual_norm(ChaosSequence.exponential_vector(xi, 200), ev.table)
        assert log_norm == pytest.approx(0.5 * l_function(ev, xi**2), rel=1e-15, abs=0.0)


def test_exp_vector_norm_is_inf_past_the_double_range():
    # log L_u(650^2) is about 1.5e3 for ks(0.95), so the norm e^{log L / 2}
    # is past e^709: inf, as dual_norm and test_norm give, not OverflowError.
    ev = LFunctionEvaluator.from_spec(kondratiev_streit(0.95))
    assert l_function(ev, 650.0**2) > 1418.0
    assert exp_vector_norm(650.0, ev) == math.inf


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def test_pairing_bound_is_tight_for_aligned_pair(tables60):
    tab = tables60["ks0"]
    rng = np.random.default_rng(3)
    f = ChaosSequence(tuple(rng.normal(size=9)))
    aligned = ChaosSequence(tuple(
        v / (math.factorial(n) * math.exp(tab.log_ell[n]))
        for n, v in enumerate(f.values)
    ))
    result = pairing_bound(f, aligned, tab)
    assert result.satisfied
    assert result.value == pytest.approx(result.bound, rel=1e-12)


@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_pairing_bound_property(pairs):
    fs, gs = zip(*pairs)
    result = pairing_bound(ChaosSequence(fs), ChaosSequence(gs), _PAIRING_TABLE)
    assert result.satisfied
    assert abs(result.value) <= result.bound * (1 + 1e-9) + 1e-290


def test_pairing_length_mismatch_rejected():
    with pytest.raises(ParameterError):
        pairing_bound(ChaosSequence((1.0,)), ChaosSequence((1.0, 2.0)),
                      _PAIRING_TABLE)


_PAIRING_TABLE = legendre_sequence(kondratiev_streit(0.25), 12)


# ---------------------------------------------------------------------------
# Hermite evaluation, S-transform, growth bound
# ---------------------------------------------------------------------------


def test_hermite_matches_numpy():
    rng = np.random.default_rng(11)
    x = np.linspace(-4.0, 4.0, 33)
    for _ in range(5):
        coeffs = rng.normal(size=rng.integers(1, 9))
        seq = ChaosSequence(tuple(coeffs))
        oracle = np.polynomial.hermite_e.HermiteE(coeffs)(x)
        np.testing.assert_allclose(hermite_eval_1d(seq, x), oracle, rtol=1e-12)
    assert hermite_eval_1d(ChaosSequence.delta(2), 3.0) == pytest.approx(8.0)


def test_a_norm_closed_form():
    # sup |x| e^{-x^2/2} = e^{-1/2}, attained at x = 1
    ks0 = kondratiev_streit(0.0)
    assert a_norm_1d(ChaosSequence((0.0, 1.0)), ks0) == pytest.approx(
        math.exp(-0.5), rel=1e-6
    )
    # at p = 1 the weight w = rho^2 = 1/4 rescales the extremum to x = 2
    assert a_norm_1d(ChaosSequence((0.0, 1.0)), ks0, p=1) == pytest.approx(
        2.0 * math.exp(-0.5), rel=1e-6
    )


def test_a_norm_warns_on_boundary_maximum():
    with pytest.warns(UserWarning):
        a_norm_1d(ChaosSequence((0.0, 1.0)), kondratiev_streit(0.0),
                  x_grid=np.linspace(-0.5, 0.5, 101))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_a_norm_rejects_a_non_finite_x(bad):
    seq, ks0 = ChaosSequence((0.0, 1.0)), kondratiev_streit(0.0)
    xs = np.append(np.linspace(-3.0, 3.0, 61), bad)
    with pytest.raises(ParameterError, match=re.escape(
            f"x must be a number in (-inf, inf), got {bad}")):
        a_norm_1d(seq, ks0, x_grid=xs)


def test_s_transform_monomials():
    for n in range(7):
        for xi in (-1.5, 0.5, 2.0):
            assert s_transform_1d(ChaosSequence.delta(n), xi) == pytest.approx(
                xi**n, rel=1e-10, abs=1e-10
            )


# ---------------------------------------------------------------------------
# Cauchy coefficient bound
# ---------------------------------------------------------------------------


def test_cauchy_bound_for_exponential():
    expo = exponential(1.0)
    tab = legendre_sequence(expo, 100)
    coeffs = [1.0 / math.factorial(n) for n in range(101)]
    report = cauchy_coefficient_bound(
        coeffs, expo, math.sqrt(math.e) * (1 + 1e-9), 1.0, tab
    )
    assert report.passed
    assert report.worst_margin >= 0.0


def test_cauchy_bound_flags_false_hypothesis():
    expo = exponential(1.0)
    tab = legendre_sequence(expo, 100)
    coeffs = [1.0 / math.factorial(n) for n in range(101)]
    with pytest.raises(HypothesisViolationError) as exc:
        cauchy_coefficient_bound(coeffs, expo, 0.5, 1.0, tab)
    assert exc.value.radius > 0
