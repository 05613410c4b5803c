"""Chaos-coefficient norms, exponential vectors, Hermite calculus."""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from growthcalc import (
    ChaosSequence,
    HypothesisViolationError,
    LFunctionEvaluator,
    CapacityError,
    ParameterError,
    cauchy_coefficient_bound,
    dual_norm,
    exp_vector_norm,
    exponential,
    kondratiev_streit,
    l_function,
    legendre_sequence,
    legendre_table,
    log_dual_norm,
    s_transform_1d,
)


# ---------------------------------------------------------------------------
# chaos sequences and norms
# ---------------------------------------------------------------------------


def test_delta_norm_oracles(tables60):
    tab = tables60["ks0"]
    # |delta_1| in the dual space: 1! sqrt(ell(1)) = e^{1/2}
    assert dual_norm(ChaosSequence.delta(1), tab) == pytest.approx(
        math.exp(0.5), rel=1e-12
    )
    # |delta_2| in the dual space: 2! sqrt(ell(2)) = 2 (e/2) = e
    assert dual_norm(ChaosSequence.delta(2), tab) == pytest.approx(
        math.e, rel=1e-12
    )
    assert dual_norm(ChaosSequence.delta(0), tab) == 1.0


def test_norms_scale_quadratically(tables60):
    # the dual norm is a weighted l^2 norm: |3 c| = 3 |c|, whatever the signs
    tab = tables60["ks05"]
    seq = ChaosSequence((1.0, -2.0, 0.5))
    scaled = ChaosSequence((3.0, -6.0, 1.5))
    assert dual_norm(scaled, tab) == pytest.approx(3 * dual_norm(seq, tab), rel=1e-12)
    assert log_dual_norm(scaled, tab) == pytest.approx(
        math.log(3.0) + log_dual_norm(seq, tab), rel=1e-14)


def test_sequence_validation():
    with pytest.raises(ParameterError):
        ChaosSequence((1.0, math.inf))
    with pytest.raises(ParameterError):
        ChaosSequence((1.0, -math.inf))  # -inf only allowed in log domain
    seq = ChaosSequence((0.0, -math.inf), log_domain=True)
    np.testing.assert_array_equal(seq.linear(), [1.0, 0.0])


def test_norm_requires_matching_integer_table():
    spec = kondratiev_streit(0.0)
    with pytest.raises(ParameterError, match="reaches n=10 but the table stops at n=5"):
        log_dual_norm(ChaosSequence.delta(10), legendre_sequence(spec, 5))
    with pytest.raises(ParameterError, match="needs an integer-grid transform table"):
        dual_norm(ChaosSequence.delta(1), legendre_table(spec, np.array([0.5, 1.5])))


def test_log_norm_overflow_stays_in_log_domain(tables60):
    # log |c| = 800, 700: the norm is near e^800, past the doubles
    tab = tables60["ks0"]
    big = ChaosSequence((800.0, 700.0), log_domain=True)
    assert log_dual_norm(big, tab) == pytest.approx(800.0, rel=1e-12)
    assert dual_norm(big, tab) == math.inf


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
# Hermite evaluation, S-transform, growth bound
# ---------------------------------------------------------------------------


def test_hermite_matches_numpy():
    # the S-transform oracle's Hermite sum
    rng = np.random.default_rng(11)
    for _ in range(5):
        coeffs = rng.normal(size=rng.integers(1, 9))
        for x in (-4.0, -0.3, 0.0, 1.7, 4.0):
            oracle = np.polynomial.hermite_e.HermiteE(coeffs)(x)
            got = float(oracles.hermite_sum([float(c) for c in coeffs], x))
            assert got == pytest.approx(oracle, rel=1e-12, abs=1e-12)
    assert float(oracles.hermite_sum([0.0, 0.0, 1.0], 3.0)) == 8.0


def test_s_transform_monomials():
    for n in range(7):
        for xi in (-1.5, 0.5, 2.0):
            assert s_transform_1d(ChaosSequence.delta(n), xi) == pytest.approx(
                xi**n, rel=1e-10, abs=1e-10
            )


@pytest.mark.parametrize("n, xi", [(30, 0.5), (50, 1.5), (2, 1.3e154)])
def test_s_transform_of_he_n_is_xi_to_the_n(n, xi):
    # A Gauss-Hermite rule in doubles cancels here to -2.39 and -1.03e17, and
    # overflows for 1.3e154^2 = 1.69e308, which is a double.
    assert abs(s_transform_1d(ChaosSequence.delta(n), xi) - xi**n) <= 1e-12 * max(1.0, xi**n)


@pytest.mark.parametrize("n, xi", [(2, 1e200)])
def test_s_transform_refuses_a_value_its_rounding_does_not_certify(n, xi):
    # 1e200^2 overflows a double
    with pytest.raises(CapacityError, match=re.escape(f"degree {n} at xi={xi:g} is not")):
        s_transform_1d(ChaosSequence.delta(n), xi)


def test_s_transform_refuses_an_ill_conditioned_sum():
    # sum (-10)^n 3^n / n! = e^-30 against sum 30^n / n! = e^30
    coeffs = [(-10.0) ** n / math.factorial(n) for n in range(81)]
    with pytest.raises(CapacityError, match="degree 80 at xi=3 is not certified"):
        s_transform_1d(ChaosSequence(coeffs), 3.0)


def test_s_transform_returns_only_values_within_1e_8():
    # He_n is summed exactly up to the rounding of xi^n
    for n in range(80):
        for xi in (-3.0, -0.5, 0.0, 0.5, 1.5, 3.0, 5.0):
            value = s_transform_1d(ChaosSequence.delta(n), xi)
            assert abs(value - xi**n) <= 1e-12 * max(1.0, abs(xi) ** n), (n, xi, value)


def test_s_transform_matches_the_oracle_on_random_sequences():
    # degree <= 60 and |xi| <= 3: each of these sums is certified
    rng = np.random.default_rng(35)
    for _ in range(40):
        coeffs = rng.normal(size=rng.integers(1, 62)) * rng.choice([1e-3, 1.0, 1e3])
        xi = float(rng.uniform(-3.0, 3.0))
        value = s_transform_1d(ChaosSequence(coeffs), xi)
        want = float(oracles.s_transform(coeffs, xi))
        assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), (coeffs.size, xi, value, want)


def test_chaos_sequence_holds_one_double_per_coefficient():
    n = 2**20
    tracemalloc.start()
    try:
        seq = ChaosSequence.delta(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * (n + 1)
    assert not seq.values.flags.writeable
    assert s_transform_1d(ChaosSequence.delta(10**5), 1.0) == 1.0


def test_chaos_sequence_of_integers_keeps_the_one_float_array_it_makes():
    ints = np.arange(10**6)
    tracemalloc.start()
    try:
        seq = ChaosSequence(ints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * ints.size
    assert np.array_equal(seq.values, ints) and not seq.values.flags.writeable


def test_chaos_sequence_copies_a_writeable_input():
    coeffs = np.array([1.0, 0.5])
    seq = ChaosSequence(coeffs)
    coeffs[0] = 7.0
    assert seq.values.tolist() == [1.0, 0.5] and coeffs.flags.writeable


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
