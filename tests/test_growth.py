"""Growth-function catalog: factories, Bell tables, conditions, Mittag-Leffler."""

from __future__ import annotations

import math
import pickle
import re
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bell_table
import oracles

from growthcalc import growth
from growthcalc import (
    BELL_SERIES,
    CONDITION_IDS,
    EXPONENTIAL,
    ITERATED_EXP_SQRT,
    KINDS,
    KONDRATIEV_STREIT,
    CapacityError,
    ChaosSequence,
    GrowthFunctionSpec,
    LFunctionEvaluator,
    MeasureSurrogate,
    ParameterError,
    bell_series,
    check_conditions,
    corrupt_table,
    default_r_grid,
    exponential,
    hida_condition,
    iterated_exp_sqrt,
    iterated_log,
    kondratiev_streit,
    legendre_sequence,
    log_u_grid,
    mittag_leffler,
    power_series,
    refine_grid,
    spec_from_dict,
)


def truncated_square_exponential(degree: int = 40):
    """Polynomial truncation of exp(r^2): a counterexample with no exponential
    order, used to exercise the failure paths of the condition checker."""
    log_coeffs = [-math.inf] * (degree + 1)
    for j in range(degree // 2 + 1):
        log_coeffs[2 * j] = -math.lgamma(j + 1)
    return power_series(
        log_coeffs,
        claimed_conditions=("U0", "U1", "U3"),
        label="truncated-exp-square",
    )


# ---------------------------------------------------------------------------
# iterated logarithm
# ---------------------------------------------------------------------------


def test_iterated_log_base_cases():
    assert iterated_log(0, 5.0) == 5.0
    assert iterated_log(0, 0.3) == 0.3
    assert iterated_log(1, math.e) == 1.0
    assert iterated_log(1, 0.5) == 1.0  # clamped below
    assert iterated_log(2, math.exp(math.e)) == 1.0
    assert iterated_log(1, math.exp(4.0)) == pytest.approx(4.0, rel=1e-14)


def test_iterated_log_composition():
    # log_k(r) = max(1, log(log_{k-1}(r))) once the inner value exceeds e.
    for k in (2, 3, 4):
        for r in (10.0, 1e4, 1e9):
            inner = iterated_log(k - 1, r)
            assert iterated_log(k, r) == pytest.approx(
                max(1.0, math.log(inner)), rel=1e-14
            )


@given(st.integers(min_value=1, max_value=4),
       st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
def test_iterated_log_clamped_below(k, r):
    assert iterated_log(k, r) >= 1.0


def test_iterated_log_rejects_negative_depth():
    with pytest.raises(ParameterError):
        iterated_log(-1, 2.0)


# ---------------------------------------------------------------------------
# Bell numbers
# ---------------------------------------------------------------------------


def egf_iterated_exponential(k: int, n_max: int) -> list[int]:
    """n! [r^n] exp_k(r) by exact power-series composition with rationals."""
    # exp of a series with zero constant term, truncated at n_max
    def exp_series(a: list[Fraction]) -> list[Fraction]:
        out = [Fraction(1)] + [Fraction(0)] * n_max
        # out' = a' * out  =>  (n+1) out[n+1] = sum_j (j+1) a[j+1] out[n-j]
        for n in range(n_max):
            acc = Fraction(0)
            for j in range(n + 1):
                if j + 1 <= n_max:
                    acc += (j + 1) * a[j + 1] * out[n - j]
            out[n + 1] = acc / (n + 1)
        return out

    series = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n_max - 1)  # exp_0 - 1 = r
    for _ in range(k):
        composed = exp_series(series)
        series = [c - (Fraction(1) if i == 0 else 0) for i, c in enumerate(composed)]
        series[0] = Fraction(0)
    # series now holds exp_k(r) - 1; add the constant back
    coeffs = list(series)
    coeffs[0] = Fraction(1)
    return [int(coeffs[n] * math.factorial(n)) for n in range(n_max + 1)]


def _runtime_log_bell(k: int, n_max: int) -> np.ndarray:
    """``log b_k(0..n_max)`` as the Bell series' coefficient tables are made:
    order 2 by ``bell_table._log_bell``, the generator of the shipped table
    (held to it by ``test_shipped_bell_table_is_its_generator``), every
    other order by ``_egf_log_coeffs``."""
    from growthcalc.growth import _N_BELL2, _egf_log_coeffs, _log_factorials

    if k == 2:
        return bell_table._log_bell(_N_BELL2)[: n_max + 1]
    return _egf_log_coeffs(k, n_max) + _log_factorials(n_max)


def test_bell_order_one_is_constant():
    assert np.array_equal(_runtime_log_bell(1, 8), np.zeros(9))


def test_bell_order_two_matches_bell_triangle():
    table = _runtime_log_bell(2, 20)
    bells = oracles.bell_triangle()[:21]
    assert [round(math.exp(v)) for v in table[:7]] == [1, 1, 2, 5, 15, 52, 203]
    for n, (got, b) in enumerate(zip(table, bells)):
        want = math.log(b)
        assert abs(got - want) <= 2 * math.ulp(want), n


def test_bell_order_two_matches_bell_triangle_up_to_the_exact_cap():
    # Every row the exact oracle holds: the Dobinski rows and the trapezoid
    # rule's first block.
    from growthcalc.growth import _N_BELL2

    assert _N_BELL2 > oracles.BELL_TERMS
    table = _runtime_log_bell(2, oracles.BELL_TERMS)
    with mp.workdps(oracles.DPS):
        exact = [float(mp.log(b)) for b in oracles.bell_triangle()]
    for n, (got, want) in enumerate(zip(table, exact)):
        assert abs(got - want) <= 2 * math.ulp(want), n


def test_bell_order_three_matches_exact_composition():
    exact = egf_iterated_exponential(3, 10)
    assert exact[:7] == [1, 1, 3, 12, 60, 358, 2471]
    np.testing.assert_allclose(_runtime_log_bell(3, 10), [math.log(b) for b in exact],
                               rtol=1e-14, atol=1e-15)


def test_bell_order_two_matches_exact_composition():
    exact = egf_iterated_exponential(2, 12)
    assert exact == list(oracles.bell_triangle()[:13])
    np.testing.assert_allclose(_runtime_log_bell(2, 12), [math.log(b) for b in exact],
                               rtol=1e-15, atol=0.0)


@given(st.integers(min_value=2, max_value=3), st.integers(min_value=1, max_value=30))
def test_bell_strictly_increasing_from_two(k, n):
    b = _runtime_log_bell(k, n + 2)
    assert b[n + 2] > b[n + 1]


# ---------------------------------------------------------------------------
# catalog evaluation
# ---------------------------------------------------------------------------


def test_kondratiev_streit_closed_form():
    # log u_beta(r) = (1 + beta) r^{1/(1+beta)}
    for beta in (0.0, 0.25, 0.5, 0.75):
        spec = kondratiev_streit(beta)
        for r in (0.5, 7.38905609893065, 123.4, 1e6):
            expect = (1 + beta) * r ** (1.0 / (1 + beta))
            assert spec.log_u(r) == pytest.approx(expect, rel=1e-13)
        assert spec.log_u(0.0) == 0.0


def test_iterated_exp_sqrt_collapses_at_small_argument():
    # For sqrt(r) <= e the inner iterated logs clamp to 1, so
    # log g_k(r) = 2 sqrt(r) there, for every order k.
    r = math.exp(2.0)
    for k in (2, 3):
        assert iterated_exp_sqrt(k).log_u(r) == pytest.approx(
            2.0 * math.e, rel=1e-13
        )


def test_iterated_exp_sqrt_order_slows_growth():
    # Each extra iterated log shrinks the inner factor, so higher order
    # means strictly slower growth once the clamps stop binding.
    g2, g3 = iterated_exp_sqrt(2), iterated_exp_sqrt(3)
    for r in (1e4, 1e6, 1e8):
        assert g3.log_u(r) < g2.log_u(r)


def test_exponential_scaling():
    assert exponential(2.0).log_u(3.0) == pytest.approx(6.0, rel=1e-15)
    assert exponential(1.0).log_u(0.0) == 0.0


def test_power_series_one_plus_r():
    spec = power_series([0.0, 0.0], claimed_conditions=("U0", "U1"), label="one-plus-r")
    assert spec.log_u(3.0) == pytest.approx(math.log(4.0), rel=1e-14)
    assert spec.log_u(0.0) == 0.0


def test_bell_series_log_domain_matches_direct_sum():
    u2 = bell_series(2)
    bells = oracles.bell_triangle()[:81]
    for r in (0.5, 10.0, 40.0):
        oracle = math.log(
            math.fsum(r**n / (bells[n] * math.factorial(n)) for n in range(81))
        )
        assert u2.log_u(r) == pytest.approx(oracle, rel=1e-12)


def test_bell_series_capacity_guard():
    u2 = bell_series(2)
    assert u2.faithful_cap > 1e9
    with pytest.raises(CapacityError):
        u2.log_u(1e10)


def test_log_u_grid_matches_scalar():
    spec = kondratiev_streit(0.5)
    rs = np.array([0.0, 1.0, 8.0, 1e5])
    grid = log_u_grid(spec, rs)
    for r, v in zip(rs, grid):
        assert v == pytest.approx(spec.log_u(float(r)), rel=1e-14, abs=1e-300)


def test_factory_parameter_validation():
    with pytest.raises(ParameterError):
        kondratiev_streit(1.0)
    with pytest.raises(ParameterError):
        kondratiev_streit(-0.1)
    with pytest.raises(ParameterError):
        iterated_exp_sqrt(0)
    with pytest.raises(ParameterError):
        bell_series(0)
    with pytest.raises(ParameterError):
        exponential(0.0)
    with pytest.raises(ParameterError):
        power_series([])
    with pytest.raises(ParameterError):
        kondratiev_streit(0.0).log_u(-1.0)


@given(st.floats(min_value=0.0, max_value=0.95),
       st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=1.0, max_value=100.0))
@settings(max_examples=60)
def test_catalog_monotone_and_normalized(beta, r, mult):
    spec = kondratiev_streit(beta)
    assert spec.log_u(0.0) == 0.0
    assert spec.log_u(r * mult) >= spec.log_u(r) - 1e-12


# ---------------------------------------------------------------------------
# condition checker
# ---------------------------------------------------------------------------


def test_condition_ids_order():
    assert CONDITION_IDS == ("U0", "U1", "U2", "U3", "C+,1/2", "C+,log")


def test_catalog_conditions_all_pass():
    for spec in (kondratiev_streit(0.0), kondratiev_streit(0.5),
                 iterated_exp_sqrt(2)):
        report = check_conditions(spec)
        for cond in ("U0", "U1", "U2", "U3"):
            assert report.status(cond) == "pass", (spec.label, cond)


def test_divergence_classes_on_catalog():
    # beta < 1 keeps both divergence ratios growing without bound
    report = check_conditions(kondratiev_streit(0.25))
    assert report.status("C+,1/2") == "pass"
    assert report.status("C+,log") == "pass"


def test_truncated_square_exponential_fails_exponential_order():
    spec = truncated_square_exponential()
    report = check_conditions(spec)
    assert report.status("U2") == "fail"
    check = report.checks["U2"]
    assert check.witness_r is not None and check.witness_r > 0
    # the claim list said U0/U1/U3 hold; those must still verify
    assert report.status("U0") == "pass"
    assert report.status("U1") == "pass"
    assert report.status("U3") == "pass"


def test_u1_implies_u0():
    specs = [kondratiev_streit(0.0), kondratiev_streit(0.75),
             iterated_exp_sqrt(2), iterated_exp_sqrt(3),
             exponential(1.0), bell_series(2), truncated_square_exponential()]
    for spec in specs:
        report = check_conditions(spec)
        if report.status("U1") == "pass":
            assert report.status("U0") == "pass", spec.label


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_condition_grids_with_a_non_finite_radius_are_rejected(bad):
    with pytest.raises(ParameterError, match=re.escape(
            f"r must be a number in [0, inf), got {bad}")):
        check_conditions(kondratiev_streit(0.0), np.array([0.0, 1.0, bad]))


def test_u3_is_inconclusive_where_second_differences_overflow():
    # log u(x^2) = 1e300 x^2: near the top of the 801-point x-grid a triple's
    # sum overflows and its margin is NaN, so a pass would rest on NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = check_conditions(exponential(1e300)).checks["U3"]
    assert (check.status, check.witness_r) == ("inconclusive", 9487.5)
    assert "not finite from x = 9487.5" in check.note


def test_condition_report_json_shape():
    report = check_conditions(kondratiev_streit(0.0))
    d = report.to_json_dict()
    assert set(d["checks"]) == set(CONDITION_IDS)
    for payload in d["checks"].values():
        assert payload["status"] in ("pass", "fail", "inconclusive")


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_default_r_grid_shape():
    grid = default_r_grid()
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(1e8)
    assert np.all(np.diff(grid) > 0)


@pytest.mark.parametrize("a", [
    [3.0, 1.0, 2.0, 1.0, 3.0],
    [0.0, -0.0, 1.0],
    [-0.0, 0.0, 1.0],
    [1.0, -0.0, 3.0, 0.0, -0.0, 3.0],
    [2.0, math.nan, 1.0, math.nan, -math.inf, 2.0, math.inf],
    [[4.0, 1.0], [1.0, 0.0]],
    [],
], ids=["dups", "zero-first", "minus-zero-first", "signed-zeros", "nans", "2d", "empty"])
def test_unique_is_np_unique_bit_for_bit(a):
    want, got = np.unique(np.array(a)), growth._unique(np.array(a))
    assert got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_unique_is_np_unique_on_shuffled_grids():
    rng = np.random.default_rng(5)
    grid = default_r_grid()
    for a in (np.concatenate([grid, rng.permutation(grid)]),
              rng.choice([-0.0, 0.0, 1e-300, 0.5, 1.0, 2.0], 200),
              rng.permutation(refine_grid(grid))):
        assert np.array_equal(growth._unique(a).view(np.int64), np.unique(a).view(np.int64))


@pytest.mark.parametrize("a", [
    [3.0], [2.0, -1.0], [-0.0, 1.0, -2.0], [0.5, -3.0, 1e-320, 7.0], [5e-324, 5e-324, -1.0, 2.0],
    [1.0, math.nan, 2.0], [math.inf, -math.inf, 1.0, 2.0], [1e308, 1e308, 0.0, 3e307],
])
def test_median_is_np_median(a):
    assert repr(growth._median(np.array(a))) == repr(float(np.median(np.array(a))))


@pytest.mark.parametrize("bad", [
    [math.nan], [0.0, 1.0, math.nan, math.nan, 1.0], [math.nan, 0.0, 2.0],
    [0.0, math.inf], [-math.inf, 1.0], [[1.0, 2.0], [math.nan, 3.0]], [],
])
def test_radius_grid_rejects_non_finite_radii(bad):
    first = next((x for x in np.ravel(bad) if not 0.0 <= x < math.inf), None)
    with pytest.raises(ParameterError, match=re.escape(
            "r grids must be nonempty" if first is None
            else f"r must be a number in [0, inf), got {first}")):
        growth._radius_grid(bad)


def test_refine_grid_interleaves_geometrically():
    grid = np.array([1.0, 4.0, 16.0])
    fine = refine_grid(grid)
    assert set(grid).issubset(set(fine))
    assert 2.0 in fine and 8.0 in fine
    assert np.all(np.diff(fine) > 0)
    # a leading zero survives refinement
    with_zero = refine_grid(np.array([0.0, 1.0, 4.0]))
    assert with_zero[0] == 0.0 and 2.0 in with_zero


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


#: One spec per kind with its config form, as a manifest writes it.
SPEC_CONFIGS = [
    ({"kind": "kondratiev_streit", "beta": 0.25}, kondratiev_streit(0.25)),
    ({"kind": "iterated_exp_sqrt", "k": 3}, iterated_exp_sqrt(3)),
    ({"kind": "bell_series", "k": 2, "claimed_conditions": ["U0", "U1", "U2", "U3"]},
     bell_series(2)),
    ({"kind": "exponential", "c": 2.0}, exponential(2.0)),
    # absent odd-degree terms are written as null, not as a non-JSON -Infinity
    ({"kind": "power_series",
      "log_coeffs": [None if n % 2 else -math.lgamma(n // 2 + 1) for n in range(13)],
      "claimed_conditions": ["U0", "U1", "U3"], "label": "truncated-exp-square"},
     truncated_square_exponential(degree=12)),
]


def test_spec_round_trip_catalog():
    for d, spec in SPEC_CONFIGS[:4]:
        clone = spec_from_dict(d)
        for r in (0.0, 1.0, 50.0):
            assert clone.log_u(r) == spec.log_u(r)


def test_spec_round_trip_power_series_with_gaps():
    d, spec = SPEC_CONFIGS[4]
    clone = spec_from_dict(d)
    assert clone.log_coeffs[1] == -math.inf and clone.log_coeffs[0] == 0.0
    assert clone.claimed_conditions == {"U0", "U1", "U3"}
    for r in (0.0, 0.5, 2.0):
        assert clone.log_u(r) == spec.log_u(r)


def test_spec_from_dict_rejects_malformed_input():
    with pytest.raises(ParameterError):
        spec_from_dict({"kind": "no-such-kind"})
    with pytest.raises(ParameterError):
        spec_from_dict({"kind": "kondratiev-streit"})  # missing beta


@pytest.mark.parametrize("d,spec", SPEC_CONFIGS, ids=[spec.kind for _, spec in SPEC_CONFIGS])
def test_spec_dict_round_trip_is_exact(d, spec):
    assert spec_from_dict(d) == spec


@pytest.mark.parametrize("d,key", [
    ({"kind": "exponential", "scale": 3}, "scale"),
    ({"kind": "bell_series", "order": 5}, "order"),
    ({"kind": "kondratiev_streit", "beta": 0.5, "k": 2}, "k"),
    ({"kind": "power_series", "log_coeffs": [0.0], "c": 1.0}, "c"),
])
def test_spec_from_dict_rejects_keys_it_does_not_read(d, key):
    with pytest.raises(ParameterError, match=repr(key)):
        spec_from_dict(d)


def test_spec_from_dict_rejects_claims_a_catalog_kind_does_not_make():
    d = {"kind": "kondratiev_streit", "beta": 0.5, "claimed_conditions": ["U0"]}
    with pytest.raises(ParameterError, match="claimed_conditions"):
        spec_from_dict(d)
    d["claimed_conditions"] = ["U3", "U2", "U1", "U0"]
    assert spec_from_dict(d) == kondratiev_streit(0.5)


def test_spec_keyed_caches_are_bounded():
    from growthcalc.growth import _series_gaps, _series_logc
    from growthcalc.legendre import _continuous_ell, _grid_infimum
    from growthcalc.measures import _gaussian_envelope

    for cached in (_series_logc, _series_gaps, _continuous_ell, _grid_infimum,
                   _gaussian_envelope):
        assert cached.cache_info().maxsize is not None, cached.__name__


# ---------------------------------------------------------------------------
# Mittag-Leffler
# ---------------------------------------------------------------------------


def test_mittag_leffler_classical_limit():
    for t in np.linspace(0.0, 20.0, 41):
        assert mittag_leffler(1.0, float(t)) == pytest.approx(
            math.exp(-t), rel=1e-12, abs=1e-300
        )


def test_mittag_leffler_half_vs_erfc():
    # E_{1/2}(-t) = exp(t^2) erfc(t)
    for t in np.linspace(0.0, 5.0, 26):
        oracle = math.exp(t * t) * math.erfc(float(t))
        assert mittag_leffler(0.5, float(t)) == pytest.approx(oracle, rel=1e-8)


def test_mittag_leffler_series_gives_up_when_terms_blow_up():
    # The power series' terms reach 1e137 at t = 30 and cancel to 0.0188;
    # the spectral integral has no such limit.
    assert mittag_leffler(0.5, 30.0) == pytest.approx(
        float(oracles.mittag_leffler(0.5, 30.0)), rel=1e-12, abs=0.0)


def _ml_asymptotic(lam, t, digits=35):
    """``E_lam(-t)`` by its asymptotic series ``sum_{k>=1} (-1)^{k+1} t^{-k} /
    Gamma(1 - lam k)`` (Podlubny 1999, §1.2) to ``digits`` digits.  By
    reflection a term is at most ``Gamma(lam k) t^{-k}``, which falls while
    ``lam k`` is below about ``t^{1/lam}``; the sum stops once that bound is
    below ``10^-digits`` of the sum, and fails if the bound turns first."""
    log_t, log_tol = math.log(t), -digits * math.log(10.0)
    with mp.workdps(digits + 10):
        total, k = mp.mpf(0), 1
        while True:
            bound = math.lgamma(lam * k) - k * log_t
            if k > 1 and bound < log_tol + math.log(abs(total)):
                return total
            assert math.lgamma(lam * (k + 1)) - (k + 1) * log_t < bound, "the series stops short"
            total += (-1) ** (k + 1) * mp.mpf(t) ** -k * mp.rgamma(1 - mp.mpf(lam) * k)
            k += 1


# The oracle's quadrature branch (t^{1/lam} > 20, or lam < 0.1) against the
# asymptotic series.  The two agree to 29 digits or more at lam <= 0.5, and
# to 24 at lam = 0.8, where the near-pole at s = 1 sharpens (8.7e-25).
@pytest.mark.parametrize("lam,t", [(0.05, 1.3), (0.3, 5.0), (0.5, 12.0), (0.8, 60.0)])
def test_mittag_leffler_oracle_quadrature_vs_asymptotic_series(lam, t):
    assert lam < 0.1 or t ** (1.0 / lam) > 20.0  # the quadrature branch
    series = _ml_asymptotic(lam, t)
    assert abs(oracles.mittag_leffler(lam, t) - series) <= 1e-22 * abs(series)


# E_lam(-t) from the same spectral integral, evaluated by mpmath.quad at 30
# digits with breakpoints at the knee s = 1/t; the lam = 0.001, t = 0.5 value
# agrees to 25 digits with the power series summed by mpmath.
@pytest.mark.parametrize("lam,t,oracle", [
    (0.001, 5.0, 0.16658643709583016),
    (0.001, 0.5, 0.66653844509938088),
    (0.01, 5.0, 0.16585890616706832),
    (0.1, 0.01, 0.98959643929735485),
    (0.1, 1000.0, 0.00093492055360589074),
])
def test_mittag_leffler_small_lambda_vs_high_precision_oracle(lam, t, oracle):
    assert mittag_leffler(lam, t) == pytest.approx(oracle, rel=1e-8)


def test_mittag_leffler_bounds_and_monotonicity():
    for lam in (0.3, 0.7, 1.0):
        previous = 1.0
        assert mittag_leffler(lam, 0.0) == pytest.approx(1.0, rel=1e-12)
        for t in np.linspace(0.1, 8.0, 30):
            value = mittag_leffler(lam, float(t))
            assert 0.0 < value <= previous + 1e-12
            previous = value


@pytest.mark.parametrize("lam", [1e-300, 1e-320])
def test_mittag_leffler_at_a_vanishing_lambda_is_its_limit(lam):
    # E_lam(-t) -> 1 / (1 + t) as lam -> 0.  (x + log t) / lam overflowed
    # with a RuntimeWarning, and the sum read 1 + 2^-52 at t = 1e-320.
    for t in (1e-320, 1e-3, 0.5, 1.0, 3.0, 1e3, 1e8):
        value = mittag_leffler(lam, t)
        assert 0.0 < value <= 1.0
        assert value == pytest.approx(1.0 / (1.0 + t), rel=1e-12)


def test_mittag_leffler_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        mittag_leffler(0.0, 1.0)
    with pytest.raises(ParameterError):
        mittag_leffler(1.5, 1.0)
    with pytest.raises(ParameterError):
        mittag_leffler(0.5, -1.0)


# ---------------------------------------------------------------------------
# scalar kernels and the Dobinski table: bit for bit against the formulas
# they replace
# ---------------------------------------------------------------------------


def _reference_series_log_value(spec, r):
    """The log-sum-exp over every series term, as first written."""
    from scipy.special import logsumexp

    from growthcalc.growth import _series_logc

    logc = _series_logc(spec)
    if r == 0.0:
        return float(logc[0])
    return float(logsumexp(logc + np.arange(len(logc), dtype=float) * math.log(r)))


def _reference_log_u(spec, r):
    """Per-kind ``log u`` formulas, as first written."""
    r = float(r)
    if spec.kind == KONDRATIEV_STREIT:
        b1 = 1.0 + spec.beta
        return b1 * r ** (1.0 / b1)
    if spec.kind == EXPONENTIAL:
        return spec.c * r
    if spec.kind == ITERATED_EXP_SQRT:
        if r == 0.0:
            return 0.0
        return 2.0 * math.sqrt(r * iterated_log(spec.k - 1, math.sqrt(r)))
    return _reference_series_log_value(spec, r)


KERNEL_SPECS = [
    kondratiev_streit(0.0), kondratiev_streit(0.37), exponential(2.5),
    iterated_exp_sqrt(1), iterated_exp_sqrt(2), iterated_exp_sqrt(3),
    bell_series(1), bell_series(2), bell_series(3),
    truncated_square_exponential(degree=12),
]


def _oracle_log_u(spec, r):
    """``oracles.log_u`` of a Bell series where the defining formula reaches
    (``u_1`` everywhere, ``u_2`` up to r = 1e5); past it, and for ``u_3``,
    the 30-digit sum of the stored coefficients."""
    from growthcalc.growth import _series_logc

    exact = spec.k == 1 or (spec.k == 2 and r <= 1e5)
    return float(oracles.log_u(spec if exact else _series_logc(spec), r))


def _assert_matches_the_oracle(spec, rs, got):
    """Within 1e-14 of the oracle, relative, from r = 1e-12 up; below it,
    where rounding ``log r`` alone costs more than 1e-14 relative (and the
    30-digit oracle's own log of a sum near 1 comes close to it), within
    2 ulp of 1."""
    for r, v in zip(rs, got):
        if r == 0.0:
            assert v == 0.0
            continue
        want = _oracle_log_u(spec, r)
        bound = 1e-14 * abs(want) if r >= 1e-12 else 2.0**-51
        assert abs(v - want) <= bound, (r, v, want)


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: s.function_id)
def test_kernel_matches_reference_formula_bit_for_bit(spec):
    rng = np.random.default_rng(11)
    top = min(0.95 * math.exp(spec.s_max), 1e12)  # inside every kernel's range
    rs = [0.0, 1e-300, 0.5, 1.0, math.e, math.e**math.e, *np.exp(
        rng.uniform(-30.0, math.log(top), 400)).tolist()]
    got = [spec.kernel(r) for r in rs]
    assert [spec.log_u(r) for r in rs] == got
    assert log_u_grid(spec, np.array(rs)).tolist() == got
    if spec.kind != BELL_SERIES:
        assert got == [_reference_log_u(spec, r) for r in rs]
        return
    # A Bell kernel interpolates on Chebyshev panels, so it is held to the
    # oracle (on the fixed radii and the first 100 seeded ones: a 30-digit
    # sum each).
    _assert_matches_the_oracle(spec, rs[:106], got[:106])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_g_kernel_is_the_iterated_log_formula_through_every_clamp(k):
    # iterated_log(k - 1, sqrt r) clamps where an iterate reaches e: at
    # log r = 2, 2e and 2e^e.  Each clamp point goes in with its neighbours.
    clamps = np.exp([2.0, 2.0 * math.e, 2.0 * math.e**math.e])
    edges = np.concatenate([np.nextafter(clamps, 0.0), clamps, np.nextafter(clamps, math.inf)])
    rs = [0.0, *np.exp(np.linspace(-30.0, 40.0, 701)).tolist(), *edges.tolist()]
    kernel = iterated_exp_sqrt(k).kernel
    assert [kernel(r) for r in rs] == [
        2.0 * math.sqrt(r * iterated_log(k - 1, math.sqrt(r))) for r in rs]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bell_panel_kernel_matches_the_oracle_across_its_panels(k):
    from growthcalc.growth import _PANEL_LO, _PANEL_WIDTH

    spec = bell_series(k)
    s_top = math.log(0.95 * spec.faithful_cap)
    rng = np.random.default_rng(20)
    # Every eighth panel edge, with its neighbouring doubles on both sides.
    edges = np.exp(spec.s_max - _PANEL_WIDTH * np.arange(1, 200, 8))
    edges = edges[(edges > math.exp(_PANEL_LO)) & (edges <= math.exp(s_top))]
    rs = [math.exp(_PANEL_LO), *np.exp(rng.uniform(math.log(1e-12), s_top, 30)).tolist(),
          *edges.tolist(), *np.nextafter(edges, 0.0).tolist(),
          *np.nextafter(edges, math.inf).tolist()]
    _assert_matches_the_oracle(spec, rs, [spec.kernel(r) for r in rs])
    _, resolved = growth._bell_panels(spec)
    assert resolved.all() and spec.s_max - resolved.size * _PANEL_WIDTH < _PANEL_LO
    assert resolved.size == {1: 210, 2: 250, 3: 224}[k]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bell_s_kernel_matches_the_table_oracle_with_its_moments(k, monkeypatch):
    # From narrow peaks (every term summed) through wide ones (every h-th
    # term, weighted by h): f, f' and f'' against the 30-digit sum of the
    # stored coefficients, u2 up to 0.99 s_max.
    from growthcalc.growth import _series_logc

    steps = []
    moments = growth._series_moments

    def recording(logc, s, lo, hi, step):
        steps.append(int(step.max()))
        return moments(logc, s, lo, hi, step)

    monkeypatch.setattr(growth, "_series_moments", recording)
    spec = bell_series(k)
    s_top = 0.99 * spec.s_max if k == 2 else math.log(0.95 * spec.faithful_cap)
    s = np.concatenate([[-30.0, -3.0, 0.0, 2.0], np.linspace(4.0, s_top, 10)])
    got = spec.s_kernel(s)
    assert max(steps) > 1
    logc = _series_logc(spec)
    with mp.workdps(oracles.DPS):
        for i, x in enumerate(s):
            want = [float(v) for v in oracles._table_moments(logc, mp.mpf(x))]
            for j, rel in enumerate((1e-14, 1e-12, 1e-9)):
                assert abs(got[j, i] - want[j]) <= rel * abs(want[j]), (x, j, got[j, i], want[j])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bell_s_kernel_sums_three_terms_where_the_peak_is_term_0(k, monkeypatch):
    # Each term lies at least |s| nats below the one before, so at s <= -40
    # terms 0..2 hold all that f, f' and f'' show in doubles.  f is near 0
    # there, so the oracle keeps every term within 1500 nats of the first.
    from growthcalc.growth import _series_logc

    widths = []
    moments = growth._series_moments

    def recording(logc, s, lo, hi, step):
        widths.append((hi - lo) // step + 1)
        return moments(logc, s, lo, hi, step)

    monkeypatch.setattr(growth, "_series_moments", recording)
    monkeypatch.setattr(oracles, "TABLE_WINDOW", 1500.0)
    s = np.array([-700.0, -100.0, -41.0, -5.0])
    got = bell_series(k).s_kernel(s)
    (width,) = widths
    assert (width[s <= -40.0] <= 3).all(), width
    logc = _series_logc(bell_series(k))
    with mp.workdps(oracles.DPS):
        for i, x in enumerate(s):
            want = [float(v) for v in oracles._table_moments(logc, mp.mpf(x))]
            for j, rel in enumerate((1e-14, 1e-12, 1e-9)):
                assert abs(got[j, i] - want[j]) <= rel * abs(want[j]), (x, j, got[j, i], want[j])


def test_series_moments_exponentiates_no_padding(monkeypatch):
    # Windows of unlike lengths share a block; its short rows' pad cells
    # become exact zeros without passing through np.exp.
    import types

    from growthcalc.growth import _series_logc

    seen = []

    def exp(x, *args, where=True, **kwargs):
        seen.append(np.asarray(x)[np.broadcast_to(where, np.shape(x))].min())
        return np.exp(x, *args, where=where, **kwargs)

    numpy = {name: getattr(np, name) for name in dir(np) if not name.startswith("__")}
    monkeypatch.setattr(growth, "np", types.SimpleNamespace(**{**numpy, "exp": exp}))
    logc = _series_logc(bell_series(2))
    s = np.array([-3.0, 0.5, 2.0, 6.0])
    lo = np.array([0, 0, 0, 20])
    hi = np.array([4, 30, 120, 400])
    step = np.array([1, 1, 1, 5])
    block = growth._series_moments(logc, s, lo, hi, step)
    assert seen and min(seen) > -np.inf
    for i in range(s.size):
        alone = growth._series_moments(logc, s[i:i + 1], lo[i:i + 1], hi[i:i + 1], step[i:i + 1])
        np.testing.assert_allclose(block[:, i], alone[:, 0], rtol=1e-15)


@pytest.mark.parametrize("n", [20, 192])
def test_gauss_legendre_nodes_against_40_digits(n):
    # The nonnegative nodes refined by Newton at 40 digits from the computed
    # ones, with P_n and P_n' by the same recurrence: a root of P_n is a
    # node.  The rule integrates x^2k exactly for k < n.
    x, w = growth._gl_nodes(n)
    assert x.size == w.size == n and (np.diff(x) > 0.0).all()
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    with mp.workdps(40):
        for xi, wi in zip(x[n // 2:].tolist(), w[n // 2:].tolist()):
            z = mp.mpf(xi)
            for _ in range(3):
                p0, p1 = mp.mpf(1), z
                for j in range(2, n + 1):
                    p0, p1 = p1, ((2 * j - 1) * z * p1 - (j - 1) * p0) / j
                dp = n * (p0 - z * p1) / (1 - z * z)
                z -= p1 / dp
            want = 2 / ((1 - z * z) * dp * dp)
            assert abs(xi - z) <= 2 * math.ulp(float(z)) + 1e-300, (xi, z)
            assert abs(wi - want) <= min(1e-13, 1e-12 * want), (xi, wi, want)
    k = np.arange(n)
    np.testing.assert_allclose(x ** (2 * k[:, None]) @ w, 2.0 / (2.0 * k + 1.0), rtol=1e-12)


@pytest.mark.parametrize("spec", [bell_series(1), bell_series(2), bell_series(3),
                                  power_series([0.0, -0.5, -2.0, -math.inf, -6.0]),
                                  truncated_square_exponential(degree=12)],
                         ids=lambda s: s.function_id)
def test_series_log_u_is_relatively_accurate_at_small_r(spec):
    # log u(r) ~ c_1 r / c_0 here (c_2 r^2 / c_0 for the square exponential):
    # a sum near 1 must keep its small terms (top + log1p(rest)), or
    # m + log(sum) leaves only its absolute accuracy.
    rs = [1e-12, 1e-9, 1e-6, 1e-3, math.exp(-2.0)]
    f = spec.s_kernel(np.log(rs))[0]
    for r, scalar, array in zip(rs, map(spec.log_u, rs), f):
        want = (float(oracles.log_u(spec, r)) if spec.kind != BELL_SERIES
                else _oracle_log_u(spec, r))
        assert abs(scalar - want) <= 1e-14 * want, (r, scalar, want)
        assert abs(array - want) <= 1e-14 * want, (r, array, want)


def test_bell_panels_leave_an_unresolved_stretch_to_the_windowed_sum(monkeypatch):
    # Coefficients -1e-4 n^2: f turns from -log(1 - e^s) to s^2 / 4e-4 within
    # a few hundredths of s = 0, which no panel of width 1/4 and degree 12
    # resolves (unchecked, its interpolant is 0.2% off there).
    from scipy.special import logsumexp

    n = np.arange(5001, dtype=float)
    logc = -1e-4 * n * n
    logc.setflags(write=False)
    gaps = np.maximum.accumulate(logc[:-1] - logc[1:])
    monkeypatch.setattr(growth, "_series_logc", lambda spec: logc)
    monkeypatch.setattr(growth, "_series_gaps", lambda spec: gaps)
    spec = bell_series(2)
    _, resolved = growth._bell_panels(spec)
    assert resolved.any() and not resolved.all()
    s = np.concatenate([[-1.0, 0.0, 0.05, 0.2], np.linspace(-2.0, spec.s_max, 120)])
    kernel, grid = growth._bell_kernels(spec)
    rs = [math.exp(v) for v in s]
    want = [kernel(r) for r in rs]
    np.testing.assert_allclose(want, logsumexp(logc + n * s[:, None], axis=1), rtol=1e-13)
    assert grid(np.array(rs)).tolist() == want


@pytest.mark.parametrize("k", [1, 2, 3])
def test_g_kernel_is_finite_where_r_times_its_log_overflows(k):
    # g_k's kernel is 2 sqrt(r x), x = log_{k-1} sqrt(r); for g1 the
    # product r x overflows past r ~ 1e206, and the kernel then takes
    # 2 sqrt(r) sqrt(x).
    spec, r = iterated_exp_sqrt(k), math.exp(699.5)
    want = float(spec.s_kernel(np.array([math.log(r)]))[0][0])
    assert math.isfinite(want)
    for got in (spec.log_u(r), float(log_u_grid(spec, np.array([r]))[0])):
        assert abs(got - want) <= 1e-13 * want


def test_log_u_grid_equals_scalar_log_u_for_every_kind():
    # ks(0.37) at r = e: numpy's array power rounds one ulp away from Python's.
    rs = [0.0, 0.3, 1.0, math.e, 7.0, 1e5]
    assert {spec.kind for spec in KERNEL_SPECS} == set(KINDS)
    for spec in KERNEL_SPECS:
        want = [spec.log_u(r) for r in rs]
        assert log_u_grid(spec, np.array(rs)).tolist() == want, spec.function_id


GRID_SPECS = [bell_series(1), bell_series(2), bell_series(3),
              power_series([0.0, -0.5, -2.0, -math.inf, -6.0]), power_series([0.3]),
              truncated_square_exponential(degree=40)]


def _grid_landmarks(spec):
    """r = 0 and the edges of a series grid's array pass, each with its
    neighbouring doubles: the smallest double, e^-40 (the panels' lower
    end), every panel edge (Bell) and the trusted radius."""
    from growthcalc.growth import _PANEL_LO, _PANEL_WIDTH

    points = [5e-324, math.exp(_PANEL_LO), 1e-300]
    if spec.kind == BELL_SERIES:
        edges = spec.s_max - _PANEL_WIDTH * np.arange(int((spec.s_max - _PANEL_LO) / _PANEL_WIDTH))
        points += np.exp(edges[edges <= math.log(spec.trusted_radius)]).tolist()
    points.append(spec.trusted_radius if spec.trusted_radius < math.inf else 1e300)
    near = np.array(points)
    return [0.0, *np.unique(np.concatenate([np.nextafter(near, 0.0), near,
                                            np.nextafter(near, math.inf)])).tolist()]


def _scalar_log_u(spec, r):
    """The scalar ``log u``: for a power series its 1-d log-sum-exp, as the
    scalar kernel took it before the grid pass."""
    from growthcalc.growth import _logsumexp, _series_logc

    if spec.kind == BELL_SERIES:
        return spec.kernel(r)
    logc = _series_logc(spec)
    if r == 0.0:
        return float(logc[0])
    return _logsumexp(logc + np.arange(logc.size, dtype=float) * math.log(r))


@pytest.mark.parametrize("spec", GRID_SPECS, ids=lambda s: s.function_id)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_series_grids_equal_the_scalar_kernel_bit_for_bit(spec, data):
    # Seeded radii across the whole range, among the landmarks, in any order
    # and with repeats: one array pass gives the scalar kernel's bits.
    top = math.log(min(spec.trusted_radius, 1e300))
    landmarks = _grid_landmarks(spec)
    rs = data.draw(st.lists(st.one_of(
        st.sampled_from(landmarks),
        st.floats(-750.0, top).map(math.exp)), min_size=1, max_size=60))
    got = log_u_grid(spec, np.array(rs)).tolist()
    assert got == [_scalar_log_u(spec, r) for r in rs]


@pytest.mark.parametrize("spec", GRID_SPECS, ids=lambda s: s.function_id)
def test_series_grids_equal_the_scalar_kernel_at_every_landmark(spec):
    rs = _grid_landmarks(spec)
    assert log_u_grid(spec, np.array(rs)).tolist() == [_scalar_log_u(spec, r) for r in rs]
    assert spec.log_u(0.0) == float(growth._series_logc(spec)[0])


@pytest.mark.parametrize("coeffs,want", [
    ([0.0, -1.0, -3.0], math.inf), ([0.0, -math.inf, -2.0], math.inf),
    ([-math.inf, 1.0], math.inf), ([2.0], 2.0), ([0.0, -math.inf], 0.0),
    ([-math.inf, -math.inf], -math.inf),
])
def test_power_series_log_u_at_infinity_is_its_limit(coeffs, want):
    # inf past a finite term with n >= 1, else log c_0; the kernels took
    # 0 * log(inf) for the n = 0 term and gave NaN.  Finite radii keep the
    # parent's bits, beside r = inf too.
    spec = power_series(coeffs)
    assert spec.log_u(math.inf) == want
    rs = [0.0, 1.0, math.inf, 3.0]
    assert log_u_grid(spec, np.array(rs)).tolist() == [
        _scalar_log_u(spec, 0.0), _scalar_log_u(spec, 1.0), want, _scalar_log_u(spec, 3.0)]


@pytest.mark.parametrize("spec", [
    truncated_square_exponential(degree=40), power_series([0.0, -1.0, -3.0]),
    power_series([0.0, -math.inf, 5.0, -math.inf, 2.0]),
    power_series((-np.cumsum(np.random.default_rng(3).uniform(0.5, 8.0, 399))).tolist()),
], ids=lambda s: s.function_id)
def test_power_series_log_u_is_its_s_kernel_at_log_r(spec):
    # One summation: both kernels read the s-kernel's value at math.log(r),
    # and take the limits log c_0 at r = 0 and inf (or log c_0) at r = inf.
    rs = np.geomspace(1e-300, 1e300, 2001)
    want = spec.s_kernel(np.array([math.log(r) for r in rs.tolist()]))[0]
    assert log_u_grid(spec, rs).tolist() == want.tolist()
    assert [spec.log_u(r) for r in rs.tolist()] == want.tolist()
    logc = growth._series_logc(spec)
    assert spec.log_u(0.0) == logc[0]
    assert spec.log_u(math.inf) == (math.inf if np.isfinite(logc[1:]).any() else logc[0])
    assert log_u_grid(spec, np.array([0.0, math.inf])).tolist() == [
        spec.log_u(0.0), spec.log_u(math.inf)]


@pytest.mark.parametrize("coeffs,k", [([0.0] * k, k) for k in (2, 3, 4, 7, 64, 1000)]
                         + [([0.0, -1e-300, 0.0, 0.0], 4)])
def test_power_series_log_u_at_a_tie_of_its_top_terms(coeffs, k):
    # k equal terms of 1 at r = 1 (the -1e-300 term rounds to 1 too): the
    # value is log k, within 2 ulp.
    spec = power_series(coeffs)
    for got in (spec.log_u(1.0), float(log_u_grid(spec, np.array([1.0]))[0])):
        assert abs(got - math.log(k)) <= 2 * np.spacing(math.log(k))


def test_power_series_grids_pass_blocks_of_rows(monkeypatch):
    # A grid longer than a block of (radii x terms) cells goes in several.
    monkeypatch.setattr(growth, "_SERIES_BLOCK", 64)
    spec = truncated_square_exponential(degree=40)
    rs = np.exp(np.linspace(-5.0, 4.0, 50))
    assert log_u_grid(spec, rs).tolist() == [_scalar_log_u(spec, r) for r in rs.tolist()]


def test_log_u_grid_raises_at_the_first_radius_past_the_series_cap():
    u2 = bell_series(2)
    far = [1.5 * u2.faithful_cap, 3.0 * u2.faithful_cap]
    with pytest.raises(CapacityError) as want:
        u2.log_u(far[0])
    with pytest.raises(CapacityError, match=re.escape(str(want.value))):
        log_u_grid(u2, np.array([1.0, far[0], 2.0, far[1]]))


@pytest.mark.parametrize("k", [6, 50, 10**20])
def test_g_k_past_five_is_g_5_bit_for_bit(k):
    # Four clamped logs take sqrt of the largest double to the fixed point
    # log(e) = 1, so g_k equals g_5 for every k > 5, also where r x overflows.
    g5, gk = iterated_exp_sqrt(5), iterated_exp_sqrt(k)
    rs = [0.0, 1e-300, 0.5, math.e, 1e4, 1e50, 1e200, 1e306, 1e308, sys.float_info.max]
    assert [gk.log_u(r) for r in rs] == [g5.log_u(r) for r in rs]
    assert log_u_grid(gk, np.array(rs)).tolist() == [g5.log_u(r) for r in rs]
    s = np.linspace(-30.0, gk.s_max, 301)
    for got, want in zip(gk.s_kernel(s), g5.s_kernel(s)):
        assert got.tolist() == want.tolist()
    if k < 100:  # every one of the k - 1 logs, unclamped in count
        want = []
        for r in rs[1:]:
            x = math.sqrt(r)
            for _ in range(k - 1):
                x = math.log(max(math.e, x))
            want.append(2.0 * math.sqrt(r) * math.sqrt(x) if r * x == math.inf
                        else 2.0 * math.sqrt(r * x))
        assert [gk.log_u(r) for r in rs[1:]] == want
    assert iterated_log(k, sys.float_info.max) == 1.0


def test_bell_order_is_capped():
    from growthcalc.growth import _BELL_K_CAP

    assert bell_series(_BELL_K_CAP).k == _BELL_K_CAP  # built lazily: no table yet
    for k in (_BELL_K_CAP + 1, 3000, 10**20):
        with pytest.raises(ParameterError, match=re.escape(
                f"bell_series field 'k' must be an integer in [1, {_BELL_K_CAP}], got {k}")):
            bell_series(k)


def test_kernel_keeps_the_capacity_error_past_the_series_cap():
    u2 = bell_series(2)
    r = 1.5 * u2.faithful_cap
    with pytest.raises(CapacityError, match="beyond the faithful range of u2") as err:
        u2.kernel(r)
    with pytest.raises(CapacityError, match=re.escape(str(err.value))):
        u2.log_u(r)


def test_spec_pickles_after_its_kernel_is_built():
    spec = bell_series(3)
    assert spec.log_u(2.0) == spec.kernel(2.0)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.log_u(2.0) == spec.log_u(2.0)


def test_bell_table_matches_exact_bell_numbers_and_the_oracle_at_the_seam():
    # Rows n <= 256 are Dobinski sums, the rest the trapezoid rule.
    from growthcalc.growth import _N_BELL2

    table = bell_table._log_bell(_N_BELL2)
    exact = oracles.bell_triangle()[:61]
    np.testing.assert_allclose(table[:61], [math.log(b) for b in exact], rtol=1e-15, atol=0.0)
    for n in range(255, 259):
        got = float(table[n])
        assert abs(got - oracles.log_bell(n)) <= 2 * math.ulp(got), n


@given(st.integers(min_value=257, max_value=1 << 18))
@settings(max_examples=6, deadline=None)
def test_bell_table_trapezoid_rows_match_the_oracle_to_two_ulp(n):
    from growthcalc.growth import _N_BELL2

    got = float(bell_table._log_bell(_N_BELL2)[n])
    assert abs(got - oracles.log_bell(n)) <= 2 * math.ulp(got)


@pytest.mark.parametrize("n", [61, 257, 300, 1000, 1280, 1281, 5000, 40000, 100000, 1 << 18])
def test_dobinski_table_matches_the_bell_oracle_to_two_ulp(n):
    from growthcalc.growth import _N_BELL2

    got = float(bell_table._log_bell(_N_BELL2)[n])
    assert abs(got - oracles.log_bell(n)) <= 2 * math.ulp(got)


def test_shipped_bell_table_is_its_generator():
    # u2's coefficients ship as package data, written by bell_table.py.  On
    # the machine that wrote the file the generator reproduces it bit for
    # bit; numpy's SIMD exp and log may round a few ulp differently on
    # another CPU, so the comparison allows 4 ulp.
    shipped = np.load(growth._BELL2_LOGC)
    assert shipped.dtype == np.float64 and shipped.shape == (growth._N_BELL2 + 1,)
    np.testing.assert_array_max_ulp(shipped, bell_table.bell2_logc(), maxulp=4)
    assert np.array_equal(growth._series_logc(bell_series(2)), shipped)


def test_only_u2_reads_the_shipped_bell_table(monkeypatch):
    loads = []
    load = np.load
    monkeypatch.setattr(np, "load", lambda path, *a, **k: loads.append(path) or load(path, *a, **k))
    growth._series_logc.cache_clear()
    u2 = bell_series(2)
    for spec in (bell_series(1), bell_series(3), power_series([0.0, -1.0, -3.0])):
        growth._series_logc(spec)
    assert loads == []
    logc = growth._series_logc(u2)
    assert loads == [growth._BELL2_LOGC]
    assert not logc.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        logc[0] = 1.0


def test_log_factorial_table_is_a_read_only_lgamma_table():
    from growthcalc.growth import _log_factorials

    head = _log_factorials(10).copy()
    table = _log_factorials(3000)
    assert not table.flags.writeable
    assert np.array_equal(table[:11], head)
    assert table[:257].tolist() == [math.lgamma(k + 1.0) for k in range(257)]


@given(st.integers(min_value=257, max_value=1 << 18))
@settings(max_examples=40, deadline=None)
def test_log_factorial_rows_past_256_match_loggamma_to_two_ulp(k):
    got = float(growth._log_factorials(1 << 18)[k])
    with mp.workdps(40):
        assert abs(mp.mpf(got) - mp.loggamma(k + 1)) <= 2 * math.ulp(got)


def test_log_factorial_rows_do_not_depend_on_the_order_of_the_builds(monkeypatch):
    monkeypatch.setattr(growth, "_log_fact", np.zeros(0))
    for n in (3, 200, 256, 257, 700):
        growth._log_factorials(n)
    grown = growth._log_factorials(5000).copy()
    monkeypatch.setattr(growth, "_log_fact", np.zeros(0))
    assert np.array_equal(growth._log_factorials(5000), grown)


# ---------------------------------------------------------------------------
# config types
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [
    {"kind": "kondratiev_streit", "beta": "0.5"},
    {"kind": "kondratiev_streit", "beta": True},
    {"kind": "exponential", "c": "2"},
    {"kind": "exponential", "c": None},
    {"kind": "iterated_exp_sqrt", "k": 2.7},
    {"kind": "bell_series", "k": 2.7},
    {"kind": "bell_series", "k": "2"},
    {"kind": "bell_series", "k": True},
    {"kind": "bell_series", "k": float("nan")},
    {"kind": "power_series", "log_coeffs": "0.0"},
    {"kind": "power_series", "log_coeffs": [0.0, "-1.0"]},
    {"kind": "power_series", "log_coeffs": [0.0, False]},
], ids=repr)
def test_spec_from_dict_coerces_no_types(d):
    with pytest.raises(ParameterError):
        spec_from_dict(d)


def test_spec_from_dict_takes_ints_for_floats_and_only_integers_for_k():
    assert spec_from_dict({"kind": "kondratiev_streit", "beta": 0}) == kondratiev_streit(0.0)
    assert spec_from_dict({"kind": "exponential", "c": 3}) == exponential(3.0)
    assert spec_from_dict({"kind": "bell_series", "k": 3}) == bell_series(3)
    # k is whole by growth._is_whole, as n, seed, p and n_max are: 3.0 is a
    # float, as in a Gaussian surrogate's q.
    for d in ({"kind": "bell_series", "k": 3.0}, {"kind": "iterated_exp_sqrt", "k": 2.0}):
        domain = "[1, 16]" if d["kind"] == "bell_series" else "[1, inf)"
        with pytest.raises(ParameterError, match=re.escape(
                f"field 'k' must be an integer in {domain}, got {d['k']!r}")):
            spec_from_dict(d)
    assert spec_from_dict({"kind": "power_series", "log_coeffs": [0, None, -2]}) == (
        power_series([0.0, -math.inf, -2.0]))


@pytest.mark.parametrize("make,fragment", [
    (lambda: kondratiev_streit("0.5"), "'beta' must be a number in [0, 1), got '0.5'"),
    (lambda: kondratiev_streit(True), "'beta' must be a number in [0, 1), got True"),
    (lambda: exponential(None), "'c' must be a number in (0, inf), got None"),
    (lambda: bell_series(True), "'k' must be an integer in [1, 16], got True"),
    (lambda: power_series([0.0, "-1.0"]), "'log_coeffs' must be a list of numbers"),
], ids=["beta-str", "beta-bool", "c-none", "k-bool", "coeff-str"])
def test_the_spec_checks_its_own_parameter(make, fragment):
    with pytest.raises(ParameterError, match=re.escape(fragment)):
        make()


def test_valid_parameters_are_stored_as_float_or_int():
    for spec, key, want in (
        (kondratiev_streit(0), "beta", 0.0),
        (exponential(3), "c", 3.0),
        (iterated_exp_sqrt(2), "k", 2),
        (GrowthFunctionSpec(BELL_SERIES, k=np.int64(3)), "k", 3),
    ):
        got = getattr(spec, key)
        assert (type(got), got) == (type(want), want), spec
    assert kondratiev_streit(0).function_id == "ks(beta=0)"


@pytest.mark.parametrize("call", [
    lambda: iterated_log(1.5, 10.0),
    lambda: iterated_log(True, 10.0),
    lambda: iterated_log(1, math.nan),
    lambda: iterated_exp_sqrt(2.5),
    lambda: GrowthFunctionSpec(ITERATED_EXP_SQRT, k=2.5),
    lambda: hida_condition(MeasureSurrogate("gaussian"), kondratiev_streit(0.0), p=1.5),
    lambda: hida_condition(MeasureSurrogate("gaussian"), kondratiev_streit(0.0), p=True),
    lambda: LFunctionEvaluator.from_spec(kondratiev_streit(0.5), n_max=2.5),
    lambda: legendre_sequence(kondratiev_streit(0.5), True),
    lambda: corrupt_table(legendre_sequence(kondratiev_streit(0.5), 10), 1.5),
    lambda: ChaosSequence.exponential_vector(1.0, 2.5),
], ids=["iterated_log-k", "iterated_log-k-bool", "iterated_log-r-nan", "g_k-factory",
        "g_k-spec", "hida-p", "hida-p-bool", "evaluator-n_max", "sequence-n_max-bool",
        "corrupt-index", "exponential-vector-n_max"])
def test_whole_number_arguments_are_checked_by_one_rule(call):
    with pytest.raises(ParameterError):
        call()


def test_exponential_rate_must_be_finite():
    with pytest.raises(ParameterError, match=re.escape(
            "'c' must be a number in (0, inf), got inf")):
        exponential(math.inf)


# ---------------------------------------------------------------------------
# Mittag-Leffler near lambda = 1
# ---------------------------------------------------------------------------


# E_lam(-t) from the power series summed by mpmath at 50 digits.
@pytest.mark.parametrize("lam,t,oracle", [
    (0.99, 10.0, 0.0013478638060832084),
    (0.95, 10.0, 0.006507135312256063),
])
def test_mittag_leffler_near_one_vs_exact_series(lam, t, oracle):
    # The power series cancels terms near 3e3 down to a sum near 1e-3.
    assert mittag_leffler(lam, t) == pytest.approx(oracle, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam", [0.001, 0.1, 0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("t", [1e-9, 1e-4, 0.01, 1.0, 30.0, 1e3, 1e6])
def test_mittag_leffler_integral_vs_the_spectral_oracle(lam, t):
    assert mittag_leffler(lam, t) == pytest.approx(
        float(oracles.mittag_leffler(lam, t)), rel=1e-12, abs=0.0)


# Summed in doubles, the power series is 1.1e-10, 8.9e-12 and 8.2e-12 off
# (relative) at these points: each term carries an exp(lgamma) rounding of
# its own size, and the largest term is 3e3 to 8e3 times the sum.
@pytest.mark.parametrize("lam,t", [(0.21, 1.62), (0.6, 3.5), (0.75, 4.6)])
def test_mittag_leffler_vs_the_oracle_where_the_power_series_loses_digits(lam, t):
    assert mittag_leffler(lam, t) == pytest.approx(
        float(oracles.mittag_leffler(lam, t)), rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# array kernels in s = log r: f, f' and f'' of f(s) = log u(e^s)
# ---------------------------------------------------------------------------


S_KERNEL_SPECS = KERNEL_SPECS + [power_series([0.0, 0.0, -math.inf, -math.log(6.0)])]


def _smooth_s_points(spec):
    """Radii in s = log r across the kind's range, clear of the kinks of the
    clamped iterated log (sqrt(r) = e, e^e, ...)."""
    s_top = min(spec.s_max - 0.5, 60.0)
    return np.array([s for s in (-12.0, -3.0, -0.7, 0.5, 1.3, 3.3, 4.6, 7.1, 12.0,
                                 18.5, 21.9, 40.0, 59.0) if s <= s_top])


@pytest.mark.parametrize("spec", S_KERNEL_SPECS, ids=lambda s: s.function_id)
def test_s_kernel_matches_the_scalar_kernel_and_its_differences(spec):
    s = _smooth_s_points(spec)
    f, d1, d2 = spec.s_kernel(s)
    scalar = lambda x: np.array([spec.kernel(math.exp(v)) for v in x])
    # A log-sum-exp near log 1 is exact to rounding in absolute terms only.
    np.testing.assert_allclose(f, scalar(s), rtol=1e-13, atol=1e-15)
    h = 1e-4
    np.testing.assert_allclose(d1, (scalar(s + h) - scalar(s - h)) / (2 * h), rtol=1e-6)
    h = 1e-3
    second = (scalar(s + h) - 2.0 * scalar(s) + scalar(s - h)) / (h * h)
    np.testing.assert_allclose(d2, second, rtol=1e-5, atol=1e-9 * np.abs(f).max())


@pytest.mark.parametrize("spec", [kondratiev_streit(0.0), kondratiev_streit(0.37),
                                  exponential(1.0), exponential(2.5)],
                         ids=lambda s: s.function_id)
def test_s_kernel_closed_forms(spec):
    s = np.linspace(-30.0, 40.0, 71)
    f, d1, d2 = spec.s_kernel(s)
    r = np.exp(s)
    if spec.kind == KONDRATIEV_STREIT:
        b1 = 1.0 + spec.beta
        want = (b1 * r ** (1.0 / b1), r ** (1.0 / b1), r ** (1.0 / b1) / b1)
    else:
        want = (spec.c * r,) * 3
    for got, expect in zip((f, d1, d2), want):
        np.testing.assert_allclose(got, expect, rtol=1e-13)


def test_s_kernel_of_u2_against_a_30_digit_dobinski_series():
    import mpmath as mp

    u2 = bell_series(2)
    radii = (0.3, 2.0, 40.0, 900.0)
    f, d1, d2 = u2.s_kernel(np.log(radii))
    with mp.workdps(30):
        for i, r in enumerate(radii):
            x = mp.mpf(r)
            term = lambda n: x**n / (mp.bell(int(n)) * mp.factorial(int(n)))
            assert f[i] == pytest.approx(float(mp.log(mp.nsum(term, [0, mp.inf]))), rel=1e-14)
            # The moments by a direct sum out to a 1e-40 relative tail.
            terms, n = [], 0
            while n < 10 or terms[-1] > mp.mpf(10) ** -40 * max(terms):
                terms.append(term(n))
                n += 1
            s0 = mp.fsum(terms)
            mean = mp.fsum(k * t for k, t in enumerate(terms)) / s0
            var = mp.fsum((k - mean) ** 2 * t for k, t in enumerate(terms)) / s0
            assert d1[i] == pytest.approx(float(mean), rel=1e-13)
            assert d2[i] == pytest.approx(float(var), rel=1e-12)


def test_s_kernel_of_u2_matches_the_scalar_kernel_up_to_s_max():
    u2 = bell_series(2)
    s = np.linspace(-40.0, u2.s_max, 301)
    np.testing.assert_allclose(u2.s_kernel(s)[0],
                               [u2.kernel(math.exp(v)) for v in s], rtol=1e-13)


def test_bell_s_kernel_widens_its_window_as_the_scalar_kernel_does(monkeypatch):
    # Coefficients so flat that the edge terms of the first windows lie
    # within 46 nats of the peak: the s-kernel, which the scalar kernel
    # falls back on, must double its windows (the catalog's Bell series
    # never need to).
    from scipy.special import logsumexp

    n = np.arange(5001, dtype=float)
    logc = -1e-4 * n * n
    logc.setflags(write=False)
    gaps = np.maximum.accumulate(logc[:-1] - logc[1:])
    monkeypatch.setattr(growth, "_series_logc", lambda spec: logc)
    monkeypatch.setattr(growth, "_series_gaps", lambda spec: gaps)
    spec = bell_series(2)
    s = np.array([-1.0, 0.0, 0.05, 0.2])
    f, d1, _ = growth._bell_s_kernel(spec)(s)
    terms = logc + n * s[:, None]
    np.testing.assert_allclose(f, logsumexp(terms, axis=1), rtol=1e-13)
    weights = np.exp(terms - logsumexp(terms, axis=1)[:, None])
    np.testing.assert_allclose(d1, weights @ n, rtol=1e-12)


def test_s_kernel_keeps_the_capacity_error_past_the_series_cap():
    u2 = bell_series(2)
    s = np.array([0.0, math.log(1.5 * u2.faithful_cap)])
    with pytest.raises(CapacityError, match="beyond the faithful range of u2"):
        u2.s_kernel(s)


def test_s_kernel_is_quiet_up_to_s_max():
    import warnings

    for spec in S_KERNEL_SPECS + [exponential(1e6), bell_series(2)]:
        s = np.append(np.arange(-745.0, spec.s_max, 0.5), spec.s_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, d1, d2 = spec.s_kernel(s)
        assert not np.isnan(f).any()
        assert (d1[1:] >= d1[:-1] * (1.0 - 1e-12)).all()  # f is convex
