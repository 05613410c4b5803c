"""Product-measure surrogates: Fernique, Poisson, grey noise, Hida bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest

from growthcalc import (
    MEASURE_KINDS,
    MeasureSurrogate,
    ParameterError,
    bell_series,
    fernique_product,
    gaussian_product,
    grey_1d,
    grey_integrability,
    grey_sample,
    hida_condition,
    iterated_exp_sqrt,
    kondratiev_streit,
    mittag_leffler,
    poisson_count,
    poisson_growth_integrand,
    poisson_integrability,
    poisson_sqrtlog_integrand,
)


# ---------------------------------------------------------------------------
# Fernique product
# ---------------------------------------------------------------------------


def test_fernique_matches_direct_product():
    # prod_{k>=1} (1 - 4 c2 rho^{2q k})^{-1/2} with a long explicit product
    result = fernique_product(0.5, 1, 0.1)
    oracle = math.exp(math.fsum(
        -0.5 * math.log1p(-0.4 * 0.25 ** (k + 1)) for k in range(200)
    ))
    assert result.finite
    assert result.value == pytest.approx(oracle, rel=1e-12)
    assert result.tail_bound < 1e-13
    assert result.boundary == pytest.approx(0.1)


def test_fernique_truncation_is_stable():
    loose = fernique_product(0.5, 1, 0.1, tail_tol=1e-10)
    tight = fernique_product(0.5, 1, 0.1, tail_tol=1e-14)
    assert loose.value == pytest.approx(tight.value, abs=1e-10)


def test_fernique_trivial_and_divergent_cases():
    assert fernique_product(0.5, 1, 0.0).value == 1.0
    divergent = fernique_product(0.5, 1, 1.0)
    assert not divergent.finite
    assert divergent.boundary >= 1.0
    assert not fernique_product(0.5, 0, 0.1).finite  # q = 0: no decay at all


def test_fernique_validation():
    with pytest.raises(ParameterError):
        fernique_product(1.5, 1, 0.1)
    with pytest.raises(ParameterError):
        fernique_product(0.5, -1, 0.1)
    with pytest.raises(ParameterError):
        fernique_product(0.5, 1, -0.1)


# ---------------------------------------------------------------------------
# Poisson moments
# ---------------------------------------------------------------------------


def test_poisson_constant_integrand_sums_to_one():
    result = poisson_integrability(2.0, lambda k: 0.0)
    assert result.finite
    assert result.value == pytest.approx(1.0, abs=1e-11)


def test_poisson_sqrtlog_matches_direct_sum():
    result = poisson_integrability(1.0, poisson_sqrtlog_integrand(1.0))
    log_g = poisson_sqrtlog_integrand(1.0)
    oracle = math.fsum(
        math.exp(-1.0 + log_g(k) - math.lgamma(k + 1.0)) for k in range(300)
    )
    assert result.finite
    assert result.value == pytest.approx(oracle, rel=1e-10)
    assert result.tail_bound <= 1e-11 * result.value


def test_poisson_growth_integrand_equals_sqrtlog_for_g2():
    # u(k^2)^{1/2} = exp(k sqrt(log_1 k)) for the second-order iterated
    # exponential at unit weight: the 1/2 power cancels its leading constant
    g2 = iterated_exp_sqrt(2)
    lg_growth = poisson_growth_integrand(g2, 1.0)
    lg_direct = poisson_sqrtlog_integrand(1.0)
    for k in (0, 1, 5, 40, 200):
        assert lg_growth(k) == pytest.approx(lg_direct(k), rel=1e-12, abs=1e-12)
    via_growth = poisson_integrability(1.0, lg_growth)
    via_direct = poisson_integrability(1.0, lg_direct)
    assert via_growth.value == pytest.approx(via_direct.value, rel=1e-12)


def test_poisson_divergence_detected():
    result = poisson_integrability(1.0, lambda k: k * math.log(2.0) + math.lgamma(k + 1.0))
    assert not result.finite
    assert result.witness_k is not None and result.witness_k >= 30
    assert "grow" in result.note


@pytest.mark.parametrize("theta", [0.5, 1.0, 5.0, 30.0, 60.0, 100.0])
def test_poisson_moment_generating_function(theta):
    # E[e^{sN}] = exp(theta (e^s - 1)); above theta ~ 30 the weights rise
    # for dozens of terms before their mode, which is not divergence.
    for s in (-1.0, 0.0, 0.5, 1.0, 1.5):
        result = poisson_integrability(theta, lambda k: s * k)
        assert result.finite
        assert result.log_value == pytest.approx(theta * math.expm1(s), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("theta", [1.0, 60.0])
def test_poisson_factorial_moments(theta):
    # E[N (N-1) ... (N-m+1)] = theta^m.
    for m in (1, 2, 3):
        log_g = lambda k: math.lgamma(k + 1.0) - math.lgamma(k - m + 1.0) if k >= m else -math.inf
        result = poisson_integrability(theta, log_g)
        assert result.finite
        assert result.log_value == pytest.approx(m * math.log(theta), rel=1e-12)


def _direct_log_sum(theta, log_g, k_max):
    from scipy.special import logsumexp

    k = np.arange(k_max + 1)
    lw = [log_g(int(j)) for j in k]
    return float(logsumexp(np.array(lw) - theta + k * math.log(theta)
                           - np.array([math.lgamma(j + 1.0) for j in k])))


@pytest.mark.parametrize("theta", [1.0, 10.0, 60.0])
def test_poisson_factorial_powers(theta):
    # g(k) = (k!)^a: finite for a < 1, divergent for a > 1.
    half = lambda k: 0.5 * math.lgamma(k + 1.0)
    result = poisson_integrability(theta, half)
    assert result.finite
    k_max = int(4.0 * (theta / 0.9) ** 2) + 100
    assert result.log_value == pytest.approx(_direct_log_sum(theta, half, k_max), rel=1e-11)
    result = poisson_integrability(theta, lambda k: 1.5 * math.lgamma(k + 1.0))
    assert not result.finite and result.witness_k >= max(theta, 30.0)


@pytest.mark.parametrize("theta", [1.0, 20.0, 40.0, 60.0, 100.0])
def test_poisson_sqrtlog_is_finite_for_every_theta(theta):
    log_g = poisson_sqrtlog_integrand(1.0)
    result = poisson_integrability(theta, log_g)
    assert result.finite
    assert result.log_value == pytest.approx(_direct_log_sum(theta, log_g, 6000), rel=1e-12)


def test_hida_poisson_past_the_old_divergence_threshold(catalog):
    report = hida_condition(poisson_count(theta=60.0), catalog["g2"], p=0)
    assert report.finite and report.smallest_finite_p == 0


def test_poisson_validation():
    with pytest.raises(ParameterError):
        poisson_integrability(0.0, lambda k: 0.0)
    with pytest.raises(ParameterError):
        poisson_integrability(-1.0, lambda k: 0.0)


# ---------------------------------------------------------------------------
# grey-noise sampler
# ---------------------------------------------------------------------------


def test_grey_sampler_is_deterministic():
    a = grey_sample(0.5, 1000, seed=42)
    b = grey_sample(0.5, 1000, seed=42)
    np.testing.assert_array_equal(a, b)
    c = grey_sample(0.5, 1000, seed=43)
    assert not np.array_equal(a, c)


def test_grey_sampler_classical_limit():
    # lambda = 1 degenerates to a centred normal with variance 2
    x = grey_sample(1.0, 200_000, seed=11)
    assert abs(float(np.mean(x))) < 0.01
    assert float(np.var(x)) == pytest.approx(2.0, rel=0.02)


def test_grey_sampler_characteristic_function():
    # E cos(xi X) = E_lambda(-xi^2)
    for lam in (0.5, 0.8):
        x = grey_sample(lam, 100_000, seed=5)
        for xi in (0.5, 1.0):
            cos = np.cos(xi * x)
            emp = float(np.mean(cos))
            se = float(np.std(cos)) / math.sqrt(len(x))
            assert abs(emp - mittag_leffler(lam, xi * xi)) <= 4.0 * se


def test_grey_sampler_validation():
    with pytest.raises(ParameterError):
        grey_sample(0.0, 10, seed=0)
    with pytest.raises(ParameterError):
        grey_sample(1.2, 10, seed=0)
    with pytest.raises(ParameterError):
        grey_sample(0.5, 0, seed=0)


# ---------------------------------------------------------------------------
# grey-noise integrability
# ---------------------------------------------------------------------------


def test_grey_integrability_classical_closed_form():
    # lambda = 1, X ~ N(0, 2): E exp(w X^2 / 2) = (1 - 2w)^{-1/2} at w = 1/10
    result = grey_integrability(1.0, 0.1, n=200_000, seed=7)
    closed = (1.0 - 0.2) ** -0.5
    assert result.stable
    assert abs(result.value - closed) <= 3.0 * result.stderr
    assert result.seed == 7 and result.n == 200_000


def test_grey_integrability_unit_weight_is_unstable():
    # at w = 1 the integrand outruns the squared-sample tail for every
    # lambda: the top 0.1% of draws carry essentially the whole sum
    for lam in (0.5, 1.0):
        result = grey_integrability(lam, 1.0, n=100_000, seed=7)
        assert not result.stable
        assert result.top_share > 0.5


def test_grey_integrability_zero_weight():
    result = grey_integrability(0.5, 0.0, n=1000, seed=0)
    assert result.value == 1.0 and result.stderr == 0.0


@pytest.mark.parametrize("w", [-0.1, math.nan, math.inf])
def test_grey_integrability_rejects_bad_weight(w):
    with pytest.raises(ParameterError):
        grey_integrability(0.5, w, n=1000, seed=0)


# ---------------------------------------------------------------------------
# measure surrogates and the integrability sweep
# ---------------------------------------------------------------------------


def test_surrogate_factories_validate():
    assert set(MEASURE_KINDS) == {"gaussian", "poisson", "grey"}
    assert gaussian_product().kind == "gaussian"
    assert poisson_count(theta=2.0).theta == 2.0
    assert grey_1d(0.5).lam == 0.5
    with pytest.raises(ParameterError):
        MeasureSurrogate(kind="lebesgue")
    with pytest.raises(ParameterError):
        grey_1d(1.3)
    with pytest.raises(ParameterError):
        poisson_count(theta=-1.0)


def test_hida_gaussian_ladder(catalog):
    report = hida_condition(gaussian_product(), catalog["ks0"], p=1)
    assert report.finite and report.smallest_finite_p == 1
    levels = {lvl["p"]: lvl for lvl in report.levels}
    assert not levels[0]["finite"]          # boundary 4 c2 rho^0 = 1 diverges
    assert levels[1]["finite"]
    assert levels[1]["bound"] > 1.0


def test_hida_gaussian_steeper_weight(catalog):
    # beta = 1/2 forces the envelope constant up but the ladder still closes
    report = hida_condition(gaussian_product(), catalog["ks05"], p_max=6)
    assert report.smallest_finite_p is not None
    assert report.levels[report.smallest_finite_p]["finite"]


def test_hida_poisson(catalog):
    report = hida_condition(poisson_count(theta=1.0), catalog["g2"], p=0)
    assert report.finite and report.smallest_finite_p == 0


def test_hida_grey(catalog):
    report = hida_condition(grey_1d(0.5, n=100_000, seed=7), catalog["ks05"], p=1)
    assert report.finite and report.smallest_finite_p == 1
    assert not report.levels[0]["finite"]   # unit weight genuinely diverges
    assert report.seed == 7


def test_hida_kind_function_mismatch(catalog, u2):
    with pytest.raises(ParameterError):
        hida_condition(gaussian_product(), catalog["g2"])
    with pytest.raises(ParameterError):
        hida_condition(poisson_count(), catalog["ks0"])
    with pytest.raises(ParameterError):
        hida_condition(grey_1d(0.5), catalog["ks0"])  # beta != 1 - lambda
    with pytest.raises(ParameterError):
        hida_condition(poisson_count(), u2)


def test_hida_json_round_trip(catalog):
    report = hida_condition(gaussian_product(), catalog["ks0"], p=1)
    d = report.to_json_dict()
    assert d["measure"] == "gaussian"
    assert d["p"] == 1 and d["finite"] is True
    assert d["smallest_finite_p"] == 1
    assert len(d["levels"]) >= 2


def test_hida_poisson_calls_the_integrator_bound_in_the_module(catalog, monkeypatch):
    # Tracers wrap the integrators by patching the module globals.
    from growthcalc import measures

    thetas = []

    def patched(theta, *args, **kwargs):
        thetas.append(theta)
        return poisson_integrability(theta, *args, **kwargs)

    monkeypatch.setattr(measures, "poisson_integrability", patched)
    report = hida_condition(poisson_count(theta=1.0), catalog["g2"], p=0, p_max=2)
    assert thetas == [1.0, 1.0, 1.0]
    assert len(report.levels) == 3
