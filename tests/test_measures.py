"""Product-measure surrogates: Fernique, Poisson, grey noise, Hida bounds."""

from __future__ import annotations

import dataclasses
import math
import re
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from growthcalc import (
    MEASURE_KINDS,
    CapacityError,
    MeasureSurrogate,
    ParameterError,
    bell_series,
    fernique_product,
    grey_integrability,
    grey_sample,
    hida_condition,
    iterated_exp_sqrt,
    kondratiev_streit,
    mittag_leffler,
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
    # just under the boundary x = 4 c2 rho^{2q} = 1 the truncated product
    # still holds the q-Pochhammer form (x; rho^{2q})_inf^{-1/2}; at x = 1 it diverges
    for c2 in (1.0 - 1e-9, 0.999):
        result = fernique_product(0.5, 1, c2)
        x = 4.0 * c2 * 0.25
        with mp.workdps(30):
            want = mp.qp(mp.mpf(x), mp.mpf(0.25)) ** -0.5
        assert result.finite and result.boundary == x
        assert result.value == pytest.approx(float(want), rel=1e-12, abs=0.0)
    assert not fernique_product(0.5, 1, 1.0).finite


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
    report = hida_condition(MeasureSurrogate("poisson", theta=60.0), catalog["g2"], p=0)
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


@pytest.mark.parametrize("lam", [0.3, 1.0])
def test_grey_cf_rows_match_numpy_cosines(lam):
    # Each cosine is within 4e-16 of numpy's, so the mean moves by as much
    # and the standard error by a relative 4e-16 / its spread.
    from growthcalc.measures import _grey_cf

    rows = _grey_cf(lam, 20_000, 5, (0.5, 2, 12.0))
    x = grey_sample(lam, 20_000, 5)
    for row, xi in zip(rows, (0.5, 2.0, 12.0)):
        cos = np.cos(xi * x)
        se = float(cos.std(ddof=1)) / math.sqrt(x.size)
        target = mittag_leffler(lam, xi * xi)
        assert (row["xi"], row["target"]) == (xi, target) and type(row["xi"]) is float
        assert abs(row["empirical"] - float(cos.mean())) <= 4e-16
        assert abs(row["stderr"] - se) <= 1e-12 * se
        assert row["sigmas"] == abs(row["empirical"] - target) / row["stderr"]


def test_grey_sampler_validation():
    with pytest.raises(ParameterError):
        grey_sample(0.0, 10, seed=0)
    with pytest.raises(ParameterError):
        grey_sample(1.2, 10, seed=0)
    with pytest.raises(ParameterError):
        grey_sample(0.5, 0, seed=0)


@pytest.mark.parametrize("n,seed,fragment", [
    (2.5, 1, "n must be an integer in [1, inf), got 2.5"),
    (10.0, 1, "n must be an integer in [1, inf), got 10.0"),
    (True, 1, "n must be an integer in [1, inf), got True"),
    (10, 1.5, "seed must be an integer in [0, inf), got 1.5"),
    (10, -1, "seed must be an integer in [0, inf), got -1"),
    (10, True, "seed must be an integer in [0, inf), got True"),
], ids=["n-fraction", "n-float", "n-bool", "seed-fraction", "seed-negative", "seed-bool"])
def test_grey_sampler_rejects_non_integral_counts_and_seeds(n, seed, fragment):
    with pytest.raises(ParameterError, match=re.escape(fragment)):
        grey_sample(0.5, n, seed)


def test_grey_sampler_takes_numpy_integers():
    a = grey_sample(0.5, np.int64(50), np.int64(3))
    np.testing.assert_array_equal(a, grey_sample(0.5, 50, 3))


def _grey_sample_reference(lam, n, seed):
    """Kanter's representation as three nested powers: the stable variate
    ``T = (A(theta) / W)^{(1-lam)/lam}``, then ``S = T^{-lam}``."""
    rng = np.random.default_rng(seed)
    if lam == 1.0:
        return math.sqrt(2.0) * rng.standard_normal(n)
    u = np.clip(rng.random(n), 1e-12, 1.0 - 1e-12)
    w = np.maximum(rng.exponential(1.0, n), 1e-300)
    z = rng.standard_normal(n)
    theta = math.pi * u
    a = (
        np.sin(lam * theta) ** lam
        * np.sin((1.0 - lam) * theta) ** (1.0 - lam)
        / np.sin(theta)
    ) ** (1.0 / (1.0 - lam))
    t_stable = (a / w) ** ((1.0 - lam) / lam)
    return np.sqrt(2.0 * t_stable ** (-lam)) * z


def _ulps(got, want):
    return np.abs(np.asarray(got) - want) / np.spacing(np.abs(want))


def test_half_angle_sine_is_within_4_ulp_on_the_samplers_range():
    # Kanter's formula raises small sines to powers, so the sine is held
    # relatively, down to the sampler's clip ends pi 1e-12 and pi (1 - 1e-12).
    from growthcalc.measures import _trig_of_double

    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(0.0, math.pi, 20_000),
                        math.pi * np.exp(rng.uniform(math.log(1e-12), 0.0, 5_000)),
                        math.pi * -np.expm1(rng.uniform(math.log(1e-12), 0.0, 5_000)),
                        [math.pi * 1e-12, math.pi * (1.0 - 1e-12), math.pi / 2]])
    got = _trig_of_double(0.5 * x, sine=True)
    assert _ulps(got, [math.sin(v) for v in x.tolist()]).max() <= 4.0


def test_half_angle_cosine_is_within_4e_16_absolute():
    # Up to |x| = 1e4 (the suite's xi X reach 12), also next to odd and even
    # multiples of pi, where tan(x / 2) is huge or 0.
    from growthcalc.measures import _trig_of_double

    rng = np.random.default_rng(4)
    k = np.arange(-3183, 3184, dtype=float) * math.pi
    x = np.concatenate([rng.uniform(-1e4, 1e4, 50_000), k, np.nextafter(k, math.inf),
                        k + 1e-9, k - 1e-9, [0.0, 1e4, -1e4]])
    got = _trig_of_double(0.5 * x, sine=False)
    assert np.abs(got - [math.cos(v) for v in x.tolist()]).max() <= 4e-16


def _grey_sample_by_numpy_sines(lam, n, seed):
    """The sampler's closed form with numpy's ``sin`` for the three sines,
    draw for draw and operation for operation as before the half-angle
    tangent."""
    rng = np.random.default_rng(seed)
    theta = rng.random(n)
    np.clip(theta, 1e-12, 1.0 - 1e-12, out=theta)
    theta *= math.pi
    s = np.sin(theta * lam) ** lam
    s *= np.sin(theta * (1.0 - lam)) ** (1.0 - lam)
    s = np.sin(theta) / s
    s *= np.maximum(rng.exponential(1.0, n), 1e-300) ** (1.0 - lam)
    return rng.standard_normal(n) * np.sqrt(s * 2.0)


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.7, 0.99])
def test_grey_sampler_is_within_8_ulp_of_numpy_sines(lam):
    got = grey_sample(lam, 50_000, 9)
    assert _ulps(got, _grey_sample_by_numpy_sines(lam, 50_000, 9)).max() <= 8.0


@pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
def test_grey_sampler_closed_form_matches_the_nested_powers(lam):
    # lambda = 1 scales the same normal draw: equal bit for bit
    got = grey_sample(lam, 50_000, 21)
    want = _grey_sample_reference(lam, 50_000, 21)
    np.testing.assert_allclose(got, want, rtol=0.0 if lam == 1.0 else 1e-11, atol=0.0)


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


@pytest.mark.parametrize("n", [1, 99])
def test_grey_integrability_needs_the_surrogates_hundred_samples(n):
    # one sample would report stderr 0 up to rounding noise
    with pytest.raises(ParameterError, match=re.escape(
            f"grey field 'n' must be an integer in [100, inf), got {n}")):
        grey_integrability(1.0, 0.1, n=n, seed=0)


def _grey_estimate_reference(lam, w, x, seed):
    """The estimate through two log-sums over the log integrand ``le`` (and
    a third over its top 0.1%), each term kept apart from the rest."""
    from growthcalc.growth import _logsumexp
    from growthcalc.measures import GreyResult

    n = x.size
    le = 0.5 * (2.0 - lam) * (w * x * x) ** (1.0 / (2.0 - lam))
    log_sum = _logsumexp(le)
    log_mean = log_sum - math.log(n)
    log_m2 = _logsumexp(2.0 * le) - math.log(n)
    note = ""
    if log_m2 < 700.0 and log_mean < 350.0:
        m1 = math.exp(log_mean)
        stderr = math.sqrt(max(math.exp(log_m2) - m1 * m1, 0.0) / n)
    else:
        stderr = math.inf
        note = "second moment overflows; the estimate is untrustworthy"
    k_top = max(1, n // 1000)
    top_share = math.exp(_logsumexp(np.partition(le, n - k_top)[n - k_top:]) - log_sum)
    stable = math.isfinite(stderr) and top_share <= 0.5
    if not stable and not note:
        note = f"top 0.1% of samples carry {top_share:.1%} of the mass"
    value = math.exp(log_mean) if log_mean < 709.0 else math.inf
    return GreyResult(value, stderr, log_mean, n, seed, stable, top_share, note)


@pytest.mark.parametrize("lam,w,branch", [
    (lam, w, branch)
    for lam in (0.3, 0.5, 1.0)
    for w, branch in ((0.0, "stable"), (0.01, "stable"), (0.1, "stable"),
                      (0.3, "stable"), (1.0, "heavy"), (5.0, "heavy"))
] + [(1.0, 50.0, "overflow"), (0.5, 2000.0, "overflow")])
def test_grey_estimate_matches_the_log_sum_formulas(lam, w, branch):
    x = grey_sample(lam, 20_000, 5)
    want = _grey_estimate_reference(lam, w, x, 5)
    got = _grey_estimate(lam, w, x.copy(), 5)
    assert (got.stable, got.note, got.n, got.seed) == (want.stable, want.note, 20_000, 5)
    assert {"stable": want.stable, "heavy": want.note.startswith("top 0.1%"),
            "overflow": want.note.startswith("second moment")}[branch]
    for key in ("value", "log_value", "top_share"):
        assert math.isclose(getattr(got, key), getattr(want, key), rel_tol=1e-13), key
    # var = m2 - m1^2 cancels: rounding of m2 grows by m2 / var in the stderr
    cond = 1.0
    if 0.0 < want.stderr < math.inf:
        cond += want.value ** 2 / (want.n * want.stderr ** 2)
    assert math.isclose(got.stderr, want.stderr, rel_tol=1e-13 * cond)


def _grey_estimate(lam, w, x, seed):
    """:func:`grey_integrability` on the sample ``x`` drawn with ``seed``,
    read in the grey Monte Carlo's blocks."""
    from growthcalc.measures import _GREY_BLOCK, _grey_moments

    blocks = (x[i:i + _GREY_BLOCK] for i in range(0, x.size, _GREY_BLOCK))
    return _grey_moments(lam, (w,), blocks, x.size, seed)[0]


def _peak_in_samples(call, n):
    """Peak traced allocation of ``call()``, in units of ``n`` doubles."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (8.0 * n)
    finally:
        tracemalloc.stop()


def test_grey_monte_carlo_works_in_one_array_per_sample():
    from growthcalc.measures import _grey_cf

    # The draws and their reads go through block buffers: lambda < 1 holds
    # one sample-sized array, S, which becomes the sample in place; lambda = 1
    # and an estimate on a given sample hold none.
    n = 10**6
    x = grey_sample(0.5, n, 1)
    assert _peak_in_samples(lambda: _grey_estimate(0.5, 0.1, x, 1), n) <= 0.25
    assert _peak_in_samples(lambda: grey_sample(1.0, n, 1), n) <= 1.5
    assert _peak_in_samples(lambda: grey_sample(0.5, n, 1), n) <= 1.2
    assert _peak_in_samples(lambda: grey_integrability(1.0, 0.1, n, 1), n) <= 0.25
    assert _peak_in_samples(lambda: _grey_cf(0.5, n, 1, (0.5, 1.0, 2.0)), n) <= 1.25
    assert _peak_in_samples(lambda: grey_integrability(0.5, 0.1, n, 1), n) <= 1.25
    grey = MeasureSurrogate("grey", lam=0.5, n=n, seed=1)
    ks05 = kondratiev_streit(0.5)
    assert _peak_in_samples(lambda: hida_condition(grey, ks05, p=1), n) <= 1.25


@pytest.mark.parametrize("block", [7, 2**10, 1000, 10**6])
def test_grey_monte_carlo_does_not_depend_on_the_block_size(block, monkeypatch):
    # The stream is drawn block by block, so the draws are the same bits at
    # every block size, and the merged sums move only by rounding (measured
    # as the suite reference is, relative to max(1, |value|)).
    from growthcalc import measures

    n, xis = 3000, (0.5, 2.0, 12.0)
    want_x = {lam: grey_sample(lam, n, 5) for lam in (0.3, 0.5, 1.0)}
    want_cf = {lam: measures._grey_cf(lam, n, 5, xis) for lam in (0.3, 1.0)}
    cases = [(lam, w) for lam in (0.3, 0.5, 1.0) for w in (0.0, 0.1, 1.0, 5.0)]
    cases += [(1.0, 50.0), (0.5, 2000.0), (1.0, 1e308)]  # the overflow branches
    want_gi = {case: grey_integrability(*case, n, 5) for case in cases}
    monkeypatch.setattr(measures, "_GREY_BLOCK", block)
    for lam, want in want_x.items():
        assert np.array_equal(grey_sample(lam, n, 5), want), lam
    for lam, want in want_cf.items():
        for got_row, want_row in zip(measures._grey_cf(lam, n, 5, xis), want):
            for key in want_row:
                assert math.isclose(got_row[key], want_row[key], rel_tol=1e-13,
                                    abs_tol=1e-13), (lam, key)
    for case, want in want_gi.items():
        got = grey_integrability(*case, n, 5)
        assert (got.stable, got.note, got.n, got.seed) == (want.stable, want.note, n, 5)
        for key in ("value", "stderr", "log_value", "top_share"):
            assert math.isclose(getattr(got, key), getattr(want, key), rel_tol=1e-13,
                                abs_tol=1e-13), (case, key)
    assert {want.note[:10] for want in want_gi.values()} == {
        "", "top 0.1% o", "second mom", "the integr"}


# ---------------------------------------------------------------------------
# measure surrogates and the integrability sweep
# ---------------------------------------------------------------------------


def test_surrogate_factories_validate():
    assert set(MEASURE_KINDS) == {"gaussian", "poisson", "grey"}
    assert MeasureSurrogate("gaussian").kind == "gaussian"
    assert MeasureSurrogate("poisson", theta=2.0).theta == 2.0
    assert MeasureSurrogate("grey", lam=0.5).lam == 0.5
    with pytest.raises(ParameterError):
        MeasureSurrogate(kind="lebesgue")
    with pytest.raises(ParameterError):
        MeasureSurrogate("grey", lam=1.3)
    with pytest.raises(ParameterError):
        MeasureSurrogate("poisson", theta=-1.0)
    with pytest.raises(ParameterError, match=re.escape(
            "field 'seed' must be an integer in [0, inf), got -1")):
        MeasureSurrogate("grey", lam=0.5, seed=-1)
    with pytest.raises(ParameterError, match=re.escape(
            "field 'seed' must be an integer in [0, inf), got -3")):
        MeasureSurrogate(kind="gaussian", seed=-3)


def test_fernique_raises_a_capacity_error_where_rho_power_rounds_to_one():
    # 0.5^(2e-17) is 1.0 in doubles: the factors would never shrink.
    with pytest.raises(CapacityError, match="rounds to 1"):
        fernique_product(0.5, 1e-17, 0.1)


def test_fernique_raises_a_capacity_error_at_its_factor_cap():
    # 0.5^(2e-12) = 1 - 1.4e-12: the tail bound falls below 1e-14 only after
    # some 1e13 factors.
    with pytest.raises(CapacityError, match="1000000 factors"):
        fernique_product(0.5, 1e-12, 0.1)


def test_poisson_raises_a_capacity_error_at_its_term_cap():
    # The weights peak near k = 2e5, past the 1e5-term cap.
    with pytest.raises(CapacityError, match="100000 terms"):
        poisson_integrability(2e5, poisson_sqrtlog_integrand())


@pytest.mark.parametrize("theta,n_terms", [(1e6, 12), (1e9, 15)])
def test_poisson_sums_a_falling_integrand_past_its_term_cap(theta, n_terms):
    # theta is far past the term cap, but g(k) = e^{-k^2} falls faster than
    # the weights rise: the terms peak near k = log(theta)/2 and the sum
    # converges there.  A cap test on theta alone would raise here; only a
    # nondecreasing integrand peaks no earlier than the weights' mode.
    res = poisson_integrability(theta, lambda k: -float(k) * k)
    with mp.workdps(30):
        terms = [-k * k - theta + k * mp.log(theta) - mp.loggamma(k + 1) for k in range(60)]
        want = float(mp.log(mp.fsum(mp.exp(x) for x in terms)))
    assert res.finite and res.n_terms == n_terms
    assert res.log_value == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("call,fragment", [
    (lambda: fernique_product(0.5, math.nan, 0.1), "q must be a number in [0, inf), got nan"),
    (lambda: fernique_product(0.5, 1, math.nan), "c2 must be a number in [0, inf), got nan"),
    (lambda: poisson_integrability(math.inf, lambda k: 0.0),
     "theta must be a number in (0, inf), got inf"),
    (lambda: poisson_sqrtlog_integrand(math.nan), "w must be a number in [0, inf), got nan"),
    (lambda: poisson_sqrtlog_integrand(math.inf), "w must be a number in [0, inf), got inf"),
    (lambda: MeasureSurrogate("poisson", theta=math.inf),
     "'theta' must be a number in (0, inf), got inf"),
    (lambda: MeasureSurrogate("poisson", w=math.nan), "'w' must be a number in [0, inf), got nan"),
], ids=["fernique-q-nan", "fernique-c2-nan", "poisson-theta-inf", "sqrtlog-w-nan",
        "sqrtlog-w-inf", "surrogate-theta-inf", "surrogate-w-nan"])
def test_non_finite_measure_parameters_are_rejected(call, fragment):
    with pytest.raises(ParameterError, match=re.escape(fragment)):
        call()


def test_hida_gaussian_ladder(catalog):
    report = hida_condition(MeasureSurrogate("gaussian"), catalog["ks0"], p=1)
    assert report.finite and report.smallest_finite_p == 1
    levels = {lvl["p"]: lvl for lvl in report.levels}
    assert not levels[0]["finite"]          # boundary 4 c2 rho^0 = 1 diverges
    assert levels[1]["finite"]
    assert levels[1]["bound"] > 1.0


def test_gaussian_envelope_of_ks0_does_not_rest_on_rounding(monkeypatch):
    # log u(r) / 2 - r / 2 is exactly 0 for ks0; one ulp more on log u must
    # leave c2 = 1/2 certified, with c1 = 1.
    from growthcalc import growth, measures

    ks = growth._KIND_TABLE[growth.KONDRATIEV_STREIT]

    def kernel(spec):
        exact = growth._ks_kernel(spec)
        return lambda r: math.nextafter(exact(r), math.inf)

    monkeypatch.setitem(growth._KIND_TABLE, growth.KONDRATIEV_STREIT,
                        dataclasses.replace(ks, kernels=growth._looped(kernel)))
    measures._gaussian_envelope.cache_clear()
    try:
        assert measures._gaussian_envelope(kondratiev_streit(0.0)) == (1.0, 0.5)
    finally:
        measures._gaussian_envelope.cache_clear()


def test_hida_gaussian_steeper_weight(catalog):
    # beta = 1/2 forces the envelope constant up but the ladder still closes
    report = hida_condition(MeasureSurrogate("gaussian"), catalog["ks05"], p=6)
    assert report.smallest_finite_p is not None
    assert report.levels[report.smallest_finite_p]["finite"]


def test_hida_poisson(catalog):
    report = hida_condition(MeasureSurrogate("poisson", theta=1.0), catalog["g2"], p=0)
    assert report.finite and report.smallest_finite_p == 0


def test_hida_grey(catalog):
    grey = MeasureSurrogate("grey", lam=0.5, n=100_000, seed=7)
    report = hida_condition(grey, catalog["ks05"], p=1)
    assert report.finite and report.smallest_finite_p == 1
    assert not report.levels[0]["finite"]   # unit weight genuinely diverges
    assert report.seed == 7


def test_hida_grey_ladder_matches_the_gaussian_closed_form():
    # at lambda = 1 grey noise is Gaussian and level p has weight w = 0.25^p:
    # E exp(w Z^2) = (1 - 2 w)^{-1/2}, infinite at w = 1
    grey = MeasureSurrogate("grey", lam=1.0, n=100_000, seed=7)
    report = hida_condition(grey, kondratiev_streit(0.0), p=1)
    assert not report.levels[0]["finite"] and report.smallest_finite_p == 1
    for level in report.levels[1:]:
        assert level["finite"] and level["w"] == 0.25 ** level["p"]
        want = (1.0 - 2.0 * level["w"]) ** -0.5
        assert abs(level["value"] - want) <= 3.0 * level["stderr"], level


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.7, 1.0])
def test_hida_grey_levels_read_the_exact_boundary(lam):
    # E exp((2-lam)/2 (w X^2)^{1/(2-lam)}) is finite exactly for
    # w < w* = (lam/2)^lam; the Monte Carlo is only reported.
    w_star = (lam / 2.0) ** lam
    spec = kondratiev_streit(1.0 - lam)
    for seed in range(5):
        for factor, finite in ((0.97, True), (1.03, False)):
            grey = MeasureSurrogate("grey", lam=lam, n=1000, seed=seed, w=factor * w_star)
            report = hida_condition(grey, spec)
            assert report.finite is finite, (seed, factor)
            assert report.smallest_finite_p == (0 if finite else 1)
            assert all(level["finite"] is (level["w"] < w_star) for level in report.levels)


def test_grey_boundary_at_lambda_one_is_where_the_gaussian_moment_blows_up():
    # lambda = 1: X ~ N(0, 2) and E exp(w X^2 / 2) = (1 - 2w)^{-1/2}, a real
    # number exactly for 1 - 2w > 0.
    ks0 = kondratiev_streit(0.0)
    for w in (0.0, 0.1, 0.45, 0.49, 0.4999999, 0.5, 0.5000001, 0.51, 0.6, 1.0):
        grey = MeasureSurrogate("grey", lam=1.0, n=1000, seed=0, w=w)
        level = hida_condition(grey, ks0).levels[0]
        assert level["finite"] is (1.0 - 2.0 * w > 0.0), w


def test_hida_grey_draws_one_sample_for_every_level(catalog, monkeypatch):
    from growthcalc import measures

    passes = []
    blocks = measures._grey_blocks

    def counted(*args):
        passes.append(args)
        return blocks(*args)

    monkeypatch.setattr(measures, "_grey_blocks", counted)
    grey = MeasureSurrogate("grey", lam=0.5, n=20_000, seed=11)
    report = hida_condition(grey, catalog["ks05"], p=1)
    assert passes == [(0.5, 20_000, 11)]
    monkeypatch.undo()
    assert [level["p"] for level in report.levels] == [0, 1, 2, 3, 4]
    for level in report.levels:
        res = grey_integrability(0.5, level["w"], 20_000, 11)
        assert level["w"] == 0.25 ** level["p"]
        assert level["finite"] == (res.stable and math.isfinite(res.value))
        for key in ("value", "stderr", "top_share", "note"):
            assert level[key] == getattr(res, key), key


@pytest.mark.parametrize("surrogate, fid", [
    (MeasureSurrogate("gaussian"), "ks0"), (MeasureSurrogate("poisson", theta=1.0), "g2"),
    (MeasureSurrogate("grey", lam=0.5, n=1000, seed=3), "ks05")])
def test_hida_levels_stop_at_the_level_cap(catalog, surrogate, fid):
    from growthcalc.measures import _HIDA_LEVEL_CAP

    start = time.perf_counter()
    with pytest.raises(CapacityError, match=re.escape(
            f"p must be at most the level cap 64, got {_HIDA_LEVEL_CAP + 1}")):
        hida_condition(surrogate, catalog[fid], p=_HIDA_LEVEL_CAP + 1)
    assert time.perf_counter() - start < 0.01
    report = hida_condition(surrogate, catalog[fid], p=_HIDA_LEVEL_CAP)
    assert [level["p"] for level in report.levels] == list(range(_HIDA_LEVEL_CAP + 1))


def test_hida_kind_function_mismatch(catalog, u2):
    with pytest.raises(ParameterError):
        hida_condition(MeasureSurrogate("gaussian"), catalog["g2"])
    with pytest.raises(ParameterError):
        hida_condition(MeasureSurrogate("poisson"), catalog["ks0"])
    with pytest.raises(ParameterError):
        hida_condition(MeasureSurrogate("grey", lam=0.5), catalog["ks0"])  # beta != 1 - lambda
    with pytest.raises(ParameterError):
        hida_condition(MeasureSurrogate("poisson"), u2)


def test_hida_json_round_trip(catalog):
    report = hida_condition(MeasureSurrogate("gaussian"), catalog["ks0"], p=1)
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
    report = hida_condition(MeasureSurrogate("poisson", theta=1.0), catalog["g2"], p=0)
    assert thetas == [1.0] * 5
    assert len(report.levels) == 5


@pytest.mark.parametrize("q", [1.5, -1, math.inf, math.nan, 2.0])
def test_gaussian_surrogate_needs_an_integral_level(q):
    # An integer by growth._is_whole, as every whole-number argument: 2.0 is
    # a float.
    with pytest.raises(ParameterError, match=re.escape(
            f"'q' must be an integer in [0, inf), got {q!r}")):
        MeasureSurrogate("gaussian", q=q)
    assert MeasureSurrogate("gaussian", q=2).q == 2
