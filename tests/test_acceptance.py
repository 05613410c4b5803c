"""End-to-end acceptance battery.

Twelve numbered criteria, each printing one PASS/FAIL line.  Run with

    pytest tests/test_acceptance.py -v -s

to see the lines as they appear; a plain pytest run shows them for any
failing criterion.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from growthcalc import (
    ChaosSequence,
    HypothesisViolationError,
    LFunctionEvaluator,
    bidual,
    cauchy_coefficient_bound,
    check_table_definition,
    corrupt_table,
    dual_norm,
    equivalence_witness,
    exp_vector_norm,
    exponential,
    fernique_product,
    grey_integrability,
    grey_sample,
    kondratiev_streit,
    legendre_sequence,
    legendre_transform,
    mittag_leffler,
    poisson_growth_integrand,
    poisson_integrability,
    poisson_sqrtlog_integrand,
    s_transform_1d,
)

SLACK = 1e-9
MARGIN_CHECKS = (
    "table-definition",
    "log-concavity",
    "submultiplicativity",
    "supermultiplicativity",
    "t2t-log-convexity",
    "decreasing-tail",
    "nth-root-decay",
    "lseries-sandwich",
    "lseries-square-bound",
    "lseries-sqrt-bound",
)


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number:02d}] {status} - {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_closed_form_transform():
    worst = 0.0
    for beta in (0.0, 0.25, 0.5, 0.75):
        spec = kondratiev_streit(beta)
        for t in np.geomspace(0.1, 200.0, 50):
            log_ell, _ = legendre_transform(spec, float(t))
            expect = (1.0 + beta) * t * (1.0 - math.log(t))
            # relative error of ell itself is |exp(delta) - 1| ~ |delta|
            worst = max(worst, abs(log_ell - expect))
    # independent confirmation by dense-grid minimization at spot points
    dense_worst = 0.0
    for beta, t in ((0.0, 200.0), (0.5, 0.1), (0.75, 7.0)):
        spec = kondratiev_streit(beta)
        r_star = t ** (1.0 + beta)
        rs = np.geomspace(0.9 * r_star, 1.1 * r_star, 100_001)
        dense = min(spec.log_u(float(r)) - t * math.log(r) for r in rs)
        log_ell, _ = legendre_transform(spec, t)
        dense_worst = max(dense_worst, abs(log_ell - dense))
    _criterion(
        1,
        "transform matches (e/t)^{(1+beta)t} on 4 weights x 50 points",
        worst <= 1e-8 and dense_worst <= 1e-6,
        f"worst log-error {worst:.2e}, dense-grid gap {dense_worst:.2e}",
    )


def test_criterion_02_biduality(catalog):
    worst = 0.0
    for spec in catalog.values():
        for r in np.geomspace(1e-3, 1e6, 25):
            direct = spec.log_u(float(r))
            recon = bidual(spec, float(r))
            worst = max(worst, abs(recon - direct) / max(1.0, abs(direct)))
    _criterion(
        2,
        "biduality reconstructs log u within 1e-6 relative on [1e-3, 1e6]",
        worst <= 1e-6,
        f"worst relative error {worst:.2e}",
    )


def test_criterion_03_inequality_battery(batteries):
    failures = []
    worst = math.inf
    for fid, reports in batteries.items():
        for report in reports:
            if not report.passed:
                failures.append((fid, report.check_id))
            if report.check_id in MARGIN_CHECKS and report.worst_margin is not None:
                worst = min(worst, report.worst_margin)
    _criterion(
        3,
        "inequality battery green with margin >= -1e-9 on all 5 functions",
        not failures and worst >= -SLACK,
        f"worst margin {worst:.2e}" + (f", failures {failures}" if failures else ""),
    )


def test_criterion_04_sandwich_witnesses(batteries):
    ok = True
    details = []
    for fid, reports in batteries.items():
        sandwich = next(r for r in reports if r.check_id == "lseries-sandwich")
        c2, c2r = sandwich.constants["C_part2"], sandwich.constants["C_part2_refined"]
        ok &= math.isfinite(c2) and c2 > 0 and abs(math.log(c2r / c2)) <= 0.1
        for check_id in ("equivalence-lseries", "equivalence-square"):
            rep = next(r for r in reports if r.check_id == check_id)
            consts = rep.constants
            ok &= rep.passed
            ok &= all(math.isfinite(consts[k]) and consts[k] > 0
                      for k in ("c1", "a1", "c2", "a2"))
            ok &= abs(math.log(consts["c1_refined"] / consts["c1"])) <= 0.1
            ok &= abs(math.log(consts["c2_refined"] / consts["c2"])) <= 0.1
        details.append(f"{fid}: C={c2:.3g}")
    _criterion(
        4,
        "L-series sandwich constants and equivalence witnesses stable under refinement",
        ok,
        "; ".join(details),
    )


def test_criterion_05_exponential_vector_identity(evaluators):
    spec = kondratiev_streit(0.0)
    table = legendre_sequence(spec, 200)
    ev = evaluators["ks0"]
    worst = 0.0
    tail_ok = True
    for xi in (0.5, 1.0, 2.0):
        seq = ChaosSequence.exponential_vector(xi, 200)
        direct = dual_norm(seq, table)
        via_l = exp_vector_norm(xi, ev)
        worst = max(worst, abs(direct - via_l) / via_l)
        # last retained term of L(xi^2) relative to the total
        log_total = 2.0 * math.log(via_l)
        log_last = table.log_ell[200] + 200.0 * math.log(xi * xi)
        tail_ok &= (log_last - log_total) < math.log(1e-12)
    _criterion(
        5,
        "dual norm of the exponential vector equals sqrt(L_u(xi^2))",
        worst <= 1e-10 and tail_ok,
        f"worst relative error {worst:.2e}",
    )


def test_criterion_06_bell_equivalence(catalog, u2):
    report = equivalence_witness(catalog["g2"], u2, f_id="g2", g_id="u2")
    consts = report.constants if report.passed else {}
    _criterion(
        6,
        "iterated-exponential g2 is equivalent to the Bell series u2",
        report.passed,
        (f"c1={consts.get('c1', 0):.4g} a1={consts.get('a1', 0):.3g} "
         f"c2={consts.get('c2', 0):.4g} a2={consts.get('a2', 0):.3g}")
        if report.passed
        else "no witness found - revisit the iterated-EGF coefficient "
             "convention b_k(n) = n! [r^n] exp_k(r) before trusting u2",
    )


def test_criterion_07_mittag_leffler():
    worst_classical = max(
        abs(mittag_leffler(1.0, float(t)) - math.exp(-float(t)))
        / math.exp(-float(t))
        for t in np.linspace(0.0, 20.0, 201)
    )
    worst_half = max(
        abs(mittag_leffler(0.5, float(t)) - math.exp(t * t) * math.erfc(float(t)))
        / (math.exp(t * t) * math.erfc(float(t)))
        for t in np.linspace(0.0, 5.0, 201)
    )
    worst_oracle = max(
        abs(mittag_leffler(lam, t) / float(oracles.mittag_leffler(lam, t)) - 1.0)
        for lam in (0.4, 0.6, 0.8)
        for t in (0.5, 1.0, 2.0)
    )
    _criterion(
        7,
        "Mittag-Leffler: classical limit 1e-10, erfc form 1e-8, 30-digit oracle 1e-12",
        worst_classical <= 1e-10 and worst_half <= 1e-8 and worst_oracle <= 1e-12,
        f"classical {worst_classical:.2e}, erfc {worst_half:.2e}, "
        f"oracle {worst_oracle:.2e} over 9 points",
    )


def test_criterion_08_grey_characteristic_function():
    worst_sigma = 0.0
    for lam in (0.3, 0.5, 0.7, 1.0):
        x = grey_sample(lam, 1_000_000, seed=7)
        for xi in (0.5, 1.0, 2.0):
            cos = np.cos(xi * x)
            emp = float(np.mean(cos))
            se = float(np.std(cos)) / math.sqrt(len(x))
            gap = abs(emp - mittag_leffler(lam, xi * xi)) / se
            worst_sigma = max(worst_sigma, gap)
    _criterion(
        8,
        "sampler CF within 3 standard errors of E_lambda(-xi^2), n=1e6",
        worst_sigma <= 3.0,
        f"worst deviation {worst_sigma:.2f} sigma",
    )


def test_criterion_09_integrability_estimates(catalog):
    # Poisson moment of exp(k sqrt(log_1 k)) under theta = 1
    log_g = poisson_sqrtlog_integrand(1.0)
    poisson = poisson_integrability(1.0, log_g)
    oracle = math.fsum(
        math.exp(-1.0 + log_g(k) - math.lgamma(k + 1.0)) for k in range(300)
    )
    poisson_ok = (
        poisson.finite
        and abs(poisson.value - oracle) <= 1e-9 * oracle
        and poisson.tail_bound <= 1e-12 * poisson.value
    )
    # the same moment built from the growth function itself
    growth = poisson_integrability(1.0, poisson_growth_integrand(catalog["g2"], 1.0))
    poisson_ok &= abs(growth.value - poisson.value) <= 1e-9 * poisson.value

    # grey-noise exponential moment at the classical corner
    grey = grey_integrability(1.0, 0.1, n=1_000_000, seed=7)
    closed = (1.0 - 2.0 * 0.1) ** -0.5
    grey_ok = grey.stable and abs(grey.value - closed) <= 3.0 * grey.stderr

    # Fernique product: finite value against the frozen oracle, divergence flag
    fern = fernique_product(0.5, 1, 0.1)
    fern_ok = (
        fern.finite
        and abs(fern.value - 1.0719895202158902) <= 1e-6
        and not fernique_product(0.5, 1, 1.0).finite
    )
    _criterion(
        9,
        "Poisson tail, grey closed form, Fernique value + divergence flag",
        poisson_ok and grey_ok and fern_ok,
        f"poisson {poisson.value:.9f} ({poisson.n_terms} terms), "
        f"grey {grey.value:.6f} vs {closed:.6f} (se {grey.stderr:.1e}), "
        f"fernique {fern.value:.10f}",
    )


def test_criterion_10_cauchy_coefficient_bound():
    spec = exponential(1.0)
    table = legendre_sequence(spec, 100)
    coeffs = [1.0 / math.factorial(n) for n in range(101)]
    report = cauchy_coefficient_bound(
        coeffs, spec, math.sqrt(math.e) * (1.0 + 1e-9), 1.0, table
    )
    # the bound must also refuse a constant that the function violates
    refused = False
    try:
        cauchy_coefficient_bound(coeffs, spec, 0.5, 1.0, table)
    except HypothesisViolationError:
        refused = True
    _criterion(
        10,
        "Cauchy bound |f_n|^2 <= K^2 a^n ell(n) for exp with u = e^r, n <= 100",
        report.passed and report.worst_margin >= 0.0 and refused,
        f"worst margin {report.worst_margin:.2e}",
    )


def test_criterion_11_s_transform():
    worst = 0.0
    for n in range(11):
        for xi in (-3.0, -1.5, 0.5, 1.5, 3.0):
            value = s_transform_1d(ChaosSequence.delta(n), xi)
            worst = max(worst, abs(value - xi**n) / max(1.0, abs(xi) ** n))
    _criterion(
        11,
        "S-transform of He_n evaluates to xi^n for n <= 10, |xi| <= 3",
        worst <= 1e-8,
        f"worst relative error {worst:.2e}",
    )


def test_criterion_12_corruption_detection(tables60):
    spec = kondratiev_streit(0.0)
    table = tables60["ks0"]
    missed = []
    for index in range(61):
        for factor in (1.01, 0.99):
            bad = corrupt_table(table, index, factor, "ell")
            if check_table_definition(spec, bad).passed:
                missed.append(("ell", index, factor))
    for index in range(1, 61):  # r*(0) = 0 is scale-invariant
        bad = corrupt_table(table, index, 1.01, "r_star")
        if check_table_definition(spec, bad).passed:
            missed.append(("r_star", index, 1.01))
    n_checked = 61 * 2 + 60
    _criterion(
        12,
        "every 1% table corruption trips the definition audit",
        not missed,
        f"{n_checked} corruptions injected"
        + (f", missed {missed[:5]}" if missed else ", all caught"),
    )
