"""Legendre transform, tables, L-function evaluation, biduality."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcalc import (
    CapTooSmallError,
    CapacityError,
    InsufficientTableError,
    LFunctionEvaluator,
    LegendreTable,
    ParameterError,
    UnboundedBelowError,
    bell_series,
    bidual,
    exponential,
    iterated_exp_sqrt,
    kondratiev_streit,
    l_function,
    l_function_integral,
    l_function_wide,
    legendre_sequence,
    legendre_table,
    legendre_transform,
    log_u_grid,
    power_series,
)


def ks_log_ell(beta: float, t: float) -> float:
    """Closed form: log ell_beta(t) = (1 + beta) t (1 - log t), t > 0."""
    return (1.0 + beta) * t * (1.0 - math.log(t))


# ---------------------------------------------------------------------------
# pointwise transform
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.75])
def test_transform_matches_closed_form(beta):
    spec = kondratiev_streit(beta)
    for t in (0.1, 1.0, 2.0, 17.3, 150.0):
        log_ell, r_star = legendre_transform(spec, t)
        assert log_ell == pytest.approx(ks_log_ell(beta, t), rel=1e-10, abs=1e-10)
        assert r_star == pytest.approx(t ** (1.0 + beta), rel=1e-6)


def test_transform_at_zero_hits_infimum():
    for spec in (kondratiev_streit(0.0), kondratiev_streit(0.5)):
        assert legendre_transform(spec, 0.0) == (0.0, 0.0)


def test_transform_against_dense_grid_minimization():
    # Independent check: brute-force minimize log u(r) - t log r near r*.
    beta, t = 0.5, 12.0
    spec = kondratiev_streit(beta)
    r_star = t ** (1.0 + beta)
    rs = np.geomspace(0.5 * r_star, 2.0 * r_star, 200_001)
    dense = np.min([spec.log_u(float(r)) - t * math.log(r) for r in rs])
    log_ell, _ = legendre_transform(spec, t)
    assert log_ell <= dense + 1e-12
    assert log_ell == pytest.approx(dense, abs=1e-7)


def test_transform_rejects_negative_t():
    with pytest.raises(ParameterError):
        legendre_transform(kondratiev_streit(0.0), -1.0)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_transform_rejects_non_finite_t(t):
    with pytest.raises(ParameterError):
        legendre_transform(kondratiev_streit(0.5), t)


def test_transform_beyond_series_capacity():
    u2 = bell_series(2)
    with pytest.raises(CapacityError):
        legendre_transform(u2, u2.t_sup * 1.5)


def test_transform_unbounded_below_for_polynomial():
    # A degree-2 polynomial cannot control r^5: the objective has no minimum.
    trunc = power_series([0.0, 0.0, -math.lgamma(3)], label="deg2")
    with pytest.raises(UnboundedBelowError):
        legendre_transform(trunc, 5.0)


@given(st.floats(min_value=0.05, max_value=300.0),
       st.sampled_from([0.0, 0.25, 0.5, 0.75]))
@settings(max_examples=80, deadline=None)
def test_transform_closed_form_property(t, beta):
    log_ell, _ = legendre_transform(kondratiev_streit(beta), t)
    assert log_ell == pytest.approx(ks_log_ell(beta, t), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_sequence_table_basics(tables60):
    tab = tables60["ks0"]
    assert tab.n_points == 61
    assert tab.is_integer_grid
    assert tab.n_max == 60
    assert tab.log_ell[0] == 0.0
    assert np.all(np.diff(tab.r_star) >= -1e-9)


def test_sequence_matches_pointwise_transform(tables60):
    tab = tables60["ks05"]
    spec = kondratiev_streit(0.5)
    for n in (1, 7, 33, 60):
        log_ell, _ = legendre_transform(spec, float(n))
        assert tab.log_ell[n] == pytest.approx(log_ell, rel=1e-10, abs=1e-10)


def test_non_integer_grid_has_no_n_max():
    tab = legendre_table(kondratiev_streit(0.0), np.array([0.5, 1.5, 2.5]))
    assert not tab.is_integer_grid
    with pytest.raises(ParameterError):
        tab.n_max


def test_table_grid_validation():
    spec = kondratiev_streit(0.0)
    with pytest.raises(ParameterError):
        legendre_table(spec, np.array([2.0, 1.0]))
    with pytest.raises(ParameterError):
        legendre_table(spec, np.array([]))
    with pytest.raises(ParameterError):
        LegendreTable("x", np.array([0.0, 1.0]), np.array([0.0]), np.array([0.0, 1.0]))


def test_csv_text_frozen_values():
    tab = legendre_sequence(kondratiev_streit(0.0), 3)
    lines = tab.csv_text().strip().split("\n")
    assert lines[0] == "t,log_ell,r_star"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    expect_log_ell = [0.0, 1.0, 2.0 * (1.0 - math.log(2.0)), 3.0 * (1.0 - math.log(3.0))]
    for n, row in enumerate(rows):
        assert row[0] == float(n)
        assert row[1] == pytest.approx(expect_log_ell[n], rel=1e-12, abs=1e-12)
        assert row[2] == pytest.approx(float(n), rel=1e-6, abs=1e-6)


def test_csv_write_is_deterministic(tmp_path):
    spec = kondratiev_streit(0.25)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    legendre_sequence(spec, 12).write_csv(p1)
    legendre_sequence(spec, 12).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_table_json_round_trip(tables60):
    tab = tables60["g2"]
    clone = LegendreTable.from_json_dict(tab.to_json_dict())
    assert clone.function_id == tab.function_id
    np.testing.assert_array_equal(clone.t, tab.t)
    np.testing.assert_array_equal(clone.log_ell, tab.log_ell)
    np.testing.assert_array_equal(clone.r_star, tab.r_star)


# ---------------------------------------------------------------------------
# the L-series evaluator's table: one batched Newton solve
# ---------------------------------------------------------------------------

EVALUATOR_SPECS = {
    "ks0": kondratiev_streit(0.0), "ks05": kondratiev_streit(0.5),
    "ks075": kondratiev_streit(0.75), "g1": iterated_exp_sqrt(1),
    "g2": iterated_exp_sqrt(2), "g3": iterated_exp_sqrt(3),
    "u2": bell_series(2), "u3": bell_series(3),
    "exp0.1": exponential(0.1), "exp10": exponential(10.0),
}


@pytest.mark.parametrize("fid", EVALUATOR_SPECS)
def test_evaluator_table_agrees_with_the_sequence(fid):
    spec = EVALUATOR_SPECS[fid]
    got = LFunctionEvaluator.from_spec(spec, n_max=300).table
    want = legendre_sequence(spec, 300)
    assert np.array_equal(got.t, want.t)
    assert (got.log_ell[0], got.r_star[0]) == (want.log_ell[0], want.r_star[0])
    assert _close(got.log_ell, want.log_ell, 1e-12)
    # The ternary's r* is good to about sqrt(eps) only.
    np.testing.assert_allclose(got.r_star[1:], want.r_star[1:], rtol=1e-6)


@pytest.mark.parametrize("fid", ["ks0", "ks05", "ks075", "exp0.1", "exp10"])
def test_evaluator_table_matches_the_closed_forms(fid):
    spec = EVALUATOR_SPECS[fid]
    table = LFunctionEvaluator.from_spec(spec).table
    t = table.t[1:]
    if spec.kind == "kondratiev_streit":
        b1 = 1.0 + spec.beta
        want_r, want_l = t**b1, b1 * t * (1.0 - np.log(t))
    else:
        want_r, want_l = t / spec.c, t - t * np.log(t / spec.c)
    np.testing.assert_allclose(table.r_star[1:], want_r, rtol=1e-12)
    assert _close(table.log_ell[1:], want_l, 1e-12)


def test_evaluator_makes_no_ternary_solve_past_t_zero(monkeypatch):
    from growthcalc import legendre

    ts = []
    ternary = legendre.legendre_transform

    def recording(spec, t, *args, **kwargs):
        ts.append(t)
        return ternary(spec, t, *args, **kwargs)

    monkeypatch.setattr(legendre, "legendre_transform", recording)
    for spec in EVALUATOR_SPECS.values():
        LFunctionEvaluator.from_spec(spec, n_max=40)
    assert all(t == 0.0 for t in ts)


def test_evaluator_raises_what_the_sequence_raises():
    spec = power_series([0.0, 0.0, -math.log(2.0), -math.log(6.0)])
    with pytest.raises(UnboundedBelowError) as want:
        legendre_sequence(spec, 10)
    with pytest.raises(UnboundedBelowError) as got:
        LFunctionEvaluator.from_spec(spec, n_max=10)
    assert str(got.value) == str(want.value) and "t=4;" in str(got.value)


# ---------------------------------------------------------------------------
# L-function
# ---------------------------------------------------------------------------


def test_l_function_at_zero_is_log_one(evaluators):
    assert l_function(evaluators["ks0"], 0.0) == 0.0


def test_l_function_matches_direct_sum(evaluators):
    # independent oracle: sum exp(n(1 - log n)) r^n with exact coefficients
    for r in (0.5, 1.0, 2.0):
        terms = [1.0] + [
            math.exp(n * (1.0 - math.log(n)) + n * math.log(r))
            for n in range(1, 700)
        ]
        oracle = math.log(math.fsum(terms))
        assert l_function(evaluators["ks0"], r) == pytest.approx(oracle, rel=1e-10)


def test_l_function_frozen_point(evaluators):
    # L_u(1) for the minimal growth function; value pinned by the direct sum
    assert l_function(evaluators["ks0"], 1.0) == pytest.approx(
        1.8840955903719718, rel=1e-9
    )


def test_l_function_truncation_failure_reports_ratio():
    ev = LFunctionEvaluator.from_spec(kondratiev_streit(0.0), n_max=40)
    with pytest.raises(InsufficientTableError) as exc:
        l_function(ev, 1e8)
    assert exc.value.n_max == 40
    assert exc.value.last_ratio > 1.0


def test_l_function_rejects_negative_radius(evaluators):
    with pytest.raises(ParameterError):
        l_function(evaluators["ks0"], -0.5)


def test_wide_range_agrees_with_table_rule(evaluators):
    # r = 400 is inside both regimes for beta = 0
    ev = evaluators["ks0"]
    table_value = l_function(ev, 400.0)
    integral_value = l_function_integral(kondratiev_streit(0.0), 400.0)
    assert integral_value == pytest.approx(table_value, rel=1e-9)
    assert l_function_wide(ev, 400.0) == pytest.approx(table_value, rel=1e-9)


def test_wide_range_matches_saddle_point(evaluators):
    # For the minimal function, log L(r) = r + (1/2) log(2 pi r) + O(1/r).
    ev = evaluators["ks0"]
    for r in (1e5, 1e7, 5e8):
        saddle = r + 0.5 * math.log(2.0 * math.pi * r)
        assert l_function_wide(ev, r) == pytest.approx(saddle, rel=1e-9)


def test_wide_range_dispatch_beyond_table(evaluators):
    # at r = 900 the 1200-term truncation rule cannot trigger for beta = 0,
    # so the wide evaluator must switch to the integral transparently
    ev = evaluators["ks0"]
    with pytest.raises(InsufficientTableError):
        l_function(ev, 900.0)
    assert l_function_wide(ev, 900.0) == pytest.approx(
        l_function_integral(kondratiev_streit(0.0), 900.0), rel=1e-12
    )


def test_l_function_monotone_in_radius(evaluators):
    ev = evaluators["g2"]
    values = [l_function(ev, r) for r in (0.0, 0.1, 1.0, 5.0, 25.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# L-function on arrays of radii
# ---------------------------------------------------------------------------

#: Runs from r = 0 through the table rule into the Laplace rule for every
#: evaluator below, over more than one block of radii.
RULE_CROSSING_GRID = np.concatenate([[0.0], np.geomspace(1e-4, 1.5e9, 90)])


@pytest.fixture(scope="module")
def kind_evaluators(evaluators, u2):
    """One evaluator per catalog kind (u2 with a shorter table: its
    transforms are the slow ones)."""
    return {
        **{fid: evaluators[fid] for fid in ("ks0", "ks05", "g2", "g3")},
        "exp2": LFunctionEvaluator.from_spec(exponential(2.0)),
        "u2": LFunctionEvaluator.from_spec(u2, n_max=200),
    }


def _table_rule_applies(ev, r):
    try:
        l_function(ev, r)
    except InsufficientTableError:
        return False
    return True


@pytest.mark.parametrize("fid", ["ks0", "ks05", "g2", "g3", "exp2", "u2"])
def test_l_functions_on_arrays_match_lone_calls(kind_evaluators, fid):
    ev = kind_evaluators[fid]
    grid = RULE_CROSSING_GRID
    table = np.array([_table_rule_applies(ev, float(r)) for r in grid])
    assert table[0] and not table[-1] and 0 < table.sum() < grid.size
    wide = l_function_wide(ev, grid)
    np.testing.assert_allclose(
        wide, [l_function_wide(ev, float(r)) for r in grid], rtol=1e-13
    )
    np.testing.assert_allclose(
        l_function(ev, grid[table]),
        [l_function(ev, float(r)) for r in grid[table]],
        rtol=1e-13,
    )
    laplace = l_function_integral(ev.spec, grid[~table])
    np.testing.assert_allclose(
        laplace, [l_function_integral(ev.spec, float(r)) for r in grid[~table]],
        rtol=1e-13,
    )
    np.testing.assert_allclose(wide[~table], laplace, rtol=1e-13)


@pytest.mark.parametrize("fid,r,expect", [
    ("ks0", 1e8, 100000010.1292794),
    ("ks05", 2.0, 3.299701718261836),
    ("ks05", 1e4, 700.0245845899242),
    ("g2", 1e4, 432.5432434126663),
    ("g3", 1e8, 29806.92141696703),
    ("u2", 2.0, 2.239320836531081),
    ("u2", 1e8, 53640.761078519834),
])
def test_l_function_wide_pinned_values(kind_evaluators, fid, r, expect):
    # reference values from evaluating one radius per call
    ev = kind_evaluators[fid]
    value = l_function_wide(ev, np.array([1.0, r]))[1]
    assert value == pytest.approx(expect, rel=1e-10)


def test_l_functions_keep_the_input_shape(evaluators):
    ev = evaluators["ks0"]
    for value in (
        l_function(ev, np.float64(2.0)),
        l_function(ev, np.array(2.0)),
        l_function_wide(ev, np.array(900.0)),
        l_function_integral(ev.spec, np.array(900.0)),
    ):
        assert type(value) is float
    assert l_function_wide(ev, np.array([[2.0, 900.0]])).shape == (1, 2)
    assert l_function_wide(ev, np.array([])).shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize("name", ["l_function", "l_function_wide", "l_function_integral"])
def test_l_functions_reject_a_bad_radius_anywhere(evaluators, name, bad):
    ev = evaluators["ks0"]
    call, good = {
        "l_function": (lambda rs: l_function(ev, rs), 2.0),
        "l_function_wide": (lambda rs: l_function_wide(ev, rs), 900.0),
        "l_function_integral": (lambda rs: l_function_integral(ev.spec, rs), 900.0),
    }[name]
    radii = np.full(70, good)
    radii[67] = bad
    with pytest.raises(ParameterError):
        call(radii)


def test_evaluator_needs_more_than_the_constant_term():
    for n_max in (0, -1):
        with pytest.raises(ParameterError):
            LFunctionEvaluator.from_spec(kondratiev_streit(0.0), n_max=n_max)


def test_insufficient_table_error_names_the_first_failing_radius():
    ev = LFunctionEvaluator.from_spec(kondratiev_streit(0.0), n_max=40)
    radii = np.concatenate([np.full(70, 1.0), [1e8, 1e9]])
    with pytest.raises(InsufficientTableError, match=r"r=1e\+08") as exc:
        l_function(ev, radii)
    with pytest.raises(InsufficientTableError) as lone:
        l_function(ev, 1e8)
    assert exc.value.last_ratio == lone.value.last_ratio
    assert exc.value.n_max == 40


@pytest.mark.parametrize("bad,what", [
    (1e10, "beyond the wide-evaluation range"),
    (1e-9, "below the wide-evaluation range"),
    (1.0, "clipped at the wide-domain edge"),
])
def test_capacity_errors_name_the_first_offending_radius(bad, what):
    radii = np.concatenate([np.full(70, 1e3), [bad, 1.5 * bad]])
    with pytest.raises(CapacityError, match=re.escape(f"r={bad:g} ")) as exc:
        l_function_integral(kondratiev_streit(0.0), radii)
    assert what in str(exc.value)


# ---------------------------------------------------------------------------
# biduality
# ---------------------------------------------------------------------------


def test_bidual_recovers_log_u(catalog):
    for fid, spec in catalog.items():
        for r in (1e-3, 1.0, 57.3, 1e4):
            expect = spec.log_u(r)
            assert bidual(spec, r) == pytest.approx(expect, rel=1e-8, abs=1e-8), fid


def test_bidual_cap_too_small():
    with pytest.raises(CapTooSmallError):
        bidual(kondratiev_streit(0.0), math.exp(2.0), t_cap=5.0)


#: One spec per kind, with a Bell series of each order and a finite power
#: series (degree 3), whose supremum the old search over t in [0, t_cap]
#: could not find: it probed t far past the degree.
BIDUAL_SPECS = {
    "ks0": kondratiev_streit(0.0), "ks05": kondratiev_streit(0.5),
    "g1": iterated_exp_sqrt(1), "g2": iterated_exp_sqrt(2), "g3": iterated_exp_sqrt(3),
    "u2": bell_series(2), "u3": bell_series(3),
    "exp1": exponential(1.0), "exp2.5": exponential(2.5),
    "degree-3": power_series([0.0, 0.0, -math.log(2.0), -math.log(6.0)]),
}


@pytest.mark.parametrize("name", BIDUAL_SPECS, ids=str)
def test_bidual_is_log_u_to_rounding(name):
    spec = BIDUAL_SPECS[name]
    radii = (1e-3, 0.5, 1.0, 40.0, 1e4)
    got = np.array([bidual(spec, r) for r in radii])
    assert _close(got, np.array([spec.log_u(r) for r in radii]), 1e-13), name


def test_bidual_makes_no_ternary_solve_past_t_zero(monkeypatch):
    from growthcalc import legendre

    ts = []
    ternary = legendre.legendre_transform

    def recording(spec, t, *args, **kwargs):
        ts.append(t)
        return ternary(spec, t, *args, **kwargs)

    monkeypatch.setattr(legendre, "legendre_transform", recording)
    for spec in BIDUAL_SPECS.values():
        bidual(spec, 40.0)
    assert ts and all(t == 0.0 for t in ts)


def test_bidual_error_texts(u2):
    for r in (0.99 * u2.series_cap, 1.5 * u2.series_cap):
        with pytest.raises(CapacityError) as exc:
            bidual(u2, r)
        assert str(exc.value) == (
            f"the supremum for r={r:g} needs t beyond the faithful range of u2")
    with pytest.raises(CapTooSmallError) as exc:
        bidual(exponential(1.0), 5e6)
    assert str(exc.value) == "objective still rising at t_cap=4e+06 for r=5e+06; raise t_cap"
    for spec in (u2, kondratiev_streit(0.0)):
        for r in (math.nan, -1.0, math.inf):
            with pytest.raises(ParameterError, match="bidual requires finite r >= 0"):
                bidual(spec, r)
    with pytest.raises(ParameterError, match="t_cap must be positive"):
        bidual(u2, 1.0, t_cap=0.0)


def test_bidual_solves_the_grid_infimum_once_per_spec(monkeypatch):
    from growthcalc import legendre

    calls = []
    grid = legendre.log_u_grid
    monkeypatch.setattr(legendre, "log_u_grid", lambda *a: calls.append(a) or grid(*a))
    legendre._grid_infimum.cache_clear()
    spec = BIDUAL_SPECS["degree-3"]
    bidual(spec, 40.0)
    assert len(calls) == 1
    bidual(spec, 40.0)
    assert len(calls) == 1


def test_bidual_where_the_slope_underflows():
    # u(r) = 1 + e^-800 r: d log u / d log r is 0 in doubles, so t* = 0.
    assert bidual(power_series([0.0, -800.0]), 1.0) == 0.0


def test_bidual_at_zero(catalog):
    assert bidual(catalog["ks0"], 0.0) == 0.0


# ---------------------------------------------------------------------------
# pinned values: the solver, the bidual and log u grids, bit for bit
# ---------------------------------------------------------------------------

PINNED_SPECS = {
    "ks0": kondratiev_streit(0.0),
    "ks0.37": kondratiev_streit(0.37),
    "exp2.5": exponential(2.5),
    "g1": iterated_exp_sqrt(1),
    "g3": iterated_exp_sqrt(3),
    "u2": bell_series(2),
    "u3": bell_series(3),
}

# Per function: (log ell(n), r*(n)) of legendre_sequence(spec, 30) at
# n = 1, 7, 30; bidual at r = 0.5, 40; log_u_grid at r = 0, 0.3, 7, 1e5.
PINNED = {
    "ks0": (
        [
            (1.0, 0.9999999849092844),
            (-6.621371043387193, 6.999999991824242),
            (-72.03592144986466, 29.999999262199058),
        ],
        [0.5, 40.0],
        [0.0, 0.3, 7.0, 100000.0],
    ),
    "ks0.37": (
        [
            (1.3700000000000003, 0.999999972469817),
            (-9.071278329440451, 14.380842137242443),
            (-98.68921238631458, 105.5981021206987),
        ],
        [0.8260201531401707, 20.235196315688626],
        [0.0, 0.568927922942502, 5.6699659442315555, 6114.424737791278],
    ),
    "exp2.5": (
        [
            (1.9162907318741553, 0.39999999260845953),
            (-0.20733592026810843, 2.7999999931433432),
            (-44.54719949364001, 11.999999768292577),
        ],
        [1.25, 100.0],
        [0.0, 0.75, 17.5, 250000.0],
    ),
    "g1": (
        [
            (1.8739534774775524, 0.582386979315196),
            (-5.04415371550672, 7.798463176438231),
            (-79.82929094215964, 54.288351403487205),
        ],
        [1.1892071150027212, 31.810829150682025],
        [0.0, 0.8107200928842205, 8.607034141317701, 11246.826503806982],
    ),
    "g3": (
        [
            (2.0, 0.9999999755065655),
            (-13.242742086774387, 48.99999918593587),
            (-139.08359742201006, 601.3774449750994),
        ],
        [1.414213562373095, 12.649110640673516],
        [0.0, 1.0954451150103321, 5.291502622129181, 836.7372770761706],
    ),
    "u2": (
        [
            (0.7527148961198944, 1.6168352511632107),
            (-13.642529113994978, 31.76846133471498),
            (-127.40289378446498, 360.5827737209901),
        ],
        [0.4490642951273612, 12.30002591661469],
        [-0.0, 0.2802214821746374, 3.73952514283006, 1267.5427595084436],
    ),
    "u3": (
        [
            (0.6388033094614167, 2.067739505763367),
            (-16.773762214303304, 57.971350675404324),
            (-146.94498888878053, 786.0386307968259),
        ],
        [0.4340181729464122, 9.306623982059165],
        [-0.0, 0.2741261157321584, 3.1383015744141867, 749.780571933995],
    ),
}


@pytest.mark.parametrize("name", PINNED, ids=str)
def test_pinned_transform_bidual_and_grid_values(name):
    spec = PINNED_SPECS[name]
    seq_want, bidual_want, grid_want = PINNED[name]
    seq = legendre_sequence(spec, 30)
    assert [(seq.log_ell[n], seq.r_star[n]) for n in (1, 7, 30)] == seq_want
    assert [bidual(spec, r) for r in (0.5, 40.0)] == bidual_want
    assert _close(np.array(bidual_want), np.array([spec.log_u(r) for r in (0.5, 40.0)]),
                  1e-13)
    assert log_u_grid(spec, np.array([0.0, 0.3, 7.0, 1e5])).tolist() == grid_want


def test_table_rule_sums_past_its_window_when_ratios_rise_again():
    # Terms fall by e^-1 up to n = 20, then only by e^-0.05: at r = 1 the
    # rule triggers at once but stops only near n = 223, far past the 46
    # terms a log-concave table would need; at r = 0.5 it stops early.
    n = np.arange(401, dtype=float)
    log_ell = np.where(n <= 20, -n, -20.0 - 0.05 * (n - 20))
    table = LegendreTable("kinked", n, log_ell, np.ones_like(n))
    evaluator = LFunctionEvaluator(kondratiev_streit(0.0), table)
    vals = l_function(evaluator, np.array([0.5, 1.0]))
    assert vals.tolist() == [0.20326705491487954, 0.4586751700397648]
    head = log_ell[:224]
    assert vals[1] == pytest.approx(math.log(np.exp(head).sum()), rel=1e-14)


# ---------------------------------------------------------------------------
# the batched Newton transform behind the continuous-ell spline
# ---------------------------------------------------------------------------


def _close(got, want, rel):
    """Each entry within ``rel`` of ``max(1, |want|)``."""
    return bool((np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want))).all())


def _exp_polynomial(degree):
    """``sum_{n <= degree} r^n / n!``: a power series with a finite degree."""
    return power_series([-math.lgamma(n + 1.0) for n in range(degree + 1)])


@pytest.fixture(scope="module")
def spline_specs(catalog, u2):
    return {**catalog, "ks075": kondratiev_streit(0.75), "exp2": exponential(2.0),
            "u2": u2}


@pytest.mark.parametrize("fid", ["ks0", "ks025", "ks05", "ks075", "g2", "g3", "exp2", "u2"])
def test_newton_transform_matches_the_ternary_at_the_spline_knots(spline_specs, fid):
    from growthcalc.legendre import _continuous_ell, _newton_transform

    spec = spline_specs[fid]
    ts = np.asarray(_continuous_ell(spec).ts[::7])
    log_ell, r_star, err = _newton_transform(spec, ts)
    assert err is None
    want = np.array([legendre_transform(spec, t) for t in ts])
    assert _close(log_ell, want[:, 0], 1e-12)
    # The ternary's r* is good to about sqrt(eps) only.
    np.testing.assert_allclose(r_star, want[:, 1], rtol=1e-6)
    if spec.kind == "kondratiev_streit":
        b1 = 1.0 + spec.beta
        np.testing.assert_allclose(r_star, ts**b1, rtol=1e-12)
        assert _close(log_ell, b1 * ts * (1.0 - np.log(ts)), 1e-12)


def test_newton_transform_of_a_power_series():
    from growthcalc.legendre import _newton_transform

    spec = _exp_polynomial(60)
    ts = np.geomspace(1e-4, 55.0, 60)
    log_ell, r_star, err = _newton_transform(spec, ts)
    assert err is None
    want = np.array([legendre_transform(spec, t) for t in ts])
    assert _close(log_ell, want[:, 0], 1e-12)
    np.testing.assert_allclose(r_star, want[:, 1], rtol=1e-6)


@pytest.mark.parametrize("case", ["u2-past-t_sup", "degree-3"])
def test_newton_transform_errors_match_the_ternary(u2, case):
    from growthcalc.legendre import _continuous_ell, _newton_transform

    if case == "degree-3":
        spec, bad = power_series([0.0, 0.0, -math.log(2.0), -math.log(6.0)]), 3.5
        with pytest.raises(UnboundedBelowError, match="for t=64;"):
            _continuous_ell(spec)
    else:
        spec, bad = u2, u2.t_sup * (1.0 + 1e-9)
    with pytest.raises((CapacityError, UnboundedBelowError)) as want:
        legendre_transform(spec, bad)
    log_ell, r_star, err = _newton_transform(spec, np.array([1.0, bad, 2.0 * bad]))
    assert type(err) is type(want.value) and str(err) == str(want.value)
    assert np.isfinite(log_ell[0]) and np.isnan(log_ell[1:]).all() and np.isnan(r_star[1:]).all()


#: t_hi of the continuous-ell spline, as the ternary-built spline had it.
SPLINE_T_HI = {
    "ks0": 2470255018.5001655, "ks025": 38668743.46252072, "ks05": 2432048.9656301807,
    "ks075": 308683.6, "g2": 308683.6, "g3": 155851.34140754517,
    "exp2": 4940129944.4, "u2": 216845.51679999998,
}


@pytest.mark.parametrize("fid", EVALUATOR_SPECS)
def test_spline_top_rung_is_the_first_whose_minimizer_reaches_r_wide(fid):
    from growthcalc.legendre import _R_WIDE, _continuous_ell, _newton_transform

    spec = EVALUATOR_SPECS[fid]
    t_sup_eff = min(spec.t_sup * 0.94, 1e10)
    ladder = [64.0]
    while ladder[-1] < t_sup_eff:
        ladder.append(2.0 * ladder[-1])
    ladder = np.minimum(ladder, t_sup_eff)
    _, r_star, err = _newton_transform(spec, ladder)
    assert err is None
    reached = np.append(r_star[:-1] >= _R_WIDE, True)
    rung = float(ladder[reached.argmax()])
    t_hi = min(1.15 * rung + 14.0 * math.sqrt(rung) + 50.0, t_sup_eff)
    assert _continuous_ell(spec).t_hi == t_hi


@pytest.mark.parametrize("fid", SPLINE_T_HI)
def test_spline_grid_is_unchanged_and_built_without_ternary_solves(
        spline_specs, monkeypatch, fid):
    import warnings

    from growthcalc import legendre

    def no_ternary(*args, **kwargs):
        raise AssertionError("the spline build called legendre_transform")

    monkeypatch.setattr(legendre, "legendre_transform", no_ternary)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ce = legendre._continuous_ell.__wrapped__(spline_specs[fid])
    assert ce.t_hi == SPLINE_T_HI[fid]
    assert np.array_equal(ce.sigma, np.linspace(math.log(1e-4), math.log(ce.t_hi), 1200))
    assert np.isfinite(ce.f).all()


def test_hermite_spline_is_exact_on_a_cubic():
    from growthcalc.legendre import _Hermite

    p = np.polynomial.Polynomial([0.3, -1.0, 0.5, 0.25])
    x = np.linspace(-1.0, 2.0, 13)
    spline = _Hermite(x, p(x), p.deriv()(x))
    s = np.array([[-1.5, -1.0, 0.1], [0.75, 2.0, 2.5]])  # ends, knots, past both ends
    v, d1, d2 = spline(s, 2)
    for got, want in ((v, p(s)), (d1, p.deriv()(s)), (d2, p.deriv(2)(s))):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    assert np.array_equal(spline(s), v) and np.array_equal(spline(s, 1)[1], d1)


def test_importing_the_package_leaves_scipy_integrate_and_interpolate_out():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import growthcalc

    src = str(Path(growthcalc.__file__).resolve().parents[1])
    code = ("import sys, growthcalc; "
            "print([m for m in ('scipy.integrate', 'scipy.interpolate') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"
