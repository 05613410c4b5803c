"""Legendre transform, tables, L-function evaluation, biduality."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from growthcalc import (
    BELL_SERIES,
    CapacityError,
    InsufficientTableError,
    LFunctionEvaluator,
    LegendreTable,
    ParameterError,
    UnboundedBelowError,
    bell_series,
    bidual,
    check_conditions,
    default_r_grid,
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


def test_transform_raises_where_t_log_r_overflows():
    # exp(1e300 r): at t = 1e307 and 1.7e308, t s overflows on the bracket,
    # phi read inf - inf and the ternary returned NaN.  At t = 1e306 it
    # does not, and the row keeps its bits (r* = t / c).
    spec = exponential(1e300)
    for t in (1e307, 1.7e308):
        with pytest.raises(CapacityError, match="t log r overflows a double"):
            legendre_transform(spec, t)
    assert legendre_transform(spec, 1e306) == (-1.2815510557964274e+307, 999999.9420174402)


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


def test_table_leaves_the_callers_arrays_writeable():
    ks05 = kondratiev_streit(0.5)
    ts = np.arange(1.0, 5.0)
    table = legendre_table(ks05, ts)
    ts[0] = 7.0
    assert np.array_equal(table.t, np.arange(1.0, 5.0)) and not table.t.flags.writeable
    assert table.log_ell[0] == legendre_transform(ks05, 1.0)[0]


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


def test_ternary_tables_make_one_log_u_call_per_probe(monkeypatch):
    # The published tables keep the ternary search bit for bit, so they make
    # the same traced log_u calls as before its probes were written out.
    from growthcalc import growth

    calls = []
    log_u = growth.GrowthFunctionSpec.log_u

    def counted(self, r):
        calls.append(r)
        return log_u(self, r)

    monkeypatch.setattr(growth.GrowthFunctionSpec, "log_u", counted)
    legendre_table(kondratiev_streit(0.5), np.arange(0.5, 50.01, 0.25))
    assert len(calls) == 28873
    calls.clear()
    legendre_sequence(iterated_exp_sqrt(3), 60)
    assert len(calls) == 8754


def test_integer_tables_share_one_read_only_t_column():
    from growthcalc import corrupt_table

    a = LFunctionEvaluator.from_spec(kondratiev_streit(0.5)).table
    b = LFunctionEvaluator.from_spec(iterated_exp_sqrt(2)).table
    assert a.t is b.t and not a.t.flags.writeable
    assert np.array_equal(a.t, np.arange(1201.0))
    assert legendre_sequence(kondratiev_streit(0.5), 60).t is legendre_sequence(
        iterated_exp_sqrt(2), 60).t
    # A writeable column is copied and frozen; corrupt_table keeps the
    # read-only columns it does not change.
    copy = LegendreTable(a.function_id, a.t.copy(), a.log_ell, a.r_star)
    assert np.array_equal(copy.t, a.t) and not np.shares_memory(copy.t, a.t)
    assert not copy.t.flags.writeable and copy.log_ell is a.log_ell
    ell, r_star = corrupt_table(a, 3), corrupt_table(a, 3, which="r_star")
    assert ell.t is a.t and ell.r_star is a.r_star and ell.log_ell[3] != a.log_ell[3]
    assert r_star.t is a.t and r_star.log_ell is a.log_ell and r_star.r_star[3] != a.r_star[3]
    assert not (ell.log_ell.flags.writeable or r_star.r_star.flags.writeable)
    assert np.array_equal(b.t, np.arange(1201.0))


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


@pytest.mark.parametrize("fid", EVALUATOR_SPECS)
def test_laplace_rule_agrees_with_the_table_rule_for_every_kind(fid):
    # At r*(n) the dominant index is n: deep in the table and already wide
    # enough for the integral form.
    spec = EVALUATOR_SPECS[fid]
    ev = LFunctionEvaluator.from_spec(spec)
    rs = ev.table.r_star[[200, 400, 800]]
    assert _close(l_function_integral(spec, rs), l_function(ev, rs), 1e-12)


def test_wide_range_matches_saddle_point(evaluators):
    # For the minimal function, log L(r) = r + (1/2) log(2 pi r) + O(1/r).
    ev = evaluators["ks0"]
    for r in (1e5, 1e7, 5e8):
        saddle = r + 0.5 * math.log(2.0 * math.pi * r)
        assert l_function_wide(ev, r) == pytest.approx(saddle, rel=1e-9)


def test_wide_range_dispatch_beyond_table(evaluators):
    # the 1200-term table bounds its tail only up to r ~ 973 for beta = 0, so
    # at r = 1000 the wide evaluator must switch to the integral transparently
    ev = evaluators["ks0"]
    with pytest.raises(InsufficientTableError):
        l_function(ev, 1000.0)
    assert l_function_wide(ev, 1000.0) == pytest.approx(
        l_function_integral(kondratiev_streit(0.0), 1000.0), rel=1e-12
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


def _lone_radius_calls(ev):
    return {
        "l_function": lambda r: l_function(ev, r),
        "l_function_wide": lambda r: l_function_wide(ev, r),
        "l_function_integral": lambda r: l_function_integral(ev.spec, r),
    }


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize("name", ["l_function", "l_function_wide", "l_function_integral"])
def test_l_functions_reject_a_bad_lone_radius_with_the_array_text(evaluators, name, bad):
    call = _lone_radius_calls(evaluators["ks0"])[name]
    with pytest.raises(ParameterError) as array:
        call(np.array([bad]))
    for r in (bad, np.float64(bad), np.array(bad)):
        with pytest.raises(ParameterError) as lone:
            call(r)
        domain = "(0, inf)" if name == "l_function_integral" else "[0, inf)"
        assert str(lone.value) == str(array.value) == f"r must be a number in {domain}, got {bad}"


@pytest.mark.parametrize("name,radii", [
    ("l_function", [0.0, 2.0, 40.0]),
    ("l_function_wide", [0.0, 2.0, 900.0, 1e8]),
    ("l_function_integral", [400.0, 900.0, 1e8]),
])
def test_a_lone_radius_returns_the_array_paths_value_as_a_float(evaluators, name, radii):
    call = _lone_radius_calls(evaluators["ks05"])[name]
    for r in radii:
        want = call(np.array([r]))[0]
        for lone in (r, np.float64(r), np.array(r)):
            got = call(lone)
            assert type(got) is float and got == want, (r, got, want)


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


def test_insufficient_table_error_holds_a_last_ratio_past_the_double_range():
    ev = LFunctionEvaluator.from_spec(exponential(1e6), n_max=50)
    with pytest.raises(InsufficientTableError) as exc:
        l_function(ev, 1e308)
    assert exc.value.last_ratio == math.inf


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


#: One spec per kind, with a Bell series of each order and a finite power
#: series (degree 3), whose slope t* stays below its degree.
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
    assert ts == []


def test_bidual_error_texts(u2):
    for r in (0.99 * u2.faithful_cap, 1.5 * u2.faithful_cap):
        with pytest.raises(CapacityError) as exc:
            bidual(u2, r)
        assert str(exc.value) == (
            f"the supremum for r={r:g} needs t beyond the faithful range of u2")
    for spec in (u2, kondratiev_streit(0.0)):
        for r in (math.nan, -1.0, math.inf):
            with pytest.raises(ParameterError, match=re.escape(
                    f"r must be a number in [0, inf), got {r}")):
                bidual(spec, r)


@pytest.mark.parametrize("spec,r", [
    (exponential(1.0), 5e6),
    (kondratiev_streit(0.5), 1e100),
    (kondratiev_streit(0.5), math.exp(699.5)),
    (iterated_exp_sqrt(2), 1e100),
    (iterated_exp_sqrt(2), math.exp(699.5)),
    (iterated_exp_sqrt(1), math.exp(699.5)),
], ids=["exp1-5e6", "ks05-1e100", "ks05-e^699.5", "g2-1e100", "g2-e^699.5", "g1-e^699.5"])
def test_bidual_is_log_u_far_out(spec, r):
    # t* runs to 5e6 (exp1), 4.6e66 (ks05 at 1e100) and 3.4e202 (ks05 at
    # e^699.5): below s_max no cap on t is needed.  g1 at e^699.5 is past
    # the r ~ 1e206 where its kernel's r * sqrt(r) overflows.
    assert math.isfinite(spec.log_u(r))
    assert _close(np.array([bidual(spec, r)]), np.array([spec.log_u(r)]), 1e-13)


@pytest.mark.parametrize("spec,r", [
    (kondratiev_streit(0.0), math.exp(700.5)),
    (kondratiev_streit(0.5), math.exp(701.0)),
    (iterated_exp_sqrt(2), 1e305),
    (bell_series(2), 1e300),
    (exponential(1e300), math.exp(600.0)),  # f' = 1e300 e^600 overflows
    (exponential(100.0), math.exp(699.5)),  # t* is 6e305, t* log r overflows
], ids=["ks0-e^700.5", "ks05-e^701", "g2-1e305", "u2-1e300", "exp1e300-e^600",
        "exp100-e^699.5"])
def test_bidual_past_its_range_raises_a_capacity_error(spec, r):
    with pytest.raises(CapacityError, match=re.escape(
            f"the supremum for r={r:g} needs t beyond the faithful range")):
        bidual(spec, r)


@pytest.mark.parametrize("n_max", [2.5, -1, [3]])
def test_legendre_sequence_needs_a_whole_n_max(n_max):
    # Checked before the table cache, which would raise a TypeError on a list.
    with pytest.raises(ParameterError, match=re.escape(
            "n_max must be an integer in [0, inf), got ")):
        legendre_sequence(kondratiev_streit(0.0), n_max)


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
            (0.7527148961198944, 1.6168352458238546),
            (-13.642529113994977, 31.768460842740524),
            (-127.40289378446498, 360.58276862573257),
        ],
        [0.4490642951273611, 12.30002591661469],
        [-0.0, 0.2802214821746374, 3.73952514283006, 1267.5427595084436],
    ),
    "u3": (
        [
            (0.6388033094614163, 2.067739523085224),
            (-16.7737622143033, 57.97135140016305),
            (-146.94498888878053, 786.0386209592714),
        ],
        [0.4340181729464122, 9.306623982059167],
        [-0.0, 0.2741261157321584, 3.1383015744141867, 749.7805719339951],
    ),
}


@pytest.mark.parametrize("name", PINNED, ids=str)
def test_pinned_transform_bidual_and_grid_values(name):
    spec = PINNED_SPECS[name]
    seq_want, bidual_want, grid_want = PINNED[name]
    seq = legendre_sequence(spec, 30)
    grid = [0.0, 0.3, 7.0, 1e5]
    if spec.kind == BELL_SERIES:
        # The Bell kernels interpolate on Chebyshev panels: held to the
        # oracles (for u3, the 30-digit sum of its stored coefficients), r*
        # to the ternary search's resolution.
        from growthcalc.growth import _series_logc

        ref = spec if spec.k == 2 else _series_logc(spec)
        for n in (1, 7, 30):
            want_ell, want_r = oracles.transform(ref, n)
            assert _close(seq.log_ell[n], float(want_ell), 1e-13), n
            assert seq.r_star[n] == pytest.approx(float(want_r), rel=1e-7), n
        for r in (0.5, 40.0):
            assert _close(bidual(spec, r), float(oracles.log_u(ref, r)), 1e-13), r
        got = log_u_grid(spec, np.array(grid))
        assert got[0] == 0.0
        assert _close(got[1:], np.array([float(oracles.log_u(_series_logc(spec), r))
                                         for r in grid[1:]]), 1e-14)
        return
    assert [(seq.log_ell[n], seq.r_star[n]) for n in (1, 7, 30)] == seq_want
    assert [bidual(spec, r) for r in (0.5, 40.0)] == bidual_want
    assert _close(np.array(bidual_want), np.array([spec.log_u(r) for r in (0.5, 40.0)]),
                  1e-13)
    assert log_u_grid(spec, np.array(grid)).tolist() == grid_want


def test_u2_conditions_and_table_make_no_one_element_s_kernel_call(monkeypatch):
    # Every radius they probe is 0 or lies on a resolved panel, so the
    # scalar kernel never falls back on a one-point s-kernel call (about
    # 100 us, against about 2 us on a panel).
    from growthcalc import legendre

    u2 = bell_series(2)  # a fresh spec, whose kernel is built on the spy
    s_kernel = u2.s_kernel
    sizes = []
    rows = []

    def spy(s):
        sizes.append(s.size)
        return s_kernel(s)

    ternary = legendre.legendre_transform
    monkeypatch.setattr(legendre, "legendre_transform",
                        lambda spec, t, *a, **k: rows.append(t) or ternary(spec, t, *a, **k))
    u2.__dict__["s_kernel"] = spy
    check_conditions(u2)
    legendre_sequence(u2, 60)
    assert len(rows) == 61  # the table was solved here, not read from the cache
    assert sizes and 1 not in sizes


def test_table_rule_sums_the_whole_table_when_ratios_rise_again():
    # Terms fall by e^-1 up to n = 20, then only by e^-0.05: the sum needs
    # terms far past the 46 a table with falling ratios would need.
    n = np.arange(401, dtype=float)
    log_ell = np.where(n <= 20, -n, -20.0 - 0.05 * (n - 20))
    table = LegendreTable("kinked", n, log_ell, np.ones_like(n))
    evaluator = LFunctionEvaluator(kondratiev_streit(0.0), table)
    for r, val in zip((0.5, 1.0), l_function(evaluator, np.array([0.5, 1.0]))):
        want = math.log(math.fsum(np.exp(log_ell + n * math.log(r))))
        assert val == pytest.approx(want, rel=1e-14, abs=0.0), r


@pytest.mark.parametrize("fid", EVALUATOR_SPECS)
def test_table_rule_floor_leaves_every_sum_unchanged(fid):
    # The rule raises shifted log terms below e^-700 before exponentiating;
    # here every term is summed as it is, and the accept bound recomputed.
    from growthcalc.legendre import _L_REL_TOL, _table_rule

    table = LFunctionEvaluator.from_spec(EVALUATOR_SPECS[fid]).table
    rs = np.concatenate([default_r_grid(), np.geomspace(1e-9, 1e4, 3000)])
    lt = np.log(np.where(rs == 0.0, 1.0, rs))[:, None] * table.t + table.log_ell
    m = lt.max(axis=1)
    want = m + np.log(np.exp(lt - m[:, None]).sum(axis=1))
    log_rho = np.minimum(lt[:, -1] - lt[:, -2], -1e-12)
    tail = lt[:, -1] + log_rho - np.log1p(-np.exp(log_rho))
    want[~(tail <= math.log(_L_REL_TOL) + want)] = np.nan
    want[rs == 0.0] = table.log_ell[0]
    got, _ = _table_rule(table, rs)
    assert (lt - m[:, None] < -708.0).any()  # the grid reaches numpy's underflow
    assert np.isnan(want).any() and not np.isnan(want).all()
    assert np.array_equal(got, want, equal_nan=True)


def _full_table_rule(table, rs):
    """The table rule over every stored term, as first written: values,
    NaN where the tail bound fails, and the first failure's text and last
    ratio."""
    from growthcalc.legendre import _EXP_FLOOR, _L_REL_TOL

    le = table.log_ell
    zero = rs == 0.0
    lt = np.multiply.outer(np.log(np.where(zero, 1.0, rs)), table.t) + le
    log_last = lt[:, -1] - lt[:, -2]
    log_rho = np.minimum(log_last, -1e-12)
    tail = lt[:, -1] + log_rho - np.log1p(-np.exp(log_rho))
    m = lt.max(axis=1)
    vals = m + np.log(np.exp(np.maximum(lt - m[:, None], _EXP_FLOOR)).sum(axis=1))
    failed = ~(tail <= math.log(_L_REL_TOL) + vals) & ~zero
    vals[zero] = le[0]
    vals[failed] = np.nan
    if not failed.any():
        return vals, None
    j = int(failed.argmax())
    with np.errstate(over="ignore"):
        last = float(np.exp(log_last[j]))
    return vals, (f"the terms past n={le.size - 1} are not bounded by {_L_REL_TOL:g} of "
                  f"the sum at r={rs[j]:g} (last term ratio {last:.3g})", last)


@pytest.mark.parametrize("fid", EVALUATOR_SPECS)
def test_windowed_table_rule_matches_the_full_sum(fid):
    # Lone radii sum their own peak windows, blocks of 64 shuffled radii the
    # union of theirs: within 4 ulp of max(1, |value|) of the sum over every
    # stored term, with the same NaN rows and the same first error.
    from growthcalc.legendre import _BLOCK, _table_rule

    table = LFunctionEvaluator.from_spec(EVALUATOR_SPECS[fid]).table
    rs = np.concatenate([[0.0], np.geomspace(1e-9, 1e9, 1500)])
    np.random.default_rng(22).shuffle(rs)
    want, _ = _full_table_rule(table, rs)
    lone = np.array([_table_rule(table, rs[i:i + 1])[0][0] for i in range(rs.size)])
    blocks = [_table_rule(table, rs[i:i + _BLOCK]) for i in range(0, rs.size, _BLOCK)]
    assert np.isnan(want).any() and not np.isnan(want).all()
    for got in (lone, np.concatenate([vals for vals, _ in blocks])):
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert (np.abs(got[ok] - want[ok]) <= 4 * np.spacing(np.maximum(1.0, np.abs(want[ok])))).all()
    for i, (_, err) in zip(range(0, rs.size, _BLOCK), blocks):
        want_err = _full_table_rule(table, rs[i:i + _BLOCK])[1]
        assert (err is None) == (want_err is None)
        if err is not None:
            assert (str(err), err.last_ratio) == want_err


def test_table_windows_go_with_their_table_and_stay_bounded():
    import gc

    from growthcalc.legendre import _WINDOWS, _table_rule
    from growthcalc.growth import _SPEC_CACHE

    n = np.arange(41.0)
    tables = [LegendreTable(f"t{k}", n, -n * np.log1p(n) / (k + 1.0), np.ones_like(n))
              for k in range(_SPEC_CACHE + 6)]
    for table in tables:
        _table_rule(table, np.array([0.5, 2.0]))
        assert len(_WINDOWS) <= _SPEC_CACHE
    # The last _SPEC_CACHE tables hold every entry, and take them along.
    assert all(t in _WINDOWS for t in tables[6:]) and len(_WINDOWS) == _SPEC_CACHE
    del table, tables
    gc.collect()
    assert len(_WINDOWS) == 0


@pytest.mark.parametrize("fid", ["ks0", "ks05", "g2", "g3", "exp2", "u2"])
def test_laplace_peak_knot_is_the_argmax_over_every_knot(spline_specs, fid):
    from growthcalc.legendre import _continuous_ell, _peak_knot

    ce = _continuous_ell(spline_specs[fid])
    lr = np.linspace(-20.0, 25.0, 20001)
    want = np.concatenate([np.argmax(ce.ts * (ce.f + lr[i:i + 1000, None]), axis=1)
                           for i in range(0, lr.size, 1000)])
    assert np.array_equal(_peak_knot(ce, lr), want)


# ---------------------------------------------------------------------------
# the batched Newton transform behind the continuous-ell spline
# ---------------------------------------------------------------------------


def _close(got, want, rel):
    """Each entry within ``rel`` of ``max(1, |want|)``; where ``want`` is
    infinite or NaN, ``got`` must equal it."""
    got, want = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(want, dtype=float))
    finite = np.isfinite(want)
    with np.errstate(invalid="ignore"):  # inf - inf, where want is not finite
        near = np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want))
    return bool(np.where(finite, near, got == want).all())


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
    log_ell, r_star = _newton_transform(spec, ts)
    want = np.array([legendre_transform(spec, t) for t in ts])
    assert _close(log_ell, want[:, 0], 1e-12)
    # The ternary's r* is good to about sqrt(eps) only.
    np.testing.assert_allclose(r_star, want[:, 1], rtol=1e-6)
    if spec.kind == "bell_series":
        # Every tenth knot the 30-digit oracle reaches (t <= 300).
        for k in np.flatnonzero(ts <= 300.0)[::10]:
            want_ell, want_r = oracles.transform(spec, ts[k])
            assert abs(r_star[k] / float(want_r) - 1.0) <= 1e-12, ts[k]
            assert abs(log_ell[k] - float(want_ell)) <= 1e-13 * max(1.0, abs(want_ell)), ts[k]
    if spec.kind == "kondratiev_streit":
        b1 = 1.0 + spec.beta
        np.testing.assert_allclose(r_star, ts**b1, rtol=1e-12)
        assert _close(log_ell, b1 * ts * (1.0 - np.log(ts)), 1e-12)


def test_newton_transform_of_a_power_series():
    from growthcalc.legendre import _newton_transform

    spec = _exp_polynomial(60)
    ts = np.geomspace(1e-4, 55.0, 60)
    log_ell, r_star = _newton_transform(spec, ts)
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
    with pytest.raises(type(want.value)) as got:
        _newton_transform(spec, np.array([1.0, bad, 2.0 * bad]))
    assert str(got.value) == str(want.value)


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
    _, r_star = _newton_transform(spec, ladder)
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


def test_the_runtime_runs_with_scipy_blocked():
    # With sys.modules["scipy"] = None any scipy import raises; one call per
    # former scipy call site must still run, and no scipy module may load.
    # The Bell table's generator is now the tests' bell_table module, and u2
    # reads the table it wrote.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import growthcalc

    src = str(Path(growthcalc.__file__).resolve().parents[1])
    code = """if True:
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        import growthcalc as g
        from bell_table import _log_bell
        assert 0.0 < g.mittag_leffler(0.5, 30.0) < 0.1
        assert np.isfinite(g.bell_series(2).log_u(2.0))
        assert np.isfinite(g.bell_series(3).log_u(2.0))
        assert np.isfinite(g.power_series([0.0, -1.0, -3.0]).log_u(2.0))
        assert np.isfinite(_log_bell(5000)[-1])
        table = g.legendre_sequence(g.kondratiev_streit(0.0), 20)
        assert g.dual_norm(g.ChaosSequence.exponential_vector(1.0, 20), table) > 1.0
        assert g.poisson_integrability(1.0, lambda k: 0.0).finite
        assert g.grey_integrability(0.5, 0.1, n=1000, seed=0).value > 1.0
        print([m for m, mod in sys.modules.items() if mod and m.split(".")[0] == "scipy"])
    """
    tests = str(Path(__file__).resolve().parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src + os.pathsep + tests})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# the 30-digit oracle (tests/oracles.py)
# ---------------------------------------------------------------------------

_TRUNCATED_EXP = power_series([-math.lgamma(n + 1.0) for n in range(13)], label="exp12")
_ORACLE_SPECS = {
    "ks0": kondratiev_streit(0.0), "ks037": kondratiev_streit(0.37),
    "ks075": kondratiev_streit(0.75), "exp01": exponential(0.1),
    "exp25": exponential(2.5), "g1": iterated_exp_sqrt(1), "g2": iterated_exp_sqrt(2),
    "g3": iterated_exp_sqrt(3), "exp12": _TRUNCATED_EXP,
    "sparse": power_series([0.0, -math.inf, 0.0, -math.inf, -math.log(2.0)]),
}
#: g3's clamp kink at ``s = 2e`` holds the minimizers of t = 16 and 17.
_ORACLE_ROWS = (1, 2, 3, 4, 5, 7, 10, 16, 17, 30, 100, 300, 1000, 1200)
#: g2's ``r* = e^2`` at t=3 sits on its clamp kink, where ``f(s) - 3s`` has
#: slopes -0.28 and +1.08: the Newton solve alone stops within 1e-12 of it
#: in ``s``, and ``log ell`` would miss by that slope times the distance.
_KINK = ("g2", 3)


def test_oracle_reproduces_the_closed_forms():
    # ks: r* = t^(1+beta), log ell = (1+beta) t (1 - log t); exp(c): r* = t/c.
    for beta in (0.0, 0.5):
        log_ell, r_star = oracles.transform(kondratiev_streit(beta), 7.0)
        assert float(r_star) == pytest.approx(7.0 ** (1 + beta), rel=1e-25)
        assert float(log_ell) == pytest.approx((1 + beta) * 7.0 * (1 - math.log(7.0)),
                                               rel=1e-15)
    assert float(oracles.transform(exponential(2.5), 5.0)[1]) == pytest.approx(2.0, rel=1e-25)
    # g2's clamp kink at sqrt(r) = e: f' jumps from e to 1.5 e, so t = 3 sits on it.
    assert float(oracles.transform(iterated_exp_sqrt(2), 3.0)[1]) == \
           pytest.approx(math.exp(2.0), rel=1e-25)


@pytest.mark.parametrize("name", sorted(_ORACLE_SPECS))
def test_evaluator_table_matches_the_oracle(name):
    spec = _ORACLE_SPECS[name]
    degree = len(spec.log_coeffs) - 1 if spec.log_coeffs else None
    n_max = 1200 if degree is None else degree - 1
    table = LFunctionEvaluator.from_spec(spec, n_max=n_max).table
    for n in [n for n in _ORACLE_ROWS if n <= n_max]:
        want_ell, want_r = oracles.transform(spec, n)
        assert abs(table.r_star[n] / float(want_r) - 1.0) <= 1e-12, (name, n)
        assert abs(table.log_ell[n] - float(want_ell)) <= \
               1e-13 * max(1.0, abs(want_ell)), (name, n)


def test_evaluator_log_ell_on_the_g2_clamp_kink_matches_the_oracle():
    name, n = _KINK
    spec = _ORACLE_SPECS[name]
    want_ell = float(oracles.transform(spec, n)[0])
    assert want_ell == pytest.approx(2.0 * math.e - 6.0, rel=1e-15)
    got = LFunctionEvaluator.from_spec(spec, n_max=n).table.log_ell[n]
    assert abs(got - want_ell) <= 1e-13


@pytest.mark.parametrize("name", sorted(_ORACLE_SPECS))
def test_legendre_sequence_matches_the_oracle_to_its_resolution(name):
    spec = _ORACLE_SPECS[name]
    n_max = 60 if not spec.log_coeffs else len(spec.log_coeffs) - 2
    table = legendre_sequence(spec, n_max)
    for n in range(1, n_max + 1):
        want_ell, want_r = oracles.transform(spec, n)
        assert abs(table.r_star[n] / float(want_r) - 1.0) <= 1e-6, (name, n)
        assert abs(table.log_ell[n] - float(want_ell)) <= 1e-12 * max(1.0, abs(want_ell)), \
            (name, n)


@pytest.mark.parametrize("fid", ["ks0", "ks05", "exp2", "g2"])
def test_l_function_matches_the_oracle(kind_evaluators, fid):
    ev = kind_evaluators[fid]
    for r in (0.5, 5.0, 50.0):
        want = float(oracles.log_l(ev.spec, r))
        assert l_function(ev, r) == pytest.approx(want, rel=1e-14, abs=0.0), r


@pytest.mark.parametrize("fid,r", [("ks0", 900.0), ("ks0", 940.0), ("exp2", 470.0),
                                   ("ks05", 3e4)])
def test_l_function_matches_the_oracle_near_the_table_reach(kind_evaluators, fid, r):
    # the last radii below where the table stops bounding its own tail
    ev = kind_evaluators[fid]
    want = float(oracles.log_l(ev.spec, r))
    assert l_function(ev, r) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_l_function_integral_matches_the_oracle():
    ks0 = kondratiev_streit(0.0)
    for r in (400.0, 900.0):
        want = float(oracles.log_l(ks0, r))
        assert l_function_integral(ks0, r) == pytest.approx(want, rel=1e-12, abs=0.0), r
