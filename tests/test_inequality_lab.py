"""Inequality verification battery, equivalence witnesses, table audits."""

from __future__ import annotations

import math

import numpy as np
import pytest

from growthcalc import (
    CHECK_IDS,
    SLACK,
    CapacityError,
    ParameterError,
    cauchy_coefficient_bound,
    check_chain_order,
    check_conditions,
    check_lemma_sqrt,
    check_lemma_square,
    check_lfunction_sandwich,
    check_table_definition,
    corrupt_table,
    equivalence_witness,
    exponential,
    iterated_exp_sqrt,
    kondratiev_streit,
    l_function_wide,
    legendre_sequence,
    log_u_grid,
    refine_grid,
    summary_table,
    verify_function,
)

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


# ---------------------------------------------------------------------------
# full battery
# ---------------------------------------------------------------------------


def test_battery_covers_all_checks(batteries):
    for fid, reports in batteries.items():
        assert tuple(r.check_id for r in reports) == CHECK_IDS, fid


def test_battery_all_pass(batteries):
    for fid, reports in batteries.items():
        for report in reports:
            assert report.passed, (fid, report.check_id, report.notes)


def test_battery_margins_above_slack(batteries):
    for fid, reports in batteries.items():
        for report in reports:
            if report.check_id in MARGIN_CHECKS:
                assert report.worst_margin is not None, (fid, report.check_id)
                assert report.worst_margin >= -SLACK, (fid, report.check_id)


def test_nth_root_reports_certificate(batteries):
    report = next(r for r in batteries["ks0"] if r.check_id == "nth-root-decay")
    assert report.constants["min_root"] < report.constants["threshold"]
    assert report.constants["n_certificate"] >= 60


def test_sandwich_constants_are_refinement_stable(batteries):
    for fid, reports in batteries.items():
        report = next(r for r in reports if r.check_id == "lseries-sandwich")
        c, c_ref = report.constants["C_part2"], report.constants["C_part2_refined"]
        assert math.isfinite(c) and c > 0
        assert abs(math.log(c_ref / c)) <= 0.1, fid


def test_equivalence_reports_have_dyadic_witnesses(batteries):
    for fid, reports in batteries.items():
        for check_id in ("equivalence-lseries", "equivalence-square"):
            report = next(r for r in reports if r.check_id == check_id)
            consts = report.constants
            for key in ("c1", "a1", "c2", "a2"):
                assert math.isfinite(consts[key]) and consts[key] > 0, (fid, check_id)
            # scale factors come from the dyadic ladder
            for key in ("a1", "a2"):
                assert math.log2(consts[key]) == int(math.log2(consts[key]))
            # the refined constants certify grid-independence
            assert abs(math.log(consts["c1_refined"] / consts["c1"])) <= 0.1
            assert abs(math.log(consts["c2_refined"] / consts["c2"])) <= 0.1


def test_battery_subset_selection():
    reports = verify_function(
        kondratiev_streit(0.5), n_max=30, checks=("log-concavity", "decreasing-tail")
    )
    assert [r.check_id for r in reports] == ["log-concavity", "decreasing-tail"]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("spec", [kondratiev_streit(0.5), iterated_exp_sqrt(3)],
                         ids=lambda s: s.function_id)
def test_battery_reports_do_not_depend_on_who_built_the_evaluator(spec, monkeypatch):
    from growthcalc import LFunctionEvaluator, inequality_lab

    checks = ("table-definition", "log-concavity", "decreasing-tail", "nth-root-decay")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return legendre_sequence(*args, **kwargs)

    monkeypatch.setattr(inequality_lab, "legendre_sequence", counted)
    own = verify_function(spec, n_max=60, checks=checks)
    given = verify_function(spec, n_max=60, evaluator=LFunctionEvaluator.from_spec(spec),
                            checks=checks)
    assert [r.to_json_dict() for r in own] == [r.to_json_dict() for r in given]
    assert calls == [(60,), (60,)]


def _brute_worst_pair(le, margin):
    """The least ``margin(n, m)`` over n + m <= N, first witness in (n, m) order."""
    worst, wit = math.inf, None
    for n in range(le.size):
        for m in range(le.size - n):
            value = margin(n, m)
            if value < worst:
                worst, wit = value, {"n": n, "m": m}
    return worst, wit


def test_pair_checks_match_a_double_loop(tables60):
    from growthcalc import LegendreTable, check_submultiplicativity, check_supermultiplicativity

    rng = np.random.default_rng(7)
    tables = list(tables60.values())
    for size in (1, 2, 9, 30):
        le = np.round(np.cumsum(rng.normal(size=size)), 1)  # rounded: ties in the margins
        tables.append(LegendreTable("random", np.arange(size, dtype=float), le, np.ones(size)))
    two = 2.0 * math.log(2.0)
    for table in tables:
        le = [float(v) for v in table.log_ell]
        for check, margin in (
            (check_submultiplicativity, lambda n, m: le[n] + le[m] - le[0] - le[n + m]),
            (check_supermultiplicativity,
             lambda n, m: le[0] + two * (n + m) + le[n + m] - le[n] - le[m]),
        ):
            report = check(table)
            worst, wit = _brute_worst_pair(table.log_ell, margin)
            assert (report.worst_margin, report.witness) == (worst, wit), check.__name__


def test_battery_rejects_non_dyadic_scale():
    with pytest.raises(ParameterError):
        verify_function(kondratiev_streit(0.0), checks=("lseries-sandwich",), a=1.0)


def test_summary_table_format(batteries):
    text = summary_table(batteries["ks0"])
    lines = text.strip().split("\n")
    assert "check" in lines[0] and "status" in lines[0]
    assert len(lines) == 1 + len(CHECK_IDS)
    assert all("pass" in line for line in lines[1:])


# ---------------------------------------------------------------------------
# equivalence witnesses
# ---------------------------------------------------------------------------


def test_members_is_np_isin_on_a_sorted_grid():
    from growthcalc import growth, inequality_lab

    grid = growth._radius_grid(None)
    rng = np.random.default_rng(11)
    for fine, base in (
        (refine_grid(grid), grid),
        (rng.permutation(refine_grid(grid)), grid),
        (np.array([0.0, -0.0, 0.5, 1.0, 1.0, 3.0, 8.0, 9.0, -1.0, math.nan, math.inf]),
         growth._radius_grid([8.0, -0.0, 1.0, 4.0, 1.0])),
    ):
        assert np.array_equal(inequality_lab._members(fine, base), np.isin(fine, base))


def test_equivalence_scaled_argument():
    # g(r) = u(2r) is equivalent to u with the textbook witness.
    ks0 = kondratiev_streit(0.0)
    report = equivalence_witness(
        ks0, lambda rs: log_u_grid(ks0, 2.0 * rs), f_id="ks0", g_id="shifted"
    )
    assert report.passed
    assert report.constants["a1"] == 1.0
    assert report.constants["a2"] == 2.0
    assert report.constants["c1"] == pytest.approx(1.0)
    assert report.constants["c2"] == pytest.approx(1.0)


def test_equivalence_bell_vs_iterated_exp(batteries, u2):
    # the classical pairing of the second-order iterated exponential with
    # the Bell-number series
    report = equivalence_witness(iterated_exp_sqrt(2), u2, f_id="g2", g_id="u2")
    assert report.passed
    assert math.isfinite(report.constants["c1"])
    assert math.isfinite(report.constants["c2"])


def test_equivalence_accepts_an_evaluator(catalog, evaluators):
    # one array call per grid gives the constants of one call per radius
    spec, ev = catalog["g2"], evaluators["g2"]
    by_array = equivalence_witness(spec, ev)
    by_lone_calls = equivalence_witness(
        spec, lambda rs: np.array([l_function_wide(ev, float(r)) for r in rs]), g_id="L[g2]"
    )
    assert by_array.function_id == by_lone_calls.function_id == "(g2,L[g2])"
    assert by_array.status == by_lone_calls.status == "pass"
    assert by_array.constants == pytest.approx(by_lone_calls.constants, rel=1e-13)
    assert by_array.witness == by_lone_calls.witness


def test_equivalence_evaluates_each_operand_once_per_scale(monkeypatch):
    from growthcalc import inequality_lab

    f, g = kondratiev_streit(0.0), exponential(3.0)
    radii = {f.function_id: [], g.function_id: []}

    def counted(spec, rs):
        radii[spec.function_id].append(np.array(rs))
        return log_u_grid(spec, rs)

    monkeypatch.setattr(inequality_lab, "log_u_grid", counted)
    grid = np.geomspace(1e-2, 1e3, 40)
    report = equivalence_witness(f, g, r_grid=grid)
    fine = refine_grid(grid)
    assert report.passed
    (g_radii,) = radii[g.function_id]
    assert np.array_equal(g_radii, fine)
    # The candidates 1, 2, 4 = a2 and then a1 = 1 again: three scales, each
    # evaluated once, though the upper and lower searches both try a = 1.
    assert (report.constants["a2"], report.constants["a1"]) == (4.0, 1.0)
    assert len(radii[f.function_id]) == 3
    for a, rs in zip((1.0, 2.0, 4.0), radii[f.function_id]):
        assert np.array_equal(rs, a * fine)


def test_equivalence_finds_no_witness_in_a_nan_constant():
    # A NaN log-difference is not a stable constant: no pass with c = NaN.
    ks0 = kondratiev_streit(0.0)
    report = equivalence_witness(
        ks0, lambda rs: np.where(rs > 500.0, math.nan, log_u_grid(ks0, rs)),
        r_grid=np.geomspace(1e-2, 1e3, 40), g_id="nan-tail",
    )
    assert report.status == "fail" and report.constants == {}


def test_equivalence_rejects_inequivalent_pair():
    # e^{r} cannot dominate r^2-exponential growth: no upper witness exists
    report = equivalence_witness(
        exponential(1.0), lambda r: r * r, f_id="exp", g_id="square"
    )
    assert report.status == "fail"
    assert report.worst_margin == -math.inf
    assert report.to_json_dict()["worst_margin"] is None


# ---------------------------------------------------------------------------
# chain order
# ---------------------------------------------------------------------------


def test_chain_order_catalog(catalog):
    chain = [catalog["g3"], catalog["g2"], catalog["ks05"], catalog["ks025"]]
    report = check_chain_order(chain)
    assert report.passed
    pairs = report.constants["pairs"]
    assert [p["a"] for p in pairs] == [1.0, 1.0, 1.0]
    assert report.worst_margin > 0


def test_chain_order_fails_without_dyadic_budget():
    # ell ratios of exp(c r) are c^n, so exp(c r) ahead of exp(r) needs a = c:
    # the budget 2^12 reaches c = 4096 and refuses c = 8192
    fits = check_chain_order([exponential(4096.0), exponential(1.0)])
    assert fits.passed and fits.constants["pairs"][0]["a"] == 4096.0
    report = check_chain_order([exponential(8192.0), exponential(1.0)])
    assert report.status == "fail"
    assert report.worst_margin == -math.inf
    assert "no dyadic factor" in report.notes


def test_chain_order_needs_two_functions():
    with pytest.raises(ParameterError):
        check_chain_order([kondratiev_streit(0.0)])


# ---------------------------------------------------------------------------
# table corruption audit
# ---------------------------------------------------------------------------


def test_audit_passes_on_clean_tables(catalog, tables60):
    for fid, spec in catalog.items():
        report = check_table_definition(spec, tables60[fid])
        assert report.passed, (fid, report.notes)


def test_audit_catches_value_corruption(tables60):
    spec = kondratiev_streit(0.0)
    tab = tables60["ks0"]
    for index in (1, 17, 60):
        for factor in (1.01, 0.99):
            bad = corrupt_table(tab, index, factor, "ell")
            report = check_table_definition(spec, bad)
            assert report.status == "fail", (index, factor)
            assert report.witness["t"] == float(index)


def test_audit_catches_minimizer_corruption(tables60):
    spec = kondratiev_streit(0.0)
    tab = tables60["ks0"]
    for index in (3, 29, 60):
        bad = corrupt_table(tab, index, 1.01, "r_star")
        report = check_table_definition(spec, bad)
        assert report.status == "fail", index


def test_corrupt_table_validation(tables60):
    tab = tables60["ks0"]
    with pytest.raises(ParameterError):
        corrupt_table(tab, 500, 1.01)
    with pytest.raises(ParameterError):
        corrupt_table(tab, 5, 1.01, "nope")
    # corruption returns a new table and leaves the original alone
    bad = corrupt_table(tab, 5, 1.01, "ell")
    assert bad.log_ell[5] != tab.log_ell[5]
    assert bad is not tab


#: Every entry point that takes a user radius grid, called on ks0 with ``grid``.
GRID_ENTRY_POINTS = {
    "check_conditions": lambda spec, ev, grid: check_conditions(spec, grid),
    "check_lemma_square": lambda spec, ev, grid: check_lemma_square(ev, r_grid=grid),
    "check_lfunction_sandwich":
        lambda spec, ev, grid: check_lfunction_sandwich(spec, ev, r_grid=grid),
    "check_lemma_sqrt": lambda spec, ev, grid: check_lemma_sqrt(spec, ev, r_grid=grid),
    "equivalence_witness": lambda spec, ev, grid: equivalence_witness(spec, ev, r_grid=grid),
    "cauchy_coefficient_bound": lambda spec, ev, grid: cauchy_coefficient_bound(
        [1.0], spec, 1.0, 1.0, ev.table, radius_grid=grid),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_r_grids_with_a_non_finite_radius_are_rejected(catalog, evaluators, bad):
    grid = np.append(np.geomspace(1e-3, 1e3, 20), bad)
    for call in GRID_ENTRY_POINTS.values():
        with pytest.raises(ParameterError, match="nonempty, of finite radii r >= 0"):
            call(catalog["ks0"], evaluators["ks0"], grid)


def test_audit_tolerance_is_relative_to_the_entry(tables60):
    # the published tolerance 1e-7 scales with max(1, |log ell|): a shift of
    # half of it passes, and twice it fails
    spec, tab = kondratiev_streit(0.0), tables60["ks0"]
    assert check_table_definition(spec, tab).constants["tol"] == 1e-7
    step = 1e-7 * max(1.0, abs(tab.log_ell[17]))
    assert check_table_definition(spec, corrupt_table(tab, 17, math.exp(0.5 * step))).passed
    bad = check_table_definition(spec, corrupt_table(tab, 17, math.exp(2.0 * step)))
    assert bad.status == "fail" and bad.witness["t"] == 17.0


@pytest.mark.parametrize("fid", ["ks05", "g2"])
def test_sandwich_evaluates_the_refined_grid_once(catalog, evaluators, monkeypatch, fid):
    from growthcalc import inequality_lab
    from growthcalc.inequality_lab import _prepare_r_grid, check_lfunction_sandwich

    spec, evaluator = catalog[fid], evaluators[fid]
    grid = _prepare_r_grid(spec, np.geomspace(1e-3, 1e8, 61), u_mul=2.0, l_mul=4.0)
    fine = refine_grid(grid)
    sizes = []

    def counted(ev, r, *args):
        sizes.append(np.size(r))
        return l_function_wide(ev, r, *args)

    monkeypatch.setattr(inequality_lab, "l_function_wide", counted)
    report = check_lfunction_sandwich(spec, evaluator, r_grid=grid)
    # Part 1 on the grid, part 2 once on the refined grid, which holds it.
    assert sizes == [grid.size, fine.size]
    # The same constant as evaluating the whole refined grid afresh.
    full = log_u_grid(spec, fine) - l_function_wide(evaluator, 4.0 * fine)
    assert report.constants["C_part2_refined"] == math.exp(float(np.max(full)))


def test_battery_calls_the_check_bound_in_the_module_at_call_time(
    catalog, evaluators, monkeypatch
):
    # Tracers wrap the checks by patching the module globals.
    from growthcalc import inequality_lab

    seen = []
    check_nth_root = inequality_lab.check_nth_root

    def patched(table, *args, **kwargs):
        seen.append(table)
        return check_nth_root(table, *args, **kwargs)

    monkeypatch.setattr(inequality_lab, "check_nth_root", patched)
    evaluator = evaluators["ks0"]
    reports = verify_function(catalog["ks0"], evaluator=evaluator, checks=["nth-root-decay"])
    assert seen == [evaluator.table]
    assert [r.check_id for r in reports] == ["nth-root-decay"]


# ---------------------------------------------------------------------------
# grid values shared within one battery call
# ---------------------------------------------------------------------------


@pytest.fixture
def grid_calls(monkeypatch):
    """Every ``log_u_grid`` / ``l_function_wide`` call the checks make, as
    (name, operand id, radii bytes)."""
    from growthcalc import inequality_lab

    calls = []

    def counted(name, fn):
        def call(operand, rs, *args):
            calls.append((name, id(operand), np.asarray(rs, dtype=float).tobytes()))
            return fn(operand, rs, *args)

        return call

    monkeypatch.setattr(inequality_lab, "log_u_grid", counted("log_u", log_u_grid))
    monkeypatch.setattr(inequality_lab, "l_function_wide",
                        counted("log_l", l_function_wide))
    return calls


def _standalone_reports(spec, evaluator):
    """The battery's checks called one by one, outside ``verify_function``."""
    from growthcalc import inequality_lab

    battery = inequality_lab._Battery(spec, legendre_sequence(spec, 60), evaluator, 2.0, None)
    return [inequality_lab._CHECKS[check](battery) for check in CHECK_IDS]


@pytest.mark.parametrize("fid", ["ks05", "g2"])
def test_battery_evaluates_each_operand_and_grid_once(catalog, evaluators, grid_calls, fid):
    spec, evaluator = catalog[fid], evaluators[fid]
    reports = verify_function(spec, evaluator=evaluator)
    assert all(r.passed for r in reports)
    shared = list(grid_calls)
    assert len(shared) == len(set(shared))
    # Standalone, the same checks ask for the same grids, some more than once.
    grid_calls.clear()
    _standalone_reports(spec, evaluator)
    assert set(grid_calls) == set(shared)
    assert len(grid_calls) > len(shared)


@pytest.fixture(scope="module")
def u2_evaluator(u2):
    from growthcalc import LFunctionEvaluator

    return LFunctionEvaluator.from_spec(u2)


@pytest.mark.parametrize("fid", ["ks05", "g3", "u2"])
def test_battery_reports_equal_the_standalone_checks(catalog, evaluators, u2, u2_evaluator,
                                                     fid):
    spec, evaluator = (u2, u2_evaluator) if fid == "u2" else (catalog[fid], evaluators[fid])
    shared = verify_function(spec, evaluator=evaluator)
    alone = _standalone_reports(spec, evaluator)
    assert [r.to_json_dict() for r in shared] == [r.to_json_dict() for r in alone]


def test_grid_sharing_ends_with_the_battery_call(catalog, evaluators, monkeypatch, grid_calls):
    from growthcalc import inequality_lab

    spec, evaluator = catalog["ks05"], evaluators["ks05"]
    checks = ("lseries-sandwich", "lseries-square-bound")
    verify_function(spec, evaluator=evaluator, checks=checks)
    first = list(grid_calls)
    grid_calls.clear()
    verify_function(spec, evaluator=evaluator, checks=checks)
    assert grid_calls == first  # evaluated afresh
    grid_calls.clear()
    check_lemma_square(evaluator)
    check_lemma_square(evaluator)
    assert len(grid_calls) == 4 and grid_calls[:2] == grid_calls[2:]

    def broken(*args, **kwargs):
        raise CapacityError("planted")

    monkeypatch.setattr(inequality_lab, "check_lemma_square", broken)
    with pytest.raises(CapacityError, match="planted"):
        verify_function(spec, evaluator=evaluator, checks=checks)
    assert inequality_lab._SHARED.get() is None
    grid_calls.clear()
    check_lfunction_sandwich(spec, evaluator)
    check_lfunction_sandwich(spec, evaluator)
    assert len(grid_calls) == 8 and grid_calls[:4] == grid_calls[4:]


def test_equivalence_square_reads_log_u_on_arrays_only(catalog, evaluators, monkeypatch):
    # its g = 2 log u is the battery's shared log u grid, not a scalar loop
    from growthcalc.growth import GrowthFunctionSpec

    spec, evaluator = catalog["ks05"], evaluators["ks05"]
    verify_function(spec, evaluator=evaluator, checks=())
    scalar = []
    log_u = GrowthFunctionSpec.log_u
    monkeypatch.setattr(GrowthFunctionSpec, "log_u",
                        lambda self, r: scalar.append(r) or log_u(self, r))
    verify_function(spec, evaluator=evaluator, checks=())
    battery_only = len(scalar)
    (report,) = verify_function(spec, evaluator=evaluator, checks=("equivalence-square",))
    assert report.passed
    assert len(scalar) == 2 * battery_only


def test_a_failed_grid_evaluation_is_not_shared(evaluators, monkeypatch):
    from growthcalc import inequality_lab

    evaluator, grid = evaluators["ks05"], np.geomspace(1e-3, 1e3, 16)
    failures = []

    def flaky(ev, rs, *args):
        if not failures:
            failures.append(np.size(rs))
            raise CapacityError("planted")
        return l_function_wide(ev, rs, *args)

    monkeypatch.setattr(inequality_lab, "l_function_wide", flaky)
    token = inequality_lab._SHARED.set({})
    try:
        with pytest.raises(CapacityError, match="planted"):
            inequality_lab._log_l(evaluator, grid)
        value = inequality_lab._log_l(evaluator, grid)  # evaluated again
        assert inequality_lab._log_l(evaluator, grid) is value
    finally:
        inequality_lab._SHARED.reset(token)
    assert not value.flags.writeable
    assert np.array_equal(value, l_function_wide(evaluator, grid))
    assert failures == [grid.size]
