"""Machine verification of transform inequalities on explicit grids.

Every check produces a :class:`VerificationReport` with a *worst margin*: the
minimum, over the sampling grid, of ``RHS - LHS`` in the log domain for the
inequality under test.  A check passes iff its worst margin is at least
``-SLACK`` (one shared absolute slack of 1e-9).  Failures carry the witness
point.

Constant/witness searches (equivalence constants, chain-embedding constants)
are restricted to dyadic scale factors and report the constants they found;
candidates whose extremum sits on the right edge of the grid are rejected as
unstable, and accepted constants must survive a 2x grid refinement.

Checks evaluate ``log u`` and ``log L_u`` on radius arrays only through the
shared helpers ``_log_u`` and ``_log_l`` (a new check does too).  Within one
:func:`verify_function` call each (operand, radii) pair is computed once and
handed read-only to every check that asks for it; outside such a call, and
after it, every request is evaluated afresh.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .growth import (
    CapacityError,
    GrowthFunctionSpec,
    ParameterError,
    _radius_grid,
    log_u_grid,
    refine_grid,
)
from .legendre import (
    _R_WIDE,
    _grid_infimum,
    LegendreTable,
    LFunctionEvaluator,
    l_function_wide,
    legendre_sequence,
    legendre_table,
)

SLACK = 1e-9
#: The decreasing-tail check starts at this index.
_TAIL_FROM = 10
#: The n-th root check certifies ``ell(n)^{1/n}`` below this.
_ROOT_THRESHOLD = 0.01
#: Multiples of ``r*`` at which the table audit probes the infimum.
_PROBE_FACTORS = (0.25, 0.5, 0.9, 1.1, 2.0, 4.0)
#: The table audit's tolerance, relative to ``max(1, |log ell|)``.
_AUDIT_TOL = 1e-7
#: Dyadic scale factors ``2^p`` searched up to this ``p``.
_MAX_POW = 12
#: Largest log-domain move of a witness constant under 2x grid refinement.
_REFINEMENT_TOL = 0.1

#: The grid values of the running :func:`verify_function` call, keyed by
#: (function, operand id, radii bytes); None outside one.
_SHARED: ContextVar[dict | None] = ContextVar("_SHARED", default=None)


def _shared(fn, operand, radii) -> np.ndarray:
    """``fn(operand, radii)``, once per :func:`verify_function` call, as a
    read-only view; a raised error is not kept.  The memo holds the operand,
    so no other object takes its id during the call."""
    memo = _SHARED.get()
    if memo is None:
        return fn(operand, radii)
    key = (fn, id(operand), np.asarray(radii, dtype=float).tobytes())
    if key not in memo:
        memo[key] = (operand, fn(operand, radii).view())
        memo[key][1].setflags(write=False)
    return memo[key][1]


# The checks' grid evaluations.  Each reads its function from the module
# globals at call time, so a patched one (a tracer's, a test's) sees every miss.
def _log_u(spec: GrowthFunctionSpec, radii) -> np.ndarray:
    return _shared(log_u_grid, spec, radii)


def _log_l(evaluator: LFunctionEvaluator, radii) -> np.ndarray:
    return _shared(l_function_wide, evaluator, radii)


@dataclass
class VerificationReport:
    """Outcome of one inequality check on one grid."""

    check_id: str
    function_id: str
    status: str  # "pass" | "fail"
    worst_margin: float
    witness: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_id,
            "function": self.function_id,
            "status": self.status,
            "worst_margin": self.worst_margin if math.isfinite(self.worst_margin) else None,
            "witness": self.witness,
            "constants": self.constants,
            "grid": self.grid,
            "notes": self.notes,
        }


def _report(check_id, function_id, margin, witness, constants, grid, notes="", slack=SLACK):
    status = "pass" if margin >= -slack else "fail"
    return VerificationReport(
        check_id, function_id, status, float(margin), witness, constants, grid, notes
    )


def _int_grid_info(table: LegendreTable) -> dict:
    return {"kind": "integer_t", "n_max": table.n_max}


def _r_grid_info(grid: np.ndarray) -> dict:
    return {
        "kind": "r",
        "r_min": float(grid[0]),
        "r_max": float(grid[-1]),
        "points": int(grid.size),
    }


def _prepare_r_grid(
    spec: GrowthFunctionSpec,
    r_grid,
    u_mul: float = 1.0,
    l_mul: float = 0.0,
) -> np.ndarray:
    """Default (or user) radii, clipped so every derived argument stays inside
    the function's faithful range and the wide L-evaluation range."""
    grid = _radius_grid(r_grid)
    top = math.inf
    trusted = spec.trusted_radius
    if trusted < math.inf and u_mul > 0.0:
        top = trusted / u_mul
    if l_mul > 0.0:
        top = min(top, 0.90 * _R_WIDE / l_mul)
    clipped = grid[grid <= top]
    if clipped.size < 8:
        raise ParameterError("grid is empty after clipping to the evaluable range")
    return clipped


def _members(fine: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``np.isin(fine, grid)`` for a sorted nonempty ``grid``, by binary
    search, without the ``numpy.ma`` import ``np.isin`` makes on first use."""
    return grid[np.minimum(np.searchsorted(grid, fine), grid.size - 1)] == fine


# -- table-shape checks ------------------------------------------------------


def check_log_concavity(table: LegendreTable) -> VerificationReport:
    """``ell(n) ell(n+2) <= ell(n+1)^2`` on the integer grid."""
    if not table.is_integer_grid or table.n_max < 2:
        raise ParameterError("log-concavity check needs an integer grid with n_max >= 2")
    le = table.log_ell
    margins = 2.0 * le[1:-1] - le[:-2] - le[2:]
    j = int(np.argmin(margins))
    return _report(
        "log-concavity",
        table.function_id,
        float(margins[j]),
        {"n": j},
        {},
        _int_grid_info(table),
    )


def _pair_check(table: LegendreTable, check_id: str, margin, constants: dict):
    """The worst ``margin(le, n, m, n + m)`` over the pairs ``n + m <= n_max``
    of an integer-grid table, taken over one (n, m) array; the witness is the
    first worst pair in row-major order."""
    if not table.is_integer_grid:
        raise ParameterError(f"{check_id} check needs an integer grid")
    N = table.n_max
    n, m = np.ogrid[: N + 1, : N + 1]
    inside = n + m <= N
    margins = np.where(inside, margin(table.log_ell, n, m, np.where(inside, n + m, 0)), np.inf)
    j = int(np.argmin(margins))
    return _report(check_id, table.function_id, float(margins.flat[j]),
                   {"n": j // (N + 1), "m": j % (N + 1)}, constants, _int_grid_info(table))


def check_submultiplicativity(table: LegendreTable) -> VerificationReport:
    """``ell(0) ell(n+m) <= ell(n) ell(m)`` for all pairs with n+m <= n_max."""
    return _pair_check(table, "submultiplicativity",
                       lambda le, n, m, nm: le[n] + le[m] - le[0] - le[nm], {})


def check_supermultiplicativity(table: LegendreTable) -> VerificationReport:
    """``ell(n) ell(m) <= ell(0) 2^{2(n+m)} ell(n+m)`` for all pairs n+m <= n_max."""
    two = 2.0 * math.log(2.0)
    return _pair_check(table, "supermultiplicativity",
                       lambda le, n, m, nm: le[0] + two * (n + m) + le[nm] - le[n] - le[m],
                       {"factor": "2^(2(n+m))"})


def check_t2t_logconvex(table: LegendreTable) -> VerificationReport:
    """``t -> ell(t) t^{2t}`` is log-convex on a real grid with t > 0."""
    t = table.t
    if t.size < 3 or t[0] <= 0.0:
        raise ParameterError("t2t check needs a real grid with at least 3 points, t > 0")
    F = table.log_ell + 2.0 * t * np.log(t)
    lam = (t[2:] - t[1:-1]) / (t[2:] - t[:-2])
    margins = lam * F[:-2] + (1.0 - lam) * F[2:] - F[1:-1]
    j = int(np.argmin(margins))
    grid = {"kind": "real_t", "t_min": float(t[0]), "t_max": float(t[-1]), "points": int(t.size)}
    return _report(
        "t2t-log-convexity",
        table.function_id,
        float(margins[j]),
        {"t": float(t[j + 1])},
        {},
        grid,
    )


def check_decreasing_tail(table: LegendreTable) -> VerificationReport:
    """``ell(n)`` decreasing from ``_TAIL_FROM`` on."""
    if not table.is_integer_grid or table.n_max <= _TAIL_FROM:
        raise ParameterError(f"decreasing-tail check needs n_max > {_TAIL_FROM}")
    le = table.log_ell
    margins = le[_TAIL_FROM:-1] - le[_TAIL_FROM + 1 :]
    j = int(np.argmin(margins))
    return _report(
        "decreasing-tail",
        table.function_id,
        float(margins[j]),
        {"n": _TAIL_FROM + j},
        {"n_from": _TAIL_FROM},
        _int_grid_info(table),
    )


def check_nth_root(table: LegendreTable) -> VerificationReport:
    """Certify ``ell(n)^{1/n} < _ROOT_THRESHOLD`` at some stored n."""
    if not table.is_integer_grid or table.n_max < 1:
        raise ParameterError("nth-root check needs an integer grid with n_max >= 1")
    n = np.arange(1, table.n_max + 1, dtype=float)
    roots = np.exp(table.log_ell[1:] / n)
    j = int(np.argmin(roots))
    below = np.flatnonzero(roots < _ROOT_THRESHOLD)
    margin = _ROOT_THRESHOLD - float(roots[j])
    constants = {"threshold": _ROOT_THRESHOLD, "min_root": float(roots[j])}
    if below.size:
        constants["n_certificate"] = int(below[0] + 1)
    notes = "" if below.size else "no index certifies the threshold; grow the table"
    return _report(
        "nth-root-decay",
        table.function_id,
        margin,
        {"n": j + 1},
        constants,
        _int_grid_info(table),
        notes,
    )


def check_table_definition(spec: GrowthFunctionSpec, table: LegendreTable) -> VerificationReport:
    """Audit stored rows against the transform's definition.

    Two properties per row: the stored value must equal
    ``log u(r*) - t log r*`` (consistency), and it must not exceed
    ``log u(r) - t log r`` at probe radii around ``r*`` (the infimum
    property).  Tolerances are ``_AUDIT_TOL * max(1, |log ell|)``, so a 1%
    change in any entry is far outside them.
    """
    worst = math.inf
    wit: dict = {}
    trusted = spec.trusted_radius
    for ti, li, ri in zip(table.t, table.log_ell, table.r_star):
        scale = _AUDIT_TOL * max(1.0, abs(li))
        if ti == 0.0:
            direct = _grid_infimum(spec)
            margin = scale - abs(direct - li)
            if ri != 0.0:
                margin = min(margin, -1.0)
            if margin < worst:
                worst, wit = margin, {"t": float(ti), "property": "grid-infimum"}
            continue
        if not ri > 0.0:
            worst, wit = -1.0, {"t": float(ti), "property": "r_star-positive"}
            break
        direct = spec.log_u(ri) - ti * math.log(ri)
        margin = scale - abs(direct - li)
        if margin < worst:
            worst, wit = margin, {"t": float(ti), "property": "value-at-r_star"}
        for fac in _PROBE_FACTORS:
            rp = fac * ri
            if not 0.0 < rp <= trusted:
                continue
            probe_val = spec.log_u(rp) - ti * math.log(rp)
            margin = probe_val - li + scale
            if margin < worst:
                worst, wit = margin, {"t": float(ti), "property": f"infimum@{fac:g}r*"}
    return _report(
        "table-definition",
        table.function_id,
        worst,
        wit,
        {"tol": _AUDIT_TOL, "probe_factors": list(_PROBE_FACTORS)},
        _int_grid_info(table) if table.is_integer_grid else {"kind": "real_t"},
        slack=0.0,
    )


def corrupt_table(
    table: LegendreTable, index: int, factor: float = 1.01, which: str = "ell"
) -> LegendreTable:
    """A copy of ``table`` with one entry multiplied by ``factor`` (in the
    linear domain).  Used to exercise corruption detection."""
    if not 0 <= index < table.n_points:
        raise ParameterError(f"index {index} outside table of {table.n_points} rows")
    if not factor > 0.0:
        raise ParameterError("corruption factor must be positive")
    if which == "ell":
        col = table.log_ell.copy()
        col[index] += math.log(factor)
        return table.replace(log_ell=col)
    if which == "r_star":
        col = table.r_star.copy()
        col[index] *= factor
        return table.replace(r_star=col)
    raise ParameterError(f"unknown column {which!r}; use 'ell' or 'r_star'")


# -- L-series comparison checks ----------------------------------------------


def check_lfunction_sandwich(
    spec: GrowthFunctionSpec,
    evaluator: LFunctionEvaluator,
    a: float = 2.0,
    r_grid=None,
) -> VerificationReport:
    """Two-sided comparison of ``L_u`` with ``u``:

    (1) ``L_u(r) <= (e a / log a) u(a r)`` pointwise on the grid (asserted);
    (2) ``u(r) <= C L_u(4 r)`` with the witness ``C`` taken as the grid
        maximum of the ratio, which must be stable under 2x refinement.
    """
    if not a > 1.0:
        raise ParameterError(f"the sandwich requires a > 1, got {a}")
    grid = _prepare_r_grid(spec, r_grid, u_mul=max(a, 1.0), l_mul=4.0)
    const1 = math.log(math.e * a / math.log(a))
    lu_ar = _log_u(spec, a * grid)
    logl_r = _log_l(evaluator, grid)
    margins = const1 + lu_ar - logl_r
    j = int(np.argmin(margins))

    # Midpoints stay below the grid's top, so the refined grid needs no clip.
    fine = refine_grid(grid)
    ratios_fine = _log_u(spec, fine) - _log_l(evaluator, 4.0 * fine)
    ratios = ratios_fine[_members(fine, grid)]
    i = int(np.argmax(ratios))
    log_c, r_at = float(ratios[i]), float(grid[i])
    log_c_fine = float(np.max(ratios_fine))
    stable = abs(log_c_fine - log_c) <= 0.1
    margin = float(margins[j]) if stable else -math.inf
    notes = "" if stable else "part-2 constant drifts under grid refinement"
    return _report(
        "lseries-sandwich",
        spec.function_id,
        margin,
        {"r": float(grid[j]), "r_part2": r_at},
        {
            "a": a,
            "C_part1": math.e * a / math.log(a),
            "C_part2": math.exp(log_c),
            "C_part2_refined": math.exp(log_c_fine),
        },
        _r_grid_info(grid),
        notes,
    )


def check_lemma_square(evaluator: LFunctionEvaluator, r_grid=None) -> VerificationReport:
    """``L_u(r)^2 <= ell(0) L_u(8 r)`` on the grid."""
    spec = evaluator.spec
    grid = _prepare_r_grid(spec, r_grid, u_mul=0.0, l_mul=8.0)
    le0 = float(evaluator.table.log_ell[0])
    logl = _log_l(evaluator, grid)
    logl8 = _log_l(evaluator, 8.0 * grid)
    margins = le0 + logl8 - 2.0 * logl
    j = int(np.argmin(margins))
    return _report(
        "lseries-square-bound",
        spec.function_id,
        float(margins[j]),
        {"r": float(grid[j])},
        {"log_ell0": le0},
        _r_grid_info(grid),
    )


def check_lemma_sqrt(
    spec: GrowthFunctionSpec,
    evaluator: LFunctionEvaluator,
    a: float = 2.0,
    r_grid=None,
) -> VerificationReport:
    """``L_u(r) <= sqrt(ell(0) (e a / log a)) u(8 a r)^{1/2}`` on the grid."""
    if not a > 1.0:
        raise ParameterError(f"the sqrt bound requires a > 1, got {a}")
    grid = _prepare_r_grid(spec, r_grid, u_mul=8.0 * a, l_mul=1.0)
    le0 = float(evaluator.table.log_ell[0])
    const = 0.5 * (le0 + math.log(math.e * a / math.log(a)))
    lu = _log_u(spec, 8.0 * a * grid)
    logl = _log_l(evaluator, grid)
    margins = const + 0.5 * lu - logl
    j = int(np.argmin(margins))
    return _report(
        "lseries-sqrt-bound",
        spec.function_id,
        float(margins[j]),
        {"r": float(grid[j])},
        {"a": a, "log_const": const},
        _r_grid_info(grid),
    )


# -- equivalence and chain order ----------------------------------------------


def _as_logfun(obj, fallback_id: str) -> tuple[Callable[[np.ndarray], np.ndarray], str]:
    if isinstance(obj, GrowthFunctionSpec):
        return (lambda rs: _log_u(obj, rs)), obj.function_id
    if isinstance(obj, LFunctionEvaluator):
        return (lambda rs: _log_l(obj, rs)), f"L[{obj.spec.function_id}]"
    if callable(obj):
        return obj, fallback_id
    raise ParameterError(
        "equivalence operands must be specs, L-function evaluators or log-callables"
    )


def equivalence_witness(
    f,
    g,
    r_grid=None,
    f_id: str = "f",
    g_id: str = "g",
) -> VerificationReport:
    """Search dyadic witnesses for ``c1 f(a1 r) <= g(r) <= c2 f(a2 r)``.

    ``a2`` ascends 1, 2, 4, ... and ``a1`` descends 1, 1/2, 1/4, ...; for each
    candidate the constant is the extremal log-difference over the grid.  A
    candidate is rejected when its extremum sits on the right edge of the
    grid (the constant would keep growing with the grid) or when the constant
    moves by more than ``_REFINEMENT_TOL`` in the log domain under a 2x grid
    refinement.  The first surviving pair on each side is reported.  ``g`` is
    evaluated once and ``f`` once per scale, on the refined grid, which holds
    the grid's own radii.

    Each operand is a spec (``log u``, id ``function_id``), an
    :class:`LFunctionEvaluator` (``log L_u``, evaluated one array call per
    grid, id ``L[function_id]``) or a callable taking a radius array and
    returning its log values (id ``f_id`` / ``g_id``), called once per grid.
    """
    f_fun, f_id = _as_logfun(f, f_id)
    g_fun, g_id = _as_logfun(g, g_id)
    grid = _radius_grid(r_grid)
    if grid.size < 8:
        raise ParameterError("equivalence search needs at least 8 radii")
    fine = refine_grid(grid)
    base = _members(fine, grid)
    g_fine = g_fun(fine)
    f_fine: dict[float, np.ndarray] = {}
    found: dict[str, dict] = {}
    for side, sign in (("upper", 1), ("lower", -1)):  # (c2, a2) and (c1, a1)
        for p in range(_MAX_POW + 1):
            a = 2.0 ** (sign * p)
            try:
                if a not in f_fine:
                    f_fine[a] = f_fun(a * fine)
            except CapacityError:
                break  # larger |log a| only pushes further out of range
            diffs_fine = sign * (g_fine - f_fine[a])
            ext = int(np.argmax(diffs_fine[base]))
            if ext == grid.size - 1:
                continue
            log_c, log_c_fine = sign * diffs_fine[base][ext], sign * np.max(diffs_fine)
            if abs(log_c_fine - log_c) <= _REFINEMENT_TOL:
                found[side] = {"a": a, "log_c": float(log_c), "log_c_refined": float(log_c_fine),
                               "r_extremum": float(grid[ext])}
                break
    fn_id = f"({f_id},{g_id})"
    missing = [side for side in ("upper", "lower") if side not in found]
    if missing:
        return VerificationReport(
            "equivalence", fn_id, "fail", -math.inf, {}, {}, _r_grid_info(grid),
            f"no stable dyadic witness for the {' and '.join(missing)} bound")
    upper, lower = found["upper"], found["lower"]
    constants = {
        "c1": math.exp(lower["log_c"]),
        "a1": lower["a"],
        "c2": math.exp(upper["log_c"]),
        "a2": upper["a"],
        "c1_refined": math.exp(lower["log_c_refined"]),
        "c2_refined": math.exp(upper["log_c_refined"]),
    }
    witness = {"r_upper": upper["r_extremum"], "r_lower": lower["r_extremum"]}
    return _report("equivalence", fn_id, 0.0, witness, constants, _r_grid_info(grid))


def check_chain_order(specs: Sequence[GrowthFunctionSpec], n_max: int = 60) -> VerificationReport:
    """Certify the embedding order of a chain of spaces, smallest first.

    For each adjacent pair (A, B) — A the smaller test space, i.e. the more
    slowly growing weight — we need ``ell_A(n) <= C a^n ell_B(n)`` with a
    dyadic ``a``.  On a finite integer range the certificate is that the
    margin sequence ``log ell_A(n) - log ell_B(n) - n log a`` is
    non-increasing over its final stretch (so the constant taken from the
    grid maximum cannot be overrun beyond it).
    """
    if len(specs) < 2:
        raise ParameterError("chain check needs at least two functions")
    tables = [legendre_sequence(s, n_max) for s in specs]
    pairs = []
    worst = math.inf
    tail_len = min(12, max(4, n_max // 4))
    for (sa, ta), (sb, tb) in zip(zip(specs, tables), zip(specs[1:], tables[1:])):
        found = None
        for p in range(_MAX_POW + 1):
            a = float(2.0**p)
            m = ta.log_ell - tb.log_ell - np.arange(n_max + 1) * math.log(a)
            tail_steps = np.diff(m[-tail_len:])
            margin = -float(np.max(tail_steps))
            if margin >= -SLACK:
                j = int(np.argmax(m))
                found = {
                    "small": sa.function_id,
                    "big": sb.function_id,
                    "a": a,
                    "C": float(math.exp(min(m[j], 700.0))),
                    "argmax_n": j,
                    "tail_margin": margin,
                }
                worst = min(worst, margin)
                break
        if found is None:
            return VerificationReport(
                "chain-order",
                ">".join(s.function_id for s in specs),
                "fail",
                -math.inf,
                {"pair": (sa.function_id, sb.function_id)},
                {"pairs": pairs},
                {"kind": "integer_t", "n_max": n_max},
                "no dyadic factor gives a non-increasing tail margin",
            )
        pairs.append(found)
    return _report(
        "chain-order",
        ">".join(s.function_id for s in specs),
        worst,
        {},
        {"pairs": pairs},
        {"kind": "integer_t", "n_max": n_max},
    )


# -- battery -----------------------------------------------------------------


class _Battery(NamedTuple):
    """What the checks of one :func:`verify_function` call read."""

    spec: GrowthFunctionSpec
    table: LegendreTable  # integer t = 0..n_max
    evaluator: LFunctionEvaluator
    a: float
    r_grid: object


#: The battery, in order.  Each entry calls its check through this module's
#: globals, so a check patched here (as a tracer does) is the one that runs.
_CHECKS = {
    "table-definition": lambda b: check_table_definition(b.spec, b.table),
    "log-concavity": lambda b: check_log_concavity(b.table),
    "submultiplicativity": lambda b: check_submultiplicativity(b.table),
    "supermultiplicativity": lambda b: check_supermultiplicativity(b.table),
    "t2t-log-convexity": lambda b: check_t2t_logconvex(
        legendre_table(b.spec, np.arange(0.5, 50.01, 0.25))),
    "decreasing-tail": lambda b: check_decreasing_tail(b.table),
    "nth-root-decay": lambda b: check_nth_root(b.evaluator.table),
    "lseries-sandwich": lambda b: check_lfunction_sandwich(
        b.spec, b.evaluator, a=b.a, r_grid=b.r_grid),
    "lseries-square-bound": lambda b: check_lemma_square(b.evaluator, r_grid=b.r_grid),
    "lseries-sqrt-bound": lambda b: check_lemma_sqrt(
        b.spec, b.evaluator, a=b.a, r_grid=b.r_grid),
    "equivalence-lseries": lambda b: replace(equivalence_witness(
        b.spec, b.evaluator, r_grid=b.r_grid, g_id=f"L[{b.spec.function_id}]",
    ), check_id="equivalence-lseries"),
    "equivalence-square": lambda b: replace(equivalence_witness(
        b.spec, lambda rs: 2.0 * _log_u(b.spec, rs), r_grid=b.r_grid,
        g_id=f"{b.spec.function_id}^2",
    ), check_id="equivalence-square"),
}

#: Battery order used by :func:`verify_function` and the CLI.
CHECK_IDS = tuple(_CHECKS)


def verify_function(
    spec: GrowthFunctionSpec,
    n_max: int = 60,
    evaluator: LFunctionEvaluator | None = None,
    r_grid=None,
    checks: Sequence[str] | None = None,
    a: float = 2.0,
) -> list[VerificationReport]:
    """Run the default battery of checks for one catalog function; the checks
    share their grid evaluations for the length of the call (``_shared``)."""
    wanted = tuple(checks) if checks is not None else CHECK_IDS
    unknown = set(wanted) - set(CHECK_IDS)
    if unknown:
        raise ParameterError(f"unknown checks: {sorted(unknown)}")
    if evaluator is None:
        evaluator = LFunctionEvaluator.from_spec(spec)
    battery = _Battery(spec, legendre_sequence(spec, n_max), evaluator, a, r_grid)
    token = _SHARED.set({})
    try:
        return [_CHECKS[check](battery) for check in wanted]
    finally:
        _SHARED.reset(token)


def summary_table(reports: Sequence[VerificationReport]) -> str:
    """Fixed-width human-readable summary of a report batch."""
    lines = [f"{'check':<24} {'function':<22} {'status':<6} worst_margin"]
    for rep in reports:
        margin = f"{rep.worst_margin:.3e}" if math.isfinite(rep.worst_margin) else "-inf"
        lines.append(f"{rep.check_id:<24} {rep.function_id:<22} {rep.status:<6} {margin}")
    return "\n".join(lines)
