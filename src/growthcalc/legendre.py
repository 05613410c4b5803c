"""Legendre transforms in the multiplicative scale, L-series, and biduality.

For a growth function ``u`` the transform is

    ``ell_u(t) = inf_{r > 0} u(r) / r^t``,    t >= 0,

computed here as a convex minimization of ``phi(s) = log u(e^s) - t s`` in
``s = log r``: by ternary search for the published tables
(:func:`legendre_sequence`, :func:`legendre_table`), and by one batched
Newton solve of ``phi'(s) = 0`` for the L-series evaluator's table, the
continuous-ell spline and the bidual.  The published tables keep the
ternary bit for bit, one traced ``spec.log_u`` call per probe: the benchmark
reference pins their ``r*``, good to about 1e-8 only, at 1e-9, and the
benchmark tracer's test asks for more than 50 ``log_u`` calls per solve.
Solving them by Newton waits for that test to count rows solved instead,
and for the reference to be re-taken.  The associated L-series
``L_u(r) = sum_n ell_u(n) r^n`` is the natural comparison object for
exponential-vector norms, and the biduality map ``r -> sup_t ell_u(t) r^t``
reconstructs ``u``; its supremum sits at the slope ``t = d log u / d log r``,
so it needs no search over ``t``.

Tables carry ``log ell`` and the minimizer ``r*``; every value is log-domain.
The table rule sums the stored terms of ``L_u`` within 46 nats of the
largest, from windows computed once per table, and accepts the sum when a
geometric bound on the terms past the table end is small against it.  No
sum exceeds ``N + 1`` times its peak term where ``log ell`` is concave, so
a radius whose tail bound exceeds 1e-12 of that is routed out before any
sum: :func:`l_function` raises for it, and :func:`l_function_wide`
sends it straight on.  Far beyond any storable table (the verification
grids reach arguments ~1e9) evaluation switches to a Laplace/quadrature
rule driven by a cached cubic Hermite spline of
``log ell(e^sigma) / e^sigma``.  Its window edges, where the integrand has
fallen 70 nats below its peak, come from one bracketed Newton solve between
the peak and the spline's domain ends: the integrand rises and then falls,
so a side whose end is still above that drop keeps the end as its edge.

The L functions take one radius or an array of radii; an array is evaluated
a block of radii at a time.  A block's table rule sums one window of
columns, the union of its radii's windows (routed-out radii included), so a
radius in a block may sum more terms than a lone call, each below e^-46 of
its largest: the two values agree to a few ulp, and both take the same
tail bound.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .growth import (
    BELL_SERIES,
    CapacityError,
    GrowthFunctionSpec,
    ITERATED_EXP_SQRT,
    ParameterError,
    _SPEC_CACHE,
    _gl_nodes,
    _count,
    _real,
    _reals,
    default_r_grid,
    log_u_grid,
)


class UnboundedBelowError(RuntimeError):
    """``inf u(r)/r^t`` has no interior minimizer: the transform is -inf."""


class InsufficientTableError(RuntimeError):
    """The stored table does not bound the L-series tail at a radius."""

    def __init__(self, message: str, last_ratio: float, n_max: int):
        super().__init__(message)
        self.last_ratio = float(last_ratio)
        self.n_max = int(n_max)


_S_FLOOR = -745.0
_PROBE = 1e-3

#: L-series arguments the wide evaluator is built to reach.
_R_WIDE = 2.0e9
#: The Laplace window keeps every integrand value within this drop of the peak.
_H_DROP = 70.0
#: Radii evaluated together; bounds the (radii x table length) temporaries.
_BLOCK = 64
#: The table rule accepts its sum once the geometric bound on the terms past
#: the table end is at most this share of it.
_L_REL_TOL = 1e-12
#: The table rule sums the terms within this many nats of a radius's peak
#: term: each term it leaves out is below e^-46 of the sum.
_TERM_DROP = 46.0
#: The table rule's floor on shifted log terms, above numpy's exp underflow.
_EXP_FLOOR = -700.0
#: Step size at which a bracketed Newton iteration counts as converged, and
#: its iteration cap (enough for pure bisection down to that step).
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 100
#: Spacing of the s-grid on which the batched transform brackets its roots.
_BRACKET_STEP = 0.5


@lru_cache(maxsize=_SPEC_CACHE)
def _grid_infimum(spec: GrowthFunctionSpec) -> float:
    grid = default_r_grid()
    return float(np.min(log_u_grid(spec, grid[grid <= spec.trusted_radius])))


@lru_cache(maxsize=_SPEC_CACHE)
def _integer_grid(n_max: int) -> np.ndarray:
    """``0, 1, ..., n_max`` as a read-only float array: the one ``t`` column
    that every integer table of this length shares."""
    t = np.arange(n_max + 1.0)
    t.setflags(write=False)
    return t


def _range_error(spec: GrowthFunctionSpec, t: float) -> RuntimeError:
    """The error for a ``t`` past ``t_sup``, or whose minimizer lies beyond
    the bracket cap ``s_max``."""
    if t > spec.t_sup:
        return CapacityError(
            f"t={t:g} exceeds the safe transform range of {spec.function_id} "
            f"(t_sup ~ {spec.t_sup:.3g})"
        )
    if spec.kind == BELL_SERIES:
        return CapacityError(
            f"minimizer for t={t:g} lies beyond the faithful series range "
            f"of {spec.function_id}"
        )
    return UnboundedBelowError(
        f"u(r)/r^t is still decreasing at r = e^{spec.s_max:.0f} for t={t:g}; "
        f"the transform of {spec.function_id} is unbounded below"
    )


def legendre_transform(
    spec: GrowthFunctionSpec, t: float, s_hint: float | None = None
) -> tuple[float, float]:
    """``(log ell_u(t), r*)`` by bracketed ternary search on the convex ``phi``.

    ``t = 0`` returns the grid infimum of ``u`` (its minimum, 1 for U1
    functions) with ``r* = 0``.  ``s_hint`` (a previous ``log r*``) warm-starts
    the bracket for monotone sweeps.

    Raises :class:`UnboundedBelowError` when ``phi`` is still decreasing at
    the bracket cap (e.g. a finite power series with degree below ``t``), and
    :class:`~growthcalc.growth.CapacityError` when a series-backed function
    cannot support the requested ``t``, or where ``t s`` overflows on the
    bracket, so that ``phi`` can be ``inf - inf``.
    """
    t = _real(t, "t", "[0, inf)")
    s_hint = None if s_hint is None else _real(s_hint, "s_hint", "(-inf, inf)")
    if t == 0.0:
        return _grid_infimum(spec), 0.0
    if t > spec.t_sup:
        raise _range_error(spec, t)
    s_cap = spec.s_max
    log_u, exp = spec.log_u, math.exp

    def phi(s: float) -> float:
        return log_u(exp(s)) - t * s

    if s_hint is not None and s_hint < s_cap:
        lo, hi = s_hint - 0.75, min(s_hint + 0.75, s_cap)
    else:
        lo, hi = -40.0, min(40.0, s_cap)

    # Expand right while phi is still decreasing at hi.
    step = 40.0
    while hi < s_cap and phi(hi - _PROBE) > phi(hi):
        hi = min(hi + step, s_cap)
        step *= 2.0
    if hi >= s_cap and phi(hi - _PROBE) > phi(hi):
        raise _range_error(spec, t)
    # Expand left while phi is increasing at lo (minimizer further left).
    step = 40.0
    while lo > _S_FLOOR and phi(lo + _PROBE) > phi(lo):
        lo = max(lo - step, _S_FLOOR)
        step *= 2.0
    if t * max(hi, -lo) == math.inf:
        raise CapacityError(f"t log r overflows a double on the bracket for t={t:g}")

    # Ternary search down to a 1e-12 bracket; from the widest bracket (about
    # 1445) that takes about 86 steps.  The probes are phi written out, one
    # log_u call each, without the closure's call.
    while hi - lo > 1e-12:
        third = (hi - lo) / 3.0
        m1 = lo + third
        m2 = hi - third
        if log_u(exp(m1)) - t * m1 <= log_u(exp(m2)) - t * m2:
            hi = m2
        else:
            lo = m1
    s_star = 0.5 * (lo + hi)
    return phi(s_star), math.exp(s_star)


def _newton_transform(spec: GrowthFunctionSpec, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log ell_u(t)`` and ``r*`` over a 1-d array of finite ``t > 0`` by
    one batched Newton solve of ``f'(s) = t``, ``f(s) = log u(e^s)``.  The
    first ``t`` it cannot solve raises the error :func:`legendre_transform`
    raises for it.

    ``f'`` is nondecreasing (``f`` is convex), so one sample of it on an
    s-grid brackets every root at once; safeguarded Newton then refines all
    of them together.  Three kinds of row are seeded: a ``t`` at or below
    ``f'`` at the floor keeps its minimizer there, as the ternary's does; one
    equal to ``f'`` at a grid point, or strictly inside the jump of ``f'`` at
    g_k's clamp kink (a kink's subdifferential), has it at that point.
    """
    kernel = spec.s_kernel
    grid = np.append(np.arange(_S_FLOOR, spec.s_max, _BRACKET_STEP), spec.s_max)
    slope = np.maximum.accumulate(kernel(grid)[1])
    i = slope.searchsorted(ts)  # slope[i - 1] < t <= slope[i]
    bad = (ts > spec.t_sup) | (i == grid.size)
    if bad.any():
        raise _range_error(spec, float(ts[bad.argmax()]))
    s_star = grid[i]
    act = np.flatnonzero((i > 0) & (slope[i] > ts))
    if spec.kind == ITERATED_EXP_SQRT and 2 <= spec.k <= 4:
        # f' jumps at s = 2 exp^{k-2}(1) (past s_max for k > 4), which the
        # kernel meets a few ulp off: read each end 1e-9 away, then go back.
        kink = 2.0 * (1.0, math.e, math.e**math.e)[spec.k - 2]
        off = np.array([-1e-9, 1e-9])
        d1, d2 = kernel(kink + off)[1:]
        lo, hi = d1 - off * d2  # the tangents' values at the kink
        band = (lo < ts) & (ts < hi)
        s_star[band], act = kink, act[~band[act]]
    if act.size:
        t, a, b = ts[act], grid[i[act] - 1], grid[i[act]]
        fa, fb = slope[i[act] - 1], slope[i[act]]
        with np.errstate(divide="ignore", invalid="ignore"):
            # Start where log f' interpolates log t: exact for e^{cs} slopes.
            frac = np.log(t / fa) / np.log(fb / fa)
            x0 = np.where((frac > 0.0) & (frac < 1.0), a + frac * (b - a), 0.5 * (a + b))

            def g(x, k):
                d1, d2 = kernel(x)[1:]
                return d1 - t[k], d2

            s_star[act] = _bracketed_newton(g, x0, b, a)[0]
    log_ell = kernel(s_star)[0] - ts * s_star
    return log_ell, np.exp(s_star)


def _read_only(a: np.ndarray, given) -> np.ndarray:
    """``a``, the array ``_reals`` read from ``given``, flagged read-only.  It
    is copied first if it is writeable and ``_reals`` did not make it: when
    it is ``given`` itself or a view, whose memory the caller may change."""
    if a.flags.writeable and (a is given or not a.flags.owndata):
        a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(eq=False)
class LegendreTable:
    """Transform values on a t-grid: ``log ell(t)`` and minimizers ``r*(t)``.

    The columns are read-only; a writeable input column is copied first, so
    the caller's array stays writeable and the table does not change."""

    function_id: str
    t: np.ndarray
    log_ell: np.ndarray
    r_star: np.ndarray

    def __post_init__(self) -> None:
        cols = [_read_only(_reals(col, name, domain), col) for col, name, domain in (
            (self.t, "t", "[0, inf)"), (self.log_ell, "log_ell", "[-inf, inf)"),
            (self.r_star, "r_star", "[0, inf)"))]
        self.t, self.log_ell, self.r_star = cols
        if not self.t.size or {col.shape for col in cols} != {(self.t.size,)}:
            raise ParameterError("table columns must be nonempty, 1-d and of one length")
        if np.any(np.diff(self.t) <= 0.0):
            raise ParameterError("table t-grid must be strictly increasing")

    @property
    def n_points(self) -> int:
        return len(self.t)

    @property
    def is_integer_grid(self) -> bool:
        return bool(np.array_equal(self.t, np.arange(len(self.t), dtype=float)))

    @property
    def n_max(self) -> int:
        if not self.is_integer_grid:
            raise ParameterError("n_max is defined for integer-grid tables only")
        return len(self.t) - 1

    # -- serialization ----------------------------------------------------

    def csv_text(self) -> str:
        lines = ["t,log_ell,r_star"]
        for ti, li, ri in zip(self.t, self.log_ell, self.r_star):
            lines.append(f"{float(ti)!r},{float(li)!r},{float(ri)!r}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(self.csv_text())


def legendre_sequence(spec: GrowthFunctionSpec, n_max: int) -> LegendreTable:
    """Table of ``log ell(n)``, ``r*(n)`` for n = 0..n_max (warm-started sweep).

    The last ``_SPEC_CACHE`` (64) tables are kept per ``(spec, n_max)``, so a
    run that asks for one sequence twice (a battery and a chain-order check
    on the same function) solves it once; every caller gets the same table,
    whose arrays are read-only."""
    return _sequence(spec, _count(n_max, "n_max"))


@lru_cache(maxsize=_SPEC_CACHE)
def _sequence(spec: GrowthFunctionSpec, n_max: int) -> LegendreTable:
    return legendre_table(spec, _integer_grid(n_max))


def legendre_table(spec: GrowthFunctionSpec, t_values: np.ndarray) -> LegendreTable:
    """Table of the transform on an arbitrary increasing t-grid."""
    ts = _reals(t_values, "t", "[0, inf)")
    if ts.ndim != 1 or ts.size == 0:
        raise ParameterError("t_values must be a nonempty 1-d array")
    rows = []
    hint: float | None = None
    for t in ts.tolist():
        rows.append(legendre_transform(spec, t, s_hint=hint))
        if rows[-1][1] > 0.0:
            hint = math.log(rows[-1][1])
    log_ell, r_star = np.array(rows).T
    return LegendreTable(spec.function_id, ts, log_ell, r_star)


@dataclass(eq=False)
class LFunctionEvaluator:
    """Truncated-series evaluator for ``L_u(r) = sum_n ell_u(n) r^n``."""

    spec: GrowthFunctionSpec
    table: LegendreTable

    def __post_init__(self) -> None:
        if not self.table.is_integer_grid or self.table.n_points < 2:
            raise ParameterError(
                "L-series evaluation requires an integer t-grid with n_max >= 1"
            )

    @classmethod
    def from_spec(cls, spec: GrowthFunctionSpec, n_max: int = 1200) -> "LFunctionEvaluator":
        """The table ``n = 0..n_max`` (capped at ``t_sup``) by one batched Newton
        solve, with the ``t = 0`` row of :func:`legendre_transform`."""
        n_max = _count(n_max, "n_max", "[1, inf)")
        n_max = min(n_max, int(spec.t_sup)) if spec.t_sup < math.inf else n_max
        t = _integer_grid(n_max)
        log_ell, r_star = _newton_transform(spec, t[1:])
        table = LegendreTable(spec.function_id, t,
                              np.append(_grid_infimum(spec), log_ell), np.append(0.0, r_star))
        return cls(spec, table)


def _blockwise(rule, rs: np.ndarray):
    """``rule`` applied to ``rs`` in blocks of ``_BLOCK`` radii: a float for a
    0-d ``rs``, else an array of its shape."""
    flat = rs.ravel()
    if 0 < flat.size <= _BLOCK:  # one block: no copy
        out = rule(flat)
    else:
        out = np.empty(flat.size)
        for lo in range(0, flat.size, _BLOCK):
            out[lo : lo + _BLOCK] = rule(flat[lo : lo + _BLOCK])
    return float(out[0]) if rs.ndim == 0 else out.reshape(rs.shape)


def _peak_windows(log_ell: np.ndarray):
    """The table rule's per-table bounds: the running max ``dec`` of the
    decrements ``log ell(n) - log ell(n+1)``; per peak index ``p`` the
    first index and one past the last of a window that holds every term
    within ``_TERM_DROP`` nats of the largest at any radius whose peak is
    ``p``; and ``slack``, the most by which any term exceeds the peak term.

    The peak of the terms ``log ell(n) + n x``, ``x = log r``, is the number
    of decrements below ``x``, so ``p`` holds for ``x`` from ``dec[p-1]`` to
    ``dec[p]``.  There every term's drop below the peak term is linear in
    ``x``, and the window of ``p`` is the union of the windows at those two
    ends; at an end, ``log ell`` being concave, the drop falls towards the
    peak on both sides, so bisection finds the window's edges.  A table that
    is not concave to within 1e-6 of its decrements gets whole-table
    windows and an infinite ``slack``.  In a concave one, a term past the
    peak exceeds the peak term by at most the sum of ``dec - d`` (0 where
    ``log ell`` is concave to rounding), and a term before it not at all;
    a table with a ``-inf`` entry has a NaN ``slack``."""
    N = log_ell.size - 1
    d = log_ell[:-1] - log_ell[1:]
    dec = np.maximum.accumulate(d)
    if (dec - d > 1e-6 * np.maximum(1.0, np.abs(d))).any():
        return dec, np.zeros(N + 1, dtype=np.intp), np.full(N + 1, N + 1), math.inf
    j = np.arange(N)  # the end between peaks j and j + 1, at x = dec[j]
    peak = log_ell[:-1] + j * dec

    def near(k):
        return peak - (log_ell[k] + k * dec) <= _TERM_DROP

    first, b = np.zeros(N, dtype=np.intp), j  # the first index near the peak
    while (first < b).any():
        mid = (first + b) // 2
        ok = near(mid)
        first, b = np.where(ok, first, mid + 1), np.where(ok, mid, b)
    a, last = j, np.full(N, N)  # the last one
    while (a < last).any():
        mid = (a + last + 1) // 2
        ok = near(mid)
        a, last = np.where(ok, mid, a), np.where(ok, last, mid - 1)
    # Peak p's ends are j = p - 1 and j = p (only one for p = 0 and p = N).
    lo = np.minimum(np.append(first[0], first), np.append(first, N))
    hi = np.maximum(np.append(last[0], last), np.append(last, N))
    return dec, lo, hi + 1, float((dec - d).sum())


#: The table rule's windows of the tables last used: an entry goes with its
#: table, and at most ``_SPEC_CACHE`` are kept.
_WINDOWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _table_windows(table: LegendreTable):
    windows = _WINDOWS.get(table)
    if windows is None:
        windows = _peak_windows(table.log_ell)
        while len(_WINDOWS) >= _SPEC_CACHE:
            _WINDOWS.pop(next(iter(_WINDOWS)), None)  # the oldest entry
        _WINDOWS[table] = windows
    return windows


def _table_rule(
    table: LegendreTable, rs: np.ndarray
) -> tuple[np.ndarray, InsufficientTableError | None]:
    """The table rule on a block of radii: the log-sum-exp of the stored
    terms in one window of columns, the union of the radii's windows of
    :func:`_peak_windows`, so each radius sums at least the terms within
    ``_TERM_DROP`` nats of its peak; NaN where the geometric bound on the
    terms past the table end is not at most ``_L_REL_TOL`` of it, and the
    error of the first such radius, or ``None``.

    A radius whose tail bound exceeds ``_L_REL_TOL`` of ``(N + 1) e^slack``
    times its peak term, more than its terms can sum to, is ruled out
    before any sum.  The others sum the window of the whole block, so their
    values do not depend on which radii are ruled out."""
    le = table.log_ell
    N = le.size - 1
    dec, first, stop, slack = _table_windows(table)
    zero = rs == 0.0
    lr = np.log(np.where(zero, 1.0, rs))
    # log ell is concave, so no ratio past the table end exceeds the last one.
    end = lr * table.t[-1] + le[-1]
    log_last = end - (lr * table.t[-2] + le[-2])
    log_rho = np.minimum(log_last, -1e-12)
    tail = end + log_rho - np.log1p(-np.exp(log_rho))
    log_tol = math.log(_L_REL_TOL)
    peak = dec.searchsorted(lr)
    # A NaN slack rules nothing out.
    doomed = tail > log_tol + (lr * table.t[peak] + le[peak]) + math.log(N + 1.0) + slack
    summed = ~(doomed | zero)
    vals = np.full(rs.size, np.nan)
    if summed.any():
        cols = slice(min(first[peak].tolist()), max(stop[peak].tolist()))
        vals[summed] = _log_sum(lr[summed], table.t[cols], le[cols])
    passed = tail <= log_tol + vals  # a NaN bound fails
    passed |= zero
    failed = ~passed
    vals[zero] = le[0]
    vals[failed] = np.nan
    if not failed.any():
        return vals, None
    j = int(failed.argmax())
    with np.errstate(over="ignore"):
        last = float(np.exp(log_last[j]))
    msg = (f"the terms past n={N} are not bounded by {_L_REL_TOL:g} of the sum "
           f"at r={rs[j]:g} (last term ratio {last:.3g})")
    return vals, InsufficientTableError(msg, last_ratio=last, n_max=N)


def _log_sum(lr: np.ndarray, t: np.ndarray, log_ell: np.ndarray) -> np.ndarray:
    """Per ``log r`` in ``lr``, ``log sum_n ell(t_n) r^t_n`` over the columns
    ``t``, ``log_ell``."""
    lt = np.multiply.outer(lr, t)
    lt += log_ell
    m = lt.max(axis=1)
    lt -= m[:, None]  # in place: the block's terms are its largest array
    # Shifted terms below e^_EXP_FLOOR are raised to it, as np.exp is many
    # times slower on arguments that underflow.  Each row holds its largest
    # term e^0 = 1, and n raised terms add at most n e^-700 (< 1e-298 for
    # n <= 2^18) to that sum: far below half an ulp of 1.  NaN stays NaN.
    np.maximum(lt, _EXP_FLOOR, out=lt)
    return m + np.log(np.exp(lt, out=lt).sum(axis=1))


def l_function(evaluator: LFunctionEvaluator, r: float | np.ndarray):
    """``log L_u(r)`` by the table rule.

    ``r`` is a radius or an array of radii; a scalar gives a float, an array
    an array of its shape.  The value is the sum of every stored term
    ``ell_u(n) r^n``, taken in the log domain.  It is accepted when the
    terms past the table end are at most ``_L_REL_TOL`` of it, by the
    geometric bound with the last stored term ratio: ``log ell`` is concave,
    so no later ratio is larger.  The returned value excludes that tail.

    Raises :class:`InsufficientTableError` (with the last term ratio of the
    first radius that fails) when the bound does not hold.
    """
    rs = _reals(r)

    def rule(block: np.ndarray) -> np.ndarray:
        vals, err = _table_rule(evaluator.table, block)
        if err is not None:
            raise err
        return vals

    return _blockwise(rule, rs)


# -- wide-range L evaluation -------------------------------------------------


class _Hermite:
    """The piecewise cubic through knots ``x`` with values ``y`` and slopes
    ``dy``, continued past the ends by its end pieces: ``spline(s)`` is its
    value at ``s``, ``spline(s, k)`` (k = 1, 2) that and the first k slopes."""

    def __init__(self, x: np.ndarray, y: np.ndarray, dy: np.ndarray):
        h = np.diff(x)
        d = np.diff(y) / h
        self.x, self.inner = x, x[1:-1]
        self.coef = ((dy[:-1] + dy[1:] - 2.0 * d) / h**2,
                     (3.0 * d - 2.0 * dy[:-1] - dy[1:]) / h, dy[:-1], y[:-1])

    def __call__(self, s, k: int = 0):
        i = self.inner.searchsorted(s, "right")
        u = s - self.x[i]
        a, b, c, d = self.coef
        a, b, c = a[i], b[i], c[i]
        v = ((a * u + b) * u + c) * u + d[i]
        if k == 0:
            return v
        d1 = (3.0 * a * u + 2.0 * b) * u + c
        return (v, d1) if k == 1 else (v, d1, 6.0 * a * u + 2.0 * b)


@dataclass(eq=False)
class _ContinuousEll:
    sigma: np.ndarray      # log t at knots
    ts: np.ndarray         # t at knots
    f: np.ndarray          # log ell(t) / t at knots
    log_r: np.ndarray      # log r*(t) at knots, nondecreasing
    spline: _Hermite
    t_hi: float


@lru_cache(maxsize=_SPEC_CACHE)
def _continuous_ell(spec: GrowthFunctionSpec) -> _ContinuousEll:
    """Cached spline of ``f(sigma) = log ell(e^sigma)/e^sigma`` used by the
    Laplace evaluation of ``L_u`` beyond any storable table.

    The spline spans ``t`` from ``1e-4`` to a ``t_hi`` past the first rung
    of the ladder ``t = 64, 128, ...`` whose minimizer reaches ``_R_WIDE``
    (or to ``0.94 t_sup``).  That rung is read off the slope: the minimizer
    for ``t`` is at least ``_R_WIDE`` exactly when ``t >= f'(log _R_WIDE)``,
    ``f(s) = log u(e^s)``.  One batched Newton solve (:func:`_newton_transform`)
    gives the knots and their exact slopes, so the spline needs no linear solve.
    """
    t_lo = 1e-4
    t_sup_eff = min(spec.t_sup * 0.94, 1e10)
    s_top = np.array([min(math.log(_R_WIDE), spec.s_max), spec.s_max])
    t_wide, t_top = spec.s_kernel(s_top)[1]
    rung = 64.0
    while rung < min(t_sup_eff, t_wide):
        rung *= 2.0
    found = min(rung, t_sup_eff)
    if found > min(t_top, spec.t_sup):
        raise _range_error(spec, found)
    t_hi = min(1.15 * found + 14.0 * math.sqrt(found) + 50.0, t_sup_eff)
    sigma = np.linspace(math.log(t_lo), math.log(t_hi), 1200)
    ts = np.exp(sigma)
    vals, rs = _newton_transform(spec, ts)
    f = vals / ts
    log_r = np.log(rs)
    # Exact slopes: d log ell / dt = -log r*, so df / dsigma = -log r* - f.
    spline = _Hermite(sigma, f, -log_r - f)
    for arr in (sigma, ts, f, log_r):
        arr.setflags(write=False)
    return _ContinuousEll(sigma, ts, f, log_r, spline, t_hi)


def _bracketed_newton(fun, x: np.ndarray, pos: np.ndarray, neg: np.ndarray):
    """Roots of ``fun`` by Newton steps, each replaced by the bracket midpoint
    when it leaves the bracket.  ``fun(x, idx)`` gives the values and slopes
    at the entries ``idx``; ``pos`` and ``neg`` are bracket ends where the
    value is positive and not.  Converged entries stop moving, so an entry's
    result does not depend on the others.  Returns the roots and the last
    slopes; :func:`_newton_transform` passes only the rows it cannot seed."""
    x, pos, neg = x.copy(), pos.copy(), neg.copy()
    slope = np.empty_like(x)
    act = np.arange(x.size)
    for _ in range(_NEWTON_MAX_ITER):
        xa = x[act]
        v, dv = fun(xa, act)
        slope[act] = dv
        up = v > 0.0
        pos[act[up]] = xa[up]
        neg[act[~up]] = xa[~up]
        p, n = pos[act], neg[act]
        newton = xa - v / dv
        inside = (newton - p) * (newton - n) <= 0.0
        step = np.where(v == 0.0, xa, np.where(inside, newton, 0.5 * (p + n)))
        x[act] = step
        act = act[np.abs(step - xa) > _NEWTON_TOL]
        if act.size == 0:
            break
    return x, slope


_NEAR = np.arange(-2, 2)


def _peak_knot(ce: _ContinuousEll, lr: np.ndarray) -> np.ndarray:
    """Per ``log r``, the first knot at which ``h = log ell(t) + t log r``
    is largest.  ``h`` is concave in ``t`` with its peak where ``log r*(t) =
    log r``, so the largest knot value lies next to that crossing: the
    argmax over the four knots around it, found by one ``searchsorted``."""
    k = np.minimum(np.maximum(ce.log_r.searchsorted(lr), 2), ce.ts.size - 2)
    near = k[:, None] + _NEAR
    return k - 2 + (ce.ts[near] * (ce.f[near] + lr[:, None])).argmax(axis=1)


def _laplace_rule(spec: GrowthFunctionSpec, rs: np.ndarray) -> np.ndarray:
    """``log integral_0^inf ell_u(t) r^t dt`` for a block of radii ``r > 0``."""
    ce = _continuous_ell(spec)
    spline = ce.spline
    lr = np.log(rs)
    n = rs.size
    i = _peak_knot(ce, lr)
    for bad, what in (
        (i >= ce.sigma.size - 3,
         f"lies beyond the wide-evaluation range of {spec.function_id}"),
        (i <= 2, "is below the wide-evaluation range; use the table rule"),
    ):
        if bad.any():
            raise CapacityError(f"r={rs[bad][0]:g} {what}")

    # Peak of h(sigma) = e^sigma (f(sigma) + log r): the root of
    # q = f + f' + log r, which falls through zero there, near knot i.
    def q(s, k):
        v, d1, d2 = spline(s, 2)
        return v + d1 + lr[k], d1 + d2

    s_star, dq = _bracketed_newton(q, ce.sigma[i], ce.sigma[i - 2], ce.sigma[i + 2])[:2]
    h_star = np.exp(s_star) * (spline(s_star) + lr)

    # Window edges, where h falls _H_DROP below the peak.  h rises and then
    # falls in sigma, so a side's edge lies inside (peak, domain end) exactly
    # when h at that end is at or below the target; a side whose end is
    # above it takes the end, unless h there is within 45 nats of the peak.
    side = np.repeat([-1.0, 1.0], n)
    row = np.arange(2 * n) % n
    end = ce.sigma[np.repeat([0, -1], n)]
    target = h_star[row] - _H_DROP
    h_end = np.exp(end) * (spline(end) + lr[row])
    clipped = row[h_end > h_star[row] - 45.0]
    if clipped.size:
        raise CapacityError(
            f"integration window for r={rs[clipped.min()]:g} is clipped at the "
            f"wide-domain edge of {spec.function_id}"
        )
    inner = np.flatnonzero(h_end <= target)

    def drop(s, idx):
        k = inner[idx]
        v, d1 = spline(s, 1)
        e = np.exp(s)
        return e * (v + lr[row[k]]) - target[k], e * (v + d1 + lr[row[k]])

    # One Newton solve on the bracket (peak, end), started at the Gaussian
    # width, or at the bracket midpoint where that start leaves the bracket.
    a, b = s_star[row[inner]], end[inner]
    x0 = a + side[inner] * np.sqrt(2.0 * _H_DROP / np.abs(np.exp(s_star) * dq))[row[inner]]
    x0 = np.where((x0 - a) * (x0 - b) < 0.0, x0, 0.5 * (a + b))
    s_out = end.copy()
    s_out[inner] = _bracketed_newton(drop, x0, a, b)[0]

    x, w = _gl_nodes(192)
    t_a, t_b = np.exp(s_out[:n]), np.exp(s_out[n:])
    half = 0.5 * (t_b - t_a)
    tt = (0.5 * (t_a + t_b))[:, None] + half[:, None] * x
    hh = tt * (spline(np.log(tt)) + lr[:, None])
    return h_star + np.log(np.exp(hh - h_star[:, None]) @ w) + np.log(half)


def l_function_integral(spec: GrowthFunctionSpec, r: float | np.ndarray):
    """``log L_u(r)`` via ``log integral_0^inf ell_u(t) r^t dt``.

    ``r`` is a radius or an array of radii; a scalar gives a float, an array
    an array of its shape.  Valid once the dominant index of the series is
    large (hundreds and up): there the sum and the integral agree to
    spectral accuracy (the summand is a wide near-Gaussian bump in ``t``),
    and a Gauss-Legendre rule over the window where the integrand stays
    within ``exp(-70)`` of its peak captures everything that matters.
    Errors name the first radius they concern.
    """
    rs = _reals(r, "r", "(0, inf)")
    return _blockwise(lambda block: _laplace_rule(spec, block), rs)


def l_function_wide(evaluator: LFunctionEvaluator, r: float | np.ndarray):
    """``log L_u(r)``: table rule where it holds, Laplace integral beyond.

    ``r`` is a radius or an array of radii; a scalar gives a float, an array
    an array of its shape.
    """
    rs = _reals(r)

    def rule(block: np.ndarray) -> np.ndarray:
        vals, err = _table_rule(evaluator.table, block)
        if err is not None:  # the table rule left NaN rows
            rest = np.isnan(vals)
            vals[rest] = _laplace_rule(evaluator.spec, block[rest])
        return vals

    return _blockwise(rule, rs)


def bidual(spec: GrowthFunctionSpec, r: float) -> float:
    """``sup_{t >= 0} [log ell_u(t) + t log r]`` — reconstructs ``log u(r)``.

    The objective ``h(t)`` is concave with ``h'(t) = log r - log r*(t)``, so
    the supremum sits at the ``t*`` whose minimizer is ``r`` itself: the
    slope ``t* = f'(log r)`` of ``f(s) = log u(e^s)`` (the gradient of a
    conjugate is its maximizer).  ``t*`` is read from ``spec.s_kernel`` and
    ``log ell(t*)`` comes from one batched Newton solve; no search over
    ``t`` is made.  Raises :class:`~growthcalc.growth.CapacityError` when
    ``log r`` reaches ``s_max``, when ``t*`` lies past ``0.97 t_sup`` (the
    faithful range of a series), or when ``t*`` or ``t* log r`` overflows.
    """
    r = _real(r, "r", "[0, inf)")
    h0 = _grid_infimum(spec)
    if r == 0.0:
        return h0
    lr = math.log(r)
    t_star = float(spec.s_kernel(np.array([lr]))[1][0]) if lr < spec.s_max else math.inf
    if not (t_star <= 0.97 * spec.t_sup and t_star * abs(lr) < math.inf):
        raise CapacityError(
            f"the supremum for r={r:g} needs t beyond the faithful range "
            f"of {spec.function_id}"
        )
    if t_star == 0.0:  # f' underflows: the supremum is the t = 0 value
        return h0
    log_ell = _newton_transform(spec, np.array([t_star]))[0]
    return max(float(log_ell[0]) + t_star * lr, h0)
