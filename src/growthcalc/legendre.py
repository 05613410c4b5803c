"""Legendre transforms in the multiplicative scale, L-series, and biduality.

For a growth function ``u`` the transform is

    ``ell_u(t) = inf_{r > 0} u(r) / r^t``,    t >= 0,

computed here as a convex minimization of ``phi(s) = log u(e^s) - t s`` in
``s = log r``.  The associated L-series ``L_u(r) = sum_n ell_u(n) r^n`` is the
natural comparison object for exponential-vector norms, and the biduality map
``r -> sup_t ell_u(t) r^t`` reconstructs ``u``.

Tables carry ``log ell`` and the minimizer ``r*``; every value is log-domain.
Evaluation of ``L_u`` far beyond any storable table (the verification grids
reach arguments ~1e9) switches from the truncated-series rule to a
Laplace/quadrature evaluation driven by a cached spline of
``log ell(e^sigma) / e^sigma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import logsumexp

from .growth import (
    BELL_SERIES,
    CapacityError,
    GrowthFunctionSpec,
    ParameterError,
    default_r_grid,
    log_u_grid,
)


class UnboundedBelowError(RuntimeError):
    """``inf u(r)/r^t`` has no interior minimizer: the transform is -inf."""


class CapTooSmallError(RuntimeError):
    """A supremum search hit its cap while the objective was still rising."""


class InsufficientTableError(RuntimeError):
    """The truncation rule did not trigger within the stored table."""

    def __init__(self, message: str, last_ratio: float, n_max: int):
        super().__init__(message)
        self.last_ratio = float(last_ratio)
        self.n_max = int(n_max)


_S_FLOOR = -745.0
_PROBE = 1e-3
_LN2 = math.log(2.0)

#: L-series arguments the wide evaluator is built to reach.
_R_WIDE = 2.0e9
#: The Laplace window keeps every integrand value within this drop of the peak.
_H_DROP = 70.0


def _ternary_argmin(f, lo: float, hi: float, tol: float, max_iter: int) -> float:
    """Midpoint of the bracket left by ternary search for the minimum of a
    unimodal ``f`` on ``[lo, hi]``; callers maximise by passing ``-g``."""
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)


def _grid_infimum(spec: GrowthFunctionSpec) -> float:
    grid = default_r_grid()
    cap = spec.faithful_cap
    if cap < math.inf:
        grid = grid[grid <= 0.98 * cap]
    return float(np.min(log_u_grid(spec, grid)))


def legendre_transform(
    spec: GrowthFunctionSpec,
    t: float,
    s_tol: float = 1e-12,
    max_iter: int = 200,
    s_hint: float | None = None,
) -> tuple[float, float]:
    """``(log ell_u(t), r*)`` by bracketed ternary search on the convex ``phi``.

    ``t = 0`` returns the grid infimum of ``u`` (its minimum, 1 for U1
    functions) with ``r* = 0``.  ``s_hint`` (a previous ``log r*``) warm-starts
    the bracket for monotone sweeps.

    Raises :class:`UnboundedBelowError` when ``phi`` is still decreasing at
    the bracket cap (e.g. a finite power series with degree below ``t``), and
    :class:`~growthcalc.growth.CapacityError` when a series-backed function
    cannot support the requested ``t``.
    """
    t = float(t)
    if math.isnan(t) or t < 0.0:
        raise ParameterError(f"legendre_transform requires t >= 0, got {t}")
    if t == 0.0:
        return _grid_infimum(spec), 0.0
    if t > spec.t_sup:
        raise CapacityError(
            f"t={t:g} exceeds the safe transform range of {spec.function_id} "
            f"(t_sup ~ {spec.t_sup:.3g})"
        )
    s_cap = spec.s_max

    def phi(s: float) -> float:
        return spec.log_u(math.exp(s)) - t * s

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
        if spec.kind == BELL_SERIES:
            raise CapacityError(
                f"minimizer for t={t:g} lies beyond the faithful series range "
                f"of {spec.function_id}"
            )
        raise UnboundedBelowError(
            f"u(r)/r^t is still decreasing at r = e^{s_cap:.0f} for t={t:g}; "
            f"the transform of {spec.function_id} is unbounded below"
        )
    # Expand left while phi is increasing at lo (minimizer further left).
    step = 40.0
    while lo > _S_FLOOR and phi(lo + _PROBE) > phi(lo):
        lo = max(lo - step, _S_FLOOR)
        step *= 2.0

    s_star = _ternary_argmin(phi, lo, hi, s_tol, max_iter)
    return phi(s_star), math.exp(s_star)


@dataclass(eq=False)
class LegendreTable:
    """Transform values on a t-grid: ``log ell(t)`` and minimizers ``r*(t)``."""

    function_id: str
    t: np.ndarray
    log_ell: np.ndarray
    r_star: np.ndarray
    s_tol: float = 1e-12

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.log_ell = np.asarray(self.log_ell, dtype=float)
        self.r_star = np.asarray(self.r_star, dtype=float)
        if not (len(self.t) == len(self.log_ell) == len(self.r_star)):
            raise ParameterError("table columns must share one length")
        if len(self.t) == 0:
            raise ParameterError("table must contain at least one row")
        if np.any(np.diff(self.t) <= 0.0):
            raise ParameterError("table t-grid must be strictly increasing")
        for arr in (self.t, self.log_ell, self.r_star):
            arr.setflags(write=False)

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

    def replace(self, **kw) -> "LegendreTable":
        data = {
            "function_id": self.function_id,
            "t": self.t.copy(),
            "log_ell": self.log_ell.copy(),
            "r_star": self.r_star.copy(),
            "s_tol": self.s_tol,
        }
        data.update(kw)
        return LegendreTable(**data)

    # -- serialization ----------------------------------------------------

    def csv_text(self) -> str:
        lines = ["t,log_ell,r_star"]
        for ti, li, ri in zip(self.t, self.log_ell, self.r_star):
            lines.append(f"{float(ti)!r},{float(li)!r},{float(ri)!r}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(self.csv_text())

    def to_json_dict(self) -> dict:
        return {
            "function_id": self.function_id,
            "t": self.t.tolist(),
            "log_ell": self.log_ell.tolist(),
            "r_star": self.r_star.tolist(),
            "s_tol": self.s_tol,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LegendreTable":
        return cls(
            function_id=d["function_id"],
            t=np.asarray(d["t"], dtype=float),
            log_ell=np.asarray(d["log_ell"], dtype=float),
            r_star=np.asarray(d["r_star"], dtype=float),
            s_tol=float(d.get("s_tol", 1e-12)),
        )


def legendre_sequence(
    spec: GrowthFunctionSpec, n_max: int, s_tol: float = 1e-12
) -> LegendreTable:
    """Table of ``log ell(n)``, ``r*(n)`` for n = 0..n_max (warm-started sweep)."""
    if n_max < 0:
        raise ParameterError(f"legendre_sequence requires n_max >= 0, got {n_max}")
    return legendre_table(spec, np.arange(n_max + 1, dtype=float), s_tol=s_tol)


def legendre_table(
    spec: GrowthFunctionSpec, t_values, s_tol: float = 1e-12
) -> LegendreTable:
    """Table of the transform on an arbitrary increasing t-grid."""
    ts = np.asarray(t_values, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ParameterError("t_values must be a nonempty 1-d array")
    log_ell = np.empty(ts.size)
    r_star = np.empty(ts.size)
    hint: float | None = None
    for i, t in enumerate(ts):
        val, rs = legendre_transform(spec, float(t), s_tol=s_tol, s_hint=hint)
        log_ell[i] = val
        r_star[i] = rs
        if rs > 0.0:
            hint = math.log(rs)
    return LegendreTable(spec.function_id, ts, log_ell, r_star, s_tol=s_tol)


@dataclass(eq=False)
class LFunctionEvaluator:
    """Truncated-series evaluator for ``L_u(r) = sum_n ell_u(n) r^n``."""

    spec: GrowthFunctionSpec
    table: LegendreTable

    def __post_init__(self) -> None:
        if not self.table.is_integer_grid:
            raise ParameterError("L-series evaluation requires an integer t-grid")

    @classmethod
    def from_spec(
        cls, spec: GrowthFunctionSpec, n_max: int = 1200, s_tol: float = 1e-12
    ) -> "LFunctionEvaluator":
        n_max = min(n_max, int(spec.t_sup)) if spec.t_sup < math.inf else n_max
        return cls(spec, legendre_sequence(spec, n_max, s_tol=s_tol))

    @property
    def n_max(self) -> int:
        return self.table.n_max


def l_function(evaluator: LFunctionEvaluator, r: float, rel_tol: float = 1e-12) -> float:
    """``log L_u(r)`` by the ratio-based truncation rule.

    The series is cut at the first index from which the term ratio stays
    below 1/2 for five consecutive steps, then extended until the geometric
    tail bound drops below ``rel_tol`` times the partial sum.  (Once ratios
    fall below 1/2 they stay there: ``ell`` is log-concave, so term ratios
    are monotone in ``n``.)  The returned value excludes the bounded tail.

    Raises :class:`InsufficientTableError` (with the last observed ratio)
    when the rule cannot trigger inside the stored table.
    """
    r = float(r)
    if math.isnan(r) or r < 0.0:
        raise ParameterError(f"l_function requires r >= 0, got {r}")
    if rel_tol <= 0.0:
        raise ParameterError("rel_tol must be positive")
    le = evaluator.table.log_ell
    if r == 0.0:
        return float(le[0])
    lt = le + evaluator.table.t * math.log(r)
    d = np.diff(lt)
    N = len(lt) - 1
    small = d < -_LN2
    run = np.convolve(small.astype(int), np.ones(5, dtype=int), mode="valid") == 5
    hits = np.flatnonzero(run)
    if hits.size == 0:
        raise InsufficientTableError(
            f"truncation rule did not trigger by n={N} at r={r:g} "
            f"(last term ratio {math.exp(d[-1]):.3g})",
            last_ratio=math.exp(d[-1]),
            n_max=N,
        )
    n_cut = int(hits[0]) + 5
    partial = float(logsumexp(lt[: n_cut + 1]))
    log_rel = math.log(rel_tol)
    while True:
        if n_cut < N:
            rho = math.exp(min(d[n_cut], -1e-12))
            tail_log = lt[n_cut] + math.log(rho) - math.log1p(-rho)
        else:
            rho = min(math.exp(d[-1]), 0.5)
            tail_log = lt[N] + math.log(rho) - math.log1p(-rho)
        if tail_log <= log_rel + partial:
            return partial
        if n_cut == N:
            raise InsufficientTableError(
                f"tail bound still {math.exp(tail_log - partial):.3g} of the sum "
                f"at the table end (n={N}, r={r:g})",
                last_ratio=math.exp(d[-1]),
                n_max=N,
            )
        n_cut += 1
        partial = float(np.logaddexp(partial, lt[n_cut]))


# -- wide-range L evaluation -------------------------------------------------


@lru_cache(maxsize=1)
def _gl_nodes(n: int = 192) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(eq=False)
class _ContinuousEll:
    sigma: np.ndarray      # log t at knots
    ts: np.ndarray         # t at knots
    f: np.ndarray          # log ell(t) / t at knots
    spline: CubicSpline
    t_lo: float
    t_hi: float


@lru_cache(maxsize=None)
def _continuous_ell(spec: GrowthFunctionSpec) -> _ContinuousEll:
    """Cached spline of ``f(sigma) = log ell(e^sigma)/e^sigma`` used by the
    Laplace evaluation of ``L_u`` beyond any storable table."""
    t_lo = 1e-4
    t_sup_eff = min(spec.t_sup * 0.94, 1e10)
    t_probe = 64.0
    hint: float | None = None
    while True:
        t_eval = min(t_probe, t_sup_eff)
        _, rs = legendre_transform(spec, t_eval, s_tol=1e-9, s_hint=hint)
        hint = math.log(rs) if rs > 0 else None
        if rs >= _R_WIDE or t_eval >= t_sup_eff:
            found = t_eval
            break
        t_probe *= 2.0
    t_hi = min(1.15 * found + 14.0 * math.sqrt(found) + 50.0, t_sup_eff)
    m = 1200
    sigma = np.linspace(math.log(t_lo), math.log(t_hi), m)
    ts = np.exp(sigma)
    vals = np.empty(m)
    hint = None
    for i in range(m):
        v, rs = legendre_transform(spec, float(ts[i]), s_tol=1e-10, s_hint=hint)
        vals[i] = v
        if rs > 0.0:
            hint = math.log(rs)
    f = vals / ts
    spline = CubicSpline(sigma, f)
    for arr in (sigma, ts, f):
        arr.setflags(write=False)
    return _ContinuousEll(sigma, ts, f, spline, t_lo, t_hi)


def l_function_integral(spec: GrowthFunctionSpec, r: float) -> float:
    """``log L_u(r)`` via ``log integral_0^inf ell_u(t) r^t dt``.

    Valid once the dominant index of the series is large (hundreds and up):
    there the sum and the integral agree to spectral accuracy (the summand is
    a wide near-Gaussian bump in ``t``), and a Gauss-Legendre rule over the
    window where the integrand stays within ``exp(-70)`` of its peak captures
    everything that matters.
    """
    r = float(r)
    if not r > 0.0:
        raise ParameterError("the integral form needs r > 0")
    ce = _continuous_ell(spec)
    lr = math.log(r)
    h = ce.ts * (ce.f + lr)
    i = int(np.argmax(h))
    if i >= len(h) - 3:
        raise CapacityError(
            f"r={r:g} lies beyond the wide-evaluation range of {spec.function_id}"
        )
    if i <= 2:
        raise CapacityError(
            f"r={r:g} is below the wide-evaluation range; use the table rule"
        )

    def g(sg: float) -> float:
        return math.exp(sg) * (float(ce.spline(sg)) + lr)

    s_star = _ternary_argmin(lambda sg: -g(sg), float(ce.sigma[i - 2]),
                             float(ce.sigma[i + 2]), 1e-11, 90)
    h_star = g(s_star)

    # The bump in sigma is typically much narrower than the knot spacing, so
    # the window edges (where h falls _H_DROP below the peak) are located by
    # doubling steps out of the peak followed by bisection.
    lo_edge, hi_edge = float(ce.sigma[0]), float(ce.sigma[-1])
    target = h_star - _H_DROP

    def edge(direction: int) -> float:
        s_in = s_star
        step = 1e-6
        while True:
            s_out = s_in + direction * step
            if (direction > 0 and s_out >= hi_edge) or (
                direction < 0 and s_out <= lo_edge
            ):
                s_out = hi_edge if direction > 0 else lo_edge
                if g(s_out) > h_star - 45.0:
                    raise CapacityError(
                        "integration window clipped at the wide-domain edge"
                    )
                return s_out
            if g(s_out) <= target:
                for _ in range(50):
                    mid = 0.5 * (s_in + s_out)
                    if g(mid) <= target:
                        s_out = mid
                    else:
                        s_in = mid
                return s_out
            s_in = s_out
            step *= 2.0

    t_a, t_b = math.exp(edge(-1)), math.exp(edge(+1))
    x, w = _gl_nodes()
    tt = 0.5 * (t_a + t_b) + 0.5 * (t_b - t_a) * x
    hh = tt * (ce.spline(np.log(tt)) + lr)
    val = float(np.dot(w, np.exp(hh - h_star)))
    return h_star + math.log(val) + math.log(0.5 * (t_b - t_a))


def l_function_wide(
    evaluator: LFunctionEvaluator, r: float, rel_tol: float = 1e-12
) -> float:
    """``log L_u(r)``: table rule where it triggers, Laplace integral beyond."""
    try:
        return l_function(evaluator, r, rel_tol=rel_tol)
    except InsufficientTableError:
        return l_function_integral(evaluator.spec, r)


def bidual(spec: GrowthFunctionSpec, r: float, t_cap: float = 4.0e6) -> float:
    """``sup_{t >= 0} [log ell_u(t) + t log r]`` — reconstructs ``log u(r)``.

    The objective is concave in ``t`` (an infimum of affine functions plus a
    linear term), so a ternary search over [0, t_cap] suffices.  Raises
    :class:`CapTooSmallError` when the supremum sits against ``t_cap`` with
    the objective still rising.
    """
    r = float(r)
    if math.isnan(r) or r < 0.0:
        raise ParameterError(f"bidual requires r >= 0, got {r}")
    if t_cap <= 0.0:
        raise ParameterError("t_cap must be positive")
    h0 = legendre_transform(spec, 0.0)[0]
    if r == 0.0:
        return h0
    lr = math.log(r)
    cap_eff = min(t_cap, spec.t_sup * 0.97)
    hint: float | None = None

    def h(t: float) -> float:
        nonlocal hint
        if t == 0.0:
            return h0
        val, rs = legendre_transform(spec, t, s_hint=hint)
        if rs > 0.0:
            hint = math.log(rs)
        return val + t * lr

    delta = cap_eff * 1e-9
    if h(cap_eff) > h(cap_eff - delta):
        if cap_eff < t_cap:
            raise CapacityError(
                f"the supremum for r={r:g} needs t beyond the faithful range "
                f"of {spec.function_id}"
            )
        raise CapTooSmallError(
            f"objective still rising at t_cap={t_cap:g} for r={r:g}; raise t_cap"
        )
    t_star = _ternary_argmin(lambda t: -h(t), 0.0, cap_eff,
                             max(1e-12, 1e-13 * cap_eff), 260)
    return max(h(t_star), h0)
