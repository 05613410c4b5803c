"""Weighted chaos-coefficient norms, Hermite evaluation, and the pairing and
Cauchy coefficient bounds.

One-dimensional surrogate of the weighted symmetric-tensor construction: a
chaos expansion is a scalar sequence ``(c_n)``, the test norm divides by the
transform values ``ell(n)``, the dual norm multiplies by ``(n!)^2 ell(n)``,
and exponential vectors tie the dual norms to the L-series.  Hermite
polynomials here are the probabilists' family (``He_{n+1} = x He_n - n
He_{n-1}``), matching the standard-Gaussian S-transform quadrature.

Norm arithmetic runs in the log domain: ``ell(n)`` decays super-exponentially
and the dual weights ``(n!)^2 ell(n)`` grow fast enough to overflow doubles
at moderate ``n``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .growth import (CapacityError, GrowthFunctionSpec, ParameterError, _log_factorials,
                     _count, _logsumexp, _radius_grid, _real, _reals, log_u_grid)
from .inequality_lab import VerificationReport, _report
from .legendre import LegendreTable, LFunctionEvaluator, l_function
from .measures import _DOMAINS


class HypothesisViolationError(RuntimeError):
    """An entire-function growth hypothesis fails at some radius."""

    def __init__(self, message: str, radius: float):
        super().__init__(message)
        self.radius = float(radius)


@dataclass(frozen=True)
class ChaosSequence:
    """Scalar chaos coefficients, optionally stored as logs.

    ``log_domain=True`` means ``values[n]`` is ``log c_n`` (with ``-inf`` for
    absent terms); such sequences are implicitly nonnegative.  Linear-domain
    sequences may carry signs (Hermite coefficients).
    """

    values: tuple[float, ...]
    log_domain: bool = False

    def __post_init__(self) -> None:
        # Finite, or -inf for an absent term in the log domain.
        domain = "[-inf, inf)" if self.log_domain else "(-inf, inf)"
        vals = _reals(self.values, "values", domain)
        if vals.ndim != 1 or not vals.size:
            raise ParameterError("a chaos sequence needs a nonempty list of coefficients")
        object.__setattr__(self, "values", tuple(vals.tolist()))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def degree(self) -> int:
        return len(self.values) - 1

    def log_abs(self) -> np.ndarray:
        v = np.asarray(self.values, dtype=float)
        if self.log_domain:
            return v
        with np.errstate(divide="ignore"):
            return np.log(np.abs(v))

    def linear(self) -> np.ndarray:
        v = np.asarray(self.values, dtype=float)
        if self.log_domain:
            with np.errstate(over="ignore"):
                return np.exp(v)
        return v

    @classmethod
    def delta(cls, n: int, size: int | None = None) -> "ChaosSequence":
        n = _count(n, "n")
        size = _count(n + 1 if size is None else size, "size", f"[{n + 1}, inf)")
        vals = [0.0] * size
        vals[n] = 1.0
        return cls(tuple(vals))

    @classmethod
    def exponential_vector(cls, xi: float, n_max: int) -> "ChaosSequence":
        """Coefficients ``xi^n / n!`` (log domain), the exponential vector."""
        xi = _real(xi, "xi", "[0, inf)")
        n_max = _count(n_max, "n_max")
        if xi == 0.0:
            logs = np.full(n_max + 1, -math.inf)
            logs[0] = 0.0
        else:
            logs = np.arange(n_max + 1) * math.log(xi) - _log_factorials(n_max)
        return cls(tuple(logs), log_domain=True)


def _require_table(seq: ChaosSequence, table: LegendreTable, op: str) -> None:
    if not table.is_integer_grid:
        raise ParameterError(f"{op} needs an integer-grid transform table")
    if seq.degree > table.n_max:
        raise ParameterError(
            f"{op}: sequence reaches n={seq.degree} but the table stops at "
            f"n={table.n_max}"
        )


def log_test_norm(seq: ChaosSequence, table: LegendreTable) -> float:
    """``log sqrt(sum c_n^2 / ell(n))`` — the test-side weighted norm."""
    _require_table(seq, table, "test_norm")
    la = seq.log_abs()
    return 0.5 * _logsumexp(2.0 * la - table.log_ell[: len(seq)])


def test_norm(seq: ChaosSequence, table: LegendreTable) -> float:
    v = log_test_norm(seq, table)
    return math.exp(v) if v < 709.0 else math.inf


def log_dual_norm(seq: ChaosSequence, table: LegendreTable) -> float:
    """``log sqrt(sum (n!)^2 ell(n) c_n^2)`` — the dual-side weighted norm."""
    _require_table(seq, table, "dual_norm")
    la = seq.log_abs()
    terms = 2.0 * (_log_factorials(len(seq) - 1) + la) + table.log_ell[: len(seq)]
    return 0.5 * _logsumexp(terms)


def dual_norm(seq: ChaosSequence, table: LegendreTable) -> float:
    v = log_dual_norm(seq, table)
    return math.exp(v) if v < 709.0 else math.inf


def exp_vector_norm(xi_abs: float, evaluator: LFunctionEvaluator) -> float:
    """Dual norm of the exponential vector: ``sqrt(L_u(xi^2))``."""
    xi_abs = _real(xi_abs, "xi_abs", "[0, inf)")
    v = 0.5 * l_function(evaluator, xi_abs * xi_abs)
    return math.exp(v) if v < 709.0 else math.inf


@dataclass(frozen=True)
class PairingResult:
    value: float
    bound: float
    satisfied: bool


def pairing_bound(
    test_seq: ChaosSequence, dual_seq: ChaosSequence, table: LegendreTable
) -> PairingResult:
    """Evaluate ``sum_n n! F_n f_n`` and its Cauchy-Schwarz bound
    ``dual_norm(F) * test_norm(f)``."""
    if len(test_seq) != len(dual_seq):
        raise ParameterError(
            f"pairing needs equal lengths, got {len(test_seq)} and {len(dual_seq)}"
        )
    _require_table(test_seq, table, "pairing_bound")
    log_mag = _log_factorials(len(test_seq) - 1) + test_seq.log_abs() + dual_seq.log_abs()
    # linear() of a log-domain sequence is nonnegative with exact zeros at
    # -inf entries, so its sign works uniformly for both storage modes.
    with np.errstate(over="ignore"):
        signs = np.sign(test_seq.linear()) * np.sign(dual_seq.linear())
        value = float(math.fsum(np.where(signs != 0.0, signs * np.exp(log_mag), 0.0)))
    log_bound = log_dual_norm(dual_seq, table) + log_test_norm(test_seq, table)
    bound = math.exp(log_bound) if log_bound < 709.0 else math.inf
    satisfied = abs(value) <= bound * (1.0 + 1e-12) + 1e-300
    return PairingResult(value, bound, satisfied)


# -- Hermite side -------------------------------------------------------------


def hermite_eval_1d(seq: ChaosSequence, x: float | np.ndarray) -> np.ndarray | float:
    """``sum_n c_n He_n(x)`` with probabilists' Hermite polynomials, for
    finite ``x``; a sum past the doubles raises ``CapacityError``."""
    c = seq.linear()
    xs = _reals(x, "x", "(-inf, inf)")
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    out = np.full_like(xs, c[0], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # judged below
        if len(c) > 1:
            h_prev = np.ones_like(xs)
            h_cur = xs.copy()
            out += c[1] * h_cur
            for n in range(1, len(c) - 1):
                h_prev, h_cur = h_cur, xs * h_cur - n * h_prev
                out += c[n + 1] * h_cur
    over = ~np.isfinite(out)
    if over.any():
        raise CapacityError(f"the Hermite sum overflows a double at x={xs[over][0]:g}")
    return float(out[0]) if scalar else out


def a_norm_1d(
    seq: ChaosSequence,
    spec: GrowthFunctionSpec,
    p: int = 0,
    x_grid: np.ndarray | None = None,
    rho: float = 0.5,
) -> float:
    """``sup_x |phi(x)| u(w x^2)^{-1/2}`` with ``phi = sum c_n He_n`` and the
    level weight ``w = rho^{2p}``.

    Warns when the supremum is attained on the grid boundary — the reported
    value is then a lower estimate.
    """
    rho, p = _real(rho, "rho", _DOMAINS["rho"]), _real(p, "p", "[0, inf)", whole=True)
    w = rho ** (2.0 * p)
    if not w > 0.0:
        raise ParameterError(f"the level weight must be positive, got {w}")
    xs = _reals(np.linspace(-12.0, 12.0, 4801) if x_grid is None else x_grid,
                "x", "(-inf, inf)")
    if xs.size < 3:
        raise ParameterError("a_norm_1d needs a grid of at least 3 points")
    vals = np.abs(hermite_eval_1d(seq, xs))
    with np.errstate(over="ignore"):  # u(inf) is u's limit
        lu = log_u_grid(spec, w * xs * xs)
    with np.errstate(divide="ignore"):
        score = np.log(np.maximum(vals, 1e-300)) - 0.5 * lu
    i = int(np.argmax(score))
    if i in (0, xs.size - 1):
        warnings.warn(
            f"A-norm supremum attained at the grid boundary x={xs[i]:g}; "
            "the value is a lower estimate",
            stacklevel=2,
        )
    return float(math.exp(score[i]))


def s_transform_1d(seq: ChaosSequence, xi: float) -> float:
    """``S(phi)(xi) = E[phi(X + xi)]`` for standard Gaussian ``X`` via
    Gauss-Hermite quadrature of order ``max(32, degree + 2)``, exact for the
    polynomial; maps ``He_n`` to ``xi^n``.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(max(32, seq.degree + 2))
    vals = hermite_eval_1d(seq, nodes + _real(xi, "xi", "(-inf, inf)"))
    return float(np.dot(weights, vals) / math.sqrt(2.0 * math.pi))


def cauchy_coefficient_bound(
    coeffs: np.ndarray,
    spec: GrowthFunctionSpec,
    K: float,
    a: float,
    table: LegendreTable,
    radius_grid: np.ndarray | None = None,
) -> VerificationReport:
    """Taylor-coefficient bound ``|f_n|^2 <= K^2 a^n ell(n)`` for an entire
    function satisfying ``|F(z)| <= K u(a |z|^2)^{1/2}``.

    The hypothesis is verified on a radius grid first; a violation raises
    :class:`HypothesisViolationError` naming the radius.  The report carries
    the per-n worst margin.
    """
    coeffs = _reals(coeffs, "coeffs", "(-inf, inf)")
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ParameterError("coeffs must be a nonempty 1-d array")
    K, a = _real(K, "K", "(0, inf)"), _real(a, "a", "(0, inf)")
    if radius_grid is None:
        cap = spec.faithful_cap
        r_hi = 30.0 if cap == math.inf else math.sqrt(0.9 * cap / a)
        radius_grid = np.geomspace(0.05, max(r_hi, 0.1), 240)
    rad = _radius_grid(radius_grid)
    with np.errstate(over="ignore"):  # |F| past the doubles fails; u(inf) is u's limit
        f_abs = np.abs(np.polynomial.polynomial.polyval(rad, coeffs))
        bound_log = math.log(K) + 0.5 * log_u_grid(spec, a * rad * rad)
    with np.errstate(divide="ignore"):
        excess = np.log(np.maximum(f_abs, 1e-300)) - bound_log
    j = int(np.argmax(excess))
    if excess[j] > 1e-12:
        raise HypothesisViolationError(
            f"|F| exceeds K u(a r^2)^(1/2) at radius r={rad[j]:g} "
            f"(log excess {excess[j]:.3g})",
            radius=float(rad[j]),
        )

    n_top = min(coeffs.size - 1, table.n_max)
    n = np.arange(n_top + 1, dtype=float)
    with np.errstate(divide="ignore"):
        lc = np.log(np.abs(coeffs[: n_top + 1]))
    margins = 2.0 * math.log(K) + n * math.log(a) + table.log_ell[: n_top + 1] - 2.0 * lc
    finite = np.isfinite(lc)
    if not finite.any():
        worst, wit = math.inf, {}
    else:
        idx = np.flatnonzero(finite)
        j = int(idx[np.argmin(margins[idx])])
        worst, wit = float(margins[j]), {"n": j}
    return _report(
        "cauchy-coefficient-bound",
        spec.function_id,
        worst,
        wit,
        {"K": K, "a": a, "n_max": int(n_top)},
        {"kind": "radius", "r_min": float(rad[0]), "r_max": float(rad[-1]),
         "points": int(rad.size)},
    )
