"""The dual-side chaos-coefficient norm, the S-transform and the Cauchy
coefficient bound.

One-dimensional surrogate of the weighted symmetric-tensor construction: a
chaos expansion is a scalar sequence ``(c_n)``, the dual norm multiplies by
the weights ``(n!)^2 ell(n)``, and exponential vectors tie it to the
L-series: ``|E_xi|^2 = L_u(xi^2)``.  The coefficients are on the
probabilists' Hermite polynomials ``He_n``, whose standard-Gaussian
S-transform is ``xi^n`` (Kuo 1996, ch. 5), so ``S(phi)(xi) = sum_n c_n xi^n``.

Norm arithmetic runs in the log domain: the dual weights ``(n!)^2 ell(n)``
grow fast enough to overflow doubles at moderate ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .growth import (CapacityError, GrowthFunctionSpec, ParameterError, _log_factorials,
                     _count, _logsumexp, _radius_grid, _real, _reals, log_u_grid)
from .inequality_lab import VerificationReport, _report
from .legendre import LegendreTable, LFunctionEvaluator, _read_only, l_function


class HypothesisViolationError(RuntimeError):
    """An entire-function growth hypothesis fails at some radius."""

    def __init__(self, message: str, radius: float):
        super().__init__(message)
        self.radius = float(radius)


@dataclass(frozen=True, eq=False)
class ChaosSequence:
    """Scalar chaos coefficients, optionally stored as logs.

    ``log_domain=True`` means ``values[n]`` is ``log c_n`` (with ``-inf`` for
    absent terms); such sequences are implicitly nonnegative.  Linear-domain
    sequences may carry signs (Hermite coefficients).  ``values`` is a
    read-only float array; a writeable input is copied first.
    """

    values: np.ndarray
    log_domain: bool = False

    def __post_init__(self) -> None:
        # Finite, or -inf for an absent term in the log domain.
        domain = "[-inf, inf)" if self.log_domain else "(-inf, inf)"
        vals = _reals(self.values, "values", domain)
        if vals.ndim != 1 or not vals.size:
            raise ParameterError("a chaos sequence needs a nonempty list of coefficients")
        object.__setattr__(self, "values", _read_only(vals))

    def __len__(self) -> int:
        return self.values.size

    @property
    def degree(self) -> int:
        return self.values.size - 1

    def log_abs(self) -> np.ndarray:
        if self.log_domain:
            return self.values
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.values))

    def linear(self) -> np.ndarray:
        if not self.log_domain:
            return self.values
        with np.errstate(over="ignore"):
            return np.exp(self.values)

    @classmethod
    def delta(cls, n: int) -> "ChaosSequence":
        """``He_n``: the coefficients ``0, ..., 0, 1`` of degree ``n``."""
        values = np.zeros(_count(n, "n") + 1)
        values[-1] = 1.0
        values.setflags(write=False)
        return cls(values)

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
        logs.setflags(write=False)
        return cls(logs, log_domain=True)


def log_dual_norm(seq: ChaosSequence, table: LegendreTable) -> float:
    """``log sqrt(sum (n!)^2 ell(n) c_n^2)`` — the dual-side weighted norm."""
    if not table.is_integer_grid:
        raise ParameterError("dual_norm needs an integer-grid transform table")
    if seq.degree > table.n_max:
        raise ParameterError(f"dual_norm: sequence reaches n={seq.degree} but the table "
                             f"stops at n={table.n_max}")
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


# -- S-transform ---------------------------------------------------------------


def s_transform_1d(seq: ChaosSequence, xi: float) -> float:
    """``S(phi)(xi) = E[phi(X + xi)]`` for standard Gaussian ``X``: since
    ``E He_n(X + xi) = xi^n``, the power series ``sum_n c_n xi^n``, summed by
    Horner's rule.

    A value is returned only where it is finite and Horner's rounding bound
    ``gamma_{2n} sum_n |c_n| |xi|^n`` (Higham 2002, section 5.1) is within
    ``1e-8 max(1, |S|)``; an ill-conditioned or overflowing sum raises
    ``CapacityError``.
    """
    xi = _real(xi, "xi", "(-inf, inf)")
    value = scale = 0.0
    for c in seq.linear()[::-1].tolist():  # Python floats overflow to inf quietly
        value, scale = value * xi + c, scale * abs(xi) + abs(c)
    k_u = seq.degree * np.finfo(float).eps  # 2n unit roundoffs
    rounding = k_u / (1.0 - k_u) * scale
    if not (rounding <= 1e-8 * max(1.0, abs(value)) and math.isfinite(value)):
        raise CapacityError(
            f"the S-transform of degree {seq.degree} at xi={xi:g} is not certified: "
            f"rounding bound {rounding:.3g} against the value {value:.3g}")
    return value


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
