"""Integrability checks for the three reference measure families.

Each family gets a small closed-form or Monte Carlo surrogate:

* Gaussian product measure with geometric variances — the integral of
  ``exp(c |x|^2)`` factorizes, so finiteness reduces to a convergent
  ``prod (1 - 4 c rho^{2q(k+1)})^{-1/2}``.
* Poisson counting measure — expectations ``E[g(N)]`` are a single series in
  the Poisson weights.
* Grey noise in one dimension — a scale mixture of centered Gaussians whose
  mixing variable comes from a positive stable law (Kanter's representation),
  so the characteristic function is a Mittag-Leffler function of ``xi^2``.
  Its exponential moments are finite exactly below a weight known in
  closed form; the Monte Carlo estimates their values.

The ``hida_condition`` driver ties a measure surrogate to its matching growth
function and sweeps weight levels for the smallest one where the defining
integral is finite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .growth import (
    GrowthFunctionSpec,
    KONDRATIEV_STREIT,
    ITERATED_EXP_SQRT,
    ParameterError,
    _SPEC_CACHE,
    _is_real,
    default_r_grid,
    iterated_log,
    log_u_grid,
)

_GAUSSIAN = "gaussian"
_POISSON = "poisson"
_GREY = "grey"
#: ``poisson_integrability`` stops once a geometric bound on the remaining
#: tail is below this share of the partial sum, and gives up after
#: ``_POISSON_K_CAP`` terms.
_POISSON_TAIL_TOL = 1e-12
_POISSON_K_CAP = 100_000
#: ``fernique_product`` stops once a bound on the remaining log-tail is below this.
_FERNIQUE_TAIL_TOL = 1e-14


@dataclass(frozen=True)
class MeasureSurrogate:
    """Parameters of one reference measure plus sampling defaults.

    A Gaussian surrogate's ``q`` is validated but does not enter its Hida
    levels: level ``p`` integrates over the norm ``|x|_{-p}``, whatever ``q``."""

    kind: str
    rho: float = 0.5
    q: int = 1
    theta: float = 1.0
    w: float = 1.0
    lam: float = 1.0
    n: int = 10**6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MEASURE_KINDS:
            raise ParameterError(f"unknown measure kind {self.kind!r}")
        for name in ("rho", "q", "theta", "w", "lam", "n", "seed"):
            v, whole = getattr(self, name), name in ("n", "seed")
            if not (_is_whole(v) if whole else _is_real(v)):
                raise ParameterError(f"{self.kind} field {name!r} must be "
                                     f"{'an integer' if whole else 'a number'}, got {v!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        _MEASURE_TABLE[self.kind].validate(self)
        _check_weight(self.w)


def _is_whole(v) -> bool:
    return _is_real(v) and isinstance(v, numbers.Integral)


def _check_weight(w: float) -> None:
    if not 0.0 <= w < math.inf:
        raise ParameterError(f"the weight w must be finite and >= 0, got {w}")


def gaussian_product(rho: float = 0.5, q: int = 1) -> MeasureSurrogate:
    """The Gaussian product surrogate.  ``q`` is accepted and validated, but
    the Hida levels do not read it (see :class:`MeasureSurrogate`)."""
    return MeasureSurrogate(_GAUSSIAN, rho=rho, q=q)


def poisson_count(theta: float = 1.0, w: float = 1.0) -> MeasureSurrogate:
    return MeasureSurrogate(_POISSON, theta=theta, w=w)


def grey_1d(lam: float, n: int = 10**6, seed: int = 0, w: float = 1.0) -> MeasureSurrogate:
    return MeasureSurrogate(_GREY, lam=lam, n=n, seed=seed, w=w)


# -- Gaussian product ---------------------------------------------------------


@dataclass(frozen=True)
class FerniqueResult:
    value: float
    log_value: float
    finite: bool
    n_factors: int
    boundary: float          # the leading factor 4 c2 rho^{2q}; >= 1 means divergence
    tail_bound: float
    note: str = ""


def fernique_product(rho: float, q: float, c2: float) -> FerniqueResult:
    """``prod_k (1 - 4 c2 rho^{2q(k+1)})^{-1/2}`` — the Gaussian integral of
    ``exp(c2 |x|_{-q}^2)`` over the product measure with variances 2.

    Divergent when the leading factor ``4 c2 rho^{2q} >= 1``, and for ``q = 0``
    (no decay: infinitely many equal factors) whenever ``c2 > 0``.
    """
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"rho must lie in (0, 1), got {rho}")
    if not 0.0 <= q < math.inf:
        raise ParameterError(f"q must be finite and >= 0, got {q}")
    if not 0.0 <= c2 < math.inf:
        raise ParameterError(f"c2 must be finite and >= 0, got {c2}")
    if c2 == 0.0:
        return FerniqueResult(1.0, 0.0, True, 0, 0.0, 0.0)
    ratio = rho ** (2.0 * q)
    boundary = 4.0 * c2 * ratio
    if boundary >= 1.0:
        return FerniqueResult(
            math.inf, math.inf, False, 0, boundary,
            math.inf, "leading factor 4*c2*rho^(2q) >= 1",
        )
    if q == 0.0:
        return FerniqueResult(
            math.inf, math.inf, False, 0, boundary, math.inf,
            "q = 0 gives infinitely many identical factors",
        )
    log_value = 0.0
    x = boundary
    k = 0
    while True:
        log_value -= 0.5 * math.log1p(-x)
        k += 1
        x *= ratio
        # -log1p(-y) <= y / (1 - y); the remaining geometric tail is bounded
        # by the next term over (1 - ratio).
        tail = 0.5 * (x / (1.0 - x)) / (1.0 - ratio)
        if tail < _FERNIQUE_TAIL_TOL:
            break
        if k >= 10**6:
            raise RuntimeError("fernique_product failed to converge in 1e6 factors")
    return FerniqueResult(math.exp(log_value), log_value, True, k, boundary, tail)


# -- Poisson expectation ------------------------------------------------------


@dataclass(frozen=True)
class PoissonResult:
    value: float
    log_value: float
    finite: bool
    n_terms: int
    tail_bound: float
    witness_k: int | None = None
    note: str = ""


def poisson_sqrtlog_integrand(w: float = 1.0) -> Callable[[int], float]:
    """``log g(k)`` for ``g(k) = exp(sqrt(w) k sqrt(log_1(sqrt(w) k)))``."""
    _check_weight(w)
    s = math.sqrt(w)

    def log_g(k: int) -> float:
        x = s * k
        return x * math.sqrt(iterated_log(1, x)) if x > 0.0 else 0.0

    return log_g


def poisson_growth_integrand(spec: GrowthFunctionSpec, w: float = 1.0) -> Callable[[int], float]:
    """``log g(k)`` for ``g(k) = u(w k^2)^{1/2}``."""
    _check_weight(w)

    def log_g(k: int) -> float:
        return 0.5 * spec.log_u(w * float(k) * float(k))

    return log_g


def poisson_integrability(
    theta: float, log_integrand: Callable[[int], float]
) -> PoissonResult:
    """``E[g(N)] = sum_k g(k) e^{-theta} theta^k / k!`` for Poisson ``N``.

    Terms are accumulated in the log domain.  Divergence is declared when,
    past the Poisson mode (from ``k = max(theta, 30)`` on), the log ratio of
    consecutive terms stays positive and non-decreasing for 25 steps: the
    integrand beats the factorial with no sign of turning.  (The weights
    alone rise up to their mode, so rising terms before it say nothing.)
    Convergence stops once a geometric bound on the remaining tail drops
    below ``_POISSON_TAIL_TOL`` relative to the partial sum.
    """
    if not 0.0 < theta < math.inf:
        raise ParameterError(f"theta must be finite and positive, got {theta}")
    log_theta = math.log(theta)
    k_mode = max(theta, 30.0)
    partial = -math.inf
    prev = math.inf
    step = -math.inf
    rises = 0
    for k in range(_POISSON_K_CAP + 1):
        lg, lf = log_integrand(k), math.lgamma(k + 1.0)
        lw = lg - theta + k * log_theta - lf
        partial = float(np.logaddexp(partial, lw))
        # Rounding in the log terms makes ratios that are equal in exact
        # arithmetic wobble by about 1e-16 of the terms' size.
        noise = 1e-12 * (abs(lg) + lf + k * abs(log_theta) + theta)
        last, step = step, (lw - prev if lw > -math.inf else -math.inf)
        if k >= k_mode and step > 0.0 and step >= last - noise:
            rises += 1
            if rises >= 25:
                return PoissonResult(
                    math.inf, math.inf, False, k + 1, math.inf, witness_k=k,
                    note="terms grow at a non-falling ratio for 25 consecutive k "
                         "past the mode; the factorial loses",
                )
        else:
            rises = 0
        if k >= 10 and lw < prev:
            r = math.exp(lw - prev)
            if r < 0.9:
                log_tail = lw + math.log(r / (1.0 - r))
                if log_tail < math.log(_POISSON_TAIL_TOL) + partial:
                    value = math.exp(partial) if partial < 709.0 else math.inf
                    tail = math.exp(log_tail) if log_tail < 709.0 else math.inf
                    return PoissonResult(value, partial, True, k + 1, tail)
        prev = lw
    raise RuntimeError(f"poisson_integrability undecided after {_POISSON_K_CAP} terms")


# -- Grey noise ---------------------------------------------------------------


def grey_sample(lam: float, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` grey-noise variates with ``E exp(i xi X) = E_lam(-xi^2)``.

    ``X = sqrt(2 S) Z`` where ``S = T^{-lam}`` and ``T`` is positive
    ``lam``-stable.  Kanter's representation of ``T`` through
    ``theta = pi U`` and an exponential ``W`` gives ``S`` in closed form,

        ``S = W^{1-lam} sin(theta) / (sin(lam theta)^lam sin((1-lam) theta)^{1-lam})``,

    with no intermediate that can overflow.  ``S`` is built in one working
    array beside the draws, and ``Z`` is scaled in place into ``X``.
    ``lam = 1`` degenerates to ``sqrt(2) Z``.  The stream draws ``u``, then
    ``w``, then ``z``, so results are reproducible per (lam, n, seed).
    """
    if not 0.0 < lam <= 1.0:
        raise ParameterError(f"lambda must lie in (0, 1], got {lam}")
    if not (_is_whole(n) and n >= 1):
        raise ParameterError(f"n must be an integer >= 1, got {n!r}")
    if not (_is_whole(seed) and seed >= 0):
        raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    if lam == 1.0:
        z = rng.standard_normal(n)
        z *= math.sqrt(2.0)
        return z
    theta = rng.random(n)
    np.clip(theta, 1e-12, 1.0 - 1e-12, out=theta)
    theta *= math.pi
    s = np.multiply(theta, lam)
    np.power(np.sin(s, out=s), lam, out=s)
    sine = np.multiply(theta, 1.0 - lam)
    s *= np.power(np.sin(sine, out=sine), 1.0 - lam, out=sine)
    np.divide(np.sin(theta, out=sine), s, out=s)  # S / W^{1-lam}
    del theta, sine  # freed before the next draw
    w = rng.exponential(1.0, n)
    s *= np.power(np.maximum(w, 1e-300, out=w), 1.0 - lam, out=w)
    del w
    z = rng.standard_normal(n)
    z *= np.sqrt(np.multiply(s, 2.0, out=s), out=s)
    return z


@dataclass(frozen=True)
class GreyResult:
    """A Monte Carlo grey moment: every field is a reported diagnostic, none
    a verdict (finiteness is :func:`_grey_finite`'s exact boundary)."""

    value: float
    stderr: float
    log_value: float
    n: int
    seed: int
    stable: bool
    top_share: float
    note: str = ""


def grey_integrability(
    lam: float, w: float, n: int = 10**6, seed: int = 0
) -> GreyResult:
    """Monte Carlo estimate of ``E exp((2 - lam)/2 * (w X^2)^{1/(2-lam)})``
    — the grey-noise analogue of the Gaussian exponential-moment integral.

    Whether the moment is finite is not read from the sample: it is finite
    exactly when ``w < w* = (lam/2)^lam`` (:func:`_grey_finite`), and that
    boundary is the verdict of a grey-integrability job and of each Hida grey
    level.  The estimate and its ``stderr``, ``stable`` and ``top_share`` are
    reported diagnostics; near ``w*`` a sample can look stable on either
    side.

    The sample is the single working array.  It is overwritten with the log
    integrand ``le``, which is shifted by its maximum ``m`` and exponentiated
    in place into ``e = exp(le - m) <= 1``.  The mean is ``exp(m)`` times the
    mean of ``e`` and the second moment ``exp(2 m)`` times the mean of
    ``e * e``, so heavy samples cannot silently overflow; instead the
    estimate is flagged unstable when a 0.1% sliver of the sample carries
    most of the mass or the second moment overflows.  The sample needs
    ``n >= 100``, as for a grey :class:`MeasureSurrogate`.
    """
    grey_1d(lam, n, seed, w)  # raises ParameterError on a bad lam, n, seed or w
    return _grey_estimate(lam, w, grey_sample(lam, n, seed), seed)


def _grey_estimate(lam: float, w: float, x: np.ndarray, seed: int) -> GreyResult:
    """:func:`grey_integrability` on the sample ``x`` drawn with ``seed``,
    which it overwrites: ``x`` is the working array."""
    n = x.size
    e = np.square(x, out=x)
    e *= w
    e **= 1.0 / (2.0 - lam)
    e *= 0.5 * (2.0 - lam)
    m = float(e.max())
    e -= m
    np.exp(e, out=e)
    total = float(e.sum())
    log_sum = m + math.log(total)
    log_mean = log_sum - math.log(n)
    log_m2 = 2.0 * m + math.log(float(np.einsum("i,i->", e, e))) - math.log(n)
    note = ""
    if log_m2 < 700.0 and log_mean < 350.0:
        m1 = math.exp(log_mean)
        var = max(math.exp(log_m2) - m1 * m1, 0.0)
        stderr = math.sqrt(var / n)
    else:
        stderr = math.inf
        note = "second moment overflows; the estimate is untrustworthy"
    k_top = max(1, n // 1000)
    e.partition(n - k_top)
    top_share = float(e[n - k_top:].sum()) / total
    stable = math.isfinite(stderr) and top_share <= 0.5
    if not stable and not note:
        note = f"top 0.1% of samples carry {top_share:.1%} of the mass"
    value = math.exp(log_mean) if log_mean < 709.0 else math.inf
    return GreyResult(value, stderr, log_mean, n, seed, stable, top_share, note)


def _grey_finite(lam: float, w: float) -> bool:
    """Whether ``E exp((2 - lam)/2 (w X^2)^{1/(2-lam)})`` is finite: exactly
    when ``w < w* = (lam/2)^lam``.

    ``X`` has the absolute moments ``E|X|^d = Gamma(d + 1) / Gamma(lam d/2 + 1)``
    (the M-Wright density), so expanding the exponential gives the positive
    series ``sum_j c^j Gamma(p j + 1) / (j! Gamma(q j + 1))`` with
    ``c = (2-lam)/2 w^{1/(2-lam)}``, ``p = 2/(2-lam)`` and ``q = p - 1``.  Its
    term ratio rises to ``(w / w*)^{1/(2-lam)}``, and at ``w = w*`` its terms
    decay like ``j^{-1/2}``, so it diverges there too.  At ``lam = 1`` the
    series is ``(1 - 2w)^{-1/2}``."""
    return w < (0.5 * lam) ** lam


# -- Hida-condition driver ----------------------------------------------------


@dataclass(frozen=True)
class HidaReport:
    measure_kind: str
    function_id: str
    p: int
    finite: bool
    smallest_finite_p: int | None
    levels: tuple[dict, ...] = field(default_factory=tuple)
    seed: int | None = None
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "measure": self.measure_kind,
            "function": self.function_id,
            "p": self.p,
            "finite": self.finite,
            "smallest_finite_p": self.smallest_finite_p,
            "levels": list(self.levels),
            "seed": self.seed,
            "notes": self.notes,
        }


_ENVELOPE_C2 = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0)
#: Envelope scores within this many ulp of the compared terms at the top
#: score tie with it: where ``log u(r) / 2 = c2 r`` exactly, the score is
#: rounding noise.
_ENVELOPE_ULPS = 8


@lru_cache(maxsize=_SPEC_CACHE)
def _gaussian_envelope(spec: GrowthFunctionSpec) -> tuple[float, float]:
    """Smallest ``c2`` from a fixed ladder with ``u(r)^{1/2} <= c1 e^{c2 r}``
    certified on a grid: the first score that ties with the top one (within
    ``_ENVELOPE_ULPS``) must lie away from the right edge."""
    grid = default_r_grid()
    grid = grid[grid <= spec.trusted_radius]
    lu = 0.5 * log_u_grid(spec, grid)
    for c2 in _ENVELOPE_C2:
        score = lu - c2 * grid
        top = int(np.argmax(score))
        band = _ENVELOPE_ULPS * math.ulp(max(abs(lu[top]), c2 * grid[top]))
        i = int(np.argmax(score >= score[top] - band))
        if i < grid.size - 1:
            return float(math.exp(score[i])), c2
    raise ParameterError(
        f"{spec.function_id} admits no exponential envelope with c2 <= {_ENVELOPE_C2[-1]}"
    )


def _check_compatibility(surrogate: MeasureSurrogate, spec: GrowthFunctionSpec) -> None:
    measure = _MEASURE_TABLE[surrogate.kind]
    if not measure.pairs(surrogate, spec):
        raise ParameterError(f"{measure.partner(surrogate)}, not {spec.function_id}")


def _check_gaussian(surrogate: MeasureSurrogate) -> None:
    if not 0.0 < surrogate.rho < 1.0:
        raise ParameterError(f"rho must lie in (0, 1), got {surrogate.rho}")
    if not (surrogate.q >= 0 and float(surrogate.q).is_integer()):
        raise ParameterError(f"q must be an integer >= 0, got {surrogate.q}")


def _check_poisson(surrogate: MeasureSurrogate) -> None:
    if not 0.0 < surrogate.theta < math.inf:
        raise ParameterError(f"theta must be finite and positive, got {surrogate.theta}")


def _check_grey(surrogate: MeasureSurrogate) -> None:
    if not 0.0 < surrogate.lam <= 1.0:
        raise ParameterError(f"lambda must lie in (0, 1], got {surrogate.lam}")
    if surrogate.n < 100:
        raise ParameterError(f"grey sampling needs n >= 100, got {surrogate.n}")


def _gaussian_level(surrogate: MeasureSurrogate, spec: GrowthFunctionSpec, p: int) -> dict:
    c1, c2 = _gaussian_envelope(spec)
    # integrand u(|x|_{-p}^2)^{1/2} <= c1 exp(c2 |x|_{-p}^2); the factorized
    # Gaussian integral of the right side is fernique_product(rho, p, c2/2)
    # because the coordinate variances are 2.
    res = fernique_product(surrogate.rho, p, 0.5 * c2)
    return {
        "p": p,
        "finite": res.finite,
        "bound": c1 * res.value if res.finite else math.inf,
        "boundary": res.boundary,
        "c1": c1,
        "c2": c2,
        "n_factors": res.n_factors,
    }


def _poisson_level(surrogate: MeasureSurrogate, spec: GrowthFunctionSpec, p: int) -> dict:
    w = surrogate.rho ** (2.0 * p) * surrogate.w
    res = poisson_integrability(surrogate.theta, poisson_growth_integrand(spec, w))
    return {
        "p": p,
        "finite": res.finite,
        "value": res.value,
        "n_terms": res.n_terms,
        "tail_bound": res.tail_bound,
        "w": w,
    }


def _grey_levels(surrogate: MeasureSurrogate, spec: GrowthFunctionSpec, ps) -> list[dict]:
    # One draw serves every level, each the estimate a lone grey_integrability
    # call with the same (lam, n, seed) makes.  The estimate is reported; the
    # verdict is the exact boundary.
    x = grey_sample(surrogate.lam, surrogate.n, surrogate.seed)
    levels = []
    for p in ps:
        w = surrogate.rho ** (2.0 * p) * surrogate.w
        res = _grey_estimate(surrogate.lam, w, x.copy(), surrogate.seed)
        levels.append({
            "p": p,
            "finite": _grey_finite(surrogate.lam, w),
            "value": res.value,
            "stderr": res.stderr,
            "top_share": res.top_share,
            "w": w,
            "note": res.note,
        })
    return levels


def _per_level(level: Callable) -> Callable:
    """The sweep that calls ``level(surrogate, spec, p)`` at each ``p``."""
    return lambda surrogate, spec, ps: [level(surrogate, spec, p) for p in ps]


def hida_condition(
    surrogate: MeasureSurrogate, spec: GrowthFunctionSpec, p: int = 0
) -> HidaReport:
    """Check ``int u(|x|_{-p}^2)^{1/2} dmu < inf`` for the matching pair and
    sweep levels ``0..max(p, 4)`` for the smallest finite one.

    Mismatched (measure, growth function) pairs raise
    :class:`~growthcalc.growth.ParameterError`.
    """
    if p < 0:
        raise ParameterError(f"p must be >= 0, got {p}")
    _check_compatibility(surrogate, spec)
    measure = _MEASURE_TABLE[surrogate.kind]
    levels = measure.sweep(surrogate, spec, range(max(p, 4) + 1))
    smallest = next((q for q, entry in enumerate(levels) if entry["finite"]), None)
    seed = surrogate.seed if measure.sampled else None
    notes = "" if smallest is not None else "no finite level up to the sweep cap"
    return HidaReport(
        surrogate.kind, spec.function_id, p, levels[p]["finite"], smallest,
        tuple(levels), seed, notes,
    )


# -- the measure registry -----------------------------------------------------


@dataclass(frozen=True)
class _Measure:
    """What one reference measure checks, pairs with and integrates."""

    validate: Callable  # surrogate -> None; raises ParameterError
    pairs: Callable  # (surrogate, spec) -> whether the spec is its partner
    partner: Callable  # surrogate -> what it pairs with, for the error text
    sweep: Callable  # (surrogate, spec, ps) -> the Hida sweep's levels at ps
    sampled: bool  # Monte Carlo: its report carries the seed


_MEASURE_TABLE = {
    _GAUSSIAN: _Measure(
        _check_gaussian,
        lambda m, spec: spec.kind == KONDRATIEV_STREIT,
        lambda m: "the Gaussian product surrogate pairs with the "
                  "exp((1+beta) r^(1/(1+beta))) family",
        _per_level(_gaussian_level), sampled=False),
    _POISSON: _Measure(
        _check_poisson,
        lambda m, spec: spec.kind == ITERATED_EXP_SQRT and spec.k == 2,
        lambda m: "the Poisson surrogate pairs with g2",
        _per_level(_poisson_level), sampled=False),
    _GREY: _Measure(
        _check_grey,
        lambda m, spec: spec.kind == KONDRATIEV_STREIT
        and abs(spec.beta - (1.0 - m.lam)) <= 1e-9,
        lambda m: f"grey noise with lambda={m.lam} pairs with ks(beta={1.0 - m.lam:g})",
        _grey_levels, sampled=True),
}

MEASURE_KINDS = tuple(_MEASURE_TABLE)
