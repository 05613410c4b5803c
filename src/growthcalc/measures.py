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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .growth import (
    CapacityError,
    GrowthFunctionSpec,
    KONDRATIEV_STREIT,
    ITERATED_EXP_SQRT,
    ParameterError,
    _LAMBDAS,
    _SPEC_CACHE,
    _count,
    _real,
    default_r_grid,
    iterated_log,
    log_u_grid,
    mittag_leffler,
)

_GAUSSIAN = "gaussian"
_POISSON = "poisson"
_GREY = "grey"
#: ``poisson_integrability`` stops once a geometric bound on the remaining
#: tail is below this share of the partial sum, and gives up after
#: ``_POISSON_K_CAP`` terms.
_POISSON_TAIL_TOL = 1e-12
_POISSON_K_CAP = 100_000
#: ``fernique_product`` stops once a bound on the remaining log-tail is below
#: this, and gives up after ``_FERNIQUE_K_CAP`` factors.
_FERNIQUE_TAIL_TOL = 1e-14
_FERNIQUE_K_CAP = 10**6
#: Draws in one block of the grey Monte Carlo (:func:`_grey_blocks`).
_GREY_BLOCK = 1 << 14

#: The domain of each surrogate field, which the functions below taking the
#: same parameter read too; ``_WHOLE`` names the integer ones.  ``n``, the
#: grey sample size, is held to the size cap and is at least 100: one sample
#: would report stderr 0 up to rounding noise.
_DOMAINS = {
    "rho": "(0, 1)",
    "q": "[0, inf)",
    "theta": "(0, inf)",
    "w": "[0, inf)",
    "lam": _LAMBDAS,
    "n": "[100, inf)",
    "seed": "[0, inf)",
}
_WHOLE = frozenset({"q", "n", "seed"})


@dataclass(frozen=True)
class MeasureSurrogate:
    """Parameters of one reference measure plus sampling defaults, each on
    its ``_DOMAINS`` interval whatever the kind, stored as a float (an int
    for ``q``, ``n`` and ``seed``).

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
        for name, domain in _DOMAINS.items():
            v, label = getattr(self, name), f"{self.kind} field {name!r}"
            object.__setattr__(self, name, _count(v, label, domain) if name == "n"
                               else _real(v, label, domain, whole=name in _WHOLE))


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
    rho, q = _real(rho, "rho", _DOMAINS["rho"]), _real(q, "q", _DOMAINS["q"])
    c2 = _real(c2, "c2", "[0, inf)")
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
    if ratio == 1.0:
        raise CapacityError(f"rho^(2q) rounds to 1 at q={q}: the factors decay too slowly to sum")
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
        if k >= _FERNIQUE_K_CAP:
            raise CapacityError(f"fernique_product failed to converge in {_FERNIQUE_K_CAP} factors")
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
    s = math.sqrt(_real(w, "w", _DOMAINS["w"]))

    def log_g(k: int) -> float:
        x = s * k
        return x * math.sqrt(iterated_log(1, x)) if x > 0.0 else 0.0

    return log_g


def poisson_growth_integrand(spec: GrowthFunctionSpec, w: float = 1.0) -> Callable[[int], float]:
    """``log g(k)`` for ``g(k) = u(w k^2)^{1/2}``."""
    w = _real(w, "w", _DOMAINS["w"])

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
    theta = _real(theta, "theta", _DOMAINS["theta"])
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
    raise CapacityError(f"poisson_integrability undecided after {_POISSON_K_CAP} terms")


# -- Grey noise ---------------------------------------------------------------


def _trig_of_double(half: np.ndarray, sine: bool) -> np.ndarray:
    """``sin x`` (``sine``) or ``cos x`` of ``x = 2 half``, written into the
    array of half-angles ``half`` and returned, from ``tau = tan(half)``:
    ``sin x = 2 tau / (1 + tau^2)`` and ``cos x = 2 / (1 + tau^2) - 1``.

    numpy's float64 ``tan`` is vectorised on CPUs with ``AVX512_SKX``, where
    its ``sin`` and ``cos`` run through scalar libm and take seven times as
    long.  Against 40-digit values, the sine is within 2.2 ulp on (0, pi),
    also at the ends where Kanter's formula raises it to a power, and the
    cosine within 3.6e-16 absolutely for ``|x| <= 1e4``.  The sine holds
    one more working array; the cosine none."""
    tau = np.tan(half, out=half)
    if sine:
        d = np.square(tau)
        d += 1.0
        tau *= 2.0
        return np.divide(tau, d, out=tau)
    d = np.square(tau, out=tau)
    d += 1.0
    np.divide(2.0, d, out=d)
    d -= 1.0
    return d


def _grey_blocks(lam: float, n: int, seed: int, out: np.ndarray | None = None):
    """Yield :func:`grey_sample`'s ``X`` in blocks of ``_GREY_BLOCK`` draws,
    each valid until the next, drawing ``u``, ``w`` and ``z`` in turn into a
    block buffer.  For ``lam < 1``, ``S`` is built in one ``n``-array (``out``
    or a fresh one) and becomes ``X`` in place; ``lam = 1`` keeps none."""
    rng = np.random.default_rng(seed)
    spans = [(i, min(i + _GREY_BLOCK, n)) for i in range(0, n, _GREY_BLOCK)]
    buf = np.empty(min(n, _GREY_BLOCK))
    if lam == 1.0:
        for i, j in spans:
            z = rng.standard_normal(out=buf[:j - i] if out is None else out[i:j])
            yield np.multiply(z, math.sqrt(2.0), out=z)
        return
    s, work = np.empty(n) if out is None else out, np.empty_like(buf)
    for i, j in spans:
        half, sb = rng.random(out=buf[:j - i]), s[i:j]  # theta / 2, and S / W^{1-lam}
        np.clip(half, 1e-12, 1.0 - 1e-12, out=half)
        half *= 0.5 * math.pi
        _trig_of_double(np.multiply(half, lam, out=sb), sine=True)
        if not sb.all():  # lam theta underflows, for lam below about 1e-312
            raise CapacityError(f"lambda={lam:g} is too small to sample: lam theta underflows")
        np.power(sb, lam, out=sb)
        sine = _trig_of_double(np.multiply(half, 1.0 - lam, out=work[:j - i]), sine=True)
        sb *= np.power(sine, 1.0 - lam, out=sine)
        np.divide(_trig_of_double(half, sine=True), sb, out=sb)
    for i, j in spans:
        w = rng.standard_exponential(out=buf[:j - i])
        s[i:j] *= np.power(np.maximum(w, 1e-300, out=w), 1.0 - lam, out=w)
    for i, j in spans:
        z, sb = rng.standard_normal(out=buf[:j - i]), s[i:j]
        yield np.multiply(z, np.sqrt(np.multiply(sb, 2.0, out=sb), out=sb), out=sb)


def grey_sample(lam: float, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` grey-noise variates with ``E exp(i xi X) = E_lam(-xi^2)``.

    ``X = sqrt(2 S) Z`` where ``S = T^{-lam}`` and ``T`` is positive
    ``lam``-stable.  Kanter's representation of ``T`` through
    ``theta = pi U`` and an exponential ``W`` gives ``S`` in closed form,

        ``S = W^{1-lam} sin(theta) / (sin(lam theta)^lam sin((1-lam) theta)^{1-lam})``,

    with no intermediate that can overflow.  The three sines come from
    :func:`_trig_of_double` (the half-angle tangent) on ``theta / 2``, so
    they lie within a few ulp of numpy's ``sin``.  ``S`` is built in the
    array returned, beside block buffers, and scaled into ``X`` in place.
    ``lam = 1`` degenerates to ``sqrt(2) Z``.  The stream draws ``u``, then
    ``w``, then ``z``, so results are reproducible per (lam, n, seed).
    """
    lam = _real(lam, "lam", _DOMAINS["lam"])
    n = _count(n, "n", "[1, inf)")
    seed = _real(seed, "seed", _DOMAINS["seed"], whole=True)
    x = np.empty(n)
    for _ in _grey_blocks(lam, n, seed, x):
        pass
    return x


def _grey_cf(lam: float, n: int, seed: int, xis) -> list[dict]:
    """The grey sampler's characteristic function against the paper's: for
    each ``xi``, the sample mean of ``cos(xi X)`` over ``grey_sample(lam, n,
    seed)``, its standard error, the target ``E_lam(-xi^2)`` and their
    distance in standard errors.  Cosines come from :func:`_trig_of_double`
    in a block buffer; each block's sum and centred sum of squares merge
    into the running ones in draw order (Chan, Golub and LeVeque 1983).  The
    arguments are checked as a grey :class:`MeasureSurrogate`'s fields."""
    m = MeasureSurrogate(_GREY, lam=lam, n=n, seed=seed)
    xis, c = [float(xi) for xi in xis], np.empty(min(m.n, _GREY_BLOCK))
    sums = [(0, 0.0, 0.0) for _ in xis]  # per xi: count, sum, centred sum of squares
    for x in _grey_blocks(m.lam, m.n, m.seed):
        for a, xi in enumerate(xis):
            cb = _trig_of_double(np.multiply(x, 0.5 * xi, out=c[:x.size]), sine=False)
            (k, t, q), k2, t2 = sums[a], x.size, float(cb.sum())
            cb -= t2 / k2
            q += float(np.einsum("i,i->", cb, cb))
            if k:
                q += (t / k - t2 / k2) ** 2 * k * k2 / (k + k2)
            sums[a] = (k + k2, t + t2, q)
    rows = []
    for xi, (_, total, square) in zip(xis, sums):
        emp, se = total / m.n, math.sqrt(square / (m.n - 1)) / math.sqrt(m.n)
        target = mittag_leffler(m.lam, xi * xi)
        rows.append({"xi": xi, "empirical": emp, "target": target,
                     "stderr": se, "sigmas": abs(emp - target) / se})
    return rows


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

    The sample streams in blocks, with at most one sample-sized array.  Each
    block's log integrand ``le`` is shifted by the running maximum ``m`` into
    ``e = exp(le - m) <= 1``.  The mean is ``exp(m)`` times the mean of ``e``
    and the second moment ``exp(2 m)`` times the mean of ``e * e``, so heavy
    samples cannot silently overflow; instead the estimate is flagged
    unstable when a 0.1% sliver of the sample carries most of the mass or
    the second moment overflows.  The arguments are checked as a grey
    :class:`MeasureSurrogate`'s fields, so ``n >= 100``.
    """
    m = MeasureSurrogate(_GREY, lam=lam, n=n, seed=seed, w=w)
    return _grey_moments(m.lam, (m.w,), _grey_blocks(m.lam, m.n, m.seed), m.n, m.seed)[0]


def _grey_moments(lam: float, ws, blocks, n: int, seed: int) -> list[GreyResult]:
    """:func:`grey_integrability` at each weight of ``ws`` in one pass over
    the ``n`` draws of ``blocks``, keeping per weight a running maximum ``m``
    and sums of ``e`` and ``e * e``; every top 0.1% is the largest ``X^2``."""
    power, scale, k_top = 1.0 / (2.0 - lam), 0.5 * (2.0 - lam), max(1, n // 1000)
    sq, le, top = np.empty(min(n, _GREY_BLOCK)), np.empty(min(n, _GREY_BLOCK)), np.empty(0)
    sums = [[0.0, 0.0, 0.0] for _ in ws]  # per weight: m, sum of e, sum of e * e
    for x in blocks:
        x2 = np.square(x, out=sq[:x.size])
        pool = np.concatenate((top, x2))
        pool.partition(max(pool.size - k_top, 0))
        top = pool[-k_top:].copy()
        for acc, w in zip(sums, ws):
            with np.errstate(over="ignore"):  # judged below
                e = np.multiply(x2, w, out=le[:x.size])
                e **= power
                e *= scale
            peak = max(float(e.max()), acc[0])
            if peak < math.inf:
                rescale = math.exp(acc[0] - peak)
                e = np.exp(np.subtract(e, peak, out=e), out=e)
                acc[1:] = (acc[1] * rescale + float(e.sum()),
                           acc[2] * rescale * rescale + float(np.einsum("i,i->", e, e)))
            acc[0] = peak
    results = []
    for (m, total, square), w in zip(sums, ws):
        if m == math.inf:
            results.append(GreyResult(math.inf, math.inf, math.inf, n, seed, False, 1.0,
                                      "the integrand overflows a double"))
            continue
        log_mean = m + math.log(total) - math.log(n)
        log_m2 = 2.0 * m + math.log(square) - math.log(n)
        stderr, note = math.inf, "second moment overflows; the estimate is untrustworthy"
        if log_m2 < 700.0 and log_mean < 350.0:
            m1 = math.exp(log_mean)
            stderr, note = math.sqrt(max(math.exp(log_m2) - m1 * m1, 0.0) / n), ""
        top_share = float(np.exp((top * w) ** power * scale - m).sum()) / total
        stable = math.isfinite(stderr) and top_share <= 0.5
        if not stable and not note:
            note = f"top 0.1% of samples carry {top_share:.1%} of the mass"
        value = math.exp(log_mean) if log_mean < 709.0 else math.inf
        results.append(GreyResult(value, stderr, log_mean, n, seed, stable, top_share, note))
    return results


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
    # One pass serves every level, each the estimate a lone grey_integrability
    # call makes.  The estimate is reported; the verdict is the exact boundary.
    lam, n, seed = surrogate.lam, surrogate.n, surrogate.seed
    ws = [surrogate.rho ** (2.0 * p) * surrogate.w for p in ps]
    results = _grey_moments(lam, ws, _grey_blocks(lam, n, seed), n, seed)
    return [{"p": p, "finite": _grey_finite(lam, w), "value": res.value, "stderr": res.stderr,
             "top_share": res.top_share, "w": w, "note": res.note}
            for p, w, res in zip(ps, ws, results)]


def _per_level(level: Callable) -> Callable:
    """The sweep that calls ``level(surrogate, spec, p)`` at each ``p``."""
    return lambda surrogate, spec, ps: [level(surrogate, spec, p) for p in ps]


#: The highest level ``hida_condition`` sweeps to: its report holds one
#: record per level, and a grey sweep's work grows as ``p`` times the sample.
_HIDA_LEVEL_CAP = 64


def hida_condition(
    surrogate: MeasureSurrogate, spec: GrowthFunctionSpec, p: int = 0
) -> HidaReport:
    """Check ``int u(|x|_{-p}^2)^{1/2} dmu < inf`` for the matching pair and
    sweep levels ``0..max(p, 4)`` for the smallest finite one.

    Mismatched (measure, growth function) pairs raise
    :class:`~growthcalc.growth.ParameterError`; a ``p`` past
    ``_HIDA_LEVEL_CAP`` (64) raises ``CapacityError`` before any level runs.
    """
    p = _count(p, "p")
    if p > _HIDA_LEVEL_CAP:
        raise CapacityError(f"p must be at most the level cap {_HIDA_LEVEL_CAP}, got {p}")
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
    """What one reference measure pairs with and integrates."""

    pairs: Callable  # (surrogate, spec) -> whether the spec is its partner
    partner: Callable  # surrogate -> what it pairs with, for the error text
    sweep: Callable  # (surrogate, spec, ps) -> the Hida sweep's levels at ps
    sampled: bool  # Monte Carlo: its report carries the seed


_MEASURE_TABLE = {
    _GAUSSIAN: _Measure(
        lambda m, spec: spec.kind == KONDRATIEV_STREIT,
        lambda m: "the Gaussian product surrogate pairs with the "
                  "exp((1+beta) r^(1/(1+beta))) family",
        _per_level(_gaussian_level), sampled=False),
    _POISSON: _Measure(
        lambda m, spec: spec.kind == ITERATED_EXP_SQRT and spec.k == 2,
        lambda m: "the Poisson surrogate pairs with g2",
        _per_level(_poisson_level), sampled=False),
    _GREY: _Measure(
        lambda m, spec: spec.kind == KONDRATIEV_STREIT
        and abs(spec.beta - (1.0 - m.lam)) <= 1e-9,
        lambda m: f"grey noise with lambda={m.lam} pairs with ks(beta={1.0 - m.lam:g})",
        _grey_levels, sampled=True),
}

MEASURE_KINDS = tuple(_MEASURE_TABLE)
