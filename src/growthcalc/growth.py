"""Growth-function catalog: log-domain evaluation and admissibility certificates.

A growth function is a continuous ``u : [0, inf) -> [1, inf)`` used to weight
a scale of sequence-space norms.  The catalog covers stretched exponentials
(``exp[(1+beta) r^(1/(1+beta))]``), iterated-exponential-of-square-root
functions ``g_k``, inverse-Bell-number power series ``u_k``, plain
exponentials, and explicit power series.

Every value is produced and exchanged as ``log u(r)``: these functions grow
at least like ``exp(c r^eps)``, so linear-domain evaluation overflows doubles
long before the ranges of interest.  Series kinds are summed by windowed
log-sum-exp around the dominant term.

All operations are pure and deterministic.  Module-level caches are
``functools.lru_cache`` memoizations of immutable (read-only) arrays;
concurrent callers at worst duplicate a computation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from scipy.special import gammaln, logsumexp


class ParameterError(ValueError):
    """A parameter is outside the documented domain of an operation."""


class CapacityError(RuntimeError):
    """A request exceeds the safe range of an exact or truncated computation."""


KONDRATIEV_STREIT = "kondratiev_streit"
ITERATED_EXP_SQRT = "iterated_exp_sqrt"
BELL_SERIES = "bell_series"
POWER_SERIES = "power_series"
EXPONENTIAL = "exponential"

#: Entries kept by each cache keyed by a spec: callers can build any number
#: of specs, and each entry holds arrays or a spline.
_SPEC_CACHE = 64

CONDITION_IDS = ("U0", "U1", "U2", "U3", "C+,1/2", "C+,log")

#: Conditions claimed by the closed-form catalog families.
_STANDARD_CLAIMS = frozenset({"U0", "U1", "U2", "U3"})

# Series tables: number of stored coefficients.  The classical Bell series
# (k=2) gets a large table because the verification grids push it to
# r ~ 1e8 and the L-series machinery probes several times farther; the
# higher-order series are only exercised at moderate r.
_N_BELL2 = 1 << 18
_N_BELL_HIGH = 4096

#: Fraction of the coefficient table the dominant series term may reach
#: before truncation error becomes unaccountable.
_PEAK_FRACTION = 0.92

#: Exact Bell-number computations are quadratic in ``n`` with big integers;
#: beyond this the log-domain float path must be used instead.
_BELL_EXACT_CAP = 1200

#: Largest magnitude the alternating Mittag-Leffler series may reach before
#: the spectral integral takes over.  fsum itself is exactly rounded, but
#: each term carries an exp(gammaln) rounding of order term * 1e-14; with a
#: 1e4 cap that noise stays near 1e-10 absolute, keeping the series at least
#: two digits inside the 1e-8 agreement tolerance wherever it is used.
_ML_SERIES_TERM_CAP = 1.0e4

#: Largest ratio of the biggest series term to the sum itself: past it the
#: terms' rounding, not the function, sets the result's relative error (near
#: lam = 1 and t ~ 10 terms reach thousands while the sum is about 1e-3).
_ML_SERIES_CANCELLATION = 1.0e4


def iterated_log(k: int, r: float) -> float:
    """k-fold clamped logarithm: ``log_1(r) = log(max(e, r))``, ``log_k = log_1 ∘ log_{k-1}``.

    The clamp makes every iterate total on the reals and equal to 1 below
    ``r = e``.  ``k = 0`` is the identity (it appears as the inner iterate of
    the k=1 member of the iterated-exponential family).
    """
    if k < 0:
        raise ParameterError(f"iterated_log requires k >= 0, got {k}")
    v = float(r)
    for _ in range(k):
        v = math.log(max(math.e, v))
    return v


def bell_numbers(k: int, n_max: int) -> list[int]:
    """Exact k-th order Bell numbers ``b_k(0..n_max)``.

    ``b_k(n) = n! [r^n] exp_k(r)`` where ``exp_1(r) = e^r`` and
    ``exp_j(r) = exp(exp_{j-1}(r) - 1)`` (normalized so ``exp_k(0) = 1``).
    Hence ``b_1 ≡ 1``, ``b_2`` are the classical Bell numbers 1, 1, 2, 5, 15,
    52, ... and ``b_3`` starts 1, 1, 3, 12, 60, 358.

    Differentiating the defining composition once and matching coefficients
    gives the exact-integer recurrence used here::

        b_j(n+1) = sum_{i=0..n} C(n, i) * b_{j-1}(i+1) * b_j(n-i)

    starting from ``b_1 ≡ 1``.
    """
    if k < 1:
        raise ParameterError(f"bell_numbers requires k >= 1, got {k}")
    if n_max < 0:
        raise ParameterError(f"bell_numbers requires n_max >= 0, got {n_max}")
    if k >= 2 and n_max > _BELL_EXACT_CAP:
        raise CapacityError(
            f"exact Bell-number chain is quadratic in n with large integers; "
            f"max supported n_max is {_BELL_EXACT_CAP}, got {n_max}"
        )
    level = [1] * (n_max + 2)
    for _ in range(k - 1):
        prev, level = level, [1]
        for n in range(n_max + 1):
            level.append(
                sum(math.comb(n, i) * prev[i + 1] * level[n - i] for i in range(n + 1))
            )
    return level[: n_max + 1]


def _bell_peak(n: float) -> float:
    """Solve ``j log j = n`` (location of the dominant Dobinski term)."""
    j = max(2.0, n / max(1.0, math.log(max(n, 2.0))))
    for _ in range(50):
        f = j * math.log(j) - n
        j -= f / (math.log(j) + 1.0)
        j = max(j, 1.5)
        if abs(f) < 1e-9 * max(1.0, n):
            break
    return j


@lru_cache(maxsize=None)
def _log_bell_dobinski(n_hi: int) -> np.ndarray:
    """``log B(n)`` for the classical Bell numbers, n = 0..n_hi.

    Dobinski sum ``B(n) = e^{-1} sum_j j^n / j!`` evaluated blockwise: a run
    of consecutive n shares one window of j around the dominant term, which
    keeps the whole table linear-time.  Window half-width 14 sigma leaves a
    relative tail below e^{-90}.
    """
    out = np.empty(n_hi + 1)
    out[0] = 0.0
    block, rows = 1024, 32
    n0 = 1
    while n0 <= n_hi:
        n1 = min(n0 + block - 1, n_hi)
        j_lo_c = _bell_peak(float(n0))
        j_hi_c = _bell_peak(float(n1))
        s_lo = j_lo_c / math.sqrt(n0 + j_lo_c)
        s_hi = j_hi_c / math.sqrt(n1 + j_hi_c)
        lo = max(1, int(j_lo_c - 14.0 * s_lo - 8.0))
        hi = int(j_hi_c + 14.0 * s_hi + 8.0)
        j = np.arange(lo, hi + 1, dtype=float)
        lj = np.log(j)
        lg = gammaln(j + 1.0)
        # The block's rows share the j-window but not their sums: evaluate
        # them a cache-sized slab at a time in one reused buffer.
        buf = np.empty((rows, j.size))
        for a in range(n0, n1 + 1, rows):
            b = min(a + rows, n1 + 1)
            ex = buf[: b - a]
            np.multiply(np.arange(a, b, dtype=float)[:, None], lj, out=ex)
            ex -= lg
            m = ex.max(axis=1)
            ex -= m[:, None]
            np.exp(ex, out=ex)
            out[a:b] = m + np.log(ex.sum(axis=1)) - 1.0
        n0 = n1 + 1
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _egf_log_coeffs(k: int, n_hi: int) -> np.ndarray:
    """``log [r^n] exp_k(r)`` for n = 0..n_hi (normalized ``exp_k(0) = 1``).

    Level k is built from level k-1 through the log-domain convolution
    ``(n+1) c_{n+1} = sum_i (i+1) a_{i+1} c_{n-i}`` (all terms positive, so
    log-sum-exp is exact in the relative sense).
    """
    if k < 1:
        raise ParameterError(f"exp_k requires k >= 1, got {k}")
    n = np.arange(n_hi + 1, dtype=float)
    if k == 1:
        out = -gammaln(n + 1.0)
    else:
        la = _egf_log_coeffs(k - 1, n_hi)
        wa = la[1:] + np.log(np.arange(1, n_hi + 1, dtype=float))
        out = np.empty(n_hi + 1)
        out[0] = 0.0
        for m in range(n_hi):
            out[m + 1] = logsumexp(wa[: m + 1] + out[m::-1]) - math.log(m + 1)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GrowthFunctionSpec:
    """A growth function with its parameters and claimed admissibility conditions.

    ``claimed_conditions`` records which of U0-U3 the catalog asserts for the
    function; :func:`check_conditions` produces the corresponding grid
    certificate.  Instances are immutable and hashable so evaluation tables
    can be memoized against them.
    """

    kind: str
    beta: float = 0.0
    k: int = 2
    c: float = 1.0
    log_coeffs: tuple[float, ...] | None = None
    claimed_conditions: frozenset[str] = field(default_factory=frozenset)
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ParameterError(f"unknown growth-function kind {self.kind!r}")
        if self.kind == KONDRATIEV_STREIT and not (0.0 <= self.beta < 1.0):
            raise ParameterError(f"beta must lie in [0, 1), got {self.beta}")
        if self.kind in (ITERATED_EXP_SQRT, BELL_SERIES) and self.k < 1:
            raise ParameterError(f"k must be a positive integer, got {self.k}")
        if self.kind == EXPONENTIAL and not 0 < self.c < math.inf:
            raise ParameterError(f"exponential rate must be positive and finite, got {self.c}")
        if self.kind == POWER_SERIES:
            if not self.log_coeffs:
                raise ParameterError("power_series requires at least one log-coefficient")
            coeffs = tuple(float(x) for x in self.log_coeffs)
            if any(math.isnan(x) or x == math.inf for x in coeffs):
                raise ParameterError("power_series log-coefficients must be < +inf and not NaN")
            object.__setattr__(self, "log_coeffs", coeffs)
        bad = set(self.claimed_conditions) - set(CONDITION_IDS)
        if bad:
            raise ParameterError(f"unknown claimed conditions: {sorted(bad)}")

    # -- identification -------------------------------------------------

    @property
    def function_id(self) -> str:
        return self.label or _KIND_TABLE[self.kind].name(self)

    # -- evaluation ------------------------------------------------------

    def log_u(self, r: float) -> float:
        """``log u(r)`` for a single nonnegative ``r``."""
        r = float(r)
        if not r >= 0.0:  # NaN or negative
            raise ParameterError(f"growth functions are defined for r >= 0, got {r}")
        return self.kernel(r)

    @cached_property
    def kernel(self):
        """``log u`` for a float ``r >= 0``, unchecked: the hot loops' entry
        point, built once per spec from the kind's formula."""
        return _KIND_TABLE[self.kind].kernel(self)

    @cached_property
    def s_kernel(self):
        """``f, f', f''`` of ``f(s) = log u(e^s)`` over a 1-d array of finite
        ``s <= s_max``, unchecked: the batched Legendre solve's entry point."""
        return _KIND_TABLE[self.kind].s_kernel(self)

    def __getstate__(self) -> dict:
        # The kernels are closures: rebuild them after unpickling.
        state = dict(self.__dict__)
        state.pop("kernel", None)
        state.pop("s_kernel", None)
        return state

    # -- evaluation-range metadata ----------------------------------------

    @property
    def series_cap(self) -> float:
        """Largest ``r`` a series-backed kind can evaluate faithfully."""
        if self.kind == BELL_SERIES:
            return _series_r_cap(self)
        return math.inf

    @property
    def faithful_cap(self) -> float:
        """Largest ``r`` at which the stored representation still represents
        the intended function (used to clip condition-check grids)."""
        if self.kind == BELL_SERIES:
            return self.series_cap
        if self.kind == POWER_SERIES:
            return _power_faithful_cap(self)
        return math.inf

    @property
    def s_max(self) -> float:
        """Upper bracket bound for minimization in ``s = log r``."""
        if self.kind == BELL_SERIES:
            return math.log(self.series_cap)
        return 700.0

    @property
    def t_sup(self) -> float:
        """Largest Legendre argument ``t`` with a certifiably interior minimizer."""
        if self.kind == BELL_SERIES:
            return 0.88 * (len(_series_logc(self)) - 1)
        return math.inf


# -- factories ------------------------------------------------------------


def kondratiev_streit(beta: float) -> GrowthFunctionSpec:
    """``u(r) = exp[(1+beta) r^(1/(1+beta))]`` for ``beta`` in [0, 1)."""
    return GrowthFunctionSpec(
        kind=KONDRATIEV_STREIT, beta=float(beta), claimed_conditions=_STANDARD_CLAIMS
    )


def iterated_exp_sqrt(k: int) -> GrowthFunctionSpec:
    """``g_k(r) = exp[2 sqrt(r log_{k-1} sqrt(r))]`` with the clamped iterated log."""
    return GrowthFunctionSpec(
        kind=ITERATED_EXP_SQRT, k=int(k), claimed_conditions=_STANDARD_CLAIMS
    )


def bell_series(k: int) -> GrowthFunctionSpec:
    """``u_k(r) = sum_n r^n / (b_k(n) n!)`` with k-th order Bell numbers."""
    return GrowthFunctionSpec(
        kind=BELL_SERIES, k=int(k), claimed_conditions=_STANDARD_CLAIMS
    )


def exponential(c: float = 1.0) -> GrowthFunctionSpec:
    """``u(r) = exp(c r)``."""
    return GrowthFunctionSpec(
        kind=EXPONENTIAL, c=float(c), claimed_conditions=_STANDARD_CLAIMS
    )


def power_series(
    log_coeffs, claimed_conditions=(), label: str = ""
) -> GrowthFunctionSpec:
    """``u(r) = sum_n exp(log_coeffs[n]) r^n`` (use ``-inf`` for absent terms)."""
    return GrowthFunctionSpec(
        kind=POWER_SERIES,
        log_coeffs=tuple(log_coeffs),
        claimed_conditions=frozenset(claimed_conditions),
        label=label,
    )


def spec_to_dict(spec: GrowthFunctionSpec) -> dict:
    """JSON-ready description of a spec (inverse of :func:`spec_from_dict`)."""
    key = _KIND_TABLE[spec.kind].param
    value = getattr(spec, key)
    if isinstance(value, tuple):
        # JSON has no -Infinity literal; absent series terms serialize as null.
        value = [None if v == -math.inf else v for v in value]
    out: dict = {"kind": spec.kind, key: value}
    if spec.claimed_conditions:
        out["claimed_conditions"] = sorted(spec.claimed_conditions)
    if spec.label:
        out["label"] = spec.label
    return out


def spec_from_dict(d: dict) -> GrowthFunctionSpec:
    """Build a spec from a config mapping like ``{"kind": "kondratiev_streit", "beta": 0.5}``."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ParameterError("function spec must be a mapping with a 'kind' field")
    kind = d["kind"]
    if kind not in KINDS:
        raise ParameterError(f"unknown growth-function kind {kind!r}")
    entry = _KIND_TABLE[kind]
    key = entry.param
    spec = entry.factory(_config_param(d, kind), d.get("claimed_conditions", ()))
    extra = set(d) - {"kind", "label", "claimed_conditions", key}
    if extra:
        raise ParameterError(
            f"{kind} spec has unknown field(s) {sorted(extra, key=str)}; "
            f"it reads {key!r}, 'label' and 'claimed_conditions'"
        )
    # A catalog kind fixes its claims; a power series takes the config's.
    claims = d.get("claimed_conditions")
    if claims is not None and frozenset(claims) != spec.claimed_conditions:
        raise ParameterError(
            f"{kind} claims {sorted(spec.claimed_conditions)}; "
            f"claimed_conditions {claims!r} would contradict the catalog"
        )
    label = d.get("label", "")
    return replace(spec, label=label) if label else spec


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _config_param(d: dict, kind: str):
    """The kind's parameter from a config mapping.  Strings and booleans are
    not numbers, ``k`` must be integral, and series coefficients are numbers
    or nulls (absent terms): none of them is coerced."""
    key = _KIND_TABLE[kind].param
    v = d.get(key, _KIND_TABLE[kind].default)
    if key == "log_coeffs":
        if not isinstance(v, (list, tuple)) or not all(x is None or _is_real(x) for x in v):
            raise ParameterError(
                "power_series field 'log_coeffs' must be a list of numbers and nulls"
            )
        return [-math.inf if x is None else float(x) for x in v]
    if not _is_real(v):
        raise ParameterError(f"{kind} field {key!r} must be a number, got {v!r}")
    if key == "k" and not (isinstance(v, numbers.Integral) or float(v).is_integer()):
        raise ParameterError(f"{kind} field 'k' must be an integer, got {v!r}")
    return v


def log_u(spec: GrowthFunctionSpec, r: float) -> float:
    """``log u(r)``; see :meth:`GrowthFunctionSpec.log_u`."""
    return spec.log_u(r)


def log_u_grid(spec: GrowthFunctionSpec, rs: np.ndarray) -> np.ndarray:
    """Vectorized ``log u`` over an array of radii: the spec's kernel at each
    radius, so every value equals :meth:`GrowthFunctionSpec.log_u` bit for bit."""
    rs = np.asarray(rs, dtype=float)
    if rs.size and (np.isnan(rs).any() or rs.min() < 0.0):
        raise ParameterError("growth functions are defined for r >= 0")
    kernel = spec.kernel
    return np.array([kernel(r) for r in rs.ravel().tolist()]).reshape(rs.shape)


# -- scalar kernels ----------------------------------------------------------
#
# One builder per kind.  ``GrowthFunctionSpec.log_u`` and ``log_u_grid`` both
# call the spec's kernel, so they agree bit for bit.


def _ks_kernel(spec: GrowthFunctionSpec):
    b1 = 1.0 + spec.beta
    power = 1.0 / b1
    return lambda r: b1 * r**power


def _exponential_kernel(spec: GrowthFunctionSpec):
    c = spec.c
    return lambda r: c * r


def _iterated_exp_sqrt_kernel(spec: GrowthFunctionSpec):
    depth = spec.k - 1
    e, log, sqrt = math.e, math.log, math.sqrt

    def kernel(r: float) -> float:
        if r == 0.0:
            return 0.0
        x = sqrt(r)
        for _ in range(depth):  # iterated_log(k - 1, sqrt(r))
            x = log(x if x > e else e)
        return 2.0 * sqrt(r * x)

    return kernel


def _bell_kernel(spec: GrowthFunctionSpec):
    """Windowed log-sum-exp of the series terms around the dominant one."""
    logc = _series_logc(spec)
    locate = _series_gaps(spec).searchsorted
    index = np.arange(logc.size, dtype=float)
    top = logc.size - 1
    log_c0 = float(logc[0])
    peak_cap = _PEAK_FRACTION * top
    log, sqrt, exp = math.log, math.sqrt, np.exp

    def kernel(r: float) -> float:
        if r == 0.0:
            return log_c0
        lr = log(r)
        peak = int(locate(lr, side="right"))
        if peak > peak_cap:
            raise _beyond_series(spec, r)
        half = int(10.0 * sqrt(peak + 25.0) + 50.0)
        while True:
            lo = max(0, peak - half)
            hi = min(top, peak + half)
            terms = index[lo : hi + 1] * lr
            terms += logc[lo : hi + 1]
            m = float(terms.max())
            if not ((lo > 0 and terms[0] > m - 46.0)
                    or (hi < top and terms[-1] > m - 46.0)):
                break
            half *= 2
        terms -= m
        exp(terms, out=terms)
        return m + log(terms.sum())

    return kernel


def _power_series_kernel(spec: GrowthFunctionSpec):
    """Log-sum-exp over every stored term: a power series is taken at face
    value (a finite sum is a legitimate function), so no truncation guard
    applies."""
    logc = _series_logc(spec)
    index = np.arange(logc.size, dtype=float)
    log_c0 = float(logc[0])

    def kernel(r: float) -> float:
        if r == 0.0:
            return log_c0
        return float(logsumexp(logc + index * math.log(r)))

    return kernel


def _beyond_series(spec: GrowthFunctionSpec, r: float) -> CapacityError:
    top = len(_series_logc(spec)) - 1
    return CapacityError(
        f"r={r:g} lies beyond the faithful range of {spec.function_id} "
        f"(series stored to n={top}, max safe r ~ {spec.series_cap:.3g})"
    )


# -- array kernels in s = log r ----------------------------------------------
#
# One builder per kind.  Each kernel maps a 1-d array ``s`` to ``f``, ``f'``
# and ``f''`` of ``f(s) = log u(e^s)``: the conjugate slope ``f'`` is the
# Legendre argument ``t`` whose minimizer is ``r = e^s``.

#: Cells in one (points x window) block of series terms.
_SERIES_BLOCK = 1 << 16


def _ks_s_kernel(spec: GrowthFunctionSpec):
    b1 = 1.0 + spec.beta

    def kernel(s):
        d1 = np.exp(s / b1)  # f = b1 e^{s/b1}
        return b1 * d1, d1, d1 / b1

    return kernel


def _exponential_s_kernel(spec: GrowthFunctionSpec):
    log_c = math.log(spec.c)

    def kernel(s):
        with np.errstate(over="ignore"):  # c e^s past the double range is inf
            f = np.exp(s + log_c)  # f = f' = f'' = c e^s
        return f, f, f

    return kernel


def _iterated_exp_sqrt_s_kernel(spec: GrowthFunctionSpec):
    depth = spec.k - 1

    def kernel(s):
        # v = log x with x = iterated_log(k - 1, sqrt(r)), carried with its
        # s-derivatives; log(max(e, x)) = max(1, log x), flat where clamped.
        v, d1v, d2v = 0.5 * s, np.full_like(s, 0.5), np.zeros_like(s)
        for _ in range(depth):
            live = v > 1.0
            x = np.where(live, v, 1.0)
            d1v = np.where(live, d1v, 0.0) / x
            d2v = np.where(live, d2v, 0.0) / x - d1v * d1v
            v = np.log(x)
        # log u = 2 sqrt(r x) = 2 e^{(s + v)/2}.
        f = 2.0 * np.exp(0.5 * (s + v))
        g = 0.5 * (1.0 + d1v)
        return f, f * g, f * (g * g + 0.5 * d2v)

    return kernel


def _series_moments(logc: np.ndarray, s: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Per point, over the terms ``logc[n] + n s`` for ``n`` in ``[lo, hi]``:
    the largest term, and the log-sum-exp of the terms with the mean and
    variance of ``n`` under their weights.  Points go in blocks of similar
    window width of at most ``_SERIES_BLOCK`` cells."""
    m = np.empty(s.size)
    out = np.empty((3, s.size))
    width = hi - lo + 1
    order = np.argsort(width, kind="stable")
    a = 0
    while a < s.size:
        b = min(a + max(1, _SERIES_BLOCK // int(width[order[a]])), s.size)
        b = min(a + max(1, _SERIES_BLOCK // int(width[order[b - 1]])), s.size)
        idx = order[a:b]
        a = b
        w = int(width[idx[-1]])
        j = np.arange(w, dtype=float)
        st = s[idx, None]
        terms = logc.take(lo[idx, None] + np.arange(w), mode="clip")
        terms += st * j
        terms += st * lo[idx, None]
        if width[idx[0]] < w:
            terms[j > (hi - lo)[idx, None]] = -np.inf
        top = terms.max(axis=1)
        terms -= top[:, None]
        np.exp(terms, out=terms)
        total = terms.sum(axis=1)
        mean = (terms @ j) / total
        d = j - mean[:, None]
        d *= d
        m[idx] = top
        out[0, idx] = top + np.log(total)
        out[1, idx] = lo[idx] + mean
        out[2, idx] = np.einsum("ij,ij->i", terms, d) / total
    return m, out


def _bell_s_kernel(spec: GrowthFunctionSpec):
    """The scalar kernel's window rule, per point: the window around the
    dominant term doubles until both edge terms lie 46 nats below the peak."""
    logc = _series_logc(spec)
    gaps = _series_gaps(spec)
    top = logc.size - 1
    peak_cap = _PEAK_FRACTION * top

    def kernel(s):
        peak = gaps.searchsorted(s, side="right")
        over = peak > peak_cap
        if over.any():
            raise _beyond_series(spec, math.exp(s[over][0]))
        half = (10.0 * np.sqrt(peak + 25.0) + 50.0).astype(np.intp)
        out = np.empty((3, s.size))
        todo = np.arange(s.size)
        while todo.size:
            st, pk, hf = s[todo], peak[todo], half[todo]
            lo = np.maximum(pk - hf, 0)
            hi = np.minimum(pk + hf, top)
            m, vals = _series_moments(logc, st, lo, hi)
            edge = m - 46.0
            wide = (((lo > 0) & (logc[lo] + lo * st > edge))
                    | ((hi < top) & (logc[hi] + hi * st > edge)))
            out[:, todo[~wide]] = vals[:, ~wide]
            half[todo[wide]] *= 2
            todo = todo[wide]
        return out

    return kernel


def _power_series_s_kernel(spec: GrowthFunctionSpec):
    """Every stored term, as in the scalar kernel."""
    logc = _series_logc(spec)

    def kernel(s):
        lo = np.zeros(s.size, dtype=np.intp)
        return _series_moments(logc, s, lo, lo + (logc.size - 1))[1]

    return kernel


# -- the kind registry --------------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    """How one kind is read from a config mapping, named and evaluated."""

    param: str  # the config key it reads, and the spec field that holds it
    default: object  # the key's value when a config omits it
    factory: Callable  # (parameter, config claims) -> spec
    name: Callable  # unlabeled spec -> function_id
    kernel: Callable  # spec -> scalar ``log u`` kernel
    s_kernel: Callable  # spec -> array kernel in ``s = log r``


#: One record per kind.  A catalog factory fixes the claims, so it drops the
#: config's; ``spec_from_dict`` then rejects claims that contradict it.
_KIND_TABLE = {
    KONDRATIEV_STREIT: _Kind(
        "beta", 0.0, lambda beta, _: kondratiev_streit(beta),
        lambda s: f"ks(beta={s.beta:g})", _ks_kernel, _ks_s_kernel),
    ITERATED_EXP_SQRT: _Kind(
        "k", 2, lambda k, _: iterated_exp_sqrt(k),
        lambda s: f"g{s.k}", _iterated_exp_sqrt_kernel, _iterated_exp_sqrt_s_kernel),
    BELL_SERIES: _Kind(
        "k", 2, lambda k, _: bell_series(k),
        lambda s: f"u{s.k}", _bell_kernel, _bell_s_kernel),
    POWER_SERIES: _Kind(
        "log_coeffs", (), power_series,
        lambda s: f"power_series[{len(s.log_coeffs)}]",
        _power_series_kernel, _power_series_s_kernel),
    EXPONENTIAL: _Kind(
        "c", 1.0, lambda c, _: exponential(c),
        lambda s: f"exp({s.c:g}r)", _exponential_kernel, _exponential_s_kernel),
}

KINDS = tuple(_KIND_TABLE)


# -- series internals ------------------------------------------------------


@lru_cache(maxsize=_SPEC_CACHE)
def _series_logc(spec: GrowthFunctionSpec) -> np.ndarray:
    """Log-coefficients ``log c_n`` of ``u(r) = sum c_n r^n`` for series kinds."""
    if spec.kind == POWER_SERIES:
        arr = np.asarray(spec.log_coeffs, dtype=float).copy()
    elif spec.kind == BELL_SERIES:
        if spec.k == 1:
            n = np.arange(_N_BELL2 + 1, dtype=float)
            arr = -gammaln(n + 1.0)
        elif spec.k == 2:
            n = np.arange(_N_BELL2 + 1, dtype=float)
            arr = -(_log_bell_dobinski(_N_BELL2) + gammaln(n + 1.0))
        else:
            n = np.arange(_N_BELL_HIGH + 1, dtype=float)
            arr = -(2.0 * gammaln(n + 1.0) + _egf_log_coeffs(spec.k, _N_BELL_HIGH))
    else:  # pragma: no cover - guarded by callers
        raise ParameterError(f"{spec.kind} is not series-backed")
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=_SPEC_CACHE)
def _series_gaps(spec: GrowthFunctionSpec) -> np.ndarray:
    """Monotone envelope of ``log c_{n-1} - log c_n`` (dominant-term locator)."""
    logc = _series_logc(spec)
    gaps = np.maximum.accumulate(logc[:-1] - logc[1:])
    gaps.setflags(write=False)
    return gaps


def _series_r_cap(spec: GrowthFunctionSpec) -> float:
    gaps = _series_gaps(spec)
    m = int(_PEAK_FRACTION * len(gaps))
    return float(math.exp(min(gaps[m - 1], 700.0)))


def _power_faithful_cap(spec: GrowthFunctionSpec) -> float:
    logc = np.asarray(spec.log_coeffs, dtype=float)
    idx = np.flatnonzero(np.isfinite(logc))
    if idx.size < 3:
        return math.inf
    slopes = (logc[idx[:-1]] - logc[idx[1:]]) / (idx[1:] - idx[:-1])
    slopes = np.maximum.accumulate(slopes)
    j = max(int(0.8 * (idx.size - 1)) - 1, 0)
    return float(math.exp(min(slopes[j], 700.0)))


# -- Mittag-Leffler ---------------------------------------------------------


def mittag_leffler(lam: float, t: float) -> float:
    """``E_lam(-t)`` for ``lam`` in (0, 1] and ``t >= 0``.

    Dispatch: exact exponential at ``lam = 1``; the alternating series with
    compensated summation while its largest term stays below
    ``_ML_SERIES_TERM_CAP``; otherwise the spectral-integral representation
    (see :func:`mittag_leffler_integral`).  The result lies in (0, 1] and is
    strictly decreasing in ``t``.
    """
    lam, t = float(lam), float(t)
    if not 0.0 < lam <= 1.0:
        raise ParameterError(f"mittag_leffler requires lambda in (0, 1], got {lam}")
    if math.isnan(t) or t < 0.0:
        raise ParameterError(f"mittag_leffler requires t >= 0, got {t}")
    if t == 0.0:
        return 1.0
    if lam == 1.0:
        return math.exp(-t)
    s = mittag_leffler_series(lam, t)
    if s is not None:
        return s
    return mittag_leffler_integral(lam, t)


def mittag_leffler_series(
    lam: float, t: float, term_cap: float = _ML_SERIES_TERM_CAP
) -> float | None:
    """Alternating series ``sum (-t)^n / Gamma(1 + lam n)`` via ``math.fsum``.

    Returns ``None`` when any term magnitude would exceed ``term_cap``, or
    the largest term exceeds ``_ML_SERIES_CANCELLATION`` times the sum —
    past either point cancellation eats the significand and the spectral
    integral must be used instead.
    """
    if t == 0.0:
        return 1.0
    lt = math.log(t)
    log_cap = math.log(term_cap)
    terms = []
    n = 0
    while True:
        lv = n * lt - gammaln(1.0 + lam * n)
        if lv > log_cap:
            return None
        terms.append(math.exp(lv) if n % 2 == 0 else -math.exp(lv))
        if lv < -41.0 and n > 0 and lv < (n - 1) * lt - gammaln(1.0 + lam * (n - 1)):
            break
        n += 1
        if n > 10_000:  # pragma: no cover - defensive
            return None
    total = math.fsum(terms)
    if max(map(abs, terms)) > _ML_SERIES_CANCELLATION * abs(total):
        return None
    return total


def mittag_leffler_integral(lam: float, t: float) -> float:
    """Spectral-integral representation of ``E_lam(-t)`` for ``lam`` in (0, 1).

    ``E_lam(-t) = (sin(lam pi) / (lam pi)) *
    \\int_0^inf exp(-s^{1/lam} t^{1/lam}) / (s^2 + 2 s cos(lam pi) + 1) ds``.

    Completely monotone in ``t`` by construction (the integrand is a mixture
    of decaying exponentials).  Cross-validated against the alternating
    series in their overlap and against ``e^{t^2} erfc(t)`` at ``lam = 1/2``.
    """
    from scipy import integrate  # here: it adds ~25 MB, and only this needs it

    lam, t = float(lam), float(t)
    if not 0.0 < lam < 1.0:
        raise ParameterError(f"the spectral integral requires lambda in (0, 1), got {lam}")
    if t == 0.0:
        return 1.0
    c = math.cos(lam * math.pi)
    lt = math.log(t)
    log_e_cap = math.log(700.0)

    def f(s: float) -> float:
        # (s t)^{1/lam} in the log domain: t^{1/lam} alone overflows for small lam.
        e = math.exp(min((math.log(s) + lt) / lam, log_e_cap))
        return math.exp(-e) / (s * s + 2.0 * c * s + 1.0)

    # The exponent passes 1 at s = 1/t and 50 at s = 50^lam / t: the knee of
    # the integrand (a step as lam -> 0) and the end of its decay.
    pts = {1.0, 1.0 / t, 50.0**lam / t}
    if lam > 0.9:
        # The denominator develops a near-pole at s = 1 as lam -> 1.
        pts.update((0.9, 0.99, 1.01, 1.1))
    total = 0.0
    lo = 0.0
    for p in sorted(pts):
        if p > lo:
            v, _ = integrate.quad(f, lo, p, epsabs=1e-15, epsrel=1e-13, limit=300)
            total += v
            lo = p
    v, _ = integrate.quad(f, lo, np.inf, epsabs=1e-15, epsrel=1e-13, limit=300)
    total += v
    return math.sin(lam * math.pi) / (lam * math.pi) * total


# -- grids and condition certificates ---------------------------------------


def default_r_grid(r_max: float = 1e8, points: int = 400) -> np.ndarray:
    """Geometric grid on [1e-6, r_max] plus a linear refinement down to r = 0."""
    if points < 2 or r_max <= 1e-6:
        raise ParameterError("default_r_grid needs r_max > 1e-6 and points >= 2")
    geo = np.geomspace(1e-6, r_max, points)
    lin = np.linspace(0.0, 1e-6, 33)
    return np.unique(np.concatenate([lin, geo]))


def refine_grid(grid: np.ndarray) -> np.ndarray:
    """Double a grid's density (geometric midpoints between positive nodes)."""
    grid = np.asarray(grid, dtype=float)
    pos = grid[grid > 0.0]
    if pos.size < 2:
        return grid
    mids = np.sqrt(pos[:-1] * pos[1:])
    return np.unique(np.concatenate([grid, mids]))


@dataclass
class ConditionCheck:
    """Outcome of one admissibility condition on one sampling grid."""

    condition: str
    status: str  # "pass" | "fail" | "inconclusive"
    witness_r: float | None = None
    observed: float | None = None
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "status": self.status,
            "witness_r": self.witness_r,
            "observed": self.observed,
            "note": self.note,
        }


@dataclass
class ConditionReport:
    """Grid certificates for U0-U3 and the two divergence classes.

    Statuses are grid certificates, not proofs: the conditions quantify over
    all of [0, inf) while we sample finitely many points.
    """

    function_id: str
    grid: dict
    checks: dict[str, ConditionCheck]

    def status(self, condition: str) -> str:
        return self.checks[condition].status

    def passed(self, conditions=("U0", "U1", "U2", "U3")) -> bool:
        return all(self.checks[c].status == "pass" for c in conditions)

    def to_json_dict(self) -> dict:
        return {
            "function_id": self.function_id,
            "grid": self.grid,
            "checks": {k: v.to_json_dict() for k, v in self.checks.items()},
        }


def check_conditions(
    spec: GrowthFunctionSpec, r_grid: np.ndarray | None = None
) -> ConditionReport:
    """Certify U0/U1 (infimum, monotonicity), U2 (``log u(r)/r`` bounded),
    U3 (midpoint convexity of ``log u(x^2)``) and the divergence classes
    ``C+,1/2`` / ``C+,log`` on a sampling grid.

    The grid is clipped to the function's faithful range so that truncated
    series are judged on the region where they represent their target.
    """
    if r_grid is None:
        r_grid = default_r_grid()
    r_grid = np.unique(np.asarray(r_grid, dtype=float))
    if r_grid.size == 0:
        raise ParameterError("check_conditions requires a nonempty grid")
    if np.isnan(r_grid).any() or r_grid[0] < 0.0:
        raise ParameterError("condition grids must consist of radii r >= 0")
    cap = spec.faithful_cap
    clipped = bool(cap < math.inf and r_grid[-1] > cap)
    if clipped:
        r_grid = r_grid[r_grid <= 0.98 * cap]
        if r_grid.size < 8:
            raise ParameterError("grid is empty after clipping to the faithful range")

    lu = log_u_grid(spec, r_grid)
    checks: dict[str, ConditionCheck] = {}

    # U0: inf u = 1, i.e. min log u = 0 on the grid.
    i_min = int(np.argmin(lu))
    m = float(lu[i_min])
    if m < -1e-12:
        checks["U0"] = ConditionCheck("U0", "fail", float(r_grid[i_min]), m,
                                      "u drops below 1")
    elif m <= 1e-12:
        checks["U0"] = ConditionCheck("U0", "pass", float(r_grid[i_min]), m,
                                      "grid infimum attains 1")
    else:
        checks["U0"] = ConditionCheck("U0", "inconclusive", float(r_grid[i_min]), m,
                                      "grid infimum stays above 1")

    # U1: u(0) = 1 and u nondecreasing.
    if r_grid[0] != 0.0:
        checks["U1"] = ConditionCheck("U1", "inconclusive", None, None,
                                      "grid does not include r = 0")
    elif abs(lu[0]) > 1e-12:
        checks["U1"] = ConditionCheck("U1", "fail", 0.0, float(lu[0]), "u(0) != 1")
    else:
        d = np.diff(lu)
        tol = 1e-9 * np.maximum(1.0, np.abs(lu[:-1]))
        bad = np.flatnonzero(d < -tol)
        if bad.size:
            j = int(bad[np.argmin(d[bad])])
            checks["U1"] = ConditionCheck("U1", "fail", float(r_grid[j + 1]),
                                          float(d[j]), "u decreases")
        else:
            checks["U1"] = ConditionCheck("U1", "pass", 0.0, float(lu[0]),
                                          "u(0)=1 and nondecreasing on grid")

    # U2: limsup log u(r) / r finite -- judged by the trend over the top
    # decades of the grid.
    pos = r_grid > 0.0
    rp, lp = r_grid[pos], lu[pos]
    tail = rp >= rp[-1] / 100.0
    if tail.sum() < 8:
        tail = np.zeros_like(rp, dtype=bool)
        tail[-min(25, rp.size):] = True
    s = lp[tail] / rp[tail]
    ds = np.diff(s)
    tol = 1e-9 * np.maximum(1.0, np.abs(s[:-1])) + 1e-15
    r_tail = rp[tail]
    if np.all(ds <= tol):
        checks["U2"] = ConditionCheck("U2", "pass", None, float(s.max()),
                                      "log u(r)/r non-increasing over the top decades")
    elif s[-1] > 1.02 * max(s[0], 1e-300) and float(np.median(ds)) > 0.0:
        j = int(np.argmax(ds))
        checks["U2"] = ConditionCheck("U2", "fail", float(r_tail[j + 1]), float(s[-1]),
                                      "log u(r)/r still increasing at the grid edge")
    else:
        checks["U2"] = ConditionCheck("U2", "inconclusive", None, float(s[-1]),
                                      "no clear trend in log u(r)/r")

    # U3: midpoint convexity of F(x) = log u(x^2) on uniform x-grids.
    x_hi_cap = math.sqrt(min(cap * 0.96, 1e16)) if cap < math.inf else 1e4
    worst = math.inf
    worst_x = None
    for x_hi, n_pts in ((min(2.0, x_hi_cap), 161), (min(1e4, x_hi_cap), 801)):
        xs = np.linspace(0.0, x_hi, n_pts)
        F = log_u_grid(spec, xs * xs)
        second = F[:-2] + F[2:] - 2.0 * F[1:-1]
        tol3 = 1e-9 * np.maximum(1.0, np.abs(F[1:-1]))
        margin = second + tol3
        j = int(np.argmin(margin))
        if margin[j] < worst:
            worst = float(margin[j])
            worst_x = float(xs[j + 1])
    if worst >= 0.0:
        checks["U3"] = ConditionCheck("U3", "pass", None, worst,
                                      "log u(x^2) midpoint-convex on sampled triples")
    else:
        checks["U3"] = ConditionCheck("U3", "fail", worst_x, worst,
                                      "convexity violated at sampled triple")

    # Divergence classes: trend of log u / sqrt(r) and log u / log r over the
    # top three decades.
    def _divergence(cond: str, denom: np.ndarray) -> ConditionCheck:
        sel = rp >= rp[-1] / 1000.0
        # ratios against a near-zero denominator say nothing about divergence
        sel &= denom >= 1.0
        if sel.sum() < 6:
            return ConditionCheck(cond, "inconclusive", None, None, "grid too short")
        v = lp[sel] / denom[sel]
        dv = np.diff(v)
        tolv = 1e-9 * np.maximum(1.0, np.abs(v[:-1]))
        if np.all(dv >= -tolv) and v[-1] >= 1.02 * max(v[0], 1e-300):
            return ConditionCheck(cond, "pass", None, float(v[-1]),
                                  "ratio increasing across the top decades")
        if v[-1] < 0.98 * v[0]:
            j = int(np.argmin(dv))
            return ConditionCheck(cond, "fail", float(rp[sel][j + 1]), float(v[-1]),
                                  "ratio decreasing; divergence not supported")
        return ConditionCheck(cond, "inconclusive", None, float(v[-1]),
                              "ratio not clearly divergent on this grid")

    checks["C+,1/2"] = _divergence("C+,1/2", np.sqrt(rp))
    checks["C+,log"] = _divergence("C+,log", np.log(np.maximum(rp, 1e-300)))

    grid_info = {
        "r_min": float(r_grid[0]),
        "r_max": float(r_grid[-1]),
        "points": int(r_grid.size),
    }
    if clipped:
        grid_info["clipped_to_faithful_cap"] = float(cap)
    return ConditionReport(spec.function_id, grid_info, checks)
