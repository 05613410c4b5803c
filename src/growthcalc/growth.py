"""Growth-function catalog: log-domain evaluation and admissibility certificates.

A growth function is a continuous ``u : [0, inf) -> [1, inf)`` used to weight
a scale of sequence-space norms.  The catalog covers stretched exponentials
(``exp[(1+beta) r^(1/(1+beta))]``), iterated-exponential-of-square-root
functions ``g_k``, inverse-Bell-number power series ``u_k``, plain
exponentials, and explicit power series.

Every value is produced and exchanged as ``log u(r)``: these functions grow
at least like ``exp(c r^eps)``, so linear-domain evaluation overflows doubles
long before the ranges of interest.  Series kinds are summed by windowed
log-sum-exp around the dominant term, as the dominant term plus ``log1p``
of the rest, so a sum near 1 keeps its relative accuracy; a wide Bell peak
is summed at a step, by the trapezoid rule on its terms.  The Bell
series' ``log u`` in ``r`` reads piecewise Chebyshev interpolants of
``log u(e^s) e^{-s}`` in ``s = log r`` instead (Trefethen, *Approximation
Theory and Approximation Practice*, ch. 8), built once per spec from one
array evaluation of the windowed sum and each checked to resolve it to
1e-14 relative; the windowed sum at ``log r`` answers below ``r = e^-40``,
past the faithful cap and on any panel that fails the check.  Series grids
take all their radii in one array pass, bit for bit the scalar values.

The module also evaluates the Mittag-Leffler function ``E_lam(-t)``, the
characteristic function of the grey noise measure, by one rule:
``exp(-t)`` at ``lam = 1``, and a fixed Gauss-Legendre rule on its spectral
integral for every ``lam < 1``, which the tests hold to 1e-12 of an mpmath
oracle: the power series, summed with guard digits for its cancellation,
where ``t^{1/lam} <= 20`` and ``lam >= 0.1``, and a quadrature of the same
integral elsewhere (about 24 digits as ``lam`` nears 1, 29 or more at
``lam <= 0.5``).

All operations are pure and deterministic.  Module-level caches (the
``functools.lru_cache`` memoizations, among them the series coefficient
tables, and the log-factorial table) hold read-only arrays; concurrent
callers at worst duplicate a computation.  ``u_2``'s coefficients are
package data, ``bell2_logc.npy``, read on first use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable

import numpy as np


class ParameterError(ValueError):
    """A parameter is outside the documented domain of an operation."""


class CapacityError(RuntimeError):
    """A request exceeds the safe range of an exact or truncated computation."""


KONDRATIEV_STREIT = "kondratiev_streit"
ITERATED_EXP_SQRT = "iterated_exp_sqrt"
BELL_SERIES = "bell_series"
POWER_SERIES = "power_series"
EXPONENTIAL = "exponential"

#: Entries kept by each cache keyed by a spec (or by a Legendre table):
#: callers can build any number of them, and each entry holds arrays or a
#: spline.
_SPEC_CACHE = 64

CONDITION_IDS = ("U0", "U1", "U2", "U3", "C+,1/2", "C+,log")

#: Conditions claimed by the closed-form catalog families.
_STANDARD_CLAIMS = frozenset({"U0", "U1", "U2", "U3"})

# Series tables: number of stored coefficients.  The classical Bell series
# (k=2) gets a large table, shipped as package data (``_BELL2_LOGC``, written
# by ``tests/bell_table.py``), because the verification grids push it to
# r ~ 1e8 and the L-series machinery probes several times farther; the
# higher-order series stay at moderate r.
_N_BELL2 = 1 << 18
_BELL2_LOGC = Path(__file__).with_name("bell2_logc.npy")
_N_BELL_HIGH = 4096
#: Largest Bell order ``k``: each level past 2 adds one convolution pass,
#: about 0.15 s, to the one-time coefficient table.
_BELL_K_CAP = 16
#: Largest whole-number size or loop count (``n``, ``size``, ``n_max``, a grey
#: sample's ``n``, a Hida level ``p``): 2**26 elements, 512 MiB of doubles.
_SIZE_CAP = 1 << 26

#: Fraction of the coefficient table the dominant series term may reach
#: before truncation error becomes unaccountable.
_PEAK_FRACTION = 0.92


# -- log-space arithmetic -----------------------------------------------------

_log_fact = np.zeros(0)


#: Rows of the log-factorial table taken from ``math.lgamma``; the rows past
#: it come from Stirling's series.
_LGAMMA_ROWS = 256


def _log_factorials(n: int) -> np.ndarray:
    """``log k!`` for k = 0..n: a read-only prefix of one table, which at
    least doubles whenever a caller needs more rows.  Rows k <= 256 are
    ``math.lgamma(k + 1)``, the rest Stirling's series (within 2 ulp); the
    formula goes by row, so no row depends on the order of the calls."""
    global _log_fact
    table = _log_fact
    if table.size <= n:
        k = np.arange(table.size, max(n + 1, 2 * table.size), dtype=float)
        rows = k[k > _LGAMMA_ROWS]
        # log k! = (k + 1/2)(log k - 1) + 1/2 + log sqrt(2 pi) + S(k), where
        # log k - 1 is exact and only the leading product rounds.
        table = np.concatenate([
            table,
            np.fromiter(map(math.lgamma, k[k <= _LGAMMA_ROWS] + 1.0), float),
            (rows + 0.5) * (np.log(rows) - 1.0)
            + (_stirling_series(rows) + (0.5 + 0.5 * math.log(2.0 * math.pi))),
        ])
        table.setflags(write=False)
        _log_fact = table
    return table[: n + 1]


def _stirling_series(x: np.ndarray) -> np.ndarray:
    """``S(x) = lgamma(x + 1) - (x + 1/2) log x + x - log sqrt(2 pi)`` by
    Stirling's series ``1/12x - 1/360x^3 + 1/1260x^5 - 1/1680x^7``, exact to
    rounding for x >= 25."""
    y = 1.0 / x
    y2 = y * y
    return y * (1 / 12 - y2 * (1 / 360 - y2 * (1 / 1260 - y2 / 1680)))


def _logsumexp(a: np.ndarray):
    """``log sum exp`` over a 1-d array, as a float, or over each row of a
    2-d one, each row bit for bit what it gives alone.  The maxima leave the
    sum and come back as ``log1p(rest / count) + log(count) + max``, so a
    dominant term adds no rounding of its own; a maximum that is not finite
    is the result."""
    if a.ndim == 2:
        m = a.max(1)
        finite = np.isfinite(m)
        if not finite.all():
            out = m.copy()
            out[finite] = _logsumexp(a[finite])
            return out
        top = a == m[:, None]
        count = np.count_nonzero(top, axis=1)
        rest = np.exp(np.where(top, -math.inf, a - m[:, None])).sum(1)
        return np.log1p(rest / count) + np.log(count) + m
    m = a.max()
    if not math.isfinite(m):
        return float(m)
    top = a == m
    count = np.count_nonzero(top)
    rest = np.exp(np.where(top, -math.inf, a - m)).sum()
    return float(np.log1p(rest / count) + np.log(count) + m)


@lru_cache(maxsize=None)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] for ``n >= 2``:
    Newton's method on ``P_n`` by its three-term recurrence, from Tricomi's
    estimate of the roots, over the nonnegative nodes (the rest mirror
    them), and ``w = 2 / ((1 - x^2) P_n'(x)^2)``.  A few milliseconds for
    n = 192, where numpy's companion-matrix eigensolve takes tens, and its
    end weights are 4e-11 relatively off."""
    k = np.arange(1, n // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    x = np.append(x, [0.0] * (n % 2))
    converged = False
    while True:
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p0 - x * p1) / one_minus_x2  # P_n'
        if converged:  # one step past a step below 1e-14
            break
        step = p1 / dp
        x = x - step
        converged = np.abs(step).max() <= 1e-14
    w = 2.0 / (one_minus_x2 * dp * dp)
    # x falls from the largest node to the smallest nonnegative one.
    x = np.concatenate([-x[: n // 2], x[::-1]])
    w = np.concatenate([w[: n // 2], w[::-1]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


#: Clamped logs that reach the fixed point ``log(e) = 1`` from any finite
#: double (``709.8, 6.57, 1.88, 1``): further steps change no bit, so the
#: iterated logs take at most this many, whatever their ``k``.
_LOG_STEPS = 4


def iterated_log(k: int, r: float) -> float:
    """k-fold clamped logarithm: ``log_1(r) = log(max(e, r))``, ``log_k = log_1 ∘ log_{k-1}``.

    The clamp makes every iterate total on the reals and equal to 1 below
    ``r = e``.  ``k = 0`` is the identity (it appears as the inner iterate of
    the k=1 member of the iterated-exponential family).
    """
    k, v = _real(k, "k", "[0, inf)", whole=True), _real(r, "r")
    for _ in range(min(k, _LOG_STEPS)):
        v = math.log(max(math.e, v))
    return v


@lru_cache(maxsize=None)
def _egf_log_coeffs(k: int, n_hi: int) -> np.ndarray:
    """``log [r^n] exp_k(r)`` for n = 0..n_hi (normalized ``exp_k(0) = 1``).

    Level 1 is ``-log n!``; each next level is built from the one before
    through the log-domain convolution ``(n+1) c_{n+1} = sum_i (i+1) a_{i+1}
    c_{n-i}`` (all terms positive, so log-sum-exp is exact in the relative
    sense).  ``k >= 1``, as a Bell spec's domain states.
    """
    out = -_log_factorials(n_hi)
    log_n = np.log(np.arange(1, n_hi + 1, dtype=float))
    for _ in range(k - 1):
        wa = out[1:] + log_n
        out = np.empty(n_hi + 1)
        out[0] = 0.0
        for m in range(n_hi):
            out[m + 1] = _logsumexp(wa[: m + 1] + out[m::-1]) - math.log(m + 1)
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
        # The kind's own parameter, on the kind's domain, stored as a float
        # (k as an int, the log-coefficients as a tuple of floats), so specs,
        # their ids and the caches keyed by them agree.
        entry = _KIND_TABLE[self.kind]
        key, v = entry.param, getattr(self, entry.param)
        name = f"{self.kind} field {key!r}"
        if key != "log_coeffs":
            v = _real(v, name, entry.domain, whole=key == "k")
        else:
            coeffs = _reals(v, name, entry.domain)
            if coeffs.ndim != 1 or not coeffs.size:
                raise ParameterError(f"{name} must be a nonempty list of numbers, got {v!r}")
            v = tuple(coeffs.tolist())
        object.__setattr__(self, key, v)
        bad = set(self.claimed_conditions) - set(CONDITION_IDS)
        if bad:
            raise ParameterError(f"unknown claimed conditions: {sorted(bad)}")

    # -- identification -------------------------------------------------

    @property
    def function_id(self) -> str:
        return self.label or _KIND_TABLE[self.kind].name(self)

    # -- evaluation ------------------------------------------------------

    def log_u(self, r: float) -> float:
        """``log u(r)`` for a single ``r`` in ``[0, inf]``."""
        # The Legendre solves' hot path: a float passes by one comparison,
        # anything else by the one rule, which also raises.
        if r.__class__ is float and r >= 0.0:
            return self.kernel(r)
        return self.kernel(_real(r, "r", "[0, inf]"))

    @cached_property
    def kernel(self):
        """``log u`` for a float ``r >= 0``, unchecked: the hot loops' entry
        point."""
        return self._kernels[0]

    @cached_property
    def grid_kernel(self):
        """``log u`` over a 1-d float array of radii ``r >= 0``, unchecked,
        each value the scalar kernel's bit for bit: ``log_u_grid``'s entry
        point."""
        return self._kernels[1]

    @cached_property
    def _kernels(self):
        # Built together once per spec from the kind's formula, so the two
        # can share its tables.
        return _KIND_TABLE[self.kind].kernels(self)

    @cached_property
    def s_kernel(self):
        """``f, f', f''`` of ``f(s) = log u(e^s)`` over a 1-d array of finite
        ``s <= s_max``, unchecked: the batched Legendre solve's entry point."""
        return _KIND_TABLE[self.kind].s_kernel(self)

    def __getstate__(self) -> dict:
        # The kernels are closures: rebuild them after unpickling.
        state = dict(self.__dict__)
        for name in ("kernel", "grid_kernel", "_kernels", "s_kernel"):
            state.pop(name, None)
        return state

    # -- evaluation-range metadata ----------------------------------------

    @property
    def faithful_cap(self) -> float:
        """Largest ``r`` at which the stored representation still represents
        the intended function (used to clip condition-check grids)."""
        if self.kind == BELL_SERIES:
            return _series_r_cap(self)
        if self.kind == POWER_SERIES:
            return _power_faithful_cap(self)
        return math.inf

    @property
    def trusted_radius(self) -> float:
        """``0.98 faithful_cap``: the largest radius that condition grids,
        battery grids and grid infima sample."""
        return 0.98 * self.faithful_cap

    @property
    def s_max(self) -> float:
        """Upper bracket bound for minimization in ``s = log r``."""
        if self.kind == BELL_SERIES:
            return math.log(self.faithful_cap)
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
        kind=KONDRATIEV_STREIT, beta=beta, claimed_conditions=_STANDARD_CLAIMS
    )


def iterated_exp_sqrt(k: int) -> GrowthFunctionSpec:
    """``g_k(r) = exp[2 sqrt(r log_{k-1} sqrt(r))]`` with the clamped iterated log."""
    return GrowthFunctionSpec(
        kind=ITERATED_EXP_SQRT, k=k, claimed_conditions=_STANDARD_CLAIMS
    )


def bell_series(k: int) -> GrowthFunctionSpec:
    """``u_k(r) = sum_n r^n / (b_k(n) n!)`` with k-th order Bell numbers
    ``b_k(n) = n! [r^n] exp_k(r)``, ``exp_1(r) = e^r``, ``exp_j(r) =
    exp(exp_{j-1}(r) - 1)``: ``b_1 = 1`` and ``b_2`` the classical Bell numbers."""
    return GrowthFunctionSpec(
        kind=BELL_SERIES, k=k, claimed_conditions=_STANDARD_CLAIMS
    )


def exponential(c: float = 1.0) -> GrowthFunctionSpec:
    """``u(r) = exp(c r)``."""
    return GrowthFunctionSpec(
        kind=EXPONENTIAL, c=c, claimed_conditions=_STANDARD_CLAIMS
    )


def power_series(
    log_coeffs: list[float], claimed_conditions=(), label: str = ""
) -> GrowthFunctionSpec:
    """``u(r) = sum_n exp(log_coeffs[n]) r^n`` (use ``-inf`` for absent terms)."""
    return GrowthFunctionSpec(
        kind=POWER_SERIES,
        log_coeffs=log_coeffs,
        claimed_conditions=frozenset(claimed_conditions),
        label=label,
    )


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


def _is_real(v) -> bool:  # type() first: the ABC check takes about 1 us
    return type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_whole(v) -> bool:
    return type(v) is int or _is_real(v) and isinstance(v, numbers.Integral)


@lru_cache(maxsize=_SPEC_CACHE)
def _interval(domain: str) -> tuple[float, float, bool, bool]:
    """The ends of an interval written like ``"(0, 1]"`` or ``"[0, inf)"``,
    and whether each belongs to it."""
    lo, hi = map(float, domain[1:-1].split(","))
    return lo, hi, domain[0] == "[", domain[-1] == "]"


def _real(v, name: str, domain: str = "[-inf, inf]", whole: bool = False):
    """``v`` as a float (an int where ``whole``): the one rule for a numeric
    argument.  ``v`` must be a real number (``_is_real``: a bool, a string,
    ``None`` and an array are not), an integer (``_is_whole``: ``3.0`` is a
    float) where ``whole``, a double (an int past the largest double is
    not), not NaN, and in ``domain``.  Anything else raises
    :class:`ParameterError` naming ``name``."""
    value, x = v, math.nan
    if v.__class__ is float and not whole:  # the common case, by one test
        x = v
    elif _is_whole(v) if whole else _is_real(v):
        try:
            x = float(v)
            value = int(v) if whole else x
        except OverflowError:
            pass
    lo, hi, with_lo, with_hi = _interval(domain)  # NaN fails every test
    if not ((lo <= x if with_lo else lo < x) and (x <= hi if with_hi else x < hi)):
        raise ParameterError(
            f"{name} must be {'an integer' if whole else 'a number'} in {domain}, got {value!r}")
    return value


def _count(v, name: str, domain: str = "[0, inf)") -> int:
    """``v`` as a size or loop count: an integer in ``domain`` by
    :func:`_real`'s rule, and at most ``_SIZE_CAP``, past which it raises
    :class:`CapacityError`."""
    n = _real(v, name, domain, whole=True)
    if n > _SIZE_CAP:
        raise CapacityError(f"{name} must be at most the size cap {_SIZE_CAP}, got {n}")
    return n


def _reals(v, name: str = "r", domain: str = "[0, inf)") -> np.ndarray:
    """``v`` as a float array, each entry by :func:`_real`'s rule: an array
    of integer or float dtype, a number (a 0-d result), or a list of numbers,
    nested to any depth.  The defaults are the one radius rule: finite
    radii ``r >= 0``."""
    if _is_real(v):
        return np.asarray(_real(v, name, domain))
    ok = (v.dtype.kind in "iuf" if isinstance(v, np.ndarray)
          else all(map(_is_real, np.array(v, dtype=object).ravel())))
    try:
        a = np.asarray(v, dtype=float) if ok else None
    except OverflowError:  # an int past the largest double
        a = None
    if a is None:
        raise ParameterError(f"{name} must be a list of numbers in {domain}, got {v!r}")
    lo, hi, with_lo, with_hi = _interval(domain)

    def inside(x):
        ok = (lo <= x) if with_lo else (lo < x)
        return ok & ((x <= hi) if with_hi else (x < hi))

    # Only the ends are tested (a NaN is both), so a valid array makes no
    # second array; the first entry outside is sought only on failure.
    if a.size and not (inside(a.min()) and inside(a.max())):
        raise ParameterError(f"{name} must be a number in {domain}, got {float(a[~inside(a)][0])!r}")
    return a


def _config_param(d: dict, kind: str):
    """The kind's parameter from a config mapping, its default if absent, with
    a series' nulls (absent terms) read as ``-inf``; the spec checks it."""
    key = _KIND_TABLE[kind].param
    v = d.get(key, _KIND_TABLE[kind].default)
    if key == "log_coeffs" and isinstance(v, (list, tuple)):
        return [-math.inf if x is None else x for x in v]
    return v


def log_u_grid(spec: GrowthFunctionSpec, rs: np.ndarray) -> np.ndarray:
    """``log u`` over an array of radii, every value
    :meth:`GrowthFunctionSpec.log_u`'s bit for bit.  Power and Bell series
    take the whole grid in one array pass, with each radius logged by
    ``math.log`` as the scalar kernel logs it; the other kinds call the
    scalar kernel per radius, because numpy's array ``**`` and ``log`` do
    not round as ``math``'s do."""
    rs = _reals(rs, "r", "[0, inf]")
    return spec.grid_kernel(rs.ravel()).reshape(rs.shape)


def _logs(rs: np.ndarray) -> np.ndarray:
    """``math.log`` of each positive radius, as the scalar kernels take it."""
    return np.fromiter(map(math.log, rs.tolist()), float, rs.size)


# -- kernels in r ---------------------------------------------------------
#
# One builder per kind, of a scalar kernel and a grid kernel that agree bit
# for bit: ``GrowthFunctionSpec.log_u`` calls the first, ``log_u_grid`` the
# second.


def _looped(build: Callable) -> Callable:
    """The kernel pair of a kind whose grid calls the scalar ``build(spec)``
    at each radius."""

    def kernels(spec: GrowthFunctionSpec):
        kernel = build(spec)
        return kernel, lambda rs: np.fromiter(map(kernel, rs.tolist()), float, rs.size)

    return kernels


def _ks_kernel(spec: GrowthFunctionSpec):
    b1 = 1.0 + spec.beta
    power = 1.0 / b1
    return lambda r: b1 * r**power


def _exponential_kernel(spec: GrowthFunctionSpec):
    c = spec.c
    return lambda r: c * r


def _iterated_exp_sqrt_kernel(spec: GrowthFunctionSpec):
    steps = (None,) * min(spec.k - 1, _LOG_STEPS)  # cheaper to iterate per call than a range
    e, inf, log, sqrt = math.e, math.inf, math.log, math.sqrt

    def kernel(r: float) -> float:
        if r == 0.0:
            return 0.0
        x = sqrt(r)
        for _ in steps:  # iterated_log(k - 1, sqrt(r))
            x = log(x if x > e else e)
        rx = r * x
        return 2.0 * sqrt(rx) if rx < inf else 2.0 * sqrt(r) * sqrt(x)  # where r x overflows

    return kernel


#: Chebyshev panels of the Bell-series kernel in ``s = log r``: their width,
#: their degree, the lower end they cover, and the relative tolerance to
#: which each must resolve ``g(s) = log u(e^s) e^{-s}``.
_PANEL_WIDTH = 0.25
_PANEL_DEGREE = 12
_PANEL_LO = -40.0
_PANEL_TOL = 1e-14


def _bell_panels(spec: GrowthFunctionSpec):
    """Chebyshev coefficients of ``g(s) = f(s) e^{-s}``, ``f(s) = log u(e^s)``,
    on panels of width ``_PANEL_WIDTH`` downwards from ``s_max`` until one
    passes ``_PANEL_LO``: one ``spec.s_kernel`` call over every panel's
    ``_PANEL_DEGREE + 1`` Chebyshev points (second kind, node 0 at the
    panel's top).  The s-kernel's ``f`` is relatively accurate at every
    ``s``, and ``g`` tends to ``c_1 / c_0`` as ``s`` falls, so one relative
    tolerance holds down to ``_PANEL_LO``.  A panel is resolved when its two
    last coefficients sum to at most ``_PANEL_TOL`` of its smallest ``|g|``
    (Battles and Trefethen 2004): ``g`` is analytic, so its coefficients
    fall geometrically and the interpolation error is of the size of the
    first one dropped.

    Returns the coefficients (one row per panel from the top, lowest degree
    first) and which panels are resolved."""
    n = _PANEL_DEGREE
    j = np.arange(n + 1)
    tops = spec.s_max - _PANEL_WIDTH * np.arange(int((spec.s_max - _PANEL_LO) / _PANEL_WIDTH) + 1)
    s = tops[:, None] - (0.5 * _PANEL_WIDTH) * (1.0 - np.cos(np.pi / n * j))
    g = spec.s_kernel(s.ravel())[0].reshape(s.shape) * np.exp(-s)
    # Values at x_j = cos(pi j / n) to coefficients: a DCT-I, halved at the
    # end points and at the first and last degree.
    dct = np.cos(np.pi / n * np.outer(j, j)) * (2.0 / n)
    dct[:, [0, n]] *= 0.5
    dct[[0, n]] *= 0.5
    coeffs = g @ dct.T
    resolved = np.abs(coeffs[:, -2:]).sum(axis=1) <= _PANEL_TOL * np.abs(g).min(axis=1)
    return coeffs, resolved


def _bell_kernels(spec: GrowthFunctionSpec):
    """``log u(r) = g(log r) r`` from the Chebyshev panels of
    :func:`_bell_panels`, built once per spec: the scalar kernel by a
    pure-Python Clenshaw sum, the grid kernel by one Clenshaw pass over all
    the radii that fall on resolved panels, with the same coefficients and
    operations.  The scalar kernel answers for every other radius, by the
    s-kernel at ``log r``: at ``r < e^_PANEL_LO``, past the faithful cap,
    where it raises the ``CapacityError``, and on an unresolved panel;
    ``r = 0`` gives ``log c_0``."""
    s_kernel = spec.s_kernel
    log_c0 = float(_series_logc(spec)[0])
    cap, s_max = spec.faithful_cap, spec.s_max
    r_lo = math.exp(_PANEL_LO)
    coeffs, resolved = _bell_panels(spec)
    # Highest degree first, as Clenshaw's recurrence takes them; the last
    # entry catches an r = e^_PANEL_LO that rounds past the lowest panel.
    coeffs = coeffs[:, ::-1]
    panels = [tuple(c.tolist()) if ok else None for c, ok in zip(coeffs, resolved)]
    panels.append(None)
    resolved = np.append(resolved, False)
    per_width = 1.0 / _PANEL_WIDTH
    log = math.log

    def series(r: float) -> float:
        if r == 0.0:
            return log_c0
        return float(s_kernel(np.array([log(r)]))[0, 0])

    def kernel(r: float) -> float:
        if r < r_lo or r > cap:
            return series(r)
        u = (s_max - log(r)) * per_width
        p = int(u)
        panel = panels[p]
        if panel is None:
            return series(r)
        x = 1.0 - 2.0 * (u - p)  # in [-1, 1], 1 at the panel's top
        x2 = x + x
        b1 = b2 = 0.0
        for c in panel:
            b1, b2 = c + x2 * b1 - b2, b1
        return (b1 - x * b2) * r

    def grid(rs: np.ndarray) -> np.ndarray:
        i = np.flatnonzero((rs >= r_lo) & (rs <= cap))
        u = (s_max - _logs(rs[i])) * per_width
        p = u.astype(np.intp)
        on = resolved[p]
        i, u, p = i[on], u[on], p[on]
        x = 1.0 - 2.0 * (u - p)
        x2 = x + x
        b1 = b2 = np.zeros(i.size)
        for c in coeffs[p].T:
            b1, b2 = c + x2 * b1 - b2, b1
        out = np.empty(rs.size)
        out[i] = (b1 - x * b2) * rs[i]
        rest = np.ones(rs.size, dtype=bool)
        rest[i] = False
        out[rest] = [kernel(r) for r in rs[rest].tolist()]
        return out

    return kernel, grid


def _power_series_kernels(spec: GrowthFunctionSpec):
    """Log-sum-exp over every stored term: a power series is taken at face
    value (a finite sum is a legitimate function), so no truncation guard
    applies.  The grid kernel takes it row by row over the (radii x terms)
    matrix, in blocks of at most ``_SERIES_BLOCK`` cells; the scalar kernel
    is its one-element case; ``r = 0`` and ``r = inf`` take their limits."""
    logc = _series_logc(spec)
    index = np.arange(logc.size, dtype=float)
    rows = max(1, _SERIES_BLOCK // logc.size)
    # log u(inf): inf past a term with n >= 1, else the constant log c_0.
    at_inf = math.inf if np.isfinite(logc[1:]).any() else logc[0]

    def grid(rs: np.ndarray) -> np.ndarray:
        out = np.full(rs.size, logc[0])  # log u(0) = log c_0
        out[rs == math.inf] = at_inf
        pos = np.flatnonzero((rs != 0.0) & (rs != math.inf))
        for a in range(0, pos.size, rows):
            i = pos[a:a + rows]
            out[i] = _logsumexp(logc + index * _logs(rs[i])[:, None])
        return out

    return lambda r: float(grid(np.array([r]))[0]), grid


def _beyond_series(spec: GrowthFunctionSpec, r: float) -> CapacityError:
    top = len(_series_logc(spec)) - 1
    return CapacityError(
        f"r={r:g} lies beyond the faithful range of {spec.function_id} "
        f"(series stored to n={top}, max safe r ~ {spec.faithful_cap:.3g})"
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
    # From s <= log(largest double), v is 0 and its derivatives 0 after
    # _LOG_STEPS clamped steps, and stays so.
    depth = min(spec.k - 1, _LOG_STEPS)

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


def _series_moments(logc: np.ndarray, s: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    step: np.ndarray):
    """Per point, over the terms ``logc[n] + n s`` for ``n = lo, lo + h, ...``
    up to ``hi``, ``h = step``, each weighted by ``h``: the log-sum-exp of
    the terms with the mean and variance of ``n`` under their weights.  The log-sum-exp is the largest term plus
    ``log1p`` of the others' sum relative to it, so it is accurate relative
    to ``log u`` also where ``u`` is near 1.  Points go in blocks of
    similar term count of at most ``_SERIES_BLOCK`` cells; a block's short
    rows are padded with cells that hold exact zeros, which never pass
    through ``np.exp``."""
    out = np.empty((3, s.size))
    count = (hi - lo) // step + 1
    order = np.argsort(count, kind="stable")
    a = 0
    while a < s.size:
        b = min(a + max(1, _SERIES_BLOCK // int(count[order[a]])), s.size)
        b = min(a + max(1, _SERIES_BLOCK // int(count[order[b - 1]])), s.size)
        idx = order[a:b]
        a = b
        w = int(count[idx[-1]])
        j = np.arange(w, dtype=float)
        st, h = s[idx, None], step[idx, None]
        terms = logc.take(lo[idx, None] + h * np.arange(w), mode="clip")
        terms += st * (j * h)
        terms += st * lo[idx, None]
        pad = j >= count[idx, None] if count[idx[0]] < w else None
        if pad is not None:  # cells past a short row
            terms[pad] = -np.inf
        rows = np.arange(idx.size)
        peak = terms.argmax(axis=1)
        top = terms[rows, peak]
        terms -= top[:, None]
        if pad is None:
            np.exp(terms, out=terms)
        else:
            np.exp(terms, out=terms, where=~pad)
            terms[pad] = 0.0
        # The peak's 1 leaves the sum and comes back through log1p.
        terms[rows, peak] = 0.0
        rest = terms.sum(axis=1)
        terms[rows, peak] = 1.0
        total = 1.0 + rest
        mean = (terms @ j) / total  # in units of h
        d = j - mean[:, None]
        d *= d
        h = step[idx]
        out[0, idx] = top + (np.log1p(rest) + np.log(h))
        out[1, idx] = lo[idx] + h * mean
        out[2, idx] = (h * h) * np.einsum("ij,ij->i", terms, d) / total
    return out


#: A Bell window's edge terms lie at least this many nats below its peak.
_EDGE_DROP = 46.0
#: The least spread of a Bell peak, in terms, at which its window is summed
#: at a step: narrower peaks gain little.
_STEP_SIGMA = 8.0
#: Spread per step: the trapezoid error e^{-2 pi^2 (sigma / h)^2} of a
#: stepped sum is below e^-50 for h <= sigma / 1.6.
_SIGMA_PER_STEP = 1.6


def _bell_s_kernel(spec: GrowthFunctionSpec):
    """The series' one windowed sum, per point.  The window around the
    dominant term ``p`` starts at the half-width ``10 sqrt(p + 25) + 50``,
    or at 2 where ``p = 0``: there the terms fall off at least ``|s|`` nats
    each, so at ``s <= -40`` the first three hold all a double can see, and
    the cells of a wider start would only underflow in ``exp``.  It doubles
    until both edge terms lie ``_EDGE_DROP`` nats below the peak.  A wide
    peak is summed at a step: every ``h``-th term of its window, weighted
    by ``h``.  The terms are samples of a smooth peak, so this is the
    trapezoid rule for the same integral as the unit-step sum, and the two
    differ by ``e^{-2 pi^2 sigma^2 / h^2}`` relative for a
    peak of spread ``sigma`` (Trefethen and Weideman, SIAM Review 2014), in
    ``f``, ``f'`` and ``f''`` alike.  The step is ``h = floor(sigma /
    1.6)``, which keeps that below e^-50, with ``sigma`` read off the edge
    drops: a Gaussian peak drops ``D = d^2 / (2 sigma^2)`` at distance
    ``d``, and ``log c_n`` bends more at smaller ``n``, so the lower side's
    ``d / sqrt(2 D)`` does not exceed the spread at the peak.  The smaller
    of the two sides' values is taken.  A point keeps ``h = 1`` when that
    is below ``_STEP_SIGMA`` or when a window edge is cut (at ``n = 0`` or
    at the table's end) above the edge drop."""
    logc = _series_logc(spec)
    gaps = _series_gaps(spec)
    top = logc.size - 1
    peak_cap = _PEAK_FRACTION * top

    def kernel(s):
        peak = gaps.searchsorted(s, side="right")
        over = peak > peak_cap
        if over.any():
            raise _beyond_series(spec, math.exp(s[over][0]))
        edge = logc[peak] + peak * s - _EDGE_DROP
        half = np.where(peak > 0, 10.0 * np.sqrt(peak + 25.0) + 50.0, 2.0).astype(np.intp)
        while True:
            lo = np.maximum(peak - half, 0)
            hi = np.minimum(peak + half, top)
            lo_term, hi_term = logc[lo] + lo * s, logc[hi] + hi * s
            wide = ((lo > 0) & (lo_term > edge)) | ((hi < top) & (hi_term > edge))
            if not wide.any():
                break
            half[wide] *= 2
        # The edge terms' drops below the peak, or _EDGE_DROP where smaller.
        drop_lo = np.maximum(edge - lo_term, 0.0) + _EDGE_DROP
        drop_hi = np.maximum(edge - hi_term, 0.0) + _EDGE_DROP
        sigma = np.minimum((peak - lo) / np.sqrt(2.0 * drop_lo),
                           (hi - peak) / np.sqrt(2.0 * drop_hi))
        sigma[(lo_term > edge) | (hi_term > edge)] = 0.0
        step = np.where(sigma >= _STEP_SIGMA, sigma / _SIGMA_PER_STEP, 1.0).astype(np.intp)
        return _series_moments(logc, s, lo, hi, step)

    return kernel


def _power_series_s_kernel(spec: GrowthFunctionSpec):
    """Every stored term, as in the scalar kernel."""
    logc = _series_logc(spec)

    def kernel(s):
        lo = np.zeros(s.size, dtype=np.intp)
        return _series_moments(logc, s, lo, lo + (logc.size - 1), lo + 1)

    return kernel


# -- the kind registry --------------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    """How one kind is read from a config mapping, named and evaluated."""

    param: str  # the config key it reads, and the spec field that holds it
    default: object  # the key's value when a config omits it
    domain: str  # the parameter's interval, for growth._real
    factory: Callable  # (parameter, config claims) -> spec
    name: Callable  # unlabeled spec -> function_id
    kernels: Callable  # spec -> scalar and grid ``log u`` kernels
    s_kernel: Callable  # spec -> array kernel in ``s = log r``


#: One record per kind.  A catalog factory fixes the claims, so it drops the
#: config's; ``spec_from_dict`` then rejects claims that contradict it.
_KIND_TABLE = {
    KONDRATIEV_STREIT: _Kind(
        "beta", 0.0, "[0, 1)", lambda beta, _: kondratiev_streit(beta),
        lambda s: f"ks(beta={s.beta:g})", _looped(_ks_kernel), _ks_s_kernel),
    ITERATED_EXP_SQRT: _Kind(
        "k", 2, "[1, inf)", lambda k, _: iterated_exp_sqrt(k),
        lambda s: f"g{s.k}", _looped(_iterated_exp_sqrt_kernel),
        _iterated_exp_sqrt_s_kernel),
    BELL_SERIES: _Kind(
        "k", 2, f"[1, {_BELL_K_CAP}]", lambda k, _: bell_series(k),
        lambda s: f"u{s.k}", _bell_kernels, _bell_s_kernel),
    POWER_SERIES: _Kind(
        "log_coeffs", (), "[-inf, inf)", power_series,
        lambda s: f"power_series[{len(s.log_coeffs)}]",
        _power_series_kernels, _power_series_s_kernel),
    EXPONENTIAL: _Kind(
        "c", 1.0, "(0, inf)", lambda c, _: exponential(c),
        lambda s: f"exp({s.c:g}r)", _looped(_exponential_kernel),
        _exponential_s_kernel),
}

KINDS = tuple(_KIND_TABLE)


# -- series internals ------------------------------------------------------


@lru_cache(maxsize=_SPEC_CACHE)
def _series_logc(spec: GrowthFunctionSpec) -> np.ndarray:
    """Log-coefficients ``log c_n`` of ``u(r) = sum c_n r^n`` for series kinds;
    ``u_2``'s are read from ``_BELL2_LOGC``."""
    if spec.kind == POWER_SERIES:
        arr = np.asarray(spec.log_coeffs, dtype=float).copy()
    elif spec.kind == BELL_SERIES:
        if spec.k == 1:
            arr = -_log_factorials(_N_BELL2)
        elif spec.k == 2:
            arr = np.load(_BELL2_LOGC)
        else:
            arr = -(2.0 * _log_factorials(_N_BELL_HIGH) + _egf_log_coeffs(spec.k, _N_BELL_HIGH))
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

#: The orders ``lam`` of ``E_lam`` that grey noise takes.
_LAMBDAS = "(0, 1]"


def mittag_leffler(lam: float, t: float) -> float:
    """``E_lam(-t)`` for ``lam`` in (0, 1] and ``t >= 0``: ``exp(-t)`` at
    ``lam = 1``, otherwise the spectral integral

    ``E_lam(-t) = (sin(lam pi) / (lam pi)) *
    \\int_0^inf exp(-s^{1/lam} t^{1/lam}) / (s^2 + 2 s cos(lam pi) + 1) ds``.

    Completely monotone in ``t`` by construction (the integrand is a mixture
    of decaying exponentials), so the result lies in (0, 1] and decreases in
    ``t``.  In ``x = log s`` the integrand decays like ``e^{-|x|}``, drops
    from 1 to 0 over a knee of width ~``lam`` at ``x = -log t`` and has poles
    at ``x = ±i pi (1 - lam)``: a fixed 20-point Gauss-Legendre rule on
    panels graded down to a quarter of each feature's scale is exact to
    rounding.  The tests hold it to 1e-12 relative of an mpmath oracle (the
    power series or a quadrature of the same integral, as in the module
    docstring), from ``t = 1e-9`` to ``1e6`` and ``lam = 0.001`` to ``0.999``.
    The oracle's quadrature holds about 24 digits as ``lam`` nears 1 (8.7e-25
    relative at ``(0.8, 60)`` against the asymptotic series), far inside 1e-12.
    """
    lam, t = _real(lam, "lam", _LAMBDAS), _real(t, "t", "[0, inf)")
    if t == 0.0:
        return 1.0
    if lam == 1.0:
        return math.exp(-t)
    lt = math.log(t)
    # The tails past lo and hi are below e^{-40} of the integral.
    lo, hi = min(-lt, 0.0) - 40.0, min(lam * math.log(800.0) - lt, 40.0)
    edges = [lo, hi]
    # A quarter of a subnormal lam can round to 0, which would never double.
    for c, h in ((-lt, max(0.25 * lam, 5e-324)), (0.0, 0.25 * math.pi * (1.0 - lam))):
        edges.append(c)
        while c - h > lo or c + h < hi:  # panels double in width away from c
            edges += [c - h, c + h]
            h *= 2.0
    edges = _unique(np.clip(edges, lo, hi))
    half = 0.5 * np.diff(edges)
    nodes, weights = _gl_nodes(20)
    x = (edges[:-1] + half)[:, None] + half[:, None] * nodes
    # z / (expm1(-|x|)^2 + 4 q z) is 1 / (s + 1/s + 2 cos(lam pi)) without
    # its cancellation near s = 1.
    z, q = np.exp(-np.abs(x)), math.sin(0.5 * math.pi * (1.0 - lam)) ** 2
    with np.errstate(over="ignore"):  # (x + lt) / lam past the doubles: the factor is 0
        g = np.exp(-np.exp((x + lt) / lam)) * z / (np.expm1(-np.abs(x)) ** 2 + 4.0 * q * z)
    # A rounding above 1 (near t = 0 at a tiny lam) is clamped to the bound.
    return min(math.sin(math.pi * min(lam, 1.0 - lam)) / (lam * math.pi)
               * float(half @ (g @ weights)), 1.0)


# -- grids and condition certificates ---------------------------------------


def _unique(a) -> np.ndarray:
    """``np.unique(a)`` bit for bit (sorted, one of each value, one NaN),
    without the ``numpy.ma`` import ``np.unique`` makes on first use."""
    a = np.sort(np.ravel(a))
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = a[1:] != a[:-1]
    if a.size and np.isnan(a[-1]):  # NaNs sort last; keep the first
        keep[np.searchsorted(a, a[-1]) + 1 :] = False
    return a[keep]


def _median(a: np.ndarray) -> float:
    """``np.median`` of a nonempty 1-d array, as it takes it (the mean of the
    sorted middle, NaN if any value is), without its ``numpy.ma`` import."""
    a = np.sort(a)
    return math.nan if np.isnan(a[-1]) else float(a[(a.size - 1) // 2 : a.size // 2 + 1].mean())


def default_r_grid() -> np.ndarray:
    """400 geometric points on [1e-6, 1e8] plus a linear refinement down to r = 0."""
    geo = np.geomspace(1e-6, 1e8, 400)
    lin = np.linspace(0.0, 1e-6, 33)
    return _unique(np.concatenate([lin, geo]))


def _radius_grid(r_grid=None) -> np.ndarray:
    """A user radius grid (``default_r_grid()`` for None), sorted and unique:
    a nonempty array of radii by the one radius rule (:func:`_reals`)."""
    grid = _unique(_reals(default_r_grid() if r_grid is None else r_grid))
    if grid.size == 0:
        raise ParameterError("r grids must be nonempty")
    return grid


def refine_grid(grid: np.ndarray) -> np.ndarray:
    """Double a grid's density (geometric midpoints between positive nodes)."""
    grid = _reals(grid)
    pos = grid[grid > 0.0]
    if pos.size < 2:
        return grid
    with np.errstate(over="ignore"):  # mended below
        mids = np.sqrt(pos[:-1] * pos[1:])
    over = np.flatnonzero(mids == math.inf)
    mids[over] = np.sqrt(pos[over]) * np.sqrt(pos[over + 1])
    return _unique(np.concatenate([grid, mids]))


@dataclass
class ConditionCheck:
    """Outcome of one admissibility condition on one sampling grid."""

    condition: str
    status: str  # "pass" | "fail" | "inconclusive"
    witness_r: float | None = None
    observed: float | None = None
    note: str = ""


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

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_conditions(
    spec: GrowthFunctionSpec, r_grid: np.ndarray | None = None
) -> ConditionReport:
    """Certify U0/U1 (infimum, monotonicity), U2 (``log u(r)/r`` bounded),
    U3 (midpoint convexity of ``log u(x^2)``) and the divergence classes
    ``C+,1/2`` / ``C+,log`` on a sampling grid.

    The grid is clipped to the function's faithful range so that truncated
    series are judged on the region where they represent their target.
    """
    r_grid = _radius_grid(r_grid)
    cap = spec.faithful_cap
    clipped = bool(cap < math.inf and r_grid[-1] > cap)
    if clipped:
        r_grid = r_grid[r_grid <= spec.trusted_radius]
    if r_grid.size < 8:
        raise ParameterError("condition checks need 8 radii in the faithful range")

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
    elif s[-1] > 1.02 * max(s[0], 1e-300) and _median(ds) > 0.0:
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
    blind_x = None  # the first x whose triple's margin is not finite
    for x_hi, n_pts in ((min(2.0, x_hi_cap), 161), (min(1e4, x_hi_cap), 801)):
        xs = np.linspace(0.0, x_hi, n_pts)
        F = log_u_grid(spec, xs * xs)
        with np.errstate(over="ignore", invalid="ignore"):  # judged below
            second = F[:-2] + F[2:] - 2.0 * F[1:-1]
            margin = second + 1e-9 * np.maximum(1.0, np.abs(F[1:-1]))
        blind = np.flatnonzero(~np.isfinite(margin))
        if blind.size:
            blind_x = float(xs[blind[0] + 1]) if blind_x is None else blind_x
            margin[blind] = math.inf
        j = int(np.argmin(margin))
        if margin[j] < worst:
            worst = float(margin[j])
            worst_x = float(xs[j + 1])
    if worst < 0.0:
        checks["U3"] = ConditionCheck("U3", "fail", worst_x, worst,
                                      "convexity violated at sampled triple")
    elif blind_x is not None:
        checks["U3"] = ConditionCheck("U3", "inconclusive", blind_x, None,
                                      f"second differences of log u(x^2) are not "
                                      f"finite from x = {blind_x:g}")
    else:
        checks["U3"] = ConditionCheck("U3", "pass", None, worst,
                                      "log u(x^2) midpoint-convex on sampled triples")

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
