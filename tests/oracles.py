"""Independent references, in mpmath at ``DPS`` = 30 digits: the Legendre
transform, the L-series ``L_u(r) = sum_n ell(n) r^n``, the classical Bell
numbers, the Mittag-Leffler function and the S-transform of a Hermite
sum.  The Mittag-Leffler quadrature
branch holds fewer digits as ``lam`` nears 1 and the pole near ``s = 1``
sharpens: about 24 (8.7e-25 relative at ``(0.8, 60)``, 6.0e-25 at ``(0.7,
30)`` against the asymptotic series summed to 35 digits), 29 or more at
``lam <= 0.5``.

``log u`` is written out again from each kind's defining formula (for the
Bell series ``u_2``, a sum over exact Bell numbers from the Bell triangle),
and the
transform ``log ell(t) = inf_r [log u(r) - t log r]`` is solved from
``f'(s) = t`` for ``f(s) = log u(e^s)`` by a bracketed secant.  ``f`` is
convex, so ``f'`` is nondecreasing and ``{s : f'(s) < t}`` is a half-line
whose end is the minimizer; where ``f'`` jumps over ``t`` (the clamp kink of
``g_k``) there is no root, and bisection finds that end.
Nothing here calls growthcalc's kernels or solvers: only the spec's
parameters are read.

``log_u`` and ``transform`` also take, in place of a spec, a 1-d array of a
series' double log-coefficients, summed at ``DPS`` digits.  That is the
reference for a kernel's summation where no exact oracle of the function
reaches (``u_2`` past the exact Bell numbers, ``u_3``); the stored tables
themselves are held to exact Bell numbers by their own tests.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np

from growthcalc.growth import (
    BELL_SERIES,
    EXPONENTIAL,
    ITERATED_EXP_SQRT,
    KONDRATIEV_STREIT,
    POWER_SERIES,
)

DPS = 30

#: Terms of the Bell-series oracle: they leave a tail below 1e-40 up to
#: r ~ 1e5, so ``transform`` reaches t ~ 300.
BELL_TERMS = 1200


@lru_cache(maxsize=None)
def bell_triangle() -> tuple[int, ...]:
    """The classical Bell numbers ``B(0..BELL_TERMS)``, exact, from the Bell
    triangle (each row starts with the last entry of the row above; every
    other entry adds its left neighbour and the entry above it)."""
    row, bell = [1], [1]
    for _ in range(BELL_TERMS):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        bell.append(row[0])
    return tuple(bell)


@lru_cache(maxsize=None)
def _bell_coeffs() -> tuple[mp.mpf, ...]:
    """``1 / (B(n) n!)`` for n = 0..BELL_TERMS."""
    with mp.workdps(DPS + 10):
        return tuple(1 / (mp.mpf(b) * mp.factorial(n)) for n, b in enumerate(bell_triangle()))


#: A coefficient table's terms more than this many nats below the largest
#: are left out: together they are below e^-50 of the sum.
TABLE_WINDOW = 65.0


def _log_sum(terms) -> mp.mpf:
    """``log`` of a sum of positive terms: the log of the largest plus
    ``log1p`` of the others' sum relative to it, so it keeps its relative
    accuracy also where the sum is near 1."""
    i = max(range(len(terms)), key=terms.__getitem__)
    rest = mp.fsum(t for k, t in enumerate(terms) if k != i)
    return mp.log(terms[i]) + mp.log1p(rest / terms[i])


def _table_moments(log_coeffs: np.ndarray, s):
    """``log sum_n c_n e^{ns}`` with the mean and the variance of ``n``
    under the terms' weights, for ``log c_n`` given in doubles, over the
    terms within ``TABLE_WINDOW`` nats of the largest (found in doubles,
    then summed exactly)."""
    n = np.arange(log_coeffs.size)
    terms = log_coeffs + n * float(s)
    keep = np.flatnonzero(terms > float(terms.max()) - TABLE_WINDOW).tolist()
    top = mp.mpf(float(terms.max()))
    weights = [mp.exp(mp.mpf(float(log_coeffs[k])) + k * s - top) for k in keep]
    total = mp.fsum(weights)
    mean = mp.fdot(keep, weights) / total
    variance = mp.fsum(w * (k - mean) ** 2 for k, w in zip(keep, weights)) / total
    return top + _log_sum(weights), mean, variance


def _f_and_slope(spec, s):
    """``f(s) = log u(e^s)`` and its right derivative in ``s``."""
    if isinstance(spec, np.ndarray):
        return _table_moments(spec, s)[:2]
    if spec.kind == KONDRATIEV_STREIT:
        b1 = 1 + mp.mpf(spec.beta)
        return b1 * mp.exp(s / b1), mp.exp(s / b1)
    if spec.kind == EXPONENTIAL:
        return mp.mpf(spec.c) * mp.exp(s), mp.mpf(spec.c) * mp.exp(s)
    if spec.kind == ITERATED_EXP_SQRT:
        # g_k(r) = exp[2 sqrt(r x)], x = log_{k-1} sqrt(r) with log_1 y = log max(e, y).
        x = mp.exp(s / 2)
        dx = x / 2
        for _ in range(spec.k - 1):
            x, dx = (mp.log(x), dx / x) if x > mp.e else (mp.mpf(1), mp.mpf(0))
        f = 2 * mp.sqrt(mp.exp(s) * x)
        return f, f / 2 * (1 + dx / x)
    if spec.kind == BELL_SERIES and spec.k == 1:
        return mp.exp(s), mp.exp(s)  # u_1(r) = sum_n r^n / n! = e^r
    if spec.kind == BELL_SERIES and spec.k == 2:
        # u_2(r) = sum_n r^n / (B(n) n!).  1 / (B(n) n!) is log-concave, so
        # past the peak the terms' ratios fall and the last ratio bounds the
        # tail by a geometric series: stop once that bound is below 1e-40.
        x, power, terms, total = mp.exp(s), mp.mpf(1), [], mp.mpf(0)
        for c in _bell_coeffs():
            terms.append(c * power)
            total += terms[-1]
            power *= x
            ratio = terms[-1] / terms[-2] if len(terms) > 1 else 1
            if ratio < 1 and terms[-1] * ratio / (1 - ratio) < mp.mpf(10) ** -40 * total:
                return _log_sum(terms), mp.fsum(n * t for n, t in enumerate(terms)) / total
        raise AssertionError(f"the {BELL_TERMS}-term Bell oracle does not reach r = {x}")
    if spec.kind == POWER_SERIES:
        terms = [(n, mp.exp(mp.mpf(c) + n * s))
                 for n, c in enumerate(spec.log_coeffs) if c != float("-inf")]
        total = mp.fsum(t for _, t in terms)
        return _log_sum([t for _, t in terms]), mp.fsum(n * t for n, t in terms) / total
    raise ValueError(f"no oracle for kind {spec.kind!r}")


def log_u(spec, r) -> mp.mpf:
    """``log u(r)`` for ``r > 0`` at ``DPS`` digits (``spec`` may be an array
    of log-coefficients)."""
    with mp.workdps(DPS):
        return +_f_and_slope(spec, mp.log(mp.mpf(r)))[0]


def transform(spec, t) -> tuple[mp.mpf, mp.mpf]:
    """``(log ell(t), r*(t))`` for ``t > 0`` at ``DPS`` digits (``spec`` may
    be an array of log-coefficients)."""
    with mp.workdps(DPS):
        t = mp.mpf(t)

        def below(s):
            return _f_and_slope(spec, s)[1] < t

        lo, hi = mp.mpf(-1), mp.mpf(1)
        while not below(lo):
            lo *= 2
        while below(hi):  # unit steps: the Bell oracle reaches s = 11.5 only
            hi += 1
        s = _secant_root(lambda x: _f_and_slope(spec, x)[1] - t, lo, hi)
        if s is None:  # f' jumps over t: the minimizer is the jump, by bisection
            while hi - lo > mp.mpf(10) ** (2 - DPS) * max(1, abs(lo)):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if below(mid) else (lo, mid)
            s = (lo + hi) / 2
        return _f_and_slope(spec, s)[0] - t * s, mp.exp(s)


def _secant_root(g, lo, hi):
    """The root of the nondecreasing ``g`` in ``[lo, hi]`` (``g(lo) < 0 <=
    g(hi)``) by the Anderson-Bjorck bracketed secant, about ten evaluations
    where bisection to ``DPS`` digits takes about 95; ``None`` where it does
    not converge to a root, as where ``g`` jumps over 0."""
    try:
        s = mp.findroot(g, (lo, hi), solver="anderson")
    except (ValueError, ZeroDivisionError):
        return None
    return s if lo <= s <= hi else None


@lru_cache(maxsize=None)
def _log_ell(spec, n: int) -> mp.mpf:
    """``log ell(n)``: closed forms for ks (``(1+beta) n (1 - log n)``) and
    the exponential (``n (1 - log(n / c))``), ``transform`` otherwise.  Each
    ``u`` here is increasing from ``u(0) = 1``, so ``ell(0) = inf u = 1``."""
    with mp.workdps(DPS + 10):
        if n == 0:
            return mp.mpf(0)
        if spec.kind == KONDRATIEV_STREIT:
            return (1 + mp.mpf(spec.beta)) * n * (1 - mp.log(n))
        if spec.kind == EXPONENTIAL:
            return n * (1 - mp.log(n / mp.mpf(spec.c)))
    return transform(spec, n)[0]


def log_l(spec, r) -> mp.mpf:
    """``log L_u(r) = log sum_n ell(n) r^n`` for ``r > 0`` at ``DPS`` digits.
    ``log ell`` is concave, so past the peak the terms' ratios fall and the
    last ratio bounds the tail by a geometric series: the sum stops once that
    bound is below ``10^-(DPS + 5)`` of it."""
    with mp.workdps(DPS + 10):
        lr, total, previous = mp.log(mp.mpf(r)), mp.mpf(0), None
        for n in range(100_000):
            term = mp.exp(_log_ell(spec, n) + n * lr)
            total += term
            if previous is not None and term < previous:
                ratio = term / previous
                if term * ratio / (1 - ratio) < mp.mpf(10) ** -(DPS + 5) * total:
                    break
            previous = term
        else:
            raise AssertionError(f"the L-series oracle does not converge at r = {r}")
    with mp.workdps(DPS):
        return +mp.log(total)


def log_bell(n: int) -> mp.mpf:
    """``log B(n)`` of the classical Bell number ``B(n)`` at ``DPS`` digits."""
    with mp.workdps(DPS):
        return mp.log(mp.bell(n))


def mittag_leffler(lam, t) -> mp.mpf:
    """``E_lam(-t)`` for ``0 < lam < 1`` and ``t > 0`` at ``DPS`` digits.

    Where ``lam >= 0.1`` and ``x = t^{1/lam} <= 20``, by the power series
    ``sum_k (-t)^k / Gamma(lam k + 1)``, summed at ``DPS + x / ln 10 + 10``
    digits: its largest term is about ``e^x``, so that many digits survive
    the cancellation.  Below ``lam = 0.1`` the series needs about
    ``35 / lam`` terms.  Elsewhere, from the spectral integral as written,
    ``sin(lam pi) / (lam pi) * int_0^inf exp(-(s t)^{1/lam}) / (s^2 + 2 s
    cos(lam pi) + 1) ds``, by ``mp.quad`` split around the knee at ``s =
    1/t`` (width ~lam in ``log s``) and the near-pole at ``s = 1`` (width
    ~pi (1 - lam)).  Past ``s = 2000^lam / t`` the integrand is below
    ``e^-2000``."""
    if lam >= 0.1 and math.log(t) <= lam * math.log(20.0):
        x = t ** (1.0 / lam)
        with mp.workdps(DPS + int(x / math.log(10.0)) + 10):
            lam, t = mp.mpf(lam), mp.mpf(t)
            tol = mp.mpf(10) ** -(DPS + 10)
            total, power, k = mp.mpf(0), mp.mpf(1), 0
            while True:
                term = power / mp.gamma(lam * k + 1)
                total += term
                if lam * k > x and abs(term) < tol * abs(total):
                    return +total
                power *= -t
                k += 1
    with mp.workdps(DPS):
        lam, t = mp.mpf(lam), mp.mpf(t)
        c = mp.cos(lam * mp.pi)

        def f(s):
            return mp.exp(-(s * t) ** (1 / lam)) / (s * s + 2 * s * c + 1)

        end = mp.mpf(2000) ** lam / t
        knee = [mp.exp(lam * k) / t for k in range(-8, 8)]
        pole = [mp.exp(sign * mp.pi * (1 - lam) * 2**k) for k in range(-2, 6) for sign in (-1, 1)]
        pts = sorted(p for p in {*knee, *pole, mp.mpf(1)} if p < end)
        return mp.sin(lam * mp.pi) / (lam * mp.pi) * mp.quad(f, [0, *pts, end])


def hermite_sum(coeffs, x) -> mp.mpf:
    """``sum_n c_n He_n(x)`` with the probabilists' Hermite polynomials, by
    their recurrence ``He_{n+1} = x He_n - n He_{n-1}`` at the working
    precision."""
    total, h_prev, h = mp.mpf(0), mp.mpf(0), mp.mpf(1)
    for n, c in enumerate(coeffs):
        total += c * h
        h_prev, h = h, x * h - n * h_prev
    return total


@lru_cache(maxsize=None)
def _hermite_rule(order: int, dps: int):
    with mp.workdps(dps):
        return mp.gauss_quadrature(order, "hermite")


def s_transform(coeffs, xi) -> mp.mpf:
    """``S(phi)(xi) = E[phi(X + xi)]`` for ``phi = sum_n c_n He_n`` and a
    standard Gaussian ``X``, to ``DPS`` digits, from the definition: the
    Hermite sum at ``X + xi`` integrated against the Gaussian density by an
    ``order``-point Gauss-Hermite rule (``order`` a multiple of 16 with ``2
    order > degree``), which is exact for the polynomial.  It does not use
    ``E He_n(X + xi) = xi^n``, the identity ``fock.s_transform_1d`` sums.

    Only rounding is left, and the terms reach about ``sqrt(n!)`` however
    small the value, so the rule runs at ``DPS + 20`` digits and then at
    twice as many, until two values agree to ``DPS`` digits (to ``10^-2DPS``
    absolutely for a value below ``10^-DPS``)."""
    coeffs = [mp.mpf(float(c)) for c in coeffs]  # doubles are exact in mpf
    xi = mp.mpf(float(xi))
    order = 16 * -(-len(coeffs) // 32)
    dps, prev = DPS + 20, None
    while dps <= 64 * DPS:
        nodes, weights = _hermite_rule(order, dps)
        with mp.workdps(dps):
            root2 = mp.sqrt(2)
            value = mp.fsum(w * hermite_sum(coeffs, root2 * x + xi)
                            for x, w in zip(nodes, weights)) / mp.sqrt(mp.pi)
        tol = mp.mpf(10) ** -DPS * max(abs(value), mp.mpf(10) ** -DPS)
        if prev is not None and abs(value - prev) <= tol:
            return value
        prev, dps = value, 2 * dps
    raise ArithmeticError(f"the S-transform oracle did not settle by {dps // 2} digits")
