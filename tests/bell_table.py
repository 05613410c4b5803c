"""The generator of ``u_2``'s shipped coefficient table.

``growthcalc`` reads the log-coefficients ``log c_n = -(log B(n) + log n!)``,
n = 0..2^18, of the Bell series ``u_2(r) = sum r^n / (B(n) n!)`` from
``src/growthcalc/bell2_logc.npy``.  :func:`_log_bell` below computed them at
run time before they were shipped; the tests hold it to the 30-digit Bell
oracle and the shipped file to it.  Rewrite the file with::

    PYTHONPATH=src python tests/bell_table.py
"""

from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from growthcalc import growth
from growthcalc.growth import _N_BELL2, _log_factorials, _stirling_series


@lru_cache(maxsize=None)
def _log_bell(n_hi: int) -> np.ndarray:
    """``log B(n)`` for the classical Bell numbers, n = 0..n_hi.

    Dobinski: ``B(n) = e^{-1} sum_{j >= 1} j^n / j!``, whose terms peak at
    ``j log j = n`` with width ``sigma = j / sqrt(n + j)``.  Rows n <= 256
    are that sum over j = 1..130 (the peak j < 63 plus 14 sigma < 49).
    Past n = 256 the sum, a unit-step trapezoid rule of the smooth peak
    ``x -> exp(n log x - lgamma(x + 1))``, is its integral to a relative
    ``exp(-2 pi^2 sigma^2)``, and so is the trapezoid rule at step h to
    ``exp(-2 pi^2 sigma^2 / h^2)`` (Trefethen and Weideman 2014).  Each block
    of 1024 rows takes one node grid, at h = 0.7 times its narrowest sigma
    (a bound below e^-40), spanning every row's peak +- 10 sigma (peaks by one
    vectorized Newton solve; the cut tails start 38 nats down).  Per node:
    ``log x`` and ``lgamma(x + 1) - log sqrt(2 pi) = (x + 1/2) log x - x +
    S(x)`` with :func:`_stirling_series` (the nodes start above 27); per
    cell: ``n log x - lgamma(x + 1)``.  A block's cells are laid out with
    a row per node and a column per Bell row, so each reduction runs down
    the columns, a node row at a time across every Bell row of the block.
    """
    out = np.empty(n_hi + 1)
    out[0] = 0.0
    top = min(n_hi, 256)
    ex = np.arange(1.0, top + 1.0)[:, None] * np.log(np.arange(1.0, 131.0))
    ex -= _log_factorials(130)[1:]
    m = ex.max(axis=1)
    out[1 : top + 1] = m + np.log(np.exp(ex - m[:, None]).sum(axis=1)) - 1.0
    const = 1.0 + 0.5 * math.log(2.0 * math.pi)  # Dobinski's e^-1, Stirling's sqrt(2 pi)
    for a in range(top + 1, n_hi + 1, 1024):
        n = np.arange(a, min(a + 1024, n_hi + 1), dtype=float)
        j = n / np.log(n)
        for _ in range(6):  # Newton on j log j = n
            j = (j + n) / (np.log(j) + 1.0)
        sigma = j / np.sqrt(n + j)
        h = 0.7 * sigma.min()
        lo = (j - 10.0 * sigma).min()
        x = lo + h * np.arange(math.ceil(((j + 10.0 * sigma).max() - lo) / h) + 1)
        lx = np.log(x)
        f = np.multiply.outer(lx, n)
        f -= ((x + 0.5) * lx - x + _stirling_series(x))[:, None]
        m = f.max(axis=0)
        f -= m
        np.exp(f, out=f)
        out[a : a + n.size] = m + (np.log(f.sum(axis=0) * h) - const)
    out.setflags(write=False)
    return out


def bell2_logc() -> np.ndarray:
    """The table ``u_2`` ships: ``-(log B(n) + log n!)`` for n = 0..2^18."""
    return -(_log_bell(_N_BELL2) + _log_factorials(_N_BELL2))


if __name__ == "__main__":
    path = Path(growth.__file__).with_name("bell2_logc.npy")
    np.save(path, bell2_logc())
    print(f"wrote {path}")
