"""Reference kernels for edge and hard-edge scaled ensembles.

Provides the decaying Airy solution of y'' = x*y together with the
soft-edge kernel built from it, and the hard-edge Bessel kernel in its
two algebraically equal displayed forms.

Ai, Ai' and J_alpha come from ``scipy.special`` (``airy``, ``jv``), and
J_alpha' = (J_{alpha-1} - J_{alpha+1}) / 2 from the same ``jv`` call as
J_alpha; the kernels accept arguments in ``AIRY_SUPPORT`` and
(0, ``BESSEL_X_MAX``].  Off the diagonal the kernels are the closed forms,
a numerator divided by (x - y).  As y -> x that numerator cancels badly,
so within |x - y| <= ``DIAGONAL_WINDOW`` a quadratic expansion around the
midpoint is used instead; its coefficients are exact expressions in the
same special functions, not finite differences, and its zeroth term is
the exact diagonal value.  ``kernel_grid`` and the soft-edge field build
Airy kernel rows in blocks (``_airy_rows``) with the expressions of
``airy_kernel``, so they agree with it bitwise.
"""

from __future__ import annotations

import enum
import math

import numpy as np
from scipy import special

__all__ = [
    "AIRY_SUPPORT",
    "BESSEL_X_MAX",
    "DIAGONAL_WINDOW",
    "KernelId",
    "airy_fn",
    "airy_kernel",
    "bessel_kernel",
    "kernel_grid",
]

AIRY_SUPPORT = (-120.0, 10.0)
BESSEL_X_MAX = 100.0
DIAGONAL_WINDOW = 1e-4


class KernelId(str, enum.Enum):
    AIRY2 = "airy2"
    BESSEL = "bessel"
    GINIBRE = "ginibre"  # diagonal only, the constant 1/pi


# ---------------------------------------------------------------------------
# Airy function
# ---------------------------------------------------------------------------


def _check_airy(x: np.ndarray) -> None:
    bad = ~((x >= AIRY_SUPPORT[0]) & (x <= AIRY_SUPPORT[1]))
    if bad.any():
        raise ValueError(f"airy_fn supports x in [{AIRY_SUPPORT[0]}, {AIRY_SUPPORT[1]}], got {x[bad].flat[0]}")


def airy_fn(x):
    """Decaying Airy solution and its derivative.

    Parameters
    ----------
    x : float or array_like, within ``AIRY_SUPPORT``.

    Returns
    -------
    (ai, aip) : matching scalars or float arrays.
    """
    arr = np.asarray(x, dtype=float)
    _check_airy(arr)
    ai, aip, _, _ = special.airy(arr)
    if arr.ndim == 0:
        return float(ai), float(aip)
    return ai, aip


def _airy_taylor(x, y):
    """Quadratic midpoint expansion of the soft-edge kernel, elementwise;
    its zeroth term is the exact diagonal value Ai'(m)^2 - m Ai(m)^2."""
    m = 0.5 * (x + y)
    a, ap, _, _ = special.airy(m)
    k0 = ap * ap - m * a * a
    d = x - y
    return k0 + (d * d / 12.0) * (a * ap + 2.0 * m * k0)


def airy_kernel(x: float, y: float) -> float:
    """Soft-edge correlation kernel built from the decaying Airy solution.

    Off the diagonal this is (Ai(x)Ai'(y) - Ai'(x)Ai(y)) / (x - y); within
    |x - y| <= 1e-4 a quadratic expansion around the midpoint is used, whose
    zeroth term is the exact diagonal value Ai'(x)^2 - x Ai(x)^2.
    """
    x = float(x)
    y = float(y)
    lo, hi = AIRY_SUPPORT
    if not (lo <= x <= hi and lo <= y <= hi):
        raise ValueError(f"airy_kernel supports x, y in [{lo}, {hi}], got ({x}, {y})")
    if abs(x - y) <= DIAGONAL_WINDOW:
        return float(_airy_taylor(x, y))
    ax, apx, _, _ = special.airy(x)
    ay, apy, _, _ = special.airy(y)
    return float((ax * apy - apx * ay) / (x - y))


# ---------------------------------------------------------------------------
# hard-edge Bessel kernel
# ---------------------------------------------------------------------------


def _bessel_taylor(alpha: float, x, y):
    """Quadratic midpoint expansion of the hard-edge kernel, elementwise,
    valid for any x, y > 0 and exact on the diagonal.

    With m the midpoint, d = (x - y) / 2, s = sqrt(m) and J_k = J_{alpha+k}(s),
    K = (1 - d^2/m^2)^(alpha/2) (k0 + d^2 k2), where
    k0 = (J_0^2 + J_1^2 - (2 alpha / s) J_0 J_1) / 4 is the diagonal value and
    k2 = (6 (J_0 J_3 - J_1 J_2) / s + 4 J_1 J_3 - J_0 J_4 - 3 J_2^2) / (96 m).
    """
    m = 0.5 * (x + y)
    d = 0.5 * (x - y)
    s = np.sqrt(m)
    j0, j1, j2, j3, j4 = (special.jv(alpha + k, s) for k in range(5))
    k0 = 0.25 * (j0 * j0 + j1 * j1 - (2.0 * alpha / s) * j0 * j1)
    k2 = (6.0 * (j0 * j3 - j1 * j2) / s + 4.0 * j1 * j3 - j0 * j4 - 3.0 * j2 * j2) / (96.0 * m)
    r = d / m
    return np.power(1.0 - r * r, 0.5 * alpha) * (k0 + d * d * k2)


def _check_bessel_kernel(alpha: float, lo: float, hi: float) -> None:
    """Order and argument range of the hard-edge kernel; ``lo`` and ``hi``
    are the smallest and largest argument (NaN fails both tests)."""
    if not 1.0 <= alpha < math.inf:
        raise ValueError("bessel_kernel requires a finite alpha >= 1")
    if not lo > 0.0:
        raise ValueError("bessel_kernel requires x, y > 0")
    if not hi <= BESSEL_X_MAX:
        raise ValueError(f"bessel_kernel supports arguments <= {BESSEL_X_MAX}")


def bessel_kernel(alpha: float, x: float, y: float, form: str = "recurrence") -> float:
    """Hard-edge correlation kernel at squared-radius coordinates x, y > 0.

    ``form="recurrence"`` uses J_alpha and J_{alpha+1}; ``form="derivative"``
    uses J_alpha and its derivative.  The two are algebraically identical,
    but the derivative is built from J_{alpha-1} and J_{alpha+1}, so
    their agreement checks the kernel algebra rather than two independent
    evaluators.  Arguments within |x - y| <= 1e-4 (including the diagonal)
    are routed through the midpoint Taylor expansion, identical for both
    forms.  Off that window one ``jv`` call evaluates all Bessel values of
    the form together, on short order/argument arrays: J_alpha and
    J_{alpha+1} at both points, or J_alpha, J_{alpha-1} and J_{alpha+1}
    at both points, with J' = (J_{alpha-1} - J_{alpha+1}) / 2, the relation
    ``scipy.special.jvp`` evaluates.
    """
    if form not in ("recurrence", "derivative"):
        raise ValueError(f"unknown kernel form {form!r}")
    x = float(x)
    y = float(y)
    _check_bessel_kernel(alpha, *((x, y) if x <= y else (y, x)))
    if abs(x - y) <= DIAGONAL_WINDOW:
        return float(_bessel_taylor(alpha, x, y))
    sx = math.sqrt(x)
    sy = math.sqrt(y)
    # elementwise ufuncs give each element the bits of a scalar call
    if form == "recurrence":
        jx, j1x, jy, j1y = special.jv((alpha, alpha + 1.0, alpha, alpha + 1.0), (sx, sx, sy, sy)).tolist()
        num = sx * j1x * jy - jx * sy * j1y
    else:
        orders = (alpha, alpha - 1.0, alpha + 1.0)
        jx, jmx, jpx, jy, jmy, jpy = special.jv(orders * 2, (sx, sx, sx, sy, sy, sy)).tolist()
        num = jx * sy * ((jmy - jpy) / 2.0) - sx * ((jmx - jpx) / 2.0) * jy
    return 0.5 * num / (x - y)


# rows of the kernel matrix built per block: the temporaries stay at
# _KERNEL_ROWS x len(xs), so the matrix itself is the only full-size array
_KERNEL_ROWS = 256


def _airy_rows(xs: np.ndarray):
    """Row builder of the Airy2 kernel on ``xs``: ``fill(rows, s)`` writes K(xs[s + r], xs[j])
    into ``rows[r, j]``, bitwise ``airy_kernel``.  The pairs within ``DIAGONAL_WINDOW`` are found
    once, in O(m log m): a sorted search over twice the window, so rounding drops none, then its test."""
    ai, aip = airy_fn(xs)
    order = np.argsort(xs, kind="stable")
    lo = np.searchsorted(xs[order], xs - 2.0 * DIAGONAL_WINDOW)
    counts = np.searchsorted(xs[order], xs + 2.0 * DIAGONAL_WINDOW, side="right") - lo
    pi = np.repeat(np.arange(xs.size), counts)
    pj = order[np.repeat(lo + counts - np.cumsum(counts), counts) + np.arange(pi.size)]
    keep = np.abs(xs[pi] - xs[pj]) <= DIAGONAL_WINDOW
    pi, pj, near = pi[keep], pj[keep], _airy_taylor(xs[pi[keep]], xs[pj[keep]])

    def fill(rows: np.ndarray, s: int) -> None:
        np.multiply.outer(ai[s : s + len(rows)], aip, out=rows)
        rows -= np.multiply.outer(aip[s : s + len(rows)], ai)
        with np.errstate(divide="ignore", invalid="ignore"):  # near entries are overwritten
            rows /= np.subtract.outer(xs[s : s + len(rows)], xs)
        a, b = np.searchsorted(pi, (s, s + len(rows)))
        rows[pi[a:b] - s, pj[a:b]] = near[a:b]

    return fill


def kernel_grid(kernel: KernelId, xs) -> np.ndarray:
    """Airy2 kernel matrix K(x_i, x_j) on the points ``xs``, in blocks of
    ``_KERNEL_ROWS`` rows from ``_airy_rows``: bitwise the scalar ``airy_kernel``."""
    kernel = KernelId(kernel)
    if kernel is not KernelId.AIRY2:
        raise ValueError(f"kernel_grid evaluates the airy2 kernel, not {kernel.value}")
    xs = np.asarray(xs, dtype=float).ravel()
    fill, out = _airy_rows(xs), np.empty((xs.size, xs.size))
    for s in range(0, xs.size, _KERNEL_ROWS):
        fill(out[s : s + _KERNEL_ROWS], s)
    return out
