"""Empirical estimators and model diagnostics.

Covers binned correlation estimates with a factorial-moment-consistent
normalization, the truncated-drift scan used to probe the finite-window
limit fields, the labeled tail sum that tracks how much high-label mass
can reach a window, and fourth-moment path regularity.

    est = estimate_rho(samples, 1, np.linspace(-4.0, 2.0, 61))
    scan = drift_truncation_scan(envs, spec, -1.0, [10.0, 20.0, 40.0])
    tail = erf_tail_sum(samples, TightnessParams(r=10, T=20, c=1), [50, 150])
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .core import Family, ModelSpec, SingularConfigurationError, _checked_number, _checked_block, _whole_steps
from .models import TruncationParams, TruncationVariant, _configuration, truncated_drift_at

__all__ = [
    "CorrelationEstimate",
    "TightnessParams",
    "TruncationScan",
    "erf_fn",
    "freedman_diaconis_edges",
    "estimate_rho",
    "drift_truncation_scan",
    "erf_tail_sum",
    "holder_moment",
    "log_log_slope",
]


def erf_fn(t):
    """Complementary normal tail (1/sqrt(2 pi)) int_t^inf e^(-x^2/2) dx."""
    out = 0.5 * erfc(np.asarray(t, dtype=float) / math.sqrt(2.0))
    return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class CorrelationEstimate:
    """Binned intensity estimate.

    ``density`` is counts per unit volume per sample: order 1 divides by
    bin volume, order 2 by the product of the two cell volumes, so
    summing density * volume over a box reproduces the empirical
    factorial moment of that box exactly.  ``stderr`` is its across-sample
    standard error: the sample standard deviation of the per-sample
    densities over sqrt(n_samples), NaN for one sample.
    """

    bins: np.ndarray
    counts: np.ndarray
    density: np.ndarray
    n_samples: int
    stderr: np.ndarray
    order: int

    def __post_init__(self) -> None:
        if np.any(self.density < 0):
            raise ValueError("density must be nonnegative")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


@dataclass(frozen=True)
class TightnessParams:
    """Window radius r, horizon T and diffusion bound c of the tail sum.

    The label cutoffs are not parameters: ``erf_tail_sum`` takes a list.
    """

    r: float
    T: float
    c: float

    def __post_init__(self) -> None:
        for name in ("r", "T", "c"):
            _checked_number(name, getattr(self, name), above=0)


@dataclass(frozen=True)
class TruncationScan:
    r_values: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_samples: int
    variant_gap_mean: np.ndarray | None = None
    variant_gap_stderr: np.ndarray | None = None


# floor of the Freedman-Diaconis bin width
_MIN_BIN_WIDTH = 0.05

# fewest environments ``drift_truncation_scan`` averages over
_MIN_SCAN_SAMPLES = 100


def freedman_diaconis_edges(values: np.ndarray) -> np.ndarray:
    """Histogram edges with the Freedman-Diaconis width, at least _MIN_BIN_WIDTH."""
    v = np.sort(np.asarray(values, dtype=float).ravel())
    if v.size < 2:
        raise ValueError("need at least two values to bin")
    q75, q25 = np.quantile(v, 0.75), np.quantile(v, 0.25)
    width = max(2.0 * (q75 - q25) / v.size ** (1.0 / 3.0), _MIN_BIN_WIDTH)
    lo, hi = v[0], v[-1]
    n_bins = max(1, int(math.ceil((hi - lo) / width)))
    return lo + width * np.arange(n_bins + 1)


def _check_bins(bins) -> np.ndarray:
    """``bins`` as an array of at least two finite, strictly increasing edges."""
    edges = np.asarray(bins, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.isfinite(edges).all() or not (np.diff(edges) > 0).all():
        raise ValueError("bins must be at least two finite, strictly increasing edges")
    return edges


def _sample_points(samples) -> list[np.ndarray]:
    """At least one sample, each a configuration (``core._checked_block``)
    named by its index, all of the first one's dimension."""
    pts: list[np.ndarray] = []
    for k, s in enumerate(samples):
        pts.append(_checked_block(s, f"sample {k}", dim=pts[0].shape[1] if pts else None))
    if not pts:
        raise ValueError("need at least one sample")
    return pts


def _check_window(window: float | None, dim: int, order: int) -> None:
    """Planar order-2 estimates need a window, finite and > 0; no other estimate reads one."""
    if (dim, order) != (2, 2):
        if window is not None:
            raise ValueError("window applies to planar order-2 estimates only")
    elif window is None:
        raise ValueError("planar order-2 estimates need a window radius")
    else:
        _checked_number("window", window, above=0)


def estimate_rho(samples, order: int, bins=None, *, window: float | None = None) -> CorrelationEstimate:
    """Binned correlation estimate of order 1 or 2.

    1d families: order 1 bins positions, order 2 bins ordered pairs of
    unequal values on the (x, y) product grid (density is then a matrix),
    counted from each sample's 1d histogram.  Planar samples:
    order 1 bins |x| into annuli, order 2 bins the separations from
    points inside the disk of radius ``window`` (required there) to
    every other point.  ``bins=None`` picks Freedman-Diaconis edges
    from the pooled data; given edges must be at least two, finite and
    strictly increasing, and the window finite and > 0; any other
    estimate refuses a window.
    """
    if bins is not None:
        bins = _check_bins(bins)
    pts = _sample_points(samples)
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    dim = pts[0].shape[1]
    if dim not in (1, 2):
        raise ValueError("estimators cover 1d and planar samples")
    _check_window(window, dim, order)
    n_samples = len(pts)

    if dim == 1:
        values = [p[:, 0] for p in pts]
    elif order == 1:
        values = [np.sqrt(np.sum(p * p, axis=1)) for p in pts]
    else:
        # window the first point only; clipping the partner too would
        # undercount large separations near the window boundary
        values = []
        for p in pts:
            d = p[np.sqrt(np.sum(p * p, axis=1)) <= window][:, None, :] - p[None, :, :]
            sep = np.sqrt(np.sum(d * d, axis=2))
            values.append(sep[sep > 0.0])
    if bins is None:
        bins = freedman_diaconis_edges(np.concatenate(values))
    hist = np.array([np.histogram(v, bins)[0] for v in values], dtype=float)
    widths = np.diff(bins)
    if dim == 1 and order == 2:
        # ordered pairs of unequal values: the product of each sample's
        # histogram with itself, less the c^2 pairs of every value that
        # occurs c times, which sit on the diagonal; all counts are
        # integers, so the float sums are exact in any order
        same = np.empty_like(hist)
        for s, v in enumerate(values):
            uniq, mult = np.unique(v, return_counts=True)
            same[s] = np.histogram(uniq, bins, weights=mult * mult)[0]
        counts = hist.T @ hist
        counts[np.diag_indices_from(counts)] -= same.sum(axis=0)
        # the sum over samples of each sample's squared pair counts
        squares = hist * hist
        sq = squares.T @ squares
        sq[np.diag_indices_from(sq)] = np.sum((squares - same) ** 2, axis=0)
        vol = widths[:, None] * widths[None, :]
    else:
        counts, sq = hist.sum(axis=0), np.sum(hist * hist, axis=0)
        vol = widths if dim == 1 else math.pi * np.diff(bins**2)
        if order == 2:
            vol = (math.pi * window**2) * vol

    density = counts / (n_samples * vol)
    # across-sample standard error: the sample deviation of the per-sample
    # counts over sqrt(S), per unit volume; one sample gives no spread
    var = np.maximum(sq - counts * counts / n_samples, 0.0) / (n_samples - 1) if n_samples > 1 else np.nan
    stderr = np.sqrt(var / n_samples) / vol
    return CorrelationEstimate(
        bins=bins, counts=counts, density=density, n_samples=n_samples, stderr=stderr, order=order
    )


def drift_truncation_scan(env_samples, spec: ModelSpec, x, r_list) -> TruncationScan:
    """Ensemble mean and standard error of the truncated drift at x.

    For the planar family each environment is evaluated in both window
    variants; ``mean`` follows the centered one and the variant gap
    |centered - origin| is reported alongside.  An environment with a
    point closer than ``MIN_PAIR_SEPARATION`` to x raises, naming its sample.
    """
    envs = [_configuration(spec, env, f"sample {k}") for k, env in enumerate(env_samples)]
    if len(envs) < _MIN_SCAN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SCAN_SAMPLES} environment samples")
    r_values = np.array([_checked_number(f"r_list[{k}]", r, above=0) for k, r in enumerate(r_list)], dtype=float)
    if r_values.size == 0:
        raise ValueError("r_list must contain at least one radius")
    planar = spec.family is Family.GINIBRE
    variants = (TruncationVariant.CENTERED, TruncationVariant.ORIGIN) if planar else (None,)
    # every radius is validated before any environment is evaluated
    params = [[TruncationParams(r, v) for v in variants] for r in r_values]
    vals = np.empty((r_values.size, len(variants), len(envs), spec.dimension))
    try:
        for k, per_radius in enumerate(params):
            for v, trunc in enumerate(per_radius):
                for j, env in enumerate(envs):
                    vals[k, v, j] = truncated_drift_at(spec, x, env, trunc)
    except SingularConfigurationError as exc:
        raise SingularConfigurationError(f"sample {j}: {exc}") from None
    gaps = np.sqrt(np.sum((vals[:, 0] - vals[:, 1]) ** 2, axis=-1)) if planar else None
    root = math.sqrt(len(envs))
    return TruncationScan(
        r_values=r_values,
        mean=vals[:, 0].mean(axis=1),
        stderr=vals[:, 0].std(axis=1, ddof=1) / root,
        n_samples=len(envs),
        variant_gap_mean=gaps.mean(axis=1) if planar else None,
        variant_gap_stderr=gaps.std(axis=1, ddof=1) / root if planar else None,
    )


def erf_tail_sum(samples, params: TightnessParams, L_list) -> np.ndarray:
    """Average over samples of sum_{i > L} Erf((|s_i| - r) / (sqrt(c) T)).

    Labels are modulus-ascending, so the sum collects the high-label
    (far) particles; it is nonincreasing in L.  Indices beyond a sample's
    particle count contribute nothing.  Each cutoff must be an integer
    >= 0 (``2.0`` reads as 2; ``1.7`` is refused, naming ``L_list[k]``).
    """
    pts = _sample_points(samples)
    cuts = [_checked_number(f"L_list[{k}]", c, at_least=0, whole=True) for k, c in enumerate(L_list)]
    # a cut past every sample's count acts as that count, however large
    top = max(len(p) for p in pts)
    ls = np.array([min(c, top) for c in cuts], dtype=int)
    denom = math.sqrt(params.c) * params.T
    totals = np.zeros(ls.size)
    for p in pts:
        moduli = np.sort(np.sqrt(np.sum(p * p, axis=1)))
        terms = erf_fn((moduli - params.r) / denom)
        suffix = np.concatenate([np.cumsum(terms[::-1])[::-1], [0.0]])
        totals += suffix[np.minimum(ls, len(terms))]
    return totals / len(pts)


def _lag_steps(lag_list, step: float, n_times: int) -> list[int]:
    """Index on the recording grid of each lag, for ``n_times`` recorded
    states ``step`` apart.  Raises ValueError unless every lag is finite,
    on the grid and within the horizon (n_times - 1) * step, naming a lag
    that is not a finite number by its index."""
    steps = []
    for j, lag in enumerate(lag_list):
        k = _whole_steps(float(_checked_number(f"lag_list[{j}]", lag)), step)
        if k is None or not 0 <= k < n_times:
            raise ValueError(f"lag {lag} is not on the recording grid within [0, {(n_times - 1) * step:g}]")
        steps.append(k)
    return steps


def holder_moment(ensemble, lag_list) -> np.ndarray:
    """Empirical fourth moment of increments per lag.

    Averages |X(t+lag) - X(t)|^4 over paths, particles and every recorded
    pair at that lag, for lags on the recording grid within the horizon.
    """
    times, states = ensemble.times, ensemble.states
    if len(times) < 2:
        raise ValueError("ensemble has no increments")
    steps = _lag_steps(lag_list, times[1] - times[0], len(times))
    out = np.empty(len(steps))
    for idx, k in enumerate(steps):
        diff = states[:, k:, :, :] - states[:, : len(times) - k, :, :]
        out[idx] = float(np.mean(np.sum(diff * diff, axis=3) ** 2))
    return out


def log_log_slope(x, y) -> float:
    """Least-squares slope of log y against log x, all finite and > 0."""
    lx, ly = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if lx.size < 2:
        raise ValueError("need at least two points")
    if not (np.all((lx > 0) & (lx < np.inf)) and np.all((ly > 0) & (ly < np.inf))):
        raise ValueError("x and y must be finite and > 0")
    lx, ly = np.log(lx), np.log(ly)
    design = np.column_stack([lx, np.ones_like(lx)])
    return float(np.linalg.lstsq(design, ly, rcond=None)[0][0])
