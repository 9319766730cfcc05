"""Drift fields, truncations and log-derivative decompositions.

For each family this module knows three things:

* the finite-n drift of the interacting SDE system,
* the truncated limit drift, where interaction terms are restricted to a
  window (modulus window around the origin for the 1d families and the
  origin-variant planar field, distance window for the centered planar
  field and the translation-invariant 3d families) plus, for the soft-edge
  family, the closed-form compensator 2*sqrt(r) of the truncated
  semicircle tail,
* the logarithmic derivative of the equilibrium density, split as
  free + near + far with a C^1 polynomial cutoff, from which the drift is
  reconstructed exactly via b = (1/2)(grad a + a * d).

Everything operates on plain float64 arrays; points of shape (n, d).
``drift_finite_all`` and ``drift_limit_truncated_all`` also take a stack
of states of shape (P, n, d) and return the stacked per-state drifts,
bitwise equal to P separate calls.  Pairs closer than
``MIN_PAIR_SEPARATION`` raise ``SingularConfigurationError``; nonpositive
coordinates of the [0, inf) families raise ``DomainError``; in a stack,
one such member makes the whole call raise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Configuration,
    DomainError,
    Family,
    ModelSpec,
    SingularConfigurationError,
)

__all__ = [
    "MIN_PAIR_SEPARATION",
    "TruncationVariant",
    "TruncationParams",
    "LogDerivDecomposition",
    "DiffusionKind",
    "diffusion_kind",
    "diffusion_sigma",
    "diffusion_coefficient_a",
    "diffusion_grad_a",
    "drift_finite",
    "drift_finite_all",
    "drift_limit_truncated",
    "drift_limit_truncated_all",
    "truncated_drift_at",
    "airy_tail_integral",
    "cutoff_chi",
    "pair_interaction",
    "free_log_derivative",
    "log_derivative",
    "reconstruct_drift",
]

MIN_PAIR_SEPARATION = 1e-12


class TruncationVariant(str, enum.Enum):
    CENTERED = "centered"
    ORIGIN = "origin"


@dataclass(frozen=True)
class TruncationParams:
    """Truncation radius, cutoff scale, and (planar only) window variant."""

    radius: float
    cutoff: float = 2.0
    variant: TruncationVariant | None = None

    def __post_init__(self) -> None:
        if not (self.radius > 0):
            raise ValueError("truncation radius must be > 0")
        if not (self.cutoff > 0):
            raise ValueError("cutoff scale must be > 0")
        if self.variant is not None:
            object.__setattr__(self, "variant", TruncationVariant(self.variant))


@dataclass(frozen=True)
class LogDerivDecomposition:
    """Split d = free + near + far of a logarithmic derivative at a point."""

    free: np.ndarray
    near: np.ndarray
    far: np.ndarray

    def total(self) -> np.ndarray:
        return self.free + self.near + self.far


class DiffusionKind(str, enum.Enum):
    IDENTITY = "identity"
    SQUARE_BESSEL_4X = "square_bessel_4x"


def diffusion_kind(spec: ModelSpec) -> DiffusionKind:
    if spec.family is Family.SQUARE_BESSEL:
        return DiffusionKind.SQUARE_BESSEL_4X
    return DiffusionKind.IDENTITY


def diffusion_sigma(spec: ModelSpec, points: np.ndarray) -> np.ndarray:
    """Noise coefficient per coordinate: 1, or 2*sqrt(x) for the squared process."""
    if diffusion_kind(spec) is DiffusionKind.SQUARE_BESSEL_4X:
        return 2.0 * np.sqrt(np.maximum(points, 0.0))
    return np.ones_like(points)


def diffusion_coefficient_a(spec: ModelSpec, points: np.ndarray) -> np.ndarray:
    """a = sigma^2: 1, or 4x for the squared process."""
    if diffusion_kind(spec) is DiffusionKind.SQUARE_BESSEL_4X:
        return 4.0 * np.asarray(points, dtype=float)
    return np.ones_like(np.asarray(points, dtype=float))


def diffusion_grad_a(spec: ModelSpec, points: np.ndarray) -> np.ndarray:
    if diffusion_kind(spec) is DiffusionKind.SQUARE_BESSEL_4X:
        return np.full_like(np.asarray(points, dtype=float), 4.0)
    return np.zeros_like(np.asarray(points, dtype=float))


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------


def _points_of(state) -> np.ndarray:
    pts = getattr(state, "points", state)
    arr = np.asarray(pts, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


def _check_domain(spec: ModelSpec, arr: np.ndarray) -> None:
    # per state of a stack, so that a NaN in one member hides nothing in another
    if spec.nonnegative_domain and arr.size and np.any(np.min(arr, axis=(-2, -1)) <= 0.0):
        raise DomainError(f"family {spec.family.value} requires strictly positive coordinates")


def _check_separation(dist: np.ndarray) -> None:
    if dist.size and np.any(np.min(dist, axis=(-2, -1)) < MIN_PAIR_SEPARATION):
        raise SingularConfigurationError(
            f"pair separation below {MIN_PAIR_SEPARATION:g}; configuration is singular"
        )


def _pair_geometry(arr: np.ndarray):
    """Difference tensor (..., n, n, d) and distance matrix with +inf diagonal."""
    diff = arr[..., :, None, :] - arr[..., None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=-1))
    diag = np.arange(arr.shape[-2])
    dist[..., diag, diag] = np.inf
    _check_separation(dist)
    return diff, dist


def _line_differences(x: np.ndarray) -> np.ndarray:
    """x_i - x_j (..., n, n) for 1d positions x (..., n), +inf on the diagonal.

    The separation check uses |x_i - x_j|, which equals the Euclidean
    distance sqrt((x_i - x_j)**2) wherever the check can go either way.
    Off the diagonal no difference is 0 once the check has passed, so
    1 / (x_i - x_j) needs no guard and is 0 on the diagonal.
    """
    d = x[..., :, None] - x[..., None, :]
    diag = np.arange(x.shape[-1])
    d[..., diag, diag] = np.inf
    _check_separation(np.abs(d))
    return d


def _validate_trunc(spec: ModelSpec, trunc: TruncationParams) -> TruncationVariant | None:
    if spec.family is Family.GINIBRE:
        if trunc.variant is None:
            raise ValueError("planar truncation needs a variant (centered or origin)")
        return trunc.variant
    if trunc.variant is not None:
        raise ValueError("truncation variants apply to the planar family only")
    return None


# ---------------------------------------------------------------------------
# finite-n drifts
# ---------------------------------------------------------------------------


def drift_finite_all(spec: ModelSpec, state) -> np.ndarray:
    """Finite-n SDE drift for every particle; shape (n, d), or (P, n, d)
    for a stack of P states."""
    arr = _points_of(state)
    if arr.shape[-1] != spec.dimension:
        raise ValueError(f"state dimension {arr.shape[-1]} != family dimension {spec.dimension}")
    _check_domain(spec, arr)
    n = spec.n_particles
    if arr.shape[-2] != n:
        raise ValueError(f"state has {arr.shape[-2]} particles, spec expects {n}")
    beta = spec.beta
    fam = spec.family

    if fam is Family.AIRY:
        x = arr[..., 0]
        s = (1.0 / _line_differences(x)).sum(axis=-1)
        n13 = float(n) ** (1.0 / 3.0)
        b = 0.5 * beta * (s - n13 - x / (2.0 * n13))
        return b[..., None]

    if fam is Family.GINIBRE:
        diff, dist = _pair_geometry(arr)
        w = np.where(np.isinf(dist), 0.0, 1.0 / np.where(np.isinf(dist), 1.0, dist**2))
        inter = np.sum(diff * w[..., None], axis=-2)
        return -arr + inter

    if fam is Family.BESSEL:
        x = arr[..., 0]
        s = (1.0 / _line_differences(x)).sum(axis=-1)
        b = -1.0 / (8.0 * n) + spec.alpha / (2.0 * x) + s
        return b[..., None]

    if fam is Family.SQUARE_BESSEL:
        x = arr[..., 0]
        s = (x[..., :, None] / _line_differences(x)).sum(axis=-1)
        b = 4.0 * (-x / (8.0 * n) + 0.5 * (spec.alpha + 1.0) + s)
        return b[..., None]

    if fam is Family.SQRT_SQUARE_BESSEL:
        x = arr[..., 0]
        denom = _line_differences(x) * (x[..., :, None] + x[..., None, :])
        # the product can underflow to 0 for positions near the edge
        s = (2.0 * x[..., :, None] / np.where(denom == 0, np.inf, denom)).sum(axis=-1)
        b = -x / (4.0 * n) + (spec.alpha + 0.5) / x + s
        return b[..., None]

    # translation-invariant 3d families with confining potential c|x|^2/n^theta
    diff, dist = _pair_geometry(arr)
    free = -(beta * spec.free_c / float(n) ** spec.free_theta) * arr
    if fam is Family.LENNARD_JONES:
        w = 12.0 / dist**14 - 6.0 / dist**8
    else:  # Riesz
        w = 1.0 / dist ** (spec.riesz_a + 2.0)
    w = np.where(np.isinf(dist), 0.0, w)
    inter = 0.5 * beta * np.sum(diff * w[..., None], axis=-2)
    return free + inter


def drift_finite(spec: ModelSpec, i: int, state) -> np.ndarray:
    """Finite-n drift of particle ``i`` (0-based index into the state)."""
    return drift_finite_all(spec, state)[i]


# ---------------------------------------------------------------------------
# truncated limit drifts
# ---------------------------------------------------------------------------


def airy_tail_integral(r: float) -> float:
    """Window integral of the edge intensity against the interaction kernel.

    For the semicircle-edge profile sqrt(-x) on (-inf, 0) restricted to
    |x| < r the integral against 1/(-x) evaluates in closed form to
    2*sqrt(r); the truncated soft-edge drift subtracts this compensator.
    """
    if not (r > 0):
        raise ValueError("radius must be > 0")
    return 2.0 * math.sqrt(r)


def truncated_drift_at(spec: ModelSpec, x, env, trunc: TruncationParams) -> np.ndarray:
    """Truncated limit drift felt at position ``x`` from environment ``env``.

    ``x`` is a d-vector (or scalar for 1d); ``env`` contains the other
    particles.  The window is |y| < r for the 1d families and the planar
    origin variant, |x - y| < r for the planar centered variant and the 3d
    families.  The particle-indexed form is ``drift_limit_truncated``.
    """
    variant = _validate_trunc(spec, trunc)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    env_arr = _points_of(env) if (env is not None and len(_points_of(env))) else np.zeros((0, spec.dimension))
    if xv.shape != (spec.dimension,):
        raise ValueError(f"position must be a {spec.dimension}-vector")
    r = trunc.radius
    beta = spec.beta
    fam = spec.family

    if spec.nonnegative_domain:
        if np.min(xv) <= 0 or (env_arr.size and np.min(env_arr) <= 0):
            raise DomainError("positive coordinates required")

    if fam is Family.AIRY:
        y = env_arr[:, 0] if env_arr.size else np.zeros(0)
        sel = y[np.abs(y) < r]
        d = xv[0] - sel
        if d.size and np.min(np.abs(d)) < MIN_PAIR_SEPARATION:
            raise SingularConfigurationError("test position coincides with an environment point")
        s = math.fsum(1.0 / v for v in d)
        return np.array([0.5 * beta * (s - airy_tail_integral(r))])

    if fam is Family.GINIBRE:
        diff = xv[None, :] - env_arr
        dist = np.sqrt(np.sum(diff**2, axis=1)) if env_arr.size else np.zeros(0)
        if dist.size and np.min(dist) < MIN_PAIR_SEPARATION:
            raise SingularConfigurationError("test position coincides with an environment point")
        if variant is TruncationVariant.CENTERED:
            sel = dist < r
            contrib = diff[sel] / (dist[sel] ** 2)[:, None]
            return contrib.sum(axis=0) if contrib.size else np.zeros(2)
        sel = (np.sqrt(np.sum(env_arr**2, axis=1)) < r) if env_arr.size else np.zeros(0, dtype=bool)
        contrib = diff[sel] / (dist[sel] ** 2)[:, None]
        inter = contrib.sum(axis=0) if contrib.size else np.zeros(2)
        return -xv + inter

    if fam in (Family.BESSEL, Family.SQUARE_BESSEL, Family.SQRT_SQUARE_BESSEL):
        y = env_arr[:, 0] if env_arr.size else np.zeros(0)
        sel = y[y < r]
        x0 = xv[0]
        if fam is Family.BESSEL:
            d = x0 - sel
            if d.size and np.min(np.abs(d)) < MIN_PAIR_SEPARATION:
                raise SingularConfigurationError("test position coincides with an environment point")
            s = math.fsum(1.0 / v for v in d)
            return np.array([0.5 * spec.alpha / x0 + s])
        if fam is Family.SQUARE_BESSEL:
            d = x0 - sel
            if d.size and np.min(np.abs(d)) < MIN_PAIR_SEPARATION:
                raise SingularConfigurationError("test position coincides with an environment point")
            s = math.fsum(x0 / v for v in d)
            return np.array([4.0 * (0.5 * (spec.alpha + 1.0) + s)])
        d = (x0 - sel) * (x0 + sel)
        if d.size and np.min(np.abs(x0 - sel)) < MIN_PAIR_SEPARATION:
            raise SingularConfigurationError("test position coincides with an environment point")
        s = math.fsum(2.0 * x0 / v for v in d)
        return np.array([(spec.alpha + 0.5) / x0 + s])

    # 3d families: distance window, no free term in the limit field
    diff = xv[None, :] - env_arr
    dist = np.sqrt(np.sum(diff**2, axis=1)) if env_arr.size else np.zeros(0)
    if dist.size and np.min(dist) < MIN_PAIR_SEPARATION:
        raise SingularConfigurationError("test position coincides with an environment point")
    sel = dist < r
    diff = diff[sel]
    dist = dist[sel]
    if fam is Family.LENNARD_JONES:
        w = 12.0 / dist**14 - 6.0 / dist**8
    else:
        w = 1.0 / dist ** (spec.riesz_a + 2.0)
    inter = (diff * w[:, None]).sum(axis=0) if diff.size else np.zeros(3)
    return 0.5 * beta * inter


def drift_limit_truncated(spec: ModelSpec, i: int, state, trunc: TruncationParams) -> np.ndarray:
    """Truncated limit drift of particle ``i`` within ``state``."""
    arr = _points_of(state)
    env = np.delete(arr, i, axis=0)
    return truncated_drift_at(spec, arr[i], env, trunc)


def drift_limit_truncated_all(spec: ModelSpec, state, trunc: TruncationParams) -> np.ndarray:
    """Truncated limit drift of every particle; shape (n, d), or (P, n, d)
    for a stack of P states."""
    arr = _points_of(state)
    if arr.ndim == 3:
        return np.stack([drift_limit_truncated_all(spec, a, trunc) for a in arr])
    return np.stack([drift_limit_truncated(spec, i, arr, trunc) for i in range(arr.shape[0])])


# ---------------------------------------------------------------------------
# cutoff and log-derivative decomposition
# ---------------------------------------------------------------------------


def cutoff_chi(t, s: float):
    """C^1 plateau cutoff: 1 on |t| <= s, 0 on |t| >= s+1, cubic in between.

    ``t`` is a displacement modulus (scalar or array); callers with vector
    displacements pass the Euclidean norm.
    """
    if not (s > 0):
        raise ValueError("cutoff scale must be > 0")
    mod = np.abs(np.asarray(t, dtype=float))
    u = np.clip(mod - s, 0.0, 1.0)
    val = 1.0 - (3.0 * u**2 - 2.0 * u**3)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(val)
    return val


def pair_interaction(spec: ModelSpec, x, y) -> np.ndarray:
    """Interaction kernel g(x, y): the two-body part of the log derivative."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    diff = xv - yv
    dist = float(np.sqrt(np.sum(diff**2)))
    if dist < MIN_PAIR_SEPARATION:
        raise SingularConfigurationError("coincident pair in interaction kernel")
    fam = spec.family
    if fam is Family.AIRY:
        return np.array([spec.beta / diff[0]])
    if fam is Family.GINIBRE:
        return 2.0 * diff / dist**2
    if fam in (Family.BESSEL, Family.SQUARE_BESSEL):
        return np.array([2.0 / diff[0]])
    if fam is Family.SQRT_SQUARE_BESSEL:
        return np.array([4.0 * xv[0] / (diff[0] * (xv[0] + yv[0]))])
    if fam is Family.LENNARD_JONES:
        return spec.beta * (12.0 / dist**14 - 6.0 / dist**8) * diff
    return spec.beta * diff / dist ** (spec.riesz_a + 2.0)


def free_log_derivative(spec: ModelSpec, x) -> np.ndarray:
    """One-body part u of the log derivative of the equilibrium density."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    n = spec.n_particles
    fam = spec.family
    if fam is Family.AIRY:
        n13 = float(n) ** (1.0 / 3.0)
        return -spec.beta * (n13 + xv / (2.0 * n13))
    if fam is Family.GINIBRE:
        return -2.0 * xv
    if fam in (Family.BESSEL, Family.SQUARE_BESSEL):
        _require_positive(xv)
        return -1.0 / (4.0 * n) + spec.alpha / xv
    if fam is Family.SQRT_SQUARE_BESSEL:
        _require_positive(xv)
        return -xv / (2.0 * n) + (2.0 * spec.alpha + 1.0) / xv
    return -(2.0 * spec.beta * spec.free_c / float(n) ** spec.free_theta) * xv


def _require_positive(xv: np.ndarray) -> None:
    if np.min(xv) <= 0:
        raise DomainError("positive coordinates required")


def log_derivative(spec: ModelSpec, x, env, s: float) -> LogDerivDecomposition:
    """Logarithmic derivative at ``x`` given environment ``env``, split by
    the cutoff scale ``s`` into free + near (within the plateau) + far.

    The split is exact: near + far sums every pair term with weights
    chi_s and 1 - chi_s which add to one, so the total is independent
    of ``s`` up to rounding.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    env_arr = _points_of(env) if (env is not None and len(_points_of(env))) else np.zeros((0, spec.dimension))
    free = free_log_derivative(spec, xv)
    d = spec.dimension
    near_parts: list[list[float]] = [[] for _ in range(d)]
    far_parts: list[list[float]] = [[] for _ in range(d)]
    for y in env_arr:
        g = pair_interaction(spec, xv, y)
        w = cutoff_chi(float(np.sqrt(np.sum((xv - y) ** 2))), s)
        for k in range(d):
            near_parts[k].append(w * g[k])
            far_parts[k].append((1.0 - w) * g[k])
    near = np.array([math.fsum(p) for p in near_parts])
    far = np.array([math.fsum(p) for p in far_parts])
    return LogDerivDecomposition(free=free, near=near, far=far)


def reconstruct_drift(spec: ModelSpec, x, decomp: LogDerivDecomposition) -> np.ndarray:
    """Drift from a decomposition: b = (1/2)(grad a + a * (u + g_s + r_s))."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    a = diffusion_coefficient_a(spec, xv)
    ga = diffusion_grad_a(spec, xv)
    return 0.5 * (ga + a * decomp.total())
