"""Drift fields, truncations and log-derivative splits from one interaction table.

Every field here comes from one identity.  The logarithmic derivative of
the equilibrium density at x_i is

    d_i = u(x_i) + sum_j g(x_i, x_j),

with a one-body term u and a pair term g, and the SDE drift is

    b = (1/2)(grad a + a * d),

where a = sigma^2 is the diffusion coefficient (1, or 4x for the squared
process).  ``_one_body`` and ``_pair_terms`` hold u and g of each family,
and ``_drift_of`` holds b; every public function reads them:

* the finite-n drift sums g over all other particles, and u keeps the
  n-dependent confinement;
* the truncated limit drift sums g over a window only -- |y| < r for the
  1d families and the origin-variant planar field, |x - y| < r for the
  centered planar field and the translation-invariant 3d families -- and
  u drops the n-dependent confinement; the soft-edge family puts the
  closed-form compensator 2*sqrt(r) of the truncated semicircle tail in
  its place, and the centered planar window drops the Gaussian term too;
* the log derivative at a point splits the pair sum with a C^1 cutoff
  into near + far, so that d = free + near + far and the drift follows
  from the identity above;
* ``_energy_change`` is the other side of d: the change of -log(density)
  when one particle moves, which the Metropolis chain of ``sampling``
  reads for the two families with no exact matrix model, ``lennard_jones``
  and ``riesz``.

Everything operates on plain float64 arrays; points of shape (n, d).
``drift_finite_all`` and ``drift_limit_truncated_all`` also take a stack
of states of shape (P, n, d) and return the stacked per-state drifts,
bitwise equal to P separate calls; both can also hand back the smallest
pair distance of each state, which the integrator's substep rule reads.
Pairs closer than ``MIN_PAIR_SEPARATION`` raise
``SingularConfigurationError`` (inside the window or not); nonpositive
coordinates of the [0, inf) families raise ``DomainError``; in a stack,
one such member makes the whole call raise.  The point and environment of
``truncated_drift_at`` and ``log_derivative`` are checked configurations
(``core._checked_block``); the stacked drifts check the dimension only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, Family, ModelSpec, SingularConfigurationError, _checked_number, _checked_block, _points_of

__all__ = [
    "MIN_PAIR_SEPARATION",
    "TruncationVariant",
    "TruncationParams",
    "LogDerivDecomposition",
    "diffusion_sigma",
    "drift_finite_all",
    "drift_limit_truncated_all",
    "truncated_drift_at",
    "cutoff_chi",
    "log_derivative",
]

MIN_PAIR_SEPARATION = 1e-12


class TruncationVariant(str, enum.Enum):
    CENTERED = "centered"
    ORIGIN = "origin"


@dataclass(frozen=True)
class TruncationParams:
    """Truncation radius and (planar only) window variant.

    The cutoff scale of the near/far split is an argument of
    ``log_derivative``, not a truncation parameter.
    """

    radius: float
    variant: TruncationVariant | None = None

    def __post_init__(self) -> None:
        _checked_number("truncation radius", self.radius, above=0)
        if self.variant is not None:
            object.__setattr__(self, "variant", TruncationVariant(self.variant))


@dataclass(frozen=True)
class LogDerivDecomposition:
    """Split d = free + near + far of a logarithmic derivative at a point."""

    free: np.ndarray
    near: np.ndarray
    far: np.ndarray


def _state_noise(spec: ModelSpec) -> bool:
    """Whether the noise coefficient depends on the state: sigma = 2*sqrt(x)
    for the squared process, 1 for every other family."""
    return spec.family is Family.SQUARE_BESSEL


def diffusion_sigma(spec: ModelSpec, points: np.ndarray) -> np.ndarray:
    """Noise coefficient per coordinate: 1, or 2*sqrt(x) for the squared process."""
    if _state_noise(spec):
        return 2.0 * np.sqrt(np.maximum(points, 0.0))
    return np.ones_like(points)


# ---------------------------------------------------------------------------
# the interaction table
# ---------------------------------------------------------------------------
#
# Positions enter the table as (..., m) arrays for the 1d families, without
# a trailing coordinate axis, and as (..., m, d) arrays otherwise: the 1d
# drifts are the hot path of the integrator, and (..., n, n, 1) pair arrays
# make them markedly slower than (..., n, n) ones.


def _pair_terms(spec: ModelSpec, x: np.ndarray, y: np.ndarray, self_pairs: bool):
    """Pair term g(x_i, y_j) for the points x (..., m, d) and y (..., k, d).

    Returns g, (..., m, k) for the 1d families and (..., m, k, d)
    otherwise, the distances |x_i - y_j| (..., m, k), and the smallest
    distance of each state (...,), +inf where there is no pair.  With
    ``self_pairs`` x and y are the same points: the distance is +inf on
    the diagonal, where every g below is then 0.  Raises
    ``SingularConfigurationError`` if any pair is closer than
    ``MIN_PAIR_SEPARATION``, checked per state of a stack so that a NaN
    in one member hides nothing in another.
    """
    # the pair arrays are made in C order, so that their flat reshape below
    # is a view whatever the layout of x and y; every (m + 1)-th entry of
    # it lies on the diagonal
    if spec.dimension == 1:
        x, y = x[..., 0], y[..., 0]
        diff = np.subtract(x[..., :, None], y[..., None, :], order="C")
        if self_pairs:
            diff.reshape(diff.shape[:-2] + (-1,))[..., :: x.shape[-1] + 1] = np.inf
        dist = np.abs(diff)
    else:
        diff = x[..., :, None, :] - y[..., None, :, :]
        dist = np.sqrt(np.sum(diff**2, axis=-1), order="C")
        if self_pairs:
            dist.reshape(dist.shape[:-2] + (-1,))[..., :: x.shape[-2] + 1] = np.inf
    sep = dist.min(axis=(-2, -1), initial=np.inf)
    if (sep < MIN_PAIR_SEPARATION).any():
        raise SingularConfigurationError(
            f"pair separation below {MIN_PAIR_SEPARATION:g}; configuration is singular"
        )
    # g is written over diff: for a large stack, one pair array fewer to allocate
    fam = spec.family
    if fam is Family.AIRY:
        np.divide(spec.beta, diff, out=diff)
    elif fam in (Family.BESSEL, Family.SQUARE_BESSEL):
        np.divide(2.0, diff, out=diff)
    elif fam is Family.SQRT_SQUARE_BESSEL:
        diff *= x[..., :, None] + y[..., None, :]
        np.divide(4.0 * x[..., :, None], diff, out=diff)
    elif fam is Family.GINIBRE:
        diff *= (2.0 / dist**2)[..., None]
    else:
        if fam is Family.LENNARD_JONES:
            w = 12.0 / dist**14 - 6.0 / dist**8
        else:  # Riesz
            w = 1.0 / dist ** (spec.riesz_a + 2.0)
        diff *= (spec.beta * w)[..., None]
    return diff, dist, sep


def _one_body(spec: ModelSpec, x: np.ndarray, trunc: TruncationParams | None):
    """One-body term u at positions x, elementwise; 0.0 where it vanishes.

    ``trunc`` None gives the finite-n term, with its n-dependent
    confinement; otherwise the term of the truncated limit field.
    """
    fam = spec.family
    n = float(spec.n_particles)
    limit = trunc is not None
    if fam is Family.AIRY:
        if limit:
            # the compensator of the truncated semicircle tail: the edge
            # profile sqrt(-y) on (-r, 0) against the kernel 1/(-y) gives
            # int_0^r s^(-1/2) ds = 2 sqrt(r).  The finite drift and the
            # field have density sqrt(-y)/pi, so this profile's coordinates
            # are not theirs: check 7 rescales by pi^(-2/3) (ROADMAP item 3)
            return -spec.beta * (2.0 * math.sqrt(trunc.radius))
        n13 = n ** (1.0 / 3.0)
        return -spec.beta * (n13 + x / (2.0 * n13))
    if fam is Family.GINIBRE:
        return 0.0 if limit and trunc.variant is TruncationVariant.CENTERED else -2.0 * x
    if fam in (Family.BESSEL, Family.SQUARE_BESSEL):
        return spec.alpha / x if limit else -1.0 / (4.0 * n) + spec.alpha / x
    if fam is Family.SQRT_SQUARE_BESSEL:
        return (2.0 * spec.alpha + 1.0) / x if limit else -x / (2.0 * n) + (2.0 * spec.alpha + 1.0) / x
    # translation-invariant 3d families with confining potential c|x|^2/n^theta
    return 0.0 if limit else -(2.0 * spec.beta * spec.free_c / n**spec.free_theta) * x


def _energy_change(spec: ModelSpec):
    """``delta(x, i, v)``: the change of -log(density) when particle i of x
    (shape (n, 3)) moves to v; at v = x_i its gradient is -d_i.

    The density is exp(-beta sum c|x|^2/n^theta - beta sum_{i<j} Psi), with
    Psi = r^-12 - r^-6 (``lennard_jones``) or r^-a / a (``riesz``), the two
    families with no exact matrix model.
    """
    fam = spec.family
    n = spec.n_particles
    if fam not in (Family.LENNARD_JONES, Family.RIESZ):
        raise ValueError(f"family {fam.value} has no Metropolis energy (lennard_jones or riesz)")
    beta = spec.beta
    confinement = beta * (spec.free_c / n**spec.free_theta)
    lj = fam is Family.LENNARD_JONES
    a = spec.riesz_a

    def pair_sum(x: np.ndarray, i: int, pos: np.ndarray) -> float:
        d = x - pos
        d[i] = np.inf
        r2 = np.sum(d * d, axis=1)
        if lj:
            inv6 = 1.0 / r2**3
            vals = inv6 * inv6 - inv6
        else:
            vals = r2 ** (-a / 2.0) / a
        vals[i] = 0.0
        return float(np.sum(vals))

    def delta(x: np.ndarray, i: int, v: np.ndarray) -> float:
        old = x[i]
        de = confinement * (float(v @ v) - float(old @ old))
        if n > 1:
            de += beta * (pair_sum(x, i, v) - pair_sum(x, i, old))
        return de

    return delta


def _drift_of(spec: ModelSpec, x: np.ndarray, d) -> np.ndarray:
    """b = (1/2)(grad a + a * d): d / 2 where a = 1, and (1/2)(4 + 4x d)
    where a = 4x (the squared process)."""
    if not _state_noise(spec):
        return 0.5 * d
    return 0.5 * (4.0 + 4.0 * x * d)


def _field(spec: ModelSpec, x: np.ndarray, y: np.ndarray, trunc: TruncationParams | None, self_pairs: bool):
    """Drift at the points x (..., m, d) from the points y (..., k, d), and
    the smallest pair distance of each state (...,).

    With ``trunc`` the pair sum keeps only the y in its window and u is
    the limit field's.
    """
    g, dist, sep = _pair_terms(spec, x, y, self_pairs)
    line = spec.dimension == 1
    if line:
        x, y = x[..., 0], y[..., 0]
    if trunc is not None:
        if line or trunc.variant is TruncationVariant.ORIGIN:
            modulus = np.abs(y) if line else np.sqrt(np.sum(y**2, axis=-1))
            inside = (modulus < trunc.radius)[..., None, :]
        else:
            inside = dist < trunc.radius
        g = np.where(inside if line else inside[..., None], g, 0.0)
    b = _drift_of(spec, x, _one_body(spec, x, trunc) + g.sum(axis=-1 if line else -2))
    return (b[..., None] if line else b), sep


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def _points(spec: ModelSpec, state) -> np.ndarray:
    """``state`` as points of ``spec``'s dimension; a 1-D array is n points on the line."""
    arr = _points_of(state)
    if arr.shape[-1] != spec.dimension:
        raise ValueError(f"state dimension {arr.shape[-1]} != family dimension {spec.dimension}")
    return arr


def _check_domain(spec: ModelSpec, arr: np.ndarray, name: str | None = None) -> None:
    # per state of a stack, so that a NaN in one member hides nothing in another
    if spec.nonnegative_domain and arr.size and (arr.min(axis=(-2, -1)) <= 0.0).any():
        where = f"{name}: " if name else ""
        raise DomainError(f"{where}family {spec.family.value} requires strictly positive coordinates")


def _configuration(spec: ModelSpec, points, name: str, n: int | None = None) -> np.ndarray:
    """``points`` as one configuration of ``spec`` (``core._checked_block``)
    inside its domain; errors name ``name``."""
    arr = _checked_block(points, name, dim=spec.dimension, n=n)
    _check_domain(spec, arr, name)
    return arr


def _position(spec: ModelSpec, x) -> np.ndarray:
    """The point ``x``, a d-vector (or a scalar on the line), as a (1, d) configuration."""
    return _configuration(spec, np.atleast_1d(np.asarray(x, dtype=float))[None, :], "x", n=1)


def _env_of(spec: ModelSpec, env) -> np.ndarray:
    """The environment ``env`` as a configuration; None or empty is no point."""
    return np.zeros((0, spec.dimension)) if env is None or not len(env) else _configuration(spec, env, "env")


def _validate_trunc(spec: ModelSpec, trunc: TruncationParams) -> None:
    if spec.family is Family.GINIBRE and trunc.variant is None:
        raise ValueError("planar truncation needs a variant (centered or origin)")
    if spec.family is not Family.GINIBRE and trunc.variant is not None:
        raise ValueError("truncation variants apply to the planar family only")


# ---------------------------------------------------------------------------
# finite-n and truncated limit drifts
# ---------------------------------------------------------------------------


def drift_finite_all(spec: ModelSpec, state, *, separation: np.ndarray | None = None) -> np.ndarray:
    """Finite-n SDE drift for every particle; shape (n, d), or (P, n, d)
    for a stack of P states.

    ``separation``, shape () or (P,), receives the smallest pair distance
    of each state (+inf below two particles).
    """
    arr = _points(spec, state)
    _check_domain(spec, arr)
    if arr.shape[-2] != spec.n_particles:
        raise ValueError(f"state has {arr.shape[-2]} particles, spec expects {spec.n_particles}")
    b, sep = _field(spec, arr, arr, None, self_pairs=True)
    if separation is not None:
        separation[...] = sep
    return b


def truncated_drift_at(spec: ModelSpec, x, env, trunc: TruncationParams) -> np.ndarray:
    """Truncated limit drift felt at position ``x`` from environment ``env``.

    ``x`` is a d-vector (or scalar for 1d); ``env`` contains the other
    particles.  The window is |y| < r for the 1d families and the planar
    origin variant, |x - y| < r for the planar centered variant and the 3d
    families.  ``drift_limit_truncated_all(spec, state, trunc)[i]`` is the
    same drift at particle i with the other particles as ``env``.
    """
    _validate_trunc(spec, trunc)
    b, _ = _field(spec, _position(spec, x), _env_of(spec, env), trunc, self_pairs=False)
    return b[0]


def drift_limit_truncated_all(
    spec: ModelSpec, state, trunc: TruncationParams, *, separation: np.ndarray | None = None
) -> np.ndarray:
    """Truncated limit drift of every particle; shape (n, d), or (P, n, d)
    for a stack of P states.  ``separation`` is as in ``drift_finite_all``."""
    _validate_trunc(spec, trunc)
    arr = _points(spec, state)
    _check_domain(spec, arr)
    b, sep = _field(spec, arr, arr, trunc, self_pairs=True)
    if separation is not None:
        separation[...] = sep
    return b


# ---------------------------------------------------------------------------
# cutoff and log-derivative decomposition
# ---------------------------------------------------------------------------


def cutoff_chi(t, s: float):
    """C^1 plateau cutoff: 1 on |t| <= s, 0 on |t| >= s+1, cubic in between.

    ``t`` is a displacement modulus (scalar or array); callers with vector
    displacements pass the Euclidean norm.
    """
    _checked_number("cutoff scale", s, above=0)
    mod = np.abs(np.asarray(t, dtype=float))
    u = np.clip(mod - s, 0.0, 1.0)
    val = 1.0 - (3.0 * u**2 - 2.0 * u**3)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(val)
    return val


def log_derivative(spec: ModelSpec, x, env, s: float) -> LogDerivDecomposition:
    """Logarithmic derivative at ``x`` given environment ``env``, split by
    the cutoff scale ``s`` into free + near (within the plateau) + far.

    The split is exact: near + far sums every pair term with weights
    chi_s and 1 - chi_s which add to one, so the total is independent
    of ``s`` up to rounding.
    """
    xv = _position(spec, x)
    free = _one_body(spec, xv[0], None)
    g, dist, _ = _pair_terms(spec, xv, _env_of(spec, env), self_pairs=False)
    g = g[0].reshape(-1, spec.dimension)
    w = cutoff_chi(dist[0], s)[:, None]
    return LogDerivDecomposition(free=free, near=(w * g).sum(axis=0), far=((1.0 - w) * g).sum(axis=0))

