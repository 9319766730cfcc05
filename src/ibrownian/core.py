"""Shared state types for interacting-particle computations.

A configuration -- a finite point multiset in R^d, d in {1, 2, 3} -- is a
plain (n, d) float array whose row i is particle i; a 1-D array is read as
n points on the line.  S configurations of one size stack to (S, n, d).
On disk a configuration is a CSV block, one row per point, columns
``x[,y[,z]]``, header mandatory.

Every stochastic routine takes an ``RngStream`` so that draws depend only on
``(seed, stream_id)`` and never on evaluation order or worker count.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Family",
    "ModelSpec",
    "RngStream",
    "SingularConfigurationError",
    "DomainError",
    "StepFailureError",
    "save_configurations",
    "load_configurations",
]


class SingularConfigurationError(ValueError):
    """Two points closer than the minimum resolvable separation."""


class DomainError(ValueError):
    """A coordinate violates the state space of the model (e.g. x <= 0)."""


class StepFailureError(RuntimeError):
    """Integrator could not complete a step within its substep budget."""


class Family(str, enum.Enum):
    """Supported particle families."""

    AIRY = "airy"
    GINIBRE = "ginibre"
    BESSEL = "bessel"
    SQUARE_BESSEL = "square_bessel"
    SQRT_SQUARE_BESSEL = "sqrt_square_bessel"
    LENNARD_JONES = "lennard_jones"
    RIESZ = "riesz"


_BESSEL_FAMILIES = frozenset(
    {Family.BESSEL, Family.SQUARE_BESSEL, Family.SQRT_SQUARE_BESSEL}
)
_FAMILY_DIMENSION = {
    Family.AIRY: 1,
    Family.GINIBRE: 2,
    Family.BESSEL: 1,
    Family.SQUARE_BESSEL: 1,
    Family.SQRT_SQUARE_BESSEL: 1,
    Family.LENNARD_JONES: 3,
    Family.RIESZ: 3,
}


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of one finite particle system.

    ``alpha`` is required for the Bessel-type families (and must be >= 1),
    ``riesz_a`` only for the Riesz family (an integer exceeding the ambient
    dimension 3).  ``free_c``/``free_theta`` parameterize the confining
    potential c*|x|^2 / n^theta used by the Lennard-Jones and Riesz systems.
    ``beta`` must be positive; matrix-kernel validation additionally needs
    beta in {1, 2, 4}; the Ginibre and the three Bessel families are beta = 2.
    """

    family: Family
    n_particles: int
    beta: float = 2.0
    alpha: float | None = None
    riesz_a: int | None = None
    free_c: float = 0.5
    free_theta: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if not (self.beta > 0):
            raise ValueError("beta must be > 0")
        if (self.family is Family.GINIBRE or self.family in _BESSEL_FAMILIES) and self.beta != 2:
            raise ValueError(f"the {self.family.value} system is defined for beta = 2 only")
        if self.family in _BESSEL_FAMILIES:
            if self.alpha is None:
                raise ValueError(f"alpha is required for family {self.family.value}")
            if not (self.alpha >= 1):
                raise ValueError("alpha must be >= 1")
        elif self.alpha is not None:
            raise ValueError(f"alpha is not a parameter of family {self.family.value}")
        if self.family is Family.RIESZ:
            if self.riesz_a is None:
                raise ValueError("riesz_a is required for the Riesz family")
            if int(self.riesz_a) != self.riesz_a or self.riesz_a <= self.dimension:
                raise ValueError("riesz_a must be an integer > 3")
        elif self.riesz_a is not None:
            raise ValueError("riesz_a only applies to the Riesz family")
        if self.free_theta < 0:
            raise ValueError("free_theta must be >= 0")

    @property
    def dimension(self) -> int:
        return _FAMILY_DIMENSION[self.family]

    @property
    def nonnegative_domain(self) -> bool:
        """True when the state space is [0, inf) per coordinate."""
        return self.family in _BESSEL_FAMILIES


def _points_of(state) -> np.ndarray:
    """``state`` as a float array of points; a 1-D array is n points on the line."""
    arr = np.asarray(state, dtype=float)
    return arr[:, None] if arr.ndim == 1 else arr


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Two streams with different ids are statistically independent; the same
    key always reproduces the same draws regardless of thread or call order.
    ``generator(*subkeys)`` derives further independent child streams (used
    e.g. per path and per recording interval by the integrator).
    """

    seed: int
    stream_id: int = 0

    def generator(self, *subkeys: int) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(int(self.stream_id), *map(int, subkeys))
        )
        return np.random.default_rng(ss)


def _resolve_rng(rng) -> tuple[np.random.Generator, int | None]:
    """Generator of ``rng`` and the seed to report (None for a Generator)."""
    if isinstance(rng, RngStream):
        return rng.generator(), rng.seed
    if isinstance(rng, np.random.Generator):
        return rng, None
    raise TypeError("rng must be an RngStream or numpy Generator")


_HEADERS = {1: ["x"], 2: ["x", "y"], 3: ["x", "y", "z"]}


def _checked_block(points) -> np.ndarray:
    """One configuration as a finite (n, d) float array with d in {1, 2, 3}."""
    arr = _points_of(points)
    if arr.ndim != 2 or arr.shape[1] not in _HEADERS:
        raise ValueError(f"a configuration is an (n,) or (n, d) array with d in 1, 2, 3, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("points must be finite")
    return arr


def save_configurations(path, configs) -> None:
    """Write configurations as CSV blocks separated by blank lines.

    ``configs`` is a sequence of (n, d) arrays, such as an (S, n, d)
    stack; a 1-D member is n points on the line.  Each block carries its
    own mandatory header line (``x``, ``x,y`` or ``x,y,z``).  A single
    configuration produces a plain one-block CSV.
    """
    blocks = [_checked_block(c) for c in configs]
    buf = io.StringIO()
    for k, arr in enumerate(blocks):
        if k:
            buf.write("\n")
        buf.write(",".join(_HEADERS[arr.shape[1]]))
        buf.write("\n")
        for row in arr:
            buf.write(",".join(f"{v:.17g}" for v in row))
            buf.write("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def load_configurations(path) -> list[np.ndarray]:
    """Read one or more blank-line-separated configuration CSV blocks, one
    (n, d) array per block.  Raises ValueError on a bad header or a point
    that is not finite."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    configs: list[np.ndarray] = []
    for block in text.split("\n\n"):
        lines = [ln.strip() for ln in block.strip().splitlines() if ln.strip()]
        if not lines:
            continue
        header = [c.strip() for c in lines[0].split(",")]
        dim = len(header)
        if dim not in _HEADERS or header != _HEADERS[dim]:
            raise ValueError(f"bad configuration header: {lines[0]!r}")
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        configs.append(_checked_block(np.array(rows, dtype=float).reshape(len(rows), dim)))
    return configs
