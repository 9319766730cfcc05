"""Shared state types for interacting-particle computations.

A configuration -- a finite point multiset in R^d, d in {1, 2, 3} -- is a
plain (n, d) float array whose row i is particle i; a 1-D array is read as
n points on the line.  S configurations of one size stack to (S, n, d).
``_checked_block`` is the one rule for a configuration taken from outside
the program (where a ``ModelSpec`` is known, its domain rule applies too),
and ``_checked_number`` for a number: finite, in range, whole for a count.
On disk a configuration is a CSV block, one row per point, columns
``x[,y[,z]]``, header mandatory.

Every stochastic routine takes an ``RngStream`` so that draws depend only on
``(seed, stream_id)`` and never on evaluation order or worker count.
Where a result's bits would depend on how many threads numpy's OpenBLAS
runs, the call runs under ``_one_blas_thread``.
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import functools
import glob
import io
import math
import numbers
import os
import threading
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


def _checked_number(name: str, value, *, above=None, at_least=None, at_most=None, whole=False):
    """``value``, a number taken from outside the program, if it is a finite
    real, > ``above``, >= ``at_least`` and <= ``at_most`` where given, and
    whole where ``whole`` (a count, a seed, an index).  Otherwise a
    ValueError names ``name`` and the rule, e.g. "dt must be finite and > 0"."""
    integral = isinstance(value, numbers.Integral)  # exact, however large
    finite = integral or (isinstance(value, numbers.Real) and math.isfinite(value))
    integral = integral or (finite and float(value).is_integer())
    if finite and (integral or not whole) and (above is None or value > above) and (
        (at_least is None or value >= at_least) and (at_most is None or value <= at_most)
    ):
        return value
    edges = ((">", above), (">=", at_least), ("<=", at_most))
    bound = " and ".join(f"{op} {edge}" for op, edge in edges if edge is not None)
    if whole:
        raise ValueError(f"{name} must be {bound if integral else 'a whole number ' + bound}")
    raise ValueError(f"{name} must be finite" + (f" and {bound}" if bound else ""))


def _whole_steps(value: float, step: float) -> int | None:
    """k where ``value`` lies within 1e-9 ``step`` of k ``step``, the
    grid of ``step``; None off the grid or where value / step is not finite."""
    q = value / step
    return round(q) if math.isfinite(q) and abs(value - round(q) * step) <= 1e-9 * step else None


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of one finite particle system.

    ``alpha`` is required for the Bessel-type families (and must be >= 1),
    ``riesz_a`` only for the Riesz family (an integer exceeding the ambient
    dimension 3).  ``free_c`` > 0 and ``free_theta`` >= 0 set the confining
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
        _checked_number("n_particles", self.n_particles, at_least=1, whole=True)
        _checked_number("beta", self.beta, above=0)
        if (self.family is Family.GINIBRE or self.family in _BESSEL_FAMILIES) and self.beta != 2:
            raise ValueError(f"the {self.family.value} system is defined for beta = 2 only")
        if self.family in _BESSEL_FAMILIES:
            if self.alpha is None:
                raise ValueError(f"alpha is required for family {self.family.value}")
            _checked_number("alpha", self.alpha, at_least=1)
        elif self.alpha is not None:
            raise ValueError(f"alpha is not a parameter of family {self.family.value}")
        if self.family is Family.RIESZ:
            if self.riesz_a is None:
                raise ValueError("riesz_a is required for the Riesz family")
            _checked_number("riesz_a", self.riesz_a, above=self.dimension, whole=True)
        elif self.riesz_a is not None:
            raise ValueError("riesz_a only applies to the Riesz family")
        _checked_number("free_c", self.free_c, above=0)
        _checked_number("free_theta", self.free_theta, at_least=0)

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
    """Deterministic random stream keyed by (seed, stream_id), whole numbers >= 0.

    Two streams with different ids are statistically independent; the same
    key always reproduces the same draws regardless of thread or call order.
    ``generator(*subkeys)`` derives further independent child streams (used
    e.g. per path and per recording interval by the integrator).
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        _checked_number("seed", self.seed, at_least=0, whole=True)
        _checked_number("stream_id", self.stream_id, at_least=0, whole=True)

    def generator(self, *subkeys: int) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(int(self.stream_id), *map(int, subkeys))
        )
        return np.random.default_rng(ss)


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS (``numpy.libs/libscipy_openblas64_*``) as a
    ctypes library, or None where numpy carries none that exports
    ``scipy_openblas_get/set_num_threads64_``."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))[0])
        lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    return lib


# blocks inside ``_one_blas_thread`` now, and the count the first of them found
_pins = {"open": 0, "before": None}
_pins_lock = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread; yields True, or
    False (and pins nothing) where ``_openblas`` finds no library.

    The count is process-wide, so while any thread is inside such a
    block every thread's BLAS calls run on one thread; the count found by
    the first block to enter comes back when the last one leaves, also on
    an exception.  Pinned, a LAPACK result no longer depends on the count
    the process started with, and Python threads that share the cores do
    not contend with OpenBLAS's own."""
    lib = _openblas()
    if lib is None:
        yield False
        return
    with _pins_lock:
        if not _pins["open"]:
            _pins["before"] = lib.scipy_openblas_get_num_threads64_()
            lib.scipy_openblas_set_num_threads64_(1)
        _pins["open"] += 1
    try:
        yield True
    finally:
        with _pins_lock:
            _pins["open"] -= 1
            if not _pins["open"]:
                lib.scipy_openblas_set_num_threads64_(_pins["before"])


def _resolve_rng(rng) -> tuple[np.random.Generator, int | None]:
    """Generator of ``rng`` and the seed to report (None for a Generator)."""
    if isinstance(rng, RngStream):
        return rng.generator(), rng.seed
    if isinstance(rng, np.random.Generator):
        return rng, None
    raise TypeError("rng must be an RngStream or numpy Generator")


_HEADERS = {1: ["x"], 2: ["x", "y"], 3: ["x", "y", "z"]}


def _checked_block(points, name: str, *, dim: int | None = None, n: int | None = None) -> np.ndarray:
    """``points`` (coerced by ``_points_of``) as one configuration: a finite
    (n, d) float array, with d = ``dim`` if given and 1, 2 or 3 otherwise,
    and n checked only when given.  Errors name ``name`` and the first bad point."""
    arr = _points_of(points)
    fits = arr.ndim == 2 and (arr.shape[1] == dim if dim else arr.shape[1] in _HEADERS)
    if not fits or (n is not None and len(arr) != n):
        want = f"({'n' if n is None else n}, {dim or 'd'})" + ("" if dim else " with d in 1, 2, 3")
        raise ValueError(f"{name} has shape {arr.shape}, not {want}")
    if not np.isfinite(arr).all():
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))[0]
        raise ValueError(f"{name} must be finite; point {bad} is not")
    return arr


def save_configurations(path, configs) -> None:
    """Write configurations as CSV blocks separated by blank lines.

    ``configs`` is a sequence of (n, d) arrays, such as an (S, n, d)
    stack; a 1-D member is n points on the line.  Each block carries its
    own mandatory header line (``x``, ``x,y`` or ``x,y,z``).  A single
    configuration produces a plain one-block CSV.
    """
    blocks = [_checked_block(c, f"configuration {k}") for k, c in enumerate(configs)]
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
    (n, d) array per block.  Raises ValueError on a bad header, or on a
    block with a row of the wrong width or a value that is not a finite
    number, naming the block."""
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
        name = f"block {len(configs)}"
        try:
            rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float)
        except ValueError as exc:  # a value that is not a number, or rows of unequal length
            raise ValueError(f"{name}: {exc}") from None
        configs.append(_checked_block(rows if len(rows) else rows.reshape(0, dim), name, dim=dim))
    return configs
