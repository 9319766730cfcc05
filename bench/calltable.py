"""Fixed-size per-call timings, one entry per layer operation.

Each entry is the median of a fixed number of calls, in microseconds,
timed with the library unwrapped.  Inputs come from the run's seed.
"""

from __future__ import annotations

import time

import numpy as np

from ibrownian import kernels, models, sampling, sde, stats
from ibrownian.core import Family, ModelSpec

SIZES = (10, 20, 100)
FAMILY_ARGS = {
    Family.AIRY: {},
    Family.GINIBRE: {},
    Family.BESSEL: {"alpha": 1.0},
    Family.SQUARE_BESSEL: {"alpha": 1.0},
    Family.SQRT_SQUARE_BESSEL: {"alpha": 1.0},
    Family.LENNARD_JONES: {},
    Family.RIESZ: {"riesz_a": 4},
}
NAMES = [f"models.drift_finite_all.{f.value}.n{n}_us" for f in FAMILY_ARGS for n in SIZES] + [
    "sde.step.airy.n20_us",
    "sampling.tridiagonal.n400_us",
    "sampling.ginibre.n400_us",
    "kernels.airy_kernel_us",
    "kernels.bessel_kernel_us",
    "stats.estimate_rho_us",
]


def _median_us(fn, reps: int) -> float:
    times = np.empty(reps)
    for k in range(reps):
        t0 = time.perf_counter()
        fn()
        times[k] = time.perf_counter() - t0
    return float(np.median(times)) * 1e6


def _state(spec: ModelSpec, g: np.random.Generator) -> np.ndarray:
    """Points at least 0.5 apart, positive where the family needs it."""
    n, d = spec.n_particles, spec.dimension
    if d == 1:
        return (1.0 + np.arange(n) + g.uniform(0.0, 0.5, n))[:, None]
    side = int(np.ceil(n ** (1.0 / d)))
    cells = np.stack(np.unravel_index(np.arange(n), (side,) * d), axis=1)
    return cells + g.uniform(0.0, 0.5, (n, d)) - 0.5 * side


def call_table(seed: int, reps_scale: float = 1.0) -> dict:
    """Per-call microseconds; ``reps_scale`` < 1 shortens it for tests."""
    g = np.random.default_rng(seed)

    def reps(k: int) -> int:
        return max(1, int(k * reps_scale))

    out = {}
    for fam, extra in FAMILY_ARGS.items():
        for n in SIZES:
            spec = ModelSpec(fam, n, **extra)
            state = _state(spec, g)
            out[f"models.drift_finite_all.{fam.value}.n{n}_us"] = _median_us(
                lambda: models.drift_finite_all(spec, state), reps(200 if n < 100 else 50)
            )

    spec = ModelSpec(Family.AIRY, 20)
    start = sampling.sample_airy_equilibrium(20, 2.0, g).points
    cfg = sde.IntegratorConfig(dt=5e-4, t_final=5e-4)
    out["sde.step.airy.n20_us"] = _median_us(lambda: sde.step(spec, start, 5e-4, g, cfg), reps(200))
    out["sampling.tridiagonal.n400_us"] = _median_us(lambda: sampling.sample_airy_equilibrium(400, 2.0, g), reps(20))
    out["sampling.ginibre.n400_us"] = _median_us(lambda: sampling.sample_ginibre(400, g), reps(3))
    out["kernels.airy_kernel_us"] = _median_us(lambda: kernels.airy_kernel(-1.3, 0.7), reps(200))
    out["kernels.bessel_kernel_us"] = _median_us(lambda: kernels.bessel_kernel(1.0, 3.0, 7.0), reps(200))
    samples, _ = sampling.sample_airy_ensemble(20, 2.0, g, 100)
    bins = np.linspace(-12.0, 4.0, 33)
    out["stats.estimate_rho_us"] = _median_us(lambda: stats.estimate_rho(samples, 1, bins=bins), reps(20))
    return out
