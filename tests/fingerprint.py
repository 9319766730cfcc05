"""SHA-256 fingerprints of every sampler, integrator, estimator, kernel and reader output.

    PYTHONPATH=src python3 tests/fingerprint.py > tests/data/fingerprints.txt

Prints a header with the numpy and scipy versions, then one ``name sha256``
line per output: draws as float64 bytes reshaped to (S, n, d), so that
configurations stored in other shapes hash alike, acceptance rates, the
final state of each generator a sampler or a step was given, every array
an estimator returns, hard-edge kernel values on both sides of its
diagonal window, and Metropolis energy changes.  ``test_fingerprint.py``
needs the output to equal the committed ``tests/data/fingerprints.txt``
under one and two OpenBLAS threads; a change that moves an output on
purpose reruns the command above and names the moved lines.  pytest does
not collect this file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import scipy

from ibrownian import kernels, models, sampling, sde, stats
from ibrownian.core import Family, ModelSpec, RngStream, load_configurations
from ibrownian.models import TruncationParams, TruncationVariant

FIXTURE = Path(__file__).parent / "data" / "configurations.csv"
BETAS = (1.0, 2.0, 4.0)


def _hash_stack(rows, d: int) -> str:
    arr = np.ascontiguousarray(np.array([np.asarray(r) for r in rows], dtype=np.float64))
    arr = arr.reshape(len(rows), -1, d)
    return hashlib.sha256(repr(arr.shape).encode() + arr.tobytes()).hexdigest()


def _hash_ragged(rows) -> str:
    """Rows of varying length: their counts, then their points as (1, M, 1)."""
    counts = np.array([np.size(r) for r in rows], dtype=np.float64)
    pts = np.concatenate([np.ravel(r) for r in rows]).reshape(1, -1, 1)
    return hashlib.sha256(counts.tobytes() + pts.tobytes()).hexdigest()


def _hash_value(value) -> str:
    text = "none" if value is None else np.float64(value).tobytes().hex()
    return hashlib.sha256(text.encode()).hexdigest()


def _hash_generator(g: np.random.Generator) -> str:
    return hashlib.sha256(json.dumps(g.bit_generator.state, sort_keys=True).encode()).hexdigest()


def _hash_arrays(*arrays) -> str:
    """Each array's shape, then its float64 bytes; None hashes as "none"."""
    h = hashlib.sha256()
    for a in arrays:
        if a is None:
            h.update(b"none")
        else:
            a = np.ascontiguousarray(a, dtype=np.float64)
            h.update(repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()


def _emit(name: str, digest: str) -> None:
    print(f"{name} {digest}")


def _sampler_outputs() -> None:
    opts = sampling.McmcOptions(burn_in_sweeps=200, thin_sweeps=3)
    for beta in BETAS:
        for method in ("tridiagonal", "dense") if beta == 2.0 else ("tridiagonal",):
            g = np.random.default_rng(11)
            if method == "tridiagonal":
                draws, rep = sampling.sample_airy_ensemble(6, beta, g, 5)
                rate = rep.acceptance_rate
            else:
                # check 12's private dense reference, which exists at beta = 2
                # only, one draw at a time on one generator; a matrix model
                # has no acceptance rate
                draws, rate = [sampling._edge_spectrum_dense(6, g) for _ in range(5)], None
            _emit(f"airy_ensemble.{method}.beta{beta:g}.draws", _hash_stack(draws, 1))
            _emit(f"airy_ensemble.{method}.beta{beta:g}.acceptance", _hash_value(rate))
            _emit(f"airy_ensemble.{method}.beta{beta:g}.generator", _hash_generator(g))
        g = np.random.default_rng(12)
        draws, _ = sampling.sample_airy_ensemble(50, beta, g, 5, window=(-3.0, 1.0))
        _emit(f"airy_ensemble.window.beta{beta:g}.draws", _hash_ragged(draws))
        _emit(f"airy_ensemble.window.beta{beta:g}.generator", _hash_generator(g))
        g = np.random.default_rng(13)
        _emit(f"airy_equilibrium.beta{beta:g}.draw", _hash_stack([sampling.sample_airy_equilibrium(6, beta, g)], 1))
        _emit(f"airy_equilibrium.beta{beta:g}.generator", _hash_generator(g))

    g = np.random.default_rng(14)
    draws, rep = sampling.sample_ginibre_ensemble(6, g, 5)
    _emit("ginibre_ensemble.draws", _hash_stack(draws, 2))
    _emit("ginibre_ensemble.acceptance", _hash_value(rep.acceptance_rate))
    _emit("ginibre_ensemble.generator", _hash_generator(g))
    g = np.random.default_rng(15)
    _emit("ginibre.draw", _hash_stack([sampling.sample_ginibre(6, g)], 2))
    _emit("ginibre.generator", _hash_generator(g))
    # at n = 400 an unpinned eigvals followed the BLAS thread count
    g = np.random.default_rng(19)
    _emit("ginibre_ensemble.n400.draws", _hash_stack(sampling.sample_ginibre_ensemble(400, g, 2)[0], 2))
    _emit("ginibre_ensemble.n400.generator", _hash_generator(g))

    g = np.random.default_rng(16)
    draws, _ = sampling.sample_airy_field((-6.0, 2.0), g, 5)
    _emit("airy_field.draws", _hash_ragged(draws))
    _emit("airy_field.generator", _hash_generator(g))
    # check 7's window: a rounding-level change in the basis that moves
    # the kept count shows here, and in the draws that follow it
    _emit("airy_field.check_window.kept", _hash_value(sampling._field_basis(-92.0, 6.0)[2].size))
    draws, _ = sampling.sample_airy_field((-92.0, 6.0), RngStream(701), 20)
    _emit("airy_field.check_window.draws", _hash_ragged(draws))

    for alpha in (1.0, 1.5):
        for n in (1, 4, 40):
            g = np.random.default_rng(18)
            draws, rep = sampling.sample_bessel_ensemble(n, alpha, g, 5)
            _emit(f"bessel_ensemble.alpha{alpha:g}.n{n}.draws", _hash_stack(draws, 1))
            _emit(f"bessel_ensemble.alpha{alpha:g}.n{n}.acceptance", _hash_value(rep.acceptance_rate))
            _emit(f"bessel_ensemble.alpha{alpha:g}.n{n}.generator", _hash_generator(g))

    specs = []
    for beta in BETAS:
        specs.append((f"lennard_jones.beta{beta:g}", ModelSpec(Family.LENNARD_JONES, 4, beta=beta)))
        specs.append((f"riesz.beta{beta:g}", ModelSpec(Family.RIESZ, 4, beta=beta, riesz_a=5)))
    for label, spec in specs:
        g = np.random.default_rng(17)
        draws, rep = sampling.sample_gibbs_chain(spec, g, 5, options=opts)
        _emit(f"gibbs_chain.{label}.draws", _hash_stack(draws, spec.dimension))
        _emit(f"gibbs_chain.{label}.acceptance", _hash_value(rep.acceptance_rate))
        _emit(f"gibbs_chain.{label}.generator", _hash_generator(g))
    cases = {
        "lj1": ModelSpec(Family.LENNARD_JONES, 1, beta=1.0),
        "lj5": ModelSpec(Family.LENNARD_JONES, 5, beta=1.5, free_c=0.3, free_theta=0.0),
        "riesz8": ModelSpec(Family.RIESZ, 8, beta=2.0, riesz_a=4, free_theta=2.0),
    }
    for label, spec in cases.items():
        g = np.random.default_rng(1720)
        draws, rep = sampling.sample_gibbs_chain(spec, g, 40, options=opts)
        _emit(f"gibbs_chain.{label}.draws", _hash_stack(draws, 3))
        _emit(f"gibbs_chain.{label}.acceptance", _hash_value(rep.acceptance_rate))
        _emit(f"gibbs_chain.{label}.generator", _hash_generator(g))

    # the chain's energy change on random moves; the third confinement scale
    # alone is not a power of 2, so only it shows rounding in that term
    for family in (Family.LENNARD_JONES, Family.RIESZ):
        for n in (1, 2, 8):
            g = np.random.default_rng(1700 + n)
            values = []
            for beta, c, theta in ((1.0, 0.5, 1.0), (2.5, 0.2, 0.0), (1.5, 0.3, 0.0)):
                extra = {"riesz_a": 5} if family is Family.RIESZ else {}
                delta = models._energy_change(ModelSpec(family, n, beta=beta, free_c=c, free_theta=theta, **extra))
                for _ in range(100):
                    x = g.normal(0.0, 1.5, (n, 3))
                    i, v = int(g.integers(n)), g.normal(0.0, 1.5, 3)
                    values.append(delta(x, i, v))
            _emit(f"energy_change.{family.value}.n{n}", _hash_arrays(values))


def _start(spec: ModelSpec) -> np.ndarray:
    """A spaced start: 1, 2, ..., n on the line, a grid in the plane and a
    lattice of spacing 1.2 in 3d."""
    n, d = spec.n_particles, spec.dimension
    if d == 1:
        return np.arange(1.0, n + 1.0)[:, None]
    side = int(np.ceil(n ** (1.0 / d)))
    axes = [1.2 * (np.arange(side, dtype=float) - 0.5 * (side - 1))] * d
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)[:n]


def _integrator_outputs() -> None:
    specs = [
        ModelSpec(Family.AIRY, 5),
        ModelSpec(Family.GINIBRE, 4),
        ModelSpec(Family.BESSEL, 4, alpha=1.0),
        ModelSpec(Family.SQUARE_BESSEL, 4, alpha=1.0),
        ModelSpec(Family.SQRT_SQUARE_BESSEL, 4, alpha=1.0),
        ModelSpec(Family.LENNARD_JONES, 4),
        ModelSpec(Family.RIESZ, 4, riesz_a=5),
    ]
    cfg = sde.IntegratorConfig(dt=1e-3, t_final=0.01, dt_record=0.005)
    for k, spec in enumerate(specs):
        name, d = spec.family.value, spec.dimension
        ens = sde.simulate(spec, [_start(spec)] * 3, cfg, RngStream(40 + k), on_failure="drop")
        _emit(f"simulate.{name}.states", _hash_stack(ens.states.reshape(-1, spec.n_particles, d), d))
        _emit(f"simulate.{name}.substeps", _hash_ragged([ens.substeps.astype(np.float64)]))
        _emit(f"simulate.{name}.max_depth", _hash_value(ens.max_depth_used))
        _emit(f"simulate.{name}.failed", hashlib.sha256(repr(ens.failed_paths).encode()).hexdigest())
        g = np.random.default_rng(50 + k)
        _emit(f"step.{name}.state", _hash_stack([sde.step(spec, _start(spec), 1e-3, g, cfg)], d))
        _emit(f"step.{name}.generator", _hash_generator(g))

    # equilibrium starts, and the truncated limit drifts
    starts, _ = sampling.sample_airy_ensemble(5, 2.0, RngStream(60), 3)
    airy = ModelSpec(Family.AIRY, 5)
    ens = sde.simulate(airy, starts, cfg, RngStream(61))
    _emit("simulate.airy.equilibrium.states", _hash_stack(ens.states.reshape(-1, 5, 1), 1))
    trunc = sde.IntegratorConfig(dt=1e-3, t_final=0.01, dt_record=0.005, truncation=TruncationParams(3.0))
    ens = sde.simulate(airy, starts, trunc, RngStream(62))
    _emit("simulate.airy.truncated.states", _hash_stack(ens.states.reshape(-1, 5, 1), 1))
    # path 2 starts with two coincident points: it is flagged at its first
    # drift, under both drifts, and the other three run on
    doomed = starts[2].copy()
    doomed[1] = doomed[0]
    for label, run_cfg in (("singular_start", cfg), ("truncated.singular_start", trunc)):
        ens = sde.simulate(airy, [*starts[:2], doomed, starts[2]], run_cfg, RngStream(65), on_failure="drop")
        _emit(f"simulate.airy.{label}.states", _hash_stack(ens.states.reshape(-1, 5, 1), 1))
        _emit(f"simulate.airy.{label}.substeps", _hash_ragged([ens.substeps.astype(np.float64)]))
        _emit(f"simulate.airy.{label}.failed", hashlib.sha256(repr(ens.failed_paths).encode()).hexdigest())
    # path 1's pair difference overflows and its drift is NaN: it is
    # flagged before its first move, and the other two run on
    plane2 = ModelSpec(Family.GINIBRE, 2)
    far = np.array([[1e308, 0.0], [-1e308, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        ens = sde.simulate(plane2, [_start(plane2), far, _start(plane2)], cfg, RngStream(66), on_failure="drop")
    _emit("simulate.ginibre.nan_drift.states", _hash_stack(ens.states.reshape(-1, 2, 2), 2))
    _emit("simulate.ginibre.nan_drift.substeps", _hash_ragged([ens.substeps.astype(np.float64)]))
    _emit("simulate.ginibre.nan_drift.failed", hashlib.sha256(repr(ens.failed_paths).encode()).hexdigest())
    pts, _ = sampling.sample_ginibre_ensemble(4, RngStream(63), 3)
    planar = sde.IntegratorConfig(
        dt=1e-3, t_final=0.01, dt_record=0.005, truncation=TruncationParams(3.0, TruncationVariant.CENTERED)
    )
    ens = sde.simulate(ModelSpec(Family.GINIBRE, 4), pts, planar, RngStream(64), on_failure="drop")
    _emit("simulate.ginibre.truncated.states", _hash_stack(ens.states.reshape(-1, 4, 2), 2))


def _estimator_outputs() -> None:
    line, _ = sampling.sample_airy_ensemble(8, 2.0, RngStream(70), 30)
    plane, _ = sampling.sample_ginibre_ensemble(8, RngStream(71), 30)
    # (samples, order, given edges, window) of the four kinds
    kinds = {
        "line1": (line, 1, np.linspace(-6.0, 2.0, 9), None),
        "line2": (line, 2, np.linspace(-6.0, 2.0, 9), None),
        "plane1": (plane, 1, np.linspace(0.0, 3.5, 8), None),
        "plane2": (plane, 2, np.linspace(0.0, 4.0, 9), 2.0),
    }
    for kind, (samples, order, edges, window) in kinds.items():
        # repeated values: ties within a sample, and coincident planar points
        cases = {
            "auto": (samples, None),
            "given": (samples, edges),
            "one_sample": (samples[:1], None),
            "repeated": (np.round(2.0 * samples) / 2.0, edges),
        }
        for case, (s, bins) in cases.items():
            est = stats.estimate_rho(s, order, bins, window=window)
            _emit(
                f"estimate_rho.{kind}.{case}",
                _hash_arrays(est.bins, est.counts, est.density, est.stderr, est.n_samples, est.order),
            )

    envs, _ = sampling.sample_airy_ensemble(30, 2.0, RngStream(72), 100)
    scans = {"line": (ModelSpec(Family.AIRY, 30), envs, -1.0, [2.0, 4.0, 8.0])}
    envs, _ = sampling.sample_ginibre_ensemble(30, RngStream(73), 100)
    scans["plane"] = (ModelSpec(Family.GINIBRE, 30), envs, [0.5, -0.25], [1.5, 3.0])
    for label, (spec, envs, x, radii) in scans.items():
        scan = stats.drift_truncation_scan(envs, spec, x, radii)
        for part in ("r_values", "mean", "stderr", "n_samples", "variant_gap_mean", "variant_gap_stderr"):
            _emit(f"drift_truncation_scan.{label}.{part}", _hash_arrays(getattr(scan, part)))

    cfg = sde.IntegratorConfig(dt=1e-3, t_final=0.01, dt_record=1e-3)
    for k, spec in enumerate([ModelSpec(Family.AIRY, 5), ModelSpec(Family.GINIBRE, 4)]):
        ens = sde.simulate(spec, [_start(spec)] * 3, cfg, RngStream(74 + k), on_failure="drop")
        # lag 0, lags inside the horizon and the full horizon
        _emit(f"holder_moment.{spec.family.value}", _hash_arrays(stats.holder_moment(ens, [0.0, 1e-3, 4e-3, 0.01])))


def _kernel_outputs() -> None:
    # check 4's grid, and clusters closer than the diagonal window, so the
    # midpoint expansion and the off-window forms both show
    grid, gaps = np.linspace(0.5, 80.0, 50), np.array([0.0, 3e-5, 7e-5, 1e-4, 2e-4])
    clusters = np.concatenate([b + gaps for b in (1e-6, 0.01, 0.5, 3.0, 17.0, 60.0, 99.5)])
    for label, xs, alphas in (("grid", grid, (1.0, 2.0)), ("clusters", clusters, (1.0, 2.5, 3.0))):
        for alpha in alphas:
            for form in ("recurrence", "derivative"):
                values = [kernels.bessel_kernel(alpha, x, y, form=form) for x in xs for y in xs]
                _emit(f"bessel_kernel.{label}.alpha{alpha:g}.{form}", _hash_arrays(values))


def _reader_outputs() -> None:
    for k, block in enumerate(load_configurations(FIXTURE)):
        _emit(f"load_configurations.block{k}", _hash_stack([block], block.shape[1]))


def main() -> None:
    print(f"# numpy {np.__version__} scipy {scipy.__version__}")
    _sampler_outputs()
    _integrator_outputs()
    _estimator_outputs()
    _kernel_outputs()
    _reader_outputs()


if __name__ == "__main__":
    main()
