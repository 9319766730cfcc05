"""SHA-256 fingerprints of every sampler, integrator and reader output.

    PYTHONPATH=src python3 tests/fingerprint.py

Prints one ``name sha256`` line per output.  Each hash runs over the
float64 bytes of the output reshaped to (S, n, d), so two versions of the
library that store a configuration in different shapes hash alike when
their values agree bitwise.  Run it against two checkouts (through
PYTHONPATH) and diff the outputs.  Besides the draws it hashes every
sampler's acceptance rate and the final state of each generator a sampler
or a step was given.  pytest does not collect this file;
``test_fingerprint.py`` runs it and checks its output's form.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ibrownian import sampling, sde
from ibrownian.core import Family, ModelSpec, RngStream, load_configurations
from ibrownian.models import TruncationParams, TruncationVariant

FIXTURE = Path(__file__).parent / "data" / "configurations.csv"
BETAS = (1.0, 2.0, 4.0)


def _points(row) -> np.ndarray:
    # some versions return configuration objects holding a ``.points`` array
    return np.asarray(getattr(row, "points", row), dtype=np.float64)


def _hash_stack(rows, d: int) -> str:
    arr = np.ascontiguousarray(np.array([_points(r) for r in rows], dtype=np.float64))
    arr = arr.reshape(len(rows), -1, d)
    return hashlib.sha256(repr(arr.shape).encode() + arr.tobytes()).hexdigest()


def _hash_ragged(rows) -> str:
    """Rows of varying length: their counts, then their points as (1, M, 1)."""
    counts = np.array([_points(r).size for r in rows], dtype=np.float64)
    pts = np.concatenate([_points(r).ravel() for r in rows]).reshape(1, -1, 1)
    return hashlib.sha256(counts.tobytes() + pts.tobytes()).hexdigest()


def _hash_value(value) -> str:
    text = "none" if value is None else np.float64(value).tobytes().hex()
    return hashlib.sha256(text.encode()).hexdigest()


def _hash_generator(g: np.random.Generator) -> str:
    return hashlib.sha256(json.dumps(g.bit_generator.state, sort_keys=True).encode()).hexdigest()


def _emit(name: str, digest: str) -> None:
    print(f"{name} {digest}")


def _sampler_outputs() -> None:
    opts = sampling.McmcOptions(burn_in_sweeps=200, thin_sweeps=3)
    for beta in BETAS:
        for method in ("tridiagonal", "dense"):
            g = np.random.default_rng(11)
            if method == "tridiagonal":
                draws, rep = sampling.sample_airy_ensemble(6, beta, g, 5)
                rate = rep.acceptance_rate
            else:
                # the private dense reference, one draw at a time on one
                # generator; a matrix model has no acceptance rate
                draws, rate = [sampling._edge_spectrum_dense(6, beta, g) for _ in range(5)], None
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
    pts, _ = sampling.sample_ginibre_ensemble(4, RngStream(63), 3)
    planar = sde.IntegratorConfig(
        dt=1e-3, t_final=0.01, dt_record=0.005, truncation=TruncationParams(3.0, TruncationVariant.CENTERED)
    )
    ens = sde.simulate(ModelSpec(Family.GINIBRE, 4), pts, planar, RngStream(64), on_failure="drop")
    _emit("simulate.ginibre.truncated.states", _hash_stack(ens.states.reshape(-1, 4, 2), 2))


def _reader_outputs() -> None:
    for k, block in enumerate(load_configurations(FIXTURE)):
        pts = _points(block)
        _emit(f"load_configurations.block{k}", _hash_stack([pts], pts.shape[1]))


def main() -> None:
    _sampler_outputs()
    _integrator_outputs()
    _reader_outputs()


if __name__ == "__main__":
    main()
