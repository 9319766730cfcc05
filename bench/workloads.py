"""The three benchmark workloads and the checks on their outputs.

A workload is run in rounds.  Round ``r`` of seed ``s`` draws every input
from ``RngStream(s, 8 * r + phase)``, so a (seed, round) pair always does
the same work.  Only the library calls are timed; the output checks run
after the timer stops and use numpy/scipy references, never the code
under test.

Operations (for ``attempted``/``failed``) are integrated paths,
equilibrium draws and field samples.  A flagged path is a failed
operation; so is every draw of a chain that reports ``converged=False``
and every operation of a phase whose output check fails.

Check thresholds are fixed before looking at any seed: KS statistics are
compared with their critical value at level 1e-6 for independent samples
(the pooled points here repel each other, which only shrinks the
statistic), and the edge-field count with six standard deviations of a
Poisson count (a determinantal count varies less).  The two-sample KS
checks of the SDE workloads pool their samples over every round of a run
(``pooled_ks``), since one round holds too few paths to see more than
gross breakage.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import airy

from ibrownian import kernels, sampling, sde, stats
from ibrownian.core import Family, ModelSpec, RngStream, StepFailureError

KS_LEVEL = 1e-6
COUNT_Z_MAX = 6.0
KERNEL_IDENTITY_MAX = 1e-9  # the bessel-kernel-identity acceptance gate


@dataclass
class Round:
    wall: float
    attempted: int
    failed: int
    checks: dict
    info: dict = field(default_factory=dict)
    # two-sample KS checks pooled over the run: name -> (a, b, operations
    # of the phase not already counted as failed)
    pairs: dict = field(default_factory=dict)


def _stream(seed: int, r: int, phase: int) -> RngStream:
    return RngStream(seed, 8 * r + phase)


def _ks_two_sample(a, b) -> float:
    a = np.sort(np.ravel(a))
    b = np.sort(np.ravel(b))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def _ks_two_sample_crit(n: int, m: int) -> float:
    return math.sqrt(-0.5 * math.log(KS_LEVEL / 2.0)) * math.sqrt((n + m) / (n * m))


def pooled_ks(rounds) -> dict:
    """Two-sample KS statistic over all rounds' pairs, as a share of its critical value."""
    shares = {}
    for name in sorted({n for r in rounds for n in r.pairs}):
        a = np.concatenate([np.ravel(r.pairs[name][0]) for r in rounds if name in r.pairs])
        b = np.concatenate([np.ravel(r.pairs[name][1]) for r in rounds if name in r.pairs])
        shares[name] = _ks_two_sample(a, b) / _ks_two_sample_crit(a.size, b.size)
    return shares


def _ks_one_sample(values, cdf) -> float:
    v = np.sort(values)
    c = cdf(v)
    n = v.size
    return float(max(np.max(np.arange(1, n + 1) / n - c), np.max(c - np.arange(n) / n)))


def _ks_one_sample_crit(n: int) -> float:
    # Dvoretzky-Kiefer-Wolfowitz bound
    return math.sqrt(math.log(2.0 / KS_LEVEL) / (2.0 * n))


def _simulate(tr, spec, starts, cfg, rng):
    """Integrate with flagged paths dropped; (ensemble or None, flagged)."""
    with tr.span("sde.simulate"):
        try:
            ens = sde.simulate(spec, starts, cfg, rng, on_failure="drop")
        except StepFailureError:  # every path failed
            return None, len(starts)
    return ens, len(ens.failed_paths)


def _sde_info(ensembles_and_steps) -> dict:
    substeps = sum(int(e.substeps.sum()) for e, _ in ensembles_and_steps)
    base = sum(e.n_paths * steps for e, steps in ensembles_and_steps)
    return {
        "substeps": substeps,
        "substeps_per_base_step": substeps / base,
        "max_depth": max(e.max_depth_used for e, _ in ensembles_and_steps),
    }


# ---------------------------------------------------------------------------
# dyson-sde
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DysonSize:
    n: int = 20
    paths: int = 10
    dt: float = 5e-4
    t_final: float = 0.5


def dyson_sde(seed: int, r: int, tr, size: DysonSize) -> Round:
    """Soft-edge Dyson paths from exact tridiagonal equilibrium starts."""
    spec = ModelSpec(Family.AIRY, size.n, beta=2.0)
    cfg = sde.IntegratorConfig(dt=size.dt, t_final=size.t_final, dt_record=size.t_final, max_substep_depth=30)
    t0 = time.perf_counter()
    with tr.span("bench.round"):
        with tr.span("sampling.sample_airy_ensemble"):
            starts, _ = sampling.sample_airy_ensemble(size.n, 2.0, _stream(seed, r, 0), size.paths)
        ens, flagged = _simulate(tr, spec, list(starts), cfg, _stream(seed, r, 1))
    wall = time.perf_counter() - t0

    checks = {"starts_ascending": bool(np.all(np.isfinite(starts)) and np.all(np.diff(starts, axis=1) > 0))}
    info = {"flagged": flagged, "ks_share": 0.0}
    pairs = {}
    ops = 2 * size.paths
    if ens is not None:
        checks["no_order_swaps"] = ens.ordering_violations == 0
        info.update(_sde_info([(ens, round(size.t_final / size.dt))]))
    failed = ops if not all(checks.values()) else flagged
    if ens is not None:
        first, last = ens.states[:, 0, :, 0], ens.states[:, -1, :, 0]
        info["ks_share"] = _ks_two_sample(first, last) / _ks_two_sample_crit(first.size, last.size)
        pairs["stationary_marginal"] = (first, last, ops - failed)
    return Round(wall, ops, failed, checks, info, pairs)


# ---------------------------------------------------------------------------
# hard-edge-sde
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HardEdgeSize:
    n: int = 10
    alpha: float = 1.0
    draws: int = 16
    burn_in_sweeps: int = 1000
    thin_sweeps: int = 10
    dt: float = 1e-4
    t_final: float = 0.05
    record_every: int = 10
    squared_n: int = 5
    squared_paths: int = 16
    squared_dt: float = 1e-3
    squared_t_final: float = 0.2
    identity_grid: int = 50


def hard_edge_sde(seed: int, r: int, tr, size: HardEdgeSize) -> Round:
    """Hard-edge chain draws, Bessel paths, the squared pair, Bessel kernels."""
    bes = ModelSpec(Family.BESSEL, size.n, beta=2.0, alpha=size.alpha)
    cfg = sde.IntegratorConfig(dt=size.dt, t_final=size.t_final, dt_record=size.record_every * size.dt)
    z0 = 0.5 * np.arange(1, size.squared_n + 1)
    sq = ModelSpec(Family.SQUARE_BESSEL, size.squared_n, beta=2.0, alpha=size.alpha)
    rt = ModelSpec(Family.SQRT_SQUARE_BESSEL, size.squared_n, beta=2.0, alpha=size.alpha)
    sq_cfg = sde.IntegratorConfig(
        dt=size.squared_dt, t_final=size.squared_t_final, dt_record=size.squared_t_final, max_substep_depth=30
    )
    grid = np.linspace(0.5, 80.0, size.identity_grid)
    opts = sampling.McmcOptions(burn_in_sweeps=size.burn_in_sweeps, thin_sweeps=size.thin_sweeps)

    t0 = time.perf_counter()
    with tr.span("bench.round"):
        with tr.span("sampling.sample_bessel_chain"):
            draws, rep = sampling.sample_bessel_chain(size.n, size.alpha, _stream(seed, r, 0), size.draws, options=opts)
        ens_b, flag_b = _simulate(tr, bes, draws, cfg, _stream(seed, r, 1))
        ens_sq, flag_sq = _simulate(tr, sq, [z0**2] * size.squared_paths, sq_cfg, _stream(seed, r, 2))
        ens_rt, flag_rt = _simulate(tr, rt, [z0] * size.squared_paths, sq_cfg, _stream(seed, r, 3))
        with tr.span("kernels.bessel_kernel_grid"):
            gap = 0.0
            for a in (1.0, 2.0):
                for x in grid:
                    for y in grid:
                        v1 = kernels.bessel_kernel(a, x, y, form="recurrence")
                        v2 = kernels.bessel_kernel(a, x, y, form="derivative")
                        gap = max(gap, abs(v1 - v2))
    wall = time.perf_counter() - t0

    pts = np.array([d.points[:, 0] for d in draws])
    chain_ok = bool(np.all(np.isfinite(pts)) and np.all(pts > 0))
    bessel_ok = ens_b is not None and float(np.min(ens_b.states)) > 0 and ens_b.ordering_violations == 0
    squared_ok = (
        ens_sq is not None
        and ens_rt is not None
        and float(np.min(ens_sq.states)) > 0
        and float(np.min(ens_rt.states)) > 0
        and ens_sq.ordering_violations == 0
        and ens_rt.ordering_violations == 0
    )
    checks = {
        "chain_draws_positive": chain_ok,
        "bessel_paths_positive_ordered": bessel_ok,
        "squared_pair_positive_ordered": squared_ok,
        "bessel_kernel_identity": gap <= KERNEL_IDENTITY_MAX,
    }
    failed = size.draws if not (chain_ok and rep.converged) else 0
    failed += size.draws if not bessel_ok else flag_b
    squared_failed = 2 * size.squared_paths if not squared_ok else flag_sq + flag_rt
    failed += squared_failed
    ks, pairs = 0.0, {}
    if squared_ok:
        a = np.sqrt(ens_sq.states[:, -1, :, 0])
        b = ens_rt.states[:, -1, :, 0]
        ks = _ks_two_sample(a, b) / _ks_two_sample_crit(a.size, b.size)
        pairs["squared_pair_marginal"] = (a, b, 2 * size.squared_paths - squared_failed)
    info = {
        "flagged": flag_b + flag_sq + flag_rt,
        "mcmc_acceptance": rep.acceptance_rate,
        "ks_share": ks,
        "kernel_identity_gap": gap,
    }
    steps, sq_steps = round(size.t_final / size.dt), round(size.squared_t_final / size.squared_dt)
    ran = [(e, k) for e, k in ((ens_b, steps), (ens_sq, sq_steps), (ens_rt, sq_steps)) if e is not None]
    if ran:
        info.update(_sde_info(ran))
    ops = 2 * size.draws + 2 * size.squared_paths
    return Round(wall, ops, failed, checks, info, pairs)


# ---------------------------------------------------------------------------
# edge-field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSize:
    window: tuple = (-92.0, 6.0)
    samples: int = 100
    x: float = -1.0
    radii: tuple = (10.0, 20.0, 40.0)
    bin_width: float = 2.0


def _airy_diagonal(x):
    ai, aip, _, _ = airy(x)
    return aip * aip - x * ai * ai


def _diagonal_cdf(lo: float, hi: float):
    """Normalised cumulative of K(x, x) on [lo, hi] and its total mass."""
    xs = np.linspace(lo, hi, int((hi - lo) / 1e-3) + 1)
    d = _airy_diagonal(xs)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (d[1:] + d[:-1]) * np.diff(xs))])
    return (lambda v: np.interp(v, xs, cum / cum[-1])), float(cum[-1])


def edge_field(seed: int, r: int, tr, size: FieldSize) -> Round:
    """Window samples of the soft-edge field, truncated drifts, estimators."""
    lo, hi = size.window
    spec = ModelSpec(Family.AIRY, 1000, beta=2.0)
    # rescale to the density convention of the 2 sqrt(r) compensator, as
    # the airy-drift-truncation-trend acceptance check does
    scale = math.pi ** (-2.0 / 3.0)
    edges = np.linspace(lo, hi, int(round((hi - lo) / size.bin_width)) + 1)
    centers = 0.5 * (edges[1:] + edges[:-1])

    t0 = time.perf_counter()
    with tr.span("bench.round"):
        with tr.span("sampling.sample_airy_field"):
            envs, _ = sampling.sample_airy_field(size.window, _stream(seed, r, 0), size.samples)
        scaled = [scale * e for e in envs]
        with tr.span("stats.drift_truncation_scan"):
            scan = stats.drift_truncation_scan(scaled, spec, size.x, list(size.radii))
        with tr.span("stats.estimate_rho"):
            rho1 = stats.estimate_rho(envs, 1, bins=edges)
            rho2 = stats.estimate_rho(envs, 2, bins=edges)
        with tr.span("kernels.kernel_grid"):
            kg = kernels.kernel_grid("airy2", centers)
        kd = np.diag(kg)
        rho1_z = np.abs(rho1.density - kd) / np.sqrt(kd / (size.samples * np.diff(edges)))
        rho2_err = np.abs(rho2.density - (np.outer(kd, kd) - kg * kg))
        np.fill_diagonal(rho2_err, 0.0)
    wall = time.perf_counter() - t0

    counts = np.array([e.size for e in envs])
    pooled = np.concatenate(envs)
    cdf, trace = _diagonal_cdf(lo, hi)
    count_z = abs(counts.mean() - trace) / math.sqrt(trace / size.samples)
    ks = _ks_one_sample(pooled, cdf) / _ks_one_sample_crit(pooled.size)
    checks = {
        "samples_ascending_in_window": all(
            np.all(np.isfinite(e)) and np.all(np.diff(e) > 0) and (e.size == 0 or (e[0] >= lo and e[-1] <= hi))
            for e in envs
        ),
        "count_matches_kernel_trace": count_z <= COUNT_Z_MAX,
        "positions_ks": ks < 1.0,
        "scan_finite": bool(np.all(np.isfinite(scan.mean))),
    }
    failed = 0 if all(checks.values()) else size.samples
    info = {
        "field_points_per_sample": float(counts.mean()),
        "ks_share": ks,
        "count_z": count_z,
        "rho1_max_z": float(np.max(rho1_z)),
        "rho2_max_abs_err": float(np.max(rho2_err)),
    }
    return Round(wall, size.samples, failed, checks, info)


# name -> (round function, default size, nominal seconds of a default round);
# the nominal time (about the median round on a 2-vCPU VM) fixes how many
# rounds fill a run, see run.round_count
WORKLOADS = {
    "dyson-sde": (dyson_sde, DysonSize(), 1.1),
    "hard-edge-sde": (hard_edge_sde, HardEdgeSize(), 3.6),
    "edge-field": (edge_field, FieldSize(), 9.5),
}
