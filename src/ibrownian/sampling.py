"""Equilibrium samplers for the supported families.

Exact matrix models cover the soft-edge ensemble (symmetric tridiagonal
model for any beta > 0, dense Gaussian matrices for beta in {1, 2, 4})
and the planar ensemble (eigenvalues of a complex Gaussian matrix).  The
hard-edge equilibrium and the 3d Gibbs measures are sampled by a
Metropolis chain with per-particle Gaussian moves whose scales adapt
toward a target acceptance during burn-in and are frozen afterwards.

Samplers accept an RngStream (preferred; the seed lands in the report)
or a bare numpy Generator.  Single-draw functions return a
Configuration; chain/ensemble helpers return the draws plus a
SamplerReport.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigvalsh_tridiagonal

from .core import Configuration, Family, ModelSpec, RngStream

__all__ = [
    "SamplerReport",
    "McmcOptions",
    "sample_airy_equilibrium",
    "sample_airy_ensemble",
    "sample_airy_field",
    "sample_ginibre",
    "sample_ginibre_ensemble",
    "sample_bessel_equilibrium",
    "sample_bessel_chain",
    "sample_gibbs_mcmc",
    "sample_gibbs_chain",
]


@dataclass(frozen=True)
class SamplerReport:
    n_samples: int
    acceptance_rate: float | None
    seed: int | None
    wall_time: float
    proposal_scale: float | None = None
    converged: bool = True

    def __post_init__(self) -> None:
        if self.acceptance_rate is not None and not (0.0 <= self.acceptance_rate <= 1.0):
            raise ValueError("acceptance_rate must lie in [0, 1]")


@dataclass(frozen=True)
class McmcOptions:
    burn_in_sweeps: int = 10_000
    thin_sweeps: int = 10
    target_acceptance: float = 0.3
    initial_scale: float | None = None

    def __post_init__(self) -> None:
        if self.burn_in_sweeps < 0 or self.thin_sweeps < 1:
            raise ValueError("burn_in_sweeps >= 0 and thin_sweeps >= 1 required")
        if not (0.0 < self.target_acceptance < 1.0):
            raise ValueError("target_acceptance must lie in (0, 1)")


def _resolve_rng(rng) -> tuple[np.random.Generator, int | None]:
    if isinstance(rng, RngStream):
        return rng.generator(), rng.seed
    if isinstance(rng, np.random.Generator):
        return rng, None
    raise TypeError("rng must be an RngStream or numpy Generator")


# ---------------------------------------------------------------------------
# soft edge: beta ensembles mapped to edge coordinates
# ---------------------------------------------------------------------------


def _edge_spectrum_tridiagonal(n: int, beta: float, g: np.random.Generator) -> np.ndarray:
    diag = g.standard_normal(n)
    if n > 1:
        df = beta * np.arange(n - 1, 0, -1)
        off = np.sqrt(g.chisquare(df)) / math.sqrt(2.0)
        lam = eigvalsh_tridiagonal(diag, off)
    else:
        lam = diag
    # tridiagonal model realizes the quadratic weight exp(-sum l^2/2);
    # rescaling matches the target weight exp(-(beta/4) sum l^2)
    lam = np.sort(lam) * math.sqrt(2.0 / beta)
    return n ** (1.0 / 6.0) * (lam - 2.0 * math.sqrt(n))


def _edge_spectrum_dense(n: int, beta: float, g: np.random.Generator) -> np.ndarray:
    if beta == 2.0:
        a = g.standard_normal((n, n))
        b = g.standard_normal((n, n))
        x = a + 1j * b
        lam = np.linalg.eigvalsh(0.5 * (x + x.conj().T))
    elif beta == 1.0:
        a = g.standard_normal((n, n))
        lam = np.linalg.eigvalsh((a + a.T) / math.sqrt(2.0))
    elif beta == 4.0:
        # self-dual quaternion model; spectrum comes in Kramers pairs
        xd = g.standard_normal(n) / math.sqrt(2.0)
        xu = (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / 2.0
        yu = (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / 2.0
        x = np.diag(xd.astype(complex))
        iu = np.triu_indices(n, 1)
        x[iu] = xu[iu]
        x = x + np.tril(x.conj().T, -1)
        y = np.zeros((n, n), dtype=complex)
        y[iu] = yu[iu]
        y = y - y.T
        m = np.block([[x, y], [-y.conj(), x.conj()]])
        lam = np.linalg.eigvalsh(m)[::2]
    else:
        raise ValueError("dense matrix models exist for beta in {1, 2, 4} only")
    lam = np.sort(lam)
    return n ** (1.0 / 6.0) * (lam - 2.0 * math.sqrt(n))


def sample_airy_equilibrium(n: int, beta: float, rng, *, method: str = "tridiagonal") -> Configuration:
    """One equilibrium draw of the soft-edge n-particle ensemble.

    Coordinates are the edge-scaled spectrum x = n^(1/6) (lambda - 2 sqrt(n)),
    ascending.  ``method`` is "tridiagonal" (any beta > 0) or "dense"
    (beta in {1, 2, 4}).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not beta > 0:
        raise ValueError("beta must be > 0")
    g, _ = _resolve_rng(rng)
    if method == "tridiagonal":
        x = _edge_spectrum_tridiagonal(n, beta, g)
    elif method == "dense":
        x = _edge_spectrum_dense(n, beta, g)
    else:
        raise ValueError(f"unknown method {method!r}")
    return Configuration(x)


def sample_airy_ensemble(
    n: int, beta: float, rng, n_samples: int, *, method: str = "tridiagonal"
) -> tuple[np.ndarray, SamplerReport]:
    """n_samples independent draws; rows ascending, shape (n_samples, n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not beta > 0:
        raise ValueError("beta must be > 0")
    if method not in ("tridiagonal", "dense"):
        raise ValueError(f"unknown method {method!r}")
    g, seed = _resolve_rng(rng)
    t0 = time.perf_counter()
    out = np.empty((n_samples, n))
    draw = _edge_spectrum_tridiagonal if method == "tridiagonal" else _edge_spectrum_dense
    for k in range(n_samples):
        out[k] = draw(n, beta, g)
    rep = SamplerReport(n_samples=n_samples, acceptance_rate=None, seed=seed, wall_time=time.perf_counter() - t0)
    return out, rep


# ---------------------------------------------------------------------------
# planar ensemble
# ---------------------------------------------------------------------------


def _planar_points(n: int, g: np.random.Generator) -> np.ndarray:
    gm = (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / math.sqrt(2.0)
    lam = np.linalg.eigvals(gm)
    return np.column_stack([lam.real, lam.imag])


def sample_ginibre(n: int, rng) -> Configuration:
    """Eigenvalues of an n x n complex Gaussian matrix, unit entry variance.

    The point density fills the disk of radius sqrt(n) with intensity 1/pi.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g, _ = _resolve_rng(rng)
    return Configuration(_planar_points(n, g))


def sample_ginibre_ensemble(n: int, rng, n_samples: int) -> tuple[np.ndarray, SamplerReport]:
    if n < 1:
        raise ValueError("n must be >= 1")
    g, seed = _resolve_rng(rng)
    t0 = time.perf_counter()
    out = np.empty((n_samples, n, 2))
    for k in range(n_samples):
        out[k] = _planar_points(n, g)
    rep = SamplerReport(n_samples=n_samples, acceptance_rate=None, seed=seed, wall_time=time.perf_counter() - t0)
    return out, rep


# ---------------------------------------------------------------------------
# soft-edge limit field (beta = 2)
# ---------------------------------------------------------------------------


# cap on samples * r * r chain-rule coefficients held per block (r = kept
# eigenvectors, about 32 MB); larger requests run as consecutive blocks
_BLOCK_COEFFS = 1 << 22


def _field_basis(lo: float, hi: float, grid_step: float):
    """Midpoint grid, cell width, and the eigenpairs of h*K above 1e-12."""
    from .kernels import airy_fn

    m = int(math.ceil((hi - lo) / grid_step))
    h = (hi - lo) / m
    x = lo + h * (np.arange(m) + 0.5)
    ai, aip = airy_fn(x)
    # built in place: a few m x m arrays fewer at the peak
    km = np.multiply.outer(ai, aip)
    km -= np.multiply.outer(aip, ai)
    denom = np.subtract.outer(x, x)
    np.fill_diagonal(denom, 1.0)
    km /= denom
    del denom
    np.fill_diagonal(km, aip * aip - x * ai * ai)
    km *= h
    # km is exactly symmetric, so its transpose is the same matrix in the
    # Fortran order LAPACK overwrites without a copy
    lam, vecs = eigh(km.T, subset_by_value=(1e-12, np.inf), overwrite_a=True)
    return x, h, np.clip(lam, 0.0, 1.0), np.ascontiguousarray(vecs)


def _pick_cells(vecs: np.ndarray, masks: np.ndarray, picks: list, first: int) -> list[np.ndarray]:
    """Chain-rule cells for a block of samples of the projection kernels
    ``vecs[:, mask] @ vecs[:, mask].T``; ``picks[b]`` holds sample b's pick
    uniforms and ``first`` is the block's first sample index.

    Column t of a sample's Cholesky factor is kept as coefficients a_t in
    the eigenbasis, col_t = vecs @ a_t.  With v = vecs[i] for the picked
    cell i, a_t = (mask * v - sum_j a_j (v . a_j)) / sqrt(pivot), so step t
    of every sample in the block is one shared product of the (B, r)
    coefficients with vecs.T plus O(B r t) work.  Samples run in order of
    decreasing point count, so the samples still picking at step t are a
    prefix of the block.
    """
    m, r = vecs.shape
    vt = np.ascontiguousarray(vecs.T)
    counts = masks.sum(axis=1)
    order = np.argsort(-counts, kind="stable")
    counts = counts[order]
    n_max = int(counts[0])
    sel = masks[order].astype(float)
    u = np.zeros((len(order), n_max))
    for row, b in enumerate(order):
        u[row, : counts[row]] = picks[b]
    coef = np.empty((len(order), n_max, r))
    cells = np.empty((len(order), n_max), dtype=np.intp)
    trouble = {}
    # a row in trouble goes on with placeholder values, so the error names
    # the lowest sample index whatever the blocking
    with np.errstate(all="ignore"):
        diag = sel @ (vt * vt)
        for t in range(n_max):
            k = int(np.count_nonzero(counts > t))
            cdf = np.cumsum(np.maximum(diag[:k], 0.0), axis=1)
            mass = cdf[:, -1].copy()
            cdf /= mass[:, None]
            bad = ~((mass > 0.0) & (mass < np.inf))
            if bad.any():
                for row in np.flatnonzero(bad):
                    trouble.setdefault(int(row), (t, float(mass[row])))
                cdf[bad] = 1.0
            # searchsorted(cdf, u, "right") per row, as Generator.choice does
            i = np.count_nonzero(cdf <= u[:k, t, None], axis=1)
            vi = vecs[i]
            a = sel[:k] * vi
            if t:
                prev = coef[:k, :t]
                a -= np.matmul(np.matmul(prev, vi[:, :, None]).transpose(0, 2, 1), prev)[:, 0]
            col = a @ vt
            scale = np.sqrt(np.maximum(col[np.arange(k), i], 1e-300))[:, None]
            col /= scale
            coef[:k, t] = a / scale
            diag[:k] -= col * col
            cells[:k, t] = i
    if trouble:
        row = min(trouble, key=lambda j: order[j])
        t, mass = trouble[row]
        raise ValueError(
            f"sample_airy_field: sample {first + int(order[row])}, step {t}: "
            f"remaining kernel mass {mass!r} is not finite and positive"
        )
    out = [None] * len(order)
    for row, b in enumerate(order):
        out[b] = cells[row, : counts[row]]
    return out


def sample_airy_field(
    window: tuple[float, float], rng, n_samples: int, *, grid_step: float = 0.04
) -> tuple[list[np.ndarray], SamplerReport]:
    """Draws of the beta = 2 soft-edge limit field restricted to a window.

    The correlation kernel is discretized on a midpoint grid over
    ``window = (lo, hi)``; a partial eigendecomposition keeps its
    eigenpairs above 1e-12.  Each sample Bernoulli-thins the
    eigenfunctions and then selects cells sequentially by the chain rule
    for projection kernels (Schur complements, Hough-Krishnapur-Peres-
    Virag), and each selected cell gets a uniform jitter of one cell
    width.  The chain rule runs batched: samples go in blocks, and one
    matrix product with the eigenvectors serves every sample of a block
    at each step.  Per sample the generator gives, in this order, one
    uniform per kept eigenvalue, one per point for the cell picks and one
    per point for the jitter -- the stream of a sample-by-sample loop that
    picks cells with ``Generator.choice``, so the draws do not depend on
    the blocking.  Returns one ascending array per sample (the point count
    varies) plus a report.  Raises ValueError, naming the sample and the
    step, if the remaining kernel mass of a pick is not finite and
    positive.

    Unlike the matrix models this realizes the infinite system's own
    equilibrium on the window: the mean density is the kernel diagonal
    with no finite-matrix distortion, which matters when window sums are
    compared against limit formulas.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    if grid_step <= 0 or (hi - lo) / grid_step > 50_000:
        raise ValueError("grid_step must be positive and resolve the window into <= 50000 cells")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    g, seed = _resolve_rng(rng)
    t0 = time.perf_counter()

    x, h, lam, vecs = _field_basis(lo, hi, grid_step)
    per_block = max(1, _BLOCK_COEFFS // max(1, lam.size * lam.size))
    out = []
    for first in range(0, n_samples, per_block):
        size = min(per_block, n_samples - first)
        masks = np.empty((size, lam.size), dtype=bool)
        picks, jitters = [], []
        for b in range(size):
            masks[b] = g.random(lam.size) < lam
            n = int(np.count_nonzero(masks[b]))
            picks.append(g.random(n))
            jitters.append(g.random(n))
        cells = _pick_cells(vecs, masks, picks, first)
        out.extend(np.sort(x[c] + (u - 0.5) * h) for c, u in zip(cells, jitters))
    rep = SamplerReport(n_samples=n_samples, acceptance_rate=None, seed=seed, wall_time=time.perf_counter() - t0)
    return out, rep


# ---------------------------------------------------------------------------
# Metropolis chains
# ---------------------------------------------------------------------------


def _adapt(scale: float, accepted: bool, rate: float, target: float) -> float:
    return scale * math.exp(rate * ((1.0 if accepted else 0.0) - target))


class _HardEdgeChain:
    """Target: exp(-sum x/(4n)) * prod x^alpha * prod |x_i-x_j|^2 on (0,inf)^n."""

    def __init__(self, n: int, alpha: float, opts: McmcOptions):
        self.n = n
        self.alpha = alpha
        self.opts = opts
        # support stretches to roughly 16 n^2 (quadratic repulsion pushes the
        # top eigenvalue scale to O(n) times the weight scale 4n)
        self.state = 16.0 * n * n * (np.arange(1, n + 1)) / (n + 1.0)
        base = opts.initial_scale if opts.initial_scale is not None else max(4.0, 16.0 * n / 4.0)
        self.scales = np.full(n, float(base))

    def _delta_energy(self, i: int, v: float) -> float:
        x = self.state
        old = x[i]
        de = (v - old) / (4.0 * self.n) - self.alpha * (math.log(v) - math.log(old))
        if self.n > 1:
            others = np.delete(x, i)
            de -= 2.0 * float(np.sum(np.log(np.abs(v - others)) - np.log(np.abs(old - others))))
        return de

    def sweep(self, g: np.random.Generator, rate: float) -> int:
        accepted = 0
        target = self.opts.target_acceptance
        xi = g.standard_normal(self.n)
        # -Exp(1) draws are log-uniforms without the log(0) edge
        logu = -g.exponential(size=self.n)
        for i in range(self.n):
            v = self.state[i] + self.scales[i] * xi[i]
            ok = False
            if v > 0.0:
                de = self._delta_energy(i, v)
                ok = logu[i] < -de
            if ok:
                self.state[i] = v
                accepted += 1
            if rate > 0.0:
                self.scales[i] = _adapt(self.scales[i], ok, rate, target)
        return accepted


class _GibbsChain:
    """Target: exp(-beta sum Phi - beta sum_{i<j} Psi) in three dimensions."""

    def __init__(self, spec: ModelSpec, opts: McmcOptions, interaction: bool):
        if spec.family not in (Family.LENNARD_JONES, Family.RIESZ):
            raise ValueError("gibbs chain supports the 3d families only")
        self.spec = spec
        self.opts = opts
        self.interaction = interaction
        n = spec.n_particles
        side = max(1, math.ceil(n ** (1.0 / 3.0)))
        grid = np.array(
            [(i, j, k) for i in range(side) for j in range(side) for k in range(side)],
            dtype=float,
        )[:n]
        self.state = 1.4 * (grid - grid.mean(axis=0))
        base = opts.initial_scale if opts.initial_scale is not None else 0.4
        self.scales = np.full(n, float(base))
        self.n = n

    def _pair_sum(self, i: int, pos: np.ndarray) -> float:
        d = self.state - pos
        d[i] = np.inf
        r2 = np.sum(d * d, axis=1)
        if self.spec.family is Family.LENNARD_JONES:
            inv6 = 1.0 / r2**3
            vals = inv6 * inv6 - inv6
        else:
            a = self.spec.riesz_a
            vals = r2 ** (-a / 2.0) / a
        vals[i] = 0.0
        return float(np.sum(vals))

    def _delta_energy(self, i: int, v: np.ndarray) -> float:
        spec = self.spec
        old = self.state[i]
        scale = spec.free_c / spec.n_particles**spec.free_theta
        de = spec.beta * scale * (float(v @ v) - float(old @ old))
        if self.interaction and self.n > 1:
            de += spec.beta * (self._pair_sum(i, v) - self._pair_sum(i, old))
        return de

    def sweep(self, g: np.random.Generator, rate: float) -> int:
        accepted = 0
        target = self.opts.target_acceptance
        xi = g.standard_normal((self.n, 3))
        logu = -g.exponential(size=self.n)
        for i in range(self.n):
            v = self.state[i] + self.scales[i] * xi[i]
            de = self._delta_energy(i, v)
            # log-space comparison; an infinite de (overlap) rejects on its own
            ok = logu[i] < -de
            if ok:
                self.state[i] = v.copy()
                accepted += 1
            if rate > 0.0:
                self.scales[i] = _adapt(self.scales[i], ok, rate, target)
        return accepted


def _run_chain(chain, g: np.random.Generator, n_samples: int, opts: McmcOptions, seed):
    t0 = time.perf_counter()
    for sweep in range(opts.burn_in_sweeps):
        # Robbins-Monro style decay keeps late adaptation gentle
        rate = 0.25 * 100.0 / (100.0 + sweep)
        chain.sweep(g, rate)
    kept = []
    accepted = 0
    proposals = 0
    for _ in range(n_samples):
        for _ in range(opts.thin_sweeps):
            accepted += chain.sweep(g, 0.0)
            proposals += chain.n
        kept.append(Configuration(chain.state.copy()))
    acc = accepted / proposals if proposals else 0.0
    rep = SamplerReport(
        n_samples=n_samples,
        acceptance_rate=acc,
        seed=seed,
        wall_time=time.perf_counter() - t0,
        proposal_scale=float(np.mean(chain.scales)),
        converged=0.1 <= acc <= 0.9,
    )
    return kept, rep


def sample_bessel_chain(
    n: int, alpha: float, rng, n_samples: int, *, options: McmcOptions | None = None
) -> tuple[list[Configuration], SamplerReport]:
    """Thinned Metropolis draws of the hard-edge equilibrium."""
    if alpha < 1.0:
        raise ValueError("alpha must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    opts = options or McmcOptions()
    g, seed = _resolve_rng(rng)
    chain = _HardEdgeChain(n, alpha, opts)
    return _run_chain(chain, g, n_samples, opts, seed)


def sample_bessel_equilibrium(n: int, alpha: float, rng, *, options: McmcOptions | None = None) -> Configuration:
    """Single hard-edge equilibrium draw (full burn-in; use the chain helper
    when many draws are needed)."""
    samples, _ = sample_bessel_chain(n, alpha, rng, 1, options=options)
    return samples[0]


def sample_gibbs_chain(
    spec: ModelSpec,
    rng,
    n_samples: int,
    *,
    options: McmcOptions | None = None,
    interaction: bool = True,
) -> tuple[list[Configuration], SamplerReport]:
    """Thinned Metropolis draws of the 3d Gibbs equilibrium.

    ``interaction=False`` drops the pair potential; the target then factors
    into independent centered Gaussians of variance n^theta / (2 beta c)
    per coordinate, which anchors the chain against a closed form.
    """
    opts = options or McmcOptions()
    g, seed = _resolve_rng(rng)
    chain = _GibbsChain(spec, opts, interaction)
    return _run_chain(chain, g, n_samples, opts, seed)


def sample_gibbs_mcmc(
    spec: ModelSpec, rng, *, options: McmcOptions | None = None, interaction: bool = True
) -> Configuration:
    """Single draw of the 3d Gibbs equilibrium."""
    samples, _ = sample_gibbs_chain(spec, rng, 1, options=options, interaction=interaction)
    return samples[0]
