"""Equilibrium samplers for the supported families.

Exact matrix models cover the soft-edge ensemble (symmetric
tridiagonal, any beta > 0), the hard-edge ensemble (bidiagonal
Laguerre, beta = 2) and the planar ensemble (complex Gaussian spectrum).
The 3d Lennard-Jones and Riesz systems have no matrix model: one
Metropolis chain samples them, with per-particle Gaussian moves whose
scales adapt toward a 0.3 acceptance during burn-in and are frozen
afterwards, and the energy change ``models._energy_change(spec)``.

Samplers accept an RngStream (preferred; the seed lands in the report)
or a bare numpy Generator, refuse ``n_samples < 1`` before any draw and
return the draws, an (S, n, d) float array, plus a SamplerReport.  A
window's point count varies, so windowed draws are a list of ascending
1-D arrays.  Three wrappers serve only the benchmark (see ``_Points``).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from . import kernels
from .core import ModelSpec, _checked_number, _resolve_rng
from .models import _energy_change

__all__ = [
    "SamplerReport",
    "McmcOptions",
    "sample_airy_equilibrium",
    "sample_airy_ensemble",
    "sample_airy_field",
    "sample_ginibre",
    "sample_ginibre_ensemble",
    "sample_bessel_ensemble",
    "sample_bessel_chain",
    "sample_gibbs_chain",
]


@dataclass(frozen=True)
class SamplerReport:
    n_samples: int
    acceptance_rate: float | None
    seed: int | None
    wall_time: float
    converged: bool = True

    def __post_init__(self) -> None:
        if self.acceptance_rate is not None and not (0.0 <= self.acceptance_rate <= 1.0):
            raise ValueError("acceptance_rate must lie in [0, 1]")


class _Points:
    """One draw as the read-only (n, d) array ``.points``, as the benchmark's
    callers of the three wrappers below read it; numpy reads it as that array."""

    def __init__(self, points: np.ndarray):
        points.flags.writeable = False
        self.points = points

    def __array__(self, dtype=None, copy=None):
        return np.array(self.points, dtype=dtype, copy=copy)


def _exact_draws(rng, n_samples: int, draw) -> tuple[list, SamplerReport]:
    """``draw(g)`` n_samples times on the caller's generator, and an exact sampler's report."""
    _checked_number("n_samples", n_samples, at_least=1, whole=True)
    g, seed = _resolve_rng(rng)
    t0 = time.perf_counter()
    rows = [draw(g) for _ in range(n_samples)]
    return rows, SamplerReport(n_samples=n_samples, acceptance_rate=None, seed=seed, wall_time=time.perf_counter() - t0)


@dataclass(frozen=True)
class McmcOptions:
    burn_in_sweeps: int = 10_000
    thin_sweeps: int = 10

    def __post_init__(self) -> None:
        _checked_number("burn_in_sweeps", self.burn_in_sweeps, at_least=0, whole=True)
        _checked_number("thin_sweeps", self.thin_sweeps, at_least=1, whole=True)


# ---------------------------------------------------------------------------
# soft edge: beta ensembles mapped to edge coordinates
# ---------------------------------------------------------------------------


# margin by which a window is widened before bisection, so that rounding in
# the map to edge coordinates cannot lose a point on its boundary
_WINDOW_PAD = 1e-6


def _window_pair(window, support=(None, None)) -> tuple[float, float]:
    """``window`` as the float pair (lo, hi): both ends finite, lo < hi, and
    inside ``support`` where it is given; anything else is refused, naming
    ``window``, before any draw."""
    if len(window) != 2:
        raise ValueError(f"window must be a pair (lo, hi), got {window!r}")
    lo = float(_checked_number("window[0]", window[0], at_least=support[0]))
    return lo, float(_checked_number("window[1]", window[1], above=lo, at_most=support[1]))


def _edge_spectrum_tridiagonal(n: int, beta: float, g: np.random.Generator, window=None) -> np.ndarray:
    """One draw of the edge-scaled spectrum; with ``window = (lo, hi)`` only
    the points in [lo, hi], found by bisection, from the same stream."""
    diag = g.standard_normal(n)
    # tridiagonal model realizes the quadratic weight exp(-sum l^2/2);
    # rescaling matches the target weight exp(-(beta/4) sum l^2)
    scale = math.sqrt(2.0 / beta)
    if n > 1:
        df = beta * np.arange(n - 1, 0, -1)
        off = np.sqrt(g.chisquare(df)) / math.sqrt(2.0)
        if window is None:
            lam = eigvalsh_tridiagonal(diag, off)
        else:
            span = [(v / n ** (1.0 / 6.0) + 2.0 * math.sqrt(n)) / scale for v in window]
            pad = _WINDOW_PAD / n ** (1.0 / 6.0) / scale
            lam = eigvalsh_tridiagonal(diag, off, select="v", select_range=(span[0] - pad, span[1] + pad))
    else:
        lam = diag
    x = n ** (1.0 / 6.0) * (np.sort(lam) * scale - 2.0 * math.sqrt(n))
    if window is not None:
        x = x[(x >= window[0]) & (x <= window[1])]
    return x


def _edge_spectrum_dense(n: int, beta: float, g: np.random.Generator) -> np.ndarray:
    """Edge-scaled spectrum of a dense Gaussian matrix, beta in {1, 2, 4}: the tests' reference."""
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


def sample_airy_equilibrium(n: int, beta: float, rng) -> _Points:
    """``sample_airy_ensemble(n, beta, rng, 1)``'s one draw as a ``.points``
    holder; kept for the benchmark's callers."""
    return _Points(sample_airy_ensemble(n, beta, rng, 1)[0][0])


def sample_airy_ensemble(
    n: int, beta: float, rng, n_samples: int, *, window=None
) -> tuple[np.ndarray | list[np.ndarray], SamplerReport]:
    """n_samples independent draws of the soft-edge n-particle ensemble,
    shape (n_samples, n, 1), each draw ascending, from the tridiagonal
    model (Dumitriu & Edelman 2002), exact at every beta > 0.

    Coordinates are the edge-scaled spectrum x = n^(1/6) (lambda - 2 sqrt(n)).

    With ``window = (lo, hi)``, finite with lo < hi, each draw keeps only
    its points in [lo, hi], computed by bisection rather than as the full
    spectrum, and the rows come as a list of ascending arrays.  The
    generator stream is that of the full draws, so a windowed row holds
    the full row's points in the window, up to the rounding of the
    eigenvalue solver.
    """
    _checked_number("n", n, at_least=1, whole=True)
    _checked_number("beta", beta, above=0)
    if window is not None:
        window = _window_pair(window)
    rows, rep = _exact_draws(rng, n_samples, lambda g: _edge_spectrum_tridiagonal(n, beta, g, window))
    return (rows if window is not None else np.stack(rows)[..., None]), rep


# ---------------------------------------------------------------------------
# hard edge: the beta = 2 Laguerre ensemble
# ---------------------------------------------------------------------------


def sample_bessel_ensemble(n: int, alpha: float, rng, n_samples: int) -> tuple[np.ndarray, SamplerReport]:
    """n_samples independent draws of the hard-edge n-particle ensemble,
    density prop. to prod x_i^alpha e^(-x_i/(4n)) prod_(i<j) |x_i - x_j|^2
    on (0, inf)^n, as (n_samples, n, 1) points, each draw ascending.

    Exact for every real alpha >= 1: the bidiagonal beta = 2 Laguerre
    model (Dumitriu & Edelman 2002), B lower bidiagonal with diagonal
    chi_(2(alpha+n-i)), i < n, and subdiagonal chi_(2(n-1-i)), i < n - 1,
    and x = 2n eig(B^T B).  Each draw takes the n squared diagonal
    entries from the generator, then the n - 1 squared subdiagonal ones.
    """
    _checked_number("n", n, at_least=1, whole=True)
    _checked_number("alpha", alpha, at_least=1)
    i = np.arange(n)
    df_diag, df_sub = 2.0 * (alpha + n - i), 2.0 * (n - 1 - i[:-1])

    def draw(g: np.random.Generator) -> np.ndarray:
        d2, e2 = g.chisquare(df_diag), g.chisquare(df_sub)
        # B^T B: diagonal d_i^2 + e_i^2 (d^2 alone in the last row), off-diagonal e_i d_(i+1)
        return 2.0 * n * eigvalsh_tridiagonal(d2 + np.append(e2, 0.0), np.sqrt(e2 * d2[1:]))

    rows, rep = _exact_draws(rng, n_samples, draw)
    return np.stack(rows)[..., None], rep


def sample_bessel_chain(
    n: int, alpha: float, rng, n_samples: int, *, options: McmcOptions | None = None
) -> tuple[list[_Points], SamplerReport]:
    """``sample_bessel_ensemble``'s draws as ``.points`` holders, kept for the
    benchmark's callers; ``options`` is accepted and unused (the draws are exact)."""
    draws, rep = sample_bessel_ensemble(n, alpha, rng, n_samples)
    return [_Points(d) for d in draws], rep


# ---------------------------------------------------------------------------
# planar ensemble
# ---------------------------------------------------------------------------


def _planar_points(n: int, g: np.random.Generator) -> np.ndarray:
    gm = (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / math.sqrt(2.0)
    lam = np.linalg.eigvals(gm)
    return np.column_stack([lam.real, lam.imag])


def sample_ginibre(n: int, rng) -> _Points:
    """``sample_ginibre_ensemble(n, rng, 1)``'s one draw as a ``.points``
    holder; kept for the benchmark's callers."""
    return _Points(sample_ginibre_ensemble(n, rng, 1)[0][0])


def sample_ginibre_ensemble(n: int, rng, n_samples: int) -> tuple[np.ndarray, SamplerReport]:
    """n_samples draws of the eigenvalues of an n x n complex Gaussian
    matrix, unit entry variance, as (n_samples, n, 2) points; their
    density fills the disk of radius sqrt(n) with intensity 1/pi."""
    _checked_number("n", n, at_least=1, whole=True)
    rows, rep = _exact_draws(rng, n_samples, lambda g: _planar_points(n, g))
    return np.stack(rows), rep


# ---------------------------------------------------------------------------
# soft-edge limit field (beta = 2)
# ---------------------------------------------------------------------------


# cap on samples * r * r chain-rule coefficients held per block (r = kept
# eigenvectors, about 32 MB); larger requests run as consecutive blocks
_BLOCK_COEFFS = 1 << 22

# cell width of the midpoint grid the kernel is discretized on
_GRID_STEP = 0.04

# eigenvalues of h*K at or below this cut are dropped from the basis
_EIG_CUT = 1e-12

# columns the range finder's sketch holds beyond the expected point count,
# and the fixed seed of its Gaussian test matrix: the basis never touches
# the caller's generator
_SKETCH_SLACK = 50
_SKETCH_SEED = 20110217

# cells per chunk of the two-level pick search (``_pick_cells``); near the
# square root of the cell count, so the chunk totals and the one chunk
# searched per pick are both short
_PICK_CHUNK = 64

@functools.lru_cache(maxsize=1)
def _field_basis(lo: float, hi: float):
    """Midpoint grid of cells of width about ``_GRID_STEP`` over (lo, hi),
    cell width h, and the eigenpairs of h*K above 1e-12, eigenvalues
    ascending and clipped to [0, 1].

    The basis depends on the window alone, so the last window's basis is
    kept for the life of the process, read-only (about 4 MB on (-92, 6)),
    and a repeat call on that window returns the same arrays without a
    build.  A build that raises stores nothing.

    The eigenpairs come from a randomized range finder with one power
    iteration (Halko, Martinsson & Tropp 2011, SIAM Rev. 53:217):
    Q = qr(hK qr(hK Omega)) with a Gaussian Omega of width
    ell = min(m, ceil(tr hK) + 50), the trace (the midpoint expansion's
    diagonal) being the expected point count, then Rayleigh-Ritz on
    Q^T hK Q.  The kernel's eigenvalues fall super-exponentially past the
    point count, so the Ritz values of the kept pairs match a full
    eigensolve to rounding.  The sketch checks itself: unless half the
    slack of its Ritz values falls below the cut, it doubles ell and runs
    again, up to the full space.  Its products with hK are built from
    kernel row blocks made on the fly, never the m x m matrix: O(m ell)
    memory plus one block.
    """
    m = math.ceil((hi - lo) / _GRID_STEP)
    h = (hi - lo) / m
    x = lo + h * (np.arange(m) + 0.5)
    count = float(np.sum(h * kernels._airy_taylor(x, x)))  # finite: scipy's Ai on an in-support grid
    fill, rows = kernels._airy_rows(x), np.empty((min(m, kernels._KERNEL_ROWS), m))

    def times_hk(b: np.ndarray) -> np.ndarray:
        out = np.empty((m, b.shape[1]))
        for s in range(0, m, len(rows)):
            fill(rows[: m - s], s)
            rows[: m - s] *= h
            np.matmul(rows[: m - s], b, out=out[s : s + len(rows)])
        if not np.isfinite(out).all():
            raise ValueError("sample_airy_field: kernel matrix is not finite")
        return out

    ell = min(m, math.ceil(count) + _SKETCH_SLACK)
    while True:
        omega = np.random.default_rng(_SKETCH_SEED).standard_normal((m, ell))
        # numpy's QR and eigh, on the OpenBLAS of numpy's products: scipy's
        # bundled second one ran QR about twice as slow right after them
        q = np.linalg.qr(times_hk(np.linalg.qr(times_hk(omega))[0]))[0]
        lam, w = np.linalg.eigh(q.T @ times_hk(q))
        keep = lam > _EIG_CUT
        if ell == m or ell - np.count_nonzero(keep) >= _SKETCH_SLACK // 2:
            break
        ell = min(m, 2 * ell)
    lam, vecs = np.clip(lam[keep], 0.0, 1.0), q @ w[:, keep]
    for a in (x, lam, vecs):
        a.flags.writeable = False
    return x, h, lam, vecs


def _pick_cells(vecs: np.ndarray, masks: np.ndarray, picks: list, first: int) -> list[np.ndarray]:
    """Chain-rule cells for a block of samples of the projection kernels
    ``vecs[:, mask] @ vecs[:, mask].T``; ``picks[b]`` holds sample b's pick
    uniforms and ``first`` is the block's first sample index.

    Column t of a sample's Cholesky factor is kept as coefficients a_t in
    the eigenbasis, col_t = vecs @ a_t.  With v = vecs[i] for the picked
    cell i, a_t = (mask * v - sum_j a_j (v . a_j)) / sqrt(pivot), where the
    pivot is the r-length dot of the unscaled a_t with v, so step t of
    every sample in the block is one shared product of the (B, r)
    coefficients with vecs.T plus O(B r t) work.  Samples run in order of
    decreasing point count, so the samples still picking at step t are a
    prefix of the block.

    A pick inverts the cumulative remaining mass in two levels, so no
    cumulative sum over all m cells is taken: the cells are padded with
    zero-mass cells to whole chunks of ``_PICK_CHUNK``, a running sum of
    the chunk totals finds the chunk in which u times the total mass is
    first passed, and a cumulative sum inside that one chunk finds the
    cell.  This is the ``searchsorted`` of ``Generator.choice`` up to the
    rounding of the sums, which can move a pick only when u lies within
    rounding of a cell boundary.  A pick that rounding leaves at or past
    the mass of its row or of its chunk goes to the last cell with mass.
    """
    m, r = vecs.shape
    w = _PICK_CHUNK
    n_chunks = -(-m // w)
    vt = np.zeros((r, n_chunks * w))
    vt[:, :m] = vecs.T
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
        # remaining mass per cell, clipped at 0, and the running mass of
        # the chunks: run[:, c] sums the chunks before chunk c
        left = np.empty_like(diag)
        run = np.zeros((len(order), n_chunks + 1))
        for t in range(n_max):
            k = int(np.count_nonzero(counts > t))
            rows = np.arange(k)
            p = np.maximum(diag[:k], 0.0, out=left[:k]).reshape(k, n_chunks, w)
            np.cumsum(p.sum(axis=2), axis=1, out=run[:k, 1:])
            mass = run[:k, -1]
            bad = ~((mass > 0.0) & (mass < np.inf))
            for row in np.flatnonzero(bad):
                trouble.setdefault(int(row), (t, float(mass[row])))
            level = u[:k, t] * mass
            # clamping to the last chunk with mass keeps every index in range
            c = np.minimum(
                np.count_nonzero(run[:k, 1:] <= level[:, None], axis=1),
                np.count_nonzero(run[:k, 1:] < mass[:, None], axis=1),
            )
            cum = p[rows, c]
            cum[:, 0] += run[rows, c]
            np.cumsum(cum, axis=1, out=cum)
            j = np.minimum(
                np.count_nonzero(cum <= level[:, None], axis=1),
                np.count_nonzero(cum < cum[:, -1:], axis=1),
            )
            i = c * w + j
            vi = vecs[i]
            a = sel[:k] * vi
            if t:
                prev = coef[:k, :t]
                a -= np.matmul(np.matmul(prev, vi[:, :, None]).transpose(0, 2, 1), prev)[:, 0]
            pivot = np.einsum("kr,kr->k", a, vi)
            a /= np.sqrt(np.maximum(pivot, 1e-300))[:, None]
            coef[:k, t] = a
            col = a @ vt
            col *= col
            diag[:k] -= col
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


def sample_airy_field(window: tuple[float, float], rng, n_samples: int) -> tuple[list[np.ndarray], SamplerReport]:
    """Draws of the beta = 2 soft-edge limit field restricted to a window.

    The correlation kernel is discretized on a midpoint grid, in cells of
    width about ``_GRID_STEP``, over ``window = (lo, hi)``, a pair that
    must be finite with lo < hi and lie in ``kernels.AIRY_SUPPORT``.  Its
    eigenpairs above 1e-12 come from a randomized range finder with
    Rayleigh-Ritz (``_field_basis``), whose Gaussian test matrix has a
    fixed seed of its own, so the basis depends on the window alone and
    draws nothing from ``rng``; it is built from kernel row blocks in
    O(m ell) memory plus one block, and the last window's is reused (see
    ``_field_basis``).  Each sample Bernoulli-thins the eigenfunctions and
    then selects cells sequentially by the chain rule for projection
    kernels (Schur complements, Hough-Krishnapur-Peres-Virag), and each
    selected cell gets a uniform jitter of one cell width.  The chain rule
    runs batched: samples go in blocks, and one matrix product with the
    eigenvectors serves every sample of a block at each step; each pick
    searches the totals of chunks of cells and then one chunk
    (``_pick_cells``).  Per sample the generator gives, in this order, one
    uniform per kept eigenvalue, one per point for the cell picks and one
    per point for the jitter -- the stream of a sample-by-sample loop that
    picks cells with ``Generator.choice``, whose picks these match up to
    the rounding of the cumulative sums, so the draws do not depend on the
    blocking.  Returns one ascending array per sample (the point count
    varies) plus a report.  Raises ValueError if the kernel matrix is not
    finite, and, naming the sample and the step, if the remaining kernel
    mass of a pick is not finite and positive.

    Unlike the matrix models this realizes the infinite system's own
    equilibrium on the window: the mean density is the kernel diagonal
    with no finite-matrix distortion, which matters when window sums are
    compared against limit formulas.
    """
    lo, hi = _window_pair(window, kernels.AIRY_SUPPORT)
    _checked_number("n_samples", n_samples, at_least=1, whole=True)
    g, seed = _resolve_rng(rng)
    t0 = time.perf_counter()

    x, h, lam, vecs = _field_basis(lo, hi)
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
# Metropolis chain
# ---------------------------------------------------------------------------


# acceptance share the proposal scales adapt toward during burn-in
_TARGET_ACCEPTANCE = 0.3


def _chain_start(spec: ModelSpec) -> np.ndarray:
    """The chain's start, one row per particle: the first n points of a cubic lattice, row-major."""
    n = spec.n_particles
    side = max(1, math.ceil(n ** (1.0 / 3.0)))
    grid = np.stack(np.unravel_index(np.arange(n), (side,) * 3), axis=1).astype(float)
    return 1.4 * (grid - grid.mean(axis=0))


def sample_gibbs_chain(
    spec: ModelSpec, rng, n_samples: int, *, options: McmcOptions | None = None
) -> tuple[np.ndarray, SamplerReport]:
    """Thinned Metropolis draws of the equilibrium of a ``lennard_jones``
    or ``riesz`` spec; shape (n_samples, n, 3).

    Per-particle Gaussian moves, one proposal scale per particle; the
    energy change comes from ``models._energy_change`` and is +inf where
    the target vanishes, so such a move is rejected.
    """
    _checked_number("n_samples", n_samples, at_least=1, whole=True)
    g, seed = _resolve_rng(rng)
    delta_energy = _energy_change(spec)
    opts = options or McmcOptions()
    state = _chain_start(spec)
    n = len(state)
    scales = np.full(n, 0.4)  # every particle's proposal scale before adaptation

    def sweep(rate: float) -> int:
        accepted = 0
        xi = g.standard_normal(state.shape)
        # -Exp(1) draws are log-uniforms without the log(0) edge
        logu = -g.exponential(size=n)
        for i in range(n):
            v = state[i] + scales[i] * xi[i]
            ok = logu[i] < -delta_energy(state, i, v)
            if ok:
                state[i] = v
                accepted += 1
            if rate > 0.0:
                scales[i] *= math.exp(rate * ((1.0 if ok else 0.0) - _TARGET_ACCEPTANCE))
        return accepted

    t0 = time.perf_counter()
    for k in range(opts.burn_in_sweeps):
        # Robbins-Monro style decay keeps late adaptation gentle
        sweep(0.25 * 100.0 / (100.0 + k))
    kept = np.empty((n_samples, n, spec.dimension))
    accepted = 0
    for k in range(n_samples):
        for _ in range(opts.thin_sweeps):
            accepted += sweep(0.0)
        kept[k] = state
    acc = accepted / (n_samples * opts.thin_sweeps * n)
    rep = SamplerReport(
        n_samples=n_samples, acceptance_rate=acc, seed=seed, wall_time=time.perf_counter() - t0, converged=0.1 <= acc <= 0.9
    )
    return kept, rep
