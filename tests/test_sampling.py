import math
import os
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.spatial
from scipy.special import gammainc
from scipy.stats import ks_2samp

from ibrownian import core
from ibrownian.core import Family, ModelSpec, RngStream
from ibrownian import kernels as K
from ibrownian import models as M
from ibrownian import sampling as S

import oracles


class TestSoftEdgeSampler:
    def test_single_particle_law(self):
        # n=1: edge coordinate is lambda - 2 with lambda ~ Normal(0, 2/beta)
        for beta in (1.0, 2.0):
            draws, _ = S.sample_airy_ensemble(1, beta, RngStream(100 + int(beta)), 4000)
            ks = oracles.one_sample_ks(draws[:, 0, 0], lambda v: oracles.normal_cdf(v, -2.0, math.sqrt(2.0 / beta)))
            assert ks <= 0.03

    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_tridiagonal_matches_dense(self, beta):
        # the dense Gaussian matrix models are the independent reference:
        # check 12's at beta = 2, the matrix OU oracle's stationary law
        # (t = inf, so the start has weight 0) at beta = 1 and 4
        a, _ = S.sample_airy_ensemble(8, beta, RngStream(1), 3000)
        g = RngStream(2).generator()
        if beta == 2.0:
            b = np.array([S._edge_spectrum_dense(8, g) for _ in range(3000)])
        else:
            lam = oracles.matrix_ou_oracle(beta, np.zeros((3000, 8)), math.inf, g)
            b = 8 ** (1.0 / 6.0) * (lam - 2.0 * math.sqrt(8))
        assert ks_2samp(a.ravel(), b.ravel()).statistic <= 0.035

    def test_two_particle_law_against_rejection_oracle(self):
        draws, _ = S.sample_airy_ensemble(2, 2.0, RngStream(9), 6000)
        rej = oracles.soft_edge_pair_rejection(2.0, 6000, np.random.default_rng(10))
        gaps = draws[:, 1, 0] - draws[:, 0, 0]
        rej_gaps = np.abs(rej[:, 0] - rej[:, 1])
        assert ks_2samp(gaps, rej_gaps).statistic <= 0.035
        assert ks_2samp(draws.ravel(), rej.ravel()).statistic <= 0.035
        assert np.mean(gaps) > 0

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_small_gap_repulsion_exponent(self, beta):
        # P(gap < eps) ~ eps^(beta+1)
        draws, _ = S.sample_airy_ensemble(2, beta, RngStream(11), 8000)
        gaps = np.sort(draws[:, 1, 0] - draws[:, 0, 0])
        lo, hi = np.quantile(gaps, 0.002), np.quantile(gaps, 0.08)
        grid = np.geomspace(lo, hi, 10)
        emp = np.searchsorted(gaps, grid) / len(gaps)
        design = np.vstack([np.log(grid), np.ones_like(grid)]).T
        slope = np.linalg.lstsq(design, np.log(np.maximum(emp, 1e-12)), rcond=None)[0][0]
        assert abs(slope - (beta + 1.0)) <= 0.4

    def test_rows_ascending(self):
        draws, _ = S.sample_airy_ensemble(6, 2.0, RngStream(3), 50)
        assert draws.shape == (50, 6, 1)
        assert np.all(np.diff(draws, axis=1) > 0)

    def test_determinism(self):
        a, _ = S.sample_airy_ensemble(5, 2.0, RngStream(77), 2)
        b, _ = S.sample_airy_ensemble(5, 2.0, RngStream(77), 2)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            S.sample_airy_ensemble(0, 2.0, RngStream(1), 1)
        with pytest.raises(ValueError):
            S.sample_airy_ensemble(3, -1.0, RngStream(1), 1)
        # the tridiagonal model is the one soft-edge sampler
        with pytest.raises(TypeError):
            S.sample_airy_ensemble(3, 2.0, RngStream(1), 1, method="dense")

    @pytest.mark.parametrize(
        "n, beta, window",
        [(400, 2.0, (-4.0, 2.0)), (30, 1.0, (-3.0, 0.5)), (5, 4.0, (-6.0, -2.0)), (1, 2.0, (-3.0, -1.0))],
    )
    def test_window_is_the_full_spectrum_restricted(self, n, beta, window):
        a, b = np.random.default_rng(51), np.random.default_rng(51)
        full, _ = S.sample_airy_ensemble(n, beta, a, 300)
        part, _ = S.sample_airy_ensemble(n, beta, b, 300, window=window)
        assert a.bit_generator.state == b.bit_generator.state
        lo, hi = window
        assert len(part) == 300 and sum(p.size for p in part) > 0
        for row, got in zip(full, part):
            want = row[(row >= lo) & (row <= hi)]
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0.0, atol=1e-10)

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            S.sample_airy_ensemble(5, 2.0, RngStream(1), 5, window=(1.0, -1.0))
        with pytest.raises(ValueError, match="window"):
            S.sample_airy_ensemble(5, 2.0, RngStream(1), 5, window=(1.0, 1.0))

    @pytest.mark.parametrize("window", [(-1.0, math.inf), (-math.inf, 0.0), (math.nan, 0.0), (0.0, math.nan)])
    def test_window_with_an_end_that_is_not_finite_is_refused_before_any_draw(self, window):
        # an infinite end would reach the bisection's select range, which
        # then selects nothing (upper end) or everything (lower end)
        g = np.random.default_rng(5)
        state = g.bit_generator.state
        with pytest.raises(ValueError, match="window"):
            S.sample_airy_ensemble(5, 2.0, g, 2, window=window)
        assert g.bit_generator.state == state

    @pytest.mark.parametrize("window", [(-3.0, 0.0, 99.0), (-3.0,)])
    def test_window_that_is_not_a_pair_is_refused_before_any_draw(self, window):
        g = np.random.default_rng(5)
        state = g.bit_generator.state
        with pytest.raises(ValueError, match="window"):
            S.sample_airy_ensemble(50, 2.0, g, 3, window=window)
        assert g.bit_generator.state == state

    def test_ensemble_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            S.sample_airy_ensemble(0, 2.0, RngStream(1), 5)
        with pytest.raises(ValueError, match="beta must be"):
            S.sample_airy_ensemble(5, -1.0, RngStream(1), 5)
        with pytest.raises(ValueError, match="beta must be"):
            S.sample_airy_ensemble(5, 0.0, RngStream(1), 5)


class TestPlanarSampler:
    def test_single_point_squared_modulus_is_exponential(self):
        pts, _ = S.sample_ginibre_ensemble(1, RngStream(12), 5000)
        r2 = np.sum(pts[:, 0, :] ** 2, axis=1)
        ks = oracles.one_sample_ks(r2, lambda v: 1.0 - np.exp(-np.asarray(v)))
        assert ks <= 0.03

    def test_bulk_intensity(self):
        pts, _ = S.sample_ginibre_ensemble(64, RngStream(13), 40)
        radius = 0.6 * math.sqrt(64)
        inside = int(np.sum(np.sum(pts**2, axis=2) < radius * radius))
        density = inside / (40 * math.pi * radius * radius)
        assert density * math.pi == pytest.approx(1.0, rel=0.1)

    def test_shape_and_determinism(self):
        c, _ = S.sample_ginibre_ensemble(7, RngStream(14), 2)
        assert c.shape == (2, 7, 2)
        d, _ = S.sample_ginibre_ensemble(7, RngStream(14), 2)
        assert np.array_equal(c, d)

    def test_ensemble_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            S.sample_ginibre_ensemble(0, RngStream(1), 5)

    def test_draws_do_not_depend_on_the_blas_thread_count(self):
        # unpinned, eigvals at n = 100 gave other bits under 1 and 2 threads
        lib = _openblas_or_skip()
        before = lib.scipy_openblas_get_num_threads64_()
        draws = []
        try:
            for threads in (1, 2):
                lib.scipy_openblas_set_num_threads64_(threads)
                draws.append(S.sample_ginibre_ensemble(100, RngStream(15), 2)[0])
                assert lib.scipy_openblas_get_num_threads64_() == threads
        finally:
            lib.scipy_openblas_set_num_threads64_(before)
        assert draws[0].tobytes() == draws[1].tobytes()


class TestSoftEdgeField:
    # window realizations of the infinite soft-edge system; the matrix samplers
    # above cannot produce these (they carry the finite-size density bend)

    def test_mean_count_matches_kernel_trace(self):
        envs, _ = S.sample_airy_field((-10.0, 2.0), RngStream(41), 800)
        counts = np.array([len(e) for e in envs])
        grid = np.linspace(-10.0, 2.0, 4801)
        trace = np.trapezoid([K.airy_kernel(x, x) for x in grid], grid)
        assert abs(counts.mean() - trace) <= 0.1
        # count fluctuations are far below Poisson for a projection process
        assert counts.var(ddof=1) <= 0.3 * counts.mean()

    def test_binwise_density_matches_kernel_diagonal(self):
        envs, _ = S.sample_airy_field((-10.0, 2.0), RngStream(41), 800)
        edges = np.linspace(-10.0, 2.0, 25)
        hist, _ = np.histogram(np.concatenate(envs), bins=edges)
        ref = np.empty(edges.size - 1)
        for i in range(ref.size):
            g = np.linspace(edges[i], edges[i + 1], 21)
            ref[i] = np.trapezoid([K.airy_kernel(x, x) for x in g], g)
        assert np.max(np.abs(hist / 800.0 - ref) / np.diff(edges)) <= 0.12

    def test_top_point_matches_matrix_edge(self):
        # rightmost point of the field vs the scaled top eigenvalue: two unrelated
        # algorithms, one law (up to finite-size error in the matrix side)
        envs, _ = S.sample_airy_field((-10.0, 2.0), RngStream(41), 800)
        tops = np.array([e[-1] for e in envs if len(e)])
        tri, _ = S.sample_airy_ensemble(200, 2.0, RngStream(42), 800)
        assert ks_2samp(tops, tri[:, -1, 0]).statistic <= 0.08

    def test_points_sorted_within_window(self):
        envs, rep = S.sample_airy_field((-6.0, 1.0), RngStream(43), 50)
        assert rep.n_samples == 50
        for e in envs:
            assert np.all(e >= -6.0) and np.all(e <= 1.0)
            assert np.all(np.diff(e) > 0)

    def test_determinism(self):
        a, _ = S.sample_airy_field((-6.0, 2.0), RngStream(7), 3)
        b, _ = S.sample_airy_field((-6.0, 2.0), RngStream(7), 3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_validation(self):
        with pytest.raises(ValueError):
            S.sample_airy_field((2.0, -2.0), RngStream(1), 10)
        with pytest.raises(ValueError):
            S.sample_airy_field((-2.0, 2.0), RngStream(1), 0)

    @pytest.mark.parametrize(
        "window",
        [
            (-math.inf, 0.0), (math.nan, 0.0), (-200.0, 0.0), (0.0, 0.0), (-2.0, 10.01), (-2.0, math.inf),
            (-2.0, 1.0, -50.0), (-2.0,),
        ],
    )
    def test_window_outside_airy_support_is_refused_before_any_draw(self, window):
        # the window must be a finite pair, with lo < hi, inside kernels.AIRY_SUPPORT;
        # (-2, 10.01) reaches less than half a cell past the support
        g = np.random.default_rng(5)
        state = g.bit_generator.state
        with pytest.raises(ValueError, match="window"):
            S.sample_airy_field(window, g, 10)
        assert g.bit_generator.state == state

    def test_number_variance_matches_kernel_formula(self):
        # Var N = int K(x,x) - int int K(x,y)^2 on the window, by the midpoint
        # rule on 1400 cells (it moves by 1e-5 from 700 to 2800 cells)
        lo, hi, n_samples = -6.0, 1.0, 10_000
        h = (hi - lo) / 1400
        grid = lo + h * (np.arange(1400) + 0.5)
        km = K.kernel_grid("airy2", grid)
        var = h * np.trace(km) - h * h * np.sum(km * km)
        # the count is a sum of independent Bernoullis, whose fourth cumulants
        # p q (1 - 6 p q) are at most p q, so Var(s^2) <= (2 var^2 + var) / N
        tol = 4.0 * math.sqrt((2.0 * var * var + var) / n_samples)
        envs, _ = S.sample_airy_field((lo, hi), RngStream(44), n_samples)
        counts = np.array([len(e) for e in envs])
        assert abs(counts.var(ddof=1) - var) <= tol


def _same_draws(a, b):
    return len(a) == len(b) and all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b))


def _openblas_or_skip():
    lib = core._openblas()
    if lib is None:
        pytest.skip("numpy carries no scipy-openblas library to pin")
    return lib


def _spy_lanes(monkeypatch):
    # the lane count of every block the field sampler runs
    seen, real = [], S._pick_cells

    def pick_cells(*args):
        seen.append(args[-1])
        return real(*args)

    monkeypatch.setattr(S, "_pick_cells", pick_cells)
    return seen


def _set_samples_per_block(monkeypatch, window, per_block):
    # the block holds samples * r * r coefficients, r = kept eigenvectors
    r = S._field_basis(*window)[2].size
    monkeypatch.setattr(S, "_BLOCK_COEFFS", per_block * r * r)


# the reference cases: each window, sample count and block size
_REFERENCE_CASES = pytest.mark.parametrize(
    "window, seed, n_samples, per_block",
    [
        ((-10.0, 2.0), 41, 800, None),
        ((-10.0, 2.0), 41, 800, 300),
        ((-6.0, 1.0), 43, 250, None),
        ((-6.0, 1.0), 43, 250, 64),
        ((-92.0, 6.0), 701, 10, None),
        ((-92.0, 6.0), 701, 10, 4),
        ((1.0, 6.0), 45, 2000, None),
        ((3.0, 6.0), 46, 200, None),
        ((-8.0, -6.0), 48, 400, None),
        ((-10.0, -4.86), 49, 400, None),
    ],
    ids=[
        "bulk", "bulk-3-blocks", "short", "short-4-blocks", "check-window", "check-window-3-blocks", "right-edge",
        "empty", "under-one-chunk", "chunks-plus-one-cell",
    ],
)


class TestFieldMatchesReference:
    # the batched chain rule against the sample-by-sample loop it replaced:
    # the same generator stream, so every draw is bitwise equal, in two
    # lanes where the BLAS pin holds and in one without it

    @staticmethod
    def _check(monkeypatch, window, seed, n_samples, per_block):
        if per_block is not None:
            _set_samples_per_block(monkeypatch, window, per_block)
        got, rep = S.sample_airy_field(window, RngStream(seed), n_samples)
        ref, _ = oracles.reference_airy_field(window, RngStream(seed), n_samples)
        assert rep.n_samples == n_samples and rep.seed == seed
        assert _same_draws(got, ref)

    @_REFERENCE_CASES
    def test_bitwise_equal_to_reference(self, monkeypatch, window, seed, n_samples, per_block):
        self._check(monkeypatch, window, seed, n_samples, per_block)

    @_REFERENCE_CASES
    def test_one_lane_bitwise_equal_to_reference(self, monkeypatch, window, seed, n_samples, per_block):
        monkeypatch.setattr(core, "_openblas", lambda: None)
        lanes = _spy_lanes(monkeypatch)
        self._check(monkeypatch, window, seed, n_samples, per_block)
        assert set(lanes) == {1}

    def test_chunk_edge_windows_keep_their_cell_counts(self):
        # the last two reference cases pin the pick search's chunk edges: a
        # grid shorter than one chunk, and one cell past whole chunks
        assert S._field_basis(-8.0, -6.0)[0].size < S._PICK_CHUNK
        assert S._field_basis(-10.0, -4.86)[0].size % S._PICK_CHUNK == 1

    def test_right_edge_window_is_mostly_empty(self):
        envs, _ = S.sample_airy_field((1.0, 6.0), RngStream(45), 2000)
        counts = np.array([len(e) for e in envs])
        assert 0 < np.count_nonzero(counts) < 0.01 * len(counts)

    def test_blocking_does_not_change_the_draws(self, monkeypatch):
        window = (-10.0, 2.0)
        base, _ = S.sample_airy_field(window, RngStream(47), 60)
        for per_block in (1, 7):
            _set_samples_per_block(monkeypatch, window, per_block)
            got, _ = S.sample_airy_field(window, RngStream(47), 60)
            assert _same_draws(got, base)


def _full_basis(km):
    lam, vecs = scipy.linalg.eigh(km)
    keep = lam > 1e-12
    return np.clip(lam[keep], 0.0, 1.0), vecs[:, keep]


class TestFieldBasis:
    # the sketched eigenbasis against a full eigensolve of the same matrix

    @pytest.mark.parametrize("window", [(-10.0, 2.0), (-6.0, 1.0), (-6.0, 2.0), (1.0, 6.0), (3.0, 6.0), (-92.0, 6.0)])
    def test_sketch_matches_full_eigh(self, window):
        x, h, lam, vecs = S._field_basis(*window)
        ref_lam, ref_vecs = _full_basis(h * K.kernel_grid("airy2", x))
        assert lam.size == ref_lam.size
        assert np.all(np.diff(lam) >= 0)
        assert np.max(np.abs(lam - ref_lam)) <= 1e-13
        # eigenvectors of close eigenvalues may rotate; their projector may not
        big, ref_big = vecs[:, lam > 1e-6], ref_vecs[:, ref_lam > 1e-6]
        assert big.shape == ref_big.shape
        assert np.max(np.abs(big @ big.T - ref_big @ ref_big.T)) <= 1e-10

    def test_short_sketch_widens(self, monkeypatch):
        # ten columns of slack leave (-10, 2) with fewer than five Ritz values
        # below the cut, so the sketch must double its width once
        calls = []
        real = np.linalg.eigh

        def eigh(a, *args, **kw):
            calls.append(a.shape[0])
            return real(a, *args, **kw)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(S, "_SKETCH_SLACK", 10)
        x, h, lam, _ = S._field_basis(-10.0, 2.0)
        km = h * K.kernel_grid("airy2", x)
        ell = math.ceil(np.trace(km)) + 10
        assert calls == [ell, 2 * ell]
        ref_lam, _ = _full_basis(km)
        assert lam.size == ref_lam.size and np.max(np.abs(lam - ref_lam)) <= 1e-13

    @pytest.mark.parametrize("window", [(-92.0, 6.0), (-10.0, 2.0), (3.0, 6.0)])
    def test_row_blocks_equal_one_shot_build(self, monkeypatch, window):
        # the grid, the cell width and the rows of h*K that the basis is
        # built from, against the reference sampler's one-shot build
        want = oracles.reference_field_kernel(*window, 0.04)
        for rows in (K._KERNEL_ROWS, 7):
            monkeypatch.setattr(K, "_KERNEL_ROWS", rows)
            blocks = _record_row_blocks(monkeypatch)
            S._field_basis.cache_clear()
            x, h, _, _ = S._field_basis(*window)
            assert h == want[1] and np.array_equal(x, want[0])
            # the first pass's blocks, in order, make up the whole matrix
            first = []
            while sum(b.shape[0] for b in first) < x.size:
                first.append(blocks[len(first)])
            assert all(b.shape[0] == rows for b in first[:-1])
            assert (np.concatenate(first) * h).tobytes() == want[2].tobytes()

    def test_caller_generator_is_left_as_the_reference_leaves_it(self):
        a, b = np.random.default_rng(49), np.random.default_rng(49)
        S.sample_airy_field((-6.0, 1.0), a, 30)
        oracles.reference_airy_field((-6.0, 1.0), b, 30)
        assert a.bit_generator.state == b.bit_generator.state


def _record_row_blocks(monkeypatch):
    # copies of every kernel row block the basis builds, in build order
    blocks = []
    real = K._airy_rows

    def airy_rows(xs):
        fill = real(xs)

        def recorded(rows, s):
            fill(rows, s)
            blocks.append(rows.copy())

        return recorded

    monkeypatch.setattr(K, "_airy_rows", airy_rows)
    return blocks


def _count_kernel_builds(monkeypatch):
    # one row builder is made per basis build, whatever the passes over it
    builds = []
    real = K._airy_rows

    def airy_rows(xs):
        builds.append(xs)
        return real(xs)

    monkeypatch.setattr(K, "_airy_rows", airy_rows)
    return builds


class TestFieldBasisMemo:
    # the last window's basis is kept for the life of the process, read-only

    def test_repeat_call_skips_the_build(self, monkeypatch):
        builds = _count_kernel_builds(monkeypatch)
        gens = [np.random.default_rng(49) for _ in range(3)]
        cold, _ = S.sample_airy_field((-6.0, 1.0), gens[0], 30)
        assert len(builds) == 1
        warm, _ = S.sample_airy_field((-6.0, 1.0), gens[1], 30)
        assert len(builds) == 1
        S._field_basis.cache_clear()
        again, _ = S.sample_airy_field((-6.0, 1.0), gens[2], 30)
        assert len(builds) == 2
        assert _same_draws(warm, cold) and _same_draws(again, cold)
        assert gens[0].bit_generator.state == gens[1].bit_generator.state == gens[2].bit_generator.state

    def test_basis_is_read_only(self):
        basis = S._field_basis(-6.0, 1.0)
        x, _, lam, vecs = basis
        for a in (x, lam, vecs):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert S._field_basis(-6.0, 1.0) is basis

    def test_failed_build_stores_nothing(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(K, "airy_fn", lambda x: (np.full_like(x, np.nan), np.full_like(x, np.nan)))
            for _ in range(2):
                with pytest.raises(ValueError, match="kernel matrix is not finite"):
                    S.sample_airy_field((-2.0, 1.0), RngStream(1), 3)
        builds = _count_kernel_builds(monkeypatch)
        got, _ = S.sample_airy_field((-2.0, 1.0), RngStream(1), 50)
        ref, _ = oracles.reference_airy_field((-2.0, 1.0), RngStream(1), 50)
        assert len(builds) == 1 and _same_draws(got, ref)

    def test_evicted_window_draws_as_cold(self, monkeypatch):
        builds = _count_kernel_builds(monkeypatch)
        first = (-6.0, 1.0)
        cold, _ = S.sample_airy_field(first, RngStream(50), 40)
        S.sample_airy_field((-3.0, 1.0), RngStream(51), 2)
        assert len(builds) == 2
        got, _ = S.sample_airy_field(first, RngStream(50), 40)
        assert len(builds) == 3
        assert _same_draws(got, cold)


def _inject_basis(monkeypatch, lam, vecs):
    # replaces the grid-space basis: eigenvalues lam, eigenvectors vecs(m)
    real = S._field_basis

    def basis(lo, hi):
        x, h, _, _ = real(lo, hi)
        return x, h, lam, vecs(x.size)

    monkeypatch.setattr(S, "_field_basis", basis)


class TestFieldLanes:
    # the chain rule's two lanes (their draws: ``TestFieldMatchesReference``);
    # a call leaves neither a thread nor a changed BLAS thread count behind

    def test_two_lanes_run_where_the_pin_holds(self, monkeypatch):
        _openblas_or_skip()
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("fewer than 2 usable CPUs")
        lanes = _spy_lanes(monkeypatch)
        S.sample_airy_field((-10.0, 2.0), RngStream(52), 20)
        assert lanes == [2]

    @pytest.mark.parametrize("outcome", ["returns", "raises"])
    def test_a_call_leaves_no_thread_and_the_blas_count(self, monkeypatch, outcome):
        lib = _openblas_or_skip()
        if outcome == "raises":
            _inject_basis(monkeypatch, np.ones(1), lambda m: np.full((m, 1), np.nan))
        before = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(2)
        try:
            threads = threading.active_count()
            if outcome == "raises":
                with pytest.raises(ValueError, match="remaining kernel mass nan"):
                    S.sample_airy_field((-2.0, 1.0), RngStream(1), 5)
            else:
                S.sample_airy_field((-10.0, 2.0), RngStream(54), 20)
            assert lib.scipy_openblas_get_num_threads64_() == 2
            assert threading.active_count() == threads
        finally:
            lib.scipy_openblas_set_num_threads64_(before)


class TestFieldNumericalTrouble:
    def test_nan_kernel_raises(self, monkeypatch):
        monkeypatch.setattr(K, "airy_fn", lambda x: (np.full_like(x, np.nan), np.full_like(x, np.nan)))
        with pytest.raises(ValueError, match="kernel matrix is not finite"):
            S.sample_airy_field((-2.0, 1.0), RngStream(1), 3)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_off_diagonal_raises(self, monkeypatch, entry):
        # the trace stays finite, so the sketch itself must refuse the matrix
        real = K._airy_rows

        def airy_rows(xs):
            fill = real(xs)

            def poisoned(rows, s):
                fill(rows, s)
                for i, j in ((3, 5), (5, 3)):
                    if s <= i < s + rows.shape[0]:
                        rows[i - s, j] = entry

            return poisoned

        monkeypatch.setattr(K, "_airy_rows", airy_rows)
        with pytest.raises(ValueError, match="kernel matrix is not finite"):
            S.sample_airy_field((-2.0, 1.0), RngStream(1), 3)

    @pytest.mark.parametrize(
        "blocking, seed, lane",
        [("default", 48, 0), ("one sample", 48, 0), ("default", 54, 1)],
        ids=["default", "one sample", "second lane"],
    )
    def test_exhausted_mass_names_sample_and_step(self, monkeypatch, blocking, seed, lane):
        # a rank-one kernel behind two selectable vectors: column 0 is 2 e_0,
        # column 1 is zero, so a sample holding column 1 runs out of mass at
        # step 1 (both held) or step 0 (column 1 alone); ``lane`` is where
        # the first such sample runs when the block has two lanes
        def rank_one(m):
            vecs = np.zeros((m, 2))
            vecs[0, 0] = 2.0
            return vecs

        _inject_basis(monkeypatch, np.array([0.5, 0.5]), rank_one)
        if blocking == "one sample":
            monkeypatch.setattr(S, "_BLOCK_COEFFS", 1)
        g = RngStream(seed).generator()
        counts, sample = [], None
        for b in range(1000):
            held = g.random(2) < 0.5
            counts.append(int(held.sum()))
            if held[1] and sample is None:
                sample, step = b, counts[-1] - 1
            g.random(2 * counts[-1])
        assert sample > 0
        # the lanes take the samples in turn, by decreasing point count
        rank = list(np.argsort(-np.array(counts), kind="stable")).index(sample)
        assert rank % 2 == lane
        with pytest.raises(ValueError, match=rf"sample {sample}, step {step}: remaining kernel mass 0\.0"):
            S.sample_airy_field((-2.0, 1.0), RngStream(seed), 1000)

    @pytest.mark.parametrize("entry, shown", [(np.nan, "nan"), (1e200, "inf")])
    def test_non_finite_mass_raises_at_step_zero(self, monkeypatch, entry, shown):
        _inject_basis(monkeypatch, np.ones(1), lambda m: np.full((m, 1), entry))
        with pytest.raises(ValueError, match=rf"sample 0, step 0: remaining kernel mass {shown}"):
            S.sample_airy_field((-2.0, 1.0), RngStream(1), 5)

    @pytest.mark.parametrize("entry", [np.nan, 1e154, 1e200])
    def test_non_finite_mass_raises_without_a_warning(self, monkeypatch, entry):
        # numpy's error state is per thread: the worker's lane must ignore
        # the invalid arithmetic itself, or the warning comes before the
        # error; at 1e154 each cell's mass is finite and their sum overflows
        _inject_basis(monkeypatch, np.ones(1), lambda m: np.full((m, 1), entry))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"sample 0, step 0: remaining kernel mass"):
                S.sample_airy_field((-2.0, 1.0), RngStream(1), 5)


class TestHardEdgeChain:
    # the exact hard-edge sampler that replaced the Metropolis chain, held
    # to the chain's law tests and tolerances

    def test_single_particle_gamma_law(self):
        # n=1 weight: x^alpha exp(-x/4) == Gamma(alpha+1, scale 4), at an
        # integer and a non-integer alpha
        for alpha, seed in ((2.0, 3), (1.5, 4)):
            samples, rep = S.sample_bessel_ensemble(1, alpha, RngStream(seed), 4000)
            xs = samples[:, 0, 0]
            ks = oracles.one_sample_ks(xs, lambda v: gammainc(alpha + 1.0, np.asarray(v) / 4.0))
            assert ks <= 0.025
            assert rep.converged and rep.acceptance_rate is None
            mean = 4.0 * (alpha + 1.0)
            assert abs(xs.mean() - mean) <= 3.0 * xs.std() / math.sqrt(len(xs)) + 0.3

    def test_matches_matrix_model_at_ten_particles(self):
        samples, _ = S.sample_bessel_ensemble(10, 1.0, RngStream(4), 400)
        pool = samples.ravel()
        ref = oracles.wishart_hard_edge_oracle(10, 1, 400, np.random.default_rng(5)).ravel()
        assert ks_2samp(pool, ref).statistic <= 0.04

    def test_two_particle_marginal_against_quadrature(self):
        alpha, n = 1.5, 2
        ys = np.linspace(1e-9, 150, 6001)
        xs = np.linspace(1e-6, 150, 4001)

        def marginal_density(x):
            w = (ys**alpha) * ((x - ys) ** 2) * np.exp(-(x + ys) / (4 * n))
            return x**alpha * np.trapezoid(w, ys)

        dens = np.array([marginal_density(x) for x in xs])
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xs))])
        cdf /= cdf[-1]

        samples, _ = S.sample_bessel_ensemble(n, alpha, RngStream(21), 3000)
        pool = samples.ravel()
        ks = oracles.one_sample_ks(pool, lambda v: np.interp(v, xs, cdf))
        assert ks <= 0.03

        # small-x check: the histogram slope matches the density formula's
        # slope measured on the same window (the pure x^alpha regime sits
        # below the reachable quantiles at desk scale)
        small = np.sort(pool[pool < 6.0])
        lo, hi = np.quantile(small, 0.04), np.quantile(small, 0.9)
        grid = np.geomspace(lo, hi, 10)
        design = np.vstack([np.log(grid), np.ones_like(grid)]).T
        emp = np.searchsorted(small, grid) / len(small)
        slope = np.linalg.lstsq(design, np.log(np.maximum(emp, 1e-12)), rcond=None)[0][0]
        ref = np.interp(grid, xs, cdf) / np.interp(6.0, xs, cdf)
        slope_ref = np.linalg.lstsq(design, np.log(ref), rcond=None)[0][0]
        assert abs(slope - slope_ref) <= 0.35
        # and the formula itself has local exponent alpha near zero
        d_lo = marginal_density(2e-3) / marginal_density(1e-3)
        assert math.log2(d_lo) == pytest.approx(alpha, abs=0.02)

    def test_matches_matrix_model_at_forty_particles(self):
        samples, _ = S.sample_bessel_ensemble(40, 2.0, RngStream(8), 200)
        pool = samples.ravel()
        ref = oracles.wishart_hard_edge_oracle(40, 2, 2000, np.random.default_rng(22)).ravel()
        assert ks_2samp(pool, ref).statistic <= 0.03
        # conditional law in the near-origin window (exponent-sensitive)
        lo_mc, lo_ref = pool[pool < 15.0], ref[ref < 15.0]
        assert len(lo_mc) > 50
        assert ks_2samp(lo_mc, lo_ref).statistic <= 0.2

    def test_positivity_and_determinism(self):
        a, _ = S.sample_bessel_ensemble(4, 1.0, RngStream(30), 5)
        b, _ = S.sample_bessel_ensemble(4, 1.0, RngStream(30), 5)
        assert a.shape == (5, 4, 1)
        assert np.array_equal(a, b)
        assert np.all(a > 0)
        assert np.all(np.diff(a[:, :, 0], axis=1) > 0)

    def test_validation(self):
        for n, alpha in ((2, 0.5), (2, math.nan), (0, 1.0)):
            g = np.random.default_rng(1)
            state = g.bit_generator.state
            with pytest.raises(ValueError):
                S.sample_bessel_ensemble(n, alpha, g, 1)
            assert g.bit_generator.state == state
        with pytest.raises(ValueError):
            S.McmcOptions(thin_sweeps=0)


class TestGibbsChain:
    def test_one_particle_is_product_gaussian(self):
        # no pair term at n = 1: the target is exactly the Gaussian of the
        # confinement, variance n^theta / (2 beta c) per coordinate
        spec = ModelSpec(Family.LENNARD_JONES, 1, beta=1.0)
        opts = S.McmcOptions(burn_in_sweeps=1500, thin_sweeps=10)
        samples, rep = S.sample_gibbs_chain(spec, RngStream(6), 2000, options=opts)
        coords = samples.ravel()
        sd = math.sqrt(spec.n_particles**spec.free_theta / (2.0 * spec.beta * spec.free_c))
        ks = oracles.one_sample_ks(coords, lambda v: oracles.normal_cdf(v, 0.0, sd))
        assert ks <= 0.03
        assert rep.converged

    @pytest.mark.parametrize(
        "family, beta, seed, psi",
        [(Family.LENNARD_JONES, 1.0, 7, lambda r: r**-12.0 - r**-6.0), (Family.RIESZ, 2.0, 8, lambda r: r**-4.0 / 4.0)],
        ids=["lennard_jones", "riesz"],
    )
    def test_two_particle_distance_against_quadrature(self, family, beta, seed, psi):
        spec = ModelSpec(family, 2, beta=beta, riesz_a=4 if family is Family.RIESZ else None)
        opts = S.McmcOptions(burn_in_sweeps=2000, thin_sweeps=5)
        samples, _ = S.sample_gibbs_chain(spec, RngStream(seed), 2500, options=opts)
        dists = np.sort([float(np.linalg.norm(s[0] - s[1])) for s in samples])
        cdf = oracles.pair_distance_cdf_oracle(
            beta, spec.free_c, spec.free_theta, 2, lambda r: psi(np.maximum(r, 1e-12)), dists, r_max=12.0
        )
        i = np.arange(1, len(dists) + 1)
        ks = max(np.max(i / len(dists) - cdf), np.max(cdf - (i - 1) / len(dists)))
        assert ks <= 0.035

    def test_family_validation(self):
        # the matrix-model families, the hard edge among them, have no chain
        for spec in (ModelSpec(Family.AIRY, 2), ModelSpec(Family.BESSEL, 2, alpha=1.0)):
            with pytest.raises(ValueError, match="no Metropolis energy"):
                S.sample_gibbs_chain(spec, RngStream(1), 1)

    @pytest.mark.parametrize("family", [Family.LENNARD_JONES, Family.RIESZ])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_delta_energy_is_the_total_energy_difference(self, family, n):
        # -log(density) summed from scratch over every coordinate and pair;
        # the bound is in units of the summed absolute terms
        rng = np.random.default_rng(1700 + n)
        lj = family is Family.LENNARD_JONES
        for beta, c, theta in ((1.0, 0.5, 1.0), (2.5, 0.2, 0.0), (1.5, 0.3, 0.0)):
            spec = ModelSpec(family, n, beta=beta, free_c=c, free_theta=theta, riesz_a=None if lj else 5)
            delta = M._energy_change(spec)

            def terms(x):
                r = scipy.spatial.distance.pdist(x)
                return beta * np.concatenate([c / n**theta * (x * x).ravel(), r**-12.0 - r**-6.0 if lj else r**-5.0 / 5])

            for _ in range(100):
                x = rng.normal(0.0, 1.5, (n, 3))
                i, y = int(rng.integers(n)), x.copy()
                y[i] = rng.normal(0.0, 1.5, 3)
                t0, t1 = terms(x), terms(y)
                assert abs(delta(x, i, y[i]) - (t1.sum() - t0.sum())) <= 1e-13 * (np.abs(t0).sum() + np.abs(t1).sum())

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(Family.LENNARD_JONES, 1, beta=1.0),
            ModelSpec(Family.LENNARD_JONES, 5, beta=1.5, free_c=0.3, free_theta=0.0),
            ModelSpec(Family.RIESZ, 8, beta=2.0, riesz_a=4, free_theta=2.0),
        ],
        ids=["lj-1", "lj-5", "riesz-8"],
    )
    def test_chain_replays_from_its_generator(self, spec):
        # one generator state gives the same draws, acceptance rate and
        # final state, whatever numpy's global generator holds
        opts = S.McmcOptions(burn_in_sweeps=200, thin_sweeps=3)
        runs = []
        for global_seed in (0, 1):
            np.random.seed(global_seed)
            g = np.random.default_rng(1720)
            samples, rep = S.sample_gibbs_chain(spec, g, 40, options=opts)
            runs.append((samples.tobytes(), rep.acceptance_rate, g.bit_generator.state))
        assert runs[0] == runs[1]
        assert samples.shape == (40, spec.n_particles, 3) and 0.0 < rep.acceptance_rate < 1.0

    def test_stein_statistic_is_centred_under_its_law(self):
        # the oracle itself: iid standard normal points have score -x, and
        # a score off by 10 % is told apart; bounds in standard errors
        x = np.random.default_rng(1721).standard_normal((4000, 5, 3))
        for s in (1.2, 2.0):
            z = {}
            for scale in (1.0, 1.1):
                t = oracles.stein_statistic(x, -scale * x, s)
                z[scale] = abs(t.mean()) / (t.std(ddof=1) / math.sqrt(t.size))
            assert z[1.0] <= 4.0 < z[1.1]

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "spec",
        [ModelSpec(Family.LENNARD_JONES, 8, beta=1.0), ModelSpec(Family.RIESZ, 8, beta=1.0, riesz_a=4)],
        ids=["lennard_jones", "riesz"],
    )
    def test_chain_draws_satisfy_steins_identity_with_the_drift(self, spec):
        # the drift is half the score of the chain's target, so Stein's
        # identity ties the Metropolis energy to the drift in law, through
        # every pair.  Fixed before the run: 1000 draws at the default
        # options, z from 40 batch means of 25 draws, |z| <= 3.5 at each s
        draws, _ = S.sample_gibbs_chain(spec, RngStream(1722), 1000)
        score = 2.0 * M.drift_finite_all(spec, draws)
        for s in (0.8, 1.2, 2.0):
            batches = oracles.stein_statistic(draws, score, s).reshape(40, 25).mean(axis=1)
            z = batches.mean() / (batches.std(ddof=1) / math.sqrt(batches.size))
            assert abs(z) <= 3.5, f"s = {s}: z = {z:.2f}"


class TestChain:
    @pytest.mark.parametrize("family", ["lennard_jones", "riesz"])
    def test_delta_energy_antisymmetry(self, family):
        # detailed balance of the Metropolis rule reduces to Delta E(x -> y)
        # being exactly minus Delta E(y -> x); check on the live chain
        spec = ModelSpec(Family(family), 2, beta=1.5, riesz_a=4 if family == "riesz" else None)
        state = S._chain_start(spec)
        delta = M._energy_change(spec)
        rng = np.random.default_rng(40)
        for _ in range(50):
            i = int(rng.integers(0, len(state)))
            v = state[i] + rng.normal(0, 0.5, state[i].shape)
            forward = delta(state, i, v)
            old = state[i].copy()
            state[i] = v
            backward = delta(state, i, old)
            state[i] = old
            assert forward == pytest.approx(-backward, rel=1e-10, abs=1e-12)


class TestReports:
    def test_report_fields(self):
        _, rep = S.sample_airy_ensemble(3, 2.0, RngStream(60), 10)
        assert rep.n_samples == 10
        assert rep.acceptance_rate is None
        assert rep.seed == 60
        assert rep.wall_time >= 0

    def test_acceptance_range_validation(self):
        with pytest.raises(ValueError):
            S.SamplerReport(n_samples=1, acceptance_rate=1.2, seed=None, wall_time=0.0)

    def test_generator_input_has_no_seed(self):
        _, rep = S.sample_airy_ensemble(3, 2.0, np.random.default_rng(1), 5)
        assert rep.seed is None

    def test_rng_type_check(self):
        with pytest.raises(TypeError):
            S.sample_ginibre_ensemble(3, 12345, 1)


_OPTS = S.McmcOptions(burn_in_sweeps=50, thin_sweeps=2)
_ENSEMBLE_SAMPLERS = {
    "airy": lambda g, count: S.sample_airy_ensemble(4, 2.0, g, count),
    "airy-window": lambda g, count: S.sample_airy_ensemble(4, 2.0, g, count, window=(-4.0, 1.0)),
    "ginibre": lambda g, count: S.sample_ginibre_ensemble(4, g, count),
    "field": lambda g, count: S.sample_airy_field((-4.0, 1.0), g, count),
    "bessel": lambda g, count: S.sample_bessel_ensemble(3, 1.0, g, count),
    "riesz": lambda g, count: S.sample_gibbs_chain(ModelSpec(Family.RIESZ, 3, riesz_a=5), g, count, options=_OPTS),
}


class TestSampleCount:
    @pytest.mark.parametrize("count", [0, -3])
    @pytest.mark.parametrize("name", list(_ENSEMBLE_SAMPLERS))
    def test_count_below_one_is_refused_before_any_draw(self, name, count):
        g = np.random.default_rng(70)
        state = g.bit_generator.state
        with pytest.raises(ValueError, match=r"^n_samples must be >= 1$"):
            _ENSEMBLE_SAMPLERS[name](g, count)
        assert g.bit_generator.state == state


class TestBenchWrappers:
    # three one-draw-per-row wrappers kept for the benchmark's callers

    def test_rows_are_the_array_samplers_rows(self):
        # the hard-edge wrapper accepts chain options and reads none of them
        opts = S.McmcOptions(burn_in_sweeps=100, thin_sweeps=2)
        pairs = [
            (S.sample_bessel_chain(4, 2.0, np.random.default_rng(80), 6, options=opts)[0],
             S.sample_bessel_ensemble(4, 2.0, np.random.default_rng(80), 6)[0]),
            ([S.sample_airy_equilibrium(5, 1.0, np.random.default_rng(81))],
             S.sample_airy_ensemble(5, 1.0, np.random.default_rng(81), 1)[0]),
            ([S.sample_ginibre(5, np.random.default_rng(82))],
             S.sample_ginibre_ensemble(5, np.random.default_rng(82), 1)[0]),
        ]
        for held, rows in pairs:
            assert len(held) == len(rows)
            for h, row in zip(held, rows):
                assert h.points.shape == row.shape
                assert h.points.tobytes() == row.tobytes()
                assert np.asarray(h, dtype=float) is h.points

    def test_points_are_read_only(self):
        c = S.sample_airy_equilibrium(3, 2.0, RngStream(1))
        with pytest.raises(ValueError):
            c.points[0, 0] = 5.0
