"""Estimator and diagnostic tests.

Closed-form cases are asserted exactly; Monte Carlo thresholds were
calibrated at the frozen seeds and carry wide margins.
"""

import math

import numpy as np
import pytest

from ibrownian import stats
from ibrownian.core import Family, ModelSpec, RngStream, SingularConfigurationError
from ibrownian.models import TruncationParams, truncated_drift_at
from ibrownian.sampling import sample_airy_ensemble, sample_airy_field, sample_ginibre_ensemble
from ibrownian.sde import IntegratorConfig, simulate
from ibrownian.stats import (
    CorrelationEstimate,
    TightnessParams,
    drift_truncation_scan,
    erf_fn,
    erf_tail_sum,
    estimate_rho,
    freedman_diaconis_edges,
    holder_moment,
    log_log_slope,
)

from oracles import airy_band_mean_oracle, count_variance, gauss_tail_oracle, reference_pair_counts


class TestErfFn:
    def test_half_at_zero(self):
        assert erf_fn(0.0) == 0.5

    def test_total_mass(self):
        for t in (-3.0, -0.7, 0.2, 1.0, 4.5):
            assert abs(erf_fn(t) + erf_fn(-t) - 1.0) <= 1e-12

    def test_against_quadrature_oracle(self):
        assert abs(erf_fn(1.0) - 0.15865525393145707) <= 1e-13
        assert abs(erf_fn(1.0) - gauss_tail_oracle(1.0)) <= 1e-10

    def test_oracle_grid(self):
        for t in (-2.0, -0.5, 0.3, 1.7):
            assert abs(erf_fn(t) - gauss_tail_oracle(t)) <= 1e-10

    def test_array_input(self):
        t = np.array([-1.0, 0.0, 1.0])
        out = erf_fn(t)
        assert out.shape == (3,)
        assert abs(out[1] - 0.5) <= 1e-15
        assert isinstance(erf_fn(0.3), float)


class TestFreedmanDiaconis:
    def test_exact_width(self):
        # 8 evenly spaced values: IQR 3.5, width 2*3.5/8^(1/3) = 3.5
        edges = freedman_diaconis_edges(np.arange(8.0))
        assert np.allclose(edges, [0.0, 3.5, 7.0])

    def test_floor_engages(self):
        edges = freedman_diaconis_edges(np.linspace(0.0, 0.01, 50))
        assert np.isclose(edges[1] - edges[0], 0.05)
        assert edges[-1] >= 0.01

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            freedman_diaconis_edges(np.array([1.0]))


class TestEstimateRhoLine:
    def test_single_point_single_bin(self):
        est = estimate_rho([np.array([0.3])], 1, np.array([0.0, 2.0]))
        assert est.counts.tolist() == [1.0]
        assert est.density.tolist() == [0.5]
        assert est.n_samples == 1

    def test_factorial_identity_order_one(self):
        g = np.random.default_rng(40)
        samples = [g.uniform(-2, 2, size=17) for _ in range(5)]
        bins = np.linspace(-2.0, 2.0, 9)
        est = estimate_rho(samples, 1, bins)
        widths = np.diff(bins)
        # box = union of all bins: integral equals the mean count exactly
        mean_count = np.mean([s.shape[0] for s in samples])
        assert abs(np.sum(est.density * widths) - mean_count) <= 1e-12
        # sub-box of the first three bins
        in_box = np.mean([np.sum((s >= -2.0) & (s < -0.5)) for s in samples])
        assert abs(np.sum(est.density[:3] * widths[:3]) - in_box) <= 1e-12

    def test_factorial_identity_order_two(self):
        g = np.random.default_rng(41)
        samples = [g.uniform(0, 1, size=12) for _ in range(6)]
        bins = np.linspace(0.0, 1.0, 6)
        est = estimate_rho(samples, 2, bins)
        w = np.diff(bins)
        integral = np.sum(est.density * (w[:, None] * w[None, :]))
        counts = np.array([s.shape[0] for s in samples], dtype=float)
        assert abs(integral - np.mean(counts * (counts - 1))) <= 1e-10

    @pytest.mark.parametrize(
        "values",
        [
            [[0.3, 0.3, 0.7, 0.3, 1.2, 0.7], [0.5, 0.5], [1.5, 0.25, 1.5]],
            [[0.5, 1.0, 2.0, 2.0, 0.0, 1.0], [2.0, 0.5, 0.75]],
            [[-1.0, 3.0, 0.2, 2.5, 0.2, -1.0, 2.0], [-0.5, 4.0]],
            [[], [0.4], [0.4, 0.4]],
            [[]],
            list(np.random.default_rng(45).uniform(-0.5, 2.5, size=(7, 30)).round(1)),
        ],
        ids=["duplicates", "on-edges", "outside-bins", "empty-and-one-point", "only-empty", "rounded-uniform"],
    )
    def test_order_two_counts_equal_the_pair_histogram(self, values):
        bins = np.array([0.0, 0.5, 1.0, 2.0])
        values = [np.asarray(v, dtype=float) for v in values]
        est = estimate_rho(values, 2, bins)
        want = reference_pair_counts(values, bins)
        w = np.diff(bins)
        assert est.counts.tobytes() == want.tobytes()
        assert est.density.tobytes() == (want / (len(values) * (w[:, None] * w[None, :]))).tobytes()

    def test_order_two_no_self_pairs(self):
        est = estimate_rho([np.array([0.5])], 2, np.array([0.0, 1.0]))
        assert est.density.shape == (1, 1)
        assert est.counts.sum() == 0

    def test_auto_bins(self):
        g = np.random.default_rng(42)
        samples = [g.normal(size=30) for _ in range(4)]
        est = estimate_rho(samples, 1)
        assert est.bins[0] <= min(s.min() for s in samples)
        assert np.all(np.diff(est.bins) >= 0.05 - 1e-12)

    def test_validation(self):
        good = [np.array([0.1]), np.array([0.2])]
        with pytest.raises(ValueError):
            estimate_rho([], 1, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            estimate_rho(good, 3, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            estimate_rho([np.zeros((2, 3))], 1, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            estimate_rho([np.zeros((2, 1)), np.zeros((2, 2))], 1, np.array([0.0, 1.0]))

    @pytest.mark.parametrize(
        "bins",
        [[math.nan, 1.0], [1.0], [0.0, math.inf], [2.0, 1.0]],
        ids=["nan-edge", "one-edge", "inf-edge", "decreasing"],
    )
    @pytest.mark.parametrize("order", [1, 2])
    def test_bad_bins_are_rejected(self, bins, order):
        samples = [np.array([0.1, 0.5]), np.array([0.2, 0.7])]
        with pytest.raises(ValueError, match="^bins must be at least two finite, strictly increasing edges$"):
            estimate_rho(samples, order, bins)


class TestEstimateRhoPlanar:
    def test_bulk_intensity(self):
        arr, _ = sample_ginibre_ensemble(81, RngStream(333), 30)
        est = estimate_rho(list(arr), 1, np.array([0.0, 2.0, 4.0, 5.4]))
        assert np.all(np.abs(est.density * math.pi - 1.0) <= 0.08)

    def test_pair_separation_matches_kernel(self):
        arr, _ = sample_ginibre_ensemble(100, RngStream(331), 100)
        edges = np.arange(0.0, 3.0 + 1e-9, 0.25)
        est = estimate_rho(list(arr), 2, edges, window=4.0)
        mids = 0.5 * (edges[1:] + edges[:-1])
        # planar pair density at separation u: (1 - exp(-u^2)) / pi^2
        ref = (1.0 - np.exp(-mids**2)) / math.pi**2
        ok = est.counts >= 100
        assert ok.sum() >= 8
        assert np.all(np.abs(est.density[ok] / ref[ok] - 1.0) <= 0.2)
        # repulsion: the closest band sits far below the bulk level
        assert est.density[0] <= 0.02

    def test_window_required(self):
        arr, _ = sample_ginibre_ensemble(10, RngStream(5), 3)
        with pytest.raises(ValueError):
            estimate_rho(list(arr), 2, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("window", [-1.0, math.inf, math.nan])
    def test_bad_window_is_rejected(self, window):
        arr, _ = sample_ginibre_ensemble(10, RngStream(5), 3)
        with pytest.raises(ValueError, match="^window must be finite and > 0$"):
            estimate_rho(list(arr), 2, np.array([0.0, 1.0]), window=window)

    @pytest.mark.parametrize(
        "dim, order", [(1, 1), (1, 2), (2, 1)], ids=["line-order-1", "line-order-2", "planar-order-1"]
    )
    def test_window_outside_planar_pairs_is_refused(self, dim, order):
        samples = [np.arange(1.0, 1.0 + 3 * dim).reshape(3, dim)] * 2
        with pytest.raises(ValueError, match="^window applies to planar order-2 estimates only$"):
            estimate_rho(samples, order, np.array([0.0, 10.0]), window=2.0)


def _count_variance_z(est, exact, volumes):
    """z-scores of the count variances S (stderr * volume)^2 read back from
    an order-1 estimate against their exact values.

    A determinantal count in a set is a sum of independent Bernoulli
    variables (Hough, Krishnapur, Peres & Virag 2006), so its fourth
    cumulant is at most its variance v, and the sample variance of S
    counts has standard error at most v sqrt(1 / (v S) + 2 / (S - 1)).
    Each z therefore has standard deviation at most 1, and so has their
    mean, however the bins correlate.
    """
    n = est.n_samples
    sampled = n * (est.stderr * volumes) ** 2
    return (sampled - exact) / (exact * np.sqrt(1.0 / (exact * n) + 2.0 / (n - 1)))


class TestEstimateRhoStandardError:
    @pytest.mark.parametrize(
        "dim, order, window",
        [(1, 1, None), (1, 2, None), (2, 1, None), (2, 2, 1.5)],
        ids=["line-order-1", "line-order-2", "planar-order-1", "planar-order-2"],
    )
    def test_is_the_standard_error_of_the_per_sample_estimates(self, dim, order, window):
        # each sample alone gives its own estimate, and their mean is the
        # estimate; the rounded values put repeated points on the diagonal
        g = np.random.default_rng(46)
        samples = [g.uniform(-2.0, 2.0, (int(g.integers(0, 9)), dim)).round(1) for _ in range(7)]
        bins = np.linspace(0.0, 2.0, 5) if dim == 2 else np.linspace(-2.0, 2.0, 5)
        est = estimate_rho(samples, order, bins, window=window)
        each = np.array([estimate_rho([s], order, bins, window=window).density for s in samples])
        assert np.allclose(est.density, each.mean(axis=0), rtol=1e-12, atol=0.0)
        want = each.std(axis=0, ddof=1) / math.sqrt(len(samples))
        assert np.allclose(est.stderr, want, rtol=1e-12, atol=1e-15)

    def test_one_sample_has_no_standard_error(self):
        est = estimate_rho([np.array([0.3, 1.1])], 1, np.array([0.0, 1.0, 2.0]))
        assert np.isnan(est.stderr).all()

    def test_airy_field_count_variance_is_exact(self):
        # the order-1 error read back as a count variance, per unit bin,
        # against the exact determinantal variance; 20,000 samples put a
        # stderr scaled by sqrt(1.1) about 6 of these units off
        edges = np.arange(-10.0, -1.0 + 1e-9, 1.0)
        samples, _ = sample_airy_field((-10.0, 2.0), RngStream(1501), 20_000)
        est = estimate_rho(samples, 1, edges)
        exact = np.array([count_variance(a, b) for a, b in zip(edges, edges[1:])])
        assert abs(float(np.mean(_count_variance_z(est, exact, np.diff(edges))))) <= 3.0

    def test_ginibre_count_variance_is_exact(self):
        # the same in annuli of the 10-point planar ensemble
        edges = np.array([0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
        samples, _ = sample_ginibre_ensemble(10, RngStream(1502), 10_000)
        est = estimate_rho(samples, 1, edges)
        exact = np.array([count_variance(a, b, 10) for a, b in zip(edges, edges[1:])])
        volumes = math.pi * np.diff(edges**2)
        assert abs(float(np.mean(_count_variance_z(est, exact, volumes)))) <= 3.0


class TestCountVarianceOracle:
    def test_airy_field_values(self):
        # an earlier evaluation with 80 nodes on the library's kernel grid
        for (a, b), want in (((-10.0, -9.0), 0.3431), ((-6.0, -5.0), 0.3179), ((-8.0, -4.0), 0.4581)):
            assert count_variance(a, b) == pytest.approx(want, abs=1e-4)

    def test_ginibre_single_point_is_bernoulli(self):
        # one point, |z|^2 ~ Exp(1): the count in the annulus is Bernoulli(p)
        p = math.exp(-0.25) - math.exp(-4.0)
        assert count_variance(0.5, 2.0, 1) == pytest.approx(p * (1.0 - p), rel=1e-12)


class TestAiryPairRepulsion:
    def test_near_coincidence_suppression(self):
        samples, _ = sample_airy_ensemble(40, 2.0, RngStream(330), 500)
        edges = np.arange(-3.0, 0.0 + 1e-9, 0.3)
        pair = estimate_rho(samples, 2, edges)
        point = estimate_rho(samples, 1, edges)
        nb = len(edges) - 1
        prof = np.array([np.mean([pair.density[i, i + k] for i in range(nb - k)]) for k in range(5)])
        prod = np.array([np.mean([point.density[i] * point.density[i + k] for i in range(nb - k)]) for k in range(5)])
        g = prof / prod
        # vanishing at coincidence, monotone recovery toward the bulk product
        assert g[0] < 0.1
        assert g[0] < g[2] < g[4]
        assert g[4] > 0.25
        assert prof[2] >= 2.0 * prof[0]


AIRY2 = ModelSpec(family=Family.AIRY, beta=2.0, n_particles=5)
GINIBRE2 = ModelSpec(family=Family.GINIBRE, beta=2.0, n_particles=100)


class TestDriftTruncationScan:
    def test_empty_environment_closed_form(self):
        envs = [np.zeros((0, 1))] * 100
        scan = drift_truncation_scan(envs, AIRY2, -1.0, [1.0, 4.0])
        # tail term only: -(beta/2) * 2 sqrt(r)
        assert np.allclose(scan.mean.ravel(), [-2.0, -4.0], atol=1e-12)
        assert np.all(scan.stderr == 0.0)
        assert scan.variant_gap_mean is None

    def test_empty_environment_planar_variants(self):
        envs = [np.zeros((0, 2))] * 100
        scan = drift_truncation_scan(envs, GINIBRE2, np.array([1.0, 0.0]), [2.0])
        assert np.allclose(scan.mean, 0.0, atol=1e-15)
        assert np.allclose(scan.variant_gap_mean, 1.0, atol=1e-15)

    def test_single_point_environment(self):
        envs = [np.array([[2.0]])] * 100
        scan = drift_truncation_scan(envs, AIRY2, -1.0, [10.0])
        expect = 1.0 / (-3.0) - 2.0 * math.sqrt(10.0)
        assert abs(scan.mean[0, 0] - expect) <= 1e-12
        assert scan.stderr[0, 0] <= 1e-14

    def test_planar_variant_gap_decreases(self):
        arr, _ = sample_ginibre_ensemble(100, RngStream(331), 100)
        scan = drift_truncation_scan(list(arr), GINIBRE2, np.array([1.0, 0.0]), [3.0, 5.0, 8.0])
        gaps = scan.variant_gap_mean
        assert gaps[0] > gaps[1] > gaps[2]

    def test_validation(self):
        envs = [np.zeros((0, 1))] * 99
        with pytest.raises(ValueError):
            drift_truncation_scan(envs, AIRY2, -1.0, [1.0])
        envs = [np.zeros((0, 1))] * 100
        with pytest.raises(ValueError):
            drift_truncation_scan(envs, AIRY2, -1.0, [])
        with pytest.raises(ValueError):
            drift_truncation_scan(envs, AIRY2, -1.0, [-1.0])
        # an entry that is not a number is named by its index
        for bad in ("a", None):
            with pytest.raises(ValueError, match=r"^r_list\[1\] must be finite and > 0$"):
                drift_truncation_scan(envs, AIRY2, -1.0, [1.0, bad])

    def test_singular_environment_is_named_by_its_sample(self):
        envs = [np.array([[2.0]])] * 100
        envs[37] = np.array([[-1.0], [2.0]])
        with pytest.raises(SingularConfigurationError, match=r"^sample 37: pair separation below 1e-12; "):
            drift_truncation_scan(envs, AIRY2, -1.0, [1.0, 4.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_radius_is_refused_before_any_environment(self, monkeypatch, bad):
        calls = []
        real = stats.truncated_drift_at

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(stats, "truncated_drift_at", counted)
        for spec, x, env in ((AIRY2, -1.0, [[2.0]]), (GINIBRE2, np.array([1.0, 0.0]), [[2.0, 0.0]])):
            with pytest.raises(ValueError):
                drift_truncation_scan([np.array(env)] * 100, spec, x, [10.0, bad])
        assert calls == []

    def test_check_7_band_means_match_their_exact_means(self):
        # the statistic of check 7: differences of the scan means at x = -1
        # over the soft-edge field on (-92, 6), scaled by pi^(-2/3), against
        # the quadrature of the field's density over each band; the
        # tolerance is four standard errors of the per-sample differences
        scale = math.pi ** (-2.0 / 3.0)
        envs, _ = sample_airy_field((-92.0, 6.0), RngStream(701), 300)
        envs = [scale * e for e in envs]
        spec = ModelSpec(family=Family.AIRY, beta=2.0, n_particles=1000)
        radii = [10.0, 20.0, 40.0]
        scan = drift_truncation_scan(envs, spec, -1.0, radii)
        per_sample = np.array(
            [[truncated_drift_at(spec, -1.0, e, TruncationParams(r))[0] for r in radii] for e in envs]
        )
        for k, (r1, r2) in enumerate(zip(radii, radii[1:])):
            band = per_sample[:, k + 1] - per_sample[:, k]
            se = band.std(ddof=1) / math.sqrt(len(band))
            got = float(scan.mean[k + 1, 0] - scan.mean[k, 0])
            assert abs(got - airy_band_mean_oracle(r1, r2)) <= 4.0 * se


class TestErfTailSum:
    def test_cutoff_beyond_sample_is_zero(self):
        params = TightnessParams(r=5.0, T=1.0, c=1.0)
        samples = [np.array([[0.1], [0.2], [0.3]])]
        vals = erf_tail_sum(samples, params, [3, 7])
        assert vals.tolist() == [0.0, 0.0]

    def test_matches_direct_loop(self):
        params = TightnessParams(r=1.5, T=2.0, c=0.5)
        samples = [np.array([[0.4], [-2.0], [3.1]]), np.array([[1.0], [0.2], [-5.0]])]
        vals = erf_tail_sum(samples, params, [1])
        denom = math.sqrt(0.5) * 2.0
        total = 0.0
        for s in samples:
            mods = sorted(abs(float(v)) for v in s.ravel())
            total += sum(0.5 * math.erfc((m - 1.5) / denom / math.sqrt(2.0)) for m in mods[1:])
        assert abs(vals[0] - total / 2.0) <= 1e-14

    def test_nonincreasing_in_label_cutoff(self):
        arr, _ = sample_airy_ensemble(50, 2.0, RngStream(334), 10)
        params = TightnessParams(r=3.0, T=5.0, c=1.0)
        vals = erf_tail_sum(arr, params, list(range(0, 51, 5)))
        assert np.all(np.diff(vals) <= 1e-15)

    def test_nondecreasing_in_radius(self):
        # the Erf argument falls as r grows, so every term grows
        arr, _ = sample_airy_ensemble(50, 2.0, RngStream(334), 10)
        lo = erf_tail_sum(arr, TightnessParams(r=2.0, T=5.0, c=1.0), [10])
        hi = erf_tail_sum(arr, TightnessParams(r=5.0, T=5.0, c=1.0), [10])
        assert hi[0] >= lo[0]

    def test_desk_scale_decay(self):
        arr, _ = sample_airy_ensemble(100, 2.0, RngStream(332), 50)
        params = TightnessParams(r=10.0, T=20.0, c=1.0)
        vals = erf_tail_sum(arr, params, [25, 75])
        assert vals[0] >= 10.0 * vals[1]

    def test_validation(self):
        params = TightnessParams(r=1.0, T=1.0, c=1.0)
        with pytest.raises(ValueError):
            erf_tail_sum([], params, [1])
        with pytest.raises(ValueError):
            erf_tail_sum([np.array([[1.0]])], params, [-1])
        # a fractional cutoff was once read as its integer part
        for cuts in ([1.7], [math.nan], [math.inf], ["a"], [None]):
            with pytest.raises(ValueError, match=r"^L_list\[0\] must be a whole number >= 0$"):
                erf_tail_sum([np.array([[1.0]])], params, cuts)
        # a cut past every sample's count collects nothing, however large
        assert erf_tail_sum([np.array([[1.0], [2.0]])], params, [10**30, 1e30]).tolist() == [0.0, 0.0]
        assert erf_tail_sum([np.array([[1.0], [2.0]])], params, [1.0]).tolist() == (
            erf_tail_sum([np.array([[1.0], [2.0]])], params, [1]).tolist()
        )
        with pytest.raises(ValueError):
            TightnessParams(r=0.0, T=1.0, c=1.0)
        with pytest.raises(ValueError):
            TightnessParams(r=1.0, T=1.0, c=0.0)

    @pytest.mark.parametrize("name", ["r", "T", "c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_parameters_must_be_finite(self, name, value):
        kwargs = {"r": 1.0, "T": 1.0, "c": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            TightnessParams(**kwargs)


class _FakeEnsemble:
    def __init__(self, times, states):
        self.times = times
        self.states = states


def _brownian_ensemble(seed, n_paths=2000, n_rec=33, m=2, dt=0.125):
    g = np.random.default_rng(seed)
    inc = g.normal(0.0, math.sqrt(dt), size=(n_paths, n_rec - 1, m, 1))
    states = np.concatenate([np.zeros((n_paths, 1, m, 1)), np.cumsum(inc, axis=1)], axis=1)
    return _FakeEnsemble(dt * np.arange(n_rec), states)


class TestHolderMoment:
    def test_lag_zero(self):
        ens = _brownian_ensemble(1, n_paths=3)
        assert holder_moment(ens, [0.0])[0] == 0.0

    def test_brownian_fourth_moment(self):
        # driftless paths: E|X_t - X_u|^4 = 3 |t-u|^2
        ens = _brownian_ensemble(7)
        lags = [0.125, 0.25, 0.5, 1.0]
        vals = holder_moment(ens, lags)
        for lag, v in zip(lags, vals):
            assert abs(v / (3.0 * lag**2) - 1.0) <= 0.1
        slope = log_log_slope(lags, vals)
        assert 1.9 <= slope <= 2.1

    def test_averages_every_path_and_particle(self):
        times = np.array([0.0, 1.0])
        states = np.zeros((2, 2, 2, 1))
        states[0, 1, :, 0] = [1.0, 2.0]
        states[1, 1, :, 0] = [50.0, 0.0]
        ens = _FakeEnsemble(times, states)
        assert holder_moment(ens, [1.0])[0] == (1.0 + 2.0**4 + 50.0**4) / 4.0

    def test_lag_validation(self):
        # off the grid, beyond the horizon 4 = 32 * 0.125, negative, not finite
        ens = _brownian_ensemble(2, n_paths=2)
        for lag in (0.1, 100.0, 4.125, -0.125):
            with pytest.raises(ValueError, match="recording grid"):
                holder_moment(ens, [0.125, lag])
        for lag in (math.inf, -math.inf, math.nan, "a", None):
            with pytest.raises(ValueError, match=r"^lag_list\[1\] must be finite$"):
                holder_moment(ens, [0.125, lag])
        assert holder_moment(ens, [4.0])[0] > 0.0

    def test_ensemble_without_increments_is_refused(self):
        ens = _FakeEnsemble(np.array([0.0]), np.zeros((3, 1, 2, 1)))
        with pytest.raises(ValueError, match="^ensemble has no increments$"):
            holder_moment(ens, [0.0])

    def test_on_simulated_ensemble(self):
        spec = ModelSpec(family=Family.AIRY, beta=2.0, n_particles=3)
        init = np.array([-2.0, 0.0, 2.0])
        cfg = IntegratorConfig(dt=1e-3, t_final=0.05, dt_record=5e-3)
        ens = simulate(spec, [init] * 30, cfg, RngStream(55))
        vals = holder_moment(ens, [0.005, 0.01, 0.02])
        assert np.all(vals > 0)
        assert vals[2] > vals[0]


class TestLogLogSlope:
    def test_exact_power_law(self):
        x = np.array([0.1, 0.2, 0.7, 1.3])
        assert abs(log_log_slope(x, 7.0 * x**3) - 3.0) <= 1e-12

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            log_log_slope([1.0], [1.0])

    @pytest.mark.parametrize(
        "x, y",
        [([1.0, 2.0], [1.0, -1.0]), ([1.0, 2.0], [1.0, 0.0]), ([0.0, 2.0], [1.0, 2.0]),
         ([1.0, math.inf], [1.0, 2.0]), ([1.0, 2.0], [math.nan, 2.0])],
        ids=["negative-y", "zero-y", "zero-x", "infinite-x", "nan-y"],
    )
    def test_refuses_values_with_no_finite_logarithm(self, x, y):
        # a negative y once gave NaN with a RuntimeWarning
        with pytest.raises(ValueError, match="^x and y must be finite and > 0$"):
            log_log_slope(x, y)


class TestCorrelationEstimateType:
    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            CorrelationEstimate(
                bins=np.array([0.0, 1.0]), counts=np.array([1.0]),
                density=np.array([-0.1]), n_samples=1, stderr=np.array([0.0]), order=1,
            )

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError):
            CorrelationEstimate(
                bins=np.array([0.0, 1.0]), counts=np.array([0.0]),
                density=np.array([0.0]), n_samples=0, stderr=np.array([0.0]), order=1,
            )


class TestSampleShape:
    def test_sample_with_an_extra_axis_is_refused(self):
        # an (n, 1, 1) sample, such as a row of an (S, n, 1) stack given one
        # more axis, would otherwise be read as n points of shape (1, 1)
        bad = [np.zeros((3, 1, 1))] * 100
        calls = [
            lambda: estimate_rho(bad, 1, np.array([0.0, 1.0])),
            lambda: erf_tail_sum(bad, TightnessParams(r=1.0, T=1.0, c=1.0), [0]),
            lambda: drift_truncation_scan(bad, AIRY2, -1.0, [1.0]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^sample 0 has shape \(3, 1, 1\)"):
                call()
