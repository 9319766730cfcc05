import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstwo

import oracles

from ibrownian.core import (
    Family,
    ModelSpec,
    RngStream,
    StepFailureError,
)
from ibrownian.models import TruncationParams, drift_finite_all
from ibrownian.cli import _SAMPLERS, _spaced_initial
from ibrownian.sampling import _edge_spectrum_dense, sample_airy_ensemble, sample_gibbs_chain
from ibrownian.sde import (
    IntegratorConfig,
    PathEnsemble,
    simulate,
    step,
)


def _ascending(values):
    return np.asarray(values, dtype=float)[:, None]


def _assert_same_ensemble(got, want):
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.substeps, want.substeps)
    assert got.substeps.dtype == want.substeps.dtype
    assert got.max_depth_used == want.max_depth_used
    assert got.failed_paths == want.failed_paths
    assert got.path_seeds == want.path_seeds
    assert got.ordering_violations == want.ordering_violations


def _matches_reference(spec, init, cfg, seed):
    """Compare simulate with the recursive reference under "drop" and,
    when paths are flagged, the message "raise" gives; returns the run."""
    got = simulate(spec, init, cfg, RngStream(seed), on_failure="drop")
    want = oracles.reference_simulate(spec, init, cfg, RngStream(seed), on_failure="drop")
    _assert_same_ensemble(got, want)
    if want.failed_paths:
        with pytest.raises(StepFailureError) as raised:
            simulate(spec, init, cfg, RngStream(seed))
        with pytest.raises(StepFailureError) as expected:
            oracles.reference_simulate(spec, init, cfg, RngStream(seed))
        assert str(raised.value) == str(expected.value) == want.failed_paths[0][1]
    return got


@dataclass(frozen=True)
class _CountingStream(RngStream):
    """RngStream that records the subkeys of every generator it hands out."""

    requests: list = field(default_factory=list, compare=False)

    def generator(self, *subkeys):
        self.requests.append(subkeys)
        return super().generator(*subkeys)


class TestIntegratorConfig:
    def test_defaults_and_coercion(self):
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
        assert cfg.record_step == 1e-3
        assert cfg.substeps_per_record == 1

    def test_record_grid_multiple(self):
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0, dt_record=1e-2)
        assert cfg.substeps_per_record == 10
        with pytest.raises(ValueError):
            IntegratorConfig(dt=1e-3, t_final=1.0, dt_record=2.5e-3)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=1e-3, t_final=1.0, dt_record=5e-4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0, "t_final": 1.0},
            {"dt": 1e-3, "t_final": -1.0},
            {"dt": 1e-3, "t_final": 1.0, "max_substep_depth": 31},
            {"dt": 1e-3, "t_final": 1.0, "max_substep_depth": -1},
            {"dt": 1e-3, "t_final": 1.0, "noise_scale": -1.0},
            {"dt": 1e-3, "t_final": 1.0, "truncation": 3.0},
            {"dt": np.inf, "t_final": 1.0},
            {"dt": 1e-3, "t_final": 1.0, "dt_record": np.inf},
            {"dt": 1e-3, "t_final": 1.0, "dt_record": np.nan},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"noise_scale": math.nan}, "noise_scale"),
            ({"noise_scale": math.inf}, "noise_scale"),
            ({"max_substep_depth": 2.5}, "max_substep_depth"),
            ({"max_substep_depth": math.nan}, "max_substep_depth"),
            ({"t_final": math.nan}, "t_final"),
        ],
        ids=["noise-nan", "noise-inf", "depth-fractional", "depth-nan", "t-final-nan"],
    )
    def test_refusal_names_the_setting(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            IntegratorConfig(**{"dt": 1e-3, "t_final": 1.0, **kwargs})


class TestStep:
    def test_zero_drift_zero_noise_is_identity(self):
        # a lone particle at the centre of its confinement feels no drift
        spec = ModelSpec(Family.LENNARD_JONES, 1, beta=1.0)
        cfg = IntegratorConfig(dt=1e-2, t_final=1.0, noise_scale=0.0)
        state = np.zeros((1, 3))
        out = step(spec, state, 1e-2, RngStream(0), cfg)
        assert np.array_equal(out, state)

    def test_linear_decay_single_particle(self):
        # lone planar particle: drift is exactly -x
        spec = ModelSpec(Family.GINIBRE, 1)
        cfg = IntegratorConfig(dt=1e-4, t_final=1.0, noise_scale=0.0)
        pts = np.array([[1.0, 0.5]])
        g = RngStream(0).generator()
        for _ in range(10_000):
            pts = step(spec, pts, 1e-4, g, cfg)
        assert np.allclose(pts, np.array([[1.0, 0.5]]) * math.exp(-1.0), rtol=1e-3)

    def test_rng_type_check(self):
        spec = ModelSpec(Family.GINIBRE, 1)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
        with pytest.raises(TypeError):
            step(spec, np.array([[0.0, 0.0]]), 1e-3, 7, cfg)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_dt_must_be_finite_and_positive(self, dt):
        spec = ModelSpec(Family.AIRY, 2, beta=2.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            step(spec, _ascending([0.0, 1.0]), dt, RngStream(1), cfg)

    def test_nan_state_raises(self):
        # a start that is not finite is refused before any draw
        spec = ModelSpec(Family.AIRY, 2, beta=2.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
        for bad in (math.nan, -math.inf, math.inf):
            g = np.random.default_rng(1)
            state = g.bit_generator.state
            with pytest.raises(ValueError, match="^state must be finite; point 1 is not$"):
                step(spec, _ascending([0.0, bad]), 1e-3, g, cfg)
            assert g.bit_generator.state == state

    def test_depth_exhaustion_raises(self):
        spec = ModelSpec(Family.AIRY, 2, beta=2.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0, max_substep_depth=0, noise_scale=0.0)
        with pytest.raises(StepFailureError):
            step(spec, _ascending([0.0, 1e-7]), 1e-3, RngStream(1), cfg)

    def test_infinite_noise_is_refused(self):
        # a finite drift with noise that overflows: the new state is not
        # finite, a step failure with that reason, as in the reference
        spec = ModelSpec(Family.LENNARD_JONES, 1, beta=1.0)
        cfg = IntegratorConfig(dt=4.0, t_final=4.0, noise_scale=1e308)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(StepFailureError, match="^state is not finite$"):
                step(spec, np.zeros((1, 3)), 4.0, np.random.default_rng(2), cfg)
        with pytest.raises(StepFailureError, match="^state is not finite$"):
            oracles.reference_step(spec, np.zeros((1, 3)), 4.0, np.random.default_rng(2), cfg)


class TestSimulate:
    def test_zero_horizon_returns_initial(self):
        spec = ModelSpec(Family.AIRY, 3, beta=2.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.0)
        init = _ascending([-1.0, 0.0, 1.0])
        ens = simulate(spec, [init, init], cfg, RngStream(5))
        assert ens.states.shape == (2, 1, 3, 1)
        assert np.array_equal(ens.states[0, 0], init)
        assert np.array_equal(ens.times, [0.0])

    def test_deterministic_and_worker_invariant(self):
        spec = ModelSpec(Family.AIRY, 4, beta=2.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.02, dt_record=5e-3)
        init = [_ascending([-3.0, -1.0, 0.5, 2.0])] * 6
        a = simulate(spec, init, cfg, RngStream(42))
        b = simulate(spec, init, cfg, RngStream(42))
        c = simulate(spec, init, cfg, RngStream(42), workers=2)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.states, c.states)
        d = simulate(spec, init, cfg, RngStream(43))
        assert not np.array_equal(a.states, d.states)

    def test_midpoint_restart_is_bitwise(self):
        spec = ModelSpec(Family.AIRY, 3, beta=2.0)
        full_cfg = IntegratorConfig(dt=1e-3, t_final=0.02, dt_record=5e-3)
        init = [_ascending([-2.0, 0.0, 2.0])] * 3
        full = simulate(spec, init, full_cfg, RngStream(9))
        half_cfg = IntegratorConfig(dt=1e-3, t_final=0.01, dt_record=5e-3)
        head = simulate(spec, init, half_cfg, RngStream(9))
        mid = [head.states[p, -1] for p in range(3)]
        tail = simulate(spec, mid, half_cfg, RngStream(9), start_interval=2)
        assert np.array_equal(tail.states[:, 0], full.states[:, 2])
        assert np.array_equal(tail.states[:, 1:], full.states[:, 3:])
        assert np.allclose(tail.times, full.times[2:])

    @pytest.mark.parametrize("start_interval", [1.5, -1, math.nan])
    def test_start_interval_is_a_whole_number(self, start_interval):
        # 1.5 once recorded off the dt grid and drew interval int(1.5 + j)'s noise
        stream = _CountingStream(9)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.003)
        with pytest.raises(ValueError, match="^start_interval must be "):
            simulate(ModelSpec(Family.AIRY, 2), [_ascending([0.0, 1.0])], cfg, stream, start_interval=start_interval)
        assert stream.requests == []

    @pytest.mark.parametrize("workers", [0, -3, 2.5])
    def test_workers_is_a_whole_number_at_least_one(self, workers, monkeypatch):
        # 0 and -3 once ran in one process, and 2.5 raised TypeError from
        # range; the count is refused before any start is read or any pool made
        def unread_starts():
            raise AssertionError("a start was read")
            yield

        monkeypatch.setattr("ibrownian.sde.ProcessPoolExecutor", None)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.003)
        with pytest.raises(ValueError, match="^workers must be "):
            simulate(ModelSpec(Family.AIRY, 2), unread_starts(), cfg, RngStream(9), workers=workers)

    def test_substep_accounting(self):
        spec = ModelSpec(Family.AIRY, 2, beta=2.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.01, noise_scale=0.0)
        plain = simulate(spec, [_ascending([-0.5, 0.5])], cfg, RngStream(2))
        # a close pair's drift move exceeds a tenth of its gap
        split = simulate(spec, [_ascending([-1e-3, 1e-3])], cfg, RngStream(2))
        assert plain.substeps[0] == 10
        assert plain.max_depth_used == 0
        assert split.substeps[0] > 10
        assert split.max_depth_used >= 1

    def test_step_failure_names_path(self):
        spec = ModelSpec(Family.AIRY, 2, beta=2.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.01, max_substep_depth=0, noise_scale=0.0)
        with pytest.raises(StepFailureError, match="path 0"):
            simulate(spec, [_ascending([0.0, 1e-7])], cfg, RngStream(1))

    def test_drop_with_every_path_flagged_raises(self):
        spec = ModelSpec(Family.AIRY, 3, beta=2.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.01)
        init = [_ascending([0.0, 0.0, 1.0]), _ascending([-1.0, 2.0, 2.0])]
        with pytest.raises(StepFailureError, match="^all paths failed; first: path 0: drift evaluation hit a singular"):
            simulate(spec, init, cfg, RngStream(48), on_failure="drop")

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    @pytest.mark.parametrize("on_failure", ["raise", "drop"])
    def test_nonfinite_start_is_refused_naming_its_index(self, bad, on_failure):
        spec = ModelSpec(Family.AIRY, 3, beta=2.0)
        starts, _ = sample_airy_ensemble(3, 2.0, RngStream(8), 51)
        starts[7, 1] = bad
        stream = _CountingStream(9)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.01)
        with pytest.raises(ValueError, match="^initial state 7 must be finite; point 1 is not$"):
            simulate(spec, starts, cfg, stream, on_failure=on_failure)
        assert stream.requests == []

    @pytest.mark.parametrize(
        "initial, on_failure, message",
        [
            ([_ascending([0.0, 1.0])], "ignore", "^on_failure must be 'raise' or 'drop'$"),
            ([], "raise", "^at least one initial state is required$"),
        ],
        ids=["unknown-policy", "no-starts"],
    )
    def test_refused_before_any_path_runs(self, initial, on_failure, message):
        stream = _CountingStream(9)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.01)
        with pytest.raises(ValueError, match=message):
            simulate(ModelSpec(Family.AIRY, 2), initial, cfg, stream, on_failure=on_failure)
        assert stream.requests == []

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"states": np.zeros((2, 3, 2))}, "^states must have shape"),
            ({"times": np.array([0.0, 2e-3, 1e-3])}, "^recording grid must be strictly increasing$"),
            ({"states": np.full((2, 3, 2, 1), np.nan)}, "^all recorded states must be finite$"),
            ({"path_seeds": ((9, 0, 0),)}, "^one trajectory per surviving path required$"),
        ],
        ids=["bad-shape", "non-increasing-grid", "non-finite-state", "seed-count"],
    )
    def test_path_ensemble_refuses_inconsistent_records(self, change, message):
        fields = {
            "times": np.array([0.0, 1e-3, 2e-3]),
            "states": np.zeros((2, 3, 2, 1)),
            "spec": ModelSpec(Family.AIRY, 2),
            "path_seeds": ((9, 0, 0), (9, 0, 1)),
            "substeps": np.ones(2, dtype=np.int64),
            "max_depth_used": 0,
            "ordering_violations": 0,
        }
        with pytest.raises(ValueError, match=message):
            PathEnsemble(**{**fields, **change})

    def test_horizon_must_fit_grid(self):
        # rejected when the config is built, before any path is set up
        with pytest.raises(ValueError, match="t_final must be an integer multiple of dt_record"):
            IntegratorConfig(dt=1e-3, t_final=0.0105, dt_record=1e-2)

    def test_requires_stream(self):
        spec = ModelSpec(Family.AIRY, 1, beta=2.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.01)
        with pytest.raises(TypeError):
            simulate(spec, [_ascending([0.0])], cfg, np.random.default_rng(1))

    def test_truncated_field_runs_and_differs(self):
        spec = ModelSpec(Family.AIRY, 5, beta=2.0)
        init = [_ascending([-5.0, -3.0, -1.5, 0.0, 1.5])]
        plain_cfg = IntegratorConfig(dt=1e-3, t_final=0.01, noise_scale=0.0)
        trunc_cfg = IntegratorConfig(
            dt=1e-3, t_final=0.01, noise_scale=0.0, truncation=TruncationParams(radius=2.0)
        )
        a = simulate(spec, init, plain_cfg, RngStream(3))
        b = simulate(spec, init, trunc_cfg, RngStream(3))
        assert np.all(np.isfinite(b.states))
        assert not np.array_equal(a.states[:, -1], b.states[:, -1])


class TestOrderingAndBoundary:
    def test_deterministic_repulsion_keeps_order(self):
        spec = ModelSpec(Family.AIRY, 4, beta=2.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.05, dt_record=5e-3, noise_scale=0.0)
        ens = simulate(spec, [_ascending([-2.0, -0.5, 0.5, 2.0])] * 4, cfg, RngStream(4))
        assert ens.ordering_violations == 0

    def test_noisy_airy_short_run_keeps_order(self):
        spec = ModelSpec(Family.AIRY, 5, beta=2.0)
        cfg = IntegratorConfig(dt=1e-4, t_final=0.01, dt_record=1e-3)
        ens = simulate(spec, [_ascending([-4.0, -2.5, -1.0, 0.2, 1.5])] * 20, cfg, RngStream(6))
        assert ens.ordering_violations == 0

    def test_single_particle_always_zero(self):
        spec = ModelSpec(Family.GINIBRE, 1)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.01)
        ens = simulate(spec, [np.array([[0.0, 0.0]])], cfg, RngStream(7))
        assert ens.ordering_violations is None

    # the id names the boundary rule under test, reflection at 0
    @pytest.mark.parametrize("noise_scale", [3.0], ids=["reflect"])
    def test_hard_edge_positivity(self, noise_scale):
        spec = ModelSpec(Family.BESSEL, 1, alpha=1.0)
        cfg = IntegratorConfig(dt=1e-2, t_final=0.5, dt_record=1e-2, noise_scale=noise_scale)
        init = [np.array([[0.05]])] * 10
        ens = simulate(spec, init, cfg, RngStream(8))
        assert np.min(ens.states) > 0.0

    def test_square_bessel_positivity(self):
        spec = ModelSpec(Family.SQUARE_BESSEL, 3, alpha=1.0)
        cfg = IntegratorConfig(dt=5e-4, t_final=0.05, dt_record=5e-3)
        init = [_ascending([2.0, 8.0, 20.0])] * 10
        ens = simulate(spec, init, cfg, RngStream(15))
        assert np.min(ens.states) > 0.0
        assert ens.ordering_violations == 0


# soft-edge paths at n = 10 from the spaced start, shared by the M and Q laws
_SPACED_N, _SPACED_T, _SPACED_PATHS = 10, 0.5, 1000


@functools.lru_cache(maxsize=None)
def _spaced_airy_run(beta):
    """The spaced start and its paths to T at ``beta``, flagged paths dropped."""
    spec = ModelSpec(Family.AIRY, _SPACED_N, beta=beta)
    start = _spaced_initial(spec)
    cfg = IntegratorConfig(dt=1e-3, t_final=_SPACED_T, dt_record=_SPACED_T, max_substep_depth=30)
    ens = simulate(spec, [start] * _SPACED_PATHS, cfg, RngStream(1663 + int(beta)), on_failure="drop")
    return start, ens


class TestWeakAccuracy:
    @pytest.mark.slow
    def test_ou_mean_and_variance(self):
        # lone planar particle is an exact OU process: mean x0 e^-t,
        # per-coordinate variance (1 - e^-2t)/2
        spec = ModelSpec(Family.GINIBRE, 1)
        cfg = IntegratorConfig(dt=1e-2, t_final=1.0, dt_record=1.0)
        init = [np.array([[2.0, 0.0]])] * 10_000
        ens = simulate(spec, init, cfg, RngStream(16))
        finals = ens.states[:, -1, 0, :]
        want_mean = 2.0 * math.exp(-1.0)
        want_var = 0.5 * (1.0 - math.exp(-2.0))
        assert abs(finals[:, 0].mean() - want_mean) <= 0.025
        assert abs(finals[:, 1].mean()) <= 0.025
        assert abs(finals[:, 0].var() / want_var - 1.0) <= 0.05
        assert abs(finals[:, 1].var() / want_var - 1.0) <= 0.05

    @pytest.mark.slow
    def test_square_root_transform_consistency(self):
        # direct squared-process paths vs squared root-process paths
        n, alpha, t_final = 2, 1.0, 0.1
        x0 = np.array([3.0, 14.0])
        sq = ModelSpec(Family.SQUARE_BESSEL, n, alpha=alpha)
        rt = ModelSpec(Family.SQRT_SQUARE_BESSEL, n, alpha=alpha)
        cfg = IntegratorConfig(dt=1e-3, t_final=t_final, dt_record=t_final)
        paths = 300
        direct = simulate(sq, [_ascending(x0)] * paths, cfg, RngStream(17))
        rooted = simulate(rt, [_ascending(np.sqrt(x0))] * paths, cfg, RngStream(18))
        a = direct.states[:, -1, :, 0].ravel()
        b = rooted.states[:, -1, :, 0].ravel() ** 2
        assert ks_2samp(a, b).statistic <= 0.1

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "family",
        [
            pytest.param(
                Family.SQUARE_BESSEL,
                marks=pytest.mark.xfail(
                    raises=StepFailureError, reason="ROADMAP item 5: path 109 of 1000 exhausts substep depth 30"
                ),
            ),
            Family.SQRT_SQUARE_BESSEL,
        ],
    )
    def test_squared_sum_follows_cir_law(self, family):
        # sum x_i of the squared process, and sum y_i^2 of its square root,
        # is a CIR process whose law at T is a scaled noncentral chi-square;
        # then a flagged path fails the test as the step failure it is
        n, alpha, t_final, paths = 5, 1.0, 0.2, 1000
        z0 = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        start = z0**2 if family is Family.SQUARE_BESSEL else z0
        cfg = IntegratorConfig(dt=1e-3, t_final=t_final, dt_record=t_final, max_substep_depth=30)
        ens = simulate(ModelSpec(family, n, alpha=alpha), [start] * paths, cfg, RngStream(1661), on_failure="drop")
        final = ens.states[:, -1, :, 0]
        sums = np.sum(final if family is Family.SQUARE_BESSEL else final**2, axis=1)
        cdf = oracles.cir_cdf(2.0 * n * (alpha + n), 1.0 / (2.0 * n), float(np.sum(z0**2)), t_final)
        # the one-sample KS critical value at level 1e-3 for the paths kept
        assert oracles.one_sample_ks(sums, cdf) <= kstwo.ppf(1.0 - 1e-3, sums.size)
        if ens.failed_paths:
            raise StepFailureError(f"{len(ens.failed_paths)} of {paths} paths flagged; first: {ens.failed_paths[0][1]}")

    @pytest.mark.parametrize("beta", [2.0, 4.0])
    def test_soft_edge_centre_of_mass_follows_ou_law(self, beta):
        # sum x_i of the soft-edge process is an Ornstein-Uhlenbeck process,
        # Gaussian at T; a flagged path fails the test
        start, ens = _spaced_airy_run(beta)
        assert ens.failed_paths == ()
        sums = np.sum(ens.states[:, -1, :, 0], axis=1)
        # the one-sample KS critical value at level 1e-3
        critical = kstwo.ppf(1.0 - 1e-3, _SPACED_PATHS)
        n, t_final, m0 = _SPACED_N, _SPACED_T, float(np.sum(start))
        assert oracles.one_sample_ks(sums, oracles.airy_center_of_mass_cdf(n, beta, m0, t_final)) <= critical
        # the law with the rate doubled is told apart
        assert oracles.one_sample_ks(sums, oracles.airy_center_of_mass_cdf(n, 2.0 * beta, m0, t_final)) > critical

    @pytest.mark.parametrize("beta,t_final,seed", [(2.0, 3.17, 1700), (4.0, 1.59, 1702)])
    def test_soft_edge_centre_of_mass_from_equilibrium_follows_ou_law(self, beta, t_final, seed):
        # each path's own M_0 sets its law, so the KS test is on the PIT of
        # M_T.  The doubled rate shows only once k T = 1 (k = beta / (4 n^(1/3))):
        # at n = 4 and 2000 paths it expects KS 0.075 against the critical 0.044
        n, paths = 4, 2000
        starts, _ = sample_airy_ensemble(n, beta, RngStream(seed), paths)
        cfg = IntegratorConfig(dt=1e-2, t_final=t_final, dt_record=t_final, max_substep_depth=30)
        ens = simulate(ModelSpec(Family.AIRY, n, beta=beta), starts, cfg, RngStream(seed + 1), on_failure="drop")
        assert ens.failed_paths == ()
        m0, mt = np.sum(starts[:, :, 0], axis=1), np.sum(ens.states[:, -1, :, 0], axis=1)
        critical = kstwo.ppf(1.0 - 1e-3, paths)
        ks = [
            oracles.one_sample_ks([oracles.airy_center_of_mass_cdf(n, b, a, t_final)(m) for a, m in zip(m0, mt)], lambda u: u)
            for b in (beta, 2.0 * beta)
        ]
        assert ks[0] <= critical < ks[1]

    @pytest.mark.parametrize("beta", [2.0, 4.0])
    def test_soft_edge_squared_sum_follows_cir_law(self, beta):
        # Q = sum (x_i + 2 n^(2/3))^2 of the soft-edge process is a CIR process,
        # dQ = (beta n (n - 1) / 2 + n - beta Q / (2 n^(1/3))) dt + 2 sqrt(Q) dW:
        # the pair terms add up to beta n (n - 1) / 2 and the confinement to
        # -beta Q / (2 n^(1/3)).  The paths of the M law; a flagged path fails
        start, ens = _spaced_airy_run(beta)
        assert ens.failed_paths == ()
        n, t_final = _SPACED_N, _SPACED_T
        shift = 2.0 * n ** (2.0 / 3.0)
        q = np.sum((ens.states[:, -1, :, 0] + shift) ** 2, axis=1)
        q0 = float(np.sum((start + shift) ** 2))

        def law(b):
            return oracles.cir_cdf(b * n * (n - 1) / 2.0 + n, b / (2.0 * n ** (1.0 / 3.0)), q0, t_final)

        critical = kstwo.ppf(1.0 - 1e-3, _SPACED_PATHS)
        assert oracles.one_sample_ks(q, law(beta)) <= critical
        # the law at 2 beta is told apart
        assert oracles.one_sample_ks(q, law(2.0 * beta)) > critical

    @pytest.mark.parametrize(
        "spec, seed",
        [
            (ModelSpec(Family.LENNARD_JONES, 8, beta=1.0, free_c=0.5, free_theta=0.0), 1668),
            (ModelSpec(Family.RIESZ, 8, beta=1.0, riesz_a=4, free_c=0.5, free_theta=0.0), 1669),
        ],
        ids=["lennard_jones", "riesz"],
    )
    def test_3d_centre_of_mass_follows_ou_law(self, spec, seed):
        # each coordinate of sum x_i is an Ornstein-Uhlenbeck process with
        # rate k = beta c / n^theta = 0.5, whatever the pair terms; kT = 1,
        # where a wrong rate shows.  A flagged path fails the test
        n, t_final, paths = spec.n_particles, 2.0, 400
        cube = np.stack(np.unravel_index(np.arange(n), (2, 2, 2)), axis=1)
        start = 1.2 * cube + np.array([0.7, -0.3, 0.2])
        cfg = IntegratorConfig(dt=4e-3, t_final=t_final, dt_record=t_final, max_substep_depth=30)
        ens = simulate(spec, [start] * paths, cfg, RngStream(seed), on_failure="drop")
        assert ens.failed_paths == ()
        sums = np.sum(ens.states[:, -1], axis=1)
        # the one-sample KS critical value at level 1e-3, per coordinate
        critical = kstwo.ppf(1.0 - 1e-3, paths)
        for m0, m in zip(np.sum(start, axis=0), sums.T):
            law = oracles.gibbs_center_of_mass_cdf(n, spec.beta, spec.free_c, spec.free_theta, m0, t_final)
            assert oracles.one_sample_ks(m, law) <= critical
            # the law with the rate doubled is told apart
            doubled = oracles.gibbs_center_of_mass_cdf(n, 2.0 * spec.beta, spec.free_c, spec.free_theta, m0, t_final)
            assert oracles.one_sample_ks(m, doubled) > critical

    def test_planar_centre_of_mass_follows_ou_law(self):
        # each coordinate of M = sum z_i of the planar process is an
        # Ornstein-Uhlenbeck process with rate 1 and variance n per unit
        # time: the pair terms cancel in the sum and the one-body drift is
        # -z_i.  That is the 3d law at k = beta c / n^theta = 1.  The spaced
        # start is moved off the centre, so both coordinates of M start far
        # from 0, where a wrong rate shows.  A flagged path fails the test
        spec = ModelSpec(Family.GINIBRE, 10)
        n, t_final, paths = spec.n_particles, 1.0, 400
        start = _spaced_initial(spec) + 1.5
        # the one-sample KS critical value at level 1e-3, per coordinate
        critical = kstwo.ppf(1.0 - 1e-3, paths)
        cfg = IntegratorConfig(dt=4e-3, t_final=t_final, dt_record=t_final)
        ens = simulate(spec, [start] * paths, cfg, RngStream(1670), on_failure="drop")
        assert ens.failed_paths == ()
        sums = np.sum(ens.states[:, -1], axis=1)
        for m0, m in zip(np.sum(start, axis=0), sums.T):
            assert oracles.one_sample_ks(m, oracles.gibbs_center_of_mass_cdf(n, 1.0, 1.0, 0.0, m0, t_final)) <= critical
            # the law with the rate doubled is told apart
            doubled = oracles.gibbs_center_of_mass_cdf(n, 2.0, 1.0, 0.0, m0, t_final)
            assert oracles.one_sample_ks(m, doubled) > critical

    @pytest.mark.slow
    def test_planar_squared_radius_sum_follows_cir_law(self):
        # sum |z_i|^2 of the planar process is a CIR process with
        # a = n(n + 1), b = 2, whatever beta = 2 pair terms the paths meet
        n, t_final, paths = 10, 0.4, 1000
        z0 = np.array([[i - 1.5, j - 1.5] for i in range(4) for j in range(4)])[:n]
        cfg = IntegratorConfig(dt=4e-3, t_final=t_final, dt_record=t_final)
        ens = simulate(ModelSpec(Family.GINIBRE, n), [z0] * paths, cfg, RngStream(1662), on_failure="drop")
        sums = np.sum(ens.states[:, -1] ** 2, axis=(1, 2))
        cdf = oracles.cir_cdf(n * (n + 1.0), 2.0, float(np.sum(z0**2)), t_final)
        # the one-sample KS critical value at level 1e-3 for the paths kept
        assert oracles.one_sample_ks(sums, cdf) <= kstwo.ppf(1.0 - 1e-3, sums.size)


def _to_matrix(x, n):
    """Soft-edge coordinates x as matrix eigenvalues: lambda = 2 sqrt(n) + x n^(-1/6)."""
    return 2.0 * math.sqrt(n) + np.asarray(x) * n ** (-1.0 / 6.0)


def _to_edge(lam, n):
    return n ** (1.0 / 6.0) * (np.asarray(lam) - 2.0 * math.sqrt(n))


def _smallest_gap(x):
    """min_i (x_(i+1) - x_i) of each ascending row."""
    return np.min(np.diff(x, axis=1), axis=1)


# soft-edge paths against Dyson's matrix Ornstein-Uhlenbeck process, from
# the same starts, at edge time T (matrix time T n^(-1/3))
_MATRIX_N, _MATRIX_T, _MATRIX_PATHS = 10, 0.5, 1000


@functools.lru_cache(maxsize=None)
def _matrix_law_run(start, seed, beta=2.0, paths=_MATRIX_PATHS):
    """Sorted x_T of the integrator's surviving paths, their indices, every
    path's x_0, the oracle's x at T and at 2T from every start, and the
    flagged paths.  ``start`` is "equilibrium" (tridiagonal draws from
    stream ``seed``) or "spaced"; the paths take stream ``seed + 1``."""
    n, t_final = _MATRIX_N, _MATRIX_T
    spec = ModelSpec(Family.AIRY, n, beta=beta)
    if start == "equilibrium":
        starts, _ = sample_airy_ensemble(n, beta, RngStream(seed), paths)
    else:
        starts = np.broadcast_to(_spaced_initial(spec), (paths, n, 1))
    cfg = IntegratorConfig(dt=1e-3, t_final=t_final, dt_record=t_final, max_substep_depth=30)
    ens = simulate(spec, starts, cfg, RngStream(seed + 1), on_failure="drop")
    x0 = np.asarray(starts)[:, :, 0]
    g = np.random.default_rng(seed + 2)
    laws = [
        _to_edge(oracles.matrix_ou_oracle(beta, _to_matrix(x0, n), k * t_final * n ** (-1.0 / 3.0), g), n)
        for k in (1.0, 2.0)
    ]
    survivors = [p for _, _, p in ens.path_seeds]
    return np.sort(ens.states[:, -1, :, 0], axis=1), survivors, x0, laws, ens.failed_paths


class TestMatrixPathLaw:
    # each test's two-sample KS bounds are fixed before the run: a
    # Bonferroni split of level 1e-3 over the per-particle tests it makes

    @pytest.mark.parametrize("beta,seed", [(2.0, 1670), (1.0, 1681), (4.0, 1682)], ids=["beta2", "beta1", "beta4"])
    def test_oracle_is_normalised_at_large_time(self, beta, seed):
        # by matrix time 40 the start is forgotten: the oracle's eigenvalues
        # follow the stationary law, that of check 12's dense matrix at
        # beta = 2 and of the tridiagonal sampler at every beta
        n, paths = 6, 2000
        g = np.random.default_rng(seed)
        lam0 = np.tile(_to_matrix(np.arange(1.0, n + 1.0), n), (paths, 1))
        late = _to_edge(oracles.matrix_ou_oracle(beta, lam0, 40.0, g), n)
        if beta == 2.0:
            law = np.array([_edge_spectrum_dense(n, g) for _ in range(paths)])
        else:
            law = sample_airy_ensemble(n, beta, g, paths)[0][:, :, 0]
        for i in range(n):
            assert ks_2samp(late[:, i], law[:, i]).pvalue >= 1e-3 / n

    @pytest.mark.parametrize(
        "beta,seed,paths",
        [
            (2.0, 1671, _MATRIX_PATHS),
            pytest.param(
                1.0,
                1675,
                1000,
                marks=pytest.mark.xfail(
                    raises=StepFailureError,
                    reason="ROADMAP item 5: 218 of 1000 beta = 1 paths exhaust substep depth 30",
                ),
            ),
            (4.0, 1677, 2000),
        ],
        ids=["beta2", "beta1", "beta4"],
    )
    def test_equilibrium_paths_follow_the_matrix_law(self, beta, seed, paths):
        # per particle, the position at T and the increment over T of the
        # surviving paths, and their smallest gap at T, against the law of
        # every path; then a flagged path fails the test as the step
        # failure it is
        xt, survivors, x0, (law, _), flagged = _matrix_law_run("equilibrium", seed, beta, paths)
        level = 1e-3 / (2 * _MATRIX_N + 1)
        for i in range(_MATRIX_N):
            assert ks_2samp(xt[:, i], law[:, i]).pvalue >= level
            assert ks_2samp(xt[:, i] - x0[survivors, i], law[:, i] - x0[:, i]).pvalue >= level
        assert ks_2samp(_smallest_gap(xt), _smallest_gap(law)).pvalue >= level
        if flagged:
            raise StepFailureError(f"{len(flagged)} of {paths} paths flagged; first: {flagged[0][1]}")

    @pytest.mark.parametrize("beta,seed", [(2.0, 1673), (1.0, 1690), (4.0, 1693)], ids=["beta2", "beta1", "beta4"])
    def test_transient_from_a_spaced_start_follows_the_matrix_law(self, beta, seed):
        # a transient, which no stationarity test sees: per particle and the
        # smallest gap at T; the law at 2T is told apart.  The flagged paths
        # are counted in the test below
        xt, _, _, (law, late), _ = _matrix_law_run("spaced", seed, beta)
        level = 1e-3 / (_MATRIX_N + 1)
        for i in range(_MATRIX_N):
            assert ks_2samp(xt[:, i], law[:, i]).pvalue >= level
        assert ks_2samp(_smallest_gap(xt), _smallest_gap(law)).pvalue >= level
        assert min(ks_2samp(xt[:, i], late[:, i]).pvalue for i in range(_MATRIX_N)) < level

    @pytest.mark.parametrize(
        "beta,seed",
        [
            pytest.param(
                2.0,
                1673,
                marks=pytest.mark.xfail(
                    reason="1 of 1000 transient paths exhausts substep depth 30 at a near collision "
                    "(|b| = 1.05e5), as 2 of 2000 paths of dyson-stationarity do",
                ),
            ),
            pytest.param(
                1.0,
                1690,
                marks=pytest.mark.xfail(
                    reason="ROADMAP item 5: 326 of 1000 beta = 1 transient paths exhaust substep depth 30"
                ),
            ),
            (4.0, 1693),
        ],
        ids=["beta2", "beta1", "beta4"],
    )
    def test_transient_from_a_spaced_start_flags_no_path(self, beta, seed):
        assert _matrix_law_run("spaced", seed, beta)[4] == ()


@functools.lru_cache(maxsize=None)
def _exact_start_run(spec, seed):
    """(x_0, x_T) of 2000 paths from exact starts, drawn from stream
    ``seed``, with paths from stream ``seed + 10``, T = 0.5, dt = 5e-3,
    depth 30 and a flagged path raising."""
    starts, _ = _SAMPLERS[spec.family](None, spec, RngStream(seed), 2000)
    cfg = IntegratorConfig(dt=5e-3, t_final=0.5, dt_record=0.5, max_substep_depth=30)
    states = simulate(spec, starts, cfg, RngStream(seed + 10)).states
    return states[:, 0], states[:, -1]


_BETA1_DEPTH_XFAIL = pytest.mark.xfail(
    raises=StepFailureError, reason="ROADMAP item 5: 484 of 2000 beta = 1 paths exhaust substep depth 30"
)


class TestSteinGatesAtT:
    """From exact starts the state at T keeps the equilibrium law, whose
    score is d = 2 b (sigma = 1), so Stein's identity holds at T as
    ``test_models.TestSteinGates`` checks it for the samplers.  Fixed before
    the run: n = 10, the paths of ``_exact_start_run``, s = 1 and 3 median
    nearest-neighbour gaps at T, |z| <= 3.5; the 3d families start from
    their chain, at n = 8."""

    @pytest.mark.parametrize(
        "spec, seed",
        [
            pytest.param(ModelSpec(Family.AIRY, 10, beta=1.0), 1740, marks=_BETA1_DEPTH_XFAIL),
            (ModelSpec(Family.AIRY, 10, beta=2.0), 1741),
            (ModelSpec(Family.AIRY, 10, beta=4.0), 1742),
            (ModelSpec(Family.BESSEL, 10, alpha=1.5), 1743),
            pytest.param(ModelSpec(Family.GINIBRE, 10), 1744, marks=pytest.mark.slow),
        ],
        ids=["airy-beta1", "airy-beta2", "airy-beta4", "bessel-alpha1.5", "ginibre"],
    )
    def test_integrator_keeps_the_exact_law(self, spec, seed):
        _, x = _exact_start_run(spec, seed)
        z = oracles.stein_z(x, 2.0 * drift_finite_all(spec, x), one_body=spec.family is Family.BESSEL)
        assert all(abs(v) <= 3.5 for v in z.values()), z

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "spec, seed",
        [(ModelSpec(Family.LENNARD_JONES, 8, beta=1.0), 1750), (ModelSpec(Family.RIESZ, 8, beta=1.0, riesz_a=4), 1751)],
        ids=["lennard_jones", "riesz"],
    )
    def test_integrator_keeps_the_chain_law(self, spec, seed):
        # the 3d families start from 1000 chain draws at the default
        # options, which are correlated: z comes from 40 batch means of 25
        # paths, at s = 0.8, 1.2 and 2.0 as the chain's own gate reads it
        starts, _ = sample_gibbs_chain(spec, RngStream(seed), 1000)
        cfg = IntegratorConfig(dt=5e-3, t_final=0.5, dt_record=0.5, max_substep_depth=30)
        x = simulate(spec, starts, cfg, RngStream(seed + 10)).states[:, -1]
        score = 2.0 * drift_finite_all(spec, x)
        for s in (0.8, 1.2, 2.0):
            z = oracles.mean_z(oracles.stein_statistic(x, score, s).reshape(40, 25).mean(axis=1))
            assert abs(z) <= 3.5, f"s = {s}: z = {z:.2f}"


class TestReversalGates:
    """Every family is reversible with respect to its equilibrium, so from
    exact starts (x_0, x_T) is exchangeable: the z of
    ``oracles.reversal_z`` reads 0 for every f and g.  A drift b + J grad
    log p with J antisymmetric keeps the equilibrium law, which the Stein
    gates at T read, but breaks reversibility, which these read.  They
    reuse the paths of ``TestSteinGatesAtT`` and fix |z| <= 3.5 before the
    run."""

    @pytest.mark.slow
    def test_planar_paths_do_not_rotate(self):
        # A = sum_i x_0i x x_Ti, the out-of-plane part of the cross product
        x0, xT = _exact_start_run(ModelSpec(Family.GINIBRE, 10), 1744)
        z = oracles.reversal_z(x0, xT, lambda x: x[..., 0], lambda x: x[..., 1])
        assert abs(z) <= 3.5, z

    @pytest.mark.parametrize(
        "spec, seed",
        [
            pytest.param(ModelSpec(Family.AIRY, 10, beta=1.0), 1740, marks=_BETA1_DEPTH_XFAIL),
            (ModelSpec(Family.AIRY, 10, beta=2.0), 1741),
            (ModelSpec(Family.AIRY, 10, beta=4.0), 1742),
        ],
        ids=["airy-beta1", "airy-beta2", "airy-beta4"],
    )
    def test_adjacent_soft_edge_pairs_do_not_rotate(self, spec, seed):
        # each adjacent pair (k, k + 1), about the mean of x_0 and x_T
        # pooled, so that swapping x_0 and x_T negates every product
        x0, xT = (x[..., 0] for x in _exact_start_run(spec, seed))
        u0, uT = (x - 0.5 * (x0.mean(axis=0) + xT.mean(axis=0)) for x in (x0, xT))
        z = [oracles.reversal_z(u0, uT, lambda u: u[:, k], lambda u: u[:, k + 1]) for k in range(9)]
        assert all(abs(v) <= 3.5 for v in z), z


# one small start per family, with a close pair so that Euler-Maruyama
# paths substep unevenly
_FAMILY_STARTS = {
    "airy": (ModelSpec(Family.AIRY, 4, beta=2.0), [-1.5, -0.3, -0.22, 1.0]),
    "ginibre": (ModelSpec(Family.GINIBRE, 4), [[0.0, 0.0], [0.15, 0.05], [-0.5, 0.9], [0.3, -1.1]]),
    "bessel": (ModelSpec(Family.BESSEL, 3, alpha=1.0), [0.05, 0.3, 0.38]),
    "square_bessel": (ModelSpec(Family.SQUARE_BESSEL, 3, alpha=1.0), [0.3, 2.0, 2.4]),
    "sqrt_square_bessel": (ModelSpec(Family.SQRT_SQUARE_BESSEL, 3, alpha=1.0), [0.2, 0.9, 1.0]),
    "lennard_jones": (
        ModelSpec(Family.LENNARD_JONES, 3, beta=1.0),
        [[0.0, 0.0, 0.0], [0.6, 0.0, 0.0], [0.0, 1.2, 0.1]],
    ),
    "riesz": (ModelSpec(Family.RIESZ, 3, beta=1.0, riesz_a=4), [[0.0, 0.0, 0.0], [0.2, 0.1, 0.0], [0.0, 0.6, 0.3]]),
}


def _starts(name, paths):
    spec, start = _FAMILY_STARTS[name]
    return spec, [np.asarray(start, dtype=float).reshape(spec.n_particles, spec.dimension)] * paths


class TestMatchesRecursiveReference:
    """The batched loop reproduces the recursive per-path integrator bitwise."""

    # the ids keep the name of the one scheme, Euler-Maruyama
    @pytest.mark.parametrize("name", sorted(_FAMILY_STARTS), ids=lambda name: f"euler_maruyama-{name}")
    def test_every_family_and_scheme(self, name):
        spec, init = _starts(name, 5)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.02, dt_record=5e-3, max_substep_depth=30)
        got = _matches_reference(spec, init, cfg, 31)
        assert got.max_depth_used >= 5

    # without noise, or with one particle, no noise split test holds
    @pytest.mark.parametrize("name", sorted(_FAMILY_STARTS))
    def test_without_noise(self, name):
        spec, init = _starts(name, 2)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.02, dt_record=5e-3, max_substep_depth=30, noise_scale=0.0)
        _matches_reference(spec, init, cfg, 45)

    @pytest.mark.parametrize("name", sorted(_FAMILY_STARTS))
    def test_one_particle(self, name):
        spec, init = _starts(name, 5)
        lone = dataclasses.replace(spec, n_particles=1)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.02, dt_record=5e-3, max_substep_depth=30)
        _matches_reference(lone, [start[:1] for start in init], cfg, 46)

    # the ids name the boundary rule under test, reflection at 0
    @pytest.mark.parametrize("noise_scale", [1.5, 3.0], ids=lambda s: f"reflect-{s}")
    @pytest.mark.parametrize(
        "spec,start",
        [
            (ModelSpec(Family.BESSEL, 3, alpha=1.0), [0.05, 1.0, 3.0]),
            (ModelSpec(Family.SQUARE_BESSEL, 3, alpha=1.0), [0.02, 2.0, 6.0]),
            (ModelSpec(Family.SQRT_SQUARE_BESSEL, 3, alpha=1.0), [0.05, 1.0, 2.5]),
        ],
        ids=["bessel", "square_bessel", "sqrt_square_bessel"],
    )
    def test_boundary_policies(self, noise_scale, spec, start):
        # strong noise near the hard edge makes moves cross it, and they are
        # reflected at 0; at 3.0 most paths also end in a collision at the
        # edge and are flagged
        init = [_ascending(start)] * 6
        cfg = IntegratorConfig(dt=1e-2, t_final=0.1, dt_record=2e-2, noise_scale=noise_scale, max_substep_depth=30)
        _matches_reference(spec, init, cfg, 32)

    @pytest.mark.parametrize(
        "name,trunc",
        [
            ("airy", TruncationParams(radius=2.0)),
            ("ginibre", TruncationParams(radius=1.2, variant="centered")),
            ("bessel", TruncationParams(radius=1.0)),
        ],
    )
    def test_truncated_drift(self, name, trunc):
        spec, init = _starts(name, 4)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.01, dt_record=5e-3, truncation=trunc, max_substep_depth=30)
        _matches_reference(spec, init, cfg, 33)

    def test_workers(self):
        spec, init = _starts("airy", 7)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.02, dt_record=1e-2, max_substep_depth=30)
        got = simulate(spec, init, cfg, RngStream(34), workers=2)
        want = oracles.reference_simulate(spec, init, cfg, RngStream(34))
        _assert_same_ensemble(got, want)

    def test_large_ensembles_run_in_blocks(self, monkeypatch):
        spec, init = _starts("ginibre", 5)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.01, dt_record=5e-3, max_substep_depth=30)
        # room for two paths per block: blocks of 1, 2 and 2 paths
        monkeypatch.setattr("ibrownian.sde._BLOCK_PAIR_TERMS", 2 * 4 * 4 * 2)
        _matches_reference(spec, init, cfg, 39)

    def test_restart_from_recorded_state(self):
        spec, init = _starts("square_bessel", 4)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.01, dt_record=5e-3, max_substep_depth=30)
        head = simulate(spec, init, cfg, RngStream(35))
        mid = [head.states[p, -1] for p in range(4)]
        got = simulate(spec, mid, cfg, RngStream(35), start_interval=2)
        want = oracles.reference_simulate(spec, mid, cfg, RngStream(35), start_interval=2)
        _assert_same_ensemble(got, want)

    def test_dyson_round(self):
        # n = 20 equilibrium starts as in the dyson-sde benchmark: deep, uneven trees
        spec = ModelSpec(Family.AIRY, 20, beta=2.0)
        starts, _ = sample_airy_ensemble(20, 2.0, RngStream(36), 6)
        cfg = IntegratorConfig(dt=5e-4, t_final=0.05, dt_record=0.025, max_substep_depth=30)
        _matches_reference(spec, list(starts), cfg, 37)

    @pytest.mark.parametrize("name", sorted(_FAMILY_STARTS))
    def test_step(self, name):
        spec, init = _starts(name, 1)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0, max_substep_depth=30)
        g_new, g_ref = RngStream(38).generator(), RngStream(38).generator()
        got = want = init[0]
        for _ in range(5):
            got = step(spec, got, 2e-3, g_new, cfg)
            want = oracles.reference_step(spec, want, 2e-3, g_ref, cfg)
            assert np.array_equal(got, want)
        # a caller's generator is left where the unbuffered walk leaves it
        assert g_new.bit_generator.state == g_ref.bit_generator.state

    def test_depth_exhausted_partway_through_a_descent(self):
        # the noise rule needs depth 1, 2, 4, 6 and 3 at the start: the
        # fourth path fails in its first descent (levels 0 to 4 in one
        # iteration), the third sits at the budget and may fail later
        spec = ModelSpec(Family.AIRY, 3, beta=2.0)
        init = [_ascending([-1.0, 0.0, gap]) for gap in (0.3, 0.2, 0.1, 0.05, 0.15)]
        cfg = IntegratorConfig(dt=1e-3, t_final=0.02, dt_record=5e-3, max_substep_depth=4)
        got = _matches_reference(spec, init, cfg, 44)
        assert 3 in [p for p, _ in got.failed_paths]
        assert all("substep depth 4 exhausted" in reason for _, reason in got.failed_paths)
        assert got.n_paths >= 1


class TestNoiseBufferRefills:
    """Reference cases again with noise buffers of 1 and 3 draws, so that
    refills fall inside descents, at interval starts and before a move
    reflected at 0."""

    @pytest.fixture(autouse=True, params=[1, 3], ids=["depth1", "depth3"])
    def noise_depth(self, request, monkeypatch):
        monkeypatch.setattr("ibrownian.sde._NOISE_DEPTH", request.param)

    test_dyson_round = TestMatchesRecursiveReference.test_dyson_round
    test_boundary_policies = TestMatchesRecursiveReference.test_boundary_policies
    test_restart_from_recorded_state = TestMatchesRecursiveReference.test_restart_from_recorded_state


class TestOneDriftPerLeaf:
    """Every drift evaluation ends in a leaf move: a path descends to its
    leaf in the iteration that evaluated its drift."""

    @pytest.mark.parametrize("name", ["airy", "square_bessel"])
    def test_rows_evaluated_equal_leaves(self, name, monkeypatch):
        rows = []

        def counting(spec, x, **kwargs):
            rows.append(1 if x.ndim == 2 else len(x))
            return drift_finite_all(spec, x, **kwargs)

        monkeypatch.setattr("ibrownian.sde.drift_finite_all", counting)
        spec, init = _starts(name, 6)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.02, dt_record=5e-3, max_substep_depth=30)
        ens = simulate(spec, init, cfg, RngStream(45), on_failure="drop")
        assert ens.failed_paths == ()
        assert ens.max_depth_used >= 5
        assert sum(rows) == ens.substeps.sum()

    def test_singular_path_leaves_and_the_others_run_on(self, monkeypatch):
        # the stack raises at path 37: it leaves with its reason, and the
        # next call evaluates the 63 others with no move in between
        spec = ModelSpec(Family.AIRY, 20, beta=2.0)
        x, _ = sample_airy_ensemble(20, 2.0, RngStream(46), 64)
        doomed = x.copy()
        doomed[37, 5] = doomed[37, 4]
        cfg = IntegratorConfig(dt=1e-3, t_final=2e-3, max_substep_depth=30)
        calls = []

        def counting(spec, x, **kwargs):
            calls.append(len(x))
            return drift_finite_all(spec, x, **kwargs)

        monkeypatch.setattr("ibrownian.sde.drift_finite_all", counting)
        flagged = simulate(spec, doomed, cfg, RngStream(47), on_failure="drop")
        assert calls[:2] == [64, 63]
        reason = "drift evaluation hit a singular configuration: pair separation below 1e-12; configuration is singular"
        assert flagged.failed_paths == ((37, f"path 37: {reason}"),)
        clean = simulate(spec, x, cfg, RngStream(47), on_failure="drop")
        assert clean.failed_paths == ()
        others = [p for p in range(64) if p != 37]
        assert np.array_equal(flagged.states, clean.states[others])
        assert np.array_equal(flagged.substeps, clean.substeps[others])
        assert flagged.path_seeds == tuple(clean.path_seeds[p] for p in others)

    def test_all_singular_block_is_flagged_in_one_call(self, monkeypatch):
        # two blocks of three paths, the first all singular: one call flags
        # all three, and under "raise" it is the only call
        spec = ModelSpec(Family.AIRY, 5, beta=2.0)
        x, _ = sample_airy_ensemble(5, 2.0, RngStream(48), 6)
        x[:3, 1] = x[:3, 0]
        cfg = IntegratorConfig(dt=1e-3, t_final=0.01)
        monkeypatch.setattr("ibrownian.sde._BLOCK_PAIR_TERMS", 3 * 5 * 5)
        calls = []

        def counting(spec, x, **kwargs):
            calls.append(len(x))
            return drift_finite_all(spec, x, **kwargs)

        monkeypatch.setattr("ibrownian.sde.drift_finite_all", counting)
        ens = simulate(spec, x, cfg, RngStream(49), on_failure="drop")
        reason = "drift evaluation hit a singular configuration: pair separation below 1e-12; configuration is singular"
        assert ens.failed_paths == tuple((p, f"path {p}: {reason}") for p in range(3))
        assert [seed[2] for seed in ens.path_seeds] == [3, 4, 5]
        # the first block's one call, then the second block's first
        assert calls[:2] == [3, 3]
        calls.clear()
        with pytest.raises(StepFailureError, match=f"^path 0: {reason}$"):
            simulate(spec, x, cfg, RngStream(49))
        assert calls == [3]


class TestFailureIsolation:
    @pytest.mark.parametrize("noise_scale", [0.0, 1.0])
    def test_flagged_path_leaves_the_others_untouched(self, noise_scale):
        spec = ModelSpec(Family.AIRY, 2, beta=2.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.01, max_substep_depth=0, noise_scale=noise_scale)
        healthy = [_ascending([-1.0, 1.0]), _ascending([-0.8, 1.3]), _ascending([-1.2, 0.9])]
        doomed = _ascending([0.0, 1e-7])
        flagged = simulate(spec, [healthy[0], doomed, *healthy[1:]], cfg, RngStream(40), on_failure="drop")
        assert len(flagged.failed_paths) == 1
        index, reason = flagged.failed_paths[0]
        assert index == 1
        assert reason.startswith("path 1: substep depth 0 exhausted")
        assert [seed[2] for seed in flagged.path_seeds] == [0, 2, 3]
        clean = simulate(spec, [healthy[0], healthy[2], *healthy[1:]], cfg, RngStream(40), on_failure="drop")
        assert clean.failed_paths == ()
        assert np.array_equal(flagged.states, clean.states[[0, 2, 3]])
        assert np.array_equal(flagged.substeps, clean.substeps[[0, 2, 3]])
        want = oracles.reference_simulate(
            spec, [healthy[0], doomed, *healthy[1:]], cfg, RngStream(40), on_failure="drop"
        )
        _assert_same_ensemble(flagged, want)

    @pytest.mark.parametrize(
        "spec, healthy",
        [
            (ModelSpec(Family.GINIBRE, 2), [[0.5, 0.0], [-0.5, 0.2]]),
            (ModelSpec(Family.LENNARD_JONES, 2, beta=1.0), [[0.5, 0.0, 0.0], [-0.5, 0.2, 0.0]]),
        ],
        ids=["ginibre", "lennard_jones"],
    )
    def test_nan_drift_is_flagged(self, spec, healthy):
        # the pair difference overflows to inf and inf * 0 is NaN: the path
        # leaves before its first move, and the healthy one runs on
        doomed = np.zeros((2, spec.dimension))
        doomed[:, 0] = 1e308, -1e308
        healthy = np.array(healthy)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.01, dt_record=5e-3)
        with pytest.warns(RuntimeWarning):
            flagged = _matches_reference(spec, [doomed, healthy], cfg, 66)
        assert flagged.failed_paths == ((0, "path 0: drift is not a number"),)
        clean = simulate(spec, [healthy, healthy], cfg, RngStream(66), on_failure="drop")
        assert np.array_equal(flagged.states, clean.states[[1]])
        assert np.array_equal(flagged.substeps, clean.substeps[[1]])
        with pytest.warns(RuntimeWarning), pytest.raises(StepFailureError, match="^path 0: drift is not a number$"):
            simulate(spec, [doomed, healthy], cfg, RngStream(66))
        with pytest.warns(RuntimeWarning), pytest.raises(StepFailureError, match="^drift is not a number$"):
            step(spec, doomed, 1e-3, np.random.default_rng(67), cfg)

    @pytest.mark.parametrize("t_final", [4.0, 8.0], ids=["one-interval", "two-intervals"])
    @pytest.mark.parametrize(
        "on_failure, message",
        [("drop", "all paths failed; first: path 0: state is not finite"), ("raise", "path 0: state is not finite")],
    )
    def test_overflowing_state_is_flagged(self, t_final, on_failure, message):
        # noise of scale 1e308 overflows on the first move: each path
        # leaves at the end of its first interval, as in the reference
        spec = ModelSpec(Family.LENNARD_JONES, 1, beta=1.0)
        cfg = IntegratorConfig(dt=4.0, t_final=t_final, noise_scale=1e308)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(StepFailureError, match=f"^{message}$"):
                simulate(spec, [np.zeros((1, 3))] * 2, cfg, RngStream(68), on_failure=on_failure)
        with pytest.raises(StepFailureError, match=f"^{message}$"):
            oracles.reference_simulate(spec, [np.zeros((1, 3))] * 2, cfg, RngStream(68), on_failure=on_failure)

    def test_overflowing_path_leaves_the_others_untouched(self):
        # at scale 1e308 and dt = 1 a move overflows only where a draw
        # exceeds about 1.8 in size: those paths leave, the others run on
        spec = ModelSpec(Family.LENNARD_JONES, 1, beta=1.0)
        cfg = IntegratorConfig(dt=1.0, t_final=1.0, noise_scale=1e308)
        with pytest.warns(RuntimeWarning, match="overflow"):
            flagged = _matches_reference(spec, [np.zeros((1, 3))] * 8, cfg, 69)
        assert flagged.failed_paths and flagged.n_paths
        assert all(reason.endswith(": state is not finite") for _, reason in flagged.failed_paths)

    def test_raise_names_the_lowest_flagged_path(self):
        spec = ModelSpec(Family.AIRY, 2, beta=2.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.01, max_substep_depth=0, noise_scale=0.0)
        init = [_ascending([-1.0, 1.0]), _ascending([0.0, 1e-7]), _ascending([0.0, 1e-7])]
        with pytest.raises(StepFailureError, match="^path 1: substep depth 0"):
            simulate(spec, init, cfg, RngStream(41))

    def test_raise_stops_at_the_first_failure(self, monkeypatch):
        # path 0 is singular at t = 0: no path needs a generator past
        # interval 0, and the blocks after the first are never started
        spec = ModelSpec(Family.AIRY, 5, beta=2.0)
        starts, _ = sample_airy_ensemble(5, 2.0, RngStream(42), 39)
        init = [_ascending([0.0, 0.0, 1.0, 2.0, 3.0])] + list(starts)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.05, dt_record=1e-2)
        # four blocks of ten paths
        monkeypatch.setattr("ibrownian.sde._BLOCK_PAIR_TERMS", 10 * 5 * 5)
        stream = _CountingStream(43)
        with pytest.raises(StepFailureError) as raised:
            simulate(spec, init, cfg, stream)
        with pytest.raises(StepFailureError) as expected:
            oracles.reference_simulate(spec, init, cfg, RngStream(43))
        assert str(raised.value) == str(expected.value)
        assert str(raised.value).startswith("path 0: drift evaluation hit a singular configuration")
        assert sorted(stream.requests) == [(p, 0) for p in range(10)]
