import math

import numpy as np
import pytest

from ibrownian.core import DomainError, Family, ModelSpec, RngStream, SingularConfigurationError
from ibrownian import models as M
from ibrownian.cli import _SAMPLERS

import oracles


def _spec(fam, n, **kw):
    return ModelSpec(fam, n, **kw)


class TestFiniteDriftFrozenExamples:
    def test_hard_edge_two_particles(self):
        # -1/16 + 1/2 + 1/(1-2) = -0.5625
        spec = _spec(Family.BESSEL, 2, alpha=1.0)
        assert M.drift_finite_all(spec, np.array([1.0, 2.0]))[0, 0] == pytest.approx(-0.5625, abs=1e-15)

    def test_planar_two_particles(self):
        spec = _spec(Family.GINIBRE, 2)
        b = M.drift_finite_all(spec, np.array([[0.0, 0.0], [1.0, 0.0]]))[0]
        assert np.allclose(b, [-1.0, 0.0], atol=1e-15)

    def test_soft_edge_single_particle(self):
        spec = _spec(Family.AIRY, 1)
        assert M.drift_finite_all(spec, np.array([0.0]))[0, 0] == pytest.approx(-1.0, abs=1e-15)


class TestFiniteDriftAgainstLoopOracles:
    def test_soft_edge(self):
        rng = np.random.default_rng(5)
        xs = np.sort(rng.normal(0, 2, 7))
        spec = _spec(Family.AIRY, 7, beta=1.5)
        got = M.drift_finite_all(spec, xs)
        for i in range(7):
            want = oracles.drift_oracle_soft_edge(1.5, 7, xs, i)
            assert got[i, 0] == pytest.approx(want, rel=1e-12)

    def test_planar(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(0, 2, (6, 2))
        spec = _spec(Family.GINIBRE, 6)
        got = M.drift_finite_all(spec, pts)
        for i in range(6):
            assert np.allclose(got[i], oracles.drift_oracle_planar(pts, i), rtol=1e-12, atol=1e-13)

    def test_hard_edge(self):
        rng = np.random.default_rng(7)
        xs = np.sort(rng.uniform(0.3, 9, 6))
        spec = _spec(Family.BESSEL, 6, alpha=2.0)
        got = M.drift_finite_all(spec, xs)
        for i in range(6):
            assert got[i, 0] == pytest.approx(oracles.drift_oracle_hard_edge(2.0, 6, xs, i), rel=1e-12)

    def test_squared(self):
        rng = np.random.default_rng(8)
        xs = np.sort(rng.uniform(0.3, 9, 6))
        spec = _spec(Family.SQUARE_BESSEL, 6, alpha=1.5)
        got = M.drift_finite_all(spec, xs)
        for i in range(6):
            assert got[i, 0] == pytest.approx(oracles.drift_oracle_squared(1.5, 6, xs, i), rel=1e-12)

    def test_root_squared(self):
        rng = np.random.default_rng(9)
        xs = np.sort(rng.uniform(0.3, 4, 6))
        spec = _spec(Family.SQRT_SQUARE_BESSEL, 6, alpha=1.0)
        got = M.drift_finite_all(spec, xs)
        for i in range(6):
            assert got[i, 0] == pytest.approx(oracles.drift_oracle_root_squared(1.0, 6, xs, i), rel=1e-12)

    def test_lennard_jones(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(0, 2, (5, 3))
        spec = _spec(Family.LENNARD_JONES, 5, beta=1.0)
        got = M.drift_finite_all(spec, pts)
        for i in range(5):
            want = oracles.drift_oracle_lennard_jones(1.0, spec.free_c, spec.free_theta, 5, pts, i)
            assert np.allclose(got[i], want, rtol=1e-12, atol=1e-12)

    def test_riesz(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(0, 2, (5, 3))
        spec = _spec(Family.RIESZ, 5, beta=2.0, riesz_a=4)
        got = M.drift_finite_all(spec, pts)
        for i in range(5):
            want = oracles.drift_oracle_riesz(2.0, 4, spec.free_c, spec.free_theta, 5, pts, i)
            assert np.allclose(got[i], want, rtol=1e-12, atol=1e-12)


def _random_states(seed=12):
    rng = np.random.default_rng(seed)
    return [
        (_spec(Family.AIRY, 6, beta=2.0), np.sort(rng.normal(0, 3, 6))),
        (_spec(Family.AIRY, 6, beta=1.0), np.sort(rng.normal(0, 3, 6))),
        (_spec(Family.GINIBRE, 5), rng.normal(0, 2, (5, 2))),
        (_spec(Family.BESSEL, 5, alpha=1.5), np.sort(rng.uniform(0.5, 8, 5))),
        (_spec(Family.SQUARE_BESSEL, 5, alpha=2.0), np.sort(rng.uniform(0.5, 8, 5))),
        (_spec(Family.SQRT_SQUARE_BESSEL, 5, alpha=1.0), np.sort(rng.uniform(0.5, 4, 5))),
        (_spec(Family.LENNARD_JONES, 5, beta=1.0), rng.normal(0, 2, (5, 3))),
        (_spec(Family.RIESZ, 5, beta=2.0, riesz_a=4), rng.normal(0, 2, (5, 3))),
    ]


class TestLogDerivativeDecomposition:
    def test_reconstruction_matches_direct_drift(self):
        for spec, pts in _random_states():
            arr = np.asarray(pts, float)
            if arr.ndim == 1:
                arr = arr[:, None]
            direct = M.drift_finite_all(spec, arr)
            # a = sigma^2 is 4x for the squared process and 1 otherwise
            squared = spec.family is Family.SQUARE_BESSEL
            for i in range(arr.shape[0]):
                env = np.delete(arr, i, axis=0)
                dec = M.log_derivative(spec, arr[i], env, s=1.3)
                a, grad_a = (4.0 * arr[i], 4.0) if squared else (1.0, 0.0)
                rec = 0.5 * (grad_a + a * (dec.free + dec.near + dec.far))
                scale = max(1.0, float(np.max(np.abs(direct[i]))))
                assert np.max(np.abs(rec - direct[i])) / scale <= 1e-12

    def test_total_independent_of_cutoff_scale(self):
        spec = _spec(Family.BESSEL, 5, alpha=1.5)
        rng = np.random.default_rng(13)
        arr = np.sort(rng.uniform(0.5, 8, 5))[:, None]
        env = np.delete(arr, 2, axis=0)
        decs = [M.log_derivative(spec, arr[2], env, s=s) for s in (0.5, 1.0, 2.0, 7.0)]
        totals = [(d.free + d.near + d.far)[0] for d in decs]
        assert max(totals) - min(totals) <= 1e-12

    def test_split_weights_are_complementary(self):
        spec = _spec(Family.GINIBRE, 3)
        env = np.array([[1.2, 0.0], [0.0, 2.4]])
        x = np.array([0.1, 0.1])
        dec = M.log_derivative(spec, x, env, s=1.0)
        # recompute near+far directly from the pair kernel g(x, y) = 2 (x - y) / |x - y|^2
        total_pairs = sum(2.0 * (x - y) / np.sum((x - y) ** 2) for y in env)
        assert np.allclose(dec.near + dec.far, total_pairs, atol=1e-14)

    def test_far_vanishes_for_large_cutoff(self):
        spec = _spec(Family.AIRY, 3)
        env = np.array([[0.5], [2.0]])
        dec = M.log_derivative(spec, np.array([-1.0]), env, s=100.0)
        assert np.allclose(dec.far, 0.0)

    def test_near_vanishes_when_everything_is_far(self):
        spec = _spec(Family.AIRY, 3)
        env = np.array([[50.0], [-50.0]])
        dec = M.log_derivative(spec, np.array([0.0]), env, s=1.0)
        assert np.allclose(dec.near, 0.0)


def _pair_term(spec, x, y):
    """g(x, y): the pair part of the log derivative at x with the one-point environment y."""
    dec = M.log_derivative(spec, x, y[None, :], s=1.0)
    return dec.near + dec.far


class TestPairKernelProperties:
    def test_antisymmetry(self):
        for spec, pts in _random_states(14):
            if spec.family is Family.SQRT_SQUARE_BESSEL:
                continue
            arr = np.asarray(pts, float).reshape(len(pts), -1)
            g_xy = _pair_term(spec, arr[0], arr[1])
            g_yx = _pair_term(spec, arr[1], arr[0])
            assert np.allclose(g_xy, -g_yx, atol=1e-12)

    def test_coincident_pair_raises(self):
        spec = _spec(Family.AIRY, 2)
        with pytest.raises(SingularConfigurationError):
            _pair_term(spec, np.array([1.0]), np.array([1.0]))


class TestCutoff:
    def test_plateau_and_support(self):
        assert M.cutoff_chi(0.0, 2.0) == 1.0
        assert M.cutoff_chi(2.0, 2.0) == 1.0
        assert M.cutoff_chi(3.0, 2.0) == 0.0
        assert M.cutoff_chi(5.0, 2.0) == 0.0
        assert M.cutoff_chi(-1.5, 2.0) == 1.0

    def test_midpoint_value(self):
        # cubic ramp passes through 1/2 at the middle of [s, s+1]
        assert M.cutoff_chi(2.5, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_c1_joins(self):
        h = 1e-6
        for edge in (2.0, 3.0):
            left = (M.cutoff_chi(edge, 2.0) - M.cutoff_chi(edge - h, 2.0)) / h
            right = (M.cutoff_chi(edge + h, 2.0) - M.cutoff_chi(edge, 2.0)) / h
            assert abs(left - right) <= 1e-5

    def test_monotone_on_ramp(self):
        ts = np.linspace(2.0, 3.0, 101)
        vals = M.cutoff_chi(ts, 2.0)
        assert np.all(np.diff(vals) <= 0)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            M.cutoff_chi(1.0, 0.0)
        for s in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^cutoff scale must be finite and > 0$"):
                M.cutoff_chi(1.0, s)


class TestTruncatedDrift:
    def test_lone_particle_soft_edge(self):
        spec = _spec(Family.AIRY, 1)
        got = M.truncated_drift_at(spec, np.array([0.0]), None, M.TruncationParams(radius=4.0))
        assert got[0] == pytest.approx(-4.0, abs=1e-15)

    def test_tail_compensator_value(self):
        # a lone particle feels the compensator alone: u = -beta 2 sqrt(r),
        # and the drift is u / 2
        spec = _spec(Family.AIRY, 1, beta=2.0)
        got = M.truncated_drift_at(spec, np.array([0.0]), None, M.TruncationParams(radius=9.0))
        assert got[0] == -6.0
        for r in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^truncation radius must be finite and > 0$"):
                M.TruncationParams(radius=r)

    def test_window_excludes_far_points(self):
        spec = _spec(Family.AIRY, 3)
        tp = M.TruncationParams(radius=2.0)
        inside = M.truncated_drift_at(spec, np.array([0.5]), np.array([[1.0]]), tp)
        both = M.truncated_drift_at(spec, np.array([0.5]), np.array([[1.0], [5.0]]), tp)
        assert np.array_equal(inside, both)

    def test_window_is_on_environment_modulus(self):
        # a point at -1.5 is inside radius 2 even though it is left of the test point
        spec = _spec(Family.AIRY, 2, beta=2.0)
        tp = M.TruncationParams(radius=2.0)
        got = M.truncated_drift_at(spec, np.array([0.5]), np.array([[-1.5]]), tp)
        want = (1.0 / (0.5 + 1.5)) - 2.0 * math.sqrt(2.0)
        assert got[0] == pytest.approx(want, rel=1e-14)

    def test_planar_variants(self):
        spec = _spec(Family.GINIBRE, 3)
        env = np.array([[1.0, 0.0], [3.0, 0.0]])
        x = np.array([2.0, 0.0])
        centered = M.truncated_drift_at(spec, x, env, M.TruncationParams(radius=1.5, variant="centered"))
        origin = M.truncated_drift_at(spec, x, env, M.TruncationParams(radius=1.5, variant="origin"))
        assert np.allclose(centered, [0.0, 0.0], atol=1e-15)
        assert np.allclose(origin, [-1.0, 0.0], atol=1e-15)

    def test_variant_validation(self):
        spec = _spec(Family.GINIBRE, 2)
        with pytest.raises(ValueError):
            M.truncated_drift_at(spec, np.array([0.0, 0.0]), np.array([[1.0, 0.0]]), M.TruncationParams(radius=1.0))
        with pytest.raises(ValueError):
            M.truncated_drift_at(
                _spec(Family.AIRY, 2),
                np.array([0.0]),
                np.array([[1.0]]),
                M.TruncationParams(radius=1.0, variant="centered"),
            )

    def test_particle_indexed_form_matches_positional(self):
        spec = _spec(Family.AIRY, 4, beta=2.0)
        pts = np.array([-3.0, -1.0, 0.5, 2.0])
        tp = M.TruncationParams(radius=10.0)
        for i in range(4):
            a = M.drift_limit_truncated_all(spec, pts, tp)[i]
            b = M.truncated_drift_at(spec, np.array([pts[i]]), np.delete(pts, i)[:, None], tp)
            assert np.allclose(a, b)

    def test_soft_edge_window_sum_matches_finite_drift_sum(self):
        # with every environment point inside the window, the interaction sums
        # of the finite and truncated fields coincide; only the one-body parts differ
        spec = _spec(Family.AIRY, 4, beta=2.0)
        pts = np.array([-3.0, -1.0, 0.5, 2.0])
        tp = M.TruncationParams(radius=50.0)
        i = 1
        n13 = 4.0 ** (1.0 / 3.0)
        s_fin = M.drift_finite_all(spec, pts)[i, 0] + (n13 + pts[i] / (2 * n13))
        s_tru = M.drift_limit_truncated_all(spec, pts, tp)[i, 0] + 2.0 * math.sqrt(50.0)
        assert s_fin == pytest.approx(s_tru, rel=1e-13)

    def test_hard_edge_truncated(self):
        spec = _spec(Family.BESSEL, 3, alpha=2.0)
        tp = M.TruncationParams(radius=5.0)
        got = M.truncated_drift_at(spec, np.array([1.0]), np.array([[2.0], [7.0]]), tp)
        want = 2.0 / (2.0 * 1.0) + 1.0 / (1.0 - 2.0)
        assert got[0] == pytest.approx(want, rel=1e-14)

    def test_3d_families_have_centered_window(self):
        spec = _spec(Family.RIESZ, 3, beta=2.0, riesz_a=4)
        tp = M.TruncationParams(radius=1.5)
        x = np.zeros(3)
        near = np.array([[1.0, 0.0, 0.0]])
        far = np.array([[1.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        assert np.array_equal(
            M.truncated_drift_at(spec, x, near, tp), M.truncated_drift_at(spec, x, far, tp)
        )

    def test_params_validation(self):
        with pytest.raises(ValueError):
            M.TruncationParams(radius=0.0)
        with pytest.raises(ValueError):
            M.TruncationParams(radius=float("nan"))
        with pytest.raises(ValueError):
            M.TruncationParams(radius=-1.0)
        with pytest.raises(ValueError):
            M.TruncationParams(radius=math.inf)
        with pytest.raises(ValueError):
            M.TruncationParams(radius=1.0, variant="sideways")


class TestDomainAndSingularityGuards:
    def test_positive_domain_enforced(self):
        spec = _spec(Family.BESSEL, 2, alpha=1.0)
        with pytest.raises(DomainError):
            M.drift_finite_all(spec, np.array([-1.0, 2.0]))

    def test_coincident_points_rejected(self):
        spec = _spec(Family.AIRY, 2)
        with pytest.raises(SingularConfigurationError):
            M.drift_finite_all(spec, np.array([1.0, 1.0 + 1e-13]))

    def test_wrong_particle_count(self):
        spec = _spec(Family.AIRY, 3)
        with pytest.raises(ValueError):
            M.drift_finite_all(spec, np.array([1.0, 2.0]))

    def test_wrong_dimension(self):
        spec = _spec(Family.GINIBRE, 2)
        with pytest.raises(ValueError, match="^state dimension 1 != family dimension 2$"):
            M.drift_finite_all(spec, np.array([1.0, 2.0]))

    def test_truncated_drift_of_wrong_dimension_is_refused(self):
        # a (3, 2) soft-edge state, whose first column alone was once read
        state = np.array([[-3.0, 0.0], [-1.0, 1.0], [0.5, 2.0]])
        with pytest.raises(ValueError, match="^state dimension 2 != family dimension 1$"):
            M.drift_limit_truncated_all(_spec(Family.AIRY, 3), state, M.TruncationParams(radius=10.0))

    def test_environment_of_wrong_dimension_is_refused(self):
        # a 1-D planar environment, once read as the points (1, 1), (2, 2), (3, 3)
        spec = _spec(Family.GINIBRE, 4)
        tp = M.TruncationParams(radius=10.0, variant="centered")
        with pytest.raises(ValueError, match=r"^env has shape \(3, 1\), not \(n, 2\)$"):
            M.truncated_drift_at(spec, np.zeros(2), np.array([1.0, 2.0, 3.0]), tp)

    def test_log_derivative_position_of_wrong_dimension_is_refused(self):
        # a scalar planar position, once read as (0.3, 0.3)
        spec = _spec(Family.GINIBRE, 3)
        env = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match=r"^x has shape \(1, 1\), not \(1, 2\)$"):
            M.log_derivative(spec, 0.3, env, 1.0)
        with pytest.raises(ValueError, match=r"^env has shape \(2, 1\), not \(n, 2\)$"):
            M.log_derivative(spec, np.zeros(2), np.array([1.0, 2.0]), 1.0)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_truncated_drift_refuses_non_finite_points(self, bad):
        # a NaN environment point was once left out of the window, and the
        # drift came back finite
        tp = M.TruncationParams(radius=5.0)
        with pytest.raises(ValueError, match="^env must be finite; point 1 is not$"):
            M.truncated_drift_at(_spec(Family.AIRY, 3), 0.0, [1.0, bad], tp)
        with pytest.raises(ValueError, match="^x must be finite; point 0 is not$"):
            M.truncated_drift_at(_spec(Family.BESSEL, 3, alpha=1.0), bad, [1.0, 2.0], tp)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_log_derivative_refuses_non_finite_points(self, bad):
        # an infinite environment point was once put in far = 0
        spec = _spec(Family.GINIBRE, 3)
        with pytest.raises(ValueError, match="^env must be finite; point 1 is not$"):
            M.log_derivative(spec, np.zeros(2), np.array([[1.0, 0.0], [bad, 2.0]]), 1.0)
        with pytest.raises(ValueError, match="^x must be finite; point 0 is not$"):
            M.log_derivative(spec, np.array([0.0, bad]), np.array([[1.0, 0.0]]), 1.0)

# one spec per family, with the truncation its limit field takes
_BATCH_FAMILIES = [
    (Family.AIRY, {"beta": 2.0}, None),
    (Family.GINIBRE, {}, "centered"),
    (Family.GINIBRE, {}, "origin"),
    (Family.BESSEL, {"alpha": 1.0}, None),
    (Family.SQUARE_BESSEL, {"alpha": 1.0}, None),
    (Family.SQRT_SQUARE_BESSEL, {"alpha": 2.0}, None),
    (Family.LENNARD_JONES, {"beta": 1.0}, None),
    (Family.RIESZ, {"beta": 1.0, "riesz_a": 4}, None),
]


def _stack(spec, n_states, seed):
    rng = np.random.default_rng(seed)
    size = (n_states, spec.n_particles, spec.dimension)
    if spec.nonnegative_domain:
        return rng.uniform(0.2, 9.0, size)
    return rng.normal(0.0, 3.0, size)


class TestBatchAxis:
    """A (P, n, d) stack gives the stacked per-state drifts, bitwise."""

    @pytest.mark.parametrize("fam,kw,variant", _BATCH_FAMILIES)
    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_finite_drift_equals_stacked_calls(self, fam, kw, variant, n):
        spec = _spec(fam, n, **kw)
        stack = _stack(spec, 6, seed=n)
        got = M.drift_finite_all(spec, stack)
        want = np.stack([M.drift_finite_all(spec, state) for state in stack])
        assert got.shape == (6, n, spec.dimension)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("fam,kw,variant", _BATCH_FAMILIES)
    def test_truncated_drift_equals_stacked_calls(self, fam, kw, variant):
        spec = _spec(fam, 8, **kw)
        trunc = M.TruncationParams(radius=4.0, variant=variant)
        stack = _stack(spec, 5, seed=3)
        got = M.drift_limit_truncated_all(spec, stack, trunc)
        want = np.stack([M.drift_limit_truncated_all(spec, state, trunc) for state in stack])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("fam,kw,variant", _BATCH_FAMILIES)
    def test_empty_stack_gives_an_empty_drift(self, fam, kw, variant):
        spec = _spec(fam, 5, **kw)
        stack = np.zeros((0, 5, spec.dimension))
        trunc = M.TruncationParams(radius=4.0, variant=variant)
        sep = np.empty(0)
        assert M.drift_finite_all(spec, stack, separation=sep).shape == stack.shape
        assert M.drift_limit_truncated_all(spec, stack, trunc, separation=sep).shape == stack.shape

    @pytest.mark.parametrize("fam,kw,variant", _BATCH_FAMILIES)
    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_separation_is_smallest_pair_distance(self, fam, kw, variant, n):
        spec = _spec(fam, n, **kw)
        stack = _stack(spec, 4, seed=n)
        want = [
            min((math.dist(p, q) for i, p in enumerate(state) for q in state[i + 1 :]), default=math.inf)
            for state in stack
        ]
        trunc = M.TruncationParams(radius=4.0, variant=variant)
        for drift in (M.drift_finite_all, lambda spec, x, **out: M.drift_limit_truncated_all(spec, x, trunc, **out)):
            sep = np.full(4, np.nan)
            b = drift(spec, stack)
            assert np.array_equal(drift(spec, stack, separation=sep), b)
            assert sep == pytest.approx(want, rel=1e-15)
            one = np.full((), np.nan)
            drift(spec, stack[2], separation=one)
            assert one == sep[2]

    @pytest.mark.parametrize("fam,kw,variant", _BATCH_FAMILIES)
    def test_singular_member_raises(self, fam, kw, variant):
        # after writing every member's separation: the integrator reads the
        # singular members from them
        spec = _spec(fam, 4, **kw)
        stack = _stack(spec, 5, seed=4)
        trunc = M.TruncationParams(radius=50.0, variant=variant)
        for drift in (M.drift_finite_all, lambda spec, x, **out: M.drift_limit_truncated_all(spec, x, trunc, **out)):
            want = np.empty(5)
            drift(spec, stack, separation=want)
            singular = stack.copy()
            singular[3, 2] = singular[3, 0] + 1e-13
            singular[1, 0] = np.nan
            sep = np.full(5, -1.0)
            with pytest.raises(SingularConfigurationError):
                drift(spec, singular, separation=sep)
            assert np.array_equal(sep[[0, 2, 4]], want[[0, 2, 4]])
            # a NaN member is not singular
            assert 0.0 < sep[3] < M.MIN_PAIR_SEPARATION and np.isnan(sep[1])

    @pytest.mark.parametrize("fam", [Family.BESSEL, Family.SQUARE_BESSEL, Family.SQRT_SQUARE_BESSEL])
    def test_out_of_domain_member_raises(self, fam):
        spec = _spec(fam, 4, alpha=1.0)
        stack = _stack(spec, 5, seed=5)
        stack[4, 1, 0] = -0.5
        with pytest.raises(DomainError):
            M.drift_finite_all(spec, stack)
        with pytest.raises(DomainError):
            M.drift_limit_truncated_all(spec, stack, M.TruncationParams(radius=50.0))

    def test_nan_member_does_not_hide_a_singular_one(self):
        spec = _spec(Family.AIRY, 3)
        stack = _stack(spec, 3, seed=6)
        stack[0, 0, 0] = np.nan
        stack[2, 1] = stack[2, 0] + 1e-13
        with pytest.raises(SingularConfigurationError):
            M.drift_finite_all(spec, stack)


class TestTruncatedDriftAgainstLoopOracle:
    """Every family and planar variant, with some points outside the window."""

    @staticmethod
    def _want(spec, trunc, state):
        return np.stack([
            oracles.truncated_drift_oracle(
                spec.family.value, state[i], np.delete(state, i, axis=0), trunc.radius,
                beta=spec.beta, alpha=spec.alpha, riesz_a=spec.riesz_a,
                variant=None if trunc.variant is None else trunc.variant.value,
            )
            for i in range(len(state))
        ])

    @pytest.mark.parametrize("fam,kw,variant", _BATCH_FAMILIES)
    def test_matches_loop_oracle(self, fam, kw, variant):
        spec = _spec(fam, 9, **kw)
        trunc = M.TruncationParams(radius=3.0, variant=variant)
        stack = _stack(spec, 3, seed=21)
        wants = [self._want(spec, trunc, state) for state in stack]
        for state, want in zip(stack, wants):
            if variant == "centered" or spec.dimension == 3:
                window = np.linalg.norm(state[:, None] - state[None, :], axis=-1)
            else:
                window = np.linalg.norm(state, axis=-1)
            assert (window >= trunc.radius).any()
            at = np.stack([M.truncated_drift_at(spec, state[i], np.delete(state, i, axis=0), trunc) for i in range(9)])
            np.testing.assert_allclose(at, want, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(M.drift_limit_truncated_all(spec, state, trunc), want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(M.drift_limit_truncated_all(spec, stack, trunc), np.stack(wants), rtol=1e-12, atol=1e-12)


class TestDiffusion:
    def test_kind_mapping(self):
        # the squared process is the one family whose noise depends on the state
        noisy = [fam for fam, kw, _ in _BATCH_FAMILIES if M._state_noise(_spec(fam, 2, **kw))]
        assert noisy == [Family.SQUARE_BESSEL]

    def test_squared_process_coefficients(self):
        spec = _spec(Family.SQUARE_BESSEL, 2, alpha=1.0)
        x = np.array([4.0, 9.0])
        assert np.allclose(M.diffusion_sigma(spec, x), [4.0, 6.0])
        # a = sigma^2 = 4x, so grad a = 4: the drift is (1/2)(4 + 4x d)
        assert np.allclose(M.diffusion_sigma(spec, x) ** 2, [16.0, 36.0])
        d = M.log_derivative(spec, x[:1], x[1:], s=1.0)
        b = M.drift_finite_all(spec, x)[0]
        assert b == pytest.approx(0.5 * (4.0 + 16.0 * (d.free + d.near + d.far)), rel=1e-14)

    def test_identity_coefficients(self):
        spec = _spec(Family.AIRY, 2)
        x = np.array([4.0, 9.0])
        assert np.allclose(M.diffusion_sigma(spec, x), 1.0)
        # a = 1, so grad a = 0: the drift is d / 2
        d = M.log_derivative(spec, x[:1], x[1:], s=1.0)
        b = M.drift_finite_all(spec, x)[0]
        assert b == pytest.approx(0.5 * (d.free + d.near + d.far), rel=1e-14)


class TestChangeOfVariables:
    def test_root_process_drift_from_squared_process(self):
        # if y = z^2 follows the squared-process field with noise 2*sqrt(y),
        # then z follows the root-process field with unit noise:
        # b_root(z) = b_sq(z^2)/(2z) - 1/(2z)
        rng = np.random.default_rng(15)
        zs = np.sort(rng.uniform(0.4, 3.0, 5))
        sq = _spec(Family.SQUARE_BESSEL, 5, alpha=1.5)
        rt = _spec(Family.SQRT_SQUARE_BESSEL, 5, alpha=1.5)
        b_sq = M.drift_finite_all(sq, zs**2)[:, 0]
        b_rt = M.drift_finite_all(rt, zs)[:, 0]
        assert np.allclose(b_rt, b_sq / (2 * zs) - 1.0 / (2 * zs), rtol=1e-12)

    def test_translation_covariance_of_interaction(self):
        spec = _spec(Family.RIESZ, 5, beta=2.0, riesz_a=4)
        rng = np.random.default_rng(16)
        pts = rng.normal(0, 2, (5, 3))
        shift = np.array([0.3, -0.7, 1.1])
        b0 = M.drift_finite_all(spec, pts)
        b1 = M.drift_finite_all(spec, pts + shift)
        free_shift = -(spec.beta * spec.free_c / 5.0**spec.free_theta) * shift
        assert np.allclose(b1 - b0, free_shift, atol=1e-12)


class TestEnergyChange:
    # the Metropolis target and the drift are one measure: -d/dv of the
    # chain's energy change is the log derivative d = 2b (a = 1 for these
    # families).  Central differences with step 1e-5 err by eps^2 |E'''| / 6,
    # below 1e-6 for pair distances >= 0.9, plus rounding near 1e-16 |E| / eps;
    # the tolerance 1e-5 (1 + |d|) is fixed from that, not from a run.
    EPS = 1e-5

    @pytest.mark.parametrize(
        "spec",
        [
            _spec(Family.LENNARD_JONES, 2, beta=1.5, free_c=0.3),
            _spec(Family.LENNARD_JONES, 5, beta=1.0, free_theta=0.0),
            _spec(Family.RIESZ, 2, beta=2.0, riesz_a=4),
            _spec(Family.RIESZ, 5, beta=0.7, riesz_a=5, free_c=1.1),
        ],
        ids=["lj-2", "lj-5", "riesz-2", "riesz-5"],
    )
    def test_central_difference_is_log_derivative(self, spec):
        rng = np.random.default_rng(1800 + spec.n_particles)
        n = spec.n_particles
        cells = np.stack(np.unravel_index(np.arange(n), (2, 2, 2)), axis=1)
        x = 1.2 * cells + rng.uniform(-0.1, 0.1, (n, 3))
        d = 2.0 * M.drift_finite_all(spec, x)
        delta = M._energy_change(spec)
        for i in range(n):
            for k in range(3):
                e = self.EPS * np.eye(3)[k]
                fd = -(delta(x, i, x[i] + e) - delta(x, i, x[i] - e)) / (2.0 * self.EPS)
                assert abs(fd - d[i, k]) <= 1e-5 * (1.0 + abs(d[i, k]))

    @pytest.mark.parametrize(
        "fam", [Family.AIRY, Family.GINIBRE, Family.BESSEL, Family.SQUARE_BESSEL, Family.SQRT_SQUARE_BESSEL]
    )
    def test_families_with_other_samplers_are_refused(self, fam):
        kw = {"alpha": 1.0} if fam in (Family.BESSEL, Family.SQUARE_BESSEL, Family.SQRT_SQUARE_BESSEL) else {}
        with pytest.raises(ValueError, match="no Metropolis energy"):
            M._energy_change(_spec(fam, 3, **kw))


class TestSteinGates:
    """Every drift is half the score of its family's equilibrium law
    (sigma = 1), so Stein's identity ties it, through every pair, to an
    independent exact sampler.  Fixed before the run: 4000 draws per case,
    s = 1 and 3 median nearest-neighbour gaps, |z| <= 3.5 with z from the
    per-draw mean and its standard error.  The pair test function cannot
    see a 5 % error in the hard edge's pair term, so ``bessel`` also reads
    the one-body test function near 0."""

    @pytest.mark.parametrize(
        "spec, seed",
        [
            (_spec(Family.AIRY, 10, beta=1.0), 1730),
            (_spec(Family.AIRY, 10, beta=2.0), 1731),
            (_spec(Family.AIRY, 10, beta=4.0), 1732),
            (_spec(Family.BESSEL, 10, alpha=1.5), 1733),
            (_spec(Family.GINIBRE, 20), 1734),
        ],
        ids=["airy-beta1", "airy-beta2", "airy-beta4", "bessel-alpha1.5", "ginibre"],
    )
    def test_drift_is_the_score_of_the_exact_sampler(self, spec, seed):
        x, _ = _SAMPLERS[spec.family](None, spec, RngStream(seed), 4000)
        z = oracles.stein_z(x, 2.0 * M.drift_finite_all(spec, x), one_body=spec.family is Family.BESSEL)
        assert all(abs(v) <= 3.5 for v in z.values()), z

    def test_one_body_statistic_is_centred_under_its_law(self):
        # the oracle itself: iid Gamma(5/2) points have score 1.5 / x - 1,
        # and 1.65 / x - 1 is told apart; bounds in standard errors
        x = np.random.default_rng(1723).gamma(2.5, size=(4000, 5, 1))
        for s in (0.5, 2.0):
            z = {a: abs(oracles.mean_z(oracles.stein_one_body(x, a / x - 1.0, s))) for a in (1.5, 1.65)}
            assert z[1.5] <= 4.0 < z[1.65]
