import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from ibrownian import kernels as K
from ibrownian import sampling as S

import oracles

# Frozen reference values.  The kernel points were produced by
# oracles.airy_ode_oracle (high-order RK on y'' = x*y) and
# oracles.bessel_series_oracle (direct per-term summation); regenerate with
# those functions if the grid ever changes.
AI_ZERO = 0.35502805388781727
AIP_ZERO = -0.25881940379280682
AIRY_DIAG = {0.0: 0.066987483779663987, -4.0: 0.64484252467191761}
AIRY_OFFDIAG = {
    (-2.0, 1.0): 0.039945689051187942,
    (0.5, 0.25): 0.031118964388556242,
    (-4.0, -3.0): 0.32160580154081575,
}
BESSEL_J = {
    (1.0, 0.5): 0.2422684576748739,
    (1.0, 1.0): 0.44005058574493355,
    (1.0, 5.0): -0.32757913759146956,
    (2.0, 0.5): 0.030604023458682652,
    (2.0, 1.0): 0.11490348493190056,
    (2.0, 5.0): 0.046565116277761415,
}


class TestAiryFunction:
    def test_values_at_zero(self):
        ai, aip = K.airy_fn(0.0)
        assert ai == pytest.approx(AI_ZERO, abs=1e-14)
        assert aip == pytest.approx(AIP_ZERO, abs=1e-14)

    def test_against_ode_oracle(self):
        xs = np.linspace(-10.0, 5.0, 301)
        ai, aip = K.airy_fn(xs)
        ai_o, aip_o = oracles.airy_ode_oracle(xs)
        assert np.max(np.abs(ai - ai_o)) <= 1e-8
        assert np.max(np.abs(aip - aip_o)) <= 1e-8

    def test_deep_left_tail_against_oracle(self):
        xs = np.linspace(-30.0, -10.0, 81)
        ai, aip = K.airy_fn(xs)
        ai_o, aip_o = oracles.airy_ode_oracle(xs)
        assert np.max(np.abs(ai - ai_o)) <= 1e-7
        assert np.max(np.abs(aip - aip_o)) <= 1e-7

    def test_series_asymptotic_crossover_is_continuous(self):
        for x0 in (-6.0, 6.0):
            lo, _ = K.airy_fn(x0 - 1e-9)
            hi, _ = K.airy_fn(x0 + 1e-9)
            assert abs(lo - hi) <= 1e-9

    def test_ode_residual_by_stencil(self):
        # five-point second derivative of the implementation itself
        h = 5e-3
        xs = np.linspace(-9.5, 4.5, 141)
        vals = {k: K.airy_fn(xs + k * h)[0] for k in (-2, -1, 0, 1, 2)}
        second = (-vals[2] + 16 * vals[1] - 30 * vals[0] + 16 * vals[-1] - vals[-2]) / (12 * h * h)
        resid = second - xs * vals[0]
        assert np.max(np.abs(resid)) <= 1e-8

    def test_domain_error(self):
        with pytest.raises(ValueError):
            K.airy_fn(-121.0)
        with pytest.raises(ValueError):
            K.airy_fn(11.0)

    def test_scalar_and_array_agree(self):
        xs = np.array([-3.0, 0.0, 2.0])
        ai_arr, _ = K.airy_fn(xs)
        for x, v in zip(xs, ai_arr):
            assert K.airy_fn(float(x))[0] == v


class TestAiryKernel:
    def test_frozen_diagonal(self):
        for x, want in AIRY_DIAG.items():
            assert K.airy_kernel(x, x) == pytest.approx(want, abs=1e-10)

    def test_frozen_offdiagonal(self):
        for (x, y), want in AIRY_OFFDIAG.items():
            assert K.airy_kernel(x, y) == pytest.approx(want, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.uniform(-8, 4, size=2)
            assert K.airy_kernel(x, y) == pytest.approx(K.airy_kernel(y, x), rel=1e-14, abs=1e-300)

    def test_near_diagonal_matches_direct_across_window(self):
        for m in (-5.0, -1.0, 0.0, 2.0):
            inside = K.airy_kernel(m - 0.495e-4, m + 0.495e-4)
            outside = K.airy_kernel(m - 0.505e-4, m + 0.505e-4)
            assert abs(inside - outside) <= 1e-9

    def test_point_outside_the_support_is_refused(self):
        with pytest.raises(ValueError, match=r"^airy_kernel supports x, y in \[-120.0, 10.0\], got \(11.0, 0.0\)$"):
            K.airy_kernel(11.0, 0.0)

    def test_diagonal_closed_form(self):
        for x in (-6.0, -2.5, 0.0, 1.5):
            ai, aip = K.airy_fn(x)
            assert K.airy_kernel(x, x) == pytest.approx(aip**2 - x * ai**2, abs=1e-13)


class TestBesselJ:
    """J_alpha (``scipy.special.jv``) and J_alpha' (``scipy.special.jvp``,
    bitwise the relation the hard-edge kernel evaluates)."""

    def test_frozen_values(self):
        for (a, x), want in BESSEL_J.items():
            assert special.jv(a, x) == pytest.approx(want, abs=1e-10)

    def test_against_series_oracle_nonint_order(self):
        for a in (1.0, 1.5, 2.5):
            for x in (0.05, 0.7, 3.0, 9.0):
                assert special.jv(a, x) == pytest.approx(oracles.bessel_series_oracle(a, x), abs=2e-10)

    def test_against_integral_oracle_large_argument(self):
        # exercises the large-argument expansion past the series cut
        for a in (1, 2):
            for x in (20.0, 40.0, 80.0):
                assert special.jv(a, x) == pytest.approx(oracles.bessel_integral_oracle(a, x), abs=1e-12)

    def test_derivative_against_series_oracle(self):
        for a in (1.0, 2.0, 1.5):
            for x in (0.5, 3.0, 12.0):
                want = oracles.bessel_series_prime_oracle(a, x)
                assert special.jvp(a, x) == pytest.approx(want, abs=1e-9)

    def test_derivative_by_central_difference_large_argument(self):
        # past the series cut; h chosen so stencil noise stays below tolerance
        h = 1e-4
        for a in (1.0, 2.0, 1.5):
            for x in (25.0, 60.0):
                num = (special.jv(a, x + h) - special.jv(a, x - h)) / (2 * h)
                assert special.jvp(a, x) == pytest.approx(num, abs=1e-8)

    def test_derivative_bitwise_equal_to_scipy_jvp(self):
        # the derivative form of bessel_kernel takes (J_{a-1} - J_{a+1}) / 2
        # on Python floats from one jv call over several (order, argument) pairs
        xs = np.concatenate([np.random.default_rng(17).uniform(0.0, 100.0, 200_000), [0.0, 1e-300, 100.0]])
        for a in (0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 7.25):
            jm, jp = special.jv(np.array([[a - 1.0], [a + 1.0]]), xs)
            assert np.array_equal((jm - jp) / 2.0, special.jvp(a, xs))
            for x in xs[-5:]:
                jm, jp = special.jv((a - 1.0, a + 1.0), (x, x)).tolist()
                assert (jm - jp) / 2.0 == special.jvp(a, float(x))


class TestBesselKernel:
    def test_two_forms_agree(self):
        xs = np.linspace(0.5, 80.0, 20)
        for a in (1.0, 2.0):
            for x in xs:
                for y in xs:
                    v1 = K.bessel_kernel(a, x, y, form="derivative")
                    v2 = K.bessel_kernel(a, x, y, form="recurrence")
                    assert abs(v1 - v2) <= 1e-9

    def test_diagonal_closed_form(self):
        for a in (1.0, 2.0):
            for x in (0.3, 2.0, 17.5, 60.0):
                z = math.sqrt(x)
                ja = special.jv(a, z)
                jb = special.jv(a + 1.0, z)
                want = 0.25 * (ja * ja + jb * jb - (2.0 * a / z) * ja * jb)
                assert K.bessel_kernel(a, x, x) == pytest.approx(want, rel=1e-10, abs=1e-13)

    def test_near_diagonal_matches_direct_across_window(self):
        for a in (1.0, 2.0):
            for m in (0.5, 4.0, 25.0):
                inside = K.bessel_kernel(a, m - 0.495e-4, m + 0.495e-4)
                outside = K.bessel_kernel(a, m - 0.505e-4, m + 0.505e-4)
                assert abs(inside - outside) <= 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = rng.uniform(0.2, 50.0, size=2)
            assert K.bessel_kernel(1.0, x, y) == pytest.approx(K.bessel_kernel(1.0, y, x), rel=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            K.bessel_kernel(0.5, 1.0, 1.0)  # order below 1
        with pytest.raises(ValueError):
            K.bessel_kernel(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            K.bessel_kernel(1.0, 1.0, 200.0)
        with pytest.raises(ValueError):
            K.bessel_kernel(1.0, 1.0, 1.0, form="magic")


class TestMpmathOracle:
    """scipy-backed evaluators against mpmath at 40 significant digits."""

    @pytest.fixture(scope="class")
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        return mpmath

    # |Ai'| grows like |x|^(1/4) on the left, so the far tail gets more room
    @pytest.mark.parametrize("lo,hi,tol", [(-30.0, 10.0, 1e-13), (-120.0, -30.0, 5e-13)])
    def test_airy(self, mp, lo, hi, tol):
        xs = np.linspace(lo, hi, 401)
        ai, aip = K.airy_fn(xs)
        for x, a, ap in zip(xs, ai, aip):
            assert abs(float(mp.airyai(x)) - a) <= tol
            assert abs(float(mp.airyai(x, derivative=1)) - ap) <= tol

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 2.5, 3.0])
    def test_bessel_and_derivative(self, mp, alpha):
        xs = np.linspace(0.0, 100.0, 301)[1:]
        j = special.jv(alpha, xs)
        jp = special.jvp(alpha, xs)
        for x, v, vp in zip(xs, j, jp):
            assert abs(float(mp.besselj(alpha, x)) - v) <= 1e-13
            assert abs(float(mp.besselj(alpha, x, derivative=1)) - vp) <= 1e-13

    def test_airy_kernel_diagonal(self, mp):
        for x in np.linspace(-30.0, 10.0, 201):
            want = mp.airyai(x, derivative=1) ** 2 - x * mp.airyai(x) ** 2
            assert abs(float(want) - K.airy_kernel(x, x)) <= 1e-13

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 2.5, 3.0])
    def test_bessel_kernel_diagonal(self, mp, alpha):
        for x in np.concatenate([np.geomspace(1e-8, 1.0, 40), np.linspace(1.0, 100.0, 100)]):
            z = mp.sqrt(x)
            ja, jb = mp.besselj(alpha, z), mp.besselj(alpha + 1, z)
            want = (ja * ja + jb * jb - (2 * alpha / z) * ja * jb) / 4
            assert abs(float(want) - K.bessel_kernel(alpha, x, x)) <= 1e-13

    @pytest.mark.parametrize("alpha", [1.0, 2.5, 3.0])
    def test_bessel_kernel_off_the_diagonal(self, mp, alpha):
        # inside the diagonal window the midpoint expansion holds 1e-13; past
        # it the closed forms cancel to about eps / |x - y| (3.1e-12 was seen
        # at |x - y| = 1.02e-4, a constant of 3.2e-16), so the bound allows
        # 1e-15 / |x - y| there
        for x in np.concatenate([np.geomspace(1e-3, 1.0, 8), np.linspace(2.0, 99.0, 25)]):
            for d in (3e-5, 7e-5, 1.02e-4, 3e-4, 1e-3, 1e-2, 0.1, 1.0, 7.3):
                if x + d > 100.0:
                    continue
                sx, sy = mp.sqrt(x), mp.sqrt(x + d)
                num = sx * mp.besselj(alpha + 1, sx) * mp.besselj(alpha, sy)
                num -= mp.besselj(alpha, sx) * sy * mp.besselj(alpha + 1, sy)
                want = float(num / (2 * (mp.mpf(x) - mp.mpf(x + d))))
                tol = 1e-13 if d <= K.DIAGONAL_WINDOW else 1e-13 + 1e-15 / d
                for form in ("recurrence", "derivative"):
                    assert abs(K.bessel_kernel(alpha, x, x + d, form=form) - want) <= tol


class TestKernelGrid:
    def test_airy_grid_square(self):
        xs = np.linspace(-2, 1, 7)
        g = K.kernel_grid(K.KernelId.AIRY2, xs)
        assert g.shape == (7, 7)
        assert np.allclose(g, g.T, rtol=1e-12)
        assert g[0, 0] == pytest.approx(K.airy_kernel(xs[0], xs[0]))

    # clusters closer than DIAGONAL_WINDOW put many entries on the midpoint expansion
    _AIRY_POINTS = np.concatenate([b + np.array([0.0, 3e-5, 7e-5, 1e-4, 2e-4]) for b in np.linspace(-119.0, 9.0, 9)])

    def test_airy_grid_equals_scalar_kernel_bitwise(self, monkeypatch):
        xs = self._AIRY_POINTS
        want = np.array([[K.airy_kernel(x, y) for y in xs] for x in xs])
        # four-row blocks split the clusters, so the midpoint expansion
        # also lands in blocks past the first
        for rows in (K._KERNEL_ROWS, 4):
            monkeypatch.setattr(K, "_KERNEL_ROWS", rows)
            assert np.array_equal(K.kernel_grid(K.KernelId.AIRY2, xs), want)

    @pytest.mark.parametrize("window", [(-92.0, 6.0), (-10.0, 2.0), (3.0, 6.0)])
    def test_row_blocks_equal_one_shot_build(self, monkeypatch, window):
        # h * K on the field sampler's grid, against the one-shot build of
        # the reference sampler
        x, h, want = oracles.reference_field_kernel(*window, 0.04)
        for rows in (K._KERNEL_ROWS, 7):
            monkeypatch.setattr(K, "_KERNEL_ROWS", rows)
            got = K.kernel_grid("airy2", x)
            got *= h
            assert got.tobytes() == want.tobytes()

    def test_peak_memory_stays_near_one_matrix(self):
        xs = np.linspace(-92.0, 6.0, 2000)
        tracemalloc.start()
        try:
            K.kernel_grid("airy2", xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * xs.size * xs.size * 8

    def test_field_basis_build_never_holds_the_matrix(self):
        # the field's eigenbasis is built from kernel row blocks, so a cold
        # build on check 7's window stays well under one m x m matrix
        tracemalloc.start()
        try:
            x = S._field_basis(-92.0, 6.0)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * x.size * x.size * 8

    def test_grid_domain_errors(self):
        with pytest.raises(ValueError):
            K.kernel_grid(K.KernelId.AIRY2, [0.0, 11.0])
        with pytest.raises(ValueError):
            K.kernel_grid(K.KernelId.AIRY2, [0.0, np.nan])
        with pytest.raises(ValueError):
            K.kernel_grid(K.KernelId.AIRY2, [0.0, -121.0])
        for other in (K.KernelId.BESSEL, K.KernelId.GINIBRE):
            with pytest.raises(ValueError, match="airy2"):
                K.kernel_grid(other, [1.0, 2.0])
