from pathlib import Path

import math

import numpy as np
import pytest

from ibrownian import core
from ibrownian.core import (
    Family,
    ModelSpec,
    RngStream,
    _checked_number,
    _whole_steps,
    load_configurations,
    save_configurations,
)


class TestModelSpec:
    def test_dimensions(self):
        assert ModelSpec(Family.AIRY, 4).dimension == 1
        assert ModelSpec(Family.GINIBRE, 4).dimension == 2
        assert ModelSpec(Family.LENNARD_JONES, 4, beta=1.0).dimension == 3
        assert ModelSpec(Family.RIESZ, 4, riesz_a=5).dimension == 3

    def test_nonnegative_domain_flag(self):
        assert ModelSpec(Family.BESSEL, 3, alpha=1.0).nonnegative_domain
        assert ModelSpec(Family.SQUARE_BESSEL, 3, alpha=2.0).nonnegative_domain
        assert ModelSpec(Family.SQRT_SQUARE_BESSEL, 3, alpha=1.5).nonnegative_domain
        assert not ModelSpec(Family.AIRY, 3).nonnegative_domain
        assert not ModelSpec(Family.GINIBRE, 3).nonnegative_domain

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            ModelSpec(Family.AIRY, 2, beta=0.0)
        with pytest.raises(ValueError):
            ModelSpec(Family.AIRY, 2, beta=-1.0)

    def test_planar_family_is_beta_two_only(self):
        ModelSpec(Family.GINIBRE, 2, beta=2.0)
        with pytest.raises(ValueError):
            ModelSpec(Family.GINIBRE, 2, beta=1.0)
        # the Bessel families' pair term 2/(x - y) is the beta = 2 one
        for fam in (Family.BESSEL, Family.SQUARE_BESSEL, Family.SQRT_SQUARE_BESSEL):
            ModelSpec(fam, 2, beta=2.0, alpha=1.0)
            for beta in (1.0, 4.0):
                with pytest.raises(ValueError, match="beta = 2 only"):
                    ModelSpec(fam, 2, beta=beta, alpha=1.0)

    def test_alpha_rules(self):
        with pytest.raises(ValueError):
            ModelSpec(Family.BESSEL, 2)  # missing alpha
        with pytest.raises(ValueError):
            ModelSpec(Family.BESSEL, 2, alpha=0.5)  # below 1
        with pytest.raises(ValueError):
            ModelSpec(Family.AIRY, 2, alpha=1.0)  # alpha is not a soft-edge knob

    def test_riesz_exponent_rules(self):
        ModelSpec(Family.RIESZ, 2, riesz_a=4)
        with pytest.raises(ValueError):
            ModelSpec(Family.RIESZ, 2, riesz_a=3)  # must exceed the dimension
        with pytest.raises(ValueError):
            ModelSpec(Family.RIESZ, 2, riesz_a=4.5)  # integer only
        with pytest.raises(ValueError):
            ModelSpec(Family.RIESZ, 2)
        with pytest.raises(ValueError):
            ModelSpec(Family.AIRY, 2, riesz_a=4)

    def test_particle_count(self):
        with pytest.raises(ValueError):
            ModelSpec(Family.AIRY, 0)


class TestNumberRule:
    @pytest.mark.parametrize(
        "value, kwargs, message",
        [
            (math.nan, {"above": 0}, "v must be finite and > 0"),
            (math.inf, {"above": 0}, "v must be finite and > 0"),
            (0.0, {"above": 0}, "v must be finite and > 0"),
            (-math.inf, {"at_least": 0}, "v must be finite and >= 0"),
            (math.inf, {}, "v must be finite"),
            ("1", {}, "v must be finite"),
            (0, {"at_least": 1, "whole": True}, "v must be >= 1"),
            (2.5, {"at_least": 1, "whole": True}, "v must be a whole number >= 1"),
            (math.nan, {"at_least": 1, "whole": True}, "v must be a whole number >= 1"),
            (31, {"at_least": 0, "at_most": 30, "whole": True}, "v must be >= 0 and <= 30"),
        ],
    )
    def test_refusal_names_the_setting_and_its_rule(self, value, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            _checked_number("v", value, **kwargs)

    @pytest.mark.parametrize(
        "value, kwargs",
        [
            (1e-300, {"above": 0}),
            (np.float64(2.0), {"above": 0}),
            (0.0, {"at_least": 0}),
            (-1e300, {}),
            (np.int64(3), {"at_least": 1, "whole": True}),
            (3.0, {"at_least": 1, "whole": True}),
            (10**400, {"at_least": 0, "whole": True}),
            (30, {"at_least": 0, "at_most": 30, "whole": True}),
        ],
    )
    def test_accepts_what_lies_in_range(self, value, kwargs):
        _checked_number("v", value, **kwargs)

    def test_whole_steps(self):
        assert _whole_steps(0.004, 1e-3) == 4
        assert _whole_steps(0.0, 1e-3) == 0
        assert _whole_steps(0.0025, 1e-3) is None
        assert _whole_steps(math.inf, 1e-3) is None
        assert _whole_steps(math.nan, 1e-3) is None
        assert _whole_steps(1e300, 1e-300) is None  # the quotient overflows

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"family": Family.AIRY, "n_particles": 2, "beta": math.inf}, "beta"),
            ({"family": Family.AIRY, "n_particles": 2, "beta": math.nan}, "beta"),
            ({"family": Family.AIRY, "n_particles": 2.5}, "n_particles"),
            ({"family": Family.BESSEL, "n_particles": 2, "alpha": math.inf}, "alpha"),
            ({"family": Family.BESSEL, "n_particles": 2, "alpha": math.nan}, "alpha"),
            ({"family": Family.RIESZ, "n_particles": 2, "riesz_a": math.inf}, "riesz_a"),
            ({"family": Family.LENNARD_JONES, "n_particles": 2, "free_c": math.nan}, "free_c"),
            ({"family": Family.LENNARD_JONES, "n_particles": 2, "free_c": -1.0}, "free_c"),
            ({"family": Family.LENNARD_JONES, "n_particles": 2, "free_c": 0.0}, "free_c"),
            ({"family": Family.LENNARD_JONES, "n_particles": 2, "free_c": math.inf}, "free_c"),
            ({"family": Family.LENNARD_JONES, "n_particles": 2, "free_theta": math.nan}, "free_theta"),
            ({"family": Family.LENNARD_JONES, "n_particles": 2, "free_theta": math.inf}, "free_theta"),
        ],
        ids=[
            "beta-inf", "beta-nan", "n-fractional", "alpha-inf", "alpha-nan", "riesz-a-inf", "free-c-nan",
            "free-c-negative", "free-c-zero", "free-c-inf", "free-theta-nan", "free-theta-inf",
        ],
    )
    def test_model_spec_refuses_numbers_outside_their_rule(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            ModelSpec(**kwargs)

    def test_model_spec_keeps_every_value_in_range(self):
        ModelSpec(Family.AIRY, np.int64(3), beta=np.float64(0.5))
        ModelSpec(Family.BESSEL, 2, alpha=1)
        ModelSpec(Family.RIESZ, 2, riesz_a=4.0)
        ModelSpec(Family.LENNARD_JONES, 2, free_c=1e-12, free_theta=0.0)

    @pytest.mark.parametrize(
        "args, name",
        [((1.5,), "seed"), ((-1,), "seed"), ((math.nan,), "seed"), ((1, 0.5), "stream_id"), ((1, -2), "stream_id")],
        ids=["seed-fractional", "seed-negative", "seed-nan", "stream-fractional", "stream-negative"],
    )
    def test_rng_stream_keys_are_whole_numbers(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            RngStream(*args)

    def test_rng_stream_keeps_whole_keys(self):
        # the benchmark keys its streams RngStream(seed, 8 * r + phase)
        a = RngStream(np.int64(5), 8 * 3 + 2).generator().standard_normal(3)
        assert np.array_equal(a, RngStream(5.0, 26.0).generator().standard_normal(3))


FIXTURE = Path(__file__).parent / "data" / "configurations.csv"


class TestConfiguration:
    def test_one_dimensional_input_is_normalized(self, tmp_path):
        path = tmp_path / "line.csv"
        save_configurations(path, [np.array([3.0, -1.0, 2.0])])
        (back,) = load_configurations(path)
        assert back.shape == (3, 1)
        assert np.array_equal(back[:, 0], [3.0, -1.0, 2.0])

    def test_rejects_bad_dimension(self, tmp_path):
        path = tmp_path / "four.csv"
        path.write_text("x,y,z,w\n1,2,3,4\n")
        with pytest.raises(ValueError, match="header"):
            load_configurations(path)
        with pytest.raises(ValueError, match="d in 1, 2, 3"):
            save_configurations(tmp_path / "out.csv", [np.zeros((2, 4))])

    def test_skips_an_empty_block(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("x\n1.0\n\n\n\nx\n2.0\n")
        assert [b.tolist() for b in load_configurations(path)] == [[[1.0]], [[2.0]]]

    def test_rejects_nonfinite(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text in ["x\n1.0\nnan\n", "x,y\n0.5,1.0\n\nx,y\ninf,0.0\n", "x\n-inf\n"]:
            path.write_text(text)
            with pytest.raises(ValueError, match="must be finite"):
                load_configurations(path)
        with pytest.raises(ValueError, match="must be finite"):
            save_configurations(tmp_path / "out.csv", [np.array([1.0, np.nan])])


class TestRngStream:
    def test_determinism(self):
        a = RngStream(seed=42).generator().standard_normal(5)
        b = RngStream(seed=42).generator().standard_normal(5)
        assert np.array_equal(a, b)

    def test_stream_separation(self):
        a = RngStream(seed=42, stream_id=0).generator().standard_normal(5)
        b = RngStream(seed=42, stream_id=1).generator().standard_normal(5)
        assert not np.array_equal(a, b)

    def test_subkey_separation(self):
        s = RngStream(seed=7)
        a = s.generator(0).standard_normal(3)
        b = s.generator(1).standard_normal(3)
        assert not np.array_equal(a, b)


class TestCsvRoundtrip:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_roundtrip_exact(self, tmp_path, dim):
        rng = np.random.default_rng(dim)
        confs = rng.normal(size=(3, 4, dim))
        path = tmp_path / "samples.csv"
        save_configurations(path, confs)
        back = load_configurations(path)
        assert len(back) == 3
        for a, b in zip(confs, back):
            assert a.tobytes() == b.tobytes()

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u,v\n1.0,2.0\n")
        with pytest.raises(ValueError):
            load_configurations(path)

    def test_format_is_unchanged(self, tmp_path):
        # the fixture holds 1-d, 2-d, empty 2-d and 3-d blocks, with a
        # negative zero, a subnormal and values near the float range ends
        g = np.random.default_rng(20161)
        want = [
            np.array([-2.5, 0.1, 3.0, -0.0, 5e-324, 1e300])[:, None],
            g.standard_normal((4, 2)),
            np.zeros((0, 2)),
            g.standard_normal((3, 3)) * np.array([1e-300, 1.0, 1e12]),
        ]
        back = load_configurations(FIXTURE)
        assert [b.shape for b in back] == [w.shape for w in want]
        assert all(b.dtype == np.float64 and b.tobytes() == w.tobytes() for b, w in zip(back, want))
        path = tmp_path / "again.csv"
        save_configurations(path, back)
        assert path.read_bytes() == FIXTURE.read_bytes()


class TestOneBlasThread:
    def test_pins_one_thread_and_restores_the_count_on_an_exception(self):
        lib = core._openblas()
        if lib is None:
            pytest.skip("numpy carries no scipy-openblas library to pin")
        before = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(2)
        try:
            with pytest.raises(RuntimeError, match="inside"):
                with core._one_blas_thread() as pinned:
                    assert pinned and lib.scipy_openblas_get_num_threads64_() == 1
                    raise RuntimeError("inside")
            assert lib.scipy_openblas_get_num_threads64_() == 2
        finally:
            lib.scipy_openblas_set_num_threads64_(before)

    def test_overlapping_blocks_restore_the_count_when_the_last_leaves(self):
        # as two threads' calls overlap: the first block leaves while the
        # second is still inside, which must stay pinned
        lib = core._openblas()
        if lib is None:
            pytest.skip("numpy carries no scipy-openblas library to pin")
        before = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(2)
        try:
            first, second = core._one_blas_thread(), core._one_blas_thread()
            first.__enter__()
            second.__enter__()
            first.__exit__(None, None, None)
            assert lib.scipy_openblas_get_num_threads64_() == 1
            second.__exit__(None, None, None)
            assert lib.scipy_openblas_get_num_threads64_() == 2
        finally:
            lib.scipy_openblas_set_num_threads64_(before)

    def test_no_matching_library_is_none(self, monkeypatch):
        monkeypatch.setattr(core.glob, "glob", lambda pattern: [])
        core._openblas.cache_clear()
        try:
            assert core._openblas() is None
        finally:
            core._openblas.cache_clear()

    def test_pins_nothing_without_the_library(self, monkeypatch):
        monkeypatch.setattr(core, "_openblas", lambda: None)
        with core._one_blas_thread() as pinned:
            assert pinned is False
