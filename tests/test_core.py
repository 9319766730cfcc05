import numpy as np
import pytest

from ibrownian.core import (
    Configuration,
    Family,
    ModelSpec,
    RngStream,
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


class TestConfiguration:
    def test_one_dimensional_input_is_normalized(self):
        c = Configuration([3.0, -1.0, 2.0])
        assert c.points.shape == (3, 1)
        assert len(c) == 3
        assert c.dimension == 1

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            Configuration(np.zeros((2, 4)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Configuration([1.0, np.nan])
        with pytest.raises(ValueError):
            Configuration([[np.inf, 0.0]])

    def test_points_are_read_only(self):
        c = Configuration([1.0, 2.0])
        with pytest.raises(ValueError):
            c.points[0, 0] = 5.0


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
        confs = [Configuration(rng.normal(size=(4, dim))) for _ in range(3)]
        path = tmp_path / "samples.csv"
        save_configurations(path, confs)
        back = load_configurations(path)
        assert len(back) == 3
        for a, b in zip(confs, back):
            assert np.array_equal(a.points, b.points)

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u,v\n1.0,2.0\n")
        with pytest.raises(ValueError):
            load_configurations(path)
