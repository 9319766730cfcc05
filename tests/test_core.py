from pathlib import Path

import numpy as np
import pytest

from ibrownian.core import (
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
