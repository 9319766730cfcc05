"""One rule for a configuration of points, read by every entry point that
takes points from outside the program.

A configuration is a finite (n, d) float array (a 1-D array is n points on
the line), with d the family's dimension where a spec is known and 1, 2 or
3 otherwise; where a spec is known its domain rule applies on top.  Each
entry point refuses a point that is not finite and a wrong shape, naming
the argument and, where there are several configurations, the index.
Non-finite starts and drift points, and the CLI's ``--x``, are tested in
test_sde, test_models and test_cli; the other cases are here.
"""

import math

import numpy as np
import pytest

from ibrownian import sde
from ibrownian.core import DomainError, Family, ModelSpec, RngStream, load_configurations, save_configurations
from ibrownian.models import TruncationParams, log_derivative, truncated_drift_at
from ibrownian.sde import IntegratorConfig, simulate, step
from ibrownian.stats import TightnessParams, drift_truncation_scan, erf_tail_sum, estimate_rho

AIRY = ModelSpec(Family.AIRY, 3, beta=2.0)
PLANAR = ModelSpec(Family.GINIBRE, 3)
BESSEL = ModelSpec(Family.BESSEL, 3, alpha=1.0)
TIGHT = TightnessParams(r=1.0, T=1.0, c=1.0)
CFG = IntegratorConfig(dt=1e-3, t_final=0.01)


def _line(count=100):
    """``count`` three-point samples on the line, shape (count, 3, 1)."""
    return np.tile(np.array([-1.5, 0.25, 1.0])[:, None], (count, 1, 1))


def _plane(count=3):
    return np.tile(np.array([[0.0, 0.5], [1.0, -0.5], [-1.0, 0.25]]), (count, 1, 1))


def _with(samples, k, sample):
    out = list(samples)
    out[k] = sample
    return out


# a sample whose point 1 is not finite, put at index 2 of each sample list
_NAN_LINE = np.array([[0.5], [math.nan], [1.0]])
_INF_PLANE = np.array([[0.0, 0.5], [math.inf, 0.0], [1.0, 1.0]])

_SAMPLE_CALLS = {
    "estimate_rho-line-order-1": lambda s: estimate_rho(s, 1, [-2.0, 0.0, 2.0]),
    "estimate_rho-line-order-2": lambda s: estimate_rho(s, 2, [-2.0, 0.0, 2.0]),
    "estimate_rho-planar-order-1": lambda s: estimate_rho(s, 1, [0.0, 1.0, 2.0]),
    "estimate_rho-planar-order-2": lambda s: estimate_rho(s, 2, [0.0, 1.0, 2.0], window=1.0),
    "erf_tail_sum": lambda s: erf_tail_sum(s, TIGHT, [0, 1]),
    "drift_truncation_scan": lambda s: drift_truncation_scan(s, PLANAR if s[0].shape[-1] == 2 else AIRY, 0.1, [2.0]),
}
_PLANAR_CALLS = {"estimate_rho-planar-order-1", "estimate_rho-planar-order-2", "erf_tail_sum"}


class TestSamples:
    @pytest.mark.parametrize("name", list(_SAMPLE_CALLS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_point_that_is_not_finite_is_refused(self, name, bad):
        planar = name in _PLANAR_CALLS
        base = _plane(100) if planar else _line()
        sample = (_INF_PLANE if planar else _NAN_LINE).copy()
        sample[1, 0] = bad
        with pytest.raises(ValueError, match="^sample 2 must be finite; point 1 is not$"):
            _SAMPLE_CALLS[name](_with(base, 2, sample))

    @pytest.mark.parametrize("name", list(_SAMPLE_CALLS))
    def test_a_sample_of_another_dimension_is_refused(self, name):
        with pytest.raises(ValueError, match=r"^sample 3 has shape \(3, 2\), not \(n, 1\)$"):
            _SAMPLE_CALLS[name](_with(_line(), 3, _plane(1)[0]))

    @pytest.mark.parametrize("name", [n for n in _SAMPLE_CALLS if n != "drift_truncation_scan"])
    def test_a_sample_of_no_configuration_shape_is_refused(self, name):
        with pytest.raises(ValueError, match=r"^sample 0 has shape \(3, 4\), not \(n, d\) with d in 1, 2, 3$"):
            _SAMPLE_CALLS[name](_with(_line(), 0, np.zeros((3, 4))))

    def test_nan_is_no_longer_dropped_from_the_count(self):
        # the two samples once counted three points in [0, 1]
        with pytest.raises(ValueError, match="^sample 0 must be finite; point 1 is not$"):
            estimate_rho([[0.5, math.nan], [0.2, 0.7]], 1, [0.0, 1.0])

    def test_scan_applies_the_domain_rule_naming_the_sample(self):
        envs = _with(np.abs(_line()) + 0.5, 5, np.array([1.0, -2.0, 3.0]))
        with pytest.raises(DomainError, match="^sample 5: family bessel requires strictly positive coordinates$"):
            drift_truncation_scan(envs, BESSEL, 0.7, [2.0])


class TestCsv:
    def test_writer_names_the_configuration(self, tmp_path):
        good = np.zeros((2, 1))
        with pytest.raises(ValueError, match="^configuration 1 must be finite; point 1 is not$"):
            save_configurations(tmp_path / "a.csv", [good, np.array([1.0, math.inf])])
        with pytest.raises(ValueError, match=r"^configuration 1 has shape \(2, 4\), not \(n, d\) with d in 1, 2, 3$"):
            save_configurations(tmp_path / "a.csv", [good, np.zeros((2, 4))])

    def test_reader_names_the_block(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("x\n1.0\n\nx,y\n0.5,1.0\n-inf,0.0\n")
        with pytest.raises(ValueError, match="^block 1 must be finite; point 1 is not$"):
            load_configurations(path)
        path.write_text("x\n1.0\n\nx,y\n0.5,1.0,2.0\n")
        with pytest.raises(ValueError, match=r"^block 1 has shape \(1, 3\), not \(n, 2\)$"):
            load_configurations(path)
        for rows in ("0.5,1.0\n2.0\n", "0.5,1.0\n2.0,x\n"):
            path.write_text("x\n1.0\n\nx,y\n" + rows)
            with pytest.raises(ValueError, match="^block 1: "):
                load_configurations(path)


class TestStarts:
    @pytest.mark.parametrize("on_failure", ["raise", "drop"])
    @pytest.mark.parametrize(
        "start, error, message",
        [
            ([0.5, 2.0], ValueError, r"^initial state 3 has shape \(2, 1\), not \(3, 1\)$"),
            ([[0.5, 1.0], [1.0, 2.0], [2.0, 3.0]], ValueError, r"^initial state 3 has shape \(3, 2\), not \(3, 1\)$"),
            ([0.0, 1.0, 2.0], DomainError, "^initial state 3: family bessel requires strictly positive coordinates$"),
        ],
        ids=["too-few-points", "planar", "outside-domain"],
    )
    def test_simulate_names_the_start_before_any_path_is_integrated(
        self, start, error, message, on_failure, monkeypatch
    ):
        def no_paths(*args, **kwargs):
            raise AssertionError("a path was integrated")

        monkeypatch.setattr(sde, "_integrate", no_paths)
        starts = _with(np.abs(_line(6)) + 0.5, 3, np.asarray(start, dtype=float))
        with pytest.raises(error, match=message):
            simulate(BESSEL, starts, CFG, RngStream(1), on_failure=on_failure)

    @pytest.mark.parametrize(
        "state, error, message",
        [
            ([[0.5, 1.0], [1.0, 2.0], [2.0, 3.0]], ValueError, r"^state has shape \(3, 2\), not \(3, 1\)$"),
            ([0.5, 1.0, 0.0], DomainError, "^state: family bessel requires strictly positive coordinates$"),
        ],
        ids=["planar", "outside-domain"],
    )
    def test_step_names_the_state_before_any_draw(self, state, error, message):
        g = np.random.default_rng(3)
        before = g.bit_generator.state
        with pytest.raises(error, match=message):
            step(BESSEL, np.asarray(state, dtype=float), 1e-3, g, CFG)
        assert g.bit_generator.state == before


_POINT_CALLS = {
    "truncated_drift_at": lambda spec, x, env: truncated_drift_at(spec, x, env, TruncationParams(radius=5.0)),
    "log_derivative": lambda spec, x, env: log_derivative(spec, x, env, 1.0),
}


class TestPointAndEnvironment:
    # the non-finite points and the planar shapes are in test_models
    @pytest.mark.parametrize("name", list(_POINT_CALLS))
    def test_refusals_name_the_argument(self, name):
        call = _POINT_CALLS[name]
        env = np.array([0.5, 1.5, 2.5])
        with pytest.raises(ValueError, match=r"^x has shape \(1, 2\), not \(1, 1\)$"):
            call(AIRY, [-1.0, 0.0], env)
        with pytest.raises(ValueError, match=r"^env has shape \(3, 2\), not \(n, 1\)$"):
            call(AIRY, -1.0, _plane(1)[0])
        with pytest.raises(DomainError, match="^x: family bessel requires strictly positive coordinates$"):
            call(BESSEL, -0.5, env)

    @pytest.mark.parametrize("name", list(_POINT_CALLS))
    def test_environment_outside_the_domain_is_refused(self, name):
        # log_derivative once took a bessel environment point at -2.0
        with pytest.raises(DomainError, match="^env: family bessel requires strictly positive coordinates$"):
            _POINT_CALLS[name](BESSEL, 1.0, [0.5, -2.0])

