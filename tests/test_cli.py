import argparse
import configparser
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ibrownian import cli
from ibrownian import kernels as K
from ibrownian import stats
from ibrownian.acceptance import CHECKS, CheckResult
from ibrownian.core import DomainError, Family, ModelSpec, RngStream, SingularConfigurationError


def run_cli(args):
    return cli.main(list(args))


class TestSamplerTable:
    @pytest.mark.parametrize("family", list(cli._SAMPLERS), ids=lambda f: f.value)
    def test_every_row_returns_a_float_point_stack(self, family):
        cfg = cli.load_config(None, {"family": family.value, "n": 3, "burn_in_sweeps": 20, "thin_sweeps": 1})
        spec = cli._model_spec(cfg)
        draws = cli._draw_equilibrium(cfg, spec, RngStream(4), 2)
        assert isinstance(draws, np.ndarray) and draws.dtype == np.float64
        assert draws.shape == (2, 3, spec.dimension)


class TestSampleCommand:
    def test_ginibre_block_csv_identical_on_rerun(self, tmp_path):
        argv = ["sample", "--model", "ginibre", "--n", "100", "--n-samples", "50", "--seed", "7"]
        assert run_cli(argv + ["--out", str(tmp_path / "a")]) == 0
        assert run_cli(argv + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "samples.csv").read_text()
        b = (tmp_path / "b" / "samples.csv").read_text()
        assert a == b
        assert a.count("\n\n") == 49   # 50 blocks
        assert a.splitlines()[0] == "x,y"

    def test_seed_changes_output(self, tmp_path):
        base = ["sample", "--model", "airy", "--n", "6", "--n-samples", "3"]
        run_cli(base + ["--seed", "1", "--out", str(tmp_path / "a")])
        run_cli(base + ["--seed", "2", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "samples.csv").read_text() != (tmp_path / "b" / "samples.csv").read_text()

    def test_unconverged_chain_warns_and_still_writes(self, tmp_path, capsys, monkeypatch):
        real = cli.sampling.sample_gibbs_chain

        def unconverged(*args, **kwargs):
            samples, report = real(*args, **kwargs)
            return samples, dataclasses.replace(report, acceptance_rate=0.05, converged=False)

        monkeypatch.setattr(cli.sampling, "sample_gibbs_chain", unconverged)
        argv = ["sample", "--model", "riesz", "--n", "3", "--n-samples", "2", "--seed", "5"]
        assert run_cli(argv + ["--burn-in-sweeps", "10", "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "riesz" in err and "0.050" in err
        assert (tmp_path / "samples.csv").read_text().count("\n\n") == 1

    def test_converged_sampler_prints_no_warning(self, tmp_path, capsys):
        argv = ["sample", "--model", "ginibre", "--n", "5", "--n-samples", "2", "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        assert "warning" not in capsys.readouterr().err

    def test_family_without_sampler_is_config_error(self, tmp_path, capsys):
        rc = run_cli(["sample", "--model", "square-bessel", "--out", str(tmp_path)])
        assert rc == 2
        assert "model.family" in capsys.readouterr().err

    def test_unknown_family_names_key(self, tmp_path, capsys):
        rc = run_cli(["sample", "--model", "nope", "--out", str(tmp_path)])
        assert rc == 2
        assert "model.family" in capsys.readouterr().err


class TestConfigResolution:
    def test_echoed_config_reproduces_run(self, tmp_path):
        first = tmp_path / "a"
        run_cli(["sample", "--model", "ginibre", "--n", "20", "--n-samples", "5",
                 "--seed", "3", "--out", str(first)])
        again = tmp_path / "b"
        assert run_cli(["sample", "--config", str(first / "config.ini"), "--out", str(again)]) == 0
        assert (first / "samples.csv").read_text() == (again / "samples.csv").read_text()

    def test_flags_override_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nseed = 1\n\n[model]\nfamily = airy\nn = 5\n")
        out = tmp_path / "out"
        run_cli(["sample", "--config", str(ini), "--seed", "9", "--n-samples", "2", "--out", str(out)])
        echoed = (out / "config.ini").read_text()
        assert "seed = 9" in echoed
        assert "family = airy" in echoed

    def test_unknown_key_in_file(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nwhatever = 3\n")
        rc = run_cli(["sample", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "model.whatever" in capsys.readouterr().err

    def test_unknown_section_in_file(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[bogus]\nn = 3\n")
        assert run_cli(["sample", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: bogus: unknown config section")

    def test_unknown_subcommand_names_it(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="unknown subcommand 'bogus'") as raised:
            cli.run("bogus", cli.RunConfig(out=str(tmp_path / "o")))
        assert raised.value.key == "subcommand"
        assert not (tmp_path / "o").exists()

    def test_bad_value_type_names_key(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nn = lots\n")
        rc = run_cli(["sample", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "model.n" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = run_cli(["sample", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_every_key_round_trips_through_flag_and_echo(self, tmp_path):
        # one subcommand's flags; every subcommand gets the same set
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flag_of = {a.dest: a.option_strings for a in sub.choices["kernel"]._actions}
        keys = dataclasses.fields(cli.RunConfig)
        flags = [flag for f in keys for flag in flag_of[f.name]]
        assert len(flags) == len(set(flags)) == len(keys)
        argv = ["kernel"]
        for k, f in enumerate(keys):
            value = f"{f.name}-changed" if f.type is str else f.default + k + 1
            argv += [flag_of[f.name][0], str(value)]
        args = parser.parse_args(argv)
        cfg = cli.load_config(None, {f.name: getattr(args, f.name) for f in keys})
        assert all(getattr(cfg, f.name) != f.default for f in keys)

        cli.echo_config(cfg, tmp_path)
        echoed = configparser.ConfigParser()
        echoed.optionxform = str
        echoed.read(tmp_path / "config.ini")
        assert {s: dict(echoed[s]) for s in echoed.sections()} == {
            section: {name: str(getattr(cfg, name)) for name in names}
            for section, names in cli._SECTIONS.items()
        }
        assert cli.load_config(str(tmp_path / "config.ini"), {}) == cfg

    def test_every_integrator_field_is_set_by_a_key(self):
        # an IntegratorConfig field that no [integrator] key reaches is an
        # option only tests can use; noise_scale is the one test hook
        changed = {
            "dt": 2e-3,
            "t_final": 0.2,
            "dt_record": 4e-3,
            "max_substep_depth": 10,
            "truncation_radius": 3.0,
            "truncation_variant": "origin",
        }
        defaults = cli._SECTIONS["integrator"]
        assert changed.keys() == defaults.keys()
        assert all(value != defaults[key] for key, value in changed.items())
        spec = cli._model_spec(cli.RunConfig(family="ginibre"))
        base = cli._integrator_config(cli.RunConfig(), spec)
        icfg = cli._integrator_config(dataclasses.replace(cli.RunConfig(), **changed), spec)
        unchanged = [f.name for f in dataclasses.fields(icfg) if getattr(icfg, f.name) == getattr(base, f.name)]
        assert unchanged == ["noise_scale"]

    def test_removed_q_key_is_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["kernel", "--q", "1"])
        ini = tmp_path / "old.ini"
        ini.write_text("[diagnostics]\nq = 1.0\n")
        assert run_cli(["kernel", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
        assert "diagnostics.q" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, section, key, value",
        [
            # the tridiagonal model is the one soft-edge sampler
            ("--method", "sampler", "method", "dense"),
            # the drift cap is a constant of the integrator
            ("--drift-cap-delta", "integrator", "drift_cap_delta", "0.5"),
        ],
    )
    def test_removed_sampler_and_integrator_keys_are_rejected(self, flag, section, key, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            cli._build_parser().parse_args(["simulate", flag, value])
        assert exited.value.code == 2
        assert flag in capsys.readouterr().err
        ini = tmp_path / "old.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        assert run_cli(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.endswith(f"config error: {section}.{key}: unknown config key\n")

    def test_removed_scheme_key_is_rejected(self, tmp_path, capsys):
        # Euler-Maruyama is the one integration scheme
        with pytest.raises(SystemExit) as exited:
            cli._build_parser().parse_args(["simulate", "--scheme", "euler_maruyama"])
        assert exited.value.code == 2
        ini = tmp_path / "old.ini"
        ini.write_text("[integrator]\nscheme = euler_maruyama\n")
        assert run_cli(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.endswith("config error: integrator.scheme: unknown config key\n")


# one argv that reads each float-typed key of cli._SECTIONS
_FLOAT_KEY_ARGV = {
    "beta": ["sample", "--model", "airy"],
    "alpha": ["sample", "--model", "bessel"],
    "free_c": ["sample", "--model", "lennard_jones"],
    "free_theta": ["sample", "--model", "riesz"],
    "dt": ["simulate"],
    "t_final": ["simulate"],
    "dt_record": ["simulate"],
    "truncation_radius": ["simulate"],
    "window": ["correlate", "--model", "ginibre", "--order", "2"],
    "s": ["drift-diag"],
    "r": ["tightness"],
    "T": ["tightness"],
    "c": ["tightness"],
}


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, key",
        [
            (["kernel", "--grid", "0:1:nan"], "diagnostics.grid"),
            (["kernel", "--grid", "0:inf:1"], "diagnostics.grid"),
            (["simulate", "--paths", "0"], "sampler.paths"),
            (["simulate", "--dt", "1e-3", "--t-final", "0.0025"], "integrator.t_final"),
            (["sample", "--n-samples", "-1"], "sampler.n_samples"),
            (["tightness", "--L-list", "0,2.5"], "diagnostics.L_list"),
            (["tightness", "--L-list", "0,1e30"], "diagnostics.L_list"),
            (["simulate", "--dt", "inf"], "integrator.dt"),
            (["simulate", "--dt-record", "inf"], "integrator.dt_record"),
            (["simulate", "--dt-record", "nan"], "integrator.dt_record"),
            (["simulate", "--truncation-radius", "nan"], "integrator.truncation_radius"),
            (["simulate", "--truncation-radius", "-1"], "integrator.truncation_radius"),
            (["simulate", "--truncation-radius", "inf"], "integrator.truncation_radius"),
            (["drift-diag", "--model", "bessel", "--n", "5", "--x", "-1"], "diagnostics.x"),
            (["drift-diag", "--model", "airy", "--n", "5", "--s", "0"], "diagnostics.s"),
            (["drift-diag", "--model", "airy", "--n", "5", "--s", "nan"], "diagnostics.s"),
            (["drift-diag", "--model", "airy", "--n", "5", "--x", "nan"], "diagnostics.x"),
            (["drift-diag", "--model", "bessel", "--n", "5", "--x", "nan"], "diagnostics.x"),
            (["drift-diag", "--model", "ginibre", "--n", "5", "--x", "1"], "diagnostics.x"),
            (["drift-diag", "--model", "airy", "--n", "5", "--x", "1,0"], "diagnostics.x"),
            (["simulate", "--model", "bessel", "--beta", "1"], "model"),
            (["simulate", "--max-substep-depth", "31"], "integrator.max_substep_depth"),
            (["simulate", "--truncation-radius", "3", "--truncation-variant", "bogus"], "integrator.truncation_variant"),
            (["simulate", "--truncation-variant", "bogus"], "integrator.truncation_variant"),
            (["sample", "--seed", "-1"], "run.seed"),
            (["sample", "--n-samples", "0"], "sampler.n_samples"),
            (["moments", "--lags", "0.002,abc"], "diagnostics.lags"),
            (["kernel", "--grid", "a:b:c"], "diagnostics.grid"),
            (["simulate", "--initial", "warm"], "sampler.initial"),
            (["kernel", "--kernel", "foo"], "diagnostics.kernel"),
        ],
        ids=[
            "grid-nan", "grid-inf", "no-paths", "t-final-off-grid", "negative-n-samples", "fractional-L",
            "L-past-2**53",
            "dt-inf", "dt-record-inf", "dt-record-nan", "radius-nan", "radius-negative", "radius-inf",
            "x-outside-domain", "s-zero", "s-nan", "x-nan-airy", "x-nan-bessel", "x-too-few-coordinates",
            "x-too-many-coordinates", "beta-one-bessel",
            "depth-above-30", "variant-bogus-airy", "variant-bogus-no-radius", "seed-negative", "no-samples",
            "lags-not-numbers", "grid-not-numbers", "initial-unknown", "kernel-unknown",
        ],
    )
    def test_exits_2_and_names_key(self, argv, key, tmp_path, capsys):
        assert run_cli(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}:")

    @pytest.mark.parametrize("free_c", ["-1", "0"])
    def test_unconfined_chain_is_refused(self, free_c, tmp_path, capsys):
        # free_c = -1 once ran an anti-confined chain and exited 0
        argv = ["sample", "--model", "lennard_jones", "--n", "3", "--free-c", free_c, "--out", str(tmp_path)]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith("config error: model.free_c: free_c must be finite and > 0")

    def test_every_float_key_has_a_refusal_case(self):
        # a float key added later without a row in _FLOAT_KEY_ARGV fails here
        floats = {name for keys in cli._SECTIONS.values() for name, default in keys.items() if isinstance(default, float)}
        assert floats == set(_FLOAT_KEY_ARGV)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", sorted(_FLOAT_KEY_ARGV))
    def test_non_finite_float_key_exits_2_naming_it(self, name, value, tmp_path, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        for sampler in ("sample_airy_ensemble", "sample_ginibre_ensemble", "sample_bessel_ensemble", "sample_gibbs_chain"):
            monkeypatch.setattr(cli.sampling, sampler, no_draws)
        section = next(sec for sec, keys in cli._SECTIONS.items() if name in keys)
        flag = cli._FLAGS.get(name, "--" + name.replace("_", "-"))
        argv = _FLOAT_KEY_ARGV[name] + ["--n", "5", f"{flag}={value}", "--out", str(tmp_path)]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {section}.{name}: ")

    def test_off_grid_horizon_fails_before_any_start_is_drawn(self, tmp_path, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a start was drawn")

        monkeypatch.setattr(cli.sampling, "sample_bessel_ensemble", no_draws)
        argv = ["simulate", "--model", "bessel", "--n", "10", "--paths", "200", "--dt", "1e-3", "--t-final", "0.0025"]
        assert run_cli(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: integrator.t_final:")

    @pytest.mark.parametrize("lag", ["inf", "nan", "-0.002", "0.003", "0.006"])
    def test_bad_lag_fails_before_any_start_is_drawn(self, lag, tmp_path, capsys, monkeypatch):
        # not finite, negative, off the 2e-3 recording grid, beyond t_final = 0.004
        def no_draws(*args, **kwargs):
            raise AssertionError("a start was drawn")

        monkeypatch.setattr(cli.sampling, "sample_airy_ensemble", no_draws)
        argv = ["moments", "--model", "airy", "--n", "3", "--paths", "2", "--dt", "1e-3",
                "--t-final", "0.004", "--dt-record", "2e-3", "--lags", f"0.002,{lag}"]
        assert run_cli(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: diagnostics.lags:")

    def test_zero_horizon_moments_fail_before_any_start_is_drawn(self, tmp_path, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a start was drawn")

        monkeypatch.setattr(cli.sampling, "sample_airy_ensemble", no_draws)
        argv = ["moments", "--model", "airy", "--n", "3", "--paths", "5", "--t-final", "0", "--lags", "0"]
        assert run_cli(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: integrator.t_final:")

    def test_oversized_grid_is_refused_before_any_array_is_made(self, tmp_path, capsys, monkeypatch):
        def no_arrays(*args, **kwargs):
            raise AssertionError("a grid array was made")

        monkeypatch.setattr(cli.np, "arange", no_arrays)
        # 6e12 points
        assert run_cli(["kernel", "--grid", "-4:2:1e-12", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: diagnostics.grid:")
        monkeypatch.undo()
        top = cli._MAX_GRID_POINTS
        assert cli._grid("diagnostics.grid", f"0:{top - 1}:1").size == top
        with pytest.raises(cli.ConfigError, match="^diagnostics.grid: "):
            cli._grid("diagnostics.grid", f"0:{top}:1")

    def test_x_outside_domain_fails_before_any_sample_is_drawn(self, tmp_path, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(cli.sampling, "sample_bessel_ensemble", no_draws)
        argv = ["drift-diag", "--model", "bessel", "--n", "5", "--n-samples", "100", "--r-list", "5,10"]
        assert run_cli(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: diagnostics.x:")

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["--model", "bessel", "--x", "1", "--r-list", "-1"], "diagnostics.r_list"),
            (["--model", "airy", "--r-list", "5,nan"], "diagnostics.r_list"),
            (["--model", "airy", "--r-list", "inf"], "diagnostics.r_list"),
            (["--model", "bessel", "--x", "1", "--n-samples", "20", "--r-list", "0.5"], "sampler.n_samples"),
            (["--model", "airy", "--n-samples", "99"], "sampler.n_samples"),
            (["--model", "airy", "--r-list", ","], "diagnostics.r_list"),
        ],
        ids=["r-negative-bessel", "r-nan-airy", "r-inf-airy", "few-samples-bessel", "few-samples-airy", "r-list-empty"],
    )
    def test_drift_diag_scan_settings_fail_before_any_sample_is_drawn(self, argv, key, tmp_path, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(cli.sampling, "sample_bessel_ensemble", no_draws)
        monkeypatch.setattr(cli.sampling, "sample_airy_ensemble", no_draws)
        assert run_cli(["drift-diag", "--n", "5"] + argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}:")

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["correlate", "--bins", "nan,1"], "diagnostics.bins"),
            (["correlate", "--bins", "1"], "diagnostics.bins"),
            (["correlate", "--bins", "0,inf"], "diagnostics.bins"),
            (["correlate", "--bins", "2,1"], "diagnostics.bins"),
            (["correlate", "--model", "ginibre", "--order", "2", "--window", "-1"], "diagnostics.window"),
            (["correlate", "--model", "ginibre", "--order", "2", "--window", "inf"], "diagnostics.window"),
            (["correlate", "--model", "ginibre", "--order", "2", "--window", "nan"], "diagnostics.window"),
            (["tightness", "--r", "nan"], "diagnostics.r"),
            (["tightness", "--T", "inf"], "diagnostics.T"),
            (["tightness", "--c", "inf"], "diagnostics.c"),
            # only planar order-2 estimates read a window
            (["correlate", "--model", "airy", "--window", "2"], "diagnostics.window"),
            (["correlate", "--model", "airy", "--order", "2", "--window", "2"], "diagnostics.window"),
            (["correlate", "--model", "ginibre", "--order", "1", "--window", "2"], "diagnostics.window"),
            (["correlate", "--order", "3"], "diagnostics.order"),
        ],
        ids=[
            "bins-nan", "bins-one-edge", "bins-inf", "bins-decreasing", "window-negative", "window-inf",
            "window-nan", "r-nan", "T-inf", "c-inf", "window-airy-order-1", "window-airy-order-2",
            "window-planar-order-1", "order-3",
        ],
    )
    def test_estimator_settings_fail_before_any_sample_is_drawn(self, argv, key, tmp_path, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(cli.sampling, "sample_airy_ensemble", no_draws)
        monkeypatch.setattr(cli.sampling, "sample_ginibre_ensemble", no_draws)
        assert run_cli(argv + ["--n", "5", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}:")

    @pytest.mark.parametrize("family", ["lennard_jones", "riesz"])
    def test_correlate_3d_family_fails_before_any_sample_is_drawn(self, family, tmp_path, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(cli.sampling, "sample_gibbs_chain", no_draws)
        argv = ["correlate", "--model", family, "--n", "3", "--n-samples", "5"]
        assert run_cli(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: model.family:")

    @pytest.mark.parametrize("numerical", [SingularConfigurationError, DomainError])
    def test_drift_scan_numerical_failure_exits_3(self, numerical, tmp_path, capsys, monkeypatch):
        def failing(*args):
            raise numerical("collision")

        monkeypatch.setattr(cli.stats, "drift_truncation_scan", failing)
        argv = ["drift-diag", "--model", "airy", "--n", "5", "--n-samples", "100", "--out", str(tmp_path)]
        assert run_cli(argv) == 3
        assert capsys.readouterr().err.startswith("numerical failure: collision")

    def test_drift_diag_names_a_sample_with_a_point_at_x(self, tmp_path, capsys, monkeypatch):
        real = cli.sampling.sample_airy_ensemble

        def one_point_at_x(*args):
            draws, report = real(*args)
            draws[7, 2, 0] = -1.0
            return draws, report

        monkeypatch.setattr(cli.sampling, "sample_airy_ensemble", one_point_at_x)
        argv = ["drift-diag", "--model", "airy", "--n", "5", "--n-samples", "100", "--x", "-1", "--out", str(tmp_path)]
        assert run_cli(argv) == 3
        assert capsys.readouterr().err.startswith("numerical failure: sample 7: pair separation below 1e-12; ")

    @pytest.mark.parametrize("numerical", [SingularConfigurationError, DomainError])
    def test_numerical_failures_keep_their_type(self, numerical):
        # both subclass ValueError, yet must reach main as exit 3
        with pytest.raises(numerical):
            with cli._keyed("model"):
                raise numerical("collision")
        with pytest.raises(cli.ConfigError, match="^model: bad"):
            with cli._keyed("model"):
                raise ValueError("bad")


class TestKernelCommand:
    def test_airy_diagonal_grid(self, tmp_path):
        out = tmp_path / "k"
        assert run_cli(["kernel", "--kernel", "airy2", "--grid", "-4:2:0.05", "--out", str(out)]) == 0
        lines = (out / "kernel.csv").read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 122   # 121 grid points
        x0, v0 = (float(t) for t in lines[1].split(","))
        assert x0 == -4.0
        assert v0 == pytest.approx(K.airy_kernel(-4.0, -4.0), rel=1e-12)

    def test_bessel_diagonal_uses_alpha(self, tmp_path):
        out = tmp_path / "k"
        assert run_cli(["kernel", "--kernel", "bessel", "--alpha", "2", "--grid", "1:3:1", "--out", str(out)]) == 0
        rows = (out / "kernel.csv").read_text().splitlines()[1:]
        want = K.bessel_kernel(2.0, 2.0, 2.0)
        assert float(rows[1].split(",")[1]) == pytest.approx(want, rel=1e-12)

    def test_grid_parse_errors(self, tmp_path, capsys):
        assert run_cli(["kernel", "--grid", "oops", "--out", str(tmp_path)]) == 2
        assert "diagnostics.grid" in capsys.readouterr().err
        assert run_cli(["kernel", "--grid", "2:1:0.5", "--out", str(tmp_path)]) == 2

    def test_out_of_domain_grid_is_config_error(self, tmp_path, capsys):
        rc = run_cli(["kernel", "--kernel", "bessel", "--grid", "-1:1:0.5", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv",
        [["--kernel", "airy2", "--grid", "-121:0:1"], ["--kernel", "airy2", "--grid", "0:11:1"],
         ["--kernel", "bessel", "--grid", "0:1:0.5"], ["--kernel", "bessel", "--grid", "1:101:10"]],
        ids=["airy-below", "airy-above", "bessel-zero", "bessel-above"],
    )
    def test_grid_outside_the_scalar_kernels_support_is_refused(self, argv, tmp_path, capsys):
        assert run_cli(["kernel"] + argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: diagnostics.grid:")

    @pytest.mark.parametrize(
        "alpha, grid",
        [("0.5", "1:2:0.5"), ("inf", "1:2:0.5"), ("nan", "1:2:0.5"), ("-inf", "1:2:0.5"), ("0.5", "oops")],
        ids=["alpha-below-one", "alpha-inf", "alpha-nan", "alpha-minus-inf", "alpha-before-grid"],
    )
    def test_bad_alpha_names_model_alpha_before_the_grid(self, alpha, grid, tmp_path, capsys):
        # alpha was once checked under diagnostics.grid, and inf wrote NaN values
        argv = ["kernel", "--kernel", "bessel", f"--alpha={alpha}", "--grid", grid, "--out", str(tmp_path)]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith("config error: model.alpha: alpha must be finite and >= 1")
        assert not (tmp_path / "kernel.csv").exists()

    @pytest.mark.parametrize(
        "kernel, alpha, grid",
        [("airy2", 1.0, "-120:10:0.0065")] + [("bessel", a, "0.5:80:0.003975") for a in (1.0, 1.5, 2.0, 3.0)],
        ids=["airy2", "bessel-1", "bessel-1.5", "bessel-2", "bessel-3"],
    )
    def test_diagonal_file_is_the_scalar_loops(self, kernel, alpha, grid, tmp_path):
        # the diagonal comes from one array call; the file is byte for byte
        # the one the scalar kernel, called point by point, gives
        argv = ["kernel", "--kernel", kernel, "--alpha", str(alpha), "--grid", grid, "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        xs = cli._grid("diagnostics.grid", grid)
        assert xs.size >= 20_000
        if kernel == "airy2":
            vals = [K.airy_kernel(v, v) for v in xs]
        else:
            vals = [K.bessel_kernel(alpha, v, v) for v in xs]
        want = tmp_path / "want.csv"
        cli._write_csv(want, ["x", "value"], ([cli._fmt(v), cli._fmt(k)] for v, k in zip(xs, vals)))
        assert (tmp_path / "kernel.csv").read_bytes() == want.read_bytes()


class TestSimulateCommand:
    def test_trajectory_format(self, tmp_path):
        out = tmp_path / "s"
        rc = run_cli(["simulate", "--model", "airy", "--n", "3", "--paths", "2", "--dt", "1e-3",
                      "--t-final", "0.004", "--dt-record", "2e-3", "--seed", "5", "--out", str(out)])
        assert rc == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,path_id,particle_id,x"
        # 2 paths x 3 recorded times x 3 particles
        assert len(lines) == 1 + 2 * 3 * 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and first[1] == "0" and first[2] == "0"

    def test_planar_trajectory_has_two_coordinates(self, tmp_path):
        out = tmp_path / "s"
        rc = run_cli(["simulate", "--model", "ginibre", "--n", "4", "--paths", "2", "--dt", "1e-3",
                      "--t-final", "0.002", "--dt-record", "2e-3", "--seed", "5", "--out", str(out)])
        assert rc == 0
        assert (out / "trajectory.csv").read_text().splitlines()[0] == "t,path_id,particle_id,x,y"

    def test_spaced_initial_for_unsampled_family(self, tmp_path):
        out = tmp_path / "s"
        rc = run_cli(["simulate", "--model", "square-bessel", "--n", "3", "--alpha", "1", "--paths", "2",
                      "--dt", "1e-3", "--t-final", "0.002", "--dt-record", "2e-3", "--out", str(out)])
        assert rc == 0

    def test_numerical_failure_exit_code_names_path(self, tmp_path, capsys):
        # depth 0 with a coarse step cannot satisfy the drift cap
        rc = run_cli(["simulate", "--model", "airy", "--n", "5", "--initial", "spaced",
                      "--dt", "0.5", "--t-final", "0.5", "--max-substep-depth", "0",
                      "--out", str(tmp_path / "s")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "path 0" in err

    def test_workers_env_must_be_positive_int(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("IBROWNIAN_WORKERS", "zero")
        rc = run_cli(["simulate", "--model", "airy", "--n", "3", "--paths", "1", "--dt", "1e-3",
                      "--t-final", "0.002", "--dt-record", "2e-3", "--out", str(tmp_path / "s")])
        assert rc == 2
        assert "IBROWNIAN_WORKERS" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "moments"])
    @pytest.mark.parametrize("workers,message", [("0", "workers must be >= 1"), ("1.5", "expected an integer")])
    def test_bad_workers_env_fails_before_any_start_is_drawn(self, command, workers, message, tmp_path, capsys,
                                                             monkeypatch):
        # the count is read before the chain draws the starts, under the
        # name and rule of ``simulate``'s own check
        def no_draws(*args, **kwargs):
            raise AssertionError("a start was drawn")

        monkeypatch.setattr(cli.sampling, "sample_gibbs_chain", no_draws)
        monkeypatch.setenv("IBROWNIAN_WORKERS", workers)
        argv = [command, "--model", "lennard_jones", "--n", "8", "--paths", "2", "--initial", "equilibrium",
                "--dt", "1e-3", "--t-final", "0.002", "--dt-record", "2e-3", "--lags", "0.002"]
        assert run_cli(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: IBROWNIAN_WORKERS: ") and message in err

    def test_workers_do_not_change_output(self, tmp_path, monkeypatch):
        argv = ["simulate", "--model", "airy", "--n", "3", "--paths", "4", "--dt", "1e-3",
                "--t-final", "0.004", "--dt-record", "2e-3", "--seed", "8"]
        run_cli(argv + ["--out", str(tmp_path / "one")])
        monkeypatch.setenv("IBROWNIAN_WORKERS", "2")
        run_cli(argv + ["--out", str(tmp_path / "two")])
        assert (tmp_path / "one" / "trajectory.csv").read_text() == (
            tmp_path / "two" / "trajectory.csv"
        ).read_text()


class TestDiagnosticsCommands:
    def test_correlate_order_one(self, tmp_path):
        out = tmp_path / "c"
        rc = run_cli(["correlate", "--model", "airy", "--n", "10", "--n-samples", "40",
                      "--bins", "-6,-4,-2,0,2", "--seed", "2", "--out", str(out)])
        assert rc == 0
        lines = (out / "correlation.csv").read_text().splitlines()
        assert lines[0] == "x_lo,x_hi,density,stderr"
        assert len(lines) == 5

    def test_correlate_planar_pair_needs_window(self, tmp_path, capsys):
        rc = run_cli(["correlate", "--model", "ginibre", "--n", "20", "--n-samples", "5",
                      "--order", "2", "--out", str(out := tmp_path / "c")])
        assert rc == 2
        assert "diagnostics.window" in capsys.readouterr().err
        assert not (out / "correlation.csv").exists()

    def test_drift_diag_artifacts(self, tmp_path):
        out = tmp_path / "d"
        rc = run_cli(["drift-diag", "--model", "airy", "--n", "20", "--n-samples", "100",
                      "--x", "-1", "--r-list", "3,6", "--s", "1.5", "--seed", "6", "--out", str(out)])
        assert rc == 0
        scan = (out / "drift_scan.csv").read_text().splitlines()
        assert scan[0] == "r,mean_x,stderr_x"
        assert len(scan) == 3
        dec = (out / "decomposition.csv").read_text().splitlines()
        assert dec[0] == "sample_id,free_x,near_x,far_x"
        assert len(dec) == 101

    def test_planar_drift_diag_writes_the_variant_gap(self, tmp_path, monkeypatch):
        real, drawn = cli.sampling.sample_ginibre_ensemble, []

        def recorded(*args):
            draws, report = real(*args)
            drawn.append(draws)
            return draws, report

        monkeypatch.setattr(cli.sampling, "sample_ginibre_ensemble", recorded)
        out = tmp_path / "d"
        rc = run_cli(["drift-diag", "--model", "ginibre", "--n", "6", "--n-samples", "100",
                      "--x", "0.5,-0.25", "--r-list", "1.5,3", "--seed", "8", "--out", str(out)])
        assert rc == 0
        header, *rows = (out / "drift_scan.csv").read_text().splitlines()
        assert header.split(",")[-2:] == ["variant_gap_mean", "variant_gap_stderr"]
        scan = stats.drift_truncation_scan(drawn[0], ModelSpec(Family.GINIBRE, 6), [0.5, -0.25], [1.5, 3.0])
        got = np.array([[float(v) for v in row.split(",")[-2:]] for row in rows])
        assert np.array_equal(got, np.stack([scan.variant_gap_mean, scan.variant_gap_stderr], axis=1))

    def test_drift_diag_needs_enough_environments(self, tmp_path, capsys):
        rc = run_cli(["drift-diag", "--model", "airy", "--n", "10", "--n-samples", "20",
                      "--x", "-1", "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "sampler.n_samples" in capsys.readouterr().err

    def test_tightness_values_decrease(self, tmp_path):
        out = tmp_path / "t"
        rc = run_cli(["tightness", "--model", "airy", "--n", "40", "--n-samples", "60",
                      "--L-list", "0,10,20,30,9007199254740992", "--seed", "4", "--out", str(out)])
        assert rc == 0
        rows = (out / "tightness.csv").read_text().splitlines()[1:]
        vals = [float(r.split(",")[1]) for r in rows]
        # a cutoff past every particle count collects nothing
        assert vals == sorted(vals, reverse=True) and vals[-1] == 0.0

    def test_tightness_writes_the_cutoffs_as_typed(self, tmp_path):
        out = tmp_path / "t"
        rc = run_cli(["tightness", "--model", "airy", "--n", "10", "--n-samples", "5",
                      "--L-list", "0,25,50", "--out", str(out)])
        assert rc == 0
        rows = (out / "tightness.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["0", "25", "50"]

    def test_moments_slope_near_two(self, tmp_path, capsys):
        out = tmp_path / "m"
        rc = run_cli(["moments", "--model", "airy", "--n", "4", "--paths", "60", "--dt", "5e-4",
                      "--t-final", "0.032", "--dt-record", "2e-3",
                      "--lags", "0.002,0.004,0.008", "--seed", "11", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        slope = float(text.rsplit("slope", 1)[1])
        assert 1.7 <= slope <= 2.3
        rows = (out / "moments.csv").read_text().splitlines()
        assert rows[0] == "lag,moment4"
        assert len(rows) == 4

    def test_moments_with_one_positive_lag_print_no_slope(self, tmp_path, capsys):
        out = tmp_path / "m"
        rc = run_cli(["moments", "--model", "airy", "--n", "3", "--paths", "2", "--dt", "1e-3",
                      "--t-final", "0.004", "--dt-record", "2e-3", "--lags", "0,0.002", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == f"wrote fourth moments for 2 lags to {out / 'moments.csv'}\n"
        assert len((out / "moments.csv").read_text().splitlines()) == 3

    def test_off_grid_lag_is_config_error(self, tmp_path, capsys):
        rc = run_cli(["moments", "--model", "airy", "--n", "3", "--paths", "2", "--dt", "1e-3",
                      "--t-final", "0.004", "--dt-record", "2e-3", "--lags", "0.003",
                      "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "diagnostics.lags" in capsys.readouterr().err


class TestVerifyCommand:
    def test_named_checks_run_and_report(self, tmp_path, capsys):
        out = tmp_path / "v"
        rc = run_cli(["verify", "--checks", "tail-sum-decay", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "PASS tail-sum-decay" in text
        rows = (out / "verify.csv").read_text().splitlines()
        assert rows[0] == "name,passed,value,threshold,margin,wall_time"
        assert rows[1].startswith("tail-sum-decay,1,")
        _, _, value, threshold, margin, _ = rows[1].split(",")
        # tail-sum-decay passes at value >= threshold
        assert float(margin) == float(value) - float(threshold) > 0
        assert f"margin {float(margin):.4g}" in text

    def test_unknown_check_is_config_error(self, tmp_path, capsys):
        assert run_cli(["verify", "--checks", "bogus", "--out", str(tmp_path)]) == 2
        assert "run.checks" in capsys.readouterr().err

    def test_unknown_suite_is_config_error(self, tmp_path, capsys):
        assert run_cli(["verify", "--suite", "medium", "--out", str(tmp_path)]) == 2
        assert "run.suite" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["quick", "full"])
    def test_suite_runs_its_checks_in_registry_order(self, suite, tmp_path, monkeypatch):
        ran = []

        def fake(name):
            def check():
                ran.append(name)
                return CheckResult(name, True, 1.0, 0.5, "fake", 0.0, 0.5)

            return check

        monkeypatch.setattr("ibrownian.acceptance.CHECKS", {name: fake(name) for name in CHECKS})
        assert run_cli(["verify", "--suite", suite, "--out", str(tmp_path)]) == 0
        assert ran == [c for c in CHECKS if suite == "full" or c not in cli._SLOW_CHECKS]

    def test_quick_suite_is_full_minus_slow(self):
        assert set(cli._SLOW_CHECKS) < set(CHECKS)
        quick = [c for c in CHECKS if c not in cli._SLOW_CHECKS]
        assert len(quick) == len(CHECKS) - len(cli._SLOW_CHECKS)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # the child imports the package this process imported
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        res = subprocess.run(
            [sys.executable, "-m", "ibrownian.cli", "kernel", "--kernel", "airy2",
             "--grid", "0:1:0.5", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert res.returncode == 0
        assert (tmp_path / "kernel.csv").exists()
        assert (tmp_path / "config.ini").exists()

    def test_ginibre_kernel_diagonal_is_flat(self, tmp_path):
        run_cli(["kernel", "--kernel", "ginibre", "--grid", "0:2:1", "--out", str(tmp_path)])
        rows = (tmp_path / "kernel.csv").read_text().splitlines()[1:]
        for row in rows:
            assert float(row.split(",")[1]) == pytest.approx(1.0 / math.pi, rel=1e-12)
