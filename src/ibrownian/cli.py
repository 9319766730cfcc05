"""Command-line entry point: reproducible, config-driven runs.

Every subcommand resolves one RunConfig (defaults, then an INI config
file, then flags), echoes the resolved config into the output directory,
and writes plain-CSV artifacts there; a run is reproducible from the
echoed config alone.  Exit codes: 0 success, 1 acceptance-check failure,
2 config error, 3 numerical failure.

Usage:
    ibrownian sample --model ginibre --n 100 --n-samples 50 --seed 7
    ibrownian simulate --model airy --n 10 --paths 50 --dt 1e-4 --t-final 0.01
    ibrownian kernel --kernel airy2 --grid -4:2:0.05
    ibrownian correlate --model airy --n 40 --n-samples 200 --order 2
    ibrownian drift-diag --model ginibre --n 100 --n-samples 150 --x 1,0 --r-list 3,5,8
    ibrownian tightness --model airy --n 100 --n-samples 200 --L-list 0,25,50,75
    ibrownian moments --model airy --n 10 --paths 100 --lags 0.002,0.004,0.008
    ibrownian verify --suite quick

The only environment variable read is IBROWNIAN_WORKERS (process count
for path integration; defaults to 1).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import fields, make_dataclass
from pathlib import Path

import numpy as np

from .core import (
    DomainError,
    Family,
    ModelSpec,
    RngStream,
    SingularConfigurationError,
    StepFailureError,
    _checked_number,
    save_configurations,
)
from . import kernels
from .models import TruncationParams, TruncationVariant, _position, cutoff_chi, log_derivative
from . import sampling
from . import stats
from .sde import IntegratorConfig, simulate

__all__ = ["RunConfig", "ConfigError", "run", "main"]

# the three slowest checks (5.8 s to 39.7 s each on a 2-vCPU VM at commit
# 2e7ca00; the others took 2.6 s or less) are excluded from the quick suite
_SLOW_CHECKS = ("dyson-stationarity", "airy-drift-truncation-trend", "ginibre-variant-gap")

# most points a --grid may ask for, checked before any array is made
_MAX_GRID_POINTS = 1_000_000


class ConfigError(Exception):
    """Invalid configuration; the message starts with the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


# Every key, by INI section, with its default; a key's type is the type
# of its default.  Flags use the key names with dashes (see _FLAGS for the
# one exception).  List-valued keys are comma strings so the whole config
# stays diff-able plain text.
_SECTIONS = {
    "model": {
        "family": "airy",
        "n": 10,
        "beta": ModelSpec.beta,
        "alpha": 1.0,
        "riesz_a": 5,
        "free_c": ModelSpec.free_c,
        "free_theta": ModelSpec.free_theta,
    },
    "integrator": {
        "dt": 1e-3,
        "t_final": 0.1,
        "dt_record": 0.0,  # 0 records every base step
        "max_substep_depth": IntegratorConfig.max_substep_depth,
        "truncation_radius": 0.0,  # 0 keeps the full finite-system drift
        "truncation_variant": "centered",
    },
    "sampler": {
        "n_samples": 100,
        "burn_in_sweeps": sampling.McmcOptions.burn_in_sweeps,
        "thin_sweeps": sampling.McmcOptions.thin_sweeps,
        "paths": 100,
        "initial": "auto",  # auto | equilibrium | spaced
    },
    "diagnostics": {
        "order": 1,
        "bins": "auto",  # "auto" or comma-separated edges
        "window": 0.0,  # planar pair-estimate window radius (0 = unset)
        "x": "-1.0",  # evaluation point, comma-separated per dimension
        "r_list": "5,10,20",
        "s": 2.0,
        "L_list": "0,25,50,75,100",
        "lags": "0.002,0.004,0.008,0.016,0.032",
        "kernel": "airy2",
        "grid": "-4:2:0.05",
        "r": 10.0,
        "T": 20.0,
        "c": 1.0,
    },
    "run": {
        "seed": 0,
        "out": "ibrownian-out",
        "suite": "full",  # quick | full
        "checks": "",  # comma-separated check names; overrides suite
    },
}

_FLAGS = {"family": "--model"}

RunConfig = make_dataclass(
    "RunConfig",
    [(name, type(default), default) for keys in _SECTIONS.values() for name, default in keys.items()],
    namespace={"__module__": __name__, "__doc__": "Flat run configuration: one field per key of _SECTIONS."},
)


@contextmanager
def _keyed(key: str):
    """Report a library ValueError as a ConfigError naming ``key``, or
    ``key.name`` where ``key`` is a section and the message starts with
    its key ``name``, as the errors of ``core._checked_number`` do.

    SingularConfigurationError and DomainError subclass ValueError but are
    numerical failures (exit 3), so they pass through unchanged.
    """
    try:
        yield
    except (SingularConfigurationError, DomainError):
        raise
    except ValueError as exc:
        name = str(exc).split(" ", 1)[0]
        raise ConfigError(f"{key}.{name}" if name in _SECTIONS.get(key, {}) else key, str(exc)) from None


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Resolve defaults <- INI file <- explicit flag overrides."""
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive (L_list)
        read = parser.read(path)
        if not read:
            raise ConfigError("config", f"cannot read config file {path!r}")
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(section, "unknown config section")
            for name, raw in parser.items(section):
                if name not in _SECTIONS[section]:
                    raise ConfigError(f"{section}.{name}", "unknown config key")
                kind = type(_SECTIONS[section][name])
                try:
                    setattr(cfg, name, kind(raw))
                except ValueError:
                    raise ConfigError(f"{section}.{name}", f"expected {kind.__name__}, got {raw!r}") from None
    for name, value in overrides.items():
        if value is not None:
            setattr(cfg, name, value)
    with _keyed("sampler"):
        for name in ("n_samples", "paths"):
            _checked_number(name, getattr(cfg, name), at_least=1, whole=True)
    with _keyed("run"):  # the seed, before any command draws
        RngStream(cfg.seed)
    return cfg


def echo_config(cfg: RunConfig, out_dir: Path) -> None:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    for section, names in _SECTIONS.items():
        parser[section] = {name: str(getattr(cfg, name)) for name in names}
    with open(out_dir / "config.ini", "w", encoding="utf-8") as fh:
        parser.write(fh)


# ---------------------------------------------------------------------------
# parsing helpers (all failures name the offending key)
# ---------------------------------------------------------------------------


def _floats(key: str, text: str) -> list[float]:
    items = [t.strip() for t in str(text).split(",") if t.strip()]
    if not items:
        raise ConfigError(key, "expected a comma-separated list of numbers")
    try:
        return [float(t) for t in items]
    except ValueError:
        raise ConfigError(key, f"expected numbers, got {text!r}") from None


def _grid(key: str, text: str) -> np.ndarray:
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ConfigError(key, f"expected lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(key, f"expected numbers in lo:hi:step, got {text!r}") from None
    with _keyed(key):
        _checked_number("lo", lo)
        _checked_number("hi", hi, at_least=lo)
        _checked_number("step", step, above=0)
    steps = (hi - lo) / step + 1e-9
    if not steps < _MAX_GRID_POINTS:
        raise ConfigError(key, f"grid needs at most {_MAX_GRID_POINTS} points")
    count = int(math.floor(steps)) + 1
    return lo + step * np.arange(count)


def _family(cfg: RunConfig) -> Family:
    name = cfg.family.strip().lower().replace("-", "_")
    try:
        return Family(name)
    except ValueError:
        known = ", ".join(f.value for f in Family)
        raise ConfigError("model.family", f"unknown family {cfg.family!r} (one of: {known})") from None


def _model_spec(cfg: RunConfig) -> ModelSpec:
    fam = _family(cfg)
    kwargs = {}
    if fam in (Family.BESSEL, Family.SQUARE_BESSEL, Family.SQRT_SQUARE_BESSEL):
        kwargs["alpha"] = cfg.alpha
    if fam is Family.RIESZ:
        kwargs["riesz_a"] = cfg.riesz_a
    if fam in (Family.LENNARD_JONES, Family.RIESZ):
        kwargs["free_c"] = cfg.free_c
        kwargs["free_theta"] = cfg.free_theta
    with _keyed("model"):
        return ModelSpec(family=fam, n_particles=cfg.n, beta=cfg.beta, **kwargs)


def _workers() -> int | None:
    raw = os.environ.get("IBROWNIAN_WORKERS")
    if raw is None:
        return None
    try:
        count = int(raw)
    except ValueError:
        raise ConfigError("IBROWNIAN_WORKERS", f"expected an integer, got {raw!r}") from None
    with _keyed("IBROWNIAN_WORKERS"):
        return _checked_number("workers", count, at_least=1, whole=True)  # ``simulate``'s own rule


def _chain_draws(cfg: RunConfig, spec: ModelSpec, rng: RngStream, count: int):
    with _keyed("sampler"):
        opts = sampling.McmcOptions(burn_in_sweeps=cfg.burn_in_sweeps, thin_sweeps=cfg.thin_sweeps)
    return sampling.sample_gibbs_chain(spec, rng, count, options=opts)


# the equilibrium sampler of each family that has one, called with
# (cfg, spec, rng, count); each returns the (count, n, d) draws and their
# SamplerReport
_SAMPLERS = {
    Family.AIRY: lambda cfg, spec, rng, count: sampling.sample_airy_ensemble(spec.n_particles, spec.beta, rng, count),
    Family.GINIBRE: lambda cfg, spec, rng, count: sampling.sample_ginibre_ensemble(spec.n_particles, rng, count),
    Family.BESSEL: lambda cfg, spec, rng, count: sampling.sample_bessel_ensemble(spec.n_particles, spec.alpha, rng, count),
    Family.LENNARD_JONES: _chain_draws,
    Family.RIESZ: _chain_draws,
}


def _draw_equilibrium(cfg: RunConfig, spec: ModelSpec, rng: RngStream, count: int) -> np.ndarray:
    """``count`` equilibrium draws of ``spec``, shape (count, n, d)."""
    fam = spec.family
    if fam not in _SAMPLERS:
        supported = ", ".join(f.value for f in _SAMPLERS)
        raise ConfigError("model.family", f"{fam.value} has no equilibrium sampler (one of: {supported})")
    samples, report = _SAMPLERS[fam](cfg, spec, rng, count)
    if not report.converged:
        rate = "unknown" if report.acceptance_rate is None else f"{report.acceptance_rate:.3f}"
        print(
            f"warning: the {fam.value} sampler did not converge (acceptance rate {rate}); "
            "its samples are used as drawn",
            file=sys.stderr,
        )
    return samples


def _spaced_initial(spec: ModelSpec) -> np.ndarray:
    n, d = spec.n_particles, spec.dimension
    if d == 1:
        return np.arange(1.0, n + 1.0)[:, None]
    side = int(math.ceil(n ** (1.0 / d)))
    axes = [np.arange(side, dtype=float) - 0.5 * (side - 1)] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return mesh[:n]


def _initial_states(cfg: RunConfig, spec: ModelSpec, rng: RngStream) -> np.ndarray:
    mode = cfg.initial.strip().lower()
    if mode == "auto":
        mode = "equilibrium" if spec.family in _SAMPLERS else "spaced"
    if mode == "equilibrium":
        return _draw_equilibrium(cfg, spec, rng, cfg.paths)
    if mode == "spaced":
        return np.broadcast_to(_spaced_initial(spec), (cfg.paths, spec.n_particles, spec.dimension))
    raise ConfigError("sampler.initial", f"expected auto, equilibrium or spaced, got {cfg.initial!r}")


def _integrator_config(cfg: RunConfig, spec: ModelSpec) -> IntegratorConfig:
    # every family's variant is checked; the planar family's alone is read
    try:
        variant = TruncationVariant(cfg.truncation_variant.strip().lower())
    except ValueError:
        raise ConfigError(
            "integrator.truncation_variant", f"expected centered or origin, got {cfg.truncation_variant!r}"
        ) from None
    trunc = None
    if cfg.truncation_radius != 0:  # any value but 0 is a radius, checked below
        with _keyed("integrator.truncation_radius"):
            planar = spec.family is Family.GINIBRE
            trunc = TruncationParams(radius=cfg.truncation_radius, variant=variant if planar else None)
    # an error names its key: the rule's messages start with the field's name
    with _keyed("integrator"):
        dt_record = None if cfg.dt_record == 0 else cfg.dt_record
        return IntegratorConfig(
            dt=cfg.dt, t_final=cfg.t_final, dt_record=dt_record, max_substep_depth=cfg.max_substep_depth, truncation=trunc
        )


def _simulate(cfg: RunConfig, spec: ModelSpec, icfg: IntegratorConfig):
    """Integrate cfg.paths paths of ``spec`` under ``icfg``; returns the ensemble."""
    workers = _workers()  # before any draw: a bad count must not wait for the starts
    initial = _initial_states(cfg, spec, RngStream(cfg.seed, 0))
    with _keyed("integrator"):
        return simulate(spec, initial, icfg, RngStream(cfg.seed, 1), workers=workers)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(v: float) -> str:
    return repr(float(v))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_sample(cfg: RunConfig, out: Path) -> int:
    spec = _model_spec(cfg)
    configs = _draw_equilibrium(cfg, spec, RngStream(cfg.seed), cfg.n_samples)
    target = out / "samples.csv"
    save_configurations(target, configs)
    print(f"wrote {len(configs)} {spec.family.value} configurations (n = {spec.n_particles}) to {target}")
    return 0


def _cmd_simulate(cfg: RunConfig, out: Path) -> int:
    spec = _model_spec(cfg)
    ens = _simulate(cfg, spec, _integrator_config(cfg, spec))
    coords = ["x", "y", "z"][: spec.dimension]
    rows = []
    for p in range(ens.states.shape[0]):
        for k, t in enumerate(ens.times):
            for i in range(spec.n_particles):
                rows.append([_fmt(t), p, i] + [_fmt(v) for v in ens.states[p, k, i]])
    target = out / "trajectory.csv"
    _write_csv(target, ["t", "path_id", "particle_id"] + coords, rows)
    swaps = "-" if ens.ordering_violations is None else str(ens.ordering_violations)
    print(
        f"integrated {ens.states.shape[0]} paths to t = {cfg.t_final} "
        f"(ordering violations {swaps}, max substep depth {ens.max_depth_used}); wrote {target}"
    )
    return 0


def _cmd_kernel(cfg: RunConfig, out: Path) -> int:
    try:
        kid = kernels.KernelId(cfg.kernel.strip().lower())
    except ValueError:
        known = ", ".join(k.value for k in kernels.KernelId)
        raise ConfigError("diagnostics.kernel", f"unknown kernel {cfg.kernel!r} (one of: {known})") from None
    if kid is kernels.KernelId.BESSEL:
        with _keyed("model"):  # the hard-edge model's alpha rule
            ModelSpec(Family.BESSEL, 1, alpha=cfg.alpha)
    xs = _grid("diagnostics.grid", cfg.grid)
    # one array call, bitwise the scalar kernels, after their support checks (the grid ascends)
    with _keyed("diagnostics.grid"):
        if kid is kernels.KernelId.AIRY2:
            kernels._check_airy(xs)
            vals = kernels._airy_taylor(xs, xs)
        elif kid is kernels.KernelId.BESSEL:
            kernels._check_bessel_kernel(cfg.alpha, xs[0], xs[-1])
            vals = kernels._bessel_taylor(cfg.alpha, xs, xs)
        else:
            vals = [1.0 / math.pi] * len(xs)
    target = out / "kernel.csv"
    _write_csv(target, ["x", "value"], ([_fmt(v), _fmt(k)] for v, k in zip(xs, vals)))
    print(f"wrote {len(xs)} diagonal values of {kid.value} to {target}")
    return 0


def _cmd_correlate(cfg: RunConfig, out: Path) -> int:
    spec = _model_spec(cfg)
    if spec.dimension not in (1, 2):
        raise ConfigError("model.family", f"estimators cover 1d and planar families, not {spec.family.value}")
    if cfg.order not in (1, 2):
        raise ConfigError("diagnostics.order", f"expected 1 or 2, got {cfg.order}")
    edges = None
    if cfg.bins.strip().lower() != "auto":
        with _keyed("diagnostics.bins"):
            edges = stats._check_bins(_floats("diagnostics.bins", cfg.bins))
    window = None if cfg.window == 0 else cfg.window
    with _keyed("diagnostics.window"):
        stats._check_window(window, spec.dimension, cfg.order)
    configs = _draw_equilibrium(cfg, spec, RngStream(cfg.seed), cfg.n_samples)
    with _keyed("diagnostics"):
        est = stats.estimate_rho(configs, cfg.order, bins=edges, window=window)
    target = out / "correlation.csv"
    # one row per bin, with its (lo, hi) edges on each axis; the 1d pair estimate has two
    axes = {(1, 1): ["x"], (1, 2): ["x", "y"], (2, 1): ["radius"], (2, 2): ["sep"]}[spec.dimension, cfg.order]
    header = [f"{axis}_{end}" for axis in axes for end in ("lo", "hi")] + ["density", "stderr"]
    rows = (
        [_fmt(est.bins[i + e]) for i in idx for e in (0, 1)] + [_fmt(est.density[idx]), _fmt(est.stderr[idx])]
        for idx in np.ndindex(est.density.shape)
    )
    _write_csv(target, header, rows)
    print(f"wrote order-{cfg.order} correlation estimate ({est.density.size} bins) to {target}")
    return 0


def _cmd_drift_diag(cfg: RunConfig, out: Path) -> int:
    spec = _model_spec(cfg)
    x = np.asarray(_floats("diagnostics.x", cfg.x))
    try:
        _position(spec, x)
    except ValueError as exc:  # a DomainError too: --x is a setting
        raise ConfigError("diagnostics.x", str(exc)) from None
    with _keyed("diagnostics.s"):
        cutoff_chi(0.0, cfg.s)
    r_list = _floats("diagnostics.r_list", cfg.r_list)
    with _keyed("diagnostics.r_list"):
        for r in r_list:
            TruncationParams(radius=r)
    with _keyed("sampler"):  # the scan's fewest environments
        _checked_number("n_samples", cfg.n_samples, at_least=stats._MIN_SCAN_SAMPLES, whole=True)
    configs = _draw_equilibrium(cfg, spec, RngStream(cfg.seed), cfg.n_samples)
    scan = stats.drift_truncation_scan(configs, spec, x, r_list)
    coords = ["x", "y", "z"][: spec.dimension]
    header = ["r"] + [f"mean_{c}" for c in coords] + [f"stderr_{c}" for c in coords]
    rows = []
    for k, rv in enumerate(scan.r_values):
        row = [_fmt(rv)] + [_fmt(v) for v in scan.mean[k]] + [_fmt(v) for v in scan.stderr[k]]
        rows.append(row)
    if scan.variant_gap_mean is not None:
        header += ["variant_gap_mean", "variant_gap_stderr"]
        for k, row in enumerate(rows):
            row += [_fmt(scan.variant_gap_mean[k]), _fmt(scan.variant_gap_stderr[k])]
    target = out / "drift_scan.csv"
    _write_csv(target, header, rows)

    # per-sample split of the log-derivative at x, exact in the cutoff s
    dec_rows = []
    for j, config in enumerate(configs):
        dec = log_derivative(spec, x, config, cfg.s)
        dec_rows.append([j] + [_fmt(v) for part in (dec.free, dec.near, dec.far) for v in np.atleast_1d(part)])
    dec_header = ["sample_id"] + [f"{part}_{c}" for part in ("free", "near", "far") for c in coords]
    dec_target = out / "decomposition.csv"
    _write_csv(dec_target, dec_header, dec_rows)
    print(f"wrote truncation scan over r = {r_list} to {target} and cutoff split (s = {cfg.s}) to {dec_target}")
    return 0


def _cmd_tightness(cfg: RunConfig, out: Path) -> int:
    spec = _model_spec(cfg)
    with _keyed("diagnostics.L_list"):
        cuts = _floats("diagnostics.L_list", cfg.L_list)
        # past 2**53 a float no longer holds the whole number typed
        L_list = [
            int(_checked_number(f"L_list[{k}]", v, at_least=0, at_most=2**53, whole=True)) for k, v in enumerate(cuts)
        ]
    with _keyed("diagnostics"):
        params = stats.TightnessParams(r=cfg.r, T=cfg.T, c=cfg.c)
    configs = _draw_equilibrium(cfg, spec, RngStream(cfg.seed), cfg.n_samples)
    vals = stats.erf_tail_sum(configs, params, L_list)
    target = out / "tightness.csv"
    _write_csv(target, ["L", "value"], ([lv, _fmt(v)] for lv, v in zip(L_list, vals)))
    print(f"wrote tail sums over L = {L_list} to {target}")
    return 0


def _cmd_moments(cfg: RunConfig, out: Path) -> int:
    lags = _floats("diagnostics.lags", cfg.lags)
    spec = _model_spec(cfg)
    icfg = _integrator_config(cfg, spec)
    if icfg.t_final == 0:
        raise ConfigError("integrator.t_final", "fourth moments need a horizon > 0")
    with _keyed("diagnostics.lags"):
        stats._lag_steps(lags, icfg.record_step, round(icfg.t_final / icfg.record_step) + 1)
    ens = _simulate(cfg, spec, icfg)
    with _keyed("diagnostics.lags"):
        moments = stats.holder_moment(ens, lags)
    target = out / "moments.csv"
    _write_csv(target, ["lag", "moment4"], ([_fmt(l), _fmt(m)] for l, m in zip(lags, moments)))
    positive = [(l, m) for l, m in zip(lags, moments) if l > 0 and m > 0]
    if len(positive) >= 2:
        slope = stats.log_log_slope([p[0] for p in positive], [p[1] for p in positive])
        print(f"wrote fourth moments for {len(lags)} lags to {target}; log-log slope {slope:.4f}")
    else:
        print(f"wrote fourth moments for {len(lags)} lags to {target}")
    return 0


def _cmd_verify(cfg: RunConfig, out: Path) -> int:
    from .acceptance import CHECKS  # here: the checks import scipy.stats, which no other command needs

    if cfg.checks.strip():
        names = [c.strip() for c in cfg.checks.split(",") if c.strip()]
        unknown = [c for c in names if c not in CHECKS]
        if unknown:
            known = ", ".join(CHECKS)
            raise ConfigError("run.checks", f"unknown checks {', '.join(unknown)} (one of: {known})")
    elif cfg.suite == "quick":
        names = [c for c in CHECKS if c not in _SLOW_CHECKS]
    elif cfg.suite == "full":
        names = list(CHECKS)
    else:
        raise ConfigError("run.suite", f"expected quick or full, got {cfg.suite!r}")
    results = []
    for name in names:
        res = CHECKS[name]()
        results.append(res)
        print(res.line(), flush=True)
    target = out / "verify.csv"
    _write_csv(
        target,
        ["name", "passed", "value", "threshold", "margin", "wall_time"],
        ([r.name, int(r.passed), _fmt(r.value), _fmt(r.threshold), _fmt(r.margin), _fmt(r.wall_time)] for r in results),
    )
    failed = [r.name for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed; wrote {target}")
    return 1 if failed else 0


_COMMANDS = {
    "sample": _cmd_sample,
    "simulate": _cmd_simulate,
    "kernel": _cmd_kernel,
    "correlate": _cmd_correlate,
    "drift-diag": _cmd_drift_diag,
    "tightness": _cmd_tightness,
    "moments": _cmd_moments,
    "verify": _cmd_verify,
}


def run(subcommand: str, cfg: RunConfig) -> int:
    """Execute one subcommand against a resolved config; returns the exit code."""
    if subcommand not in _COMMANDS:
        raise ConfigError("subcommand", f"unknown subcommand {subcommand!r}")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    echo_config(cfg, out)
    return _COMMANDS[subcommand](cfg, out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibrownian",
        description="Interacting Brownian particle systems: sampling, integration, diagnostics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"{name} run (see module docstring)")
        # values like "-4:2:0.05" or "-1,0" must parse as values, not flags;
        # no option here starts with a digit, so widening is unambiguous
        p._negative_number_matcher = re.compile(r"^-\d")
        p.add_argument("--config", default=None, help="INI config file; flags override it")
        for field in fields(RunConfig):
            flag = _FLAGS.get(field.name, "--" + field.name.replace("_", "-"))
            p.add_argument(flag, dest=field.name, type=field.type, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    try:
        cfg = load_config(args.config, overrides)
        return run(args.subcommand, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StepFailureError, SingularConfigurationError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
