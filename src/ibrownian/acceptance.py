"""Desk-scale acceptance checks, one per release criterion.

Every check freezes its seeds and tolerances, so a pass is reproducible
bit for bit; ``run_all`` executes them in registry order and returns one
``CheckResult`` per check, whose ``margin`` is the signed distance of the
value to the ``threshold`` its pass rule reports, positive on the passing
side.  On a 2-vCPU x86_64 VM (commit 2e7ca00) the slowest check,
``ginibre-variant-gap``, took 39.7 s and the whole suite 62.0 s.

Usage:
    from ibrownian.acceptance import CHECKS, run_all

    for res in run_all():
        print(res.line())

    res, = run_all(["non-collision"])
    assert res.passed
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gammainc
from scipy.stats import ks_2samp, kstest

from .core import Family, ModelSpec, RngStream
from . import kernels
from . import sampling
from . import stats
from .sde import IntegratorConfig, simulate

__all__ = ["CheckResult", "CHECKS", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one acceptance check."""

    name: str
    passed: bool
    value: float
    threshold: float
    detail: str
    wall_time: float
    # signed distance to the pass rule, in the units of value, positive on
    # the passing side; computed by the rule that sets passed
    margin: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (
            f"{mark} {self.name}: value {self.value:.4g} vs threshold "
            f"{self.threshold:.4g}, margin {self.margin:.4g} ({self.detail}) [{self.wall_time:.1f}s]"
        )


# pass rules: each returns (passed, margin, threshold), the margin signed so
# that it is positive on the passing side (zero on the boundary of an
# inclusive rule) and measured from the threshold, the limit it reports


def _at_most(value: float, limit: float) -> tuple[bool, float, float]:
    return value <= limit, limit - value, limit


def _below(value: float, limit: float) -> tuple[bool, float, float]:
    return value < limit, limit - value, limit


def _at_least(value: float, limit: float) -> tuple[bool, float, float]:
    return value >= limit, value - limit, limit


def _above(value: float, limit: float) -> tuple[bool, float, float]:
    return value > limit, value - limit, limit


def _within(value: float, lo: float, hi: float) -> tuple[bool, float, float]:
    """The interval [lo, hi]; the margin is measured from the nearer end."""
    margin, limit = min((value - lo, lo), (hi - value, hi))
    return lo <= value <= hi, margin, limit


def _all_of(rule, *side_rules) -> tuple[bool, float, float]:
    """All rules must hold.  The margin is the first rule's, which is the rule
    on the reported value, unless a side rule fails: then the smallest
    margin among the failing rules stands in for it.  The threshold is
    always the first rule's."""
    passed = rule[0] and all(ok for ok, _, _ in side_rules)
    failing = [m for ok, m, _ in side_rules if not ok]
    return passed, min([rule[1]] + failing), rule[2]


CHECKS: dict[str, Callable[[], CheckResult]] = {}


def _check(name: str):
    """Register a check under name, in definition order.  The decorated body
    returns (value, rule, detail), where rule is what a pass rule returned;
    the registered check times the body and builds its CheckResult."""

    def register(body):
        @functools.wraps(body)
        def check() -> CheckResult:
            t0 = time.perf_counter()
            value, (passed, margin, threshold), detail = body()
            return CheckResult(name=name, passed=passed, value=value, threshold=threshold,
                               detail=detail, wall_time=time.perf_counter() - t0, margin=margin)

        CHECKS[name] = check
        return check

    return register


@_check("ginibre-bulk-intensity")
def check_ginibre_bulk_intensity():
    # 50 planar samples at n = 100; the point density well inside the
    # cloud must match the flat value 1/pi to 10% relative
    pts, _ = sampling.sample_ginibre_ensemble(100, RngStream(101), 50)
    radius = 0.6 * math.sqrt(100)
    est = stats.estimate_rho(pts, 1, bins=np.array([0.0, radius]))
    scaled = float(est.density[0]) * math.pi
    value = abs(scaled - 1.0)
    detail = f"relative error of pi * rho = {scaled:.4f} inside radius {radius:.1f}"
    return value, _at_most(value, 0.1), detail


@_check("airy-edge-density")
def check_airy_edge_density():
    # 5000 tridiagonal samples at n = 400; scaled one-point density on
    # [-4, 2] vs the soft-edge kernel diagonal, sup discrepancy <= 0.05.
    # Bin width 0.5 keeps the per-bin counting noise (sigma ~ 0.01)
    # well under the tolerance; the reference is bin-averaged to match.
    # Only the points in the window are computed.
    draws, _ = sampling.sample_airy_ensemble(400, 2.0, RngStream(201), 5000, window=(-4.0, 2.0))
    edges = np.linspace(-4.0, 2.0, 13)
    hist, _ = np.histogram(np.concatenate(draws), bins=edges)
    width = edges[1] - edges[0]
    # the kernel diagonal at 21 nodes per bin, in one call
    g = np.linspace(edges[:-1], edges[1:], 21, axis=1)
    ref = np.array([np.trapezoid(k, row) for k, row in zip(kernels._airy_taylor(g, g), g)]) / width
    value = float(np.max(np.abs(hist / (5000.0 * width) - ref)))
    return value, _at_most(value, 0.05), "sup |empirical - kernel diagonal| over [-4, 2], width 0.5"


@_check("airy-special-function")
def check_airy_special_function():
    # evaluator vs a high-order ODE integration of y'' = x y started from
    # the exact values at 0, plus a direct second-difference residual
    ai0 = 1.0 / (3.0 ** (2.0 / 3.0) * math.gamma(2.0 / 3.0))
    aip0 = -1.0 / (3.0 ** (1.0 / 3.0) * math.gamma(1.0 / 3.0))

    def rhs(t, y):
        return [y[1], t * y[0]]

    xs = np.linspace(-10.0, 5.0, 301)
    ai, aip = kernels.airy_fn(xs)
    err = 0.0
    for side in (-10.0, 5.0):
        sel = xs < 0 if side < 0 else xs >= 0
        sol = solve_ivp(rhs, (0.0, side), [ai0, aip0], method="DOP853",
                        rtol=1e-13, atol=1e-16, dense_output=True)
        vals = sol.sol(xs[sel])
        err = max(err, float(np.max(np.abs(ai[sel] - vals[0]))),
                  float(np.max(np.abs(aip[sel] - vals[1]))))

    h = 5e-3
    grid = np.linspace(-9.5, 4.5, 141)
    vals = {k: kernels.airy_fn(grid + k * h)[0] for k in (-2, -1, 0, 1, 2)}
    second = (-vals[2] + 16 * vals[1] - 30 * vals[0] + 16 * vals[-1] - vals[-2]) / (12 * h * h)
    resid = float(np.max(np.abs(second - grid * vals[0])))
    value = max(err, resid)
    detail = f"max(ODE oracle gap {err:.2e}, stencil residual {resid:.2e}) on [-10, 5]"
    return value, _at_most(value, 1e-8), detail


@_check("bessel-kernel-identity")
def check_bessel_kernel_identity():
    # the recurrence and derivative forms of the hard-edge kernel are
    # algebraically identical; require 1e-9 agreement on a 50 x 50 grid
    grid = np.linspace(0.5, 80.0, 50)
    value = 0.0
    for a in (1.0, 2.0):
        for x in grid:
            for y in grid:
                v1 = kernels.bessel_kernel(a, x, y, form="recurrence")
                v2 = kernels.bessel_kernel(a, x, y, form="derivative")
                value = max(value, abs(v1 - v2))
    return value, _at_most(value, 1e-9), "max |recurrence - derivative| over (0.5, 80)^2, alpha in {1, 2}"


@_check("dyson-stationarity")
def check_dyson_stationarity():
    # start 2000 paths from exact equilibrium, run to T = 0.5, and compare
    # every particle's marginal between t = 0 and t = T
    spec = ModelSpec(family=Family.AIRY, beta=2.0, n_particles=20)
    starts, _ = sampling.sample_airy_ensemble(20, 2.0, RngStream(501), 2000)
    cfg = IntegratorConfig(dt=5e-4, t_final=0.5, dt_record=0.5, max_substep_depth=30)
    ens = simulate(spec, starts, cfg, RngStream(502), on_failure="drop")
    first = np.sort(ens.states[:, 0, :, 0], axis=1)
    last = np.sort(ens.states[:, -1, :, 0], axis=1)
    value = max(ks_2samp(first[:, i], last[:, i]).statistic for i in range(20))
    detail = f"max per-particle KS(t=0, t=0.5), {len(ens.failed_paths)} of 2000 paths flagged"
    return value, _at_most(value, 0.05), detail


@_check("ito-square-root-consistency")
def check_ito_square_root_consistency():
    # the squared-coordinate system mapped through sqrt must match the
    # direct system in law; compare per-particle marginals at t = 0.2
    z0 = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    sq = ModelSpec(family=Family.SQUARE_BESSEL, beta=2.0, alpha=1.0, n_particles=5)
    rt = ModelSpec(family=Family.SQRT_SQUARE_BESSEL, beta=2.0, alpha=1.0, n_particles=5)
    cfg = IntegratorConfig(dt=1e-3, t_final=0.2, dt_record=0.2, max_substep_depth=30)
    ens_sq = simulate(sq, [z0**2] * 2000, cfg, RngStream(605), on_failure="drop")
    ens_rt = simulate(rt, [z0] * 2000, cfg, RngStream(606), on_failure="drop")
    a = np.sort(np.sqrt(ens_sq.states[:, -1, :, 0]), axis=1)
    b = np.sort(ens_rt.states[:, -1, :, 0], axis=1)
    value = max(float(ks_2samp(a[:, i], b[:, i]).statistic) for i in range(5))
    pooled = float(ks_2samp(a.ravel(), b.ravel()).statistic)
    flagged = len(ens_sq.failed_paths) + len(ens_rt.failed_paths)
    detail = f"max per-particle KS (pooled marginal {pooled:.4f}), {flagged} paths flagged"
    return value, _at_most(value, 0.05), detail


@_check("airy-drift-truncation-trend")
def check_airy_drift_truncation_trend():
    # 1000 window realizations of the infinite edge system; the truncated
    # interaction at x = -1 must show the Cauchy-sequence trend in r.
    # Environments come from the window sampler (a matrix approximant
    # carries a finite-size density bend that reverses the trend) and are
    # rescaled to the density convention of the compensator 2*sqrt(r).
    envs, _ = sampling.sample_airy_field((-92.0, 6.0), RngStream(701), 1000)
    scale = math.pi ** (-2.0 / 3.0)
    spec = ModelSpec(family=Family.AIRY, beta=2.0, n_particles=1000)
    scan = stats.drift_truncation_scan([scale * e for e in envs], spec, -1.0, [10.0, 20.0, 40.0])
    m10, m20, m40 = (float(scan.mean[i, 0]) for i in range(3))
    inner = abs(m20 - m10)
    value = abs(m40 - m20)
    detail = f"|D(40)-D(20)| vs |D(20)-D(10)| = {inner:.4f}, means ({m10:.3f}, {m20:.3f}, {m40:.3f})"
    return value, _at_most(value, min(inner, 0.15)), detail


@_check("ginibre-variant-gap")
def check_ginibre_variant_gap():
    # the two truncated-drift windows agree as r grows: the mean gap
    # |centered - origin| must fall strictly across r = (6, 10, 16)
    pts, _ = sampling.sample_ginibre_ensemble(400, RngStream(801), 200)
    spec = ModelSpec(family=Family.GINIBRE, beta=2.0, n_particles=400)
    radii = [0.3 * 20.0, 0.5 * 20.0, 0.8 * 20.0]
    scan = stats.drift_truncation_scan(pts, spec, np.array([1.0, 0.0]), radii)
    g = [float(v) for v in scan.variant_gap_mean]
    value = max(g[1] - g[0], g[2] - g[1])
    detail = f"max successive gap increase, gaps ({g[0]:.3f}, {g[1]:.3f}, {g[2]:.3f})"
    return value, _below(value, 0.0), detail


@_check("non-collision")
def check_non_collision():
    # 500 soft-edge paths must keep their ordering on every recorded
    # interval, and hard-edge paths must stay strictly positive
    airy = ModelSpec(family=Family.AIRY, beta=2.0, n_particles=10)
    starts, _ = sampling.sample_airy_ensemble(10, 2.0, RngStream(901), 500)
    cfg = IntegratorConfig(dt=1e-4, t_final=0.05, dt_record=1e-3)
    ens = simulate(airy, starts, cfg, RngStream(902))
    swaps = float(ens.ordering_violations)

    bes = ModelSpec(family=Family.BESSEL, beta=2.0, alpha=1.0, n_particles=10)
    bstarts, _ = sampling.sample_bessel_ensemble(10, 1.0, RngStream(903), 50)
    ens_b = simulate(bes, bstarts, cfg, RngStream(904))
    min_state = float(np.min(ens_b.states))
    detail = f"ordering violations over 500 paths; min hard-edge state {min_state:.3f} > 0"
    return swaps, _all_of(_at_most(swaps, 0.0), _above(min_state, 0.0)), detail


@_check("holder-moment-slope")
def check_holder_moment_slope():
    # fourth moment of increments over dyadic lags: diffusive scaling
    # means slope 2 in log-log, accepted within [1.8, 2.2]
    spec = ModelSpec(family=Family.AIRY, beta=2.0, n_particles=10)
    starts, _ = sampling.sample_airy_ensemble(10, 2.0, RngStream(1001), 200)
    cfg = IntegratorConfig(dt=2e-4, t_final=0.128, dt_record=2e-3)
    ens = simulate(spec, starts, cfg, RngStream(1002))
    lags = [0.002 * 2**k for k in range(6)]
    value = stats.log_log_slope(lags, stats.holder_moment(ens, lags))
    return value, _within(value, 1.8, 2.2), "log-log slope of E|increment|^4 over lags 0.002 * 2^k, k < 6"


@_check("tail-sum-decay")
def check_tail_sum_decay():
    # the far-particle tail sum is nonincreasing in the label cutoff and
    # collapses by >= 10x between cutoffs n/4 and 3n/4
    draws, _ = sampling.sample_airy_ensemble(200, 2.0, RngStream(1101), 300)
    params = stats.TightnessParams(r=10.0, T=20.0, c=1.0)
    cuts = list(range(0, 201, 10))
    vals = stats.erf_tail_sum(draws, params, cuts)
    drops = np.diff(vals)
    monotone = _at_most(float(np.max(drops)), 1e-12)
    ratio = float(vals[cuts.index(50)] / vals[cuts.index(150)])
    detail = f"value(L=50)/value(L=150), monotone nonincreasing: {monotone[0]}"
    return ratio, _all_of(_at_least(ratio, 10.0), monotone), detail


@_check("sampler-closed-forms")
def check_sampler_closed_forms():
    # single-particle laws against exact distributions at 10^4 draws,
    # plus tridiagonal vs dense spectra at n = 50
    worst = 0.0
    parts = []

    draws, _ = sampling.sample_airy_ensemble(1, 2.0, RngStream(1201), 10_000)
    ks = float(kstest(draws[:, 0, 0], lambda v: 1.0 - stats.erf_fn(v + 2.0)).statistic)
    worst = max(worst, ks)
    parts.append(f"gaussian {ks:.4f}")

    pts, _ = sampling.sample_ginibre_ensemble(1, RngStream(1202), 10_000)
    r2 = np.sum(pts[:, 0, :] ** 2, axis=1)
    ks = float(kstest(r2, lambda v: 1.0 - np.exp(-v)).statistic)
    worst = max(worst, ks)
    parts.append(f"complex-gaussian {ks:.4f}")

    samples, _ = sampling.sample_bessel_ensemble(1, 1.0, RngStream(1203), 10_000)
    ks = float(kstest(samples[:, 0, 0], lambda v: gammainc(2.0, v / 4.0)).statistic)
    worst = max(worst, ks)
    parts.append(f"gamma {ks:.4f}")

    tri, _ = sampling.sample_airy_ensemble(50, 2.0, RngStream(1204), 400)
    g = RngStream(1205).generator()
    dense = np.array([sampling._edge_spectrum_dense(50, g) for _ in range(400)])
    ks = float(ks_2samp(tri.ravel(), dense.ravel()).statistic)
    worst = max(worst, ks)
    parts.append(f"tri-vs-dense {ks:.4f}")

    return worst, _at_most(worst, 0.02), ", ".join(parts)


def run_all(names=None) -> list[CheckResult]:
    """Run the named checks (all twelve when names is None), in order."""
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check names: {', '.join(unknown)}")
    return [CHECKS[n]() for n in names]
