"""Benchmark of ibrownian: three workloads, end to end and per layer.

    python3 bench/run.py --workload dyson-sde --seed 1 --seconds 30 --trace 0

The run does a fixed number of rounds of the workload (closed loop, one
process, serial), as many as fill ``--seconds`` at the workload's nominal
round time, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced.  With ``--trace 1``
untraced and traced copies of each round alternate and the metrics are
the per-layer ones from the traced copies.  A metadata line precedes the
result; both, and the traced spans, are also written to ``.bench_out/``.
See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import tracing
import warm

OUT_DIR = warm.ROOT / ".bench_out"
SETUP_RUNS = 9
# a run stops early only once its rounds have taken this long, so that a
# much slower library still ends within the 180 s a run may take
MAX_ROUNDS_S = 120.0

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_ratio": ("ratio", "lower"),
}

# per-layer self time (seconds per round) -> the span names it sums
SPAN_METRICS = {
    "sde.self_s": ("sde.simulate",),
    "models.drift_s": ("models.drift_finite_all", "models.drift_limit_truncated_all"),
    "models.diffusion_sigma_s": ("models.diffusion_sigma",),
    "models.truncated_drift_s": ("models.truncated_drift_at",),
    "core.rng_generator_s": ("core.rng_generator",),
    "sampling.field_s": ("sampling.sample_airy_field",),
    "sampling.airy_ensemble_s": ("sampling.sample_airy_ensemble",),
    "sampling.bessel_chain_s": ("sampling.sample_bessel_chain",),
    "kernels.airy_fn_s": ("kernels.airy_fn",),
    "kernels.kernel_grid_s": ("kernels.kernel_grid", "kernels.bessel_kernel_grid"),
    "stats.scan_s": ("stats.drift_truncation_scan",),
    "stats.estimate_rho_s": ("stats.estimate_rho",),
    "bench.self_s": ("bench.round",),
}

# round-0 values that repeat exactly for a seed: name -> (unit, better, Round.info key)
INFO_METRICS = {
    "sde.substeps_per_base_step": ("ratio", "lower", "substeps_per_base_step"),
    "sde.max_depth": ("count", "lower", "max_depth"),
    "sde.flagged_paths": ("count", "lower", "flagged"),
    "sampling.field_points_per_sample": ("count", "lower", "field_points_per_sample"),
    "sampling.mcmc_acceptance": ("ratio", "higher", "mcmc_acceptance"),
    "stats.ks_max": ("ratio", "lower", "ks_share"),
    "stats.count_z": ("sd", "lower", "count_z"),
    "stats.rho1_max_z": ("sd", "lower", "rho1_max_z"),
    "stats.rho2_max_abs_err": ("abs", "lower", "rho2_max_abs_err"),
    "kernels.bessel_identity_gap": ("abs", "lower", "kernel_identity_gap"),
}

COUNT_METRICS = {
    "models.drift_calls": ("count", "lower"),
    "core.rng_generator_calls": ("count", "lower"),
    "kernels.airy_fn_points": ("count", "lower"),
}

DERIVED_METRICS = {
    "sde.us_per_substep": ("us", "lower"),
    "models.drift_us_per_call": ("us", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.bench_share": ("ratio", "lower"),
}


def per_layer_metrics() -> dict:
    """Every per-layer metric: name -> (unit, better)."""
    out = {name: ("s", "lower") for name in SPAN_METRICS}
    out.update({k: v[:2] for k, v in INFO_METRICS.items()})
    out.update(COUNT_METRICS)
    out.update(DERIVED_METRICS)
    from calltable import NAMES

    out.update({name: ("us", "lower") for name in NAMES})
    return out


# ---------------------------------------------------------------------------
# set-up, metadata
# ---------------------------------------------------------------------------


def measure_setup(runs: int) -> float:
    """Median seconds from process start to a warm library, over fresh processes."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(Path(warm.__file__))], stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with exit code {code}")
        times.append(elapsed)
    return statistics.median(times)


def _git_sha() -> str | None:
    if not (warm.ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=warm.ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((warm.SRC / "ibrownian").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    """Versions, BLAS, CPUs and the code's identity."""
    import ibrownian
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ibrownian": ibrownian.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _summary(rounds, ks_rounds) -> tuple[dict, dict]:
    """correct/attempted/failed over ``rounds`` and the pooled KS shares over ``ks_rounds``.

    A failed pooled check fails every operation of its phase, in every
    round, that is not already counted as failed.
    """
    import workloads

    shares = workloads.pooled_ks(ks_rounds)
    bad = [name for name, share in shares.items() if not share < 1.0]
    summary = {
        "correct": not bad and all(all(r.checks.values()) for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed + sum(r.pairs[n][2] for n in bad if n in r.pairs) for r in rounds),
    }
    return summary, shares


def failed_ratio(failed: int, attempted: int, rounds: int) -> float:
    """Failure share with one pseudo-failure per round (add-one per round).

    It reads 1 / (operations per round + 1) on a clean run whatever the
    number of rounds, and one failure raises it by 1 / rounds.  A plain share
    would not do: dyson-sde flags about one path in a thousand (depth
    exhausted), so a run flags a path now and then, and a share that is
    0 on most runs and not on others has no steady median or spread.
    """
    return (failed + rounds) / (attempted + rounds)


def round_count(seconds: float, nominal_round_s: float) -> int:
    """Rounds in a run: as many as fill ``seconds`` at the nominal round time, at least one.

    The count depends on the arguments alone, so a seed does the same work
    on every run and the exact counts, ``attempted`` and ``failed`` repeat.
    """
    return max(1, round(seconds / nominal_round_s))


def _round_indices(count: int):
    """0, 1, ..., count - 1, cut short only once the rounds took MAX_ROUNDS_S."""
    t_start = time.perf_counter()
    for r in range(count):
        if r and time.perf_counter() - t_start > MAX_ROUNDS_S:
            return
        yield r


def run_untraced(fn, seed, seconds, size, nominal, setup_runs=SETUP_RUNS):
    setup_s = measure_setup(setup_runs)
    rounds = [fn(seed, r, tracing.NullTracer(), size) for r in _round_indices(round_count(seconds, nominal))]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary, shares = _summary(rounds, rounds)
    metrics = {
        "wall_s": _metric(statistics.median(r.wall for r in rounds), "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak, "MB"),
        "failed_ratio": _metric(failed_ratio(summary["failed"], summary["attempted"], len(rounds)), "ratio"),
    }
    return {**summary, "metrics": metrics}, rounds, None, shares


def run_traced(fn, seed, seconds, size, nominal, reps_scale=1.0):
    import calltable

    tracer = tracing.Tracer()
    plain, traced, slices = [], [], []
    # a traced round costs about 1.1 untraced ones, and each comes with its untraced twin
    for r in _round_indices(round_count(seconds, 2.1 * nominal)):
        plain.append(fn(seed, r, tracing.NullTracer(), size))
        lo = len(tracer.spans)
        tracer.points.clear()
        restore = tracing.install(tracer)
        try:
            traced.append(fn(seed, r, tracer, size))
        finally:
            restore()
        slices.append((lo, len(tracer.spans), sum(tracer.points.values())))
    table = calltable.call_table(seed, reps_scale)
    metrics = layer_metrics(tracer, traced, plain, slices)
    metrics.update(table)
    units = per_layer_metrics()
    out = {name: _metric(metrics[name], units[name][0]) for name in units}
    # a plain round repeats its traced twin, so the pooled checks take one of each pair
    summary, shares = _summary(plain + traced, traced)
    return {**summary, "metrics": out}, plain + traced, tracer, shares


def layer_metrics(tracer, traced, plain, slices) -> dict:
    per_round = []
    for rnd, (lo, hi, points) in zip(traced, slices):
        self_t, total, calls = tracer.self_times(lo, hi)
        unknown = set(self_t) - {s for spans in SPAN_METRICS.values() for s in spans}
        if unknown:
            raise RuntimeError(f"spans without a layer metric: {sorted(unknown)}")
        m = {k: sum(self_t.get(s, 0.0) for s in spans) for k, spans in SPAN_METRICS.items()}
        drift_calls = sum(calls[s] for s in SPAN_METRICS["models.drift_s"])
        substeps = rnd.info.get("substeps", 0)
        m.update(
            {
                "models.drift_calls": drift_calls,
                "core.rng_generator_calls": calls["core.rng_generator"],
                "kernels.airy_fn_points": points,
                "sde.us_per_substep": total.get("sde.simulate", 0.0) / substeps * 1e6 if substeps else 0.0,
                "models.drift_us_per_call": m["models.drift_s"] / drift_calls * 1e6 if drift_calls else 0.0,
                "trace.wall_s": rnd.wall,
                "trace.bench_share": m["bench.self_s"] / rnd.wall,
            }
        )
        per_round.append(m)
    exact = ("models.drift_calls", "core.rng_generator_calls", "kernels.airy_fn_points")
    out = {k: statistics.median(m[k] for m in per_round) for k in per_round[0] if k not in exact}
    out.update({k: per_round[0][k] for k in exact})
    out.update({name: float(traced[0].info.get(key) or 0.0) for name, (_, _, key) in INFO_METRICS.items()})
    out["trace.overhead_ratio"] = out["trace.wall_s"] / statistics.median(r.wall for r in plain) - 1.0
    return out


def run(workload: str, seed: int, seconds: float, trace: int, *, size=None, setup_runs=SETUP_RUNS, reps_scale=1.0):
    """Run one benchmark; returns (result, metadata, rounds, tracer or None).

    The metadata also holds the pooled KS shares of the run's output checks
    and the number of rounds.
    """
    warm.warm()
    import workloads

    fn, default, nominal = workloads.WORKLOADS[workload]
    size = size or default
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "sizes": asdict(size), **environment()}
    if trace:
        result, rounds, tracer, shares = run_traced(fn, seed, seconds, size, nominal, reps_scale)
    else:
        result, rounds, tracer, shares = run_untraced(fn, seed, seconds, size, nominal, setup_runs)
    meta["pooled_ks_share"] = shares
    meta["rounds"] = len(rounds)
    return result, meta, rounds, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["dyson-sde", "hard-edge-sde", "edge-field"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    try:
        result, meta, rounds, tracer = run(args.workload, args.seed, args.seconds, args.trace)
    except warm.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    record = {"meta": meta, "result": result, "rounds": [{"wall": r.wall, "attempted": r.attempted,
              "failed": r.failed, "checks": {k: bool(v) for k, v in r.checks.items()}, "info": r.info} for r in rounds]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float))
    if tracer is not None:
        tracer.dump(OUT_DIR / f"spans-{stem}.json")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
