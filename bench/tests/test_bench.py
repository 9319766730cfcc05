"""Tests of the benchmark itself, at tiny workload sizes.

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import warm
import workloads

TINY = {
    "dyson-sde": workloads.DysonSize(n=5, paths=2, dt=1e-3, t_final=0.02),
    "hard-edge-sde": workloads.HardEdgeSize(
        n=3, draws=2, burn_in_sweeps=200, thin_sweeps=2, dt=1e-3, t_final=0.01, record_every=5,
        squared_n=3, squared_paths=2, squared_t_final=0.01, identity_grid=4,
    ),
    "edge-field": workloads.FieldSize(window=(-8.0, 3.0), samples=100, radii=(2.0, 4.0), bin_width=1.0),
}
EXACT = [*run.INFO_METRICS, *run.COUNT_METRICS]


def _run(name, trace, seed=3, seconds=0):
    result, meta, rounds, _ = run.run(name, seed, seconds, trace, size=TINY[name], setup_runs=1, reps_scale=0.01)
    return result, meta


def test_benchmark_json_matches_the_registry():
    spec = json.loads((warm.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer_metrics()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result, meta = _run(name, 0)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {k: u for k, (u, _) in run.END_TO_END.items()}
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())
    assert meta["seed"] == 3 and meta["sizes"] and meta["numpy"] and meta["nproc"] >= 1


def test_round_count_depends_on_the_arguments_alone():
    assert [run.round_count(30, nominal) for _, _, nominal in workloads.WORKLOADS.values()] == [27, 8, 3]
    assert run.round_count(0, 9.5) == 1
    # a tiny round takes milliseconds, yet the run does the nominal count
    first, meta = _run("dyson-sde", 0, seconds=3)
    second, _ = _run("dyson-sde", 0, seconds=3)
    assert meta["rounds"] == 3 and first["attempted"] == 3 * 2 * TINY["dyson-sde"].paths
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric_and_repeats_counts(name):
    first, _ = _run(name, 1)
    assert first["correct"]
    layer = run.per_layer_metrics()
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {k: u for k, (u, _) in layer.items()}
    # the named layers, not the benchmark's own code, take the traced round
    assert first["metrics"]["trace.bench_share"]["value"] < 0.05
    second, _ = _run(name, 1)
    for key in EXACT:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_failed_pooled_check_fails_its_phase_in_every_round():
    rng = np.random.default_rng(0)
    rounds = [
        workloads.Round(1.0, 20, failed, {"ok": True}, pairs={"pair": (rng.normal(size=200), rng.normal(size=200), spare)})
        for failed, spare in ((0, 10), (2, 8))
    ]
    summary, shares = run._summary(rounds, rounds)
    assert summary == {"correct": True, "attempted": 40, "failed": 2} and shares["pair"] < 1.0
    assert run.failed_ratio(summary["failed"], summary["attempted"], len(rounds)) == (2 + 2) / (40 + 2)

    for r in rounds:
        a, b, spare = r.pairs["pair"]
        r.pairs["pair"] = (a, b + 1.0, spare)
    summary, shares = run._summary(rounds, rounds)
    assert summary == {"correct": False, "attempted": 40, "failed": 2 + 10 + 8} and shares["pair"] > 1.0


def test_untraced_run_wraps_nothing(monkeypatch):
    import ibrownian.kernels
    import ibrownian.models
    import ibrownian.sde
    from ibrownian.core import RngStream

    def refuse(tracer):
        raise AssertionError("untraced run installed wrappers")

    originals = (ibrownian.sde.drift_finite_all, ibrownian.kernels.airy_fn, RngStream.__dict__["generator"])
    monkeypatch.setattr(tracing, "install", refuse)
    _run("dyson-sde", 0)
    monkeypatch.undo()
    _run("dyson-sde", 1)
    assert ibrownian.sde.drift_finite_all is ibrownian.models.drift_finite_all
    assert (ibrownian.sde.drift_finite_all, ibrownian.kernels.airy_fn, RngStream.__dict__["generator"]) == originals


def test_run_without_library_fails_without_a_result(tmp_path):
    shutil.copytree(warm.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(warm.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dyson-sde", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
