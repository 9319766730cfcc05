"""One-line source mutants, each with the pytest selection that should see it.

    python3 tests/mutants.py [NAME ...]

For each mutant of ``MUTANTS`` (all of them, or the ones named), one at a
time: copy ``src/`` to a temporary directory, replace the mutant's text in
its file there, and run its selection in one child process,
``python -m pytest -x -q -p no:cacheprovider SELECTION``, from the
repository root with the copy first on the import path (``PYTHONPATH``
and pytest's ``pythonpath`` setting).  One row per mutant
gives its name, the first failing test or "survived", the result the
table expects and the time.  Before any mutant runs, each selected one's
text must occur exactly once in its file, or the tool fails naming it,
so the table cannot go stale unnoticed.  The exit status is 0 when every
row reads as expected, 1 when one does not, and 2 for a stale mutant.

Standard library only; pytest does not collect this file.  A claim that
a gate sees a defect, or a test retired behind a law gate, adds its
mutants here and quotes the rows.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600.0  # per mutant

# the drift's return line, the one place a drift mutant below adds a term
_DRIFT = "    return _field(spec, arr, arr, None, self_pairs=True, separation=separation)\n\n\ndef truncated_drift_at"
_STEIN_AT_T = "tests/test_sde.py::TestSteinGatesAtT::test_integrator_keeps_the_exact_law"
_CHAIN_AT_T = "tests/test_sde.py::TestSteinGatesAtT::test_integrator_keeps_the_chain_law"
_REVERSAL = "tests/test_sde.py::TestReversalGates"
_STEIN = "tests/test_models.py::TestSteinGates::test_drift_is_the_score_of_the_exact_sampler"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/ibrownian
    old: str  # exact text, found once
    new: str
    selection: tuple  # pytest arguments
    caught: bool  # the result the table expects


def _rotation(c: float) -> str:
    # c (-y, x) on every planar particle: the Ginibre law is rotation
    # invariant, so this keeps it and breaks reversibility
    return _DRIFT.replace(
        "separation)\n",
        f"separation) + ({c} * arr[..., ::-1] * [-1.0, 1.0] if spec.family is Family.GINIBRE else 0.0)\n",
    )


def _top_pair_circulation(c: float) -> str:
    # c J grad log p on particles 8 and 9 of an n = 10 soft-edge state,
    # with grad log p = 2 b (sigma = 1): it keeps the law, not reversibility
    return _DRIFT.replace(
        "    return _field(spec, arr, arr, None, self_pairs=True, separation=separation)\n",
        "    b = _field(spec, arr, arr, None, self_pairs=True, separation=separation)\n"
        "    if spec.family is Family.AIRY and spec.n_particles == 10:\n"
        f"        b = b + {2.0 * c} * np.concatenate([0.0 * b[..., :8, :], b[..., 9:, :], -b[..., 8:9, :]], axis=-2)\n"
        "    return b\n",
    )


def _m(name, path, old, new, caught, *selection):
    return Mutant(name, path, old, new, selection, caught)


MUTANTS = [
    # the planar pair coefficient 2 -> 2.1: six quick tests that restate
    # the formula saw it at the time the mutant was first applied, and no
    # quick law test did; the exact-sampler Stein gate came later
    _m("ginibre-pair-2.1-models", "models.py", "diff *= (2.0 / dist**2)", "diff *= (2.1 / dist**2)", True,
       "tests/test_models.py", "-m", "not slow and not acceptance"),
    _m("ginibre-pair-2.1-stein", "models.py", "diff *= (2.0 / dist**2)", "diff *= (2.1 / dist**2)", True,
       f"{_STEIN}[ginibre]"),
    # pair and one-body terms x 1.05 fail every exact-sampler Stein gate
    _m("airy-pair-1.05", "models.py", "np.divide(spec.beta, diff, out=diff)",
       "np.divide(1.05 * spec.beta, diff, out=diff)", True, f"{_STEIN}[airy-beta2]"),
    _m("airy-one-body-1.05", "models.py", "return -spec.beta * (n13 + x / (2.0 * n13))",
       "return -1.05 * spec.beta * (n13 + x / (2.0 * n13))", True, f"{_STEIN}[airy-beta2]"),
    _m("bessel-pair-1.05", "models.py", "np.divide(2.0, diff, out=diff)", "np.divide(2.1, diff, out=diff)", True,
       f"{_STEIN}[bessel-alpha1.5]"),
    # the Metropolis pair energy x 1.25: the summed-energy check sees it,
    # the chain's Stein gate in law does not (ROADMAP item 21)
    _m("metropolis-pair-1.25-energy", "models.py", "de += beta * (pair_sum(", "de += 1.25 * beta * (pair_sum(", True,
       "tests/test_sampling.py::TestGibbsChain::test_delta_energy_is_the_total_energy_difference"),
    _m("metropolis-pair-1.25-law", "models.py", "de += beta * (pair_sum(", "de += 1.25 * beta * (pair_sum(", False,
       "tests/test_sampling.py::TestGibbsChain::test_chain_draws_satisfy_steins_identity_with_the_drift"),
    # noise x 1.05 and 1.1 on every move: no chain-start gate at T sees
    # it (item 21), nor the hard-edge one (item 2)
    *(
        _m(f"noise-{k}-{gate}", "sde.py", "noise *= noise_root_h[:, None, None]",
           f"noise *= {k} * noise_root_h[:, None, None]", False, selection)
        for k in ("1.05", "1.1")
        for gate, selection in (("chain-start", _CHAIN_AT_T), ("hard-edge", f"{_STEIN_AT_T}[bessel-alpha1.5]"))
    ),
    # a rotation c (-y, x) of the plane keeps the Ginibre law: Stein at T
    # cannot see it, the reversal gate does
    _m("ginibre-rotation-0.1-stein", "models.py", _DRIFT, _rotation(0.1), False, f"{_STEIN_AT_T}[ginibre]"),
    _m("ginibre-rotation-0.1-reversal", "models.py", _DRIFT, _rotation(0.1), True,
       f"{_REVERSAL}::test_planar_paths_do_not_rotate"),
    # c J grad log p on the top soft-edge pair at c = 0.3, the same way
    _m("airy-top-pair-circulation-0.3-stein", "models.py", _DRIFT, _top_pair_circulation(0.3), False,
       f"{_STEIN_AT_T}[airy-beta2]"),
    _m("airy-top-pair-circulation-0.3-reversal", "models.py", _DRIFT, _top_pair_circulation(0.3), True,
       f"{_REVERSAL}::test_adjacent_soft_edge_pairs_do_not_rotate[airy-beta2]"),
]


def _first_failure(output: str) -> str | None:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ")[1]
    return None


def run(mutant: Mutant) -> tuple[str, bool | None, float]:
    """(result, caught, seconds) of one mutant; caught is None when the
    selection errored, collected nothing or timed out."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "ibrownian" / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        # -o pythonpath: the project's pytest settings put its own src/ first
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-o", f"pythonpath={src}",
               *mutant.selection]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            res = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"timeout after {TIMEOUT_S:g} s", None, time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    if res.returncode == 0:
        return "survived", False, seconds
    failed = _first_failure(res.stdout)
    if res.returncode == 1 and failed:
        return failed, True, seconds
    return f"error (exit {res.returncode})", None, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or MUTANTS
    stale = [m.name for m in chosen if (ROOT / "src" / "ibrownian" / m.path).read_text().count(m.old) != 1]
    if stale:
        print(f"stale mutants (text not found once): {', '.join(stale)}", file=sys.stderr)
        return 2
    print("| mutant | first failure | expected | as expected | time |")
    print("|---|---|---|---|---|")
    differs = 0
    for m in chosen:
        result, caught, seconds = run(m)
        ok = caught is m.caught
        differs += not ok
        expected = "caught" if m.caught else "survived"
        print(f"| {m.name} | {result} | {expected} | {'yes' if ok else 'NO'} | {seconds:.1f} s |", flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
