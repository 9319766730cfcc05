"""Every output is pinned bitwise: ``fingerprint.py`` must print
``data/fingerprints.txt`` line for line, under one and under two OpenBLAS
threads.  A change that moves an output on purpose regenerates the file
(the command is in the script's docstring) and names the moved lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ibrownian

SCRIPT = Path(__file__).parent / "fingerprint.py"
COMMITTED = Path(__file__).parent / "data" / "fingerprints.txt"


@pytest.fixture(scope="module")
def outputs():
    """The script's lines under each OpenBLAS thread count; the children
    run side by side and import the package this process imported."""
    src = str(Path(ibrownian.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = {t: subprocess.Popen([sys.executable, str(SCRIPT)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, env={**env, "OPENBLAS_NUM_THREADS": str(t)}) for t in (1, 2)}
    out = {t: child.communicate() for t, child in run.items()}
    assert all(child.returncode == 0 for child in run.values()), [err for _, err in out.values()]
    return {t: stdout.splitlines() for t, (stdout, _) in out.items()}


@pytest.mark.parametrize("threads", [1, 2])
def test_output_equals_the_committed_fingerprints(outputs, threads):
    got, want = outputs[threads], COMMITTED.read_text().splitlines()
    assert got[0] == want[0], f"committed under {want[0][2:]!r}, this run has {got[0][2:]!r}"
    if got != want:
        old, new = dict(ln.split() for ln in want[1:]), dict(ln.split() for ln in got[1:])
        report = {
            "moved": [name for name in old if name in new and new[name] != old[name]],
            "missing": [name for name in old if name not in new],
            "new": [name for name in new if name not in old],
        }
        listed = "; ".join(f"{kind}: {', '.join(names)}" for kind, names in report.items() if names)
        pytest.fail(f"under {threads} OpenBLAS thread(s): {listed or 'the same lines in another order or repeated'}")
