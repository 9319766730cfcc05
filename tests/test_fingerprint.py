"""``fingerprint.py`` stays runnable: pytest does not collect it, so a
change that breaks it would otherwise go unnoticed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import ibrownian

SCRIPT = Path(__file__).parent / "fingerprint.py"

# one line per output the script hashes
FINGERPRINTS = 154


def test_fingerprint_script_prints_one_hash_per_name():
    # the child imports the package this process imported
    src = str(Path(ibrownian.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == FINGERPRINTS
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    assert len({line.split()[0] for line in lines}) == FINGERPRINTS
