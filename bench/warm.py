"""Load ibrownian from this checkout's ``src/`` and pay its first-call costs.

``load()`` refuses any other copy of the package, so a checkout without
``src/`` fails instead of silently measuring an installed version.

Run as a script, this module warms a fresh interpreter and prints
``ready``; ``run.py`` times that from process start to measure set-up:

    python3 bench/warm.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class LibraryMissing(RuntimeError):
    """The checkout holds no importable ``src/ibrownian``."""


def load():
    """Import ibrownian from ``ROOT/src`` and return the package."""
    init = SRC / "ibrownian" / "__init__.py"
    if not init.is_file():
        raise LibraryMissing(f"{init} not found; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ibrownian

    if Path(ibrownian.__file__).resolve() != init.resolve():
        raise LibraryMissing(f"imported {ibrownian.__file__}, expected {init}")
    return ibrownian


def warm() -> None:
    """One tiny call into every layer the workloads use."""
    import numpy as np

    load()
    from ibrownian import kernels, sampling, sde, stats
    from ibrownian.core import Family, ModelSpec, RngStream

    rng = RngStream(0)
    starts, _ = sampling.sample_airy_ensemble(4, 2.0, rng, 2)
    cfg = sde.IntegratorConfig(dt=1e-3, t_final=2e-3)
    sde.simulate(ModelSpec(Family.AIRY, 4), list(starts), cfg, rng)
    bes = ModelSpec(Family.SQUARE_BESSEL, 3, alpha=1.0)
    sde.simulate(bes, [np.array([1.0, 2.0, 3.0])], cfg, rng)
    opts = sampling.McmcOptions(burn_in_sweeps=2, thin_sweeps=1)
    sampling.sample_bessel_chain(3, 1.0, rng, 1, options=opts)
    sampling.sample_airy_field((-3.0, 1.0), rng, 1)
    kernels.bessel_kernel(1.0, 1.0, 2.0, form="derivative")
    kernels.kernel_grid("airy2", [-1.0, 0.0])
    stats.estimate_rho(list(starts), 2, bins=np.array([-10.0, 0.0, 10.0]))


if __name__ == "__main__":
    try:
        warm()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    print("ready", flush=True)
