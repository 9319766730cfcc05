"""Interacting Brownian particle systems with logarithmic-type interactions.

Submodules:

* ``core``      state types, RNG streams, CSV formats
* ``models``    drift fields, truncations, log-derivative decompositions
* ``kernels``   Airy / Bessel reference kernels
* ``sampling``  equilibrium ensemble samplers (matrix models and MCMC)
* ``sde``       adaptive Euler-Maruyama path integrator
* ``stats``     correlation estimators and tightness diagnostics
* ``cli``       command-line interface (``ibrownian --help``)
"""

from .core import (
    DomainError,
    Family,
    ModelSpec,
    RngStream,
    SingularConfigurationError,
    StepFailureError,
    load_configurations,
    save_configurations,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "Family",
    "ModelSpec",
    "RngStream",
    "SingularConfigurationError",
    "StepFailureError",
    "load_configurations",
    "save_configurations",
    "__version__",
]
