"""Ultra-dispersive beam deflection in a coherently driven atomic vapor.

A probe beam crossing a vapor cell whose control beam has a transverse
Gaussian profile sees a refractive-index gradient that depends extremely
steeply on the probe detuning.  This package computes the medium response
(:mod:`eitprism.medium`), traces probe rays through the gradient
(:mod:`eitprism.rays`), propagates the full scalar field with a split-step
method (:mod:`eitprism.waves`), and wraps both in a virtual experiment
with detuning sweeps, dispersion slopes and spectral resolving power
(:mod:`eitprism.experiment`).  ``eitprism.cli`` provides the command-line
interface.

Every name in a module's ``__all__`` is also importable from here.
"""

from . import config, experiment, medium, rays, waves
from .medium import *
from .rays import *
from .waves import *
from .experiment import *
from .config import *

__version__ = "0.1.0"

__all__ = [
    *medium.__all__,
    *rays.__all__,
    *waves.__all__,
    *experiment.__all__,
    *config.__all__,
    "__version__",
]
