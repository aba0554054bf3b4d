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
"""

from .medium import (
    ControlField,
    MediumParams,
    complex_chi,
    eta,
    grad_index,
    index_profile,
    rabi_at,
    re_chi,
    refractive_index,
)
from .rays import Trajectory, deflection_estimate, exit_angle, trace_ray
from .waves import (
    AliasingError,
    Grid1D,
    GuardBandError,
    TransverseField,
    ZeroPowerError,
    beam_width,
    centered_grid,
    centroid,
    far_field_moments,
    gaussian_beam_field,
    make_gaussian_probe,
    power,
    propagate_free,
    propagate_medium,
    transmission,
)
from .experiment import (
    ProbeSpec,
    Scene,
    SweepRow,
    angular_dispersion,
    detuning_sweep,
    estimate_parameters,
    run_point,
    spectral_resolution,
)
from .config import RunConfig, ConfigError, default_scene, parse_config, scene_from_config, serialize_config

__version__ = "0.1.0"

__all__ = [
    "ControlField",
    "MediumParams",
    "complex_chi",
    "eta",
    "grad_index",
    "index_profile",
    "rabi_at",
    "re_chi",
    "refractive_index",
    "Trajectory",
    "deflection_estimate",
    "exit_angle",
    "trace_ray",
    "AliasingError",
    "Grid1D",
    "GuardBandError",
    "TransverseField",
    "ZeroPowerError",
    "beam_width",
    "centered_grid",
    "centroid",
    "far_field_moments",
    "gaussian_beam_field",
    "make_gaussian_probe",
    "power",
    "propagate_free",
    "propagate_medium",
    "transmission",
    "ProbeSpec",
    "Scene",
    "SweepRow",
    "angular_dispersion",
    "default_scene",
    "detuning_sweep",
    "estimate_parameters",
    "run_point",
    "spectral_resolution",
    "RunConfig",
    "ConfigError",
    "parse_config",
    "scene_from_config",
    "serialize_config",
    "__version__",
]
