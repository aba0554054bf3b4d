"""Paraxial ray tracing through a transverse refractive-index gradient.

In the paraxial limit a ray with transverse position x(z) and slope
theta(z) = dx/dz obeys

    d(theta)/dz = d(Re n)/dx

evaluated at the current x.  The medium is uniform along z, so the only
z-dependence enters through the ray's own motion.  Integration is
classical RK4 with a fixed step; for the step counts used here the global
error is far below the quantities being compared (see the step-halving
test).  A trajectory is one float64 array of shape (n_steps + 1, 3) whose
rows are (z, x, angle), launch state first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .medium import ControlField, MediumParams, grad_index, index_gradient

__all__ = [
    "Trajectory",
    "integrate_gradient",
    "trace_ray",
    "exit_angle",
    "deflection_estimate",
]

# |theta| beyond this marks the trace as outside the small-angle regime.
PARAXIAL_LIMIT = 0.5


@dataclass
class Trajectory:
    states: np.ndarray  # (n_steps + 1, 3) float64: columns z, x, angle
    paraxial_violation: bool


def integrate_gradient(
    gradient: Callable[[float], float],
    x0: float,
    theta0: float,
    length: float,
    n_steps: int,
) -> Trajectory:
    """Integrate x'' = gradient(x) over [0, length] with RK4.

    ``gradient`` maps transverse position to d(Re n)/dx.  Returns the full
    trajectory including the launch state; z is strictly increasing.  The
    paraxial flag is set when any |angle| reaches PARAXIAL_LIMIT.  Rejects
    a ``length`` that is not positive and finite and a non-finite launch.
    """
    if not 0.0 < length < math.inf:
        raise ValueError("length must be positive and finite")
    if not (math.isfinite(x0) and math.isfinite(theta0)):
        raise ValueError("x0 and theta0 must be finite")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    dz = length / n_steps
    half = 0.5 * dz
    x, v = x0, theta0
    xs, vs = [x], [v]
    for _ in range(n_steps):
        k1v = gradient(x)
        k1x = v
        k2v = gradient(x + half * k1x)
        k2x = v + half * k1v
        k3v = gradient(x + half * k2x)
        k3x = v + half * k2v
        k4v = gradient(x + dz * k3x)
        k4x = v + dz * k3v
        x += dz * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        v += dz * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        xs.append(x)
        vs.append(v)
    states = np.column_stack((np.arange(n_steps + 1) * dz, xs, vs))
    return Trajectory(states, bool((np.abs(states[:, 2]) >= PARAXIAL_LIMIT).any()))


def trace_ray(
    delta: float,
    x0: float,
    theta0: float,
    p: MediumParams,
    c: ControlField,
    n_steps: int,
) -> Trajectory:
    """Trace one probe ray through the cell at two-photon detuning ``delta``."""
    if n_steps < 100:
        raise ValueError("n_steps must be at least 100")
    return integrate_gradient(
        index_gradient(delta, p, c), x0, theta0, p.cell_length, n_steps
    )


def exit_angle(trajectory: Trajectory) -> float:
    return float(trajectory.states[-1, 2])


def deflection_estimate(
    delta: float, x0: float, p: MediumParams, c: ControlField
) -> float:
    """Thin-cell deflection angle: gradient at the entry point times length.

    Ignores the ray's transverse walk inside the cell, so it is only an
    order-of-magnitude figure when the deflection is large.
    """
    return p.cell_length * grad_index(delta, x0, p, c)
