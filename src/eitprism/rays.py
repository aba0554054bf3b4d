"""Paraxial ray tracing through a transverse refractive-index gradient.

In the paraxial limit a ray with transverse position x(z) and slope
theta(z) = dx/dz obeys

    d(theta)/dz = d(Re n)/dx

evaluated at the current x.  The medium is uniform along z, so the only
z-dependence enters through the ray's own motion.  Integration is
classical RK4 with a fixed step; for the step counts used here the global
error is far below the quantities being compared (see the step-halving
test).  A trajectory is one float64 array of shape (n_steps + 1, 3) whose
rows are (z, x, angle), launch state first.  The same RK4 loop also steps
a batch of rays held in arrays, one ray per detuning, and keeps only
each ray's exit angle and paraxial flag (trace_exits); a sweep traces
its rays that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from .medium import ControlField, MediumParams, grad_index, index_gradient

__all__ = [
    "Trajectory",
    "integrate_gradient",
    "integrate_exits",
    "trace_ray",
    "trace_exits",
    "exit_angle",
    "deflection_estimate",
]

# |theta| beyond this marks the trace as outside the small-angle regime.
PARAXIAL_LIMIT = 0.5


@dataclass
class Trajectory:
    states: np.ndarray  # (n_steps + 1, 3) float64: columns z, x, angle
    paraxial_violation: bool


def _rk4_steps(gradient, x, v, length: float, n_steps: int):
    """The one RK4 loop: an iterator over the state (x, angle) after each
    of the ``n_steps`` steps of x'' = gradient(x) over [0, length].

    The state is a pair of floats, or a pair of arrays with one ray per
    element (``gradient`` then maps an array of positions to an array of
    gradients).  Each state is a new object, never an update in place.
    Rejects a ``length`` that is not positive and finite, a non-finite
    launch and fewer than one step here, before any step is taken.
    """
    if not 0.0 < length < math.inf:
        raise ValueError("length must be positive and finite")
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise ValueError("x0 and theta0 must be finite")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    return _rk4_loop(gradient, x, v, length / n_steps, n_steps)


def _rk4_loop(gradient, x, v, dz: float, n_steps: int):
    half = 0.5 * dz
    for _ in range(n_steps):
        k1v = gradient(x)
        k1x = v
        k2v = gradient(x + half * k1x)
        k2x = v + half * k1v
        k3v = gradient(x + half * k2x)
        k3x = v + half * k2v
        k4v = gradient(x + dz * k3x)
        k4x = v + dz * k3v
        x = x + dz * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        v = v + dz * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        yield x, v


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
    steps = _rk4_steps(gradient, x0, theta0, length, n_steps)
    # np.fromiter drains the steps without a Python-level loop per step.
    xv = np.fromiter(
        chain((x0, theta0), chain.from_iterable(steps)), float, 2 * (n_steps + 1)
    ).reshape(n_steps + 1, 2)
    z = np.arange(n_steps + 1) * (length / n_steps)
    states = np.column_stack((z, xv))
    return Trajectory(states, bool((np.abs(states[:, 2]) >= PARAXIAL_LIMIT).any()))


def integrate_exits(
    gradient: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    theta0: np.ndarray,
    length: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`integrate_gradient` for a batch of rays, keeping only what a
    sweep row reads: each ray's exit angle and its paraxial flag.

    ``x0`` and ``theta0`` are float64 arrays of one shape, one ray per
    element, and ``gradient`` maps an array of positions to their
    gradients elementwise.  Returns (exit angles, flags); a ray's flag is
    set when its |angle| reaches PARAXIAL_LIMIT at launch or after any
    step, and a NaN angle never sets it.  No trajectory is stored.
    """
    v = theta0
    violated = np.abs(v) >= PARAXIAL_LIMIT
    for _, v in _rk4_steps(gradient, x0, theta0, length, n_steps):
        violated |= np.abs(v) >= PARAXIAL_LIMIT
    return v, violated


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


def trace_exits(
    deltas: np.ndarray,
    x0: float,
    theta0: float,
    p: MediumParams,
    c: ControlField,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One ray per detuning in ``deltas``, all launched at (x0, theta0)
    and integrated together: the exit angles and paraxial flags of
    :func:`trace_ray` at each detuning, without the trajectories.

    The batch rounds through numpy's exp and complex arithmetic where a
    scalar trace uses Python's, so an exit angle can differ from the
    scalar one in the last bits.  A ray's result does not depend on the
    other detunings in the batch.
    """
    if n_steps < 100:
        raise ValueError("n_steps must be at least 100")
    deltas = np.asarray(deltas, dtype=float)
    return integrate_exits(
        index_gradient(deltas, p, c),
        np.full(deltas.shape, float(x0)),
        np.full(deltas.shape, float(theta0)),
        p.cell_length,
        n_steps,
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
