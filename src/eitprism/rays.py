"""Paraxial ray tracing through a transverse refractive-index gradient.

In the paraxial limit a ray with transverse position x(z) and slope
theta(z) = dx/dz obeys

    d(theta)/dz = d(Re n)/dx

evaluated at the current x.  The medium is uniform along z, so the only
z-dependence enters through the ray's own motion.  trace_ray integrates
this at a fixed step with an explicit 6-step Adams pair, started by 5
classical RK4 steps: one gradient call per step after those.  At the
stock 10k steps its exit angles are within about 1e-14 of the largest
|angle| of an extended-precision integration (see the accuracy test).  A
trajectory is one float64 array of shape (n_steps + 1, 3) whose rows are
(z, x, angle), launch state first.

A sweep takes its exit angles from exit_angles instead (ray_exits): all
rays in one batch (in blocks of at most BLOCK_ROWS rows), launched at
rest, by Störmer's rule for x'' = g(x) at every substep count in
lockstep, extrapolated to zero step, which also certifies each row.  It
falls back to trace_ray only for a row it cannot certify.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from .medium import ControlField, MediumParams, grad_index, index_gradient

__all__ = [
    "Trajectory",
    "integrate_gradient",
    "trace_ray",
    "exit_angle",
    "exit_angles",
    "ray_exits",
    "deflection_estimate",
]

# |theta| beyond this marks the trace as outside the small-angle regime.
PARAXIAL_LIMIT = 0.5


@dataclass
class Trajectory:
    states: np.ndarray  # (n_steps + 1, 3) float64: columns z, x, angle
    paraxial_violation: bool


# The explicit 6-step Adams pair for x'' = g(x), newest gradient first
# (Hairer, Norsett & Wanner, Solving ODEs I, sections III.1 and III.10):
# Adams-Bashforth 6 advances the angle, v += h * sum(ADAMS_ANGLE[j] *
# f[n-j]), and its Störmer counterpart the displacement u = x - x0,
# u += h * v + h**2 * sum(ADAMS_WALK[j] * f[n-j]).
ADAMS_ANGLE = tuple(b / 1440 for b in (4277, -7923, 9982, -7298, 2877, -475))
ADAMS_WALK = (
    2713 / 2520, -15487 / 10080, 586 / 315, -6737 / 5040, 263 / 504, -863 / 10080
)
# The RK4 steps that start the pair: it needs the gradients of 6 states.
STARTER_STEPS = len(ADAMS_ANGLE) - 1


def _rk4_step(gradient, x, v, dz: float):
    """One classical RK4 step of x'' = gradient(x) from (x, v): the move
    of x, the new angle and the gradient at x."""
    half = 0.5 * dz
    k1v = gradient(x)
    k1x = v
    k2v = gradient(x + half * k1x)
    k2x = v + half * k1v
    k3v = gradient(x + half * k2x)
    k3x = v + half * k2v
    k4v = gradient(x + dz * k3x)
    k4x = v + dz * k3v
    move = dz * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
    return move, v + dz * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0, k1v


def _adams_loop(gradient, x0, v, dz: float, n_steps: int):
    """An iterator over the state (x, angle) after each of ``n_steps``
    steps of ``dz`` of x'' = gradient(x): STARTER_STEPS RK4 steps, then
    the Adams pair with one gradient call per step.  Summing the moves
    into the displacement u = x - x0 rather than into x keeps the
    rounding of x out of it."""
    x, u, f = x0, 0.0, []
    for _ in range(min(n_steps, STARTER_STEPS)):
        move, v, g = _rk4_step(gradient, x, v, dz)
        u += move
        x = x0 + u
        f.append(g)
        yield x, v
    if n_steps <= STARTER_STEPS:
        return
    b0, b1, b2, b3, b4, b5 = (dz * b for b in ADAMS_ANGLE)
    c0, c1, c2, c3, c4, c5 = (dz * dz * c for c in ADAMS_WALK)
    f5, f4, f3, f2, f1 = f
    for _ in range(n_steps - STARTER_STEPS):
        f0 = gradient(x)
        u += dz * v + (c0 * f0 + c1 * f1 + c2 * f2 + c3 * f3 + c4 * f4 + c5 * f5)
        v += b0 * f0 + b1 * f1 + b2 * f2 + b3 * f3 + b4 * f4 + b5 * f5
        # Two short swaps: CPython rotates up to 3 names without a tuple.
        f5, f4, f3 = f4, f3, f2
        f2, f1 = f1, f0
        x = x0 + u
        yield x, v


def integrate_gradient(
    gradient: Callable[[float], float],
    x0: float,
    theta0: float,
    length: float,
    n_steps: int,
) -> Trajectory:
    """Integrate x'' = gradient(x) over [0, length] in ``n_steps`` equal
    steps: STARTER_STEPS classical RK4 steps, then the Adams pair, which
    calls ``gradient`` once per step, so 4 * min(n_steps, 5) +
    max(n_steps - 5, 0) calls in all.  The moves are summed into the
    displacement from x0, so the rounding of x does not build up.

    ``gradient`` maps transverse position to d(Re n)/dx.  Returns the full
    trajectory including the launch state; z is strictly increasing.  The
    paraxial flag is set when any |angle| reaches PARAXIAL_LIMIT.  Rejects
    a ``length`` that is not positive and finite, a non-finite launch and
    a step count that is not an integer or is below one, before any step
    is taken.
    """
    if not 0.0 < length < math.inf:
        raise ValueError("length must be positive and finite")
    if not (math.isfinite(x0) and math.isfinite(theta0)):
        raise ValueError("x0 and theta0 must be finite")
    if not isinstance(n_steps, numbers.Integral):
        raise ValueError("n_steps must be an integer")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    steps = _adams_loop(gradient, x0, theta0, length / n_steps, n_steps)
    # np.fromiter drains the steps without a Python-level loop per step.
    xv = np.fromiter(
        chain((x0, theta0), chain.from_iterable(steps)), float, 2 * (n_steps + 1)
    ).reshape(n_steps + 1, 2)
    z = np.arange(n_steps + 1) * (length / n_steps)
    states = np.column_stack((z, xv))
    return Trajectory(states, bool((np.abs(states[:, 2]) >= PARAXIAL_LIMIT).any()))


def trace_ray(
    delta: float,
    x0: float,
    theta0: float,
    p: MediumParams,
    c: ControlField,
    n_steps: int,
) -> Trajectory:
    """Trace one probe ray through the cell at two-photon detuning
    ``delta`` by integrate_gradient at ``n_steps`` (at least 100) steps.
    At 100 to 200 steps the Adams pair is no more accurate than RK4 was
    there; from about 400 steps on its error falls about 60x per
    doubling."""
    if n_steps < 100:
        raise ValueError("n_steps must be at least 100")
    return integrate_gradient(
        index_gradient(delta, p, c), x0, theta0, p.cell_length, n_steps
    )


def exit_angle(trajectory: Trajectory) -> float:
    return float(trajectory.states[-1, 2])


# Exit angles come from Störmer's rule extrapolated in h**2 (see
# exit_angles): MACRO_STEPS equal steps across the cell, each taken with
# 2, 4, ..., 2 * EXTRAPOLATIONS substeps.
MACRO_STEPS = 14
EXTRAPOLATIONS = 7

# An exit angle is certified when the extrapolation's error estimate,
# summed over the macro-steps, is at most this fraction of the largest
# |angle| the ray reaches.  trace_ray at the stock 10k steps is within
# 1.1e-14 of that |angle| of the exact angle on the stock rows, so a
# certified row agrees with it to within about this tolerance.
CERTIFY_TOL = 1e-12

# ray_exits integrates at most this many rows at a time, since
# exit_angles' temporaries grow with its batch.  Rows are independent, so
# the blocks change no bit; a stock sweep's 101 rows are one block.
BLOCK_ROWS = 1024

# A paraxial flag is certified when the largest sampled |angle| lies at
# least this fraction of PARAXIAL_LIMIT away from it: the samples, one per
# substep, can miss the true largest |angle| between them.
FLAG_MARGIN = 0.05


def exit_angles(
    gradient: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, length: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exit angles after ``length`` of rays launched at rest, all rays in
    one batch.

    Ray i starts at x0[i] with angle 0 and obeys x'' = gradient(x).
    ``gradient`` maps positions, an array of shape (B,) or (k, B) whose
    last axis is the rays, to their gradients elementwise.  Returns three
    (B,) arrays: the exit angles, the paraxial flags (|angle| reaches
    PARAXIAL_LIMIT inside the cell) and which rows are certified.  Rejects
    a non-finite x0 and a ``length`` that is not positive and finite.

    The cell is crossed in MACRO_STEPS equal steps.  Each is taken by
    Störmer's rule with 2, 4, ..., 2 * EXTRAPOLATIONS substeps, whose
    error expands in even powers of the substep h, and the results are
    extrapolated to h = 0 by Aitken-Neville (Hairer, Norsett & Wanner,
    Solving ODEs I, section II.14).  The counts run in lockstep, one row
    each of a (EXTRAPOLATIONS, B) array.  The paraxial flag reads the
    largest |angle| sampled at every substep.  A row is certified when the
    last two extrapolations' angles, summed over the macro-steps, differ
    by at most CERTIFY_TOL of that largest |angle| and the flag is clear
    of PARAXIAL_LIMIT by FLAG_MARGIN.  A turning point needs no special
    case, and a ray with g(x0) = 0 stays at rest.  The angle and flag of
    a row that is not certified are not to be used.  A row's result does
    not depend on the other rows.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1:
        raise ValueError("x0 must be a 1-D array, one launch point per ray")
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    if not 0.0 < length < math.inf:
        raise ValueError("length must be positive and finite")
    counts = range(2, 2 * EXTRAPOLATIONS + 1, 2)
    h = float(length) / MACRO_STEPS / np.array(counts)[:, np.newaxis]
    hh, half = h * h, 0.5 * h
    state = np.zeros((2, x0.size))  # displacement from x0 and angle
    peak = error = np.zeros_like(x0)
    # A NaN gradient leaves its row NaN and uncertified, without a warning.
    with np.errstate(all="ignore"):
        for _ in range(MACRO_STEPS):
            # d is the next move, h times the mid-substep angle.  Summing the
            # moves into u rather than x keeps the rounding of x out of it.
            d = h * (state[1] + half * gradient(x0 + state[0]))
            u = np.repeat(state[:1], len(counts), axis=0)
            top = np.abs(d)
            for k in range(1, counts[-1]):
                s = slice(k // 2, None)  # substep k moves the counts above k
                u[s] += d[s]
                d[s] += hh[s] * gradient(x0 + u[s])
                np.maximum(top[s], np.abs(d[s]), out=top[s])
            u += d
            col = np.stack((u, d / h + half * gradient(x0 + u)), axis=1)
            peak = np.maximum(peak, (top / h).max(axis=0))
            # Aitken-Neville by columns; column l's row j extrapolates counts j - l..j.
            for l in range(1, len(counts)):
                ratio = [(n / m) ** 2 - 1.0 for n, m in zip(counts[l:], counts)]
                prev = col
                col = col[1:] + (col[1:] - col[:-1]) / np.array(ratio)[:, None, None]
            error = error + np.abs(col[0, 1] - prev[-1, 1])
            state = col[0]
            peak = np.maximum(peak, np.abs(state[1]))
        certified = (error <= CERTIFY_TOL * peak) & (
            np.abs(peak - PARAXIAL_LIMIT) > FLAG_MARGIN * PARAXIAL_LIMIT
        )
        return state[1], peak >= PARAXIAL_LIMIT, certified


def ray_exits(
    deltas, x0: float, p: MediumParams, c: ControlField
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`exit_angles` for one probe ray per two-photon detuning in
    ``deltas``, each launched at rest from ``x0`` through the cell: the
    exit angles, paraxial flags and certified rows.  The detunings go
    through the array form of :func:`index_gradient` in blocks of at most
    BLOCK_ROWS rows, whose results are concatenated."""
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1:
        raise ValueError("deltas must be a 1-D array, one detuning per ray")
    blocks = [
        exit_angles(index_gradient(d, p, c), np.full(d.shape, float(x0)), p.cell_length)
        for d in np.split(deltas, range(BLOCK_ROWS, deltas.size, BLOCK_ROWS))
    ]
    return tuple(np.concatenate(column) for column in zip(*blocks))


def deflection_estimate(
    delta: float, x0: float, p: MediumParams, c: ControlField
) -> float:
    """Thin-cell deflection angle: gradient at the entry point times length.

    Ignores the ray's transverse walk inside the cell, so it is only an
    order-of-magnitude figure when the deflection is large.
    """
    return p.cell_length * grad_index(delta, x0, p, c)
