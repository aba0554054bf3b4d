"""Paraxial ray tracing through a transverse refractive-index gradient.

In the paraxial limit a ray with transverse position x(z) and slope
theta(z) = dx/dz obeys

    d(theta)/dz = d(Re n)/dx

evaluated at the current x.  The medium is uniform along z, so the only
z-dependence enters through the ray's own motion.  trace_ray integrates
this with classical RK4 at a fixed step; for the step counts used here
the global error is far below the quantities being compared (see the
step-halving test).  A trajectory is one float64 array of shape
(n_steps + 1, 3) whose rows are (z, x, angle), launch state first.

Because the medium is uniform along z, a ray also conserves
H = theta**2 / 2 - dN(x), where dN(x) is the rise of Re n from the launch
point to x (Landau & Lifshitz, Mechanics, section 11).  A ray launched
at rest therefore has theta**2 = 2 dN(x) and reaches x after
z(x) = integral of dx' / sqrt(2 dN(x')).  exit_angles reads a batch of
rays' exit angles from these two quadratures and a root-find instead of
integrating step by step; a sweep takes its angles that way (ray_exits)
and falls back to trace_ray only for a row it cannot certify.
"""

from __future__ import annotations

import functools
import math
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


def _rk4_steps(gradient, x: float, v: float, length: float, n_steps: int):
    """The RK4 loop: an iterator over the state (x, angle) after each of
    the ``n_steps`` steps of x'' = gradient(x) over [0, length].

    Rejects a ``length`` that is not positive and finite, a non-finite
    launch and fewer than one step here, before any step is taken.
    """
    if not 0.0 < length < math.inf:
        raise ValueError("length must be positive and finite")
    if not (math.isfinite(x) and math.isfinite(v)):
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


# The energy integral's quadratures (see exit_angles).  The z integral
# along a leg takes LEG_NODES Gauss-Legendre nodes and is checked against
# CHECK_NODES of them; the rise of Re n is summed over one panel of
# PANEL_NODES Gauss-Legendre nodes between consecutive points; a
# half-period takes PERIOD_NODES Gauss-Chebyshev nodes (an even number)
# and is checked against CHECK_NODES of them.
LEG_NODES = 32
CHECK_NODES = 40
PANEL_NODES = 8
PERIOD_NODES = 24

# Newton steps allowed per root-find, and the relative step that ends one.
NEWTON_STEPS = 60
NEWTON_TOL = 1e-13

# An exit angle is certified when the two rules agree to within this
# fraction of the largest |angle| the ray reaches.  RK4 at the stock 10k
# steps is within 3.5e-12 of the exact angle on the hardest stock rows.
CERTIFY_TOL = 1e-12

# A paraxial flag is certified when the largest sampled |angle| lies at
# least this fraction of PARAXIAL_LIMIT away from it: the samples can miss
# the true largest |angle| by about 1 % (Chebyshev nodes on a half-period).
FLAG_MARGIN = 0.05


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_(n-1)(x) and P_n(x), by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p_prev, p


@functools.cache
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes of order n on [0, 1], ascending, with the end
    point 1 appended, and their weights (which sum to 1).  Newton's method
    on P_n: numpy.polynomial would add about 1 MB to the process for the
    same numbers."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p_prev, p = _legendre_pair(n, x)
        step = p * (x * x - 1.0) / (n * (x * p - p_prev))
        x = x - step
        if np.abs(step).max() <= 4e-16:
            break
    p_prev, p = _legendre_pair(n, x)
    slope = n * (x * p - p_prev) / (x * x - 1.0)
    weights = 1.0 / ((1.0 - x * x) * slope * slope)
    return _read_only(np.append(0.5 * (x + 1.0), 1.0), weights)


@functools.cache
def _chebyshev(n: int) -> np.ndarray:
    """The n/2 positive Gauss-Chebyshev nodes of order n (even), ascending."""
    return _read_only(np.cos(np.arange(n - 1, 0, -2) * (np.pi / (2 * n))))[0]


def _rise(gradient, a, sign, t, start=0.0):
    """dN(a + sign*t**2), the rise of Re n from ``a``, at the ascending
    points ``t`` (shape (P, B), one column per ray), summed panel by panel
    from t = ``start``.  In t the integrand is 2*sign*t*gradient(x): the
    substitution x = a + sign*t**2 keeps it smooth at the launch point."""
    nodes, weights = _legendre(PANEL_NODES)
    lo = np.concatenate((np.broadcast_to(start, t[:1].shape), t[:-1]))
    width = t - lo
    # One gradient call per panel node keeps its temporaries to (P, B).
    total = np.zeros_like(width)
    for node, weight in zip(nodes[:-1], weights):
        u = lo + width * node
        total += weight * u * gradient(a + sign * u * u)
    return (2.0 * sign) * np.cumsum(width * total, axis=0)


def _leg(gradient, a, sign, t, n: int):
    """A ray launched at rest from ``a`` towards ``sign``, up to
    x = a + sign*t**2: the points t*node of the n-node Gauss-Legendre rule
    on [0, t] and t itself (shape (n + 1, B)), the rise at each, and the
    distance z(t) the ray travels, by that rule.  With dN ~ t**2 near the
    launch, the integrand dz/dt = 2t / sqrt(2 dN) is smooth there."""
    nodes, weights = _legendre(n)
    points = t * nodes[:, None]
    rise = _rise(gradient, a, sign, points)
    dz = points[:-1] * np.sqrt(2.0 / rise[:-1])
    return points, rise, t * (weights[:, None] * dz).sum(axis=0)


def _solve_leg(gradient, a, sign, target, t, hi, active):
    """Newton-bisection for the t in [0, ``hi``] at which a ray launched at
    rest from ``a`` has travelled ``target``, for the ``active`` rows; ``t``
    is the first guess and ``hi`` may be inf.

    Returns (t, converged, turned, bracket).  A row is ``turned`` when the
    rise fell to zero or below at a point before t, so the ray turns
    before that point; ``bracket`` holds, for those rows, the last point
    with a positive rise, the first point after it without, and the rise
    at the former.
    """
    lo = np.zeros_like(t)
    done = ~active
    turned = np.zeros_like(done)
    bracket = (lo, lo, lo)
    for _ in range(NEWTON_STEPS):
        points, rise, z = _leg(gradient, a, sign, t, LEG_NODES)
        ok = (rise > 0.0).all(axis=0)
        new = ~(ok | done | turned)
        if new.any():
            first = (rise > 0.0).argmin(axis=0)
            before = np.maximum(first - 1, 0)
            cols = np.arange(t.size)
            edge = np.where(first > 0, 1.0, 0.0)
            found = (
                edge * points[before, cols],
                points[first, cols],
                edge * rise[before, cols],
            )
            bracket = tuple(np.where(new, f, b) for f, b in zip(found, bracket))
            turned |= new
        hi = np.where(~ok | (z > target), np.minimum(hi, t), hi)
        lo = np.where(ok & (z <= target), np.maximum(lo, t), lo)
        step = (z - target) * np.sqrt(0.5 * rise[-1]) / t
        newton = t - step
        inside = ok & (lo <= newton) & (newton <= hi)
        guess = np.where(hi < np.inf, 0.5 * (lo + hi), 2.0 * t)
        t = np.where(done | turned, t, np.where(inside, newton, guess))
        done |= inside & (np.abs(step) <= NEWTON_TOL * t)
        if (done | turned).all():
            break
    return t, done & active & ~turned, turned, bracket


def _exit(gradient, a, sign, t, target):
    """|angle| at x = a + sign*t**2 of a ray launched at rest from ``a``;
    the largest |angle| at the leg's points; an error estimate, the
    change of the |angle| under the CHECK_NODES rule plus its z mismatch
    times the gradient at x; and whether the rise is positive at every
    point of both rules."""
    _, rise, _ = _leg(gradient, a, sign, t, LEG_NODES)
    _, check, z_check = _leg(gradient, a, sign, t, CHECK_NODES)
    angle = np.sqrt(2.0 * rise[-1])
    error = np.abs(np.sqrt(2.0 * check[-1]) - angle) + np.abs(
        gradient(a + sign * t * t) * (z_check - target)
    )
    positive = (rise > 0.0).all(axis=0) & (check > 0.0).all(axis=0)
    return angle, np.sqrt(2.0 * rise.max(axis=0)), error, positive


def _turning_point(gradient, x0, sign, bracket, active):
    """s1 with x1 = x0 + sign*s1**2 the first turning point, where the rise
    falls through zero inside ``bracket`` (from _solve_leg), by
    Newton-bisection; the rise at s is the bracket's plus one panel from
    its lower end.  Returns (s1, converged)."""
    start, hi, base = bracket
    lo = start
    s = 0.5 * (lo + hi)
    done = ~active
    for _ in range(NEWTON_STEPS):
        rise = base + _rise(gradient, x0, sign, s[None], start)[0]
        slope = 2.0 * sign * s * gradient(x0 + sign * s * s)
        lo = np.where(rise > 0.0, s, lo)
        hi = np.where(rise > 0.0, hi, s)
        step = rise / slope
        newton = s - step
        inside = (slope < 0.0) & (lo <= newton) & (newton <= hi)
        s = np.where(done, s, np.where(inside, newton, 0.5 * (lo + hi)))
        done |= inside & (np.abs(step) <= NEWTON_TOL * s)
        if done.all():
            break
    return s, done & active


def _half_period(gradient, x0, sign, s1, n: int):
    """Half the period of a ray between its turning points x0 and
    x0 + sign*s1**2, by n-node Gauss-Chebyshev quadrature, with its nodes
    and the rise at each.  The rise has a simple zero at both ends, so with
    t = s1*y the integrand of the half-period is smooth over the weight
    1/sqrt(1 - y**2)."""
    y = _chebyshev(n)[:, None]
    points = s1 * y
    rise = _rise(gradient, x0, sign, points)
    terms = points * np.sqrt(2.0 * (1.0 - y * y) / rise)
    return (np.pi / n) * s1 * terms.sum(axis=0), points, rise


def _leg_of(length, half):
    """Where a ray that oscillates between x0 and x1 with half-period
    ``half`` is after ``length``: whether it is moving away from x0,
    whether x0 is the nearer turning point in travel, and the distance
    travelled from the nearer one."""
    r = np.fmod(length, 2.0 * half)
    outward = r <= half
    from_x0 = np.where(outward, r, 2.0 * half - r)
    near_x0 = from_x0 <= 0.5 * half
    return outward, near_x0, np.where(near_x0, from_x0, half - from_x0)


def exit_angles(
    gradient: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, length: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exit angles after ``length`` of rays launched at rest, from the
    energy integral instead of step-by-step integration.

    Ray i starts at x0[i] with angle 0 and obeys x'' = gradient(x).
    ``gradient`` maps an array of positions whose last axis runs over the
    rays (shape (..., B)) to their gradients elementwise.  Returns three
    (B,) arrays: the exit angles, the paraxial flags (|angle| reaches
    PARAXIAL_LIMIT inside the cell) and which rows are certified.  Rejects
    a non-finite x0 and a ``length`` that is not positive and finite.

    A ray launched at rest conserves angle**2 / 2 - dN(x), where dN is the
    rise of Re n from x0, so it moves towards sign g(x0) with
    angle**2 = 2 dN(x) and z(x) = integral of dx / sqrt(2 dN).  With
    x = x0 + sign*t**2, Gauss-Legendre quadrature gives dN and z(t) and
    Newton's method on t finds the exit, z(t) = length.  A rise that falls
    to zero is a turning point x1: the ray then oscillates between x0 and
    x1, its half-period comes from Gauss-Chebyshev quadrature, and the
    exit lies on the leg that ``length`` modulo the period picks, solved
    from the turning point nearer in travel.  The paraxial flag reads the
    largest |angle| sampled over the part of the cell the ray visits.  A
    ray with g(x0) = 0 stays at rest.

    A row is certified when its root-finds converge, the rise is positive
    on the way, a second rule with more nodes agrees within CERTIFY_TOL
    and the flag is clear of PARAXIAL_LIMIT by FLAG_MARGIN.  The angle and
    flag of a row that is not certified are not to be used.  A row's
    result does not depend on the other rows.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1:
        raise ValueError("x0 must be a 1-D array, one launch point per ray")
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    if not 0.0 < length < math.inf:
        raise ValueError("length must be positive and finite")
    # A row at rest or with a NaN gradient divides by zero or NaN on the
    # way; the former is overwritten, the latter left uncertified.
    with np.errstate(all="ignore"):
        return _exit_angles(gradient, x0, float(length))


def _exit_angles(gradient, x0, length):
    g0 = gradient(x0)
    sign = np.where(g0 < 0.0, -1.0, 1.0)
    moving = g0 != 0.0
    # first guess: the thin-cell walk |x - x0| = |g0| * length**2 / 2
    guess = length * np.sqrt(0.5 * np.abs(g0))
    target = np.full_like(x0, length)
    t, converged, turned, bracket = _solve_leg(
        gradient, x0, sign, target, guess, np.full_like(x0, np.inf), moving
    )
    angle, peak, error, positive = _exit(gradient, x0, sign, t, target)
    theta = sign * angle
    certified = converged & positive & (error <= CERTIFY_TOL * peak)
    if turned.any():
        turning = _turning_exits(gradient, x0, sign, length, bracket, turned)
        theta, peak, certified = (
            np.where(turned, a, b) for a, b in zip(turning, (theta, peak, certified))
        )
    certified &= np.abs(peak - PARAXIAL_LIMIT) > FLAG_MARGIN * PARAXIAL_LIMIT
    return (
        np.where(moving, theta, 0.0),
        moving & (peak >= PARAXIAL_LIMIT),
        certified | ~moving,
    )


def _turning_exits(gradient, x0, sign, length, bracket, turned):
    """The exit angle, largest sampled |angle| and certificate of the
    ``turned`` rays, which oscillate between x0 and a turning point x1
    inside ``bracket`` (from _solve_leg)."""
    s1, found = _turning_point(gradient, x0, sign, bracket, turned)
    half, nodes, rise = _half_period(gradient, x0, sign, s1, PERIOD_NODES)
    half_check = _half_period(gradient, x0, sign, s1, CHECK_NODES)[0]
    outward, near_x0, travel = _leg_of(length, half)
    a = np.where(near_x0, x0, x0 + sign * s1 * s1)
    a_sign = np.where(near_x0, sign, -sign)
    guess = np.minimum(travel * np.sqrt(0.5 * np.abs(gradient(a))), 0.5 * s1)
    v, converged, _, _ = _solve_leg(
        gradient, a, a_sign, travel, guess, s1, turned & found
    )
    angle, peak_leg, error, positive = _exit(gradient, a, a_sign, v, travel)
    # The distance to travel holds the half-period this many times (0 on
    # the way out to x1, when it is length itself); twice that bounds the
    # exit's move along the orbit, a wrong leg included.
    count = 2.0 * np.floor(length / (2.0 * half)) + np.where(
        near_x0, np.where(outward, 0.0, 2.0), 1.0
    )
    error += 2.0 * count * np.abs(gradient(a + a_sign * v * v) * (half_check - half))
    # Visited: all of [x0, x1] once the ray has turned, else [x0, exit].
    turned_once = length >= half
    reach = np.where(turned_once, s1, np.where(near_x0, v, np.sqrt(s1 * s1 - v * v)))
    peak = np.maximum(
        np.sqrt(2.0 * np.where(nodes <= reach, rise, 0.0).max(axis=0)),
        np.where(near_x0 | turned_once, peak_leg, angle),
    )
    certified = (
        found
        & converged
        & positive
        & (rise > 0.0).all(axis=0)
        & (error <= CERTIFY_TOL * peak)
    )
    return np.where(outward, sign, -sign) * angle, peak, certified


def ray_exits(
    deltas, x0: float, p: MediumParams, c: ControlField
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`exit_angles` for one probe ray per two-photon detuning in
    ``deltas``, each launched at rest from ``x0`` through the cell: the
    exit angles, paraxial flags and certified rows.  All detunings go
    through the array form of :func:`index_gradient`."""
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1:
        raise ValueError("deltas must be a 1-D array, one detuning per ray")
    return exit_angles(
        index_gradient(deltas, p, c), np.full(deltas.shape, float(x0)), p.cell_length
    )


def deflection_estimate(
    delta: float, x0: float, p: MediumParams, c: ControlField
) -> float:
    """Thin-cell deflection angle: gradient at the entry point times length.

    Ignores the ray's transverse walk inside the cell, so it is only an
    order-of-magnitude figure when the deflection is large.
    """
    return p.cell_length * grad_index(delta, x0, p, c)
