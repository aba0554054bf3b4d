"""Reference computations shared by the test modules, each written once:

- detunings (rad/s): ``TWO_PI``, ``sweep_deltas`` and the benchmark
  workloads' ``STOCK_DELTAS``, ``NEAR_DELTAS``, ``IMAGING_HZ`` and
  ``IMAGING_DELTAS``, and ``SCENE_DELTAS``, all 150 of them;
- ``scene_exit``: the stock scene's traced exit angle and paraxial flag,
  cached, so that each ray is traced once per run;
- media: ``vacuum``, a cell without atoms, and ``random_point``, a random
  detuning, coupling and medium;
- rays: ``chain_rule_gradient``, ``exit_angles_per_count`` and the
  extended-precision ``longdouble_gradient`` and
  ``stormer_exits_longdouble``;
- crossings: ``record_crossings``, ``lone_crossing``, ``strang_crossing``
  and ``whole_grid_transmission``;
- ``reference_resolution``, spectral_resolution by doubling and bisection.
"""

import dataclasses
import functools
import math

import numpy as np

from eitprism import default_scene, experiment, waves
from eitprism.config import RunConfig, sweep_bounds
from eitprism.medium import FOUR_PI, MediumParams, eta, index_and_slope, index_profile
from eitprism.rays import (
    CERTIFY_TOL,
    EXTRAPOLATIONS,
    FLAG_MARGIN,
    MACRO_STEPS,
    PARAXIAL_LIMIT,
    exit_angle,
    trace_ray,
)
from eitprism.waves import (
    OPAQUE_LEVEL,
    GuardBandError,
    _check_guard,
    _free_kernel,
    make_gaussian_probe,
    propagate_medium,
    transmission,
)

TWO_PI = 2.0 * math.pi


def sweep_deltas(d_min, d_max, n_points):
    """detuning_sweep's detunings: row i at d_min + i * step, the last row at
    d_max, and the middle row of an odd-length sweep at the midpoint
    d_min + 0.5 * (d_max - d_min)."""
    step = (d_max - d_min) / (n_points - 1)
    deltas = [d_min + i * step for i in range(n_points - 1)] + [d_max]
    if n_points % 2:
        deltas[n_points // 2] = d_min + 0.5 * (d_max - d_min)
    return deltas


# The benchmark's detunings (rad/s): the stock sweep (+-20 MHz, 101 rows),
# the near-resonance sweep (+-400 kHz, 41 rows) and the imaging profile's 8.
STOCK_DELTAS = sweep_deltas(*sweep_bounds(RunConfig()))
NEAR_DELTAS = sweep_deltas(TWO_PI * -4e5, TWO_PI * 4e5, 41)
IMAGING_HZ = [1e4, -1e4, 1e5, -1e5, 2e5, -2e5, 4e5, -4e5]
IMAGING_DELTAS = [TWO_PI * hz for hz in IMAGING_HZ]
SCENE_DELTAS = STOCK_DELTAS + NEAR_DELTAS + IMAGING_DELTAS


@functools.cache
def scene_exit(delta):
    """The stock scene's ray at ``delta`` traced at its ray_steps, as
    (exit angle, paraxial flag): each detuning is traced once per run."""
    sc = default_scene()
    traj = trace_ray(delta, sc.probe.offset, 0.0, sc.medium, sc.control, sc.ray_steps)
    return exit_angle(traj), traj.paraxial_violation


def vacuum(medium):
    """``medium`` with no atoms in the cell."""
    return dataclasses.replace(medium, density=0.0)


def random_point(rng):
    """(delta, omega, medium) drawn over wide ranges of every parameter.
    Omega is tied to gamma (coupling from well below to tens of
    linewidths), which keeps the two forms of chi well conditioned near
    their common zeros."""
    p = MediumParams(
        wavelength=10.0 ** rng.uniform(-4.5, -3.5),
        density=10.0 ** rng.uniform(9.0, 14.0),
        gamma_r=TWO_PI * 10.0 ** rng.uniform(5.0, 8.0),
        gamma=TWO_PI * 10.0 ** rng.uniform(4.0, 9.5),
        gamma_cb=TWO_PI * 10.0 ** rng.uniform(0.0, 6.0),
        cell_length=10.0 ** rng.uniform(-1.0, 1.5),
    )
    omega = 0.0 if rng.uniform() < 0.05 else p.gamma * 10.0 ** rng.uniform(-3.0, 1.5)
    if rng.uniform() < 0.05:
        delta = 0.0
    else:
        delta = rng.choice([-1.0, 1.0]) * TWO_PI * 10.0 ** rng.uniform(0.0, 9.0)
    return delta, omega, p


def chain_rule_gradient(delta, p, c):
    """The gradient closure as the chain rule through n(chi(omega(x))):
    an independent kernel that rounds differently from the closed form."""
    rates = (p.gamma - 1j * delta) * (p.gamma_cb - 1j * delta)
    strength = eta(p) * p.gamma_r * (delta + 1j * p.gamma_cb)
    inv_w2 = 1.0 / (c.waist * c.waist)

    def gradient(x):
        u = x - c.center
        om = c.omega_peak * math.exp(-u * u * inv_w2)
        den = om * om + rates
        chi = strength / den
        n = (1.0 + 4.0 * math.pi * chi) ** 0.5
        dom_dx = -2.0 * u * inv_w2 * om
        return ((2.0 * math.pi / n) * (-2.0 * om * chi / den) * dom_dx).real

    return gradient


def whole_grid_transmission(sc, delta):
    """The transmission of the scene's probe crossing the cell on the
    whole grid, by propagate_medium."""
    probe = make_gaussian_probe(sc.grid, sc.medium.wavelength, sc.probe.waist, sc.probe.offset)
    out = propagate_medium(probe, delta, sc.medium, sc.control, sc.n_slices)
    return transmission(probe, out)


def record_crossings(monkeypatch):
    """Patch the one split-step loop, waves._cross_stack: the returned
    list gets (rows, grid) for each stack crossed, a lone row included."""
    crossings = []
    crossed = waves._cross_stack

    def recorded(field, deltas, *args):
        crossings.append((len(deltas), field.grid))
        return crossed(field, deltas, *args)

    monkeypatch.setattr(waves, "_cross_stack", recorded)
    return crossings


def lone_crossing(field, delta, p, c, n_slices):
    """The crossing of one row by itself, as a plain 1-D loop of Chin's
    4B steps (Phys. Lett. A 226, 344 (1997)) that builds a new array at
    every slice, with the guard check after every slice: (outcome,
    amplitude, z), the outcome "readable", "opaque" or the guard's
    message.  A step of length h = 2 L / n_slices is T(a1 h) S T(a2 h) S
    T(a1 h) with the gradient-corrected screen S; the T(a1 h) of
    neighbouring steps are taken as one T(2 a1 h)."""
    dz = p.cell_length / n_slices
    h = 2.0 * dz
    a1 = (1.0 - 1.0 / math.sqrt(3.0)) / 2.0
    a2 = 1.0 / math.sqrt(3.0)
    weight = (2.0 - math.sqrt(3.0)) / 24.0
    n_x, slope = index_and_slope(delta, field.grid.xs(), p, c)
    screen = np.exp(1j * field.k0 * ((n_x - 1.0) + weight * h * h * slope * slope) * dz)
    outer = _free_kernel(field, a1 * h)
    middle = _free_kernel(field, a2 * h)
    joint = _free_kernel(field, 2.0 * a1 * h)
    floor = OPAQUE_LEVEL * np.abs(field.amplitude).max()
    a = np.fft.ifft(np.fft.fft(field.amplitude) * outer)
    for i in range(n_slices):
        if i % 2 == 0:
            kernel = middle
        elif i < n_slices - 1:
            kernel = joint
        else:
            kernel = outer
        a = np.fft.ifft(np.fft.fft(a * screen) * kernel)
        z = field.z + (i + 1) * dz
        if np.abs(a).max() < floor:
            return "opaque", a, z
        try:
            _check_guard(a, z)
        except GuardBandError as err:
            return str(err), None, z
    return "readable", a, z


def strang_crossing(field, delta, p, c, n_slices):
    """The exit amplitude of one row crossed by the symmetric (Strang)
    split step, second order: a half free step, then ``n_slices`` screens
    exp(i k0 (n - 1) dz) between full free steps, ending with a half free
    step.  No stop and no guard check: a reference for rows that cross
    the whole cell readable."""
    dz = p.cell_length / n_slices
    n_x = index_profile(delta, field.grid.xs(), p, c)
    screen = np.exp(1j * field.k0 * (n_x - 1.0) * dz)
    half, full = _free_kernel(field, 0.5 * dz), _free_kernel(field, dz)
    a = np.fft.ifft(np.fft.fft(field.amplitude) * half)
    for i in range(n_slices):
        a = np.fft.ifft(np.fft.fft(a * screen) * (full if i < n_slices - 1 else half))
    return a


def reference_resolution(scene, cap, rel_tol):
    """spectral_resolution by plain doubling from RESOLUTION_START and
    bisection until the bracket is ``rel_tol`` wide, one Rayleigh test per
    verdict: R from the bracket's top, or NaN when a spot has no power or
    the spots at ``cap`` overlap."""

    def resolved(separation):
        (ratio,) = experiment._spots_resolved(scene, [separation])
        return None if ratio is None else ratio >= 1.0

    lo, hi = 0.0, min(experiment.RESOLUTION_START, cap)
    while True:
        verdict = resolved(hi)
        if verdict:
            break
        if verdict is None or hi >= cap:
            return math.nan
        lo, hi = hi, min(2.0 * hi, cap)
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if resolved(mid):
            hi = mid
        else:
            lo = mid
    return TWO_PI * experiment.C_LIGHT / scene.medium.wavelength / hi


def _stormer(gradient, x0, u, v, g, step, n):
    """Störmer's rule for x'' = gradient(x): ``n`` substeps across ``step``
    from x = x0 + u and angle v, with g = gradient(x).  Returns the end
    state stacked as (u, angle) and the largest |angle| the rule samples,
    one per substep."""
    h = step / n
    d = h * (v + 0.5 * h * g)  # the next move: h times the mid-substep angle
    moves = [d]
    for _ in range(n - 1):
        u = u + d
        d = d + (h * h) * gradient(x0 + u)
        moves.append(d)
    u = u + d
    end = np.stack((u, d / h + 0.5 * h * gradient(x0 + u)))
    return end, np.abs(moves).max(axis=0) / h


def exit_angles_per_count(gradient, x0, length):
    """rays.exit_angles with each substep count run on its own, one after
    another, and the Aitken-Neville tableau built one pair at a time: the
    same floating-point operations, element by element, in the same
    order."""
    x0 = np.asarray(x0, dtype=float)
    counts = range(2, 2 * EXTRAPOLATIONS + 1, 2)
    step = float(length) / MACRO_STEPS
    state = np.zeros((2, x0.size))
    peak = error = np.zeros_like(x0)
    with np.errstate(all="ignore"):
        for _ in range(MACRO_STEPS):
            g = gradient(x0 + state[0])
            row = []
            for j, n in enumerate(counts):
                end, top = _stormer(gradient, x0, *state, g, step, n)
                peak = np.maximum(peak, top)
                below, row = row, [end]
                for lower, m in zip(below, reversed(counts[:j])):
                    row.append(row[-1] + (row[-1] - lower) / ((n / m) ** 2 - 1.0))
            error = error + np.abs(row[-1][1] - row[-2][1])
            state = row[-1]
            peak = np.maximum(peak, np.abs(state[1]))
        certified = (error <= CERTIFY_TOL * peak) & (
            np.abs(peak - PARAXIAL_LIMIT) > FLAG_MARGIN * PARAXIAL_LIMIT
        )
        return state[1], peak >= PARAXIAL_LIMIT, certified


def longdouble_gradient(deltas, media, c):
    """index_gradient's closed form with the x-dependent arithmetic in
    np.longdouble: ray i at two-photon detuning deltas[i] in the medium
    media[i], all under the control field c.  The constants are the
    float64 values index_gradient's scalar form computes, so this is the
    ray equation trace_ray integrates: the exit angle at 5.38 MHz moves
    by 1.3e-13 of its peak when the constants are computed in longdouble
    too.  Returns a function of a longdouble array of positions,
    one per ray."""
    rates, strength = [], []
    for delta, p in zip(deltas, media):
        rates.append((p.gamma - 1j * delta) * (p.gamma_cb - 1j * delta))
        strength.append(eta(p) * p.gamma_r * (delta + 1j * p.gamma_cb))
    rates = np.array(rates, dtype=np.clongdouble)
    four_pi_strength = np.array([FOUR_PI * s for s in strength], dtype=np.clongdouble)
    strength = np.array(strength, dtype=np.clongdouble)
    scale = np.longdouble(2.0 * FOUR_PI / (c.waist * c.waist))
    decay = np.longdouble(-2.0 / (c.waist * c.waist))
    omega_peak2 = np.longdouble(c.omega_peak * c.omega_peak)

    def gradient(x):
        u = x - c.center
        q = omega_peak2 * np.exp(decay * u * u)
        den = q + rates
        root = np.sqrt(1.0 + four_pi_strength / den)
        return scale * u * q * (strength / (den * den * root)).real

    return gradient


def stormer_exits_longdouble(gradient, x0, length, macro_steps=28):
    """Extrapolated Störmer for x'' = gradient(x) in np.longdouble: rays
    launched at rest from the positions x0, one per ray, ``macro_steps``
    steps across ``length``, each step run by Störmer's rule at 2, 4, ...,
    14 substeps and extrapolated to zero substep length by the
    Aitken-Neville tableau in h**2.  Returns the exit angles and the
    largest |angle| of each ray, sampled by the finest count and at the
    end of every step, as longdouble arrays.  ``gradient`` maps a longdouble array of positions
    to their gradients elementwise."""
    x0 = np.asarray(x0, dtype=np.longdouble)
    counts = range(2, 15, 2)
    step = np.longdouble(length) / macro_steps
    state = np.zeros((2, x0.size), dtype=np.longdouble)
    peak = np.zeros_like(x0)
    for _ in range(macro_steps):
        g = gradient(x0 + state[0])
        row = []
        for j, n in enumerate(counts):
            end, top = _stormer(gradient, x0, *state, g, step, n)
            below, row = row, [end]
            for lower, m in zip(below, reversed(counts[:j])):
                ratio = np.longdouble(n * n - m * m) / (m * m)
                row.append(row[-1] + (row[-1] - lower) / ratio)
        state = row[-1]
        peak = np.maximum(np.maximum(peak, top), np.abs(state[1]))
    return state[1], peak
