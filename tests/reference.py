"""Reference computations shared by the test modules."""

import numpy as np

from eitprism.medium import index_profile
from eitprism.rays import (
    CERTIFY_TOL,
    EXTRAPOLATIONS,
    FLAG_MARGIN,
    MACRO_STEPS,
    PARAXIAL_LIMIT,
)
from eitprism.waves import OPAQUE_LEVEL, GuardBandError, _check_guard, _free_kernel


def lone_crossing(field, delta, p, c, n_slices):
    """The crossing of one row by itself, as the plain 1-D split-step
    loop with the guard check after every slice: (outcome, amplitude, z),
    the outcome "readable", "opaque" or the guard's message."""
    dz = p.cell_length / n_slices
    n_x = index_profile(delta, field.grid.xs(), p, c)
    screen = np.exp(1j * field.k0 * (n_x - 1.0) * dz)
    half, full = _free_kernel(field, 0.5 * dz), _free_kernel(field, dz)
    floor = OPAQUE_LEVEL * np.abs(field.amplitude).max()
    a = np.fft.ifft(np.fft.fft(field.amplitude) * half)
    for i in range(n_slices):
        a = np.fft.ifft(np.fft.fft(a * screen) * (full if i < n_slices - 1 else half))
        z = field.z + (i + 1) * dz
        if np.abs(a).max() < floor:
            return "opaque", a, z
        try:
            _check_guard(a, z)
        except GuardBandError as err:
            return str(err), None, z
    return "readable", a, z


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
