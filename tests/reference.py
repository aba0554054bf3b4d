"""Reference computations shared by the test modules."""

import numpy as np

from eitprism.medium import index_profile
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
