"""Wave propagation on a 1-D transverse grid: one field through free
space, or a stack of rows, one per detuning, through the vapor cell.

Fields are sampled complex envelopes E(x) with the carrier exp(i k0 z)
factored out; intensity is |E|^2 and power is the trapezoid-free Riemann
sum sum(|E|^2) * dx.  Free-space steps use the exact angular-spectrum
kernel

    H(kx) = exp(i * (sqrt(k0^2 - kx^2) - k0) * z)

(evanescent components decay), which conserves power to rounding for
propagating spectra.  Propagation through the vapor (d/dz = T + V, with
the free step T and V = i k0 (n(x) - 1)) uses Chin's forward
fourth-order split step "4B" (S. A. Chin, Phys. Lett. A 226, 344
(1997)).  Each of its n_slices / 2 steps, of length h = 2 L / n_slices,
is

    T(a1 h) S T(a2 h) S T(a1 h),   a1 = (1 - 1/sqrt 3) / 2,  a2 = 1/sqrt 3,

where the screen S = exp((h/2) V~) takes the gradient-corrected index
V~ = i k0 [(n - 1) + c h^2 (dn/dx)^2], c = (2 - sqrt 3) / 24: the
correction is the paraxial double commutator [V, [T, V]] = i k0 (dn/dx)^2.
Every substep runs forward, so an absorbing screen never amplifies.  The
two T(a1 h) of neighbouring steps merge, so a crossing is a launch free
step T(a1 h), then n_slices slices of one screen and one free step each:
T(a2 h) and T(2 a1 h) in turn, and T(a1 h) after the last.  Slice i
ends, by convention, at z = (i + 1) L / n_slices.  The medium is
z-uniform so one screen is reused for every slice.  The commutator is
exact only for the paraxial kernel, so against the exact kernel a
residual remains: at the stock 64 slices the wave readouts are within
about 1e-10 (transmission 1e-9) of the converged values on the imaging
detunings, and that residual falls only 3 to 6.5 times per doubling of
n_slices from there.
propagate_stack runs that loop once per stack of at most STACK_SAMPLES
samples: (B, N) rows that share the launch field, each with its own
detuning's screen, with FFTs along the last axis; each row comes out bit
for bit as it would alone.  propagate_medium is its stack of one row.

Aliasing is policed rather than hidden: every propagation step checks that
the outermost 5% of samples on each side stay below 1e-6 of the field's
current peak magnitude and raises GuardBandError otherwise; a non-finite
field fails the check.  The detector readout checks the spectrum the same
way at the Nyquist edge and raises AliasingError.  Diagnostics on fields
with zero power raise ZeroPowerError instead of returning garbage.

A crossing stops a row early, without error, once its field is opaque:
its peak below OPAQUE_LEVEL of the launch peak, a power fraction near
1e-20 and far under the FFT round-off.  That test runs before the guard,
whose reference peak has by then collapsed too.  A row that stops, or
trips the guard, leaves the stack.

far_field_moments reads the detector spot without a far-field grid: under
the exact kernel the centroid moves linearly and the second moment
quadratically with the flight distance, so the exit field's moments give
the spot at any distance from one FFT pair.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .medium import ControlField, MediumParams, index_and_slope

__all__ = [
    "Grid1D",
    "TransverseField",
    "GuardBandError",
    "AliasingError",
    "ZeroPowerError",
    "centered_grid",
    "make_gaussian_probe",
    "gaussian_beam_field",
    "propagate_free",
    "propagate_medium",
    "propagate_stack",
    "check_n_slices",
    "is_opaque",
    "far_field_moments",
    "power",
    "centroid",
    "beam_width",
    "transmission",
]

GUARD_FRACTION = 0.05
GUARD_LEVEL = 1e-6

# Peak amplitude, relative to the launch peak, below which a field is
# opaque (see is_opaque).
OPAQUE_LEVEL = 1e-10

# Chin's 4B coefficients (see the module docstring): the outer and middle
# free substeps of a step, in units of its length h, and the weight of
# the screen's gradient correction.
A1 = (1.0 - 1.0 / math.sqrt(3.0)) / 2.0
A2 = 1.0 / math.sqrt(3.0)
GRADIENT_WEIGHT = (2.0 - math.sqrt(3.0)) / 24.0

# Complex samples in one stack of rows at most (see propagate_stack): 32
# rows of the stock 1024-point probe window, 2 of the 16384-point grid.
STACK_SAMPLES = 2**15


class GuardBandError(RuntimeError):
    """Significant field amplitude reached the edge of the grid."""


class AliasingError(RuntimeError):
    """Significant spectral amplitude reached the Nyquist edge of the grid."""


class ZeroPowerError(RuntimeError):
    """A beam diagnostic was requested for a field with no power."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform transverse grid: n_points samples spaced dx, starting at x0 (cm)."""

    n_points: int
    dx: float
    x0: float

    def __post_init__(self) -> None:
        n = self.n_points
        if not isinstance(n, numbers.Integral):
            raise ValueError("n_points must be an integer")
        if n < 512 or (n & (n - 1)) != 0:
            raise ValueError("n_points must be a power of two, at least 512")
        if not 0.0 < self.dx < math.inf:
            raise ValueError("dx must be positive and finite")
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")

    @property
    def span(self) -> float:
        return self.n_points * self.dx

    @property
    def center(self) -> float:
        return self.x0 + 0.5 * (self.n_points - 1) * self.dx

    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n_points)

    def wavenumbers(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, d=self.dx)


def centered_grid(n_points: int, span: float) -> Grid1D:
    """Grid of given total span (cm), symmetric about x = 0."""
    if not 0.0 < span < math.inf:
        raise ValueError("span must be positive and finite")
    dx = span / n_points
    return Grid1D(n_points=n_points, dx=dx, x0=-0.5 * (n_points - 1) * dx)


@dataclass
class TransverseField:
    grid: Grid1D
    wavelength: float
    amplitude: np.ndarray
    z: float = 0.0

    @property
    def k0(self) -> float:
        return 2.0 * math.pi / self.wavelength


def _check_guard(amplitude: np.ndarray, z: float) -> None:
    """Raise GuardBandError if the outer GUARD_FRACTION of either side of
    |amplitude| reaches GUARD_LEVEL of its peak.  A zero field passes; a
    NaN or infinite peak fails, because the comparison chain is then
    False."""
    a = np.abs(amplitude)
    peak = float(a.max())
    nb = max(1, int(round(GUARD_FRACTION * len(a))))
    edge = float(max(a[:nb].max(), a[-nb:].max()))
    if peak != 0.0 and not edge < GUARD_LEVEL * peak < math.inf:
        raise _guard_error(edge, peak, z)


def _guard_error(edge: float, peak: float, z: float) -> GuardBandError:
    message = f"edge amplitude {edge / peak:.3e} of peak at z={z:g} cm"
    return GuardBandError(message + "; enlarge the grid span")


def make_gaussian_probe(
    grid: Grid1D, wavelength: float, waist: float, offset: float
) -> TransverseField:
    """Unit-power Gaussian probe E ~ exp(-((x - offset)/waist)^2) at z = 0.

    Rejects a wavelength or waist that is not positive and finite, a
    non-finite offset, and grids that undersample the waist (dx >
    waist/16), give it too little room (span < 8*waist), or put the beam
    center outside the middle half of the grid.
    """
    if not (0.0 < wavelength < math.inf and 0.0 < waist < math.inf):
        raise ValueError("wavelength and waist must be positive and finite")
    if not math.isfinite(offset):
        raise ValueError("probe offset must be finite")
    if grid.dx > waist / 16.0:
        raise ValueError("grid too coarse for the probe waist")
    if grid.span < 8.0 * waist:
        raise ValueError("grid span must be at least 8 probe waists")
    if abs(offset - grid.center) > 0.25 * grid.span:
        raise ValueError("probe offset outside the central half of the grid")
    u = (grid.xs() - offset) / waist
    a = np.exp(-u * u).astype(complex)
    a /= math.sqrt(np.sum(np.abs(a) ** 2) * grid.dx)
    _check_guard(a, 0.0)
    return TransverseField(grid=grid, wavelength=wavelength, amplitude=a, z=0.0)


def gaussian_beam_field(
    grid: Grid1D, wavelength: float, waist: float, offset: float, z: float
) -> TransverseField:
    """Closed-form freely propagated Gaussian, for validating the FFT kernel.

    One-dimensional diffraction of the unit-power beam
    E(x, 0) = (2/(pi w0^2))^(1/4) exp(-(x-offset)^2/w0^2):

        E(x, z) = (2/(pi w0^2))^(1/4) (1 + i z/zR)^(-1/2)
                  * exp(-(x-offset)^2 / (w0^2 (1 + i z/zR)))

    with zR = pi w0^2 / wavelength.  Width grows as w0*sqrt(1+(z/zR)^2) and
    the on-axis (Gouy) phase is -arctan(z/zR)/2.
    """
    zr = math.pi * waist * waist / wavelength
    q = 1.0 + 1j * z / zr
    norm = (2.0 / (math.pi * waist * waist)) ** 0.25
    u = grid.xs() - offset
    a = norm / np.sqrt(q) * np.exp(-u * u / (waist * waist * q))
    return TransverseField(grid=grid, wavelength=wavelength, amplitude=a, z=z)


def _free_kernel(field: TransverseField, distance: float) -> np.ndarray:
    kx = field.grid.wavenumbers()
    k0 = field.k0
    kz = np.sqrt(k0 * k0 - kx * kx + 0j)
    return np.exp(1j * (kz - k0) * distance)


def propagate_free(field: TransverseField, distance: float) -> TransverseField:
    """Propagate through vacuum by ``distance`` (cm, non-negative)."""
    if not 0.0 <= distance < math.inf:
        raise ValueError("distance must be non-negative and finite")
    if distance == 0.0:
        return replace(field, amplitude=field.amplitude.copy())
    a = np.fft.ifft(np.fft.fft(field.amplitude) * _free_kernel(field, distance))
    z = field.z + distance
    _check_guard(a, z)
    return replace(field, amplitude=a, z=z)


def propagate_medium(
    field: TransverseField,
    delta: float,
    p: MediumParams,
    c: ControlField,
    n_slices: int,
) -> TransverseField:
    """Propagate through the vapor cell at two-photon detuning ``delta``.

    The crossing of propagate_stack for a stack of one row: Chin's
    fourth-order 4B split step in ``n_slices`` slices (even, at least 50;
    see the module docstring), slice i ending at z = (i + 1) L / n_slices.
    The guard band is checked after every slice, and a trip raises
    GuardBandError.  The propagation ends, before that check, after the
    first slice whose field is opaque (see is_opaque), and returns the
    field at that plane, whose ``z`` then lies inside the cell.
    """
    (out,) = propagate_stack(field, [delta], p, c, n_slices)
    if isinstance(out, GuardBandError):
        raise out
    return out


def check_n_slices(n_slices: int) -> None:
    """Reject a slice count the crossing cannot run: one that is not an
    integer, and, since the 4B steps take slices in pairs, an odd one or
    fewer than 50."""
    if not isinstance(n_slices, numbers.Integral):
        raise ValueError("n_slices must be an integer")
    if n_slices < 50 or n_slices % 2:
        raise ValueError("n_slices must be even and at least 50")


def propagate_stack(
    field: TransverseField,
    deltas: Sequence[float],
    p: MediumParams,
    c: ControlField,
    n_slices: int,
) -> Iterator[TransverseField | GuardBandError]:
    """Cross the vapor cell with ``field`` at each two-photon detuning in
    ``deltas``: one split-step loop over a (B, N) stack of rows that share
    the launch field and its grid, per stack of at most STACK_SAMPLES
    samples.

    The loop is Chin's fourth-order 4B scheme (see the module docstring):
    a launch free step T(a1 h) shared by every row, then ``n_slices``
    slices (even, at least 50: see check_n_slices) of one screen and one
    free step each, with h = 2 L / n_slices.  Slice i ends, by
    convention, at z = (i + 1) L / n_slices, the plane a row that stops
    there reports.  Each row has its own gradient-corrected screen, from
    one index_and_slope per detuning; the index does not vary along z, so
    a screen serves every slice.  The three free-space kernels are
    computed once for the stack, and the FFTs run along the last axis: a
    crossing makes 2 (n_slices + 1) FFT calls.  Against the exact kernel
    the scheme keeps a residual of about 1e-10 of each wave readout at
    the stock 64 slices (see the module docstring).  After every slice
    each row is checked as a lone crossing would be: a row whose field is
    opaque (see is_opaque) stops at that plane, before the guard check,
    and a row that fails the guard band stops with a GuardBandError.  A
    row that stops leaves the stack.

    Yields, in the order of ``deltas``, each row's exit field, whose
    ``z`` lies inside the cell when it stopped opaque, or its
    GuardBandError.  A row equals the same row crossed alone, bit for
    bit.  A stack's rows are all yielded before the next stack is built,
    so a caller that drops each exit field holds at most one stack.
    Rejects a launch field with no power, on which no row could stop
    opaque.
    """
    if not all(math.isfinite(delta) for delta in deltas):
        raise ValueError("delta must be finite")
    check_n_slices(n_slices)
    if field.wavelength != p.wavelength:
        raise ValueError("field and medium wavelengths disagree")
    if OPAQUE_LEVEL * np.abs(field.amplitude).max() == 0.0:
        raise ValueError("launch field has no power")
    size = max(1, STACK_SAMPLES // field.grid.n_points)
    for k in range(0, len(deltas), size):
        yield from _cross_stack(field, deltas[k : k + size], p, c, n_slices)


def _screens(
    field: TransverseField,
    deltas: Sequence[float],
    p: MediumParams,
    c: ControlField,
    n_slices: int,
) -> np.ndarray:
    """The (B, N) screens exp((h/2) V~) of ``deltas``' rows on ``field``'s
    grid, h = 2 L / n_slices, with the gradient-corrected index of the
    module docstring."""
    dz = p.cell_length / n_slices
    h = 2.0 * dz
    xs = field.grid.xs()
    screens = np.empty((len(deltas), field.grid.n_points), dtype=complex)
    for screen, delta in zip(screens, deltas):
        n_x, slope = index_and_slope(delta, xs, p, c)
        index = (n_x - 1.0) + GRADIENT_WEIGHT * h * h * slope * slope
        np.exp(1j * field.k0 * index * dz, out=screen)
    return screens


def _cross_stack(
    field: TransverseField,
    deltas: Sequence[float],
    p: MediumParams,
    c: ControlField,
    n_slices: int,
) -> list[TransverseField | GuardBandError]:
    """One stack of propagate_stack: the outcomes of ``deltas``' rows."""
    dz = p.cell_length / n_slices  # one slice; a 4B step spans two
    h = 2.0 * dz
    screens = _screens(field, deltas, p, c, n_slices)
    edge = _free_kernel(field, A1 * h)
    # The free step after slice i: T(a2 h) inside a 4B step, T(2 a1 h)
    # where two steps meet, and T(a1 h) after the last slice.
    kernels = [_free_kernel(field, A2 * h), _free_kernel(field, 2.0 * A1 * h)]
    floor = float(OPAQUE_LEVEL * np.abs(field.amplitude).max())
    nb = max(1, int(round(GUARD_FRACTION * field.grid.n_points)))
    bands = [0, nb, field.grid.n_points - nb]
    # The launch step is the same for every row.  The stack is then
    # updated in place (``out=`` needs numpy >= 2.0); the caller's
    # amplitude is never written.
    launch = np.fft.fft(np.asarray(field.amplitude, dtype=complex))
    launch *= edge
    np.fft.ifft(launch, out=launch)
    a = np.repeat(launch[np.newaxis], len(deltas), axis=0)
    rows = np.arange(len(deltas))  # the index in ``deltas`` of each stack row
    outs: list = [None] * len(deltas)
    for i in range(n_slices):
        a *= screens
        np.fft.fft(a, axis=-1, out=a)
        a *= kernels[i % 2] if i < n_slices - 1 else edge
        np.fft.ifft(a, axis=-1, out=a)
        # The maxima of |a| over each row's left guard band, middle and
        # right guard band.  A row whose middle maximum is finite, at least
        # the opaque floor and above both bands' maxima by 1 / GUARD_LEVEL
        # can neither stop opaque nor fail _check_guard.  The rest stop:
        # opaque, before the guard check, when each of the three maxima is
        # below the floor (a NaN one is not), and otherwise on the guard,
        # whose peak is then NaN, a band's maximum or a middle one at or
        # over the floor that fails the test.
        maxima = np.maximum.reduceat(np.abs(a), bands, axis=1).tolist()
        z = field.z + (i + 1) * dz
        for j in reversed(range(len(rows))):
            left, mid, right = maxima[j]
            if floor <= mid and max(left, right) < GUARD_LEVEL * mid < math.inf:
                continue
            if left < floor and mid < floor and right < floor:
                outs[rows[j]] = TransverseField(
                    field.grid, field.wavelength, a[j].copy(), z
                )
            else:
                peak = float(np.max(maxima[j]))
                outs[rows[j]] = _guard_error(max(left, right), peak, z)
            # The row leaves: the last row takes its place, in place, so the
            # stack never needs a second copy of itself.
            last = len(rows) - 1
            a[j], screens[j], rows[j] = a[last], screens[last], rows[last]
            a, screens, rows = a[:last], screens[:last], rows[:last]
        if not len(rows):
            return outs
    z = field.z + n_slices * dz
    for j, row in enumerate(rows):
        outs[row] = TransverseField(field.grid, field.wavelength, a[j], z)
    return outs


def is_opaque(launch: TransverseField, field: TransverseField) -> bool:
    """Whether ``field``'s peak |amplitude| is below OPAQUE_LEVEL of
    ``launch``'s: the test on which propagate_medium stops.  The medium
    only absorbs, so the power left in an opaque field bounds the cell's
    transmission from above."""
    floor = OPAQUE_LEVEL * np.abs(launch.amplitude).max()
    return bool(np.abs(field.amplitude).max() < floor)


def _moments(x: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Mean and variance of ``x`` under the non-negative weights ``w``,
    whose sum must be positive."""
    total = w.sum()
    # Reductions rather than np.dot: a BLAS dot on the grid wakes OpenBLAS
    # worker threads that keep spinning after it returns.
    mean = np.sum(x * w) / total
    return mean, np.sum((x - mean) ** 2 * w) / total


def far_field_moments(
    field: TransverseField, distance: float
) -> tuple[float, float, float]:
    """Spot centroid and width (cm) after free flight over ``distance``
    (cm), and the pointing angle, read from ``field``'s moments.

    Under the exact angular-spectrum kernel the position of a field that
    flies a distance L is x + L s, with s = kx/kz (Siegman's second-moment
    law, ISO 11146, which holds for the non-paraxial kernel too).  So the
    spot centroid is <x> + L <s>, its variance is
    Var x + 2 L Cov(x, s) + L^2 Var s with Cov(x, s) = Re<(x - <x>) a,
    (S - <s>) a> / P, where S a = ifft(s fft(a)), and the width is twice
    its square root, as in beam_width.  The angle is <s>.  Evanescent bins
    (|kx| >= k0) never reach the detector and are dropped first.  This
    takes one FFT and one (two-row) inverse FFT at any distance, and the
    grid only has to hold ``field``, not the spot at the detector.

    Raises AliasingError when the outer GUARD_FRACTION of |kx| reaches
    GUARD_LEVEL of the peak of the propagating spectrum (on a grid so fine
    that those bins are evanescent, every angle is representable), and
    ZeroPowerError when no propagating power is left.
    """
    if not 0.0 <= distance < math.inf:
        raise ValueError("distance must be non-negative and finite")
    kx = field.grid.wavenumbers()
    k0 = field.k0
    spectrum = np.fft.fft(field.amplitude)
    spectrum[np.abs(kx) >= k0] = 0.0
    mag = np.abs(spectrum)
    peak = float(mag.max())
    if peak == 0.0:
        raise ZeroPowerError("no propagating power")
    edge = float(mag[np.abs(kx) >= (1.0 - GUARD_FRACTION) * np.abs(kx).max()].max())
    if not edge < GUARD_LEVEL * peak < math.inf:
        raise AliasingError(
            f"spectral amplitude {edge / peak:.3e} of peak at the Nyquist edge; "
            "refine the grid spacing"
        )
    kz = np.sqrt(np.maximum(k0 * k0 - kx * kx, 0.0))
    s = np.divide(kx, kz, out=np.zeros_like(kx), where=kz > 0.0)
    s_mean, s_var = _moments(s, mag * mag)
    # The propagating part of the field, and (S - <s>) applied to it.
    a, sa = np.fft.ifft(np.stack([spectrum, (s - s_mean) * spectrum]))
    intensity = np.abs(a) ** 2
    xs = field.grid.xs()
    x_mean, x_var = _moments(xs, intensity)
    cov = np.sum(np.conj((xs - x_mean) * a) * sa).real / intensity.sum()
    var = x_var + 2.0 * distance * cov + distance * distance * s_var
    return (
        float(x_mean + distance * s_mean),
        float(2.0 * math.sqrt(var)),
        float(s_mean),
    )


def power(field: TransverseField) -> float:
    return float(np.sum(np.abs(field.amplitude) ** 2) * field.grid.dx)


def centroid(field: TransverseField) -> float:
    """Intensity-weighted mean transverse position (cm)."""
    w = np.abs(field.amplitude) ** 2
    if w.sum() == 0.0:
        raise ZeroPowerError("centroid of a zero-power field")
    return float(_moments(field.grid.xs(), w)[0])


def beam_width(field: TransverseField) -> float:
    """Twice the intensity-weighted standard deviation (cm).

    For a Gaussian intensity exp(-2 x^2 / w^2) this equals the field
    1/e^2-intensity radius w.
    """
    w = np.abs(field.amplitude) ** 2
    if w.sum() == 0.0:
        raise ZeroPowerError("width of a zero-power field")
    return float(2.0 * math.sqrt(_moments(field.grid.xs(), w)[1]))


def transmission(field_in: TransverseField, field_out: TransverseField) -> float:
    """Power ratio out/in."""
    p_in = power(field_in)
    if p_in == 0.0:
        raise ZeroPowerError("transmission with zero input power")
    return power(field_out) / p_in
