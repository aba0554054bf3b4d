"""Experiment harness: scenes, single points, sweeps, derived figures."""

import dataclasses
import math
import tracemalloc
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from eitprism.medium import ControlField, MediumParams, rabi_at
from eitprism.waves import (
    Grid1D,
    GuardBandError,
    beam_width,
    centered_grid,
    centroid,
    far_field_moments,
    make_gaussian_probe,
    propagate_free,
    propagate_medium,
    propagate_stack,
    transmission,
)
from eitprism import default_scene, experiment, waves
from eitprism.experiment import (
    C_LIGHT,
    ProbeSpec,
    Scene,
    angular_dispersion,
    detuning_sweep,
    estimate_parameters,
    run_point,
    spectral_resolution,
    sweep_detunings,
)
from reference import lone_crossing

TWO_PI = 2.0 * math.pi

# The ray the summary's pairs give their rows: none traced.
NO_RAY = (math.nan, False)

DATA = Path(__file__).parent / "data"

# The detunings of the stock sweep (+-20 MHz, 101 rows) and of the
# near-resonance sweep (+-400 kHz, 41 rows), as detuning_sweep spaces them.
STOCK_DELTAS = [-TWO_PI * 2e7 + i * (TWO_PI * 4e7 / 100) for i in range(101)]
NEAR_DELTAS = [-TWO_PI * 4e5 + i * (TWO_PI * 8e5 / 40) for i in range(41)]


def vacuum_scene(base=None, grid=None):
    sc = base or default_scene()
    empty = dataclasses.replace(sc.medium, density=0.0)
    if grid is not None:
        sc = dataclasses.replace(sc, grid=grid)
    return dataclasses.replace(sc, medium=empty)


def test_default_scene_values():
    sc = default_scene()
    assert sc.medium.wavelength == pytest.approx(7.95e-5, rel=1e-12)
    assert sc.medium.density == 3e11
    assert sc.medium.cell_length == pytest.approx(7.5, rel=1e-12)
    assert sc.medium.gamma == pytest.approx(TWO_PI * 1.5e6, rel=1e-12)
    assert sc.medium.gamma_cb == pytest.approx(TWO_PI * 1e3, rel=1e-12)
    assert sc.control.omega_peak == pytest.approx(TWO_PI * 1e7, rel=1e-12)
    assert sc.control.waist == pytest.approx(3.6, rel=1e-12)
    # probe rides the steepest point of the control profile
    assert sc.probe.offset == pytest.approx(sc.control.waist / math.sqrt(2.0), rel=1e-12)
    assert sc.probe.waist == pytest.approx(0.07 / math.sqrt(2.0 * math.log(2.0)), rel=1e-12)
    assert sc.detector_distance == pytest.approx(230.0, rel=1e-12)
    assert sc.grid.n_points == 16_384
    assert sc.grid.span == pytest.approx(12.8, rel=1e-12)
    assert default_scene() == default_scene()


def test_estimate_parameters_values():
    medium, control, delta, offset = estimate_parameters()
    assert medium.density == 1e13
    assert medium.cell_length == 10.0
    assert medium.gamma == pytest.approx(TWO_PI * 300e6, rel=1e-12)
    assert control.omega_peak == pytest.approx(TWO_PI * 1e6, rel=1e-12)
    assert delta == pytest.approx(TWO_PI * 1e3, rel=1e-12)
    assert offset == pytest.approx(control.waist / math.sqrt(2.0), rel=1e-12)


def test_scene_validation():
    sc = default_scene()
    with pytest.raises(ValueError):
        dataclasses.replace(sc, detector_distance=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(sc, n_slices=10)
    with pytest.raises(ValueError):
        dataclasses.replace(sc, ray_steps=10)
    with pytest.raises(ValueError):
        dataclasses.replace(sc, probe=ProbeSpec(waist=0.06, offset=3.0 * sc.control.waist))
    for waist, offset in ((0.0, 0.0), (math.inf, 0.0), (math.nan, 0.0), (0.06, math.nan)):
        with pytest.raises(ValueError):
            ProbeSpec(waist=waist, offset=offset)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: dataclasses.replace(default_scene(), detector_distance=v),
        lambda v: Grid1D(1024, v, 0.0),
        lambda v: Grid1D(1024, 1e-3, v),
        lambda v: centered_grid(1024, v),
        lambda v: dataclasses.replace(default_scene().medium, wavelength=v),
        lambda v: dataclasses.replace(default_scene().medium, density=v),
        lambda v: dataclasses.replace(default_scene().medium, gamma=v),
        lambda v: dataclasses.replace(default_scene().medium, cell_length=v),
        lambda v: ControlField(v, 3.6, 0.0),
        lambda v: ControlField(TWO_PI * 1e7, v, 0.0),
        lambda v: ControlField(TWO_PI * 1e7, 3.6, v),
        lambda v: propagate_free(experiment.launch_probe(default_scene()), v),
        lambda v: far_field_moments(experiment.launch_probe(default_scene()), v),
    ],
    ids=[
        "detector_distance",
        "grid_dx",
        "grid_x0",
        "grid_span",
        "wavelength",
        "density",
        "gamma",
        "cell_length",
        "omega_peak",
        "control_waist",
        "control_center",
        "free_distance",
        "moments_distance",
    ],
)
def test_non_finite_scene_parameters_rejected(build, bad):
    # A NaN or infinite parameter is an input error, not a NaN row, an
    # infinite spot or a guard trip that asks for a wider grid.
    with pytest.raises(ValueError):
        build(bad)


def test_scene_with_detector():
    sc = default_scene()
    far = dataclasses.replace(sc, detector_distance=460.0)
    assert far.detector_distance == 460.0
    assert far.medium == sc.medium and far.grid == sc.grid


def test_run_point_on_resonance():
    sc = default_scene()
    row = run_point(sc, 0.0)
    assert row.flags == ()
    assert abs(row.theta_ray) < 1e-9
    # absorption reshaping leaves a small constant pointing residual,
    # well under the diffraction angle lambda / (pi w)
    assert abs(row.theta_wave) < 0.02 * sc.medium.wavelength / (math.pi * sc.probe.waist)
    assert row.transmission == pytest.approx(0.03571318755900532, rel=1e-6)
    assert row.far_width == pytest.approx(0.11734713305611563, rel=1e-6)


def test_run_point_linear_region():
    sc = default_scene()
    row = run_point(sc, TWO_PI * 100.0)
    assert row.theta_ray == pytest.approx(1.6569614926975774e-6, rel=1e-6)
    assert row.theta_wave == pytest.approx(1.2092022487289588e-6, rel=1e-6)


def test_run_point_odd_in_window():
    # Inside the transparency window the deflection flips sign with the
    # detuning; the traced angle is odd to a few percent.
    sc = default_scene()
    for hz in (1e4, 1e5):
        plus = run_point(sc, TWO_PI * hz)
        minus = run_point(sc, -TWO_PI * hz)
        assert minus.theta_ray == pytest.approx(-plus.theta_ray, rel=0.05)
        assert minus.theta_wave == pytest.approx(-plus.theta_wave, rel=0.05)


def test_run_point_opaque_band():
    # Deep in the Autler-Townes absorption band (5 MHz) and at the sweep
    # edge (10 MHz) the field dies inside the cell: the propagation stops
    # there, the row is flagged opaque, wave metrics are NaN, the
    # transmission is the power fraction left at the stop, and the ray is
    # fine.
    sc = default_scene()
    for hz in (5e6, 1e7):
        row = run_point(sc, TWO_PI * hz)
        assert row.flags == ("opaque",)
        assert 0.0 <= row.transmission <= 1e-19
        assert math.isnan(row.theta_wave) and math.isnan(row.far_centroid)
        assert math.isfinite(row.theta_ray)


def test_run_point_low_power():
    sc = default_scene()
    row = run_point(sc, TWO_PI * 4e5)
    assert row.flags == ("low_power",)
    assert 0.0 < row.transmission < 1e-9
    assert math.isfinite(row.theta_wave)


def test_run_point_guard_band():
    # guard_band means a field well above the opaque floor reached the
    # edge of the row's grid inside the cell.  (At the stock sweep edge,
    # 10 MHz, the field collapses inside the cell before that: see
    # test_run_point_opaque_band.)  Here a 1024-point grid 8.4 probe waists
    # wide, centred on the probe, which the beam deflected at 400 kHz
    # leaves at z ~ 1.35 cm with about 1 % of its power.
    sc = default_scene()
    n = 1024
    dx = 8.4 * sc.probe.waist / n
    narrow = dataclasses.replace(
        sc, grid=Grid1D(n, dx, sc.probe.offset - 0.5 * (n - 1) * dx)
    )
    row = run_point(narrow, TWO_PI * 4e5)
    assert row.flags == ("guard_band",)
    assert math.isnan(row.transmission) and math.isnan(row.theta_wave)
    assert math.isfinite(row.theta_ray)


def test_run_point_far_detector_needs_no_far_grid():
    # Diffraction over 200 m overfills the stock 12.8 cm grid, but the row
    # reads the spot from the exit field's moments.  Reference: the exit
    # field zero-padded onto a 2^17-point grid with the same dx, flown to
    # the detector with the FFT kernel.
    sc = dataclasses.replace(default_scene(), detector_distance=2e4)
    row = run_point(sc, 0.0)
    assert row.flags == ()
    probe = make_gaussian_probe(
        sc.grid, sc.medium.wavelength, sc.probe.waist, sc.probe.offset
    )
    out = propagate_medium(probe, 0.0, sc.medium, sc.control, sc.n_slices)
    with pytest.raises(GuardBandError):
        propagate_free(out, sc.detector_distance)
    n, pad = 2**17, (2**17 - sc.grid.n_points) // 2
    wide = Grid1D(n, sc.grid.dx, sc.grid.x0 - pad * sc.grid.dx)
    amplitude = np.zeros(n, dtype=complex)
    amplitude[pad : pad + sc.grid.n_points] = out.amplitude
    far = propagate_free(dataclasses.replace(out, grid=wide, amplitude=amplitude), 2e4)
    assert row.transmission == pytest.approx(transmission(probe, out), rel=1e-9)
    assert row.far_centroid == pytest.approx(centroid(far), rel=1e-9, abs=1e-10)
    assert row.far_width == pytest.approx(beam_width(far), rel=1e-9)
    assert row.far_width > 0.5 * sc.grid.span


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


def walk_scene():
    # A 0.3 mm probe gets a 512-point window.  Through a 15 cm cell at
    # -300 kHz it walks off that window; at 0 to 200 kHz it stays on it.
    base = default_scene()
    return dataclasses.replace(
        base,
        medium=dataclasses.replace(base.medium, cell_length=15.0),
        probe=dataclasses.replace(base.probe, waist=0.03),
    )


def test_row_runs_on_probe_window(monkeypatch):
    # A row propagates on a power-of-two window of the scene grid that
    # spans 12 probe waists, at the scene's dx and on its samples, centred
    # on the probe: 1024 of the stock 16384 points.  A stack of rows, such
    # as the dispersion pair, crosses on the same window.
    crossings = record_crossings(monkeypatch)
    sc = default_scene()
    run_point(sc, TWO_PI * 1e5)
    angular_dispersion(sc)
    (one, g), (two, pair_grid) = crossings
    assert (one, two) == (1, 2) and pair_grid == g
    assert g.n_points == 1024 and g.dx == sc.grid.dx
    start = (g.x0 - sc.grid.x0) / sc.grid.dx
    assert start == pytest.approx(round(start), abs=1e-6)
    assert abs(g.center - sc.probe.offset) <= sc.grid.dx
    # Never wider than the scene grid, and clamped inside it.
    small = dataclasses.replace(sc, grid=centered_grid(512, 12.8))
    assert experiment._probe_window(small) == slice(0, small.grid.n_points)
    # The probe must still lie in the central half of the scene grid.
    g = sc.grid
    off = dataclasses.replace(
        sc, grid=Grid1D(g.n_points, g.dx, sc.probe.offset - 0.2 * g.span)
    )
    with pytest.raises(ValueError, match="central half"):
        run_point(off, 0.0)


def test_row_crosses_whole_grid_after_window_trip(monkeypatch):
    # The walk at -300 kHz trips the guard on the window, and the crossing
    # is run again on the whole grid, where the row is readable.  In a
    # stack only that row is run again; the others keep the window.
    crossings = record_crossings(monkeypatch)
    sc = walk_scene()
    delta = TWO_PI * -3e5
    (row,) = experiment._rows(sc, [delta], [NO_RAY])
    assert row.flags == ("low_power",)
    (_, window), (_, whole) = crossings
    assert window.n_points == 512 and window.dx == sc.grid.dx
    assert whole == sc.grid
    probe = make_gaussian_probe(
        sc.grid, sc.medium.wavelength, sc.probe.waist, sc.probe.offset
    )
    out = propagate_medium(probe, delta, sc.medium, sc.control, sc.n_slices)
    assert row.transmission == pytest.approx(transmission(probe, out), rel=1e-9)
    crossings.clear()
    rows = list(experiment._rows(sc, [0.0, delta, TWO_PI * 1e5], [NO_RAY] * 3))
    assert crossings == [(3, window), (1, whole)]
    assert repr(rows[1]) == repr(row)
    assert rows[0].flags == rows[2].flags == ()


def outcome(probe, out):
    """(outcome, amplitude, z) of a crossing's result, as lone_crossing
    gives them; a guard trip carries its z in its message."""
    if isinstance(out, GuardBandError):
        return str(out), None, None
    kind = "opaque" if experiment.is_opaque(probe, out) else "readable"
    return kind, out.amplitude, out.z


def assert_same_crossing(got, want):
    (kind, a, z), (want_kind, want_a, want_z) = got, want
    assert kind == want_kind
    if want_a is not None:
        assert a.tobytes() == want_a.tobytes()  # bit for bit
        assert z == want_z


@pytest.mark.parametrize("deltas", [NEAR_DELTAS, STOCK_DELTAS], ids=["near", "stock"])
def test_stack_rows_equal_lone_crossings(deltas):
    # Every row of one stack equals the same row crossed alone, bit for
    # bit: exit amplitude, stop z and outcome.  The 41 near-resonance rows
    # cross the whole cell; 98 of the 101 stock rows stop opaque inside it.
    # The split-step loop is called directly, so each set of rows is one
    # stack, larger than propagate_stack's bound.
    sc = default_scene()
    probe = experiment.launch_probe(sc)
    args = (sc.medium, sc.control, sc.n_slices)
    outs = waves._cross_stack(probe, deltas, *args)
    assert len(deltas) * probe.grid.n_points > waves.STACK_SAMPLES
    kinds = []
    for delta, out in zip(deltas, outs):
        got = outcome(probe, out)
        assert_same_crossing(got, lone_crossing(probe, delta, *args))
        kinds.append(got[0])
    want = {"readable": 41} if len(deltas) == 41 else {"readable": 3, "opaque": 98}
    assert {k: kinds.count(k) for k in set(kinds)} == want


def test_mixed_stack_rows_equal_lone_crossings():
    # One row of a stack walks off the window and is crossed again on the
    # whole grid; the others stay on the window.  Each equals its lone
    # crossing bit for bit, on the grid it ended on.
    sc = walk_scene()
    probe = experiment.launch_probe(sc)
    whole = experiment._on_grid(sc, probe)
    args = (sc.medium, sc.control, sc.n_slices)
    deltas = [TWO_PI * hz for hz in (-1e5, -3e5, 0.0, 1e5, 2e5)]
    outs = list(experiment._cross_cell(sc, probe, deltas))
    for delta, out in zip(deltas, outs):
        lone = lone_crossing(probe, delta, *args)
        if delta == TWO_PI * -3e5:
            assert "enlarge the grid span" in lone[0]
            assert out.grid == sc.grid
            lone = lone_crossing(whole, delta, *args)
        else:
            assert out.grid == probe.grid
        assert_same_crossing(outcome(probe, out), lone)
        assert lone[0] == "readable"


def test_stacks_bounded_and_freed(monkeypatch):
    # No stack the split-step loop is given holds more than STACK_SAMPLES
    # complex samples: 32 rows of the stock 1024-point window; a row run
    # again after a window trip crosses the 16384-point grid alone.  When
    # a stack starts, the exit fields of the earlier stacks on its grid
    # are gone (a window stack's fields wait for the runs again of its
    # trips).
    crossings = record_crossings(monkeypatch)
    fields = []
    crossed = waves._cross_stack

    def freed_before(field, deltas, *args):
        n = field.grid.n_points
        assert all(ref() is None for m, ref in fields if m == n), "a field lives"
        outs = crossed(field, deltas, *args)
        fields.extend(
            (n, weakref.ref(out)) for out in outs if not isinstance(out, GuardBandError)
        )
        return outs

    monkeypatch.setattr(waves, "_cross_stack", freed_before)
    rows = detuning_sweep(default_scene(), -TWO_PI * 2e7, TWO_PI * 2e7, 101)
    assert [r.flags for r in rows].count(("opaque",)) == 98
    assert [n for n, _ in crossings] == [32, 32, 32, 5]
    assert {g.n_points for _, g in crossings} == {1024}
    sc = walk_scene()
    crossings.clear()
    deltas = [TWO_PI * hz for hz in (-4e5, -3e5, 0, 3e5)]
    rows = list(experiment._rows(sc, deltas, [NO_RAY] * 4))
    assert [(n, g.n_points) for n, g in crossings] == [(4, 512)] + [(1, 16384)] * 3
    assert all(n * g.n_points <= waves.STACK_SAMPLES for n, g in crossings)
    assert waves.STACK_SAMPLES == 32 * 1024 == 2 * 16384


def test_long_stack_memory_bounded():
    # 200 detunings through the public propagate_stack, consumed row by
    # row, never hold more than one stack: the peak of traced memory stays
    # within a small multiple of one stack's working set (its field, its
    # screens and the field's magnitudes: 2.5 complex samples per sample),
    # where a single 200-row stack would need six times that.  The rows
    # lie in the absorption band, so each stops opaque after a slice.
    sc = default_scene()
    probe = experiment.launch_probe(sc)
    deltas = [TWO_PI * (5e6 + 1e3 * k) for k in range(200)]
    stack_bytes = 2.5 * waves.STACK_SAMPLES * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        outs = propagate_stack(probe, deltas, sc.medium, sc.control, sc.n_slices)
        opaque = sum(map(partial(experiment.is_opaque, probe), outs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert opaque == len(deltas)
    assert peak < 2.0 * stack_bytes


def test_near_resonance_sweep_pinned():
    # The 41-row +-400 kHz sweep at 9 significant digits, as the CLI writes
    # it: tests/data holds the rows the sweep gave before the rows crossed
    # the cell as stacks.
    rows = detuning_sweep(default_scene(), -TWO_PI * 4e5, TWO_PI * 4e5, 41)
    assert [r.detuning for r in rows] == NEAR_DELTAS
    lines = ["detuning_hz,theta_ray_rad,theta_wave_rad,transmission,"
             "far_centroid_mm,far_width_mm,flags"]
    for r in rows:
        values = (r.detuning / TWO_PI, r.theta_ray, r.theta_wave, r.transmission,
                  r.far_centroid * 10.0, r.far_width * 10.0)
        lines.append(",".join(["%.9g"] * 6) % values + "," + ";".join(r.flags))
    text = (DATA / "near_resonance.csv").read_text(encoding="utf-8")
    assert "\n".join(lines) + "\n" == text


def test_probe_launch_failing_guard_raises():
    # A grid too narrow for the launch probe (512 points, 8.2 waists) fails
    # every row alike, so the sweep stops at its first row instead of
    # returning a table of guard_band rows.
    sc = default_scene()
    n = 512
    dx = 8.2 * sc.probe.waist / n
    narrow = dataclasses.replace(
        sc, grid=Grid1D(n, dx, sc.probe.offset - 0.5 * (n - 1) * dx), ray_steps=100
    )
    with pytest.raises(GuardBandError, match="z=0 cm"):
        detuning_sweep(narrow, -TWO_PI * 1e5, TWO_PI * 1e5, 3)
    with pytest.raises(GuardBandError):
        angular_dispersion(narrow)


@pytest.mark.parametrize(
    "cell_length, flags, t_low, t_high",
    [
        (2.0, ("aliased",), 1e-3, 1e-2),
        # Below LOW_POWER_FLOOR the row also carries low_power, ahead of
        # aliased, although it reads no wave angle.
        (12.0, ("low_power", "aliased"), 1e-11, 1e-10),
    ],
    ids=["2cm", "12cm"],
)
def test_run_point_aliased(cell_length, flags, t_low, t_high):
    # A 4 mm probe on the coarsest grid it accepts (dx = waist / 16): at
    # 400 kHz the ray leaves at more than the grid's Nyquist angle
    # lam / (2 dx) while some power gets through (0.3 % of it for a 2 cm
    # cell).  The exit spectrum reaches the Nyquist edge, so the row keeps
    # its transmission and reads no spot.
    sc = default_scene()
    waist = 0.4
    dx = waist / 16.0
    coarse = dataclasses.replace(
        sc,
        medium=dataclasses.replace(sc.medium, cell_length=cell_length),
        probe=ProbeSpec(waist, sc.probe.offset),
        grid=centered_grid(1024, 1024 * dx),
    )
    row = run_point(coarse, TWO_PI * 4e5)
    assert row.theta_ray > sc.medium.wavelength / (2.0 * dx)
    assert row.flags == flags
    assert t_low < row.transmission < t_high
    assert math.isnan(row.theta_wave) and math.isnan(row.far_centroid)
    assert math.isnan(row.far_width)


def test_row_matches_public_propagation():
    # A readable row agrees with the public propagate_medium on the whole
    # grid, the FFT flight to the detector and the intensity readout.
    sc = dataclasses.replace(default_scene(), grid=centered_grid(4096, 12.8))
    probe = make_gaussian_probe(
        sc.grid, sc.medium.wavelength, sc.probe.waist, sc.probe.offset
    )
    for hz in (1e5, -4e5):
        delta = TWO_PI * hz
        out = propagate_medium(probe, delta, sc.medium, sc.control, sc.n_slices)
        far = propagate_free(out, sc.detector_distance)
        row = run_point(sc, delta)
        theta = (centroid(far) - centroid(out)) / sc.detector_distance
        assert row.theta_wave == pytest.approx(theta, rel=1e-9)
        assert row.transmission == pytest.approx(transmission(probe, out), rel=1e-9)
        assert row.far_centroid == pytest.approx(centroid(far), rel=1e-9, abs=1e-10)
        assert row.far_width == pytest.approx(beam_width(far), rel=1e-9)
        assert row.flags == (() if hz == 1e5 else ("low_power",))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_detunings_rejected(monkeypatch, bad):
    # Rejected up front: no NaN field is pushed through the slices to come
    # back as a row with empty flags.
    def no_propagation(*args, **kwargs):
        raise AssertionError("propagated a non-finite detuning")

    monkeypatch.setattr(experiment, "propagate_medium", no_propagation)
    monkeypatch.setattr(experiment, "propagate_stack", no_propagation)
    sc = default_scene()
    calls = [
        lambda: run_point(sc, bad),
        lambda: detuning_sweep(sc, bad, 0.0, 3),
        lambda: detuning_sweep(sc, 0.0, bad, 3),
        lambda: detuning_sweep(sc, bad, bad, 3, threads=2),
        lambda: angular_dispersion(sc, d_ref=bad),
        lambda: spectral_resolution(sc, d_ref=bad),
        # Before any detuning is crossed, the opaque 5 MHz one included.
        lambda: experiment.profile(sc, [TWO_PI * 5e6, bad]),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_sweep_ordering_and_thread_independence():
    sc = default_scene()
    rows1 = detuning_sweep(sc, -TWO_PI * 4e5, TWO_PI * 4e5, 5, threads=1)
    rows4 = detuning_sweep(sc, -TWO_PI * 4e5, TWO_PI * 4e5, 5, threads=4)
    assert [r.detuning for r in rows1] == sorted(r.detuning for r in rows1)
    assert rows1[0].detuning == -TWO_PI * 4e5
    assert rows1[-1].detuning == TWO_PI * 4e5
    assert repr(rows1) == repr(rows4)  # bit-identical regardless of pool size
    best = max(rows1, key=lambda r: r.transmission)
    assert best.detuning == 0.0
    # NaN rows too: the field turns opaque inside the cell at
    # +-2 pi x 1e7.  SweepRow == is False for any row holding a NaN, so
    # only repr can compare them.
    far1 = detuning_sweep(sc, -TWO_PI * 1e7, TWO_PI * 1e7, 3, threads=1)
    far4 = detuning_sweep(sc, -TWO_PI * 1e7, TWO_PI * 1e7, 3, threads=4)
    for r in (far1[0], far1[-1]):
        assert r.flags == ("opaque",) and math.isnan(r.theta_wave)
        assert 0.0 <= r.transmission <= 1e-19
    assert repr(far1) == repr(far4)


def test_uncertified_sweep_rows_cross_in_the_sweep_stack(monkeypatch):
    # A row whose batch exit angle is not certified takes run_point's RK4
    # angle at the scene's ray_steps; the other rows keep the batch's
    # angle.  Every row, certified or not, crosses the cell in the sweep's
    # one stack, and an uncertified row still equals run_point.
    sc = dataclasses.replace(default_scene(), ray_steps=1000)
    batch = experiment.ray_exits

    def every_seventh_uncertified(*args):
        thetas, flags, certified = batch(*args)
        certified[::7] = False
        return thetas, flags, certified

    monkeypatch.setattr(experiment, "ray_exits", every_seventh_uncertified)
    crossings = record_crossings(monkeypatch)
    n = experiment.RAY_BATCH_ROWS
    rows = detuning_sweep(sc, -TWO_PI * 4e5, TWO_PI * 4e5, n)
    assert crossings == [(n, experiment.launch_probe(sc).grid)]
    deltas = [r.detuning for r in rows]
    thetas = batch(deltas, sc.probe.offset, sc.medium, sc.control)[0]
    for i, row in enumerate(rows):
        if i % 7 == 0:
            assert repr(row) == repr(run_point(sc, row.detuning))
        else:
            assert row.theta_ray == thetas[i]
    # RK4 rounds differently from the batch in the last bits.
    assert any(rows[i].theta_ray != thetas[i] for i in range(0, n, 7))


def test_paraxial_rows_carry_the_flag():
    # At 2e12 cm^-3 the rays of 12 rows of the stock +-20 MHz sweep leave
    # the small-angle regime; all 12 stop opaque in the cell.  Rows 38
    # (-4.8 MHz) and 56 (+2.4 MHz) take a certified batch ray, the other
    # 10 the RK4 fallback, which 17 rows take in all.  Each row's flags
    # lead with "paraxial", ahead of the wave's, as run_point's do.
    base = default_scene()
    sc = dataclasses.replace(base, medium=dataclasses.replace(base.medium, density=2e12))
    rows = detuning_sweep(sc, -TWO_PI * 2e7, TWO_PI * 2e7, 101)
    certified = experiment.ray_exits(
        [r.detuning for r in rows], sc.probe.offset, sc.medium, sc.control
    )[2]
    assert certified.tolist().count(False) == 17
    paraxial = [35, 36, 37, 38, 39, 55, 56, 57, 58, 59, 66, 67]
    assert [i for i, r in enumerate(rows) if "paraxial" in r.flags] == paraxial
    assert [i for i in paraxial if certified[i]] == [38, 56]
    for i in paraxial:
        row, ref = rows[i], run_point(sc, rows[i].detuning)
        assert row.flags == ref.flags == ("paraxial", "opaque")
        if certified[i]:
            # RK4 rounds differently from the batch in the last bits.
            assert "%.9g" % row.theta_ray == "%.9g" % ref.theta_ray
        else:
            assert repr(row) == repr(ref)
    # A short sweep is run_point row by row; its +6.67 MHz row is paraxial.
    short = detuning_sweep(sc, -TWO_PI * 2e7, TWO_PI * 2e7, 7)
    assert [r.flags for r in short] == [
        ("opaque",), ("opaque",), ("opaque",), ("low_power",),
        ("paraxial", "opaque"), ("opaque",), ("opaque",),
    ]


def test_sweep_validation():
    sc = default_scene()
    with pytest.raises(ValueError):
        detuning_sweep(sc, 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        detuning_sweep(sc, 1.0, -1.0, 5)
    with pytest.raises(ValueError):
        detuning_sweep(sc, 0.0, 1.0, 5, threads=0)


def test_sweep_detunings():
    # Python floats on the bounds' grid, whatever type the bounds are.
    assert sweep_detunings(-TWO_PI * 4e5, TWO_PI * 4e5, 41) == NEAR_DELTAS
    got = sweep_detunings(np.float64(-TWO_PI * 2e7), np.float64(TWO_PI * 2e7), 101)
    assert got == STOCK_DELTAS
    assert {type(d) for d in got} == {float}
    # Finite bounds whose span overflows: the steps would be inf and NaN.
    with pytest.raises(ValueError, match="span must be finite"):
        sweep_detunings(-1.2e308, 1.2e308, 3)
    with pytest.raises(ValueError, match="span must be finite"):
        detuning_sweep(default_scene(), -1.2e308, 1.2e308, 3)


@pytest.mark.parametrize("n", [5, 41])
def test_sweep_numpy_scalar_bounds(n):
    # np.float64 bounds give the rows of Python float bounds, bit for bit:
    # the rows carry float detunings, and run_point's RK4 rays (below
    # RAY_BATCH_ROWS rows) do not take numpy's complex arithmetic.
    sc = default_scene()
    lo, hi = -TWO_PI * 2e6, TWO_PI * 2e6
    want = detuning_sweep(sc, lo, hi, n)
    assert repr(detuning_sweep(sc, np.float64(lo), np.float64(hi), n)) == repr(want)


def test_angular_dispersion_default_scene():
    sc = default_scene()
    disp, noise = angular_dispersion(sc)
    assert noise is None
    assert disp == pytest.approx(-7843.282282259526, rel=1e-3)
    assert 1e2 <= abs(disp) <= 1e4


def test_angular_dispersion_vacuum_is_noise():
    sc = vacuum_scene(grid=centered_grid(4096, 12.8))
    disp, noise = angular_dispersion(sc)
    assert noise == "dispersion_noise"
    assert abs(disp) < 1e-6


def test_angular_dispersion_validation():
    for step in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            angular_dispersion(default_scene(), step=step)


def reference_resolution(
    scene, d_ref=0.0, initial=TWO_PI * 1e3, cap=experiment.RESOLUTION_SEARCH_CAP, rel_tol=1e-3
):
    """Plain doubling-plus-bisection: one Rayleigh test per verdict."""

    def resolved(separation):
        spots = experiment._spots_resolved(scene, d_ref, separation)
        return None if spots is None else spots[0] >= spots[1]

    lo, hi = 0.0, min(initial, cap)
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
    return TWO_PI * C_LIGHT / scene.medium.wavelength / hi


def test_spectral_resolution_default_scene(monkeypatch):
    calls = []
    spots_resolved = experiment._spots_resolved

    def counted(scene, d_ref, separation):
        calls.append(separation)
        return spots_resolved(scene, d_ref, separation)

    monkeypatch.setattr(experiment, "_spots_resolved", counted)
    sc = default_scene()
    r, cause = spectral_resolution(sc)
    assert r == pytest.approx(1.2408347358652248e10, rel=1e-3)
    assert cause is None
    assert len(calls) <= 5  # plain bisection makes 16 Rayleigh tests here


def test_spectral_resolution_gives_up_without_power(monkeypatch):
    # At 800 kHz both spots of the first Rayleigh test are opaque: the
    # search gives up there instead of doubling the separation.
    calls = []
    spots_resolved = experiment._spots_resolved

    def counted(scene, d_ref, separation):
        calls.append(separation)
        return spots_resolved(scene, d_ref, separation)

    monkeypatch.setattr(experiment, "_spots_resolved", counted)
    r, cause = spectral_resolution(default_scene(), d_ref=TWO_PI * 8e5)
    assert math.isnan(r)
    assert cause == "resolution_no_power"
    assert calls == [TWO_PI * 1e3]


def test_spectral_resolution_vacuum_unresolvable():
    sc = vacuum_scene(grid=centered_grid(4096, 12.8))
    r, cause = spectral_resolution(sc, initial_separation=TWO_PI * 1e7)
    assert math.isnan(r)
    assert cause == "unresolved"
    assert math.isnan(reference_resolution(sc, initial=TWO_PI * 1e7))


@pytest.mark.parametrize(
    "d_ref, cap, resolvable",
    [
        (0.0, TWO_PI * 4e7, True),
        (0.0, TWO_PI * 31e3, True),
        (TWO_PI * 1e5, TWO_PI * 4e7, True),
        (TWO_PI * 1e5, TWO_PI * 31e3, False),  # needs 32-64 kHz there
    ],
)
def test_spectral_resolution_matches_plain_bisection(d_ref, cap, resolvable):
    sc = dataclasses.replace(default_scene(), grid=centered_grid(4096, 12.8))
    got, cause = spectral_resolution(sc, d_ref=d_ref, max_separation=cap)
    want = reference_resolution(sc, d_ref=d_ref, cap=cap)
    assert math.isfinite(want) == resolvable
    assert cause == (None if resolvable else "unresolved")
    assert repr(got) == repr(want)


def test_spectral_resolution_search_never_probes_past_cap(monkeypatch):
    needed = TWO_PI * 30.4e3
    probed = []

    def resolved_from_needed(scene, d_ref, separation):
        probed.append(separation)
        return separation / needed, 1.0

    monkeypatch.setattr(experiment, "_spots_resolved", resolved_from_needed)
    sc = default_scene()
    omega = TWO_PI * C_LIGHT / sc.medium.wavelength

    r, cause = spectral_resolution(sc, max_separation=TWO_PI * 2e4)
    assert math.isnan(r)
    assert cause == "unresolved"
    assert max(probed) == TWO_PI * 2e4

    probed.clear()
    cap = TWO_PI * 31e3
    r, cause = spectral_resolution(sc, max_separation=cap)
    assert cause is None
    assert max(probed) <= cap
    sep = omega / r
    assert needed * (1 - 1e-12) <= sep <= cap * (1 + 1e-12)
    probed.clear()
    assert repr(r) == repr(reference_resolution(sc, cap=cap))
    assert max(probed) == cap  # the reference doubles up to the cap

    with pytest.raises(ValueError):
        spectral_resolution(sc, max_separation=0.0)
    with pytest.raises(ValueError):
        spectral_resolution(sc, initial_separation=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            spectral_resolution(sc, initial_separation=bad)
        with pytest.raises(ValueError):
            spectral_resolution(sc, max_separation=bad)
    for rel_tol in (0.0, -1e-3, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError):
            spectral_resolution(sc, rel_tol=rel_tol)


@pytest.mark.parametrize("initial_hz", [1e3, 8e3, 60e3])
def test_spectral_resolution_non_monotone_verdict(monkeypatch, initial_hz):
    # Resolved on [a, b) and again from c up: the search must still stop,
    # stay under the cap and return a bracket its own tests confirm.
    a, b, c = TWO_PI * 5e3, TWO_PI * 6e3, TWO_PI * 40e3
    cap = TWO_PI * 1e5
    verdicts = {}

    def spots(scene, d_ref, separation):
        assert separation not in verdicts and len(verdicts) < 100
        gap = separation / a if separation < b else separation / c
        verdicts[separation] = gap >= 1.0
        return gap, 1.0

    monkeypatch.setattr(experiment, "_spots_resolved", spots)
    sc = default_scene()
    omega = TWO_PI * C_LIGHT / sc.medium.wavelength
    rel_tol = 1e-3
    r, cause = spectral_resolution(
        sc, initial_separation=TWO_PI * initial_hz, max_separation=cap, rel_tol=rel_tol
    )
    assert cause is None
    assert max(verdicts) <= cap
    hits = [s for s, ok in verdicts.items() if ok and omega / s == r]
    assert hits
    hi = hits[0]
    assert any(not ok and hi * (1 - rel_tol) <= s < hi for s, ok in verdicts.items())


def test_outer_zero_structure():
    # The local-gradient deflection changes sign at the transparency
    # center and at two detunings per side bracketing the local
    # Autler-Townes splitting sqrt(rabi_at(offset)^2 - gamma_cb^2).
    from eitprism.rays import deflection_estimate

    sc = default_scene()
    ref = math.sqrt(rabi_at(sc.probe.offset, sc.control) ** 2 - sc.medium.gamma_cb**2)

    def theta(delta):
        return deflection_estimate(delta, sc.probe.offset, sc.medium, sc.control)

    deltas = [TWO_PI * (-2e7 + i * 4e5) for i in range(101)]
    vals = [theta(d) for d in deltas]
    brackets = [
        (deltas[i], deltas[i + 1])
        for i in range(100)
        if vals[i] * vals[i + 1] < 0.0
    ]
    assert len(brackets) == 5  # 0, +-delta_z1, +-delta_z2

    def bisect(a, b):
        fa = theta(a)
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = theta(m)
            if (fa < 0.0) == (fm < 0.0):
                a, fa = m, fm
            else:
                b = m
        return 0.5 * (a + b)

    zeros = sorted(bisect(a, b) for a, b in brackets)
    assert abs(zeros[2]) < TWO_PI * 1e3  # central crossing
    # Positive-side zeros pin the curve; their mirror twins sit within a
    # percent (the quadratic-in-chi part of n breaks exact oddness).
    assert zeros[3] / ref == pytest.approx(0.887450, rel=1e-4)
    assert zeros[4] / ref == pytest.approx(1.136413, rel=1e-4)
    assert -zeros[1] / ref == pytest.approx(0.887450, rel=0.02)
    assert -zeros[0] / ref == pytest.approx(1.136413, rel=0.02)
    for z in (zeros[0], zeros[1], zeros[3], zeros[4]):
        assert 0.8 <= abs(z) / ref <= 1.2
