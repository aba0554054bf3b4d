"""Experiment harness: scenes, single points, sweeps, derived figures.
Refused scenes and calls are cases of test_refusals; the NaN and infinite
scene parameters among them run here, under their old test's name."""

import dataclasses
import math
import tracemalloc
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest

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
from eitprism.config import RunConfig, sweep_bounds
from eitprism.experiment import (
    C_LIGHT,
    ProbeSpec,
    angular_dispersion,
    detuning_sweep,
    estimate_parameters,
    run_point,
    spectral_resolution,
    sweep_detunings,
)
from reference import IMAGING_DELTAS, NEAR_DELTAS, STOCK_DELTAS, TWO_PI, lone_crossing
from reference import record_crossings, reference_resolution, strang_crossing, sweep_deltas
from test_refusals import NON_FINITE_SCENE, REFUSALS, refuses
from reference import vacuum, whole_grid_transmission

# The ray the summary's pairs give their rows: none traced.
NO_RAY = (math.nan, False)

DATA = Path(__file__).parent / "data"

# The span of the stock sweep (rad/s), the widest separation the stock
# resolution search tries.
_LO, _HI, _ = sweep_bounds(RunConfig())
STOCK_SPAN = _HI - _LO


def vacuum_scene(base=None, grid=None):
    sc = base or default_scene()
    if grid is not None:
        sc = dataclasses.replace(sc, grid=grid)
    return dataclasses.replace(sc, medium=vacuum(sc.medium))


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


@pytest.mark.parametrize("key", list(NON_FINITE_SCENE.values()), ids=list(NON_FINITE_SCENE))
def test_non_finite_scene_parameters_rejected(key):
    # A NaN or infinite parameter is an input error, not a NaN row, an
    # infinite spot or a guard trip that asks for a wider grid.
    refuses(REFUSALS[key])


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
    # as the dispersion stencil's four, crosses on the same window.
    crossings = record_crossings(monkeypatch)
    sc = default_scene()
    run_point(sc, TWO_PI * 1e5)
    angular_dispersion(sc)
    (one, g), (four, stencil_grid) = crossings
    assert (one, four) == (1, 4) and stencil_grid == g
    assert g.n_points == 1024 and g.dx == sc.grid.dx
    start = (g.x0 - sc.grid.x0) / sc.grid.dx
    assert start == pytest.approx(round(start), abs=1e-6)
    assert abs(g.center - sc.probe.offset) <= sc.grid.dx
    # Never wider than the scene grid, and clamped inside it.
    small = dataclasses.replace(sc, grid=centered_grid(512, 12.8))
    assert experiment._probe_window(small) == small.grid


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
    assert row.transmission == pytest.approx(whole_grid_transmission(sc, delta), rel=1e-9)
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
    # it: tests/data holds the rows of the fourth-order crossing at the
    # stock 64 slices, whose wave columns are converged to those digits.
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


def test_split_step_is_accurate_at_the_stock_slices():
    # The 8 imaging detunings, crossed as one stack at the stock 64 slices,
    # against Richardson's (4 v(1600) - v(800)) / 3 of an independent
    # Strang split step, which is second order (reference.strang_crossing):
    # the stock 4B crossing is within 1e-10 relative in the three moment
    # columns and 2e-9 in transmission (measured: 1.8e-11, 3.5e-11,
    # 9.5e-11 and 7.5e-10).  Without the screen's gradient correction, or
    # with half its weight, the crossing is second order and about 1e-6
    # off.  The residual is not a clean x16 per doubling: the paraxial
    # commutator in the correction is not exact for the exact kernel.
    sc = default_scene()
    assert sc.n_slices == 64
    rows = experiment._rows(sc, IMAGING_DELTAS, [NO_RAY] * len(IMAGING_DELTAS))
    got = np.array(
        [(r.theta_wave, r.far_centroid, r.far_width, r.transmission) for r in rows]
    )
    probe = experiment.launch_probe(sc)

    def readout(n_slices, delta):
        a = strang_crossing(probe, delta, sc.medium, sc.control, n_slices)
        out = dataclasses.replace(probe, amplitude=a)
        far_centroid, far_width, theta = far_field_moments(out, sc.detector_distance)
        return np.array([theta, far_centroid, far_width, transmission(probe, out)])

    want = np.array(
        [(4.0 * readout(1600, d) - readout(800, d)) / 3.0 for d in IMAGING_DELTAS]
    )
    error = np.max(abs(got - want) / abs(want), axis=0)
    assert np.all(error <= [1e-10, 1e-10, 1e-10, 2e-9]), error


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
    # Every crossing, lone or stacked, runs waves._cross_stack.
    def no_propagation(*args, **kwargs):
        raise AssertionError("propagated a non-finite detuning")

    monkeypatch.setattr(waves, "_cross_stack", no_propagation)
    sc = default_scene()
    calls = [
        lambda: run_point(sc, bad),
        lambda: detuning_sweep(sc, bad, 0.0, 3),
        lambda: detuning_sweep(sc, 0.0, bad, 3),
        lambda: detuning_sweep(sc, bad, bad, 3, threads=2),
        # Before any detuning is crossed, the opaque 5 MHz one included.
        lambda: experiment.profile(sc, [TWO_PI * 5e6, bad]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="must be finite"):
            call()


def test_sweep_ordering_and_thread_independence():
    sc = default_scene()
    rows1 = detuning_sweep(sc, -TWO_PI * 4e5, TWO_PI * 4e5, 5, threads=1)
    rows4 = detuning_sweep(sc, -TWO_PI * 4e5, TWO_PI * 4e5, 5, threads=4)
    assert [r.detuning for r in rows1] == sorted(r.detuning for r in rows1)
    assert rows1[0].detuning == -TWO_PI * 4e5
    assert rows1[-1].detuning == TWO_PI * 4e5
    assert repr(rows1) == repr(rows4)  # bit-identical regardless of threads
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
    # A row whose batch exit angle is not certified takes run_point's traced
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
    n = 30
    rows = detuning_sweep(sc, -TWO_PI * 4e5, TWO_PI * 4e5, n)
    assert crossings == [(n, experiment.launch_probe(sc).grid)]
    deltas = [r.detuning for r in rows]
    thetas = batch(deltas, sc.probe.offset, sc.medium, sc.control)[0]
    for i, row in enumerate(rows):
        if i % 7 == 0:
            assert repr(row) == repr(run_point(sc, row.detuning))
        else:
            assert row.theta_ray == thetas[i]
    # The trace rounds differently from the batch in the last bits.
    assert any(rows[i].theta_ray != thetas[i] for i in range(0, n, 7))


def test_paraxial_rows_carry_the_flag():
    # At 2e12 cm^-3 the rays of 12 rows of the stock +-20 MHz sweep leave
    # the small-angle regime; all 12 stop opaque in the cell.  Rows 38
    # (-4.8 MHz) and 56 (+2.4 MHz) take a certified batch ray, the other
    # 10 the trace_ray fallback, which 17 rows take in all.  Each row's flags
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
            # The trace rounds differently from the batch in the last bits.
            assert "%.9g" % row.theta_ray == "%.9g" % ref.theta_ray
        else:
            assert repr(row) == repr(ref)
    # A 7-row sweep's +6.67 MHz row is paraxial too.
    short = detuning_sweep(sc, -TWO_PI * 2e7, TWO_PI * 2e7, 7)
    assert [r.flags for r in short] == [
        ("opaque",), ("opaque",), ("opaque",), ("low_power",),
        ("paraxial", "opaque"), ("opaque",), ("opaque",),
    ]


def test_sweep_detunings():
    # Python floats on the bounds' grid, whatever type the bounds are.
    assert sweep_detunings(-TWO_PI * 4e5, TWO_PI * 4e5, 41) == NEAR_DELTAS
    got = sweep_detunings(np.float64(-TWO_PI * 2e7), np.float64(TWO_PI * 2e7), 101)
    assert got == STOCK_DELTAS
    assert {type(d) for d in got} == {float}


def test_sweep_centre_row_is_the_midpoint():
    # The middle row of an odd-length sweep is d_min + 0.5 (d_max - d_min),
    # so a range centred on zero samples 0 exactly.  On these 1200 odd
    # ranges (3 to 401 points, half-widths 100 Hz to 20 MHz) the grid
    # d_min + i * step alone missed 0 on 125, by 2.9e-13 Hz at 49 points
    # over +-2 kHz.  The first row is d_min and the last d_max, which
    # d_min + (n - 1) step missed by up to 2 ulp on 125 of them; the rows
    # increase.  Even counts and random asymmetric ranges are checked too.
    rng = np.random.default_rng(672)
    ranges = [
        (TWO_PI * -hz, TWO_PI * hz, n)
        for hz in (1e2, 2e3, 5e4, 4e5, 1e6, 2e7)
        for n in range(2, 402)
    ]
    for _ in range(2000):
        lo = TWO_PI * rng.uniform(-2e7, 2e7)
        hi = lo + TWO_PI * 10.0 ** rng.uniform(2.0, 7.6)
        ranges.append((lo, hi, int(rng.integers(2, 402))))
    for lo, hi, n in ranges:
        deltas = sweep_detunings(lo, hi, n)
        assert deltas == sweep_deltas(lo, hi, n)
        if n % 2 and lo == -hi:
            assert repr(deltas[n // 2]) == "0.0"
        assert deltas[0] == lo and deltas[-1] == hi
        assert all(a < b for a, b in zip(deltas, deltas[1:]))


@pytest.mark.parametrize("n", [5, 41])
def test_sweep_numpy_scalar_bounds(n):
    # np.float64 bounds give the rows of Python float bounds, bit for bit:
    # the rows carry float detunings, so no traced ray takes numpy's
    # complex arithmetic.
    sc = default_scene()
    lo, hi = -TWO_PI * 2e6, TWO_PI * 2e6
    want = detuning_sweep(sc, lo, hi, n)
    assert repr(detuning_sweep(sc, np.float64(lo), np.float64(hi), n)) == repr(want)


def test_angular_dispersion_default_scene():
    sc = default_scene()
    disp, noise = angular_dispersion(sc)
    assert noise is None
    assert disp == pytest.approx(-7843.282296212933, rel=1e-3)
    assert 1e2 <= abs(disp) <= 1e4
    # Reference: central differences of theta_wave over +-300, +-600 and
    # +-1200 Hz, none of them a row of the stencil, extrapolated twice in
    # h^2 (O(h^6)).  References over other steps spread by about 2e-10 of
    # the slope (theta_wave's round-off) and the stencil is 1.2e-11 off
    # this one; a central difference over +-100 Hz is 1.9e-9 off and fails.
    steps = [TWO_PI * 300.0 * k for k in (1, 2, 4)]
    rows = experiment._rows(sc, [s * h for h in steps for s in (1, -1)], [NO_RAY] * 6)
    thetas = [r.theta_wave for r in rows]
    d1, d2, d4 = [(a - b) / (2.0 * h) for a, b, h in zip(thetas[::2], thetas[1::2], steps)]
    r1, r2 = (4.0 * d1 - d2) / 3.0, (4.0 * d2 - d4) / 3.0
    lam_per_rad = sc.medium.wavelength**2 / (TWO_PI * C_LIGHT) * 1e7
    reference = -(16.0 * r1 - r2) / 15.0 / lam_per_rad
    assert abs(disp / reference - 1.0) <= 5e-10


def test_angular_dispersion_flags_a_nan_slope(monkeypatch):
    # Only the stencil's rows at +-2h lack a pointing angle, as a
    # guard_band or aliased row would: the slope is NaN, and flagged.
    rows = experiment._rows

    def outer_nan(scene, deltas, rays):
        out = list(rows(scene, deltas, rays))
        return out[:2] + [dataclasses.replace(r, theta_wave=math.nan) for r in out[2:]]

    monkeypatch.setattr(experiment, "_rows", outer_nan)
    disp, noise = angular_dispersion(default_scene())
    assert math.isnan(disp) and noise == "dispersion_noise"


def test_angular_dispersion_vacuum_is_noise():
    sc = vacuum_scene(grid=centered_grid(4096, 12.8))
    disp, noise = angular_dispersion(sc)
    assert noise == "dispersion_noise"
    assert abs(disp) < 1e-6


def test_spectral_resolution_default_scene(monkeypatch):
    stacks = []
    stack = experiment.propagate_stack

    def counted(probe, deltas, *args):
        stacks.append(len(deltas))
        return stack(probe, deltas, *args)

    monkeypatch.setattr(experiment, "propagate_stack", counted)
    r, cause = spectral_resolution(default_scene(), STOCK_SPAN)
    assert r == pytest.approx(1.2413943260318989e10, rel=1e-9)
    assert cause is None
    # 2 + 2 + 4 rows: two fixed-point steps, then the confirming pair;
    # plain bisection to 1e-3 makes 16 tests of 2 rows here.
    assert len(stacks) <= 3 and sum(stacks) <= 8


def test_spectral_resolution_gives_up_without_power(monkeypatch):
    # With a 1 MHz ground-state dephasing the cell is opaque at resonance:
    # both spots of the first Rayleigh test have no centroid, and the
    # search gives up there instead of doubling the separation.
    calls = []
    spots_resolved = experiment._spots_resolved

    def counted(scene, separations):
        calls.append(list(separations))
        return spots_resolved(scene, separations)

    monkeypatch.setattr(experiment, "_spots_resolved", counted)
    sc = default_scene()
    dephased = dataclasses.replace(sc.medium, gamma_cb=TWO_PI * 1e6)
    sc = dataclasses.replace(sc, medium=dephased, grid=centered_grid(4096, 12.8))
    r, cause = spectral_resolution(sc, STOCK_SPAN)
    assert math.isnan(r)
    assert cause == "resolution_no_power"
    assert calls == [[TWO_PI * 1e3]]


def test_spectral_resolution_vacuum_unresolvable():
    sc = vacuum_scene(grid=centered_grid(4096, 12.8))
    r, cause = spectral_resolution(sc, STOCK_SPAN)
    assert math.isnan(r)
    assert cause == "unresolved"
    assert math.isnan(reference_resolution(sc, STOCK_SPAN, 1e-3))


@pytest.mark.parametrize(
    "distance, cap, resolvable",
    [
        (230.0, STOCK_SPAN, True),
        (230.0, TWO_PI * 31e3, True),  # needs 30.4 kHz
        (150.0, STOCK_SPAN, True),
        (150.0, TWO_PI * 31e3, False),  # needs 35.3 kHz
    ],
)
def test_spectral_resolution_matches_plain_bisection(distance, cap, resolvable):
    sc = dataclasses.replace(
        default_scene(), grid=centered_grid(4096, 12.8), detector_distance=distance
    )
    got, cause = spectral_resolution(sc, max_separation=cap)
    want = reference_resolution(sc, cap, 1e-9)
    assert math.isfinite(want) == resolvable
    assert cause == (None if resolvable else "unresolved")
    if resolvable:
        assert abs(got / want - 1.0) <= 2e-9
    else:
        assert math.isnan(got)


def confirmed_bracket(verdicts, crossing):
    """A tested (unresolved lo, resolved hi) around ``crossing`` that is at
    most 2 RESOLUTION_TOL wide, or None."""
    tol = experiment.RESOLUTION_TOL
    for lo, lo_ok in verdicts.items():
        for hi, hi_ok in verdicts.items():
            if not lo_ok and hi_ok and lo < crossing <= hi and hi - lo <= 2 * tol * hi:
                return lo, hi
    return None


def fake_spots(monkeypatch, ratio):
    """Stand ``ratio(s)`` in for each Rayleigh test's gap / width at
    separation s.  The returned dict gets each tested separation's verdict
    (ratio at least 1); a separation tested twice, or a 101st test, fails."""
    verdicts = {}

    def spots(scene, separations):
        ratios = [ratio(s) for s in separations]
        for s, r in zip(separations, ratios):
            assert s not in verdicts and len(verdicts) < 100
            verdicts[s] = r >= 1.0
        return ratios

    monkeypatch.setattr(experiment, "_spots_resolved", spots)
    return verdicts


def test_spectral_resolution_search_never_probes_past_cap(monkeypatch):
    needed = TWO_PI * 30.4e3
    probed = fake_spots(monkeypatch, lambda s: s / needed)
    sc = default_scene()
    omega = TWO_PI * C_LIGHT / sc.medium.wavelength

    r, cause = spectral_resolution(sc, max_separation=TWO_PI * 2e4)
    assert math.isnan(r)
    assert cause == "unresolved"
    assert max(probed) == TWO_PI * 2e4

    # Crossings well below, just below and at the cap: in the last two the
    # confirming pair's top member is held at the cap.  At the cap, the
    # first estimate lands on the cap itself, so the pair's top member
    # reuses that test: 3 separations are crossed, not 4.
    cap = TWO_PI * 31e3
    for needed in (TWO_PI * 30.4e3, cap * (1 - 0.5e-6), cap):
        probed.clear()
        r, cause = spectral_resolution(sc, max_separation=cap)
        assert cause is None
        assert max(probed) <= cap
        if needed == cap:
            assert len(probed) == 3
        assert omega / r == pytest.approx(needed, rel=1e-12)
        assert confirmed_bracket(probed, omega / r)
        probed.clear()
        assert abs(r / reference_resolution(sc, cap, 1e-9) - 1.0) <= 2e-9
        assert max(probed) == cap  # the reference doubles up to the cap


@pytest.mark.parametrize("initial_hz", [1e3, 8e3, 60e3])
def test_spectral_resolution_non_monotone_verdict(monkeypatch, initial_hz):
    # Resolved on [a, b) and again from c up: the search must still stop,
    # stay under the cap and return a crossing inside a bracket its own
    # tests confirm.  The search starts at 1 kHz; scaling a, b, c and the
    # cap by 1 kHz / initial_hz stands in for a start at initial_hz.
    scale = TWO_PI * 1e3 / initial_hz
    a, b, c = scale * 5e3, scale * 6e3, scale * 40e3
    cap = scale * 1e5
    verdicts = fake_spots(monkeypatch, lambda s: s / a if s < b else s / c)
    sc = default_scene()
    omega = TWO_PI * C_LIGHT / sc.medium.wavelength
    r, cause = spectral_resolution(sc, max_separation=cap)
    assert cause is None
    assert max(verdicts) <= cap
    assert confirmed_bracket(verdicts, omega / r)


@pytest.mark.parametrize("power", [3.0, 0.05])
def test_spectral_resolution_safeguards_a_poor_fixed_point(monkeypatch, power):
    # gap / width = (s / needed)^power: the plain fixed point s * width / gap
    # oscillates and diverges for power 3 and creeps for power 0.05, so the
    # search must bisect and double its way to the crossing instead.
    needed = TWO_PI * 30e3
    verdicts = fake_spots(monkeypatch, lambda s: (s / needed) ** power)
    sc = default_scene()
    omega = TWO_PI * C_LIGHT / sc.medium.wavelength
    r, cause = spectral_resolution(sc, STOCK_SPAN)
    assert cause is None
    assert omega / r == pytest.approx(needed, rel=2 * experiment.RESOLUTION_TOL)
    assert confirmed_bracket(verdicts, omega / r)
