"""Split-step propagator: grids, free-space oracle, medium checks, metrics.
Refused inputs are cases of test_refusals."""

import math
from dataclasses import replace

import numpy as np
import pytest

from eitprism.medium import ControlField, complex_chi, rabi_at, refractive_index
from eitprism.waves import (
    GUARD_FRACTION,
    OPAQUE_LEVEL,
    AliasingError,
    Grid1D,
    GuardBandError,
    TransverseField,
    beam_width,
    centered_grid,
    centroid,
    far_field_moments,
    gaussian_beam_field,
    is_opaque,
    make_gaussian_probe,
    power,
    propagate_free,
    propagate_medium,
    transmission,
)
from eitprism import default_scene, experiment, waves
import reference
from reference import SCENE_DELTAS, TWO_PI, lone_crossing, vacuum
LAM = 7.95e-5  # cm


def small_grid():
    return centered_grid(2048, 6.4)


def test_grid_geometry():
    g = centered_grid(1024, 2.0)
    xs = g.xs()
    assert len(xs) == 1024
    assert xs[0] == -xs[-1]  # mirror-exact endpoints
    assert np.all(xs[:-1] < xs[1:])
    assert g.span == pytest.approx(2.0, rel=1e-12)
    assert abs(g.center) < 1e-15
    ks = g.wavenumbers()
    assert ks[0] == 0.0
    assert len(ks) == 1024


def test_probe_is_unit_power():
    g = small_grid()
    f = make_gaussian_probe(g, LAM, waist=0.06, offset=0.25)
    assert power(f) == pytest.approx(1.0, rel=1e-12)
    assert centroid(f) == pytest.approx(0.25, abs=1e-9)
    assert beam_width(f) == pytest.approx(0.06, rel=1e-6)


def test_free_propagation_identity():
    g = small_grid()
    f = make_gaussian_probe(g, LAM, waist=0.06, offset=0.0)
    same = propagate_free(f, 0.0)
    assert np.array_equal(same.amplitude, f.amplitude)


def test_free_propagation_conserves_power():
    g = small_grid()
    f = make_gaussian_probe(g, LAM, waist=0.06, offset=0.1)
    out = propagate_free(f, 120.0)
    assert power(out) == pytest.approx(1.0, rel=1e-12)
    assert out.z == pytest.approx(120.0)


def test_free_propagation_matches_gaussian_beam():
    # Full complex field against the closed-form diffracting Gaussian,
    # including curvature and Gouy phase, at several distances.
    g = centered_grid(4096, 12.8)
    w0, off = 0.05, 0.2
    f = make_gaussian_probe(g, LAM, waist=w0, offset=off)
    zr = math.pi * w0 * w0 / LAM
    for dist in (0.3 * zr, 2.0 * zr, 30.0, 300.0):
        got = propagate_free(f, dist)
        want = gaussian_beam_field(g, LAM, w0, off, dist)
        peak = np.abs(want.amplitude).max()
        assert np.abs(got.amplitude - want.amplitude).max() < 1e-6 * peak
        w_expect = w0 * math.sqrt(1.0 + (dist / zr) ** 2)
        assert beam_width(got) == pytest.approx(w_expect, rel=1e-3)


def test_medium_vacuum_matches_free():
    sc = default_scene()
    empty = vacuum(sc.medium)
    g = small_grid()
    f = make_gaussian_probe(g, sc.medium.wavelength, 0.06, 0.0)
    through = propagate_medium(f, TWO_PI * 1e4, empty, sc.control, n_slices=50)
    free = propagate_free(f, empty.cell_length)
    peak = np.abs(free.amplitude).max()
    assert np.abs(through.amplitude - free.amplitude).max() < 1e-12 * peak


def test_propagation_leaves_input_untouched():
    # profile reuses one probe for every detuning, so a propagator that
    # wrote into its input would corrupt the later columns.
    sc = default_scene()
    f = make_gaussian_probe(small_grid(), sc.medium.wavelength, 0.06, 0.0)
    before = f.amplitude.copy()
    outs = [
        propagate_medium(f, TWO_PI * 1e4, sc.medium, sc.control, n_slices=50),
        propagate_free(f, 100.0),
        propagate_free(f, 0.0),
    ]
    assert np.array_equal(f.amplitude, before)
    for out in outs:
        assert not np.shares_memory(out.amplitude, f.amplitude)


def test_split_step_matches_out_of_place_reference():
    # The in-place loop must give the bits of the plain one that builds a
    # new array at every step.
    sc = default_scene()
    f = make_gaussian_probe(small_grid(), sc.medium.wavelength, 0.06, 1.0)
    delta, n = TWO_PI * 1e4, 50
    out = propagate_medium(f, delta, sc.medium, sc.control, n_slices=n)

    dz = sc.medium.cell_length / n
    kind, a, z = lone_crossing(f, delta, sc.medium, sc.control, n)
    assert kind == "readable" and z == out.z
    assert np.array_equal(out.amplitude, a)
    assert out.z == f.z + n * dz


def test_split_step_runs_in_double_precision():
    # A single-precision input field is still propagated in complex128.
    sc = default_scene()
    f = make_gaussian_probe(small_grid(), sc.medium.wavelength, 0.06, 1.0)
    single = replace(f, amplitude=f.amplitude.astype(np.complex64))
    args = (TWO_PI * 1e4, sc.medium, sc.control)
    out = propagate_medium(single, *args, n_slices=50)
    ref = propagate_medium(
        replace(single, amplitude=single.amplitude.astype(complex)), *args, n_slices=50
    )
    assert out.amplitude.dtype == np.complex128
    assert np.array_equal(out.amplitude, ref.amplitude)


def test_opaque_stop():
    # In the absorption band the propagation ends after the first slice
    # whose peak falls below OPAQUE_LEVEL of the launch peak, inside the
    # cell, with the bits the plain split-step has there; the power left
    # bounds the exit power from above.
    sc = default_scene()
    f = make_gaussian_probe(
        centered_grid(4096, 12.8), sc.medium.wavelength, sc.probe.waist, sc.probe.offset
    )
    delta, n = TWO_PI * 1e6, 200
    stopped = propagate_medium(f, delta, sc.medium, sc.control, n)

    dz = sc.medium.cell_length / n
    kind, a, z = lone_crossing(f, delta, sc.medium, sc.control, n)
    assert kind == "opaque"
    # The stop lies inside the cell, after the launch.
    assert f.z + dz < z < f.z + n * dz
    assert stopped.z == z
    assert np.array_equal(stopped.amplitude, a)
    assert is_opaque(f, stopped)
    assert 0.0 <= transmission(f, stopped) <= 1e-19
    # Deep in the band (5 MHz) the first slice is already opaque.
    first = propagate_medium(f, TWO_PI * 5e6, sc.medium, sc.control, n)
    assert first.z == f.z + dz and is_opaque(f, first)
    # A field that stays above the floor crosses the whole cell.
    kept = propagate_medium(f, TWO_PI * 1e4, sc.medium, sc.control, n)
    assert kept.z == sc.medium.cell_length and not is_opaque(f, kept)


def test_non_finite_field():
    sc = default_scene()
    f = make_gaussian_probe(small_grid(), sc.medium.wavelength, 0.06, 0.0)
    # A non-finite field fails the guard and is never classed opaque,
    # even though its peak compares False with the opaque floor.
    for bad in (math.nan, math.inf):
        a = f.amplitude.copy()
        a[len(a) // 2] = bad
        broken = replace(f, amplitude=a)
        assert not is_opaque(f, broken)
        with pytest.raises(GuardBandError), np.errstate(invalid="ignore"):
            propagate_free(broken, 1.0)
        with pytest.raises(GuardBandError, match=r"z=0\.15 cm"), np.errstate(
            invalid="ignore"
        ):
            propagate_medium(broken, TWO_PI * 1e4, sc.medium, sc.control, 50)


def test_medium_beer_lambert_uniform():
    # With the control off the cell is a uniform absorber; transmitted
    # power must follow exp(-2 k0 Im(n) L) to the slice discretization.
    # At 200 MHz the expected transmission is about 1e-2.
    sc = default_scene()
    quiet = ControlField(omega_peak=0.0, waist=sc.control.waist)
    g = small_grid()
    f = make_gaussian_probe(g, sc.medium.wavelength, 0.06, 0.0)
    delta = TWO_PI * 2e8
    out = propagate_medium(f, delta, sc.medium, quiet, n_slices=100)
    n = refractive_index(complex_chi(delta, 0.0, sc.medium))
    k0 = TWO_PI / sc.medium.wavelength
    expect = math.exp(-2.0 * k0 * n.imag * sc.medium.cell_length)
    assert 1e-6 < expect < 0.5
    assert transmission(f, out) == pytest.approx(expect, rel=1e-6)


def test_medium_mirror_offset_flips_centroid():
    sc = default_scene()
    g = centered_grid(4096, 12.8)
    delta = TWO_PI * 1e4
    left = make_gaussian_probe(g, sc.medium.wavelength, sc.probe.waist, -sc.probe.offset)
    right = make_gaussian_probe(g, sc.medium.wavelength, sc.probe.waist, sc.probe.offset)
    out_l = propagate_medium(left, delta, sc.medium, sc.control, n_slices=100)
    out_r = propagate_medium(right, delta, sc.medium, sc.control, n_slices=100)
    assert centroid(out_l) == pytest.approx(-centroid(out_r), abs=1e-10)
    assert transmission(left, out_l) == pytest.approx(
        transmission(right, out_r), rel=1e-12
    )


def test_medium_resonant_on_axis_centroid():
    # Centered probe on resonance: absorption is symmetric, the exit
    # centroid stays on axis.
    sc = default_scene()
    g = small_grid()
    f = make_gaussian_probe(g, sc.medium.wavelength, sc.probe.waist, 0.0)
    out = propagate_medium(f, 0.0, sc.medium, sc.control, n_slices=100)
    assert abs(centroid(out)) < 1e-9


def test_medium_resonant_offset_probe():
    # Offset probe on resonance: transmission tracks the local
    # Beer-Lambert value and the centroid barely moves.
    sc = default_scene()
    f = make_gaussian_probe(sc.grid, sc.medium.wavelength, sc.probe.waist, sc.probe.offset)
    out = propagate_medium(f, 0.0, sc.medium, sc.control, sc.n_slices)
    t = transmission(f, out)
    omega_local = rabi_at(sc.probe.offset, sc.control)
    n = refractive_index(complex_chi(0.0, omega_local, sc.medium))
    k0 = TWO_PI / sc.medium.wavelength
    local = math.exp(-2.0 * k0 * n.imag * sc.medium.cell_length)
    assert t == pytest.approx(local, rel=0.01)
    assert t <= 1.0 + 1e-9
    assert abs(centroid(out) - sc.probe.offset) < 0.05 * sc.probe.waist


def test_medium_transmission_even_near_resonance():
    sc = default_scene()
    g = small_grid()
    f = make_gaussian_probe(g, sc.medium.wavelength, sc.probe.waist, 0.0)
    d = TWO_PI * 200.0
    t_plus = transmission(f, propagate_medium(f, d, sc.medium, sc.control, 100))
    t_minus = transmission(f, propagate_medium(f, -d, sc.medium, sc.control, 100))
    assert t_plus == pytest.approx(t_minus, rel=1e-6)


def test_screens_never_amplify():
    # Every 4B substep runs forward, so no screen gains: on the stock probe
    # window, at every stock (+-20 MHz, 101 rows), near-resonance (+-400
    # kHz, 41 rows) and imaging detuning, each gradient-corrected screen
    # has |screen| <= 1.  Measured: the largest real part of an exponent
    # is -1.95e-2, at 0 Hz; the correction reaches 0.27 in magnitude on
    # strongly absorbing rows, but at most 4.3e-4 of the main exponent.
    sc = default_scene()
    probe = experiment.launch_probe(sc)
    screens = waves._screens(probe, SCENE_DELTAS, sc.medium, sc.control, sc.n_slices)
    assert screens.shape == (len(SCENE_DELTAS), probe.grid.n_points)
    assert np.all(np.abs(screens) <= 1.0)
    assert np.abs(screens).max() < math.exp(-1.9e-2)


def test_stack_stops_match_the_guard_on_crafted_rows(monkeypatch):
    # Rows whose screens gain or lose a set number of e-folds per slice,
    # with the free steps patched to the identity, in one stack.  A row
    # that stops on the guard takes its message from the three band
    # maxima of the stack's check; the lone crossing runs _check_guard on
    # the same row, bit for bit, and must give the same message.
    sc = default_scene()
    n = 512
    probe = make_gaussian_probe(
        Grid1D(n, 1.0 / 32, -(n - 1) / 64), sc.medium.wavelength, 1.0, 0.0
    )
    nb = round(GUARD_FRACTION * n)
    band = np.zeros(n, bool)
    band[:nb] = band[-nb:] = True
    spike = np.arange(n) == n // 2
    gains = {
        0.0: np.where(band, 12.0, 0.0),  # the bands grow until they trip
        1.0: np.where(band, 30.0, -800.0),  # middle below the floor, bands above
        2.0: np.where(spike, math.nan, 0.0),  # a NaN row
        3.0: np.where(spike, 704.0, 0.0),  # the inverse FFT overflows: inf
        4.0: np.zeros(n),  # readable
    }
    n_slices = 50
    dz = sc.medium.cell_length / n_slices

    def profile(delta, xs, p, c):
        return 1.0 - 1j * gains[delta] / (probe.k0 * dz)

    def flat(delta, xs, p, c):
        return profile(delta, xs, p, c), np.zeros(n)  # no gradient correction

    def identity(field, distance):
        return np.ones(field.grid.n_points, dtype=complex)

    for module in (waves, reference):
        monkeypatch.setattr(module, "index_and_slope", flat)
        monkeypatch.setattr(module, "_free_kernel", identity)
    args = (sc.medium, sc.control, n_slices)
    with np.errstate(over="ignore"):
        outs = waves._cross_stack(probe, list(gains), *args)
        lones = [lone_crossing(probe, delta, *args) for delta in gains]
    got = [str(out) if isinstance(out, GuardBandError) else "readable" for out in outs]
    assert got == [lone[0] for lone in lones]
    ratios = [m.split()[2] if m != "readable" else m for m in got]
    assert 1e-6 < float(ratios[0]) < 1.0
    assert ratios[1:] == ["1.000e+00", "nan", "0.000e+00", "readable"]
    assert [lone[2] for lone in lones[1:4]] == [probe.z + dz] * 3
    # Row 1 stops on its first slice with its middle below the opaque
    # floor and its bands above it.
    screen = np.exp(1j * probe.k0 * (profile(1.0, None, None, None) - 1.0) * dz)
    a = np.fft.ifft(np.fft.fft(np.fft.ifft(np.fft.fft(probe.amplitude)) * screen))
    left, mid, right = np.maximum.reduceat(np.abs(a), [0, nb, n - nb])
    assert mid < OPAQUE_LEVEL * np.abs(probe.amplitude).max() < min(left, right)


def test_metrics_simple_fields():
    g = small_grid()
    xs = g.xs()
    amp = np.zeros(g.n_points, dtype=complex)
    i, j = 700, 1300
    amp[i] = 1.0
    amp[j] = 1.0
    f = TransverseField(g, LAM, amp, 0.0)
    assert centroid(f) == pytest.approx(0.5 * (xs[i] + xs[j]), abs=1e-12)
    half_gap = 0.5 * (xs[j] - xs[i])
    assert beam_width(f) == pytest.approx(2.0 * half_gap, rel=1e-12)
    assert power(f) == pytest.approx(2.0 * g.dx, rel=1e-12)

    doubled = TransverseField(g, LAM, 2.0 * amp, 0.0)
    assert transmission(f, doubled) == pytest.approx(4.0, rel=1e-12)


def test_metrics_translation():
    g = small_grid()
    f = make_gaussian_probe(g, LAM, waist=0.05, offset=-0.4)
    shifted = make_gaussian_probe(g, LAM, waist=0.05, offset=0.3)
    assert centroid(shifted) - centroid(f) == pytest.approx(0.7, abs=1e-8)
    assert beam_width(shifted) == pytest.approx(beam_width(f), rel=1e-9)


def test_readout_matches_dot_product_reference():
    # The readout sums with numpy reductions instead of np.dot; only the
    # summation order differs, so allow a few hundred float64 ulps.
    sc = default_scene()
    probe = make_gaussian_probe(sc.grid, sc.medium.wavelength, sc.probe.waist, sc.probe.offset)
    far = propagate_free(probe, sc.detector_distance)
    xs = far.grid.xs()
    w = np.abs(far.amplitude) ** 2
    mean = np.dot(xs, w) / w.sum()
    width = 2.0 * math.sqrt(np.dot((xs - mean) ** 2, w) / w.sum())
    assert centroid(far) == pytest.approx(mean, rel=1e-13)
    assert beam_width(far) == pytest.approx(width, rel=1e-13)


def test_moments_match_free_flight():
    # The moment readout against the FFT flight on a grid that holds the
    # spot, and against the closed-form diffracting Gaussian, for the
    # stock launch probe and for the same probe tilted by 5 mrad.
    sc = default_scene()
    lam, w0, off = sc.medium.wavelength, sc.probe.waist, sc.probe.offset
    probe = make_gaussian_probe(sc.grid, lam, w0, off)
    tilted = replace(
        probe, amplitude=probe.amplitude * np.exp(1j * probe.k0 * 5e-3 * sc.grid.xs())
    )
    for f, s_expect in ((probe, 0.0), (tilted, 5e-3 / math.sqrt(1.0 - 25e-6))):
        for dist in (0.0, 30.0, sc.detector_distance):
            got_c, got_w, theta = far_field_moments(f, dist)
            far = propagate_free(f, dist)
            assert got_c == pytest.approx(centroid(far), rel=1e-10, abs=1e-12)
            assert got_w == pytest.approx(beam_width(far), rel=1e-10)
            assert theta == pytest.approx(s_expect, rel=1e-6, abs=1e-15)
            exact = gaussian_beam_field(sc.grid, lam, w0, off, dist)
            assert got_w == pytest.approx(beam_width(exact), rel=1e-3)
            assert got_c == pytest.approx(centroid(exact) + dist * s_expect, rel=1e-3)


def test_moments_drop_evanescent_bins():
    # On a grid finer than half a wavelength the bins with |kx| >= k0 never
    # reach the detector: adding them to a beam changes no moment.  (They
    # are kept clear of the Nyquist edge, 2 k0 here, which the spectral
    # guard polices.)
    g = Grid1D(1024, LAM / 4.0, -511.5 * LAM / 4.0)
    f = make_gaussian_probe(g, LAM, waist=20.0 * g.dx, offset=0.0)
    kx = np.abs(g.wavenumbers())
    band = (kx >= f.k0) & (kx < 1.5 * f.k0)
    assert band.any()
    spectrum = np.fft.fft(f.amplitude)
    evanescent = np.where(band, 1e-3 * np.abs(spectrum).max(), 0.0)
    mixed = replace(f, amplitude=np.fft.ifft(spectrum + evanescent))
    for dist in (0.0, 1.0, 10.0):
        assert far_field_moments(mixed, dist) == pytest.approx(
            far_field_moments(f, dist), rel=1e-12, abs=1e-15
        )


def test_moments_spectral_guard():
    # A beam tilted to 98 % of the grid's Nyquist angle lam / (2 dx) has
    # spectral amplitude at the Nyquist edge: the readout refuses it.
    g = small_grid()
    f = make_gaussian_probe(g, LAM, waist=0.06, offset=0.0)
    nyquist = LAM / (2.0 * g.dx)
    for angle, aliased in ((0.5 * nyquist, False), (0.98 * nyquist, True)):
        tilt = replace(f, amplitude=f.amplitude * np.exp(1j * f.k0 * angle * g.xs()))
        if aliased:
            with pytest.raises(AliasingError, match="Nyquist"):
                far_field_moments(tilt, 100.0)
        else:
            assert far_field_moments(tilt, 100.0)[2] == pytest.approx(angle, rel=1e-3)
