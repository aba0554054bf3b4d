"""Split-step propagator: grids, free-space oracle, medium checks, metrics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from eitprism.medium import (
    ControlField,
    MediumParams,
    complex_chi,
    rabi_at,
    refractive_index,
)
from eitprism.waves import (
    AliasingError,
    Grid1D,
    GuardBandError,
    TransverseField,
    ZeroPowerError,
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
from eitprism import default_scene
from reference import lone_crossing

TWO_PI = 2.0 * math.pi
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


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(n_points=1000, dx=1e-3, x0=0.0)  # not a power of two
    with pytest.raises(ValueError):
        Grid1D(n_points=256, dx=1e-3, x0=0.0)  # too few samples
    with pytest.raises(ValueError):
        Grid1D(n_points=1024, dx=-1e-3, x0=0.0)


def test_probe_is_unit_power():
    g = small_grid()
    f = make_gaussian_probe(g, LAM, waist=0.06, offset=0.25)
    assert power(f) == pytest.approx(1.0, rel=1e-12)
    assert centroid(f) == pytest.approx(0.25, abs=1e-9)
    assert beam_width(f) == pytest.approx(0.06, rel=1e-6)


def test_probe_validation():
    g = small_grid()
    with pytest.raises(ValueError):
        make_gaussian_probe(g, LAM, waist=g.dx * 4.0, offset=0.0)  # under-resolved
    with pytest.raises(ValueError):
        make_gaussian_probe(g, LAM, waist=2.0, offset=0.0)  # grid too narrow
    with pytest.raises(ValueError):
        make_gaussian_probe(g, LAM, waist=0.06, offset=2.9)  # off the window
    # Non-finite inputs are usage errors, not a field that trips the guard.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            make_gaussian_probe(g, bad, waist=0.06, offset=0.0)
        with pytest.raises(ValueError):
            make_gaussian_probe(g, LAM, waist=bad, offset=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            make_gaussian_probe(g, LAM, waist=0.06, offset=bad)


def test_free_propagation_identity_and_errors():
    g = small_grid()
    f = make_gaussian_probe(g, LAM, waist=0.06, offset=0.0)
    same = propagate_free(f, 0.0)
    assert np.array_equal(same.amplitude, f.amplitude)
    with pytest.raises(ValueError):
        propagate_free(f, -1.0)


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


def test_default_probe_doubles_at_detector():
    # The stock probe roughly doubles its width over the detector arm.
    sc = default_scene()
    f = make_gaussian_probe(sc.grid, sc.medium.wavelength, sc.probe.waist, 0.0)
    out = propagate_free(f, sc.detector_distance)
    ratio = beam_width(out) / beam_width(f)
    assert ratio == pytest.approx(1.9265243, rel=1e-6)
    assert 1.6 <= ratio <= 2.4


def test_guard_band_trips_on_overflow():
    g = centered_grid(2048, 0.4)
    f = make_gaussian_probe(g, LAM, waist=0.02, offset=0.0)
    with pytest.raises(GuardBandError):
        propagate_free(f, 1000.0)


def test_medium_vacuum_matches_free():
    sc = default_scene()
    empty = MediumParams(
        wavelength=sc.medium.wavelength,
        density=0.0,
        gamma_r=sc.medium.gamma_r,
        gamma=sc.medium.gamma,
        gamma_cb=sc.medium.gamma_cb,
        cell_length=sc.medium.cell_length,
    )
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


def test_non_finite_detuning_and_field():
    sc = default_scene()
    f = make_gaussian_probe(small_grid(), sc.medium.wavelength, 0.06, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            propagate_medium(f, bad, sc.medium, sc.control, 50)
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


def test_medium_validation():
    sc = default_scene()
    g = small_grid()
    f = make_gaussian_probe(g, sc.medium.wavelength, 0.06, 0.0)
    with pytest.raises(ValueError):
        propagate_medium(f, 0.0, sc.medium, sc.control, n_slices=10)
    other = TransverseField(g, 6.33e-5, f.amplitude, 0.0)
    with pytest.raises(ValueError):
        propagate_medium(other, 0.0, sc.medium, sc.control, n_slices=50)


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


def test_metrics_zero_power():
    g = small_grid()
    dark = TransverseField(g, LAM, np.zeros(g.n_points, dtype=complex), 0.0)
    with pytest.raises(ZeroPowerError):
        centroid(dark)
    with pytest.raises(ZeroPowerError):
        beam_width(dark)
    f = make_gaussian_probe(g, LAM, waist=0.06, offset=0.0)
    with pytest.raises(ZeroPowerError):
        transmission(dark, f)


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
    with pytest.raises(ValueError):
        far_field_moments(probe, -1.0)
    dark = TransverseField(sc.grid, lam, np.zeros(sc.grid.n_points, dtype=complex))
    with pytest.raises(ZeroPowerError):
        far_field_moments(dark, 1.0)


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
