"""End-to-end acceptance: the headline claims, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failing criterion shows up as the test failure itself).
Criteria with a stated runtime budget assert it.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from eitprism.medium import complex_chi, rabi_at, re_chi
from eitprism.rays import deflection_estimate, exit_angle, trace_ray
from eitprism.waves import (
    make_gaussian_probe,
    beam_width,
    centroid,
    power,
    propagate_free,
    propagate_medium,
)
from eitprism import default_scene
from eitprism.config import RunConfig, sweep_bounds
from eitprism.experiment import (
    GLASS_DISPERSION_PER_NM,
    C_LIGHT,
    angular_dispersion,
    detuning_sweep,
    estimate_parameters,
    run_point,
    spectral_resolution,
)
from reference import TWO_PI, random_point


def test_criterion_1_susceptibility_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(795)
    worst = 0.0
    for _ in range(12_000):
        delta, omega, p = random_point(rng)
        a = re_chi(delta, omega, p)
        chi = complex_chi(delta, omega, p)
        scale = max(abs(a), abs(chi))
        if scale > 0.0:
            worst = max(worst, abs(a - chi.real) / scale)
        assert abs(a - chi.real) <= 1e-12 * scale
        # symmetries: dispersive part odd, absorptive part even and positive
        assert re_chi(-delta, omega, p) == -a
        mirror = complex_chi(-delta, omega, p)
        assert mirror.imag == pytest.approx(chi.imag, rel=1e-12)
        assert chi.imag > 0.0
    # three dispersive zero crossings: resonance and +-sqrt(Omega^2-gamma_cb^2)
    checked = 0
    while checked < 200:
        _, omega, p = random_point(rng)
        if omega <= 2.0 * p.gamma_cb:
            continue
        z = math.sqrt(omega**2 - p.gamma_cb**2)
        for zero in (-z, 0.0, z):
            lo = zero - max(abs(zero), omega) * 1e-6 - 1.0
            hi = zero + max(abs(zero), omega) * 1e-6 + 1.0
            assert re_chi(lo, omega, p) * re_chi(hi, omega, p) < 0.0
        checked += 1
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(f"\nPASS — criterion 1 (susceptibility identity): worst deviation "
          f"{worst:.2e} of |chi| over 12000 draws, 3 zero crossings on 200 "
          f"parameter sets ({dt:.2f} s)")


def test_criterion_2_deflection_estimate():
    t0 = time.perf_counter()
    medium, control, delta, offset = estimate_parameters()
    theta = deflection_estimate(delta, offset, medium, control)
    assert theta == pytest.approx(-0.0996015, rel=1e-5)
    assert 0.03 <= abs(theta) <= 0.3
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"\nPASS — criterion 2 (0.1 rad estimate): theta = {theta:+.4f} rad "
          f"in [0.03, 0.3] ({dt:.3f} s)")


def test_criterion_3_diffraction_doubling():
    t0 = time.perf_counter()
    sc = default_scene()
    probe = make_gaussian_probe(sc.grid, sc.medium.wavelength, sc.probe.waist, 0.0)
    far = propagate_free(probe, sc.detector_distance)
    ratio = beam_width(far) / beam_width(probe)
    assert ratio == pytest.approx(1.9265243, rel=1e-6)
    assert 1.6 <= ratio <= 2.4
    rayleigh = math.pi * sc.probe.waist**2 / sc.medium.wavelength
    analytic = sc.probe.waist * math.sqrt(1.0 + (sc.detector_distance / rayleigh) ** 2)
    assert beam_width(far) == pytest.approx(analytic, rel=1e-3)
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(f"\nPASS — criterion 3 (diffraction doubling): width ratio {ratio:.4f} "
          f"over {sc.detector_distance:.0f} cm, analytic width matched to "
          f"{abs(beam_width(far) / analytic - 1.0):.1e} ({dt:.2f} s)")


def test_criterion_4_deflection_curve_shape():
    sc = default_scene()
    t0 = time.perf_counter()
    rows = detuning_sweep(sc, TWO_PI * -2e7, TWO_PI * 2e7, 101)
    sweep_dt = time.perf_counter() - t0
    assert sweep_dt < 120.0

    center = rows[50]
    assert center.detuning == 0.0
    assert abs(center.theta_ray) < 1e-9

    finite = [r for r in rows if math.isfinite(r.transmission)]
    assert max(finite, key=lambda r: r.transmission) is center
    # only 0 and +-400 kHz read a wave angle; every other row stopped
    # opaque inside the cell with at most 1e-19 of the launch power left
    readable = [i for i, r in enumerate(rows) if math.isfinite(r.theta_wave)]
    assert readable == [49, 50, 51]
    for r in rows:
        if not math.isfinite(r.theta_wave):
            assert r.flags == ("opaque",) and 0.0 <= r.transmission <= 1e-19
            assert math.isnan(r.far_centroid) and math.isnan(r.far_width)
    # the grid cannot represent a ray angle past its Nyquist angle
    # lambda/(2 dx); no such row may read a wave angle
    nyquist = sc.medium.wavelength / (2.0 * sc.grid.dx)
    steep = [r for r in rows if abs(r.theta_ray) > nyquist]
    assert len(steep) == 32
    for r in steep:
        assert math.isnan(r.theta_wave)
        assert "opaque" in r.flags or "aliased" in r.flags

    # odd-like: signs anti-symmetric over the inner curve; magnitudes
    # negated in the small-deflection regime, where the ray's own walk
    # through the control profile (which skews the two signs apart) is
    # still a small fraction of the control waist
    paired = 0
    for i, r in enumerate(rows):
        if 0.0 < abs(r.detuning) <= TWO_PI * 4e6:
            twin = rows[100 - i]
            assert (twin.theta_ray < 0.0) != (r.theta_ray < 0.0)
            walk = abs(r.theta_ray) * sc.medium.cell_length / 2.0
            if walk <= 0.01 * sc.control.waist:
                assert twin.theta_ray == pytest.approx(-r.theta_ray, rel=0.05)
                if math.isfinite(r.theta_wave) and math.isfinite(twin.theta_wave):
                    assert twin.theta_wave == pytest.approx(-r.theta_wave, rel=0.05)
                paired += 1
    assert paired >= 2
    assert rows[0].theta_ray * rows[-1].theta_ray < 0.0

    # the local-gradient deflection changes sign at the transparency
    # centre and at two detunings per side bracketing the local level
    # splitting
    ref = math.sqrt(rabi_at(sc.probe.offset, sc.control) ** 2 - sc.medium.gamma_cb**2)

    def theta(delta):
        return deflection_estimate(delta, sc.probe.offset, sc.medium, sc.control)

    deltas = [r.detuning for r in rows]
    est = [theta(d) for d in deltas]
    zeros = []
    for i in range(100):
        if est[i] * est[i + 1] < 0.0:
            a, b, fa = deltas[i], deltas[i + 1], est[i]
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = theta(m)
                if (fa < 0.0) == (fm < 0.0):
                    a, fa = m, fm
                else:
                    b = m
            zeros.append(0.5 * (a + b))
    assert len(zeros) == 5  # 0, +-delta_z1, +-delta_z2
    assert abs(zeros[2]) < TWO_PI * 1e3
    ratios = [abs(z) / ref for z in zeros[:2] + zeros[3:]]
    assert all(0.8 <= r <= 1.2 for r in ratios)
    # the positive zeros pin the curve; their mirror twins sit within 2 %
    # (the quadratic-in-chi part of n breaks exact oddness)
    assert ratios[2:] == pytest.approx([0.887450, 1.136413], rel=1e-4)
    assert ratios[1::-1] == pytest.approx([0.887450, 1.136413], rel=0.02)
    # the traced sweep itself changes sign inside the band on both sides
    for sign in (-1.0, 1.0):
        assert any(
            rows[i].theta_ray * rows[i + 1].theta_ray < 0.0
            and 0.8 * ref <= sign * 0.5 * (deltas[i] + deltas[i + 1]) <= 1.2 * ref
            for i in range(100)
        )

    # opposite launch shoulder: every usable angle flips sign
    mirrored = dataclasses.replace(
        sc, probe=dataclasses.replace(sc.probe, offset=-sc.probe.offset)
    )
    rows_l = detuning_sweep(mirrored, TWO_PI * -2e7, TWO_PI * 2e7, 101)
    compared = 0
    for r, l in zip(rows, rows_l):
        assert l.flags == r.flags
        if abs(r.theta_ray) > 1e-9:
            assert l.theta_ray == pytest.approx(-r.theta_ray, rel=0.05)
        if math.isfinite(r.theta_wave) and abs(r.theta_wave) > 1e-8:
            assert l.theta_wave == pytest.approx(-r.theta_wave, rel=0.05)
            compared += 1
    assert compared >= 3
    print(f"\nPASS — criterion 4 (deflection curve shape): zero at resonance, "
          f"odd-like window, T peak at 0, outer zeros at "
          f"{', '.join(f'{r:.3f}' for r in sorted(ratios))} of the splitting, "
          f"mirrored launch negates ({sweep_dt:.1f} s for the 101-point sweep)")


def test_criterion_5_angular_dispersion():
    t0 = time.perf_counter()
    sc = default_scene()
    disp, noise = angular_dispersion(sc)
    assert noise is None
    assert 1e2 <= abs(disp) <= 1e4
    ratio = abs(disp) / GLASS_DISPERSION_PER_NM
    assert ratio >= 1e6

    # same slope from the ray model, as a cross-check
    step = TWO_PI * 100.0
    hi = exit_angle(trace_ray(step, sc.probe.offset, 0.0, sc.medium, sc.control, sc.ray_steps))
    lo = exit_angle(trace_ray(-step, sc.probe.offset, 0.0, sc.medium, sc.control, sc.ray_steps))
    lam_per_rad = sc.medium.wavelength**2 / (TWO_PI * C_LIGHT) * 1e7
    disp_ray = -((hi - lo) / (2.0 * step)) / lam_per_rad
    assert disp == pytest.approx(disp_ray, rel=0.05)
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"\nPASS — criterion 5 (angular dispersion): d(theta)/d(lambda) = "
          f"{disp:.1f} rad/nm, {ratio:.2e} x glass prism, ray model agrees to "
          f"{abs(disp / disp_ray - 1.0):.1e} ({dt:.1f} s)")


def test_criterion_6_spectral_resolution():
    t0 = time.perf_counter()
    sc = default_scene()
    lo, hi, _ = sweep_bounds(RunConfig())  # the search stops at the stock span
    r_default, cause = spectral_resolution(sc, hi - lo)
    assert cause is None
    assert 1e10 <= r_default <= 1e13
    # far-field-limited figure: stable under doubling the flight distance
    far = [dataclasses.replace(sc, detector_distance=d) for d in (460.0, 920.0)]
    (r_460, cause_460), (r_920, cause_920) = (spectral_resolution(f, hi - lo) for f in far)
    assert cause_460 is None and cause_920 is None
    assert r_920 == pytest.approx(r_460, rel=0.10)
    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(f"\nPASS — criterion 6 (spectral resolution): R = {r_default:.3e} at "
          f"230 cm; 460 cm -> 920 cm drift {abs(r_920 / r_460 - 1.0):.1%} "
          f"({dt:.1f} s)")


def test_criterion_7_ray_wave_consistency():
    t0 = time.perf_counter()
    sc = default_scene()
    thin = dataclasses.replace(sc, medium=dataclasses.replace(sc.medium, density=3e9))
    worst = 0.0
    for hz in (3e4, -3e4, 1e5, -1e5, 3e5, -3e5):
        row = run_point(thin, TWO_PI * hz)
        assert row.flags == ()
        ratio = row.theta_wave / row.theta_ray
        worst = max(worst, abs(ratio - 1.0))
        assert abs(ratio - 1.0) <= 0.10
    dt = time.perf_counter() - t0
    print(f"\nPASS — criterion 7 (ray/wave consistency): worst angle "
          f"disagreement {worst:.1%} over 6 weak-absorption detunings "
          f"({dt:.1f} s)")


def test_criterion_8_numerical_hygiene():
    t0 = time.perf_counter()
    sc = default_scene()

    probe = make_gaussian_probe(sc.grid, sc.medium.wavelength, sc.probe.waist, sc.probe.offset)
    p_far = power(propagate_free(probe, sc.detector_distance))
    power_dev = abs(p_far - power(probe)) / power(probe)
    assert power_dev <= 1e-12

    delta = TWO_PI * 1e4
    out_a = propagate_medium(probe, delta, sc.medium, sc.control, 200)
    out_b = propagate_medium(probe, delta, sc.medium, sc.control, 400)
    slice_dev = abs(centroid(out_b) - centroid(out_a))
    assert slice_dev < 0.01 * sc.probe.waist

    ray_a = exit_angle(trace_ray(delta, sc.probe.offset, 0.0, sc.medium, sc.control, 10_000))
    ray_b = exit_angle(trace_ray(delta, sc.probe.offset, 0.0, sc.medium, sc.control, 20_000))
    assert abs(ray_b - ray_a) < 1e-8

    sweeps = [
        detuning_sweep(sc, TWO_PI * -4e5, TWO_PI * 4e5, 5, threads=t)
        for t in (1, 4, 4)
    ]
    # repr, not ==: SweepRow == is false for rows with NaN fields.
    assert repr(sweeps[0]) == repr(sweeps[1]) == repr(sweeps[2])
    dt = time.perf_counter() - t0
    print(f"\nPASS — criterion 8 (numerical hygiene): free-flight power drift "
          f"{power_dev:.1e}, slice-doubling centroid shift {slice_dev:.1e} cm, "
          f"step-halving angle shift {abs(ray_b - ray_a):.1e} rad, sweeps "
          f"bit-identical across threads and reruns ({dt:.1f} s)")
