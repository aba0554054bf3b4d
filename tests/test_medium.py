"""Susceptibility, refractive index and transverse gradient.  Refused inputs
are cases of test_refusals; chi's randomized identity and symmetries are
acceptance criterion 1."""

import cmath
import math

import numpy as np
import pytest

from eitprism.medium import (
    ControlField,
    MediumParams,
    complex_chi,
    eta,
    grad_index,
    grad_index_fd,
    index_and_slope,
    index_profile,
    rabi_at,
    re_chi,
    refractive_index,
)

from eitprism import default_scene, experiment
from reference import SCENE_DELTAS, TWO_PI, chain_rule_gradient, random_point


def make_params(**kw):
    base = dict(
        wavelength=7.95e-5,
        density=3e11,
        gamma_r=TWO_PI * 5.75e6,
        gamma=TWO_PI * 1.5e6,
        gamma_cb=TWO_PI * 1e3,
        cell_length=7.5,
    )
    base.update(kw)
    return MediumParams(**base)


# Parameter set behind the textbook theta ~ 0.1 estimate: hot dense cell,
# Doppler-broadened line, weak tight control beam.
ESTIMATE = make_params(density=1e13, gamma=TWO_PI * 300e6, cell_length=10.0)


def test_eta_hand_values():
    # 3 * lambda^3 * N / (16 pi^2), evaluated by hand.
    assert eta(make_params(density=1e13)) == pytest.approx(9.5455930e-2, rel=1e-7)
    assert eta(make_params(density=3e11)) == pytest.approx(2.8636779e-3, rel=1e-7)
    assert eta(make_params(density=0.0)) == 0.0


def test_eta_scaling():
    p1 = make_params(density=1e11)
    p2 = make_params(density=5e11)
    assert eta(p2) == pytest.approx(5.0 * eta(p1), rel=1e-14)
    p3 = make_params(wavelength=2 * 7.95e-5)
    assert eta(p3) == pytest.approx(8.0 * eta(p1) * 3e11 / 1e11, rel=1e-14)


def test_re_chi_hand_example():
    # Dispersive susceptibility 1 kHz inside the transparency window of the
    # dense-cell estimate scene.  The reference was hand-evaluated with the
    # 3-digit coupling strength eta = 9.54e-2, hence the loose tolerance.
    val = re_chi(TWO_PI * 1e3, TWO_PI * 1e6, ESTIMATE)
    assert val == pytest.approx(3.08173887e-4, rel=2e-3)
    assert 2.5e-4 < val < 1e-3


def test_re_chi_resonance_zero():
    assert re_chi(0.0, TWO_PI * 1e6, ESTIMATE) == 0.0


def test_complex_chi_resonance_value():
    p = ESTIMATE
    omega = TWO_PI * 1e6
    val = complex_chi(0.0, omega, p)
    assert val.real == 0.0
    closed = eta(p) * p.gamma_r * p.gamma_cb / (omega**2 + p.gamma * p.gamma_cb)
    assert val.imag == pytest.approx(closed, rel=1e-12)
    # Hand value computed with the rounded eta = 9.54e-2.
    assert val.imag == pytest.approx(4.21961538e-4, rel=2e-3)


def test_complex_chi_two_level_limit():
    # No control field, on resonance: bare-line absorption eta*gamma_r/gamma.
    p = ESTIMATE
    val = complex_chi(0.0, 0.0, p)
    assert val.real == 0.0
    assert val.imag == pytest.approx(eta(p) * p.gamma_r / p.gamma, rel=1e-12)


def test_complex_chi_finite_below_overflow():
    # From |delta| near 1.3e154 rad/s the denominator's rate product
    # overflows, and such a detuning is refused (see test_refusals); at
    # 1e153 Hz chi is finite, and falls off as 1/delta.
    p, omega = ESTIMATE, TWO_PI * 1e6
    big = TWO_PI * 1e153
    chi = complex_chi(np.array([-big, big]), omega, p)
    tail = eta(p) * p.gamma_r / big
    assert chi.real.tolist() == pytest.approx([tail, -tail], rel=1e-12)


def test_re_chi_outer_zero_by_bisection():
    # Sign change captured around the analytic root sqrt(Omega^2 - gamma_cb^2).
    p = make_params()
    omega = TWO_PI * 1e6
    root = math.sqrt(omega**2 - p.gamma_cb**2)
    lo, hi = 0.5 * root, 1.5 * root
    assert re_chi(lo, omega, p) > 0.0 > re_chi(hi, omega, p)
    while hi - lo > 1e-10 * root:
        mid = 0.5 * (lo + hi)
        if re_chi(mid, omega, p) > 0.0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(root, rel=1e-9)


def test_re_chi_sign_pattern_around_outer_zeros():
    # Ascending detuning: positive inside the window, negative outside, at
    # both outer zeros (odd function).
    p = make_params()
    omega = TWO_PI * 1e6
    root = math.sqrt(omega**2 - p.gamma_cb**2)
    assert re_chi(0.9 * root, omega, p) > 0.0
    assert re_chi(1.1 * root, omega, p) < 0.0
    assert re_chi(-1.1 * root, omega, p) > 0.0
    assert re_chi(-0.9 * root, omega, p) < 0.0


@pytest.mark.parametrize(
    "p,omega",
    [(ESTIMATE, TWO_PI * 1e6), (make_params(gamma=TWO_PI * 300e6), TWO_PI * 1e7)],
)
def test_re_chi_peak_pair_inside_window_broad_line(p, omega):
    # Broad optical line: the largest |re_chi| maxima sit inside +-Omega.
    deltas = np.linspace(-3 * omega, 3 * omega, 120_001)
    vals = re_chi(deltas, omega, p)
    peak = deltas[np.argmax(np.abs(vals))]
    assert 0.0 < abs(peak) < omega
    # The mirrored detuning attains the same magnitude.
    assert abs(re_chi(-peak, omega, p)) == pytest.approx(abs(re_chi(peak, omega, p)), rel=1e-12)


def test_re_chi_peak_pair_narrow_line():
    # Narrow line (default scene regime): the maxima move onto the dressed
    # resonances and land just outside Omega, within half a linewidth.
    p = make_params()
    omega = TWO_PI * 1e7
    deltas = np.linspace(-3 * omega, 3 * omega, 120_001)
    vals = re_chi(deltas, omega, p)
    peak = abs(deltas[np.argmax(np.abs(vals))])
    assert omega < peak < omega + p.gamma


def test_refractive_index_hand_values():
    assert refractive_index(0.0) == 1.0
    n = refractive_index(1e-4)
    assert n.imag == 0.0
    assert n.real == pytest.approx(1.000628121, abs=1e-9)
    n = refractive_index(1e-4j)
    assert n.imag == pytest.approx(6.28318407e-4, rel=1e-8)
    assert n.real == pytest.approx(1.0, abs=1e-6)


def test_refractive_index_weak_chi_expansion():
    chi = 3e-6 + 1e-6j
    n = refractive_index(chi)
    approx = 1.0 + 2.0 * math.pi * chi
    assert abs(n - approx) < 4.0 * math.pi**2 * abs(chi) ** 2


def test_rabi_profile():
    c = ControlField(omega_peak=TWO_PI * 1e7, waist=3.6, center=0.5)
    assert rabi_at(0.5, c) == c.omega_peak
    assert rabi_at(0.5 + 3.6, c) == pytest.approx(c.omega_peak / math.e, rel=1e-12)
    assert rabi_at(0.5 - 3.6, c) == pytest.approx(c.omega_peak / math.e, rel=1e-12)
    assert rabi_at(0.5 + 40 * 3.6, c) == 0.0 or rabi_at(0.5 + 40 * 3.6, c) < 1e-300


def test_index_profile_basics():
    p = make_params()
    c = ControlField(omega_peak=TWO_PI * 1e7, waist=3.6)
    xs = np.linspace(-4.0, 4.0, 801)

    # On resonance the dispersive part survives only at second order in the
    # (tiny) absorption; the profile is flat to well below 1e-10.
    n0 = index_profile(0.0, xs, p, c)
    assert np.max(np.abs(n0.real - 1.0)) < 1e-10

    # Uniform control, uniform index.
    nu = index_profile(TWO_PI * 1e4, xs, p, ControlField(TWO_PI * 1e7, 3.6e9))
    assert np.max(np.abs(nu - nu[0])) < 1e-15

    # Symmetric grid, symmetric profile.
    ns = index_profile(TWO_PI * 1e4, xs, p, c)
    assert np.allclose(ns, ns[::-1], rtol=0.0, atol=1e-15)

    # Empty cell.
    nv = index_profile(TWO_PI * 1e4, xs, make_params(density=0.0), c)
    assert np.all(nv == 1.0)

    # Far outside the control beam the index approaches the no-control value.
    far = index_profile(TWO_PI * 1e4, np.array([200.0]), p, c)[0]
    bare = refractive_index(complex_chi(TWO_PI * 1e4, 0.0, p))
    assert far == pytest.approx(bare, rel=1e-12)


def test_grad_index_against_finite_difference():
    # In-window detunings: the profile varies on the control-waist scale
    # there, so the waist/1e4 difference step resolves it cleanly.
    p = make_params()
    c = ControlField(omega_peak=TWO_PI * 1e7, waist=3.6)
    for delta in (TWO_PI * 1e3, TWO_PI * 1e4, -TWO_PI * 3e4, TWO_PI * 1e6):
        for x in (0.4, 2.5455844122715708, -1.7, 3.3):
            a = grad_index(delta, x, p, c)
            b = grad_index_fd(delta, x, p, c)
            assert a == pytest.approx(b, rel=1e-6)
    e_c = ControlField(omega_peak=TWO_PI * 1e6, waist=0.05)
    a = grad_index(TWO_PI * 1e3, 0.05 / math.sqrt(2), ESTIMATE, e_c)
    b = grad_index_fd(TWO_PI * 1e3, 0.05 / math.sqrt(2), ESTIMATE, e_c)
    assert a == pytest.approx(b, rel=1e-6)


def grad_index_per_call(delta, x, p, c):
    """The closed-form gradient with every factor recomputed on each call,
    in the hoisted closure's order: the reference it must match exactly."""
    strength = eta(p) * p.gamma_r * (delta + 1j * p.gamma_cb)
    w2 = c.waist * c.waist
    u = x - c.center
    q = (c.omega_peak * c.omega_peak) * math.exp(-2.0 / w2 * u * u)
    den = q + (p.gamma - 1j * delta) * (p.gamma_cb - 1j * delta)
    root = cmath.sqrt(1.0 + 4.0 * math.pi * strength / den)
    return 2.0 * (4.0 * math.pi) / w2 * u * q * (strength / (den * den * root)).real


def random_gradient_points():
    rng = np.random.default_rng(11)
    for _ in range(300):
        delta, omega, p = random_point(rng)
        c = ControlField(
            omega_peak=omega, waist=10.0 ** rng.uniform(-2.0, 1.0), center=rng.uniform(-1.0, 1.0)
        )
        x = c.center + c.waist * rng.uniform(-3.0, 3.0)
        yield delta, x, p, c


def test_grad_index_matches_per_call_formula():
    # The detunings are np.float64, which grad_index takes as the Python
    # floats they hold: the reference is given those floats.
    for delta, x, p, c in random_gradient_points():
        assert grad_index(delta, x, p, c) == grad_index_per_call(float(delta), x, p, c)


def test_grad_index_matches_chain_rule_formula():
    for delta, x, p, c in random_gradient_points():
        a = grad_index(delta, x, p, c)
        b = chain_rule_gradient(delta, p, c)(x)
        assert abs(a - b) <= 1e-13 * abs(b)


def test_grad_index_symmetries():
    p = make_params()
    c = ControlField(omega_peak=TWO_PI * 1e7, waist=3.6, center=0.25)
    delta = TWO_PI * 1e4
    assert grad_index(delta, c.center, p, c) == 0.0
    for a in (0.3, 1.1, 2.5):
        left = grad_index(delta, c.center - a, p, c)
        right = grad_index(delta, c.center + a, p, c)
        assert left == pytest.approx(-right, rel=1e-12)
    # On resonance the gradient survives only at second order.
    assert abs(grad_index(0.0, c.center + 2.5, p, c)) < 1e-10


def test_index_slope_matches_finite_difference_and_grad_index():
    # On the stock probe window, at every stock, near-resonance and imaging
    # detuning: the index is index_profile's, bit for bit; the complex
    # slope matches a five-point central difference of index_profile with
    # step waist / 1e3 within 1e-6 of |dn/dx| (measured: 7.1e-8); and its
    # real part is grad_index's within 1e-12 of |dn/dx| (measured: 5.3e-15).
    # That scale, not |Re dn/dx|: at -7.2 MHz the real part is 1e-4 of the
    # imaginary one, and the two roundings of it differ by 9.5e-12 of it.
    sc = default_scene()
    p, c = sc.medium, sc.control
    xs = experiment.launch_probe(sc).grid.xs()
    step = c.waist / 1e3
    for delta in SCENE_DELTAS:
        n, slope = index_and_slope(delta, xs, p, c)
        assert n.tobytes() == index_profile(delta, xs, p, c).tobytes()
        at = [index_profile(delta, xs + k * step, p, c) for k in (-2, -1, 1, 2)]
        fd = (at[0] - 8.0 * at[1] + 8.0 * at[2] - at[3]) / (12.0 * step)
        assert np.all(abs(slope - fd) <= 1e-6 * abs(slope))
        ray = grad_index(np.full(xs.shape, delta), xs, p, c)
        assert np.all(abs(slope.real - ray) <= 1e-12 * abs(slope))
    # Past the 1.2e77 rad/s where the ray gradient's D**2 overflows, and up
    # to where chi's D does, the slope stays finite (an overflow warning
    # would fail the test).
    for delta in (1e100, 1e153):
        n, slope = index_and_slope(delta, xs, p, c)
        assert np.isfinite(slope).all() and np.isfinite(n).all()


def test_index_slope_is_the_written_out_closed_form_bitwise():
    # The slope, built on complex_chi, is the closed form
    # (8 pi u q / waist^2) S / D / (D n) with chi's numerator S and
    # denominator D written out here, bit for bit, on every stock,
    # near-resonance and imaging detuning and where D**2 alone overflows.
    sc = default_scene()
    p, c = sc.medium, sc.control
    xs = experiment.launch_probe(sc).grid.xs()
    u = xs - c.center
    omega = c.omega_peak * np.exp(-(u / c.waist) * (u / c.waist))
    q = omega * omega
    for delta in SCENE_DELTAS + [1e100, 1e153]:
        n, slope = index_and_slope(delta, xs, p, c)
        den = q + (p.gamma - 1j * delta) * (p.gamma_cb - 1j * delta)
        strength = eta(p) * p.gamma_r * (delta + 1j * p.gamma_cb)
        want = (8.0 * math.pi / (c.waist * c.waist)) * u * q * (strength / den / (den * n))
        assert slope.tobytes() == want.tobytes()
