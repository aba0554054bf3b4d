"""Susceptibility, refractive index and transverse gradient."""

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
    index_profile,
    rabi_at,
    re_chi,
    refractive_index,
)

TWO_PI = 2.0 * math.pi


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


def random_params(rng):
    return make_params(
        wavelength=10.0 ** rng.uniform(-4.5, -3.5),
        density=10.0 ** rng.uniform(9.0, 14.0),
        gamma_r=TWO_PI * 10.0 ** rng.uniform(5.0, 8.0),
        gamma=TWO_PI * 10.0 ** rng.uniform(4.0, 9.5),
        gamma_cb=TWO_PI * 10.0 ** rng.uniform(0.0, 6.0),
        cell_length=10.0 ** rng.uniform(-1.0, 1.5),
    )


def random_point(rng):
    # Omega is tied to gamma (coupling from well below to tens of linewidths)
    # so the comparison stays well conditioned near the curve zeros.
    p = random_params(rng)
    omega = 0.0 if rng.uniform() < 0.05 else p.gamma * 10.0 ** rng.uniform(-3.0, 1.5)
    if rng.uniform() < 0.05:
        delta = 0.0
    else:
        delta = rng.choice([-1.0, 1.0]) * TWO_PI * 10.0 ** rng.uniform(0.0, 9.0)
    return delta, omega, p


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


def test_complex_chi_rejects_overflowing_denominator():
    # From |delta| near 1.3e154 rad/s the denominator's rate product
    # overflows, and chi would come out 0 (or NaN) with a RuntimeWarning
    # for an array.  Such a detuning is refused, alone or in an array; at
    # 1e153 Hz chi is finite, and falls off as 1/delta.
    p, omega = ESTIMATE, TWO_PI * 1e6
    for delta in (TWO_PI * 1e160, np.array([0.0, -TWO_PI * 1e160]), TWO_PI * 1e300):
        with pytest.raises(ValueError, match="susceptibility overflows"):
            complex_chi(delta, omega, p)
    big = TWO_PI * 1e153
    chi = complex_chi(np.array([-big, big]), omega, p)
    tail = eta(p) * p.gamma_r / big
    assert chi.real.tolist() == pytest.approx([tail, -tail], rel=1e-12)


def test_real_part_identity_randomized():
    # Deviation is measured against the susceptibility magnitude: both
    # expressions cancel exactly at the curve zeros, where a pointwise
    # relative comparison would divide by zero.
    rng = np.random.default_rng(20260814)
    for _ in range(2000):
        delta, omega, p = random_point(rng)
        a = re_chi(delta, omega, p)
        chi = complex_chi(delta, omega, p)
        assert abs(a - chi.real) <= 1e-12 * max(abs(a), abs(chi))


def test_symmetries_and_passivity_randomized():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        delta, omega, p = random_point(rng)
        assert re_chi(-delta, omega, p) == -re_chi(delta, omega, p)
        plus = complex_chi(delta, omega, p)
        minus = complex_chi(-delta, omega, p)
        assert minus.imag == pytest.approx(plus.imag, rel=1e-12)
        assert plus.imag > 0.0


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


def test_refractive_index_rejects_nonphysical():
    with pytest.raises(ValueError):
        refractive_index(-0.1)
    with pytest.raises(ValueError):
        refractive_index(np.array([1e-4, -0.1 + 0.0j]))


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


def grad_index_chain_rule(delta, x, p, c):
    """The gradient by the chain rule through n(chi(omega(x))), step by
    step: an independent reference that rounds differently."""
    u = x - c.center
    inv_w2 = 1.0 / (c.waist * c.waist)
    om = c.omega_peak * math.exp(-u * u * inv_w2)
    den = om * om + (p.gamma - 1j * delta) * (p.gamma_cb - 1j * delta)
    chi = eta(p) * p.gamma_r * (delta + 1j * p.gamma_cb) / den
    n = (1.0 + 4.0 * math.pi * chi) ** 0.5
    dom_dx = -2.0 * u * inv_w2 * om
    return ((2.0 * math.pi / n) * (-2.0 * om * chi / den) * dom_dx).real


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
        b = grad_index_chain_rule(delta, x, p, c)
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


def test_validation():
    with pytest.raises(ValueError):
        make_params(wavelength=0.0)
    with pytest.raises(ValueError):
        make_params(density=-1.0)
    with pytest.raises(ValueError):
        make_params(gamma=0.0)
    with pytest.raises(ValueError):
        make_params(gamma_cb=-1.0)
    with pytest.raises(ValueError):
        make_params(cell_length=0.0)
    with pytest.raises(ValueError):
        ControlField(omega_peak=-1.0, waist=1.0)
    with pytest.raises(ValueError):
        ControlField(omega_peak=1.0, waist=0.0)
