"""Ray integrator: closed-form stubs, convergence, scene symmetries."""

import math

import numpy as np
import pytest

from eitprism.medium import ControlField, MediumParams, eta, grad_index, index_gradient
from eitprism.rays import (
    PARAXIAL_LIMIT,
    Trajectory,
    deflection_estimate,
    exit_angle,
    integrate_exits,
    integrate_gradient,
    trace_exits,
    trace_ray,
)
from eitprism import RunConfig, default_scene, sweep_bounds
from eitprism.experiment import estimate_parameters

TWO_PI = 2.0 * math.pi


def test_linear_gradient_stub():
    # d2x/dz2 = g: exit angle theta0 + g*L, position x0 + theta0*L + g*L^2/2.
    g, x0, theta0, length = 3.7e-4, 0.12, 1.5e-3, 7.5
    traj = integrate_gradient(lambda x: g, x0, theta0, length, 4000)
    assert exit_angle(traj) == pytest.approx(theta0 + g * length, rel=1e-12)
    assert traj.states[-1, 1] == pytest.approx(
        x0 + theta0 * length + 0.5 * g * length**2, rel=1e-12
    )
    assert not traj.paraxial_violation


def test_harmonic_gradient_stub():
    # d2x/dz2 = -k^2 x: x(z) = x0 cos(kz) + (theta0/k) sin(kz).
    k, x0, theta0, length = 2.4, 0.3, 0.01, 1.8
    traj = integrate_gradient(lambda x: -k * k * x, x0, theta0, length, 5000)
    expect_x = x0 * math.cos(k * length) + theta0 / k * math.sin(k * length)
    expect_v = -x0 * k * math.sin(k * length) + theta0 * math.cos(k * length)
    assert traj.states[-1, 1] == pytest.approx(expect_x, rel=1e-9)
    assert exit_angle(traj) == pytest.approx(expect_v, rel=1e-8)


def test_trajectory_shape():
    traj = integrate_gradient(lambda x: 0.0, 0.2, 0.0, 5.0, 250)
    assert traj.states.shape == (251, 3) and traj.states.dtype == np.float64
    assert traj.states[0].tolist() == [0.0, 0.2, 0.0]
    zs = traj.states[:, 0].tolist()
    assert all(b > a for a, b in zip(zs, zs[1:]))
    steps = [b - a for a, b in zip(zs, zs[1:])]
    assert max(steps) - min(steps) < 1e-12


def test_integrator_validation():
    with pytest.raises(ValueError):
        integrate_gradient(lambda x: 0.0, 0.0, 0.0, -1.0, 100)
    with pytest.raises(ValueError):
        integrate_gradient(lambda x: 0.0, 0.0, 0.0, 1.0, 0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            integrate_gradient(lambda x: 0.0, 0.0, 0.0, bad, 100)
    sc = default_scene()
    with pytest.raises(ValueError):
        trace_ray(0.0, sc.probe.offset, 0.0, sc.medium, sc.control, n_steps=50)
    # A non-finite launch would integrate to a NaN trajectory without a flag.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            trace_ray(0.0, bad, 0.0, sc.medium, sc.control, n_steps=100)
        with pytest.raises(ValueError):
            trace_ray(0.0, sc.probe.offset, bad, sc.medium, sc.control, n_steps=100)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trace_ray_rejects_non_finite_detuning(bad):
    sc = default_scene()
    x = sc.probe.offset
    with pytest.raises(ValueError):
        trace_ray(bad, x, 0.0, sc.medium, sc.control, n_steps=100)
    with pytest.raises(ValueError):
        grad_index(bad, x, sc.medium, sc.control)
    with pytest.raises(ValueError):
        deflection_estimate(bad, x, sc.medium, sc.control)
    # One bad element in an array of detunings is refused the same way.
    deltas = np.array([0.0, TWO_PI * 1e4, bad])
    for call in (
        lambda: index_gradient(deltas, sc.medium, sc.control),
        lambda: grad_index(deltas, np.full(3, x), sc.medium, sc.control),
        lambda: trace_exits(deltas, x, 0.0, sc.medium, sc.control, n_steps=100),
    ):
        with pytest.raises(ValueError, match="delta must be finite"):
            call()


def test_vacuum_cell_straight_ray():
    sc = default_scene()
    empty = MediumParams(
        wavelength=sc.medium.wavelength,
        density=0.0,
        gamma_r=sc.medium.gamma_r,
        gamma=sc.medium.gamma,
        gamma_cb=sc.medium.gamma_cb,
        cell_length=sc.medium.cell_length,
    )
    traj = trace_ray(TWO_PI * 1e4, 0.8, 2e-3, empty, sc.control, 1000)
    assert exit_angle(traj) == 2e-3
    assert traj.states[-1, 1] == pytest.approx(0.8 + 2e-3 * empty.cell_length, rel=1e-12)


def test_zero_control_straight_ray():
    sc = default_scene()
    quiet = ControlField(omega_peak=0.0, waist=sc.control.waist)
    traj = trace_ray(TWO_PI * 1e4, 0.8, 0.0, sc.medium, quiet, 1000)
    assert exit_angle(traj) == 0.0
    assert traj.states[-1, 1] == 0.8


def test_resonant_ray_nearly_straight():
    # On two-photon resonance the dispersive gradient vanishes to first
    # order; a second-order remnant of the residual absorption survives.
    sc = default_scene()
    traj = trace_ray(0.0, sc.probe.offset, 0.0, sc.medium, sc.control, 2000)
    assert abs(exit_angle(traj)) < 1e-9


def test_step_halving_convergence():
    sc = default_scene()
    args = (TWO_PI * 1e4, sc.probe.offset, 0.0, sc.medium, sc.control)
    coarse = exit_angle(trace_ray(*args, n_steps=10_000))
    fine = exit_angle(trace_ray(*args, n_steps=20_000))
    assert abs(fine - coarse) < 1e-8


def test_mirror_symmetry():
    sc = default_scene()
    for delta in (TWO_PI * 1e4, TWO_PI * 1e3):
        plus = exit_angle(
            trace_ray(delta, sc.probe.offset, 0.0, sc.medium, sc.control, 2000)
        )
        minus = exit_angle(
            trace_ray(delta, -sc.probe.offset, 0.0, sc.medium, sc.control, 2000)
        )
        assert minus == pytest.approx(-plus, rel=1e-12)


def test_reversed_gradient_negates_angle():
    g = 2.2e-4
    plus = exit_angle(integrate_gradient(lambda x: g, 0.1, 0.0, 7.5, 500))
    minus = exit_angle(integrate_gradient(lambda x: -g, 0.1, 0.0, 7.5, 500))
    assert minus == -plus


def _per_step_rk4(gradient, x0, theta0, length, n_steps):
    """Reference RK4: one (z, x, angle) row and one flag test per step."""
    dz = length / n_steps
    half = 0.5 * dz
    x, v = x0, theta0
    rows = [(0.0, x, v)]
    violated = abs(v) >= PARAXIAL_LIMIT
    for i in range(n_steps):
        k1v = gradient(x)
        k1x = v
        k2v = gradient(x + half * k1x)
        k2x = v + half * k1v
        k3v = gradient(x + half * k2x)
        k3x = v + half * k2v
        k4v = gradient(x + dz * k3x)
        k4x = v + dz * k3v
        x += dz * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        v += dz * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        if abs(v) >= PARAXIAL_LIMIT:
            violated = True
        rows.append(((i + 1) * dz, x, v))
    return np.array(rows), violated


def _assert_bitwise(traj, reference):
    rows, violated = reference
    assert traj.states.shape == rows.shape and traj.states.dtype == np.float64
    np.testing.assert_array_equal(
        np.ascontiguousarray(traj.states).view(np.uint64), rows.view(np.uint64)
    )
    assert traj.paraxial_violation is violated


@pytest.mark.parametrize("delta", [TWO_PI * 1e3, -TWO_PI * 4e5, TWO_PI * 4e6])
def test_trace_matches_per_step_reference_bitwise(delta):
    sc = default_scene()
    traj = trace_ray(delta, sc.probe.offset, 0.0, sc.medium, sc.control, sc.ray_steps)
    reference = _per_step_rk4(
        index_gradient(delta, sc.medium, sc.control),
        sc.probe.offset,
        0.0,
        sc.medium.cell_length,
        sc.ray_steps,
    )
    _assert_bitwise(traj, reference)


def _chain_rule_gradient(delta, p, c):
    """The gradient closure as the chain rule through n(chi(omega(x))):
    an independent kernel that rounds differently from the closed form."""
    rates = (p.gamma - 1j * delta) * (p.gamma_cb - 1j * delta)
    strength = eta(p) * p.gamma_r * (delta + 1j * p.gamma_cb)
    inv_w2 = 1.0 / (c.waist * c.waist)

    def gradient(x):
        u = x - c.center
        om = c.omega_peak * math.exp(-u * u * inv_w2)
        den = om * om + rates
        chi = strength / den
        n = (1.0 + 4.0 * math.pi * chi) ** 0.5
        dom_dx = -2.0 * u * inv_w2 * om
        return ((2.0 * math.pi / n) * (-2.0 * om * chi / den) * dom_dx).real

    return gradient


@pytest.mark.parametrize(
    "detuning_hz", [0.0, 1e4, -1e4, 1e5, -1e5, 4e5, -4e5, 4e6, -4e6, 2e7, -2e7]
)
def test_trace_matches_chain_rule_kernel(detuning_hz):
    # The closed-form kernel moves exit angles by round-off only: never a
    # printed (9 significant digit) angle and never the paraxial flag.
    sc = default_scene()
    delta = TWO_PI * detuning_hz
    traj = trace_ray(delta, sc.probe.offset, 0.0, sc.medium, sc.control, sc.ray_steps)
    ref = integrate_gradient(
        _chain_rule_gradient(delta, sc.medium, sc.control),
        sc.probe.offset,
        0.0,
        sc.medium.cell_length,
        sc.ray_steps,
    )
    a, b = exit_angle(traj), exit_angle(ref)
    assert abs(a - b) <= 1e-13 * abs(b)
    assert f"{a:.9g}" == f"{b:.9g}"
    assert traj.paraxial_violation is ref.paraxial_violation


@pytest.mark.parametrize(
    "gradient, x0, theta0, length",
    [
        (lambda x: 0.0, 0.0, 0.6, 1.0),
        (lambda x: 0.3, 0.0, 0.0, 2.0),
        # angle = sin(z): above the limit mid-cell, back near 0 at the exit
        (lambda x: -x, -1.0, 0.0, math.pi),
    ],
    ids=["steep_launch", "constant_gradient", "rise_and_fall"],
)
def test_stub_matches_per_step_reference_bitwise(gradient, x0, theta0, length):
    traj = integrate_gradient(gradient, x0, theta0, length, 100)
    _assert_bitwise(traj, _per_step_rk4(gradient, x0, theta0, length, 100))
    assert traj.paraxial_violation


def test_paraxial_flag():
    traj = integrate_gradient(lambda x: 0.0, 0.0, 0.6, 1.0, 100)
    assert traj.paraxial_violation
    traj = integrate_gradient(lambda x: 0.3, 0.0, 0.0, 2.0, 100)
    assert traj.paraxial_violation  # angle reaches 0.6 along the way
    sc = default_scene()
    assert not trace_ray(
        TWO_PI * 1e4, sc.probe.offset, 0.0, sc.medium, sc.control, 1000
    ).paraxial_violation


def test_deflection_estimate_dense_cell():
    # The one-line thin-cell estimate on the dense hot-cell parameter set.
    medium, control, delta, offset = estimate_parameters()
    theta = deflection_estimate(delta, offset, medium, control)
    assert theta == pytest.approx(-0.0996015, rel=1e-5)
    assert 0.03 <= abs(theta) <= 0.3


def test_deflection_estimate_trivial_zeros():
    medium, control, delta, offset = estimate_parameters()
    assert deflection_estimate(delta, control.center, medium, control) == 0.0
    # On resonance the dispersive part vanishes; in the dilute cell the
    # second-order absorption remnant is negligible too.
    sc = default_scene()
    assert abs(deflection_estimate(0.0, sc.probe.offset, sc.medium, sc.control)) < 1e-9


def test_estimate_matches_trace_for_small_walk():
    # When the ray barely moves transversely, the frozen-gradient estimate
    # must agree with the integrated ray.
    sc = default_scene()
    delta = TWO_PI * 1e4
    est = deflection_estimate(delta, sc.probe.offset, sc.medium, sc.control)
    traj = trace_ray(delta, sc.probe.offset, 0.0, sc.medium, sc.control, 4000)
    walk = abs(traj.states[-1, 1] - sc.probe.offset)
    assert walk < sc.control.waist / 10.0
    assert exit_angle(traj) == pytest.approx(est, rel=0.05)


def _stock_deltas():
    """The detunings of the stock 101-row sweep, as detuning_sweep spaces them."""
    d_min, d_max, n = sweep_bounds(RunConfig())
    step = (d_max - d_min) / (n - 1)
    return [d_min + i * step for i in range(n)]


@pytest.fixture(scope="module")
def stock_batch():
    sc = default_scene()
    deltas = _stock_deltas()
    thetas, flags = trace_exits(
        deltas, sc.probe.offset, 0.0, sc.medium, sc.control, sc.ray_steps
    )
    return sc, deltas, thetas, flags


def test_batch_matches_scalar_traces_on_stock_rows(stock_batch):
    # numpy's exp and complex arithmetic round differently from Python's
    # in the last bits, never in a printed (9 significant digit) angle.
    sc, deltas, thetas, flags = stock_batch
    assert thetas.shape == flags.shape == (101,) and thetas.dtype == np.float64
    for delta, theta, flag in zip(deltas, thetas.tolist(), flags.tolist()):
        traj = trace_ray(delta, sc.probe.offset, 0.0, sc.medium, sc.control, sc.ray_steps)
        ref = exit_angle(traj)
        assert abs(theta - ref) <= 1e-13 * abs(ref)
        assert f"{theta:.9g}" == f"{ref:.9g}"
        assert flag is traj.paraxial_violation


def test_batch_rows_independent_of_batch(stock_batch):
    # Two sub-batches of odd sizes put every row at another position.
    sc, deltas, thetas, flags = stock_batch
    parts = [
        trace_exits(part, sc.probe.offset, 0.0, sc.medium, sc.control, sc.ray_steps)
        for part in (deltas[:37], deltas[37:])
    ]
    joined = np.concatenate([t for t, _ in parts])
    np.testing.assert_array_equal(joined.view(np.uint64), thetas.view(np.uint64))
    np.testing.assert_array_equal(np.concatenate([f for _, f in parts]), flags)


def test_batch_stub_flags_match_scalar_integrator():
    # x'' = -x from (x0, theta0) gives angle = theta0 cos(z) - x0 sin(z).
    # Over [0, pi] a ray from x0 = -1 rises past the limit mid-cell and is
    # back near 0 at the exit, and one from -0.3 peaks at 0.3.  Over
    # [0, 1] a ray launched on the limit only falls from there.
    gradient = lambda x: -x  # noqa: E731
    cases = [
        (np.array([-1.0, -0.3]), np.zeros(2), math.pi, [True, False]),
        (np.array([0.0]), np.array([PARAXIAL_LIMIT]), 1.0, [True]),
    ]
    for x0, theta0, length, expect in cases:
        thetas, flags = integrate_exits(gradient, x0, theta0, length, 100)
        exact = theta0 * math.cos(length) - x0 * math.sin(length)
        np.testing.assert_allclose(thetas, exact, rtol=0.0, atol=1e-6)
        assert flags.tolist() == expect
        for i in range(len(x0)):
            traj = integrate_gradient(gradient, x0[i], theta0[i], length, 100)
            assert thetas[i] == exit_angle(traj)  # same RK4 loop, real arithmetic
            assert flags[i] == traj.paraxial_violation


def test_batch_nan_angle_never_flags():
    # Row 1's gradient is NaN: its angle turns NaN and its flag stays off.
    thetas, flags = integrate_exits(
        lambda x: np.array([0.0, math.nan]) * x, np.ones(2), np.zeros(2), 1.0, 100
    )
    assert thetas[0] == 0.0 and math.isnan(thetas[1])
    assert flags.tolist() == [False, False]


def test_batch_validation():
    sc = default_scene()
    with pytest.raises(ValueError):
        trace_exits([0.0], sc.probe.offset, 0.0, sc.medium, sc.control, n_steps=50)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            trace_exits([0.0], bad, 0.0, sc.medium, sc.control, n_steps=100)
        with pytest.raises(ValueError):
            integrate_exits(lambda x: x, np.zeros(2), np.array([0.0, bad]), 1.0, 100)
    with pytest.raises(ValueError):
        integrate_exits(lambda x: x, np.zeros(2), np.zeros(2), 1.0, 0)
