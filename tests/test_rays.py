"""Ray integrator and batched exit angles: closed-form stubs, convergence,
scene symmetries, agreement with RK4."""

import math
import tracemalloc

import numpy as np
import pytest

from eitprism.medium import ControlField, MediumParams, eta, grad_index, index_gradient
from eitprism.rays import (
    BLOCK_ROWS,
    EXTRAPOLATIONS,
    MACRO_STEPS,
    PARAXIAL_LIMIT,
    Trajectory,
    deflection_estimate,
    exit_angle,
    exit_angles,
    integrate_gradient,
    ray_exits,
    trace_ray,
)
from eitprism import RunConfig, default_scene, sweep_bounds
from eitprism.experiment import estimate_parameters
from reference import exit_angles_per_count

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
        lambda: ray_exits(deltas, x, sc.medium, sc.control),
    ):
        with pytest.raises(ValueError, match="delta must be finite"):
            call()


def test_huge_detuning_rejected():
    # From |delta| near 1.2e77 rad/s the square of the gradient's rate
    # product overflows float64 and the gradient would come out NaN, so
    # such a detuning is refused as a non-finite one is.  At 1e76 Hz the
    # gradient is still finite: 3.0e-210 per cm.
    sc = default_scene()
    x = sc.probe.offset
    huge = TWO_PI * 1e77
    for call in (
        lambda: grad_index(huge, x, sc.medium, sc.control),
        lambda: grad_index(-huge, x, sc.medium, sc.control),
        lambda: trace_ray(huge, x, 0.0, sc.medium, sc.control, n_steps=100),
        lambda: ray_exits([0.0, -huge], x, sc.medium, sc.control),
        # Here the rate product itself overflows, before its square.
        lambda: ray_exits([0.0, TWO_PI * 1e160], x, sc.medium, sc.control),
    ):
        with pytest.raises(ValueError, match="delta too large"):
            call()
    big = TWO_PI * 1e76
    assert grad_index(big, x, sc.medium, sc.control) == pytest.approx(3.0e-210, rel=0.01)
    thetas, flags, certified = ray_exits([-big, big], x, sc.medium, sc.control)
    assert np.isfinite(thetas).all() and certified.all() and not flags.any()


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


def test_numpy_scalar_detuning_is_a_float():
    # An np.float64 detuning traces the ray of the Python float it holds,
    # state for state and bit for bit: numpy's complex arithmetic rounds
    # the gradient differently (the states at 2 MHz were not equal) and
    # costs twice the time per step.
    sc = default_scene()
    delta = TWO_PI * 2e6
    assert type(index_gradient(np.float64(delta), sc.medium, sc.control)(0.1)) is float
    args = (sc.probe.offset, 0.0, sc.medium, sc.control, sc.ray_steps)
    want, got = trace_ray(delta, *args), trace_ray(np.float64(delta), *args)
    np.testing.assert_array_equal(got.states.view(np.uint64), want.states.view(np.uint64))
    assert got.paraxial_violation is want.paraxial_violation


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


def _sweep_deltas(d_min, d_max, n_points):
    """The detunings of a sweep, as detuning_sweep spaces them."""
    step = (d_max - d_min) / (n_points - 1)
    return [d_min + i * step for i in range(n_points)]


STOCK_DELTAS = _sweep_deltas(*sweep_bounds(RunConfig()))
# The rows of the near-resonance benchmark and the imaging detunings.
NEAR_DELTAS = _sweep_deltas(TWO_PI * -4e5, TWO_PI * 4e5, 41)
IMAGING_DELTAS = [TWO_PI * hz for hz in (1e4, -1e4, 1e5, -1e5, 2e5, -2e5, 4e5, -4e5)]


def _assert_matches_scalar_traces(deltas):
    # Equal at 9 significant digits and within 1e-11 relative: RK4 at the
    # stock 10k steps is itself within 3.5e-12 of the exact angle on the
    # hardest stock rows (against 40k steps), and the batch's extrapolated
    # steps are certified closer than that.  No row falls back to RK4.
    sc = default_scene()
    thetas, flags, certified = ray_exits(deltas, sc.probe.offset, sc.medium, sc.control)
    assert thetas.shape == flags.shape == certified.shape == (len(deltas),)
    assert thetas.dtype == np.float64 and certified.all()
    for delta, theta, flag in zip(deltas, thetas.tolist(), flags.tolist()):
        traj = trace_ray(
            delta, sc.probe.offset, 0.0, sc.medium, sc.control, sc.ray_steps
        )
        ref = exit_angle(traj)
        assert abs(theta - ref) <= 1e-11 * abs(ref)
        assert f"{theta:.9g}" == f"{ref:.9g}"
        assert flag is traj.paraxial_violation
    return thetas


def test_batch_matches_scalar_traces_on_stock_rows():
    thetas = _assert_matches_scalar_traces(STOCK_DELTAS)
    # Six stock rays turn inside the cell and leave against their launch
    # gradient, so rays that turn are covered too.
    sc = default_scene()
    launch = index_gradient(np.array(STOCK_DELTAS), sc.medium, sc.control)(
        np.full(len(STOCK_DELTAS), sc.probe.offset)
    )
    assert int((thetas * launch < 0.0).sum()) == 6


def test_batch_matches_scalar_traces_near_resonance_and_imaging():
    _assert_matches_scalar_traces(NEAR_DELTAS + IMAGING_DELTAS)


def test_batch_rows_independent_of_batch():
    # Sub-batches of 37 and 64 rows put every row at another position.
    sc = default_scene()
    args = (sc.probe.offset, sc.medium, sc.control)
    whole = ray_exits(STOCK_DELTAS, *args)
    parts = [ray_exits(part, *args) for part in (STOCK_DELTAS[:37], STOCK_DELTAS[37:])]
    thetas, flags, certified = (np.concatenate(column) for column in zip(*parts))
    np.testing.assert_array_equal(thetas.view(np.uint64), whole[0].view(np.uint64))
    np.testing.assert_array_equal(flags, whole[1])
    np.testing.assert_array_equal(certified, whole[2])


# Stock-scene detunings whose rays graze a near-double zero of dN, the rise
# of Re n from the launch: the ray nearly stops and then goes on.
GRAZING_DELTAS = [
    TWO_PI * mhz * 1e6
    for mhz in (
        -7.78, -7.76, -6.84, 4.1, 4.12, 4.14, 4.16, 4.18, 4.2, 4.22, 5.38, 5.9, 5.92
    )
]


def test_batch_matches_scalar_traces_on_grazing_rows():
    # Within 2e-11 of the ray's largest |angle|, which is only 7.4e-4 at
    # 5.38 MHz: there RK4 at the stock 10k steps is itself 1.5e-11 of it
    # off an extended-precision integration, from the rounding of x that
    # its steps sum up.
    sc = default_scene()
    thetas, flags, certified = ray_exits(
        GRAZING_DELTAS, sc.probe.offset, sc.medium, sc.control
    )
    assert certified.all()
    for delta, theta, flag in zip(GRAZING_DELTAS, thetas.tolist(), flags.tolist()):
        traj = trace_ray(
            delta, sc.probe.offset, 0.0, sc.medium, sc.control, sc.ray_steps
        )
        ref = exit_angle(traj)
        assert abs(theta - ref) <= 2e-11 * np.abs(traj.states[:, 2]).max()
        assert f"{theta:.9g}" == f"{ref:.9g}"
        assert flag is traj.paraxial_violation


def test_batch_certifies_a_fine_stock_scan():
    # 2001 stock-scene detunings at 20 kHz spacing over +-20 MHz, the
    # grazing rows among them: none falls back to RK4.
    sc = default_scene()
    deltas = TWO_PI * np.linspace(-2e7, 2e7, 2001)
    assert ray_exits(deltas, sc.probe.offset, sc.medium, sc.control)[2].all()


def test_batch_blocks_change_no_bit():
    # 2001 rows are two blocks of at most BLOCK_ROWS, whose concatenation
    # equals the unblocked batch bit for bit.
    sc = default_scene()
    deltas = TWO_PI * np.linspace(-2e7, 2e7, 2001)
    assert BLOCK_ROWS < deltas.size
    whole = exit_angles(
        index_gradient(deltas, sc.medium, sc.control),
        np.full(deltas.shape, sc.probe.offset),
        sc.medium.cell_length,
    )
    _assert_bitwise_equal(
        ray_exits(deltas, sc.probe.offset, sc.medium, sc.control), whole
    )


def test_batch_memory_bounded():
    # 10**5 stock-scene detunings in one batch peaked at 101.6 MB of traced
    # memory, from exit_angles' (EXTRAPOLATIONS, B) temporaries; in blocks
    # the peak is about 3 MB.
    sc = default_scene()
    deltas = TWO_PI * np.linspace(-2e7, 2e7, 10**5)
    tracemalloc.start()
    try:
        ray_exits(deltas, sc.probe.offset, sc.medium, sc.control)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


@pytest.mark.parametrize("half_periods", [0.3, 0.7, 0.999, 1.4, 2.6, 5.5])
def test_exit_angles_harmonic_stub(half_periods):
    # g = -k^2 (x - c): from rest at x0 the angle is -k (x0 - c) sin(kz),
    # and the ray turns at 2c - x0 and back every half-period pi/k.
    k, c = 1.3, 0.2
    x0 = c + np.array([-0.33, 0.3, 0.05, -0.6])
    length = half_periods * math.pi / k
    thetas, flags, certified = exit_angles(lambda x: -k * k * (x - c), x0, length)
    exact = -k * (x0 - c) * math.sin(k * length)
    peak = k * np.abs(x0 - c) * math.sin(min(k * length, 0.5 * math.pi))
    assert certified.all()
    assert (np.abs(thetas - exact) <= 1e-12 * peak).all()
    assert flags.tolist() == (peak >= PARAXIAL_LIMIT).tolist()


def test_exit_angles_constant_stub():
    # g = a: the angle grows as a*z, for either sign of a.  A ray with
    # g(x0) = 0 stays at rest.
    a = np.array([3.7e-4, -2.2e-2, 0.0, 0.3])
    x0 = np.array([0.12, -0.4, 0.3, 0.0])
    thetas, flags, certified = exit_angles(lambda x: a * np.ones_like(x), x0, 2.0)
    assert certified.all()
    np.testing.assert_allclose(thetas, 2.0 * a, rtol=1e-13)
    assert thetas[2] == 0.0
    assert flags.tolist() == [False, False, False, True]


def test_exit_angles_certify_a_near_double_zero():
    # dN = x ((x - 1)^2 + d^2): from rest at 0 the ray nearly stops at
    # x = 1 and then goes on.  The extrapolated steps follow it through the
    # slow stretch like anywhere else, so the row is certified and agrees
    # with a fine RK4 trace.
    d = 0.01

    def gradient(x):
        return (x - 1.0) ** 2 + d * d + 2.0 * x * (x - 1.0)

    thetas, flags, certified = exit_angles(gradient, np.zeros(1), 6.0)
    traj = integrate_gradient(gradient, 0.0, 0.0, 6.0, 20_000)
    assert certified.all()
    assert abs(thetas[0] - exit_angle(traj)) <= 1e-9
    assert flags[0] == traj.paraxial_violation


def test_ray_on_control_axis_stays_at_rest():
    # The gradient vanishes on the control-beam axis, so the ray never moves.
    sc = default_scene()
    deltas = [TWO_PI * 1e4, -TWO_PI * 4e6]
    thetas, flags, certified = ray_exits(
        deltas, sc.control.center, sc.medium, sc.control
    )
    assert thetas.tolist() == [0.0, 0.0] and not flags.any() and certified.all()
    traj = trace_ray(deltas[1], sc.control.center, 0.0, sc.medium, sc.control, 100)
    assert exit_angle(traj) == 0.0


def test_batch_stub_flags_match_scalar_integrator():
    # x'' = -x from rest at x0 gives angle = -x0 sin(z).  Over [0, pi] a
    # ray from x0 = -1 rises past the limit mid-cell and is back near 0 at
    # the exit; one from -0.3 peaks at 0.3.  The flag reads the largest
    # |angle|, not the exit one, as the RK4 integrator's does.
    x0 = np.array([-1.0, -0.3])
    thetas, flags, certified = exit_angles(lambda x: -x, x0, math.pi)
    assert certified.all()
    assert flags.tolist() == [True, False]
    np.testing.assert_allclose(thetas, 0.0, atol=1e-14)
    for i in range(len(x0)):
        traj = integrate_gradient(lambda x: -x, x0[i], 0.0, math.pi, 100)
        assert flags[i] == traj.paraxial_violation
        assert thetas[i] == pytest.approx(exit_angle(traj), abs=1e-6)


def test_batch_nan_angle_never_flags():
    # Row 1's gradient is NaN: its angle is NaN, its flag stays off and the
    # row is not certified.  Row 0 is x'' = x, angle sinh(z).
    thetas, flags, certified = exit_angles(
        lambda x: np.array([1.0, math.nan]) * x, np.ones(2), 1.0
    )
    assert thetas[0] == pytest.approx(math.sinh(1.0), rel=1e-13)
    assert math.isnan(thetas[1])
    assert flags.tolist() == [True, False]
    assert certified.tolist() == [True, False]


def test_batch_validation():
    sc = default_scene()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ray_exits([0.0], bad, sc.medium, sc.control)
        with pytest.raises(ValueError):
            exit_angles(lambda x: x, np.array([0.0, bad]), 1.0)
        with pytest.raises(ValueError):
            exit_angles(lambda x: x, np.zeros(2), bad)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            exit_angles(lambda x: x, np.zeros(2), bad)
    with pytest.raises(ValueError, match="1-D"):
        ray_exits(0.0, sc.probe.offset, sc.medium, sc.control)
    with pytest.raises(ValueError, match="1-D"):
        exit_angles(lambda x: x, 0.0, 1.0)


def _assert_bitwise_equal(got, want):
    np.testing.assert_array_equal(got[0].view(np.uint64), want[0].view(np.uint64))
    np.testing.assert_array_equal(got[1], want[1])
    np.testing.assert_array_equal(got[2], want[2])


@pytest.mark.parametrize(
    "deltas",
    [STOCK_DELTAS, GRAZING_DELTAS, NEAR_DELTAS],
    ids=["stock", "grazing", "near"],
)
def test_lockstep_counts_match_per_count_reference(deltas):
    # All substep counts in one array give every element the operations
    # of the counts run one after another, in the same order: the same
    # bits.
    sc = default_scene()
    gradient = index_gradient(np.array(deltas), sc.medium, sc.control)
    args = (np.full(len(deltas), sc.probe.offset), sc.medium.cell_length)
    _assert_bitwise_equal(
        exit_angles(gradient, *args), exit_angles_per_count(gradient, *args)
    )


def test_lockstep_counts_match_per_count_reference_on_stubs():
    k, c = 1.3, 0.2
    harmonic = c + np.array([-0.33, 0.3, 0.05, -0.6])
    a = np.array([3.7e-4, -2.2e-2, 0.0, 0.3])
    cases = [(lambda x: -k * k * (x - c), harmonic, t * math.pi / k) for t in (0.3, 2.6)]
    cases += [
        (lambda x: a * np.ones_like(x), np.array([0.12, -0.4, 0.3, 0.0]), 2.0),
        # Rows 1 and 3 have NaN gradients.
        (lambda x: np.array([1.0, math.nan, -0.5, math.nan]) * x, np.ones(4), 1.0),
    ]
    for case in cases:
        got = exit_angles(*case)
        _assert_bitwise_equal(got, exit_angles_per_count(*case))
    assert got[2].tolist() == [True, False, True, False]


def test_batch_gradient_calls():
    # A macro-step evaluates the gradient at its start, after each substep
    # of the longest count but its last, for the counts that move, and at
    # the end of every count at once: 14 * 15 = 210 calls a batch, each on
    # an array whose last axis is the rays.
    shapes = []

    def gradient(x):
        shapes.append(x.shape)
        return -x

    exit_angles(gradient, np.linspace(-1.0, 1.0, 5), 1.0)
    assert len(shapes) == MACRO_STEPS * (2 * EXTRAPOLATIONS + 1) == 210
    assert {shape[-1] for shape in shapes} == {5}


def _energy_drift(delta, n_steps):
    """|angle**2 / 2 - dN(x)| / dN(x) at the exit of trace_ray: RK4's drift
    from the ray's conserved energy, with dN, the rise of Re n from the
    launch, by 32-node Gauss-Legendre quadrature of the closed-form
    gradient."""
    sc = default_scene()
    x0 = sc.probe.offset
    states = trace_ray(delta, x0, 0.0, sc.medium, sc.control, n_steps).states
    walk, theta = states[-1, 1] - x0, states[-1, 2]
    nodes, weights = np.polynomial.legendre.leggauss(32)
    gradient = index_gradient(np.array([delta]), sc.medium, sc.control)
    rise = 0.5 * walk * (weights * gradient(x0 + 0.5 * walk * (nodes + 1.0))).sum()
    return abs(0.5 * theta * theta - rise) / rise


def test_trace_energy_drift():
    # RK4 is fourth order, so the drift falls about 16x per step doubling.
    # It shows on a stock row that walks 0.69 cm: the near-resonance rows
    # walk at most 0.025 cm, where 100 steps already come within 10x of
    # the rounding floor of the absolute position x.  At 0 Hz the walk,
    # 1.7e-10 cm, is at that floor itself, so 0 Hz is not checked.
    drifts = [_energy_drift(TWO_PI * 4e6, n) for n in (100, 200, 400)]
    for coarse, fine in zip(drifts, drifts[1:]):
        assert 12.0 <= coarse / fine <= 20.0
    for hz in (4e6, 4e5, -4e5, 1e5):
        assert _energy_drift(TWO_PI * hz, 10_000) <= 1e-9
