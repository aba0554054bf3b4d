"""Ray integrator and batched exit angles: closed-form stubs, convergence,
scene symmetries, agreement with RK4 and with an extended-precision
reference.  Refused inputs are cases of test_refusals."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from eitprism.medium import ControlField, grad_index, index_gradient
from eitprism.rays import (
    BLOCK_ROWS,
    EXTRAPOLATIONS,
    MACRO_STEPS,
    PARAXIAL_LIMIT,
    deflection_estimate,
    exit_angle,
    exit_angles,
    integrate_gradient,
    ray_exits,
    trace_ray,
)
from eitprism import RunConfig, default_scene, scene_from_config
from eitprism.cli import _rows, main
from eitprism.experiment import estimate_parameters
from reference import IMAGING_DELTAS, IMAGING_HZ, NEAR_DELTAS, STOCK_DELTAS, TWO_PI
from reference import chain_rule_gradient, exit_angles_per_count, longdouble_gradient
from reference import scene_exit, stormer_exits_longdouble, vacuum


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


def test_gradient_finite_below_overflow():
    # From |delta| near 1.2e77 rad/s the square of the gradient's rate
    # product overflows float64, and such a detuning is refused (see
    # test_refusals).  At 1e76 Hz the gradient is still finite: 3.0e-210
    # per cm.
    sc = default_scene()
    x = sc.probe.offset
    big = TWO_PI * 1e76
    assert grad_index(big, x, sc.medium, sc.control) == pytest.approx(3.0e-210, rel=0.01)
    thetas, flags, certified = ray_exits([-big, big], x, sc.medium, sc.control)
    assert np.isfinite(thetas).all() and certified.all() and not flags.any()


def test_vacuum_cell_straight_ray():
    sc = default_scene()
    empty = vacuum(sc.medium)
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


def _rk4_moves(gradient, x, v, k1v, dz):
    """One classical RK4 step of x'' = gradient(x) from (x, v), given
    k1v = gradient(x): the moves of x and of the angle v."""
    half = 0.5 * dz
    k2v = gradient(x + half * v)
    k2x = v + half * k1v
    k3v = gradient(x + half * k2x)
    k3x = v + half * k2v
    k4v = gradient(x + dz * k3x)
    k4x = v + dz * k3v
    return (
        dz * (v + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0,
        dz * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0,
    )


def _per_step_rk4(gradient, x0, theta0, length, n_steps):
    """Reference RK4, as the trace stepped before the Adams pair: one
    (z, x, angle) row and one flag test per step, the steps summed into
    the absolute x."""
    dz = length / n_steps
    x, v = x0, theta0
    rows = [(0.0, x, v)]
    violated = abs(v) >= PARAXIAL_LIMIT
    for i in range(n_steps):
        dx, dv = _rk4_moves(gradient, x, v, gradient(x), dz)
        x += dx
        v += dv
        if abs(v) >= PARAXIAL_LIMIT:
            violated = True
        rows.append(((i + 1) * dz, x, v))
    return np.array(rows), violated


# The Adams pair's weights, newest gradient first, written out here from
# Hairer, Norsett & Wanner (Solving ODEs I, sections III.1 and III.10).
AB6 = [4277 / 1440, -7923 / 1440, 9982 / 1440, -7298 / 1440, 2877 / 1440, -475 / 1440]
STORMER6 = [
    2713 / 2520, -15487 / 10080, 586 / 315, -6737 / 5040, 263 / 504, -863 / 10080
]


def _per_step_adams(gradient, x0, theta0, length, n_steps):
    """Reference of the trace's scheme: 5 RK4 steps, then the 6-step Adams
    pair on the gradients kept in one list, the moves summed into the
    displacement u from x0; one (z, x, angle) row and one flag test per
    step."""
    dz = length / n_steps
    angle_weights = [dz * b for b in AB6]
    walk_weights = [dz * dz * c for c in STORMER6]
    u, v = 0.0, theta0
    rows = [(0.0, x0, v)]
    violated = abs(v) >= PARAXIAL_LIMIT
    gradients = []
    for i in range(n_steps):
        x = x0 + u
        gradients.append(gradient(x))
        if i < 5:
            du, dv = _rk4_moves(gradient, x, v, gradients[-1], dz)
            u += du
            v += dv
        else:
            newest = gradients[:-7:-1]
            u += dz * v + sum(c * f for c, f in zip(walk_weights, newest))
            v += sum(b * f for b, f in zip(angle_weights, newest))
        if abs(v) >= PARAXIAL_LIMIT:
            violated = True
        rows.append(((i + 1) * dz, x0 + u, v))
    return np.array(rows), violated


def _assert_bitwise(got, want):
    """Each item of ``got`` is the one of ``want`` bit for bit: of the same
    type, shape and dtype, with the same bytes."""
    for a, b in zip(got, want, strict=True):
        assert type(a) is type(b)
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("delta", [TWO_PI * 1e3, -TWO_PI * 4e5, TWO_PI * 4e6])
def test_trace_matches_per_step_reference_bitwise(delta):
    sc = default_scene()
    traj = trace_ray(delta, sc.probe.offset, 0.0, sc.medium, sc.control, sc.ray_steps)
    reference = _per_step_adams(
        index_gradient(delta, sc.medium, sc.control),
        sc.probe.offset,
        0.0,
        sc.medium.cell_length,
        sc.ray_steps,
    )
    _assert_bitwise(dataclasses.astuple(traj), reference)


@pytest.mark.parametrize("n_steps", range(1, 8))
def test_few_steps_match_per_step_reference_bitwise(n_steps):
    # Up to 5 steps every step is RK4; from 6 on the Adams pair takes over
    # from the RK4 starter.  Launched off axis with a nonzero angle, on a
    # nonlinear stub and on a stock row.
    stub = (lambda x: -math.sin(x) - 0.3 * x * x, 0.4, -0.2, 1.3)
    sc = default_scene()
    row = (
        index_gradient(TWO_PI * 4e6, sc.medium, sc.control),
        sc.probe.offset,
        1e-3,
        sc.medium.cell_length,
    )
    for gradient, x0, theta0, length in (stub, row):
        traj = integrate_gradient(gradient, x0, theta0, length, n_steps)
        want = _per_step_adams(gradient, x0, theta0, length, n_steps)
        _assert_bitwise(dataclasses.astuple(traj), want)


@pytest.mark.parametrize("n_steps", [1, 5, 6, 7, 100, 10_000])
def test_trace_gradient_calls(n_steps):
    # Four gradient calls for each of the 5 RK4 starter steps, then one per
    # step: at most n_steps + 15.
    calls = []

    def gradient(x):
        calls.append(x)
        return -x

    integrate_gradient(gradient, 0.3, 0.1, 2.0, n_steps)
    assert len(calls) == 4 * min(n_steps, 5) + max(n_steps - 5, 0)
    assert len(calls) <= n_steps + 20


def test_few_steps_follow_harmonic_stub():
    # x'' = -x from (x0, theta0): across the hand-over from the starter the
    # error shrinks with the step like the starter's fourth order at least.
    x0, theta0, length = 0.3, 0.2, 0.7
    exact = -x0 * math.sin(length) + theta0 * math.cos(length)
    for n_steps in range(1, 8):
        traj = integrate_gradient(lambda x: -x, x0, theta0, length, n_steps)
        assert abs(exit_angle(traj) - exact) <= 3e-3 * (length / n_steps) ** 4


@pytest.mark.parametrize(
    "detuning_hz", [0.0, 1e4, -1e4, 1e5, -1e5, 4e5, -4e5, 4e6, -4e6, 2e7, -2e7]
)
def test_trace_matches_chain_rule_kernel(detuning_hz):
    # The closed-form kernel moves exit angles by round-off only: never a
    # printed (9 significant digit) angle and never the paraxial flag.
    sc = default_scene()
    delta = TWO_PI * detuning_hz
    a, flag = scene_exit(delta)
    ref = integrate_gradient(
        chain_rule_gradient(delta, sc.medium, sc.control),
        sc.probe.offset,
        0.0,
        sc.medium.cell_length,
        sc.ray_steps,
    )
    b = exit_angle(ref)
    assert abs(a - b) <= 1e-13 * abs(b)
    assert f"{a:.9g}" == f"{b:.9g}"
    assert flag is ref.paraxial_violation


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
    want = _per_step_adams(gradient, x0, theta0, length, 100)
    _assert_bitwise(dataclasses.astuple(traj), want)
    assert traj.paraxial_violation


@pytest.mark.parametrize("detuning_hz", IMAGING_HZ)
def test_trace_prints_rk4_bytes_at_imaging_detunings(tmp_path, detuning_hz):
    # The Adams pair moves the imaging traces by less than the printed 9
    # digits: the CSV equals RK4's, as the trace stepped before it.
    out = tmp_path / "trace.csv"
    assert main(["trace", "--detuning-hz", repr(detuning_hz), "--out", str(out)]) == 0
    sc = default_scene()
    delta = TWO_PI * detuning_hz
    rows, violated = _per_step_rk4(
        index_gradient(delta, sc.medium, sc.control),
        sc.probe.offset,
        0.0,
        sc.medium.cell_length,
        sc.ray_steps,
    )
    assert not violated
    lines = ["z_cm,x_mm,angle_rad"] + _rows(rows[:, 0], rows[:, 1] * 10.0, rows[:, 2])
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


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
    _assert_bitwise(dataclasses.astuple(got), dataclasses.astuple(want))


def test_paraxial_flag():
    traj = integrate_gradient(lambda x: 0.0, 0.0, 0.6, 1.0, 100)
    assert traj.paraxial_violation
    traj = integrate_gradient(lambda x: 0.3, 0.0, 0.0, 2.0, 100)
    assert traj.paraxial_violation  # angle reaches 0.6 along the way
    sc = default_scene()
    assert not trace_ray(
        TWO_PI * 1e4, sc.probe.offset, 0.0, sc.medium, sc.control, 1000
    ).paraxial_violation


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


def _assert_matches_scalar_traces(deltas):
    # Equal at 9 significant digits and within 1e-11 relative (2.2e-13 at
    # most): the trace at the stock 10k steps is within 1.2e-14 of its
    # largest |angle| of the exact angle, and the batch's extrapolated
    # steps are certified within 1e-12 of theirs.  No row falls back to
    # trace_ray.
    sc = default_scene()
    thetas, flags, certified = ray_exits(deltas, sc.probe.offset, sc.medium, sc.control)
    assert thetas.shape == flags.shape == certified.shape == (len(deltas),)
    assert thetas.dtype == np.float64 and certified.all()
    for delta, theta, flag in zip(deltas, thetas.tolist(), flags.tolist()):
        ref, ref_flag = scene_exit(delta)
        assert abs(theta - ref) <= 1e-11 * abs(ref)
        assert f"{theta:.9g}" == f"{ref:.9g}"
        assert flag is ref_flag
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
    _assert_bitwise([np.concatenate(column) for column in zip(*parts)], whole)


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
    # 5.38 MHz (1.4e-12 at most).  There RK4, which summed its steps into
    # the absolute x, was 1.5e-11 of it off an extended-precision
    # integration; the trace, which sums them into the displacement, is
    # 3e-15 off.
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
    # grazing rows among them: none falls back to trace_ray.
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
    _assert_bitwise(
        ray_exits(deltas, sc.probe.offset, sc.medium, sc.control), whole
    )


def test_batch_memory_bounded():
    # 8 blocks' worth of stock-scene detunings: in one batch they peak at
    # 8.3 MB of traced memory, from exit_angles' (EXTRAPOLATIONS, B)
    # temporaries, which grow with the rows; in blocks of BLOCK_ROWS the
    # peak is 1.3 MB, near the 1.2 MB of one block alone.
    sc = default_scene()
    deltas = TWO_PI * np.linspace(-2e7, 2e7, 8 * BLOCK_ROWS)
    tracemalloc.start()
    try:
        ray_exits(deltas, sc.probe.offset, sc.medium, sc.control)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


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
    # with a fine trace.
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
    # |angle|, not the exit one, as integrate_gradient's does.
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
    _assert_bitwise(
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
        _assert_bitwise(got, exit_angles_per_count(*case))
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
    """|angle**2 / 2 - dN(x)| / dN(x) at the exit of trace_ray: the trace's
    drift from the ray's conserved energy, with dN, the rise of Re n from
    the launch, by 32-node Gauss-Legendre quadrature of the closed-form
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
    # The Adams pair is sixth order, so the drift falls about 64x per step
    # doubling once the step resolves the ray (55x and 60x here; 100 and
    # 200 steps are too coarse for that).  It shows on a stock row that
    # walks 0.69 cm: the near-resonance rows walk at most 0.025 cm, where
    # 100 steps already come within 10x of the rounding floor of the
    # absolute position x.  At 0 Hz the walk, 1.7e-10 cm, is at that floor
    # itself, so 0 Hz is not checked.  At 10k steps the drift is at most
    # 2.3e-14 on these rows, where RK4's reached 2.9e-12 (at 100 kHz).
    drifts = [_energy_drift(TWO_PI * 4e6, n) for n in (400, 800, 1600)]
    for coarse, fine in zip(drifts, drifts[1:]):
        assert coarse / fine >= 40.0
    for hz in (4e6, 4e5, -4e5, 1e5):
        assert _energy_drift(TWO_PI * hz, 10_000) <= 1e-13


# Detunings of the dense cell (density_cm3: 2e12) whose rays peak within 5 %
# of PARAXIAL_LIMIT: -4.4, +2.0 and +3.6 MHz reach it, the others do not.
DENSE_DELTAS = [TWO_PI * mhz * 1e6 for mhz in (-10.0, -9.6, -4.4, 2.0, 3.6, 7.2)]


def test_trace_matches_extended_precision_reference():
    # Against extrapolated Störmer in np.longdouble (28 steps of 2...14
    # substeps), whose own error is at most 1.6e-16 of the peak |angle| on
    # these rows against the same at 56 steps, and 1.4e-16 against RK4 in
    # longdouble at 40000 steps: the stock, near-resonance and imaging
    # rows, the grazing 5.38 MHz row and the dense cell's near-limit rows.
    # Its sampled peak is within 1.2e-4 of RK4's, and the near-limit rows
    # peak at least 3e-4 from PARAXIAL_LIMIT.  The trace at the stock steps
    # is within 1e-13 of the peak |angle| on every row (1.2e-14 at most;
    # RK4, which summed its steps into the absolute x, was 1.5e-11 off at
    # 5.38 MHz), and its paraxial flags are the reference's and RK4's.
    stock = default_scene()
    dense = scene_from_config(RunConfig(density_cm3=2e12))
    rows = [(d, stock) for d in STOCK_DELTAS + NEAR_DELTAS + IMAGING_DELTAS]
    rows += [(TWO_PI * 5.38e6, stock)] + [(d, dense) for d in DENSE_DELTAS]
    assert dense.control == stock.control and dense.probe == stock.probe
    assert dense.medium.cell_length == stock.medium.cell_length
    gradient = longdouble_gradient(
        [d for d, _ in rows], [sc.medium for _, sc in rows], stock.control
    )
    want, peak = stormer_exits_longdouble(
        gradient, np.full(len(rows), stock.probe.offset), stock.medium.cell_length
    )
    flags = []
    for (delta, sc), exact, top in zip(rows, want, peak):
        args = (delta, sc.probe.offset, 0.0, sc.medium, sc.control)
        if sc is stock:
            angle, flag = scene_exit(delta)
        else:
            traj = trace_ray(*args, sc.ray_steps)
            angle, flag = exit_angle(traj), traj.paraxial_violation
        assert abs(angle - exact) <= 1e-13 * top
        assert flag is bool(top >= PARAXIAL_LIMIT)
        flags.append(flag)
        # At the fewest steps allowed the trace stays finite, though there
        # it is no more accurate than RK4.
        assert np.isfinite(trace_ray(*args, 100).states).all()
    # RK4's flags on the dense rows, the only ones near the limit.
    rk4_flags = [
        _per_step_rk4(
            index_gradient(delta, dense.medium, dense.control),
            dense.probe.offset,
            0.0,
            dense.medium.cell_length,
            dense.ray_steps,
        )[1]
        for delta in DENSE_DELTAS
    ]
    assert flags[-len(DENSE_DELTAS):] == rk4_flags
    assert rk4_flags == [False, False, True, True, True, False]
