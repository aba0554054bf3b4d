"""The library's refusal contract: every input a constructor or call
refuses, as one table.

Each case of REFUSALS is a call that must raise: its exception class,
exactly (a ConfigError is not a ValueError here, nor the reverse), and its
message, word for word.  A call refused for a reason other than its own,
such as a NaN span that only the grid's dx check caught, fails its case.
The NaN and infinite scene parameters run under test_experiment's
test_non_finite_scene_parameters_rejected, the rest under test_refused.
The CLI's refusals are the REFUSALS table of test_cli.  A test that checks
more than a refusal, such as that nothing was crossed before it, stays
with the code it tests."""

import dataclasses
import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import pytest

from eitprism import default_scene
from eitprism.config import ConfigError, RunConfig, parse_config, scene_from_config
from eitprism.config import sweep_bounds
from eitprism.experiment import ProbeSpec, angular_dispersion, detuning_sweep, launch_probe
from eitprism.experiment import run_point, spectral_resolution, sweep_detunings
from eitprism.medium import ControlField, complex_chi, grad_index, index_gradient
from eitprism.medium import refractive_index
from eitprism.rays import deflection_estimate, exit_angles, integrate_gradient, ray_exits
from eitprism.rays import trace_ray
from eitprism.waves import Grid1D, GuardBandError, TransverseField, ZeroPowerError
from eitprism.waves import beam_width, centered_grid, centroid, far_field_moments
from eitprism.waves import make_gaussian_probe, propagate_free, propagate_medium
from eitprism.waves import propagate_stack, transmission
from reference import TWO_PI


class Refusal(NamedTuple):
    """A call that takes no argument, the class it raises and the message."""

    call: Callable[[], object]
    error: type
    message: str


def each(name, build, *groups, error=ValueError):
    """Cases name-key: build(value) raises error(message), for each group
    (values, message).  The values are a tuple, each its own key, or a dict
    of them by key."""
    return {
        f"{name}-{key}": Refusal(partial(build, value), error, message)
        for values, message in groups
        for key, value in (values.items() if isinstance(values, dict) else zip(values, values))
    }


NAN_INF = (math.nan, math.inf, -math.inf)
SC = default_scene()
M, C, X = SC.medium, SC.control, SC.probe.offset
SMALL = centered_grid(2048, 6.4)
PROBE = make_gaussian_probe(SMALL, M.wavelength, 0.06, 0.0)
DARK = TransverseField(SMALL, M.wavelength, np.zeros(SMALL.n_points, complex))


def flat(x):
    """The gradient of a cell without one, for a float or an array."""
    return 0.0 * x


def medium(**changes):
    return dataclasses.replace(M, **changes)


def scene(**changes):
    return dataclasses.replace(SC, **changes)


def narrow():
    # 512 points over 8.2 probe waists, centred on the probe.
    n, dx = 512, 8.2 * SC.probe.waist / 512
    return scene(grid=Grid1D(n, dx, X - 0.5 * (n - 1) * dx), ray_steps=100)


SLICES = "n_slices must be even and at least 50"
DELTA = "delta must be finite"
TOO_LARGE = "delta too large: the ray gradient overflows"
HALF = "probe offset outside the central half of the grid"
SPAN = "sweep bounds and their span must be finite"
COUNT = "n_points must be an integer"
DISTANCE = "distance must be non-negative and finite"
LENGTH = "length must be positive and finite"
EDGE = "edge amplitude {} of peak at z={} cm; enlarge the grid span"

REFUSALS = {
    # The config grammar, and a config whose physics or range is refused.
    **each("parse", parse_config,
           ({"unknown_key": "cell_length_mm: 50\nno_such_knob: 1\n"},
            "line 2: unknown key 'no_such_knob'"),
           ({"duplicate_key": "cell_length_mm: 50\ncell_length_mm: 60\n"},
            "line 2: duplicate key 'cell_length_mm'"),
           ({"junk_line": "this is not a key value pair\n"},
            "line 1: expected 'key: value', got 'this is not a key value pair'"),
           ({"banana": "cell_length_mm: banana\n"},
            "line 1: cell_length_mm: not a number: 'banana'"),
           ({"12.5": "grid_points: 12.5\n"}, "line 1: grid_points: expected an integer"),
           ({"nan": "density_cm3: nan\n"}, "line 1: density_cm3: value must be finite"),
           ({"inf": "gamma_hz: inf\n"}, "line 1: gamma_hz: value must be finite"),
           error=ConfigError),
    **each("config_scene", lambda body: scene_from_config(parse_config(body)),
           ({"gamma": "gamma_hz: -5\n"}, "decay rates must be positive and finite"),
           ({"grid_points": "grid_points: 100\n"},
            "n_points must be a power of two, at least 512"),
           ({"probe_offset": "probe_offset_mm: 500\n"},
            "probe offset must lie within 2 control waists"),
           ({"n_slices-48": "n_slices: 48\n", "n_slices-65": "n_slices: 65\n"}, SLICES),
           error=ConfigError),
    # The CLI folds its range flags in after parsing, so the finiteness
    # that parse_config enforces is checked again.  The last three are
    # finite in Hz, but the bounds or their span overflow in rad/s.
    **each("sweep_bounds", lambda bounds: sweep_bounds(dataclasses.replace(RunConfig(), **bounds)),
           ({"reversed": {"sweep_min_hz": 10.0, "sweep_max_hz": -10.0}},
            "sweep_max_hz must exceed sweep_min_hz"),
           ({"one_point": {"sweep_points": 1}}, "sweep_points must be at least 2"),
           ({f"{k}-{v}": {k: v} for k, v in (("sweep_max_hz", math.inf),
                                             ("sweep_min_hz", -math.inf),
                                             ("sweep_max_hz", math.nan),
                                             ("sweep_min_hz", math.nan))},
            "sweep_min_hz and sweep_max_hz must be finite"),
           ({f"{lo:g}_{hi:g}": {"sweep_min_hz": lo, "sweep_max_hz": hi}
             for lo, hi in ((-1e308, 1e308), (1e307, 3e307), (-2e307, 2e307))},
            "sweep range overflows float64 in rad/s"),
           error=ConfigError),

    # Medium and control beam.  A NaN or infinite parameter is an input
    # error, not a NaN row, an infinite spot or a guard trip.
    **each("wavelength", lambda v: medium(wavelength=v),
           ((0.0, *NAN_INF), "wavelength must be positive and finite")),
    **each("density", lambda v: medium(density=v),
           ((-1.0, *NAN_INF), "density must be non-negative and finite")),
    **each("gamma", lambda v: medium(gamma=v),
           ((0.0, *NAN_INF), "decay rates must be positive and finite")),
    **each("gamma_cb", lambda v: medium(gamma_cb=v),
           ((-1.0,), "decay rates must be positive and finite")),
    **each("cell_length", lambda v: medium(cell_length=v),
           ((0.0, *NAN_INF), "cell_length must be positive and finite")),
    **each("omega_peak", lambda v: ControlField(v, 3.6),
           ((-1.0, *NAN_INF), "omega_peak must be non-negative and finite")),
    **each("control_waist", lambda v: ControlField(TWO_PI * 1e7, v),
           ((0.0, *NAN_INF), "waist must be positive and finite")),
    **each("control_center", lambda v: ControlField(TWO_PI * 1e7, 3.6, v),
           (NAN_INF, "center must be finite")),
    # From |delta| near 1.3e154 rad/s chi's denominator overflows, and chi
    # would come out 0 or NaN; alone or in an array.
    **each("complex_chi", lambda d: complex_chi(d, TWO_PI * 1e6, M),
           ({"1e160Hz": TWO_PI * 1e160, "array": np.array([0.0, -TWO_PI * 1e160]),
             "1e300Hz": TWO_PI * 1e300},
            "delta or omega too large: the susceptibility overflows")),
    **each("refractive_index", refractive_index,
           ({"-0.1": -0.1, "array": np.array([1e-4, -0.1 + 0.0j])},
            "non-physical susceptibility: 1 + 4*pi*Re(chi) <= 0")),

    # The ray: its integrator, its launch and its detuning.
    **each("integrate_length", lambda v: integrate_gradient(flat, 0.0, 0.0, v, 100),
           ((-1.0, math.nan, math.inf), LENGTH)),
    **each("integrate_steps", lambda n: integrate_gradient(flat, 0.0, 0.0, 1.0, n),
           ((0,), "n_steps must be at least 1"), ((2.5, 100.0), "n_steps must be an integer")),
    **each("trace_steps", lambda n: trace_ray(0.0, X, 0.0, M, C, n_steps=n),
           ((50,), "n_steps must be at least 100"), ((1e4,), "n_steps must be an integer")),
    # A non-finite launch would integrate to a NaN trajectory without a
    # flag.  From |delta| near 1.2e77 rad/s the square of the gradient's
    # rate product overflows; at +-1e160 Hz the product itself does, first.
    **each("trace", lambda args: trace_ray(*args, M, C, 100),
           ({**{f"x0-{v}": (0.0, v, 0.0) for v in NAN_INF},
             **{f"theta0-{v}": (0.0, X, v) for v in NAN_INF}}, "x0 and theta0 must be finite"),
           ({f"delta-{d}": (d, X, 0.0) for d in NAN_INF}, DELTA),
           ({"delta-1e77Hz": (TWO_PI * 1e77, X, 0.0)}, TOO_LARGE)),
    **each("grad_index", lambda d: grad_index(d, X, M, C), (NAN_INF, DELTA),
           ({"1e77Hz": TWO_PI * 1e77, "-1e77Hz": -TWO_PI * 1e77}, TOO_LARGE)),
    **each("deflection_estimate", lambda d: deflection_estimate(d, X, M, C), (NAN_INF, DELTA)),
    # One bad element in an array of detunings is refused the same way.
    **each("index_gradient_array",
           lambda d: index_gradient(np.array([0.0, TWO_PI * 1e4, d]), M, C), (NAN_INF, DELTA)),
    **each("grad_index_array",
           lambda d: grad_index(np.array([0.0, TWO_PI * 1e4, d]), np.full(3, X), M, C),
           (NAN_INF, DELTA)),
    **each("ray_exits", lambda args: ray_exits(*args, M, C),
           ({f"delta-{d}": ([0.0, TWO_PI * 1e4, d], X) for d in NAN_INF}, DELTA),
           ({"delta--1e77Hz": ([0.0, -TWO_PI * 1e77], X),
             "delta-1e160Hz": ([0.0, TWO_PI * 1e160], X)}, TOO_LARGE),
           ({f"x0-{v}": ([0.0], v) for v in NAN_INF}, "x0 must be finite"),
           ({"scalar": (0.0, X)}, "deltas must be a 1-D array, one detuning per ray")),
    **each("exit_angles", lambda args: exit_angles(flat, *args),
           ({f"x0-{v}": (np.array([0.0, v]), 1.0) for v in NAN_INF}, "x0 must be finite"),
           ({f"length-{v}": (np.zeros(2), v) for v in (0.0, -1.0, *NAN_INF)}, LENGTH),
           ({"scalar": (0.0, 1.0)}, "x0 must be a 1-D array, one launch point per ray")),

    # Grids and the probe.  Non-finite inputs are usage errors, not a field
    # that trips the guard.
    **each("grid_points", lambda n: Grid1D(n, 1e-3, 0.0),
           ((1000, 256), "n_points must be a power of two, at least 512"),
           ((1024.0,), COUNT)),
    "grid_span-points_1024.0": Refusal(partial(centered_grid, 1024.0, 12.8), ValueError, COUNT),
    **each("grid_dx", lambda v: Grid1D(1024, v, 0.0),
           ((-1e-3, *NAN_INF), "dx must be positive and finite")),
    **each("grid_x0", lambda v: Grid1D(1024, 1e-3, v), (NAN_INF, "x0 must be finite")),
    **each("grid_span", lambda v: centered_grid(1024, v),
           ((0.0, *NAN_INF), "span must be positive and finite")),
    **each("probe", lambda args: make_gaussian_probe(SMALL, *args),
           ({"under_resolved": (M.wavelength, 4.0 * SMALL.dx, 0.0)},
            "grid too coarse for the probe waist"),
           ({"grid_too_narrow": (M.wavelength, 2.0, 0.0)},
            "grid span must be at least 8 probe waists"),
           ({"off_window": (M.wavelength, 0.06, 2.9)}, HALF),
           ({**{f"wavelength-{v}": (v, 0.06, 0.0) for v in (math.nan, math.inf)},
             **{f"waist-{v}": (M.wavelength, v, 0.0) for v in (math.nan, math.inf)}},
            "wavelength and waist must be positive and finite"),
           ({f"offset-{v}": (M.wavelength, 0.06, v) for v in NAN_INF},
            "probe offset must be finite")),

    # Free flight, the crossing and the readout.
    **each("free_distance", partial(propagate_free, PROBE), ((-1.0, *NAN_INF), DISTANCE)),
    **each("moments_distance", lambda v: far_field_moments(launch_probe(SC), v),
           ((-1.0, *NAN_INF), DISTANCE)),
    # A 0.2 mm probe overfills a 4 mm grid over 10 m.
    "free-overflows_grid": Refusal(lambda: propagate_free(make_gaussian_probe(
        centered_grid(2048, 0.4), M.wavelength, 0.02, 0.0), 1000.0),
        GuardBandError, EDGE.format("1.000e+00", 1000)),
    # The crossing takes slices in pairs, at least 50 of them, and counts
    # them in integers.  A launch without power has a zero opaque floor:
    # no row could stop opaque, and every row would be checked against a
    # zero peak.
    **each("medium", lambda args: propagate_medium(*args),
           ({f"delta-{d}": (PROBE, d, M, C, 50) for d in NAN_INF}, DELTA),
           ({f"n_slices-{n}": (PROBE, 0.0, M, C, n) for n in (10, 48, 65)}, SLICES),
           ({"n_slices-64.0": (PROBE, 0.0, M, C, 64.0)}, "n_slices must be an integer"),
           ({"other_wavelength": (dataclasses.replace(PROBE, wavelength=6.33e-5), 0.0, M, C, 50)},
            "field and medium wavelengths disagree"),
           ({"dark_launch": (DARK, 0.0, M, C, 50)}, "launch field has no power")),
    **each("stack_slices", lambda n: next(propagate_stack(PROBE, [0.0, 1.0], M, C, n)),
           ((10, 48, 65), SLICES)),
    **each("dark", lambda read: read(DARK),
           ({"centroid": centroid}, "centroid of a zero-power field"),
           ({"beam_width": beam_width}, "width of a zero-power field"),
           ({"transmission": lambda dark: transmission(dark, PROBE)},
            "transmission with zero input power"),
           ({"moments": lambda dark: far_field_moments(dark, 1.0)}, "no propagating power"),
           error=ZeroPowerError),

    # The scene, its rows and its summary.
    **each("probe_spec", lambda args: ProbeSpec(*args),
           ({f"waist-{v}": (v, 0.0) for v in (0.0, math.nan, math.inf)},
            "probe waist must be positive and finite"),
           ({"offset-nan": (0.06, math.nan)}, "probe offset must be finite")),
    **each("scene", lambda changes: scene(**changes),
           ({f"detector_distance-{v}": {"detector_distance": v} for v in (0.0, *NAN_INF)},
            "detector_distance must be positive and finite"),
           ({f"n_slices-{n}": {"n_slices": n} for n in (10, 48, 65)}, SLICES),
           ({"n_slices-64.0": {"n_slices": 64.0}}, "n_slices must be an integer"),
           ({"ray_steps-10": {"ray_steps": 10}}, "ray_steps must be at least 100"),
           ({"ray_steps-1e4": {"ray_steps": 1e4}}, "ray_steps must be an integer"),
           ({"probe_off_control": {"probe": ProbeSpec(0.06, 3.0 * C.waist)}},
            "probe offset must lie within 2 control waists")),
    # The probe must lie in the central half of the scene grid.
    "run_point-probe_off_centre": Refusal(lambda: run_point(scene(grid=Grid1D(
        SC.grid.n_points, SC.grid.dx, X - 0.2 * SC.grid.span)), 0.0), ValueError, HALF),
    # Finite bounds whose span overflows, where the steps would be inf and
    # NaN, and a count that is not an integer.
    **each("sweep_detunings", lambda args: sweep_detunings(*args),
           ({"overflowing_span": (-1.2e308, 1.2e308, 3)}, SPAN),
           ({"points_5.0": (-1.0, 1.0, 5.0)}, COUNT)),
    **each("sweep", lambda args: detuning_sweep(SC, *args),
           ({"one_point": (0.0, 1.0, 1)}, "n_points must be at least 2"),
           ({"reversed": (1.0, -1.0, 5)}, "d_max must exceed d_min"),
           ({"points_5.0": (-1.0, 1.0, 5.0)}, COUNT),
           ({"threads_zero": (0.0, 1.0, 5, 0)}, "threads must be at least 1"),
           ({"threads_1.5": (0.0, 1.0, 5, 1.5)}, "threads must be an integer"),
           ({"overflowing_span": (-1.2e308, 1.2e308, 3)}, SPAN)),
    # A launch that fails the guard fails every row alike: the sweep and
    # the dispersion stencil stop at their first row.
    **each("launch_fails_guard", lambda run: run(narrow()),
           ({"sweep": lambda sc: detuning_sweep(sc, -TWO_PI * 1e5, TWO_PI * 1e5, 3),
             "dispersion": angular_dispersion}, EDGE.format("1.206e-06", 0)),
           error=GuardBandError),
    **each("resolution_cap", lambda cap: spectral_resolution(SC, max_separation=cap),
           ((0.0, math.nan, math.inf), "max_separation must be positive and finite")),
}


# The NaN and infinite scene parameters keep the test names they have
# always had: test_experiment's test_non_finite_scene_parameters_rejected
# runs these rows, by name-value, and test_refused runs the rest.
NON_FINITE_SCENE = {
    f"{name}-{v}": f"{'scene-' * (name == 'detector_distance')}{name}-{v}"
    for name in ("detector_distance", "grid_dx", "grid_x0", "grid_span", "wavelength",
                 "density", "gamma", "cell_length", "omega_peak", "control_waist",
                 "control_center", "free_distance", "moments_distance")
    for v in NAN_INF
}


def refuses(case):
    """case.call() raises exactly case.error, with exactly case.message."""
    with pytest.raises(case.error) as info:
        case.call()
    assert type(info.value) is case.error
    assert str(info.value) == case.message


OWN_ROWS = [key for key in REFUSALS if key not in NON_FINITE_SCENE.values()]


@pytest.mark.parametrize("key", OWN_ROWS, ids=OWN_ROWS)
def test_refused(key):
    refuses(REFUSALS[key])


def test_numpy_integer_counts_pass():
    # The integer checks take numpy's integers as Python's.
    counted = scene(n_slices=np.int64(64), ray_steps=np.int32(1000))
    assert repr(run_point(counted, TWO_PI * 1e5)) == repr(
        run_point(scene(ray_steps=1000), TWO_PI * 1e5))
    assert integrate_gradient(flat, 0.2, 0.0, 5.0, np.int64(250)).states.shape == (251, 3)
    assert centered_grid(np.int64(1024), 12.8) == centered_grid(1024, 12.8)
    assert sweep_detunings(-1.0, 1.0, np.int32(5)) == sweep_detunings(-1.0, 1.0, 5)
    assert repr(detuning_sweep(SC, -1.0, 1.0, 2, threads=np.int64(2))) == repr(
        detuning_sweep(SC, -1.0, 1.0, 2))
