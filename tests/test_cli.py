"""CLI surface: CSV schemas, config plumbing, exit codes, determinism.

Every file of tests/data is one row of the GOLDEN table: the command
that writes it, whose output test_golden compares with it byte for byte.
Every refusal, a run that exits 2 (bad input) or 3 (a numerical guard),
is one case of the REFUSALS table, and each case is checked against the
whole contract by assert_refuses: the exit code, exactly one stderr line
(the case's, word for word), empty stdout and no file left behind.  The
tests that check more than a refusal, such as the library's side of a
walk-off, stay separate."""

import ast
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import eitprism
from eitprism import default_scene, experiment
from eitprism.cli import _rows, main
from eitprism.config import parse_config, scene_from_config
from eitprism.rays import exit_angle
from eitprism.waves import (
    GuardBandError,
    make_gaussian_probe,
    propagate_free,
    propagate_medium,
    transmission,
)
from reference import IMAGING_HZ, TWO_PI, record_crossings, whole_grid_transmission

DATA = Path(__file__).parent / "data"

# Coarser grid over the default window: keeps the summary computations
# (dispersion, resolution search) quick in CLI tests.
FAST_KEYS = "grid_points: 4096\ngrid_span_mm: 128\n"


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


def rows_of(text):
    lines = text.strip("\n").split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def read_csv(path):
    return rows_of(path.read_text(encoding="utf-8"))


def printed(tmp_path, capsys, body, *argv):
    """The header and rows that main(argv) prints, on a config of ``body``
    (run.cfg); it must exit 0."""
    assert main([*argv, "--config", write_config(tmp_path, body)]) == 0
    return rows_of(capsys.readouterr().out)


def run_sweep(tmp_path, body, *flags, name="sweep"):
    """`eitprism sweep` on a config of ``body``, which must exit 0: the
    paths of its CSV and of its summary."""
    out = tmp_path / f"{name}.csv"
    cfg = write_config(tmp_path, body, name=f"{name}.cfg")
    assert main(["sweep", "--config", cfg, "--out", str(out), *flags]) == 0
    return out, out.with_name(f"{name}.summary.csv")


# Five rows over +-50 kHz.
FIVE = ["--points", "5", "--min-hz", "-5e4", "--max-hz", "5e4"]


def per_value_rows(*columns):
    """CSV lines formatted one number at a time, the way the CLI did
    before it formatted whole rows: f"{x:.9g}" per value."""
    return [",".join(f"{v:.9g}" for v in row) for row in zip(*columns)]


def test_rows_match_per_value_formatting():
    edge = [
        math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
        sys.float_info.max, sys.float_info.min, 0.1, 1.0, -1.0, 1e16, 1e-5,
        0.1234567895, 123456789.5, -123456789.5, 999999999.5, 9.999999995e-7,
    ]
    assert _rows(edge, edge[::-1]) == per_value_rows(edge, edge[::-1])
    assert _rows(np.array(edge)) == per_value_rows(np.array(edge))
    # Random bit patterns: every exponent, subnormals, NaN payloads.
    rng = np.random.default_rng(20071)
    bits = rng.integers(0, 2**64, size=10_000, dtype=np.uint64).view(np.float64)
    columns = (bits[:5000], bits[5000:])
    assert _rows(*columns) == per_value_rows(*columns)
    lists = [c.tolist() for c in columns]
    assert _rows(*lists) == per_value_rows(*lists)


def test_chi_stdout_schema(capsys):
    assert main(["chi", "--points", "11", "--min-hz", "-1e4", "--max-hz", "1e4"]) == 0
    header, rows = rows_of(capsys.readouterr().out)
    assert header == ["detuning_hz", "re_chi", "im_chi", "re_n_minus_1", "im_n"]
    assert len(rows) == 11
    mid = rows[5]
    assert float(mid[0]) == 0.0
    assert float(mid[1]) == 0.0  # dispersive part vanishes on resonance
    for k in range(11):
        assert float(rows[k][1]) == -float(rows[10 - k][1])  # odd
        assert float(rows[k][2]) == pytest.approx(float(rows[10 - k][2]), rel=1e-9)
        assert float(rows[k][2]) > 0.0  # passive medium


NEAR = ["--points", "41", "--min-hz", "-4e5", "--max-hz", "4e5"]
IMAGING = [arg for hz in IMAGING_HZ for arg in ("--detuning-hz", f"{hz:g}")]

GOLDEN = {
    "chi_stock.csv": (["chi"], 1),
    "chi_near.csv": (["chi", *NEAR], 1),
    "stock_sweep.csv": (["sweep"], 1),
    "stock_sweep.summary.csv": (["sweep"], 1),
    "near_resonance.csv": (["sweep", *NEAR], 1),
    "trace_2e5.csv": (["trace", "--detuning-hz", "2e5"], 100),
    "trace_-2e5.csv": (["trace", "--detuning-hz", "-2e5"], 100),
    "profile_imaging.csv": (["profile", *IMAGING], 256),
}
"""Every file of tests/data: the CLI command, on the stock config, that
writes it, and the step its data rows are thinned by.  test_golden runs
each command and compares the thinned output with the file byte for
byte, so the bytes also pin the header, LF endings and the final newline.
Re-pinning a file after a behaviour change means running its row's
command, `eitprism <argv> --out <file>`, and thinning it the same way."""


def thinned(blob, every):
    """The header, any warning lines and every ``every``-th data row of a
    CLI CSV, as bytes.  The CLI writes its warning lines right after the
    header, so at ``every`` 1 this is the whole CSV unchanged."""
    header, *lines = blob.splitlines(keepends=True)
    notes = [ln for ln in lines if ln.startswith(b"#")]
    data = [ln for ln in lines if not ln.startswith(b"#")]
    return b"".join([header, *notes, *data[::every]])


def test_golden_rows_are_tests_data():
    assert set(GOLDEN) == {path.name for path in DATA.iterdir()}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden(tmp_path, name):
    argv, every = GOLDEN[name]
    # sweep writes its summary next to --out, as <stem>.summary.csv.
    out = tmp_path / (name.split(".")[0] + ".csv")
    assert main([*argv, "--out", str(out)]) == 0
    assert thinned((tmp_path / name).read_bytes(), every) == (DATA / name).read_bytes()


@pytest.mark.parametrize("flags, name", [([], "chi_stock.csv")])
def test_chi_bytes(tmp_path, flags, name):
    # An empty --config file is the stock config: chi writes the pinned bytes.
    out = tmp_path / name
    cfg = write_config(tmp_path, "")
    assert main(["chi", "--config", cfg, *flags, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_chi_out_file_bytes(tmp_path):
    # A range no pin covers still gets LF endings, a final newline and the header.
    out = tmp_path / "chi.csv"
    assert main(["chi", "--points", "3", "--min-hz", "-100", "--max-hz", "100",
                 "--out", str(out)]) == 0
    blob = out.read_bytes()
    assert b"\r" not in blob
    assert blob.endswith(b"\n")
    assert blob.decode("utf-8").splitlines()[0].startswith("detuning_hz,")


@pytest.mark.parametrize(
    "points, lo, hi",
    # A range off centre, and one centred on zero: the centre row of each
    # prints the midpoint, 0 for the second rather than round-off.
    [("7", "-3.3e4", "7.7e4"), ("49", "-2e3", "2e3")],
    ids=["uneven", "centred"],
)
def test_chi_and_sweep_print_the_same_detunings(tmp_path, capsys, points, lo, hi):
    # Both sample the range sweep_bounds converted, with sweep_detunings.
    span = ["--points", points, "--min-hz", lo, "--max-hz", hi]
    _, chi_rows = printed(tmp_path, capsys, FAST_KEYS, "chi", *span)
    _, sweep_rows = read_csv(run_sweep(tmp_path, FAST_KEYS, *span)[0])
    assert len(chi_rows) == int(points)
    assert [r[0] for r in chi_rows] == [r[0] for r in sweep_rows]
    assert float(chi_rows[0][0]) == float(lo) and float(chi_rows[-1][0]) == float(hi)
    assert chi_rows[int(points) // 2][0] == f"{(float(lo) + float(hi)) / 2:.9g}"


def test_sweep_files_and_schema(tmp_path):
    out, summary = run_sweep(tmp_path, FAST_KEYS, *FIVE, "--threads", "2")
    header, rows = read_csv(out)
    assert header == ["detuning_hz", "theta_ray_rad", "theta_wave_rad",
                      "transmission", "far_centroid_mm", "far_width_mm", "flags"]
    assert len(rows) == 5
    assert [float(r[0]) for r in rows] == [-5e4, -2.5e4, 0.0, 2.5e4, 5e4]
    assert all(float(r[3]) <= 1.0 + 1e-9 for r in rows)
    sheader, srows = read_csv(summary)
    assert sheader == ["d_theta_d_lambda_per_nm", "glass_reference_per_nm",
                       "glass_ratio", "resolution", "flags"]
    (srow,) = srows
    assert float(srow[1]) == 1e-4
    assert float(srow[2]) >= 1e6  # beats a glass prism a million-fold
    assert float(srow[3]) > 1e9
    assert srow[4] == ""


def test_sweep_byte_determinism(tmp_path):
    blobs = []
    for name, threads in (("a", "1"), ("b", "4"), ("c", "4")):
        paths = run_sweep(tmp_path, FAST_KEYS, *FIVE, "--threads", threads, name=name)
        blobs.append(b"".join(path.read_bytes() for path in paths))
    assert blobs[0] == blobs[1] == blobs[2]


def test_batched_sweep_determinism(tmp_path, monkeypatch):
    # A sweep of 30 rows integrates all of its rays as one batch and
    # certifies every exit angle (it calls no trace_ray, its fallback);
    # rows and CLI bytes stay the same across thread counts and reruns,
    # opaque NaN rows included.  The batch does not read ray_steps.
    def per_row(*args):
        raise AssertionError("a batched sweep ran trace_ray")

    monkeypatch.setattr(experiment, "trace_ray", per_row)
    n = 30
    sc = dataclasses.replace(default_scene(), ray_steps=1000)
    rows = [experiment.detuning_sweep(sc, -TWO_PI * 1e7, TWO_PI * 1e7, n, threads=t)
            for t in (1, 4)]
    assert repr(rows[0]) == repr(rows[1])  # repr, not ==: NaN fields
    deltas = [r.detuning for r in rows[0]]
    assert deltas == sorted(deltas) and len(deltas) == n
    assert deltas[0] == -TWO_PI * 1e7 and deltas[-1] == TWO_PI * 1e7
    assert rows[0][0].flags == ("opaque",) and math.isnan(rows[0][0].theta_wave)

    span = ["--points", str(n), "--min-hz", "-1e7", "--max-hz", "1e7"]
    blobs = []
    for name, threads in (("a", "1"), ("b", "4")):
        paths = run_sweep(tmp_path, FAST_KEYS + "ray_steps: 1000\n", *span,
                          "--threads", threads, name=name)
        blobs.append(b"".join(path.read_bytes() for path in paths))
    assert blobs[0] == blobs[1]


def test_sweep_vacuum(tmp_path):
    out, summary = run_sweep(tmp_path, "density_cm3: 0\n" + FAST_KEYS, "--points", "3",
                             "--min-hz", "-1e4", "--max-hz", "1e4", "--threads", "1")
    _, rows = read_csv(out)
    for r in rows:
        assert float(r[1]) == 0.0
        assert abs(float(r[2])) < 1e-9
        assert float(r[3]) == pytest.approx(1.0, rel=1e-9)
    _, srows = read_csv(summary)
    assert srows[0][4] == "dispersion_noise;unresolved"
    assert srows[0][3] == "nan"  # no deflection, nothing to resolve


def test_sweep_resolution_search_capped_by_run_span(tmp_path):
    # Over a 200 Hz sweep the search gives up at 2 pi x 200 Hz, below the
    # separation the stock cell needs, so the resolving power is NaN.
    _, summary = run_sweep(tmp_path, FAST_KEYS, "--points", "2",
                           "--min-hz", "-100", "--max-hz", "100", "--threads", "1")
    _, srows = read_csv(summary)
    assert srows[0][3] == "nan"
    assert srows[0][4] == "unresolved"  # the dispersion slope is still measured


def test_sweep_resolution_without_power(tmp_path):
    # Fast ground-state decoherence closes the transparency window: the
    # cell is opaque at the reference detuning, so the first Rayleigh
    # test's spots carry no power and the search gives up there.
    out, summary = run_sweep(tmp_path, "gamma_cb_hz: 1e6\n" + FAST_KEYS, "--points", "3",
                             "--min-hz", "-1e4", "--max-hz", "1e4")
    _, rows = read_csv(out)
    assert [r[6] for r in rows] == ["opaque"] * 3
    _, srows = read_csv(summary)
    assert srows[0][3] == "nan"
    assert srows[0][4] == "dispersion_noise;resolution_no_power"


def test_cli_uses_only_public_library_names():
    # The CLI formats what the library's public calls return: it imports
    # no private name from the package and spells no summary flag itself.
    tree = ast.parse(Path(eitprism.cli.__file__).read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
    strings = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    for flag in ("dispersion_noise", "unresolved", "resolution_no_power"):
        assert not any(flag in text for text in strings), flag


def test_sweep_offset_sign_flip(tmp_path):
    # Probe on the opposite shoulder of the control beam: deflections negate.
    offset_mm = 36.0 / math.sqrt(2.0) * 0.5
    thetas = {}
    for side in (+1.0, -1.0):
        body = FAST_KEYS + f"probe_offset_mm: {side * offset_mm!r}\n"
        out, _ = run_sweep(tmp_path, body, *FIVE, "--threads", "2", name=f"side{side:+.0f}")
        _, rows = read_csv(out)
        thetas[side] = [(float(r[1]), float(r[2])) for r in rows]
    for (ray_l, wave_l), (ray_r, wave_r) in zip(thetas[-1.0], thetas[+1.0]):
        if ray_r != 0.0:
            assert ray_l == pytest.approx(-ray_r, rel=0.05)
        if wave_r != 0.0:
            assert wave_l == pytest.approx(-wave_r, rel=0.05)


PROFILE_KEYS = (
    "probe_offset_mm: 0\ndetector_distance_mm: 300\n"
    "grid_points: 2048\ngrid_span_mm: 64\n"
)


def test_profile_normalized(tmp_path, capsys):
    args = ["profile", "--detuning-hz", "0", "--detuning-hz", "200"]
    header, rows = printed(tmp_path, capsys, PROFILE_KEYS, *args)
    assert header == ["x_mm", "input_plane", "far_0", "far_200"]
    assert len(rows) == 2048
    cols = np.array([[float(v) for v in r] for r in rows]).T
    for c in cols[1:]:
        assert c.max() == pytest.approx(1.0, rel=1e-9)
    # on-axis probe: the resonance far spot stays on axis
    peak_x = cols[0][np.argmax(cols[2])]
    assert abs(peak_x) < 0.5  # mm


def test_profile_raw_integrates_to_transmission(tmp_path, capsys):
    header, rows = printed(tmp_path, capsys, PROFILE_KEYS, "profile", "--no-normalize")
    assert header == ["x_mm", "input_plane", "far_0"]
    xs = np.array([float(r[0]) for r in rows]) * 0.1  # cm
    inp = np.array([float(r[1]) for r in rows])
    far = np.array([float(r[2]) for r in rows])
    dx = xs[1] - xs[0]
    p_in = inp.sum() * dx
    p_far = far.sum() * dx
    assert p_in == pytest.approx(1.0, rel=1e-6)  # unit-power launch
    assert 0.0 < p_far < 1.0
    sc = scene_from_config(parse_config(PROFILE_KEYS))
    probe = make_gaussian_probe(sc.grid, sc.medium.wavelength, sc.probe.waist, 0.0)
    out = propagate_medium(probe, 0.0, sc.medium, sc.control, sc.n_slices)
    assert p_far == pytest.approx(transmission(probe, out), rel=1e-6)


@pytest.mark.parametrize(
    "body, detunings_hz",
    [
        ("", (1e5, -1e5)),
        (PROFILE_KEYS, (0.0, 200.0)),
        ("probe_waist_mm: 0.3\ncell_length_mm: 150\n", (-3e5,)),
    ],
    ids=["stock", "profile_keys", "walks_off_window"],
)
def test_profile_matches_full_grid_reference(tmp_path, capsys, body, detunings_hz):
    # profile crosses the cell on the probe window and only then moves to
    # the whole grid; in the last case the beam walks off its 512-point
    # window at -300 kHz and the crossing is run again on the whole grid.
    # Reference: the probe launched on the whole grid, propagated through
    # the cell and flown to the detector there.
    args = [arg for hz in detunings_hz for arg in ("--detuning-hz", repr(hz))]
    header, rows = printed(tmp_path, capsys, body, "profile", *args)
    assert header == ["x_mm", "input_plane"] + [f"far_{hz:.9g}" for hz in detunings_hz]
    cols = np.array([[float(v) for v in r] for r in rows]).T
    sc = scene_from_config(parse_config(body))
    probe = make_gaussian_probe(sc.grid, sc.medium.wavelength, sc.probe.waist, sc.probe.offset)
    ref = [np.abs(probe.amplitude) ** 2]
    for hz in detunings_hz:
        out = propagate_medium(probe, TWO_PI * hz, sc.medium, sc.control, sc.n_slices)
        ref.append(np.abs(propagate_free(out, sc.detector_distance).amplitude) ** 2)
    np.testing.assert_allclose(cols[0], sc.grid.xs() * 10.0, rtol=1e-8)
    for col, r in zip(cols[1:], ref):
        assert np.max(np.abs(col - r / r.max())) <= 1e-9


@pytest.mark.parametrize("raw", [False, True], ids=["normalized", "raw"])
def test_profile_bytes_match_per_value_formatting(tmp_path, raw):
    cfg = write_config(tmp_path, FAST_KEYS)
    out = tmp_path / "profile.csv"
    args = ["profile", "--config", cfg, "--out", str(out),
            "--detuning-hz", "1e4", "--detuning-hz", "-2e5"]
    assert main(args + ["--no-normalize"] * raw) == 0
    sc = scene_from_config(parse_config(FAST_KEYS))
    fields = experiment.profile(sc, [TWO_PI * 1e4, TWO_PI * -2e5])
    columns = [np.abs(f.amplitude) ** 2 for f in fields]
    if not raw:
        columns = [c / c.max() for c in columns]
    lines = ["x_mm,input_plane,far_10000,far_-200000"]
    lines += per_value_rows(sc.grid.xs() * 10.0, *columns)
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_profile_crosses_cell_on_probe_window(monkeypatch, capsys):
    # The cell is crossed, as one row, on the sweep rows' probe window,
    # 1024 of the stock 16384 points; only the flight to the detector uses
    # the whole grid.
    crossings = record_crossings(monkeypatch)
    free = []
    real = experiment.propagate_free

    def recorded(field, *args):
        free.append(field.grid)
        return real(field, *args)

    monkeypatch.setattr(experiment, "propagate_free", recorded)
    assert main(["profile", "--detuning-hz", "1e5"]) == 0
    _, rows = rows_of(capsys.readouterr().out)
    sc = default_scene()
    assert len(rows) == sc.grid.n_points
    [(_, window)] = crossings
    assert crossings == [(1, window)]
    assert window.n_points == 1024 and window.dx == sc.grid.dx
    assert free == [sc.grid]


def test_trace_schema_and_vacuum(tmp_path, capsys):
    body = "density_cm3: 0\nray_steps: 200\n"
    header, rows = printed(tmp_path, capsys, body, "trace", "--detuning-hz", "1e4")
    assert header == ["z_cm", "x_mm", "angle_rad"]
    assert len(rows) == 201
    zs = [float(r[0]) for r in rows]
    assert zs[0] == 0.0 and zs[-1] == pytest.approx(7.5, rel=1e-9)
    assert len({r[1] for r in rows}) == 1  # straight line through vacuum
    assert {r[2] for r in rows} == {"0"}


def test_trace_prints_the_scene_ray_that_run_point_reads(capsys):
    # One ray convention: the rows of `eitprism trace` are scene_ray's
    # states, and run_point's theta_ray is that ray's exit angle, bit for bit.
    sc = default_scene()
    for hz in (1e5, -2e5):
        traj = experiment.scene_ray(sc, TWO_PI * hz)
        assert main(["trace", "--detuning-hz", str(hz)]) == 0
        _, rows = rows_of(capsys.readouterr().out)
        states = traj.states
        want = per_value_rows(states[:, 0], states[:, 1] * 10.0, states[:, 2])
        assert [",".join(row) for row in rows] == want
        row = experiment.run_point(sc, TWO_PI * hz)
        assert row.theta_ray.hex() == exit_angle(traj).hex()


def test_trace_reversed_detuning_mirrors(tmp_path, capsys):
    walks = {}
    for hz in ("1e4", "-1e4"):
        _, rows = printed(tmp_path, capsys, "ray_steps: 500\n", "trace", "--detuning-hz", hz)
        x = np.array([float(r[1]) for r in rows])
        walks[hz] = x - x[0]
    tail = slice(250, None)  # early samples are too small to compare
    assert walks["-1e4"][tail] == pytest.approx(-walks["1e4"][tail], rel=1e-3)


def test_trace_paraxial_warning(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "density_cm3: 3e15\ngamma_hz: 3e8\ncontrol_rabi_hz: 1e6\ncontrol_waist_mm: 0.5\n"
        "probe_offset_mm: 0.3535533905932738\ncell_length_mm: 100\n",
    )
    assert main(["trace", "--config", cfg, "--detuning-hz", "1000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "# warning: ray left the small-angle regime (|angle| >= 0.5)"


def test_sweep_csv_prints_paraxial_flag(tmp_path):
    # At 2e12 cm^-3 the ray at +6.67 MHz, the fifth row of a 7-row stock
    # sweep, leaves the small-angle regime and the cell is opaque there:
    # the CSV joins the ray's flag ahead of the wave's.
    _, rows = read_csv(run_sweep(tmp_path, "density_cm3: 2e12\n", "--points", "7")[0])
    flags = [r[-1] for r in rows]
    assert flags == ["opaque"] * 3 + ["low_power", "paraxial;opaque"] + ["opaque"] * 2


class Refusal(NamedTuple):
    """A run main refuses: its argv, split on spaces; its exit code; its
    stderr line after "error: "; and its config file's body, if any.  In
    argv and line, {cfg} is that file, {out} an --out file, {tmp} tmp_path."""

    argv: str
    code: int
    err: str
    config: str | None = None


def assert_refuses(tmp_path, capsys, case):
    """The whole refusal contract: the exit code, exactly the one stderr
    line, no stdout, and no file left behind (CSV, summary or folder)."""
    paths = {"tmp": tmp_path, "cfg": tmp_path / "run.cfg", "out": tmp_path / "out.csv"}
    if case.config is not None:
        paths["cfg"].write_text(case.config, encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    assert main([arg.format(**paths) for arg in case.argv.split()]) == case.code
    assert capsys.readouterr() == ("", f"error: {case.err.format(**paths)}\n")
    assert sorted(tmp_path.iterdir()) == before


STOCK = eitprism.RunConfig()
# A 15 cm cell at 1e12 cm^-3: at -175 kHz the probe walks off its window
# and trips the guard there, at the end of the last slice but one.
WALK_KEYS = "cell_length_mm: 150\ndensity_cm3: 1e12\n"
WALK = "profile --config {cfg} --detuning-hz -175000"
# The probe 3.8 mm left of the centre of a 16 mm grid, on the control
# beam's steep flank; its 1024-point window covers half of the grid.
WALK_GRID_KEYS = WALK_KEYS + (
    "grid_points: 2048\ngrid_span_mm: 16\nprobe_offset_mm: -3.8\n"
    f"control_center_mm: {-3.8 - STOCK.probe_offset_mm!r}\n")
OPAQUE = "cell opaque at {} Hz: the field fell below 1e-10 of its launch peak at z={} cm, {}"
EDGE = "edge amplitude {} of peak at z={} cm; enlarge the grid span"
GRADIENT = "delta too large: the ray gradient overflows"

# Every refusal of the CLI.  Each key is the test that runs its cases, as
# the suite names it: one Refusal, or a dict of them by parameter id.
REFUSALS = {
    "test_exit_code_bad_config": Refusal(
        "chi --config {cfg}", 2, "line 1: unknown key 'no_such_knob'", "no_such_knob: 1\n"),
    # The crossing takes slices in pairs, at least 50 of them.
    "test_exit_code_bad_slice_count": {
        str(n): Refusal("sweep --points 3 --config {cfg} --out {out}", 2,
                        "n_slices must be even and at least 50", f"n_slices: {n}\n")
        for n in (48, 65)
    },
    "test_exit_code_missing_config": Refusal(
        "chi --config {tmp}/absent.cfg", 2,
        "cannot read config file: [Errno 2] No such file or directory: '{tmp}/absent.cfg'"),
    "test_exit_code_bad_range": Refusal(
        "chi --min-hz 10 --max-hz -10", 2, "sweep_max_hz must exceed sweep_min_hz"),
    # A separate "-inf" is a value, not an unknown option.
    "test_exit_code_non_finite_range": {
        flag: Refusal(f"chi --min-hz 0 --max-hz 1 --points 3 {flag}", 2,
                      "sweep_min_hz and sweep_max_hz must be finite")
        for flag in ("--max-hz=inf", "--min-hz=-inf", "--max-hz=nan", "--min-hz -inf",
                     "--min-hz -Infinity")
    },
    # Finite in Hz, but the bounds or their span overflow in rad/s: chi
    # printed nan and inf rows with RuntimeWarnings and exited 0, and sweep
    # exited 2 blaming a non-finite delta.  sweep_bounds refuses the range.
    "test_exit_code_overflowing_range": {
        command: Refusal(command + " --out {out}" * command.startswith("sweep"), 2,
                         "sweep range overflows float64 in rad/s")
        for command in ("chi --points 3 --min-hz -1e308 --max-hz 1e308",
                        "chi --points 3 --min-hz -8e307 --max-hz 8e307",
                        "chi --min-hz 1e307 --max-hz 3e307",
                        "sweep --points 3 --min-hz -2e307 --max-hz 2e307")
    },
    # Vacuum diffraction over 100 m overfills a 16 mm window.
    "test_exit_code_guard_band": Refusal(
        "profile --config {cfg}", 3, EDGE.format("1.000e+00", "10007.5"),
        "density_cm3: 0\nprobe_offset_mm: 0\ngrid_points: 2048\n"
        "grid_span_mm: 16\ndetector_distance_mm: 100000\n"),
    # At 5 MHz the stock cell is opaque: profile names the opaque cell
    # instead of imaging round-off or blaming the grid span.  The field dies
    # in the first slice, whose plane is L / n_slices = 7.5 cm / 64.
    "test_exit_code_profile_opaque": Refusal(
        "profile --detuning-hz 1e5 --detuning-hz 5e6", 3,
        OPAQUE.format(5000000, 0.117188, "2.126e-76 of the launch power left")),
    # A trip on the window is no outcome: the crossing is run again on the
    # whole grid, where the cell is opaque at its exit.
    "test_exit_code_profile_walks_off_window": Refusal(
        WALK, 3, OPAQUE.format(-175000, 15, "8.136e-21 of the launch power left"), WALK_KEYS),
    # The walk trips the guard on the window and then on the whole grid;
    # the second trip is the one reported.
    "test_exit_code_profile_walks_off_window_and_grid": Refusal(
        WALK, 3, EDGE.format("1.338e-06", 13.3594), WALK_GRID_KEYS),
    # The same walk on a 1024-point grid, no wider than the probe's window,
    # shifted so that the probe sits at x = 0 on the control beam's steep
    # flank: the beam leaves the scene grid in the last slice but one, at
    # 63 L / 64, so a wider grid is the remedy.
    "test_exit_code_profile_walks_off_whole_grid": Refusal(
        WALK, 3, EDGE.format("1.639e-06", 14.7656),
        WALK_KEYS + "grid_points: 1024\ngrid_span_mm: 8\nprobe_offset_mm: 0\n"
        f"control_center_mm: {-STOCK.probe_offset_mm!r}\n"),
    "test_exit_code_unwritable_out": Refusal(
        "trace --out {tmp}/missing/x.csv", 2,
        "[Errno 2] No such file or directory: '{tmp}/missing/x.csv'"),
    # A grid 8.2 probe waists wide fails the guard at launch: the sweep
    # stops at its first row.
    "test_exit_code_sweep_probe_fails_guard": Refusal(
        "sweep --config {cfg} --out {out} --points 3", 3, EDGE.format("1.206e-06", 0),
        f"grid_points: 512\ngrid_span_mm: {8.2 * STOCK.probe_waist_mm!r}\n"
        "probe_offset_mm: 0\nray_steps: 100\n"),
    # The last case has a finite detuning before the non-finite one.
    "test_exit_code_non_finite_detuning": {
        **{f"{value}-{command}": Refusal(f"{command} --detuning-hz {value}", 2,
                                         "delta must be finite")
           for command in ("trace", "profile") for value in ("nan", "inf", "-nan", "-INF")},
        "1e5,inf-profile": Refusal(
            "profile --detuning-hz 1e5 --detuning-hz inf", 2, "delta must be finite"),
    },
    # A detuning whose ray gradient overflows float64 exits 2 with the
    # reason, where trace printed NaN rows and sweep wrote NaN theta_ray
    # rows with no flag.  At +-1e160 Hz the rate product of an array of
    # detunings overflows before its square: sweep warned before it exited
    # 2, and chi warned and printed chi = 0.
    "test_exit_code_overflowing_detuning": {
        "trace-1e77": Refusal("trace --detuning-hz 1e77", 2, GRADIENT),
        "sweep-1e77": Refusal(
            "sweep --out {out} --points 40 --min-hz -1e77 --max-hz 1e77", 2, GRADIENT),
        "sweep-1e160": Refusal(
            "sweep --out {out} --points 40 --min-hz -1e160 --max-hz 1e160", 2, GRADIENT),
        "chi-1e160": Refusal("chi --points 3 --min-hz -1e160 --max-hz 1e160", 2,
                             "delta or omega too large: the susceptibility overflows"),
    },
    # --threads has no effect, but it is still validated.
    "test_exit_code_threads_zero": Refusal(
        "sweep --out {out} --threads 0", 2, "threads must be at least 1"),
    # trace draws one ray: a second --detuning-hz is an error, where it
    # traced only the last one and exited 0.
    "test_trace_repeated_detuning_rejected": Refusal(
        "trace --detuning-hz 1e5 --detuning-hz 2e5 --out {out}", 2,
        "trace takes one --detuning-hz"),
}


def _refusal_test(cases):
    if isinstance(cases, Refusal):
        return lambda tmp_path, capsys: assert_refuses(tmp_path, capsys, cases)

    @pytest.mark.parametrize("case", list(cases.values()), ids=list(cases))
    def test(tmp_path, capsys, case):
        assert_refuses(tmp_path, capsys, case)
    return test


globals().update({name: _refusal_test(cases) for name, cases in REFUSALS.items()})


def test_exit_code_input_too_large_for_memory(tmp_path, capsys, monkeypatch):
    # Stands in for `chi --points 1e12`, whose detunings numpy cannot
    # allocate; a real request that size could get the runner OOM-killed.
    def too_large(cfg, scene, args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(eitprism.cli, "cmd_chi", too_large)
    assert_refuses(tmp_path, capsys, Refusal("chi", 2, "Unable to allocate 7.28 TiB for an array"))


def test_exit_code_huge_detuning(capsys):
    # At 1e76 Hz the ray gradient is still finite, unlike at 1e77 Hz: the
    # trace exits 0 with every row and no NaN.
    assert main(["trace", "--detuning-hz", "1e76"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + STOCK.ray_steps + 1 and "nan" not in "\n".join(lines)


def test_window_walk_row_gets_the_whole_grid_outcome():
    # The sweep row at the detuning of the walk-off-window refusal gets the
    # whole grid's outcome, as profile does.
    sc = scene_from_config(parse_config(WALK_KEYS))
    delta = TWO_PI * -175e3
    row = experiment.run_point(sc, delta)
    assert row.flags == ("opaque",)
    assert row.transmission == pytest.approx(whole_grid_transmission(sc, delta), rel=1e-9)


def test_window_and_grid_walk_crosses_each_as_one_row(monkeypatch):
    # The walk of the window-and-grid refusal: the window's crossing and
    # then the whole grid's, each one row; the second trip is raised.
    crossings = record_crossings(monkeypatch)
    sc = scene_from_config(parse_config(WALK_GRID_KEYS))
    with pytest.raises(GuardBandError, match="enlarge the grid span"):
        experiment.profile(sc, [TWO_PI * -175e3])
    assert [(rows, g.n_points) for rows, g in crossings] == [(1, 1024), (1, 2048)]
    assert crossings[1][1] == sc.grid


@pytest.mark.parametrize(
    "body, flags",
    [
        ("sweep_points: 1\n", ["--points", "3", "--min-hz", "-100", "--max-hz", "100"]),
        ("sweep_min_hz: 10\nsweep_max_hz: -10\n", ["--min-hz", "-100", "--max-hz", "100"]),
    ],
)
def test_flags_replace_bad_config_range(tmp_path, capsys, body, flags):
    # Only the range after the flags are applied has to be valid.
    _, rows = printed(tmp_path, capsys, body, "chi", *flags)
    assert float(rows[0][0]) == -100.0 and float(rows[-1][0]) == 100.0


def test_sweep_requires_out():
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])
    assert exc.value.code == 2


def test_module_entry_point():
    # The child interpreter imports the same package as this test, also
    # when pytest put src/ on sys.path rather than PYTHONPATH.
    src = str(Path(eitprism.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "eitprism", "chi", "--points", "3",
         "--min-hz", "-1000", "--max-hz", "1000"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("detuning_hz,")
    assert len(proc.stdout.strip().splitlines()) == 4
