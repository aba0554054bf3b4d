"""CLI surface: CSV schemas, config plumbing, exit codes, determinism."""

import ast
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eitprism
from eitprism import default_scene, experiment
from eitprism.cli import _rows, main
from eitprism.config import parse_config, scene_from_config
from eitprism.rays import trace_ray
from eitprism.waves import (
    make_gaussian_probe,
    propagate_free,
    propagate_medium,
    transmission,
)

TWO_PI = 2.0 * math.pi
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


def test_chi_out_file_bytes(tmp_path):
    out = tmp_path / "chi.csv"
    assert main(["chi", "--points", "3", "--min-hz", "-100", "--max-hz", "100",
                 "--out", str(out)]) == 0
    blob = out.read_bytes()
    assert b"\r" not in blob
    assert blob.endswith(b"\n")
    assert blob.decode("utf-8").splitlines()[0].startswith("detuning_hz,")


@pytest.mark.parametrize(
    "flags, name",
    [([], "chi_stock.csv"),
     (["--points", "41", "--min-hz", "-4e5", "--max-hz", "4e5"], "chi_near.csv")],
)
def test_chi_bytes(tmp_path, flags, name):
    # `eitprism chi` on the empty config and over the 41-row +-400 kHz
    # range, byte for byte as tests/data holds them: the files chi wrote
    # when it sampled its range in Hz with np.linspace.
    out = tmp_path / name
    cfg = write_config(tmp_path, "")
    assert main(["chi", "--config", cfg, *flags, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_chi_and_sweep_print_the_same_detunings(tmp_path, capsys):
    # Both sample the range sweep_bounds converted, with sweep_detunings.
    cfg = write_config(tmp_path, FAST_KEYS)
    span = ["--points", "7", "--min-hz", "-3.3e4", "--max-hz", "7.7e4"]
    assert main(["chi", "--config", cfg, *span]) == 0
    _, chi_rows = rows_of(capsys.readouterr().out)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", cfg, *span, "--out", str(out)]) == 0
    _, sweep_rows = rows_of(out.read_text(encoding="utf-8"))
    assert [r[0] for r in chi_rows] == [r[0] for r in sweep_rows]
    assert chi_rows[0][0] == "-33000" and chi_rows[-1][0] == "77000"


def test_sweep_files_and_schema(tmp_path):
    cfg = write_config(tmp_path, FAST_KEYS)
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", cfg, "--out", str(out), "--points", "5",
               "--min-hz", "-5e4", "--max-hz", "5e4", "--threads", "2"])
    assert rc == 0
    header, rows = rows_of(out.read_text(encoding="utf-8"))
    assert header == ["detuning_hz", "theta_ray_rad", "theta_wave_rad",
                      "transmission", "far_centroid_mm", "far_width_mm", "flags"]
    assert len(rows) == 5
    assert [float(r[0]) for r in rows] == [-5e4, -2.5e4, 0.0, 2.5e4, 5e4]
    assert all(float(r[3]) <= 1.0 + 1e-9 for r in rows)

    summary = out.with_name("sweep.summary.csv")
    sheader, srows = rows_of(summary.read_text(encoding="utf-8"))
    assert sheader == ["d_theta_d_lambda_per_nm", "glass_reference_per_nm",
                       "glass_ratio", "resolution", "flags"]
    (srow,) = srows
    assert float(srow[1]) == 1e-4
    assert float(srow[2]) >= 1e6  # beats a glass prism a million-fold
    assert float(srow[3]) > 1e9
    assert srow[4] == ""


def test_sweep_byte_determinism(tmp_path):
    cfg = write_config(tmp_path, FAST_KEYS)
    blobs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "4"), ("c.csv", "4")):
        out = tmp_path / name
        assert main(["sweep", "--config", cfg, "--out", str(out), "--points", "5",
                     "--min-hz", "-5e4", "--max-hz", "5e4", "--threads", threads]) == 0
        blobs.append(out.read_bytes()
                     + out.with_name(out.stem + ".summary.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_batched_sweep_determinism(tmp_path, monkeypatch):
    # At RAY_BATCH_ROWS rows a sweep integrates all of its rays as one
    # batch and certifies every exit angle (it calls no trace_ray, its RK4
    # fallback); rows and CLI bytes stay the same across thread counts and
    # reruns, opaque NaN rows included.  The batch does not read ray_steps.
    def per_row(*args):
        raise AssertionError("a batched sweep ran trace_ray")

    monkeypatch.setattr(experiment, "trace_ray", per_row)
    n = experiment.RAY_BATCH_ROWS
    sc = dataclasses.replace(default_scene(), ray_steps=1000)
    rows = [experiment.detuning_sweep(sc, -TWO_PI * 1e7, TWO_PI * 1e7, n, threads=t)
            for t in (1, 4)]
    assert repr(rows[0]) == repr(rows[1])  # repr, not ==: NaN fields
    deltas = [r.detuning for r in rows[0]]
    assert deltas == sorted(deltas) and len(deltas) == n
    assert deltas[0] == -TWO_PI * 1e7 and deltas[-1] == TWO_PI * 1e7
    assert rows[0][0].flags == ("opaque",) and math.isnan(rows[0][0].theta_wave)

    cfg = write_config(tmp_path, FAST_KEYS + "ray_steps: 1000\n")
    blobs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "4")):
        out = tmp_path / name
        assert main(["sweep", "--config", cfg, "--out", str(out), "--points", str(n),
                     "--min-hz", "-1e7", "--max-hz", "1e7", "--threads", threads]) == 0
        blobs.append(out.read_bytes()
                     + out.with_name(out.stem + ".summary.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_stock_sweep_bytes(tmp_path):
    # The stock run's CSV and summary, byte for byte: tests/data holds the
    # files the stock `eitprism sweep` wrote when RK4 traced every row.
    out = tmp_path / "stock_sweep.csv"
    cfg = write_config(tmp_path, "")
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    for name in ("stock_sweep.csv", "stock_sweep.summary.csv"):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def thinned(path, every):
    """The header, any warning lines and every ``every``-th data row of a
    CLI CSV, as bytes: the form of the trace and profile files in
    tests/data."""
    lines = path.read_text(encoding="utf-8").splitlines()
    notes = [ln for ln in lines[1:] if ln.startswith("#")]
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    return ("\n".join([lines[0]] + notes + data[::every]) + "\n").encode()


def test_imaging_bytes(tmp_path):
    # The imaging workload's outputs, thinned: `eitprism trace` at +-200 kHz
    # (every 100th of 10001 rows) and `eitprism profile` at its 8 detunings
    # (every 256th of 16384 rows), as the stock build wrote them.
    for hz in ("2e5", "-2e5"):
        out = tmp_path / f"trace_{hz}.csv"
        assert main(["trace", "--detuning-hz", hz, "--out", str(out)]) == 0
        assert thinned(out, 100) == (DATA / out.name).read_bytes(), out.name
    out = tmp_path / "profile_imaging.csv"
    args = ["profile", "--out", str(out)]
    for hz in ("1e4", "-1e4", "1e5", "-1e5", "2e5", "-2e5", "4e5", "-4e5"):
        args += ["--detuning-hz", hz]
    assert main(args) == 0
    assert thinned(out, 256) == (DATA / out.name).read_bytes()


def test_sweep_vacuum(tmp_path):
    cfg = write_config(tmp_path, "density_cm3: 0\n" + FAST_KEYS)
    out = tmp_path / "vac.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--points", "3",
                 "--min-hz", "-1e4", "--max-hz", "1e4", "--threads", "1"]) == 0
    _, rows = rows_of(out.read_text(encoding="utf-8"))
    for r in rows:
        assert float(r[1]) == 0.0
        assert abs(float(r[2])) < 1e-9
        assert float(r[3]) == pytest.approx(1.0, rel=1e-9)
    _, srows = rows_of(out.with_name("vac.summary.csv").read_text(encoding="utf-8"))
    assert srows[0][4] == "dispersion_noise;unresolved"
    assert srows[0][3] == "nan"  # no deflection, nothing to resolve


def test_sweep_resolution_search_capped_by_run_span(tmp_path):
    # Over a 200 Hz sweep the search gives up at 2 pi x 200 Hz, below the
    # separation the stock cell needs, so the resolving power is NaN.
    cfg = write_config(tmp_path, FAST_KEYS)
    out = tmp_path / "narrow.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--points", "2",
                 "--min-hz", "-100", "--max-hz", "100", "--threads", "1"]) == 0
    _, srows = rows_of(out.with_name("narrow.summary.csv").read_text(encoding="utf-8"))
    assert srows[0][3] == "nan"
    assert srows[0][4] == "unresolved"  # the dispersion slope is still measured


def test_sweep_resolution_without_power(tmp_path):
    # Fast ground-state decoherence closes the transparency window: the
    # cell is opaque at the reference detuning, so the first Rayleigh
    # test's spots carry no power and the search gives up there.
    cfg = write_config(tmp_path, "gamma_cb_hz: 1e6\n" + FAST_KEYS)
    out = tmp_path / "dark.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--points", "3",
                 "--min-hz", "-1e4", "--max-hz", "1e4"]) == 0
    _, rows = rows_of(out.read_text(encoding="utf-8"))
    assert [r[6] for r in rows] == ["opaque"] * 3
    _, srows = rows_of(out.with_name("dark.summary.csv").read_text(encoding="utf-8"))
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
        cfg = write_config(
            tmp_path, FAST_KEYS + f"probe_offset_mm: {side * offset_mm!r}\n",
            name=f"side{side:+.0f}.cfg",
        )
        out = tmp_path / f"side{side:+.0f}.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--points", "5",
                     "--min-hz", "-5e4", "--max-hz", "5e4", "--threads", "2"]) == 0
        _, rows = rows_of(out.read_text(encoding="utf-8"))
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
    cfg = write_config(tmp_path, PROFILE_KEYS)
    assert main(["profile", "--config", cfg,
                 "--detuning-hz", "0", "--detuning-hz", "200"]) == 0
    header, rows = rows_of(capsys.readouterr().out)
    assert header == ["x_mm", "input_plane", "far_0", "far_200"]
    assert len(rows) == 2048
    cols = np.array([[float(v) for v in r] for r in rows]).T
    for c in cols[1:]:
        assert c.max() == pytest.approx(1.0, rel=1e-9)
    # on-axis probe: the resonance far spot stays on axis
    peak_x = cols[0][np.argmax(cols[2])]
    assert abs(peak_x) < 0.5  # mm


def test_profile_raw_integrates_to_transmission(tmp_path, capsys):
    cfg = write_config(tmp_path, PROFILE_KEYS)
    assert main(["profile", "--config", cfg, "--no-normalize"]) == 0
    header, rows = rows_of(capsys.readouterr().out)
    assert header == ["x_mm", "input_plane", "far_0"]
    xs = np.array([float(r[0]) for r in rows]) * 0.1  # cm
    inp = np.array([float(r[1]) for r in rows])
    far = np.array([float(r[2]) for r in rows])
    dx = xs[1] - xs[0]
    p_in = inp.sum() * dx
    p_far = far.sum() * dx
    assert p_in == pytest.approx(1.0, rel=1e-6)  # unit-power launch
    assert 0.0 < p_far < 1.0
    sc = scene_from_config(parse_config((tmp_path / "run.cfg").read_text()))
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
    cfg = write_config(tmp_path, body)
    args = ["profile", "--config", cfg]
    for hz in detunings_hz:
        args += ["--detuning-hz", repr(hz)]
    assert main(args) == 0
    header, rows = rows_of(capsys.readouterr().out)
    assert header == ["x_mm", "input_plane"] + [f"far_{hz:.9g}" for hz in detunings_hz]
    cols = np.array([[float(v) for v in r] for r in rows]).T
    sc = scene_from_config(parse_config(body))
    probe = make_gaussian_probe(
        sc.grid, sc.medium.wavelength, sc.probe.waist, sc.probe.offset
    )
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
    # The cell is crossed on the sweep rows' probe window, 1024 of the
    # stock 16384 points; only the flight to the detector uses the whole
    # grid.
    grids = {"medium": [], "free": []}

    def recorded(key, real):
        def call(field, *args):
            grids[key].append(field.grid)
            return real(field, *args)

        return call

    monkeypatch.setattr(
        experiment, "propagate_medium", recorded("medium", experiment.propagate_medium)
    )
    monkeypatch.setattr(
        experiment, "propagate_free", recorded("free", experiment.propagate_free)
    )
    assert main(["profile", "--detuning-hz", "1e5"]) == 0
    _, rows = rows_of(capsys.readouterr().out)
    sc = default_scene()
    assert len(rows) == sc.grid.n_points
    (window,) = grids["medium"]
    assert window.n_points == 1024 and window.dx == sc.grid.dx
    assert grids["free"] == [sc.grid]


def test_trace_schema_and_vacuum(tmp_path, capsys):
    cfg = write_config(tmp_path, "density_cm3: 0\nray_steps: 200\n")
    assert main(["trace", "--config", cfg, "--detuning-hz", "1e4"]) == 0
    header, rows = rows_of(capsys.readouterr().out)
    assert header == ["z_cm", "x_mm", "angle_rad"]
    assert len(rows) == 201
    zs = [float(r[0]) for r in rows]
    assert zs[0] == 0.0 and zs[-1] == pytest.approx(7.5, rel=1e-9)
    assert len({r[1] for r in rows}) == 1  # straight line through vacuum
    assert {r[2] for r in rows} == {"0"}


def test_trace_bytes_match_per_value_formatting(tmp_path):
    cfg = write_config(tmp_path, FAST_KEYS)
    out = tmp_path / "trace.csv"
    assert main(["trace", "--config", cfg, "--out", str(out),
                 "--detuning-hz", "1e5"]) == 0
    sc = scene_from_config(parse_config(FAST_KEYS))
    traj = trace_ray(
        TWO_PI * 1e5, sc.probe.offset, 0.0, sc.medium, sc.control, sc.ray_steps
    )
    lines = ["z_cm,x_mm,angle_rad"]
    for z, x, angle in traj.states.tolist():
        lines.append(",".join(f"{v:.9g}" for v in (z, x * 10.0, angle)))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_trace_reversed_detuning_mirrors(tmp_path, capsys):
    cfg = write_config(tmp_path, "ray_steps: 500\n")
    walks = {}
    for hz in ("1e4", "-1e4"):
        assert main(["trace", "--config", cfg, "--detuning-hz", hz]) == 0
        _, rows = rows_of(capsys.readouterr().out)
        x = np.array([float(r[1]) for r in rows])
        walks[hz] = x - x[0]
    tail = slice(250, None)  # early samples are too small to compare
    assert walks["-1e4"][tail] == pytest.approx(-walks["1e4"][tail], rel=1e-3)


def test_trace_paraxial_warning(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "density_cm3: 3e15\ngamma_hz: 3e8\ncontrol_rabi_hz: 1e6\n"
        "control_waist_mm: 0.5\nprobe_offset_mm: 0.3535533905932738\n"
        "cell_length_mm: 100\n",
    )
    assert main(["trace", "--config", cfg, "--detuning-hz", "1000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "# warning: ray left the small-angle regime (|angle| >= 0.5)"


def test_trace_repeated_detuning_rejected(tmp_path, capsys):
    # trace draws one ray: a second --detuning-hz is an error, where it
    # traced only the last one and exited 0.  Nothing is written.
    out = tmp_path / "trace.csv"
    argv = ["trace", "--detuning-hz", "1e5", "--detuning-hz", "2e5"]
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: trace takes one --detuning-hz\n"
    assert captured.out == "" and not out.exists()


def test_sweep_csv_prints_paraxial_flag(tmp_path):
    # At 2e12 cm^-3 the ray at +6.67 MHz, the fifth row of a 7-row stock
    # sweep, leaves the small-angle regime and the cell is opaque there:
    # the CSV joins the ray's flag ahead of the wave's.
    cfg = write_config(tmp_path, "density_cm3: 2e12\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--points", "7", "--out", str(out)]) == 0
    _, rows = rows_of(out.read_text())
    flags = [r[-1] for r in rows]
    assert flags == ["opaque"] * 3 + ["low_power", "paraxial;opaque"] + ["opaque"] * 2


def test_exit_code_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "no_such_knob: 1\n")
    assert main(["chi", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_missing_config(tmp_path, capsys):
    assert main(["chi", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_bad_range(capsys):
    assert main(["chi", "--min-hz", "10", "--max-hz", "-10"]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_input_too_large_for_memory(capsys, monkeypatch):
    # Stands in for `chi --points 1e12`, whose detunings numpy cannot
    # allocate; a real request that size could get the runner OOM-killed.
    def too_large(cfg, scene, args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(eitprism.cli, "cmd_chi", too_large)
    assert main(["chi"]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB for an array\n"


@pytest.mark.parametrize(
    "flag",
    ["--max-hz=inf", "--min-hz=-inf", "--max-hz=nan", "--min-hz -inf", "--min-hz -Infinity"],
)
def test_exit_code_non_finite_range(capsys, flag):
    # A separate "-inf" is a value, not an unknown option.
    assert main(["chi", "--min-hz", "0", "--max-hz", "1", "--points", "3", *flag.split()]) == 2
    captured = capsys.readouterr()
    assert "error: sweep_min_hz and sweep_max_hz must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command",
    [
        "chi --points 3 --min-hz -1e308 --max-hz 1e308",
        "chi --points 3 --min-hz -8e307 --max-hz 8e307",
        "chi --min-hz 1e307 --max-hz 3e307",
        "sweep --points 3 --min-hz -2e307 --max-hz 2e307",
    ],
)
def test_exit_code_overflowing_range(tmp_path, capsys, command):
    # Finite in Hz, but the bounds or their span overflow in rad/s: chi
    # printed nan and inf rows with RuntimeWarnings and exited 0, and sweep
    # exited 2 blaming a non-finite delta.  sweep_bounds refuses the range.
    out = tmp_path / "wide.csv"
    args = command.split()
    if args[0] == "sweep":
        args += ["--out", str(out)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: sweep range overflows float64 in rad/s\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "body, flags",
    [
        ("sweep_points: 1\n", ["--points", "3", "--min-hz", "-100", "--max-hz", "100"]),
        ("sweep_min_hz: 10\nsweep_max_hz: -10\n", ["--min-hz", "-100", "--max-hz", "100"]),
    ],
)
def test_flags_replace_bad_config_range(tmp_path, capsys, body, flags):
    # Only the range after the flags are applied has to be valid.
    cfg = write_config(tmp_path, body)
    assert main(["chi", "--config", cfg, *flags]) == 0
    _, rows = rows_of(capsys.readouterr().out)
    assert float(rows[0][0]) == -100.0 and float(rows[-1][0]) == 100.0


def test_exit_code_guard_band(tmp_path, capsys):
    # Vacuum diffraction over 100 m overfills a 16 mm window.
    cfg = write_config(
        tmp_path,
        "density_cm3: 0\nprobe_offset_mm: 0\ngrid_points: 2048\n"
        "grid_span_mm: 16\ndetector_distance_mm: 100000\n",
    )
    assert main(["profile", "--config", cfg]) == 3
    assert "error:" in capsys.readouterr().err


def test_exit_code_profile_opaque(capsys):
    # At 5 MHz the stock cell is opaque: profile names the opaque cell
    # instead of imaging round-off or blaming the grid span.
    assert main(["profile", "--detuning-hz", "1e5", "--detuning-hz", "5e6"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cell opaque at 5000000 Hz" in captured.err
    assert "z=0.0375 cm" in captured.err and "of the launch power left" in captured.err
    assert "grid span" not in captured.err


# A 15 cm cell at 1e12 cm^-3: at -175 kHz the probe walks off its window
# and trips the guard there at z = 14.7 cm.
WALK_KEYS = "cell_length_mm: 150\ndensity_cm3: 1e12\n"


def test_exit_code_profile_walks_off_window(tmp_path, capsys):
    # A trip on the window is no outcome: the crossing is run again on the
    # whole grid, where the cell is opaque at its exit.
    cfg = write_config(tmp_path, WALK_KEYS)
    assert main(["profile", "--config", cfg, "--detuning-hz", "-175000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cell opaque at -175000 Hz" in captured.err
    assert "z=15 cm" in captured.err
    assert "probe window" not in captured.err
    # The sweep row at that detuning gets the whole grid's outcome too.
    sc = scene_from_config(parse_config(WALK_KEYS))
    delta = TWO_PI * -175e3
    row = experiment.run_point(sc, delta)
    assert row.flags == ("opaque",)
    probe = make_gaussian_probe(
        sc.grid, sc.medium.wavelength, sc.probe.waist, sc.probe.offset
    )
    out = propagate_medium(probe, delta, sc.medium, sc.control, sc.n_slices)
    assert row.transmission == pytest.approx(transmission(probe, out), rel=1e-9)


def test_exit_code_profile_walks_off_window_and_grid(tmp_path, capsys, monkeypatch):
    # The probe sits 3.8 mm left of the centre of a 16 mm grid, on the
    # control beam's steep flank, and its 1024-point window covers half of
    # the grid.  The walk trips the guard on the window and then on the
    # whole grid; the second trip is the one reported.
    grids = []
    real = experiment.propagate_medium

    def recorded(field, *args):
        grids.append(field.grid)
        return real(field, *args)

    monkeypatch.setattr(experiment, "propagate_medium", recorded)
    offset_mm = eitprism.RunConfig().probe_offset_mm
    body = (
        WALK_KEYS + "grid_points: 2048\ngrid_span_mm: 16\nprobe_offset_mm: -3.8\n"
        f"control_center_mm: {-3.8 - offset_mm!r}\n"
    )
    cfg = write_config(tmp_path, body)
    assert main(["profile", "--config", cfg, "--detuning-hz", "-175000"]) == 3
    assert "enlarge the grid span" in capsys.readouterr().err
    sc = scene_from_config(parse_config(body))
    assert [g.n_points for g in grids] == [1024, 2048]
    assert grids[1] == sc.grid


def test_exit_code_profile_walks_off_whole_grid(tmp_path, capsys):
    # The same walk on a 1024-point grid, no wider than the probe's window:
    # the beam leaves the scene grid, so a wider grid is the remedy.  The
    # scene is shifted so that the probe sits at x = 0 on the control
    # beam's steep flank.
    offset_mm = eitprism.RunConfig().probe_offset_mm
    cfg = write_config(
        tmp_path,
        WALK_KEYS + "grid_points: 1024\ngrid_span_mm: 8\nprobe_offset_mm: 0\n"
        f"control_center_mm: {-offset_mm!r}\n",
    )
    assert main(["profile", "--config", cfg, "--detuning-hz", "-175000"]) == 3
    err = capsys.readouterr().err
    assert "z=14.7 cm; enlarge the grid span" in err
    assert "probe window" not in err


def test_exit_code_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["trace", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file or directory")
    assert not out.parent.exists()


def test_exit_code_sweep_probe_fails_guard(tmp_path, capsys):
    # A grid 8.2 probe waists wide fails the guard at launch: the sweep
    # stops at its first row.
    waist_mm = eitprism.RunConfig().probe_waist_mm
    cfg = write_config(
        tmp_path,
        f"grid_points: 512\ngrid_span_mm: {8.2 * waist_mm!r}\n"
        "probe_offset_mm: 0\nray_steps: 100\n",
    )
    out = tmp_path / "narrow.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--points", "3"]) == 3
    assert "enlarge the grid span" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["trace", "profile"])
@pytest.mark.parametrize("value", ["nan", "inf", "-nan", "-INF"])
def test_exit_code_non_finite_detuning(capsys, command, value):
    assert main([command, "--detuning-hz", value]) == 2
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert captured.out == ""


def test_exit_code_huge_detuning(tmp_path, capsys):
    # A detuning whose ray gradient overflows float64 exits 2 with the
    # reason, where trace printed NaN rows and sweep wrote NaN theta_ray
    # rows with no flag.  At 1e76 Hz the trace is still finite.
    assert main(["trace", "--detuning-hz", "1e77"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: delta too large: the ray gradient overflows\n"
    assert captured.out == ""
    out = tmp_path / "huge.csv"
    sweep = ["sweep", "--out", str(out), "--points", "40"]
    assert main(sweep + ["--min-hz", "-1e77", "--max-hz", "1e77"]) == 2
    assert "delta too large" in capsys.readouterr().err
    assert not out.exists()
    assert main(["trace", "--detuning-hz", "1e76"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + eitprism.RunConfig().ray_steps + 1
    assert "nan" not in "\n".join(lines)
    # At +-1e160 Hz the rate product of an array of detunings overflows
    # before its square: sweep warned before it exited 2, and chi warned
    # and printed chi = 0.  Both exit 2 with one line and no warning.
    wide = ["--min-hz", "-1e160", "--max-hz", "1e160"]
    assert main(sweep + wide) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: delta too large: the ray gradient overflows\n"
    assert captured.out == "" and not out.exists()
    assert main(["chi", "--points", "3"] + wide) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: delta or omega too large: the susceptibility overflows\n"
    )
    assert captured.out == ""


def test_exit_code_threads_zero(tmp_path, capsys):
    # --threads has no effect, but it is still validated.
    out = tmp_path / "t.csv"
    assert main(["sweep", "--out", str(out), "--threads", "0"]) == 2
    assert "threads must be at least 1" in capsys.readouterr().err


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
