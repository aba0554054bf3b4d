"""Config file grammar, round-trips, and scene construction."""

import dataclasses
import math

import pytest

from eitprism.config import (
    ConfigError,
    RunConfig,
    parse_config,
    scene_from_config,
    serialize_config,
    sweep_bounds,
)
from eitprism import default_scene
from reference import TWO_PI


def test_empty_and_comments_give_defaults():
    assert parse_config("") == RunConfig()
    assert parse_config("# nothing here\n\n   # still nothing\n") == RunConfig()


def test_parse_basic():
    cfg = parse_config("cell_length_mm: 50\ndensity_cm3: 1e12\n# comment\n")
    assert cfg.cell_length_mm == 50.0
    assert cfg.density_cm3 == 1e12
    assert cfg.wavelength_nm == RunConfig().wavelength_nm


def test_parse_inline_whitespace_and_ints():
    cfg = parse_config("  grid_points :  8192 \nsweep_points: 11\n")
    assert cfg.grid_points == 8192
    assert isinstance(cfg.grid_points, int)
    assert cfg.sweep_points == 11


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("cell_length_mm: 50\nno_such_knob: 1\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("cell_length_mm: 50\ncell_length_mm: 60\n")


def test_parse_rejects_junk_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("this is not a key value pair\n")


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("cell_length_mm: banana\n")
    with pytest.raises(ConfigError):
        parse_config("grid_points: 12.5\n")  # integer field
    with pytest.raises(ConfigError):
        parse_config("density_cm3: nan\n")
    with pytest.raises(ConfigError):
        parse_config("gamma_hz: inf\n")


def test_serialize_parse_round_trip():
    cfg = dataclasses.replace(
        RunConfig(),
        density_cm3=7.3e11,
        gamma_cb_hz=1234.5,
        sweep_points=17,
        probe_offset_mm=11.0,
    )
    assert parse_config(serialize_config(cfg)) == cfg


def test_parse_serialize_parse_is_stable():
    text = "density_cm3: 5e11\ncontrol_rabi_hz: 9.5e6\ngrid_points: 4096\n"
    once = parse_config(text)
    assert parse_config(serialize_config(once)) == once


def test_serialize_is_canonical():
    lines = serialize_config(RunConfig()).splitlines()
    keys = [ln.split(":")[0] for ln in lines]
    assert keys == [f.name for f in dataclasses.fields(RunConfig)]
    assert len(keys) == len(set(keys))


def test_default_config_builds_default_scene():
    # The empty config and the built-in scene must agree exactly, not
    # just approximately: both sides share the same unit conversions.
    assert scene_from_config(RunConfig()) == default_scene()


def test_unit_conversions():
    sc = scene_from_config(parse_config("cell_length_mm: 75\ngamma_cb_hz: 1e3\n"))
    assert sc.medium.cell_length == 7.5
    assert sc.medium.gamma_cb == TWO_PI * 1e3
    sc = scene_from_config(parse_config("wavelength_nm: 780\n"))
    assert sc.medium.wavelength == pytest.approx(7.8e-5, rel=1e-12)
    sc = scene_from_config(parse_config("probe_offset_mm: -12\n"))
    assert sc.probe.offset == pytest.approx(-1.2, rel=1e-12)


def test_bad_physics_is_config_error():
    with pytest.raises(ConfigError):
        scene_from_config(parse_config("gamma_hz: -5\n"))
    with pytest.raises(ConfigError):
        scene_from_config(parse_config("grid_points: 100\n"))
    with pytest.raises(ConfigError):
        scene_from_config(parse_config("probe_offset_mm: 500\n"))
    for n_slices in (48, 65):
        with pytest.raises(ConfigError, match="n_slices must be even and at least 50"):
            scene_from_config(parse_config(f"n_slices: {n_slices}\n"))


def test_sweep_bounds():
    lo, hi, n = sweep_bounds(RunConfig())
    assert lo == TWO_PI * -2e7
    assert hi == TWO_PI * 2e7
    assert n == 101
    with pytest.raises(ConfigError):
        sweep_bounds(parse_config("sweep_min_hz: 10\nsweep_max_hz: -10\n"))
    with pytest.raises(ConfigError):
        sweep_bounds(parse_config("sweep_points: 1\n"))
    # The CLI folds its range flags in after parsing, so the finiteness
    # that parse_config enforces is checked again here.
    for bounds in ({"sweep_max_hz": math.inf}, {"sweep_min_hz": -math.inf},
                   {"sweep_max_hz": math.nan}, {"sweep_min_hz": math.nan}):
        with pytest.raises(ConfigError, match="finite"):
            sweep_bounds(dataclasses.replace(RunConfig(), **bounds))
    # Finite in Hz, but the bounds or their span overflow in rad/s.
    for lo, hi in ((-1e308, 1e308), (1e307, 3e307), (-2e307, 2e307)):
        cfg = dataclasses.replace(RunConfig(), sweep_min_hz=lo, sweep_max_hz=hi)
        with pytest.raises(ConfigError, match="overflows"):
            sweep_bounds(cfg)
