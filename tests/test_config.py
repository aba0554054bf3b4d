"""Config file grammar, round-trips, and scene construction.  Refused
configs are cases of test_refusals."""

import dataclasses

import pytest

from eitprism.config import (
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


def test_sweep_bounds():
    lo, hi, n = sweep_bounds(RunConfig())
    assert lo == TWO_PI * -2e7
    assert hi == TWO_PI * 2e7
    assert n == 101
