"""Plain-text run configuration.

One ``key: value`` pair per line, ``#`` starts a comment, blank lines are
ignored.  Keys carry their unit in the name (laboratory units: nm, mm, Hz,
cm^-3); the library works in cm and rad/s.  :func:`scene_from_config`
converts the scene's keys.  :func:`sweep_bounds` is the one conversion of a
sweep range, the config's or the CLI flags': ``eitprism chi`` and ``sweep``
both sample its rad/s range with experiment.sweep_detunings, so they print
the same detunings.  The CLI converts the detunings of ``profile`` and
``trace`` from Hz and the lengths it prints to mm itself.  Unknown and
duplicate keys are errors: a silently ignored typo costs more than the
retype.  An empty document yields the default experiment.

:func:`serialize_config` writes the canonical form (fixed key order,
shortest float representation), so parse -> serialize -> parse is the
identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .experiment import TWO_PI, ProbeSpec, Scene
from .medium import ControlField, MediumParams
from .waves import centered_grid

__all__ = [
    "ConfigError",
    "RunConfig",
    "default_scene",
    "parse_config",
    "serialize_config",
    "scene_from_config",
    "sweep_bounds",
]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Every run setting, in laboratory units.  The defaults are the stock
    experiment: a 7.5 cm rubidium-line cell driven by a wide control beam,
    the probe launched on the control-beam shoulder, the detector 230 cm
    past the cell exit."""

    wavelength_nm: float = 795.0
    density_cm3: float = 3e11
    gamma_r_hz: float = 5.75e6
    gamma_hz: float = 1.5e6
    gamma_cb_hz: float = 1e3
    cell_length_mm: float = 75.0
    control_rabi_hz: float = 1e7
    control_waist_mm: float = 36.0
    control_center_mm: float = 0.0
    # 0.7 mm intensity FWHM expressed as a 1/e field radius.
    probe_waist_mm: float = 0.7 / math.sqrt(2.0 * math.log(2.0))
    # Default control waist / sqrt(2), the steepest point of the Rabi
    # profile.  It does not follow control_waist_mm; a config that changes
    # the control beam sets it as well.
    probe_offset_mm: float = control_waist_mm / math.sqrt(2.0)
    detector_distance_mm: float = 2300.0
    grid_points: int = 16_384
    grid_span_mm: float = 128.0
    n_slices: int = 64
    ray_steps: int = 10_000
    sweep_min_hz: float = -2e7
    sweep_max_hz: float = 2e7
    sweep_points: int = 101


_FIELD_ORDER = [f.name for f in fields(RunConfig)]
# Postponed annotations make f.type the string "int".
_INT_FIELDS = {f.name for f in fields(RunConfig) if f.type in (int, "int")}


def parse_config(text: str) -> RunConfig:
    """Parse a config document; unknown keys, duplicates and junk are fatal."""
    values: dict[str, float | int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key: value', got {raw!r}")
        if key not in _FIELD_ORDER:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            num = float(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key}: not a number: {value!r}") from None
        if not math.isfinite(num):
            raise ConfigError(f"line {lineno}: {key}: value must be finite")
        if key in _INT_FIELDS:
            if not num.is_integer():
                raise ConfigError(f"line {lineno}: {key}: expected an integer")
            values[key] = int(num)
        else:
            values[key] = num
    return RunConfig(**values)


def _format_value(name: str, value: float | int) -> str:
    if name in _INT_FIELDS:
        return str(int(value))
    return repr(float(value))


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form: every key, fixed order, round-trips exactly."""
    lines = [
        f"{name}: {_format_value(name, getattr(cfg, name))}" for name in _FIELD_ORDER
    ]
    return "\n".join(lines) + "\n"


def scene_from_config(cfg: RunConfig) -> Scene:
    """Build the Scene, converting lab units (nm, mm, Hz) to cm and rad/s."""
    try:
        medium = MediumParams(
            wavelength=cfg.wavelength_nm * 1e-7,
            density=cfg.density_cm3,
            gamma_r=TWO_PI * cfg.gamma_r_hz,
            gamma=TWO_PI * cfg.gamma_hz,
            gamma_cb=TWO_PI * cfg.gamma_cb_hz,
            cell_length=cfg.cell_length_mm * 0.1,
        )
        control = ControlField(
            omega_peak=TWO_PI * cfg.control_rabi_hz,
            waist=cfg.control_waist_mm * 0.1,
            center=cfg.control_center_mm * 0.1,
        )
        probe = ProbeSpec(
            waist=cfg.probe_waist_mm * 0.1, offset=cfg.probe_offset_mm * 0.1
        )
        grid = centered_grid(cfg.grid_points, cfg.grid_span_mm * 0.1)
        return Scene(
            medium=medium,
            control=control,
            probe=probe,
            detector_distance=cfg.detector_distance_mm * 0.1,
            grid=grid,
            n_slices=cfg.n_slices,
            ray_steps=cfg.ray_steps,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def default_scene() -> Scene:
    """The stock experiment: the scene of the empty config."""
    return scene_from_config(RunConfig())


def sweep_bounds(cfg: RunConfig) -> tuple[float, float, int]:
    """Sweep range in rad/s plus point count, validated: the one conversion
    of a sweep range.  The CLI's range flags are folded into ``cfg`` after
    parse_config checked its values.  A range whose bounds or span overflow
    float64 in rad/s is refused."""
    if cfg.sweep_points < 2:
        raise ConfigError("sweep_points must be at least 2")
    if not (math.isfinite(cfg.sweep_min_hz) and math.isfinite(cfg.sweep_max_hz)):
        raise ConfigError("sweep_min_hz and sweep_max_hz must be finite")
    if not cfg.sweep_max_hz > cfg.sweep_min_hz:
        raise ConfigError("sweep_max_hz must exceed sweep_min_hz")
    lo, hi = TWO_PI * cfg.sweep_min_hz, TWO_PI * cfg.sweep_max_hz
    if not math.isfinite(hi - lo):
        raise ConfigError("sweep range overflows float64 in rad/s")
    return lo, hi, cfg.sweep_points
