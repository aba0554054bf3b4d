"""Command-line front end.

Four subcommands, all driven by the same config file (see config.py;
every key is optional and defaults to the stock experiment):

    chi      susceptibility and refractive index versus probe detuning,
             evaluated at the probe's transverse position
    sweep    full detuning sweep (ray + wave measurements per row) plus a
             one-line summary CSV with the dispersion slope and resolution
    profile  far-field intensity profiles at chosen detunings
    trace    the scene's ray through the cell (experiment.scene_ray), the
             ray whose exit angle run_point reports

The physics of each subcommand lives in the library (medium, experiment);
this module only parses arguments, maps errors to exit codes and formats
CSV.  CSV goes to --out (stdout if omitted; sweep requires
--out because it writes a second summary file next to it).  Floats are
printed with 9 significant digits, a whole row at a time (see _rows); line
endings are LF.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    parse_config,
    scene_from_config,
    sweep_bounds,
)
from .experiment import (
    GLASS_DISPERSION_PER_NM,
    TWO_PI,
    Scene,
    angular_dispersion,
    detuning_sweep,
    profile,
    scene_ray,
    spectral_resolution,
    sweep_detunings,
)
from .medium import complex_chi, rabi_at, refractive_index
from .rays import PARAXIAL_LIMIT
from .waves import GuardBandError, ZeroPowerError


def _rows(*columns) -> list[str]:
    """One CSV line per row of equal-length float columns.  "%.9g" prints
    every float, nan, inf and -0 included, as f"{x:.9g}" does."""
    template = ",".join(["%.9g"] * len(columns))
    return [
        template % row
        for row in zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    ]


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return parse_config(text)


def _sweep_range(cfg: RunConfig, args: argparse.Namespace) -> tuple[float, float, int]:
    """Sweep start and end in rad/s plus point count from sweep_bounds: the
    command-line flags override the config's sweep keys."""
    flags = {
        "sweep_min_hz": args.min_hz,
        "sweep_max_hz": args.max_hz,
        "sweep_points": args.points,
    }
    return sweep_bounds(replace(cfg, **{k: v for k, v in flags.items() if v is not None}))


def cmd_chi(cfg: RunConfig, scene: Scene, args: argparse.Namespace) -> None:
    deltas = np.array(sweep_detunings(*_sweep_range(cfg, args)))
    omega = rabi_at(scene.probe.offset, scene.control)
    chi = complex_chi(deltas, omega, scene.medium)
    index = refractive_index(chi)
    lines = ["detuning_hz,re_chi,im_chi,re_n_minus_1,im_n"]
    lines += _rows(deltas / TWO_PI, chi.real, chi.imag, index.real - 1.0, index.imag)
    _emit(lines, args.out)


def cmd_sweep(cfg: RunConfig, scene: Scene, args: argparse.Namespace) -> None:
    lo, hi, n = _sweep_range(cfg, args)
    rows = detuning_sweep(scene, lo, hi, n, threads=args.threads)
    lines = [
        "detuning_hz,theta_ray_rad,theta_wave_rad,transmission,"
        "far_centroid_mm,far_width_mm,flags"
    ]
    values = [
        (
            r.detuning / TWO_PI,
            r.theta_ray,
            r.theta_wave,
            r.transmission,
            r.far_centroid * 10.0,
            r.far_width * 10.0,
        )
        for r in rows
    ]
    numbers = _rows(*zip(*values))
    lines += [f"{line},{';'.join(r.flags)}" for line, r in zip(numbers, rows)]
    _emit(lines, args.out)

    slope, noise = angular_dispersion(scene)
    resolution, cause = spectral_resolution(scene, max_separation=hi - lo)
    flags = [f for f in (noise, cause) if f]
    ratio = abs(slope) / GLASS_DISPERSION_PER_NM
    (row,) = _rows([slope], [GLASS_DISPERSION_PER_NM], [ratio], [resolution])
    summary = [
        "d_theta_d_lambda_per_nm,glass_reference_per_nm,glass_ratio,resolution,flags",
        f"{row},{';'.join(flags)}",
    ]
    out = Path(args.out)
    _emit(summary, str(out.with_name(out.stem + ".summary.csv")))


def cmd_profile(cfg: RunConfig, scene: Scene, args: argparse.Namespace) -> None:
    detunings_hz = args.detuning_hz if args.detuning_hz else [0.0]
    fields = profile(scene, [TWO_PI * d_hz for d_hz in detunings_hz])
    columns = [np.abs(f.amplitude) ** 2 for f in fields]
    if not args.no_normalize:
        peaks = [c.max() for c in columns]
        columns = [c / p if p > 0.0 else c for c, p in zip(columns, peaks)]
    header = ["x_mm", "input_plane"] + ["far_" + d for d in _rows(detunings_hz)]
    lines = [",".join(header)] + _rows(scene.grid.xs() * 10.0, *columns)
    _emit(lines, args.out)


def cmd_trace(cfg: RunConfig, scene: Scene, args: argparse.Namespace) -> None:
    d_hz, *more = args.detuning_hz or [0.0]
    if more:
        raise ValueError("trace takes one --detuning-hz")
    traj = scene_ray(scene, TWO_PI * d_hz)
    lines = ["z_cm,x_mm,angle_rad"]
    if traj.paraxial_violation:
        warning = "# warning: ray left the small-angle regime (|angle| >= %g)"
        lines.append(warning % PARAXIAL_LIMIT)
    states = traj.states
    lines += _rows(states[:, 0], states[:, 1] * 10.0, states[:, 2])
    _emit(lines, args.out)


# argparse only recognizes plain decimals as negative positionals, so
# "--min-hz -1e4" or "-inf" would be parsed as an unknown option.  Widen the
# matcher to scientific notation and the non-finite spellings of float().
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf(inity)?|nan)$", re.I)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eitprism",
        description="Beam deflection spectroscopy in a coherently driven vapor cell.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: argparse.ArgumentParser, out_required: bool = False) -> None:
        p.add_argument("--config", help="run configuration file")
        p.add_argument(
            "--out",
            required=out_required,
            help="output CSV path" + ("" if out_required else " (default stdout)"),
        )

    p_chi = sub.add_parser("chi", help="susceptibility vs detuning")
    common(p_chi)
    p_sweep = sub.add_parser("sweep", help="detuning sweep with summary")
    common(p_sweep, out_required=True)
    p_sweep.add_argument(
        "--threads", type=int, help="accepted for compatibility; has no effect"
    )
    for p in (p_chi, p_sweep):
        p.add_argument("--min-hz", type=float, help="sweep start, Hz")
        p.add_argument("--max-hz", type=float, help="sweep end, Hz")
        p.add_argument("--points", type=int, help="number of sweep points")

    p_profile = sub.add_parser("profile", help="far-field intensity profiles")
    common(p_profile)
    p_profile.add_argument(
        "--no-normalize",
        action="store_true",
        help="emit raw intensities instead of peak-normalized profiles",
    )
    p_trace = sub.add_parser("trace", help="single ray trajectory")
    common(p_trace)
    for p in (p_profile, p_trace):
        p.add_argument(
            "--detuning-hz",
            type=float,
            action="append",
            help="two-photon detuning in Hz (repeatable for profile)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        scene = scene_from_config(cfg)
        handler = {
            "chi": cmd_chi,
            "sweep": cmd_sweep,
            "profile": cmd_profile,
            "trace": cmd_trace,
        }[args.command]
        handler(cfg, scene, args)
    except (ValueError, OSError, MemoryError) as exc:
        # ValueError includes ConfigError; MemoryError is an input too
        # large to allocate, such as --points 1e12.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GuardBandError, ZeroPowerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0
