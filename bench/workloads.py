"""The benchmark's three workloads.

Each workload drives eitprism from outside the package, the way a user
does: ``stock_sweep`` and ``imaging`` through the CLI's ``main``, and
``near_resonance`` through the library.  Calls go through module
attributes (``eitprism.cli.main``, ``eitprism.detuning_sweep``) so that the
tracer's wrappers see them.

``run`` does one iteration and returns the output bytes; ``check`` raises
``CheckFailed`` when those bytes break the workload's acceptance bounds.
The bounds, not byte hashes, are what is checked, so a change to flag
wording or float formatting that keeps the physics still passes.
``SETUP`` is the code whose cost ``setup_s`` measures in a fresh
interpreter: import the package and build the workload's scene.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import eitprism
import eitprism.cli

TWO_PI = 2.0 * math.pi

SWEEP_HEADER = (
    "detuning_hz,theta_ray_rad,theta_wave_rad,transmission,"
    "far_centroid_mm,far_width_mm,flags"
)


class CheckFailed(Exception):
    """A workload's output broke its acceptance bounds."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _cli(args: list[str]) -> None:
    code = eitprism.cli.main(args)
    _require(code == 0, f"eitprism {args[0]} exited with {code}")


class StockSweep:
    """``eitprism sweep --config <empty> --out F``: 101 rows plus summary."""

    SETUP = (
        "from eitprism.config import parse_config, scene_from_config\n"
        "scene_from_config(parse_config(''))\n"
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        # The stock command has no free input; the seed only names the files.
        self.config = workdir / "empty.cfg"
        self.config.write_text("", encoding="utf-8")
        self.out = workdir / f"sweep-{seed}.csv"
        self.summary = workdir / f"sweep-{seed}.summary.csv"
        self.cli_bytes = 0

    def run(self) -> bytes:
        _cli(["sweep", "--config", str(self.config), "--out", str(self.out)])
        data = self.out.read_bytes() + self.summary.read_bytes()
        self.cli_bytes = len(data)
        return data

    def check(self, data: bytes) -> None:
        header, rows = _csv(self.out.read_text(encoding="utf-8"))
        _require(",".join(header) == SWEEP_HEADER, "sweep header changed")
        _require(len(rows) == 101, f"{len(rows)} sweep rows, expected 101")
        centre = rows[50]
        _require(float(centre[0]) == 0.0, "centre row is not at zero detuning")
        _require(abs(float(centre[1])) < 1e-9, "centre row theta_ray not ~0")
        trans = [float(r[3]) for r in rows]
        finite = [t for t in trans if math.isfinite(t)]
        _require(
            math.isfinite(trans[50]) and trans[50] == max(finite),
            "centre row does not have the largest transmission",
        )
        header, (summary,) = _csv(self.summary.read_text(encoding="utf-8"))
        s = dict(zip(header, summary))
        _require("dispersion_noise" not in s["flags"], "dispersion_noise flag set")
        slope = abs(float(s["d_theta_d_lambda_per_nm"]))
        _require(1e2 <= slope <= 1e4, f"|dtheta/dlambda| = {slope:g} rad/nm")
        _require(float(s["glass_ratio"]) >= 1e6, "glass ratio below 1e6")
        res = float(s["resolution"])
        _require(1e10 <= res <= 1e13, f"resolving power {res:g}")


class NearResonance:
    """``detuning_sweep`` over +-400 kHz, 41 rows, one thread, via the library."""

    SETUP = "eitprism.default_scene()\n"
    POINTS = 41

    def __init__(self, seed: int, workdir: Path) -> None:
        # The window is fixed by the workload; the seed has nothing to vary.
        self.scene = eitprism.default_scene()
        self.rows = []
        self.cli_bytes = 0

    def run(self) -> bytes:
        self.rows = eitprism.detuning_sweep(
            self.scene, TWO_PI * -4e5, TWO_PI * 4e5, self.POINTS, threads=1
        )
        # repr round-trips every float exactly, so equal bytes mean equal rows.
        return repr(self.rows).encode()

    def check(self, data: bytes) -> None:
        rows = self.rows
        _require(len(rows) == self.POINTS, "wrong row count")
        mid = self.POINTS // 2
        for i, r in enumerate(rows):
            _require(math.isfinite(r.theta_wave), f"row {i}: theta_wave not finite")
            if i != mid:  # theta_ray ~ 1e-11 at zero detuning: no ratio there
                ratio = r.theta_wave / r.theta_ray
                _require(abs(ratio - 1.0) <= 0.10, f"row {i}: wave/ray = {ratio:.4f}")
                m = rows[-1 - i].theta_ray
                _require(
                    abs(r.theta_ray + m) <= 0.05 * max(abs(r.theta_ray), abs(m)),
                    f"row {i}: theta_ray not mirrored",
                )


class Imaging:
    """``eitprism profile`` at 8 detunings, then ``eitprism trace`` at each."""

    SETUP = (
        "from eitprism.config import RunConfig, scene_from_config\n"
        "scene_from_config(RunConfig())\n"
    )
    DETUNINGS_HZ = (1e4, -1e4, 1e5, -1e5, 2e5, -2e5, 4e5, -4e5)

    def __init__(self, seed: int, workdir: Path) -> None:
        # The seed sets the order in which the detunings are asked for.
        self.detunings = list(self.DETUNINGS_HZ)
        random.Random(seed).shuffle(self.detunings)
        self.profile = workdir / "profile.csv"
        self.traces = {d: workdir / f"trace_{d:+g}.csv" for d in self.detunings}
        self.cfg = eitprism.RunConfig()
        self.cli_bytes = 0

    def run(self) -> bytes:
        args = ["profile", "--out", str(self.profile)]
        for d in self.detunings:
            args += ["--detuning-hz", repr(d)]
        _cli(args)
        data = self.profile.read_bytes()
        for d in self.detunings:
            _cli(["trace", "--out", str(self.traces[d]), "--detuning-hz", repr(d)])
            data += self.traces[d].read_bytes()
        self.cli_bytes = len(data)
        return data

    def check(self, data: bytes) -> None:
        header, rows = _csv(self.profile.read_text(encoding="utf-8"))
        _require(len(header) == 2 + len(self.detunings), "profile column count")
        _require(len(rows) == self.cfg.grid_points, "profile row count")
        for j in range(1, len(header)):
            peak = max(float(r[j]) for r in rows)
            _require(peak == 1.0, f"profile column {header[j]} peaks at {peak}")
        walks = {}
        for d, path in self.traces.items():
            _, trace = _csv(path.read_text(encoding="utf-8"))
            _require(len(trace) == self.cfg.ray_steps + 1, f"trace {d:g} length")
            x = [float(r[1]) for r in trace]
            walks[d] = (x[-1] - x[0], float(trace[-1][2]))
        for d in self.DETUNINGS_HZ[::2]:
            (wp, ap), (wm, am) = walks[d], walks[-d]
            _require(
                abs(wp + wm) <= 0.05 * max(abs(wp), abs(wm))
                and abs(ap + am) <= 0.05 * max(abs(ap), abs(am)),
                f"traces at +-{d:g} Hz do not mirror",
            )


WORKLOADS = {
    "stock_sweep": StockSweep,
    "near_resonance": NearResonance,
    "imaging": Imaging,
}
