"""Benchmark of eitprism: three workloads, end-to-end and per-layer metrics.

One workload; prints a report, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``:

    python3 bench/run.py --workload stock_sweep --seed 1 --seconds 45 --trace 0

Every workload in turn, each in its own process, with a summary table:

    python3 bench/run.py --all [--seconds 45] [--trace 0|1]

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``cpu_s``,
``peak_rss_mb``, ``setup_s``).  ``--trace 1`` spends half of the time
untraced and half under the tracer (see ``tracer.py``) and reports the
per-layer metrics plus ``tracing_overhead_s``.  The program is always the
copy in ``src/`` next to this directory; without it the run fails before
printing a result.  Files go to ``.bench_work/`` next to ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-up samples taken before and again after the timed loop.
SETUP_REPEATS = 5

# Per-layer times of layers that some workload never enters (no sweep or
# search in imaging, no CLI in near_resonance).  They read exactly 0 on
# those workloads, so they are printed and saved but left out of the JSON
# result line and of BENCHMARK.json.
REPORT_ONLY = {
    "experiment.run_point.s",
    "experiment.detuning_sweep.s",
    "experiment.angular_dispersion.s",
    "experiment.spectral_resolution.s",
    "waves.readout.s",
    "cli.main.self_s",
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Times import plus scene construction inside a fresh interpreter; the
# workload's SETUP snippet is appended.
SETUP_PRELUDE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import eitprism\n"
)
SETUP_EPILOGUE = "print(repr(time.perf_counter() - t0))\n"


def load_program():
    """Import eitprism from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "eitprism" / "__init__.py").is_file():
        sys.exit(f"error: no eitprism sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import eitprism

    if Path(eitprism.__file__).resolve().parent != SRC / "eitprism":
        sys.exit(f"error: imported eitprism from {eitprism.__file__}, not {SRC}")
    return eitprism


def metadata(samples: dict[str, int]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        if rev.returncode == 0:
            sha = rev.stdout.strip()
            status = subprocess.run(
                git + ["status", "--porcelain"], capture_output=True, text=True
            )
            dirty = bool(status.stdout.strip())
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "git_sha": sha,
        "git_dirty": dirty,
        # Recorded as found; the benchmark never sets them.
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "samples": samples,
    }


def measure_setup(setup_code: str) -> list[float]:
    code = SETUP_PRELUDE + setup_code + SETUP_EPILOGUE
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=120,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Loop:
    """Runs iterations, times them, checks outputs, counts failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first: bytes | None = None  # digest of the first good output
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float) -> tuple[list[float], list[float]]:
        """Iterate at least once, and again while the next iteration, taken
        to last the median so far, still ends within ``seconds``."""
        walls, cpus = [], []
        start = time.perf_counter()
        while not walls or (
            time.perf_counter() - start + statistics.median(walls) <= seconds
        ):
            self.attempted += 1
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                data = self.workload.run()
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
                self.workload.check(data)
                digest = hashlib.sha256(data).digest()
                del data
                if self.first is None:
                    self.first = digest
                elif digest != self.first:
                    raise RuntimeError("output bytes differ from the first iteration")
            except Exception:  # any failure of an iteration is counted, not fatal
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
            walls.append(wall)
            cpus.append(cpu)
        return walls, cpus


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import tracer
    import workloads

    cls = workloads.WORKLOADS[name]
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = cls(seed, workdir)
    loop = Loop(workload)

    if not trace:
        setup = measure_setup(cls.SETUP)
        walls, cpus = loop.run(seconds)
        setup += measure_setup(cls.SETUP)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setup),
        }
        samples = {"wall_s": len(walls), "cpu_s": len(cpus), "peak_rss_mb": 1,
                   "setup_s": len(setup)}
        units = END_TO_END_UNITS
    else:
        walls, _ = loop.run(seconds / 2)
        t = tracer.Tracer()
        with t:
            traced, _ = loop.run(seconds / 2)
        values = tracer.layer_metrics(t.spans, t.cpu, len(traced))
        values["cli.bytes_out"] = float(workload.cli_bytes)
        values["tracing_overhead_s"] = statistics.median(traced) - statistics.median(walls)
        samples = {k: len(traced) for k in values}
        samples["tracing_overhead_s"] = len(walls) + len(traced)
        units = {k: tracer_unit(k) for k in values}
        (WORK / f"{name}.spans.json").write_text(
            json.dumps({"spans": t.spans, "cpu": t.cpu}), encoding="utf-8"
        )

    meta = metadata(samples)
    meta.update(workload=name, seed=seed, seconds=seconds, trace=int(trace))
    (WORK / f"{name}.{'trace' if trace else 'e2e'}.json").write_text(
        json.dumps({"meta": meta, "metrics": values}, indent=1), encoding="utf-8"
    )
    error_rate = loop.failed / loop.attempted
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    print("meta " + json.dumps(meta))
    for key, value in values.items():
        note = "  (report only)" if key in REPORT_ONLY else ""
        print(f"  {key:<46} {value:>16.6g} {units[key]:<6} n={samples[key]}{note}")
    print(f"  {'error_rate':<46} {error_rate:>16.6g} {'1':<6} n={loop.attempted}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            k: {"value": v, "unit": units[k]}
            for k, v in values.items()
            if k not in REPORT_ONLY
        },
    }
    print(json.dumps(result))
    return 0


def tracer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes") or name.endswith("bytes_out"):
        return "bytes"
    if name.endswith("core_util") or name.endswith("wave_yield"):
        return "ratio"
    return "count"


def run_all(names, args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    table = []
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        meta = next(ln for ln in lines if ln.startswith("meta "))
        samples = json.loads(meta[len("meta "):])["samples"]
        for key, m in result["metrics"].items():
            table.append((name, key, m["value"], m["unit"], samples[key]))
        table.append((name, "error_rate", result["failed"] / result["attempted"], "1",
                      result["attempted"]))
    print()
    print(f"{'workload':<16} {'metric':<46} {'value':>14} {'unit':<6} n")
    for name, key, value, unit, n in table:
        print(f"{name:<16} {key:<46} {value:>14.6g} {unit:<6} {n}")
    return 0


def main(argv=None) -> int:
    load_program()
    import workloads

    names = list(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=names)
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(names, args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
