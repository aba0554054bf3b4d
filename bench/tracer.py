"""Outside-in tracing of eitprism's layers.

The tracer wraps public functions of the package from the outside: every
module attribute of ``eitprism.*`` that is one of the traced functions is
replaced by a timing wrapper, and ``numpy.fft.fft``/``ifft`` (which the
split-step propagator looks up on each call) are wrapped the same way.
``uninstall`` puts every original object back.  Nothing inside the
package changes.

Each call becomes one span ``(id, name, thread, parent, start, end,
raised, info)`` kept in memory and written out once, at the end of the
run, by the caller.  A span's parent is the innermost open span of the
same thread.  A span that opens with nothing open on its own thread (the
sweep's pool workers) takes the innermost open span of the main thread as
its parent, so pool work is charged to the sweep that started it.  Self
time subtracts only children on the span's own thread, because a pool
worker's spans overlap the sweep span in time rather than nesting in it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute).  Spans are named after the modules.
TARGETS = [
    ("cli.main", "eitprism.cli", "main"),
    ("experiment.detuning_sweep", "eitprism.experiment", "detuning_sweep"),
    ("experiment.angular_dispersion", "eitprism.experiment", "angular_dispersion"),
    ("experiment.spectral_resolution", "eitprism.experiment", "spectral_resolution"),
    ("experiment.run_point", "eitprism.experiment", "run_point"),
    ("rays.trace_ray", "eitprism.rays", "trace_ray"),
    ("medium.index_profile", "eitprism.medium", "index_profile"),
    ("waves.make_gaussian_probe", "eitprism.waves", "make_gaussian_probe"),
    ("waves.propagate_medium", "eitprism.waves", "propagate_medium"),
    ("waves.propagate_free", "eitprism.waves", "propagate_free"),
    ("waves.centroid", "eitprism.waves", "centroid"),
    ("waves.beam_width", "eitprism.waves", "beam_width"),
    ("waves.transmission", "eitprism.waves", "transmission"),
    ("waves.power", "eitprism.waves", "power"),
    ("waves.fft", "numpy.fft", "fft"),
    ("waves.ifft", "numpy.fft", "ifft"),
]

READOUT = ("waves.centroid", "waves.beam_width", "waves.transmission", "waves.power")
FFT = ("waves.fft", "waves.ifft")
PHASES = (
    "experiment.detuning_sweep",
    "experiment.angular_dispersion",
    "experiment.spectral_resolution",
)
ROW_FLAGS = ("guard_band", "low_power", "no_power", "paraxial")


def _info(name, result):
    """What a span keeps of its result: RK4 steps, FFT bytes, row outcome."""
    if name == "rays.trace_ray":
        return len(result.states) - 1
    if name in FFT:
        # Computed, not observed: one read and one write of the array.
        return 2 * result.nbytes
    if name == "experiment.run_point":
        return (math.isfinite(result.theta_wave), result.flags)
    return None


class Tracer:
    """Wraps the traced functions while installed; collects spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.cpu: dict[int, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        timed_cpu = name in PHASES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(tracer._ids)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            stack.append(sid)
            raised = True
            result = None
            c0 = time.process_time() if timed_cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = time.perf_counter()
                if timed_cpu:
                    tracer.cpu[sid] = time.process_time() - c0
                stack.pop()
                info = None if raised else _info(name, result)
                tracer.spans.append(
                    (sid, name, threading.get_ident(), parent, t0, t1, raised, info)
                )

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        homes = [importlib.import_module(t[1]) for t in TARGETS]
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and key.split(".")[0] == "eitprism"
        ]
        for (name, module_name, attr), home in zip(TARGETS, homes):
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in [np.fft] if home is np.fft else modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans) -> dict[int, float]:
    """Span duration minus the durations of its direct children on the
    same thread (children on other threads overlap it instead)."""
    own = {s[0]: s[5] - s[4] for s in spans}
    thread = {s[0]: s[2] for s in spans}
    for sid, _, tid, parent, t0, t1, _, _ in spans:
        if parent is not None and thread.get(parent) == tid:
            own[parent] -= t1 - t0
    return own


def layer_metrics(spans, cpu: dict[int, float], iterations: int) -> dict[str, float]:
    """Per-layer metrics per iteration from the spans of ``iterations`` runs."""
    by_id = {s[0]: s for s in spans}
    root_of: dict[int, int | None] = {}

    def root(sid):
        """Id of the phase span (sweep, dispersion, resolution) above ``sid``."""
        if sid not in root_of:
            s = by_id[sid]
            if s[1] in PHASES:
                root_of[sid] = sid
            else:
                root_of[sid] = root(s[3]) if s[3] in by_id else None
        return root_of[sid]

    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    raised: dict[str, int] = defaultdict(int)
    sweep: dict[str, int] = defaultdict(int)
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    fft_bytes = steps = readout_calls = 0
    readout_s = 0.0
    forward_in: dict[int, int] = defaultdict(int)
    index_in: dict[int, float] = defaultdict(float)
    rows = finite_rows = 0
    flags: dict[str, int] = defaultdict(int)
    probes = 0
    sweep_threads: dict[int, set] = defaultdict(set)
    for sid, name, tid, parent, t0, t1, was_raised, info in spans:
        calls[name] += 1
        secs[name] += t1 - t0
        raised[name] += was_raised
        self_s[name] += own[sid]
        top = root(sid)
        ph = by_id[top][1] if top is not None else None
        parent_name = by_id[parent][1] if parent in by_id else None
        if name == "rays.trace_ray" and info is not None:
            steps += info
        elif name in FFT:
            fft_bytes += info or 0
            if name == "waves.fft" and parent_name == "waves.propagate_medium":
                forward_in[parent] += 1
        elif name == "medium.index_profile" and parent_name == "waves.propagate_medium":
            index_in[parent] += t1 - t0
        elif name in READOUT:
            readout_calls += 1
            if parent_name not in READOUT:
                readout_s += t1 - t0
        elif name == "experiment.run_point":
            if ph == "experiment.spectral_resolution":
                probes += 1
            if ph == "experiment.detuning_sweep":
                sweep_threads[top].add(tid)
                if info is not None:
                    rows += 1
                    finite_rows += info[0]
                    for flag in info[1]:
                        flags[flag] += 1
        if ph == "experiment.detuning_sweep":
            sweep[name] += 1
            sweep[name + ".raised"] += was_raised

    medium_spans = [s for s in spans if s[1] == "waves.propagate_medium"]
    slices = sum(max(forward_in[s[0]] - 1, 0) for s in medium_spans)
    slice_time = sum(s[5] - s[4] - index_in[s[0]] for s in medium_spans)
    sweep_spans = [s for s in spans if s[1] == "experiment.detuning_sweep"]
    sweep_capacity = sum(
        (s[5] - s[4]) * max(len(sweep_threads[s[0]]), 1) for s in sweep_spans
    )
    sweep_cpu = sum(cpu.get(s[0], 0.0) for s in sweep_spans)

    n = float(iterations)
    m = {
        "medium.index_profile.calls": calls["medium.index_profile"] / n,
        "medium.index_profile.s": secs["medium.index_profile"] / n,
        "medium.grad_index.calls": 4 * steps / n,
        "rays.trace_ray.calls": calls["rays.trace_ray"] / n,
        "rays.trace_ray.s": secs["rays.trace_ray"] / n,
        "rays.rk4_step_us": 1e6 * secs["rays.trace_ray"] / steps if steps else 0.0,
        "waves.propagate_medium.calls": calls["waves.propagate_medium"] / n,
        "waves.propagate_medium.s": secs["waves.propagate_medium"] / n,
        "waves.propagate_medium.self_s": self_s["waves.propagate_medium"] / n,
        "waves.propagate_medium.raised": raised["waves.propagate_medium"] / n,
        "waves.fft.calls": (calls["waves.fft"] + calls["waves.ifft"]) / n,
        "waves.fft.s": (secs["waves.fft"] + secs["waves.ifft"]) / n,
        "waves.fft.bytes": fft_bytes / n,
        "waves.slices": slices / n,
        "waves.slice_us": 1e6 * slice_time / slices if slices else 0.0,
        "waves.make_gaussian_probe.calls": calls["waves.make_gaussian_probe"] / n,
        "waves.make_gaussian_probe.s": secs["waves.make_gaussian_probe"] / n,
        "waves.propagate_free.calls": calls["waves.propagate_free"] / n,
        "waves.propagate_free.s": secs["waves.propagate_free"] / n,
        "waves.propagate_free.raised": raised["waves.propagate_free"] / n,
        "waves.readout.calls": readout_calls / n,
        "waves.readout.s": readout_s / n,
        "experiment.run_point.calls": calls["experiment.run_point"] / n,
        "experiment.run_point.s": secs["experiment.run_point"] / n,
        "experiment.detuning_sweep.s": secs["experiment.detuning_sweep"] / n,
        "experiment.detuning_sweep.core_util": (
            sweep_cpu / sweep_capacity if sweep_capacity else 0.0
        ),
        "experiment.angular_dispersion.s": secs["experiment.angular_dispersion"] / n,
        "experiment.spectral_resolution.s": secs["experiment.spectral_resolution"] / n,
        "experiment.spectral_resolution.probes": probes / n,
        "experiment.wave_yield": finite_rows / rows if rows else 0.0,
    }
    for flag in ROW_FLAGS:
        m[f"experiment.rows.{flag}"] = flags[flag] / n
    for name in (
        "rays.trace_ray",
        "waves.propagate_medium",
        "waves.propagate_free",
    ):
        short = name.split(".", 1)[1]
        m[f"sweep_rows.{short}.calls"] = sweep[name] / n
        if name != "rays.trace_ray":
            m[f"sweep_rows.{short}.raised"] = sweep[name + ".raised"] / n
    m["sweep_rows.fft.calls"] = sweep["waves.fft"] / n
    m["sweep_rows.ifft.calls"] = sweep["waves.ifft"] / n
    m["cli.main.self_s"] = self_s["cli.main"] / n
    return m
