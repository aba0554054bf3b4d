"""Fast self-test of the benchmark's tracer (a few seconds).

    python3 bench/selftest.py

Checks that the counts the traced run reports mean what they say, and
that tracing does not change the program's results:

* on detunings that do not trip the guard band, every ``propagate_medium``
  makes exactly 2 * (n_slices + 1) FFT calls and every trace takes exactly
  ``ray_steps`` RK4 steps;
* traced ``SweepRow``s are bit-identical to untraced ones, and every
  wrapped attribute is the original object again after ``uninstall``;
* self time subtracts children on the span's own thread only.
"""

from __future__ import annotations

import math
import struct
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import eitprism  # noqa: E402
import numpy as np  # noqa: E402

import tracer  # noqa: E402

HZ = 2.0 * math.pi
# 0 and +-100 kHz: finite wave angle, no guard trip (see near_resonance).
D_MIN, D_MAX, POINTS = -HZ * 1e5, HZ * 1e5, 3


def _bits(rows) -> list:
    """Rows with every float as its 64-bit pattern, so NaNs compare too."""
    return [
        tuple(
            struct.pack("<d", v) if isinstance(v, float) else v
            for v in vars(r).values()
        )
        for r in rows
    ]


def _attributes() -> dict:
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "eitprism"]
    snap = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    snap.update({("numpy.fft", k): getattr(np.fft, k) for k in ("fft", "ifft")})
    return snap


def test_counts_and_identity() -> None:
    scene = eitprism.default_scene()
    before = _attributes()
    plain = eitprism.detuning_sweep(scene, D_MIN, D_MAX, POINTS, threads=2)
    t = tracer.Tracer()
    with t:
        traced = eitprism.detuning_sweep(scene, D_MIN, D_MAX, POINTS, threads=2)
    after = _attributes()
    assert all(after[k] is v for k, v in before.items()), "wrappers left behind"
    assert _bits(traced) == _bits(plain), "tracing changed the rows"
    assert all(math.isfinite(r.theta_wave) and not r.flags for r in plain)

    spans = t.spans
    media = [s for s in spans if s[1] == "waves.propagate_medium"]
    assert len(media) == POINTS and not any(s[6] for s in media)
    for m in media:
        ffts = [s for s in spans if s[3] == m[0] and s[1] in tracer.FFT]
        assert len(ffts) == 2 * (scene.n_slices + 1), len(ffts)
    traces = [s for s in spans if s[1] == "rays.trace_ray"]
    assert [s[7] for s in traces] == [scene.ray_steps] * POINTS

    m = tracer.layer_metrics(spans, t.cpu, 1)
    assert m["waves.fft.calls"] == POINTS * 2 * (scene.n_slices + 1) + 2 * POINTS
    assert m["waves.slices"] == POINTS * scene.n_slices
    assert m["medium.grad_index.calls"] == 4 * POINTS * scene.ray_steps
    rk4 = 1e6 * sum(s[5] - s[4] for s in traces) / (POINTS * scene.ray_steps)
    assert m["rays.rk4_step_us"] == rk4
    assert m["experiment.run_point.calls"] == POINTS
    assert m["sweep_rows.trace_ray.calls"] == POINTS  # pool spans reach the sweep
    assert m["experiment.wave_yield"] == 1.0


def test_self_time_is_per_thread() -> None:
    # (id, name, thread, parent, start, end, raised, info)
    spans = [
        (0, "experiment.detuning_sweep", 1, None, 0.0, 10.0, False, None),
        (1, "experiment.run_point", 1, 0, 1.0, 4.0, False, None),
        (2, "experiment.run_point", 2, 0, 0.5, 9.5, False, None),  # pool thread
        (3, "rays.trace_ray", 2, 2, 1.0, 3.0, False, 100),
    ]
    own = tracer.self_times(spans)
    assert own == {0: 7.0, 1: 3.0, 2: 7.0, 3: 2.0}


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
