"""Self-test of the per-layer drivers: a slowed layer must show where it is.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py``
(or ``python3 perfbench/selftest.py``).  It is not collected by the tier-1
suite: it takes about a minute and measures time.

The test makes ``TAGEEngine.predict_into`` busy-wait a fixed delay per call
and profiles shrunken ``sweep-shared`` and ``dist-2w`` inputs with and
without it.  ``sweep-shared`` looks up TAGE once per branch; ``dist-2w``
runs ``gehl+imli`` only and never does.  Only ``tage.lookup_s`` may absorb
the delay, and only the end-to-end wall of the workload that uses TAGE may
grow by it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import profile_inputs  # noqa: E402
from perfbench.workloads import WORKLOADS, bench_environment, build_inputs  # noqa: E402

#: Busy-wait added to every TAGE lookup.
DELAY_S = 200e-6
#: Shrunken inputs: a few short traces per workload.
SMALL = {
    "sweep-shared": {"benchmarks": ("SPEC2K6-04", "MM-4"), "length": 1500},
    "dist-2w": {"benchmarks": ("SPEC2K6-04", "MM-4", "CLIENT-01", "WS-01"), "length": 600},
}


def _profile(inputs, workdir: Path):
    """(layer metrics, untraced in-process wall, TAGE lookups) of one profile."""
    profile = profile_inputs(inputs, workdir, deadline=0.0)
    values = {name: value for name, (value, unit) in profile.metrics.items() if unit == "s"}
    return values, profile.untraced_wall_s, profile.tracer.calls().get("tage.lookup", 0)


def _delayed(original):
    def predict_into(self, pc, result):
        end = time.perf_counter() + DELAY_S
        while time.perf_counter() < end:
            pass
        return original(self, pc, result)

    return predict_into


def test_delay_in_one_layer_moves_only_that_layer():
    from repro.predictors.tage import TAGEEngine

    original = TAGEEngine.predict_into
    with tempfile.TemporaryDirectory() as scratch:
        workdir = Path(scratch)
        env = bench_environment(ROOT, workdir)
        inputs = {
            name: build_inputs(
                dataclasses.replace(WORKLOADS[name], **changes), 1,
                workdir / name, env, golden=False,
            )
            for name, changes in SMALL.items()
        }
        runs = {}
        for delayed in (False, True):
            TAGEEngine.predict_into = _delayed(original) if delayed else original
            try:
                for name, workload_inputs in inputs.items():
                    runs[name, delayed] = _profile(
                        workload_inputs, workdir / f"{name}-{delayed}"
                    )
            finally:
                TAGEEngine.predict_into = original

    base, base_wall, lookups = runs["sweep-shared", False]
    slow, slow_wall, _ = runs["sweep-shared", True]
    injected = lookups * DELAY_S
    assert injected > 0.5, f"too few TAGE lookups ({lookups}) to see the delay"
    moved = {name: slow[name] - base[name] for name in base}
    report = json.dumps({name: round(delta, 4) for name, delta in moved.items()})
    assert moved["tage.lookup_s"] > 0.8 * injected, report
    others = {name: delta for name, delta in moved.items()
              if name not in ("tage.lookup_s", "traced_wall_s", "cli.export_s")}
    assert all(abs(delta) < 0.15 * injected for delta in others.values()), report
    assert slow_wall - base_wall > 0.7 * injected, (base_wall, slow_wall, injected)

    dist_base, dist_wall, dist_lookups = runs["dist-2w", False]
    dist_slow, dist_slow_wall, _ = runs["dist-2w", True]
    assert dist_lookups == 0 and dist_slow["tage.lookup_s"] == 0.0
    assert abs(dist_slow_wall - dist_wall) < 0.5 * injected, (dist_wall, dist_slow_wall)


if __name__ == "__main__":
    test_delay_in_one_layer_moves_only_that_layer()
    print("perfbench self-test passed")
