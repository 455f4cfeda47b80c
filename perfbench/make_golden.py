"""Regenerate ``perfbench/golden.json`` from the record-based reference path.

Usage (from the repository root)::

    python3 perfbench/make_golden.py

For every workload and input variant it builds the inputs exactly as a
benchmark run does, then simulates every (spec, trace) cell with
``simulate(..., use_fast_path=False)`` -- the record-based reference loop,
not the columnar, batched or shared-core paths the CLI takes -- and stores
each cell's mispredictions and instructions with a digest of the table.
Regenerate only when the inputs are meant to change: the table is the
oracle every benchmark run is checked against.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    GOLDEN_PATH,
    WORKLOADS,
    bench_environment,
    build_inputs,
    cell_key,
    grid_specs,
    table_digest,
)


def reference_cell(spec_dict: dict, trace_path: str) -> tuple:
    """``(key, [mispredictions, instructions])`` of one cell, reference path."""
    from repro.api.specs import PredictorSpec
    from repro.sim.engine import simulate
    from repro.trace.chunked import load_any_trace

    spec = PredictorSpec.from_dict(spec_dict)
    trace = load_any_trace(trace_path)
    result = simulate(spec.build(), trace, use_fast_path=False)
    return cell_key(spec.label, trace.name), [result.mispredictions, result.instructions]


#: Reference simulations run side by side.
JOBS = 2


def main() -> int:
    tables = {}
    os.environ["REPRO_TRACE_CACHE"] = "0"
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as scratch, ProcessPoolExecutor(
        JOBS, mp_context=spawn
    ) as pool:
        env = bench_environment(ROOT, Path(scratch))
        for workload in WORKLOADS.values():
            specs = grid_specs(workload)
            tables[workload.name] = {}
            for variant in range(workload.variants):
                directory = Path(scratch) / f"{workload.name}-{variant}"
                inputs = build_inputs(workload, variant, directory, env, golden=False)
                futures = [
                    pool.submit(reference_cell, spec.to_dict(), str(path))
                    for spec in specs
                    for path in inputs.trace_paths
                ]
                cells = dict(future.result() for future in futures)
                tables[workload.name][str(variant)] = {
                    "digest": table_digest(cells),
                    "cells": dict(sorted(cells.items())),
                }
                print(f"{workload.name}/{variant}: {len(cells)} cells", file=sys.stderr)
    GOLDEN_PATH.write_text(
        json.dumps({"format": 1, "workloads": tables}, indent=1) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
