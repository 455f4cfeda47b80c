"""Per-layer drivers: the benchmark workloads in-process, traced layer by layer.

:func:`measure_layers` builds a workload's seeded inputs, runs it untraced
and traced in turn through the public API -- :class:`Experiment` on
a :class:`SuiteRunner` with ``jobs=1`` for the sweeps, a
:class:`Coordinator` with two :class:`Worker` threads and
:func:`submit_sweep` for ``dist-2w`` -- and reports each layer's self time
and exact counts per traced iteration.  Layers are named after the modules
they live in; :data:`LAYER_METRICS` says which end-to-end metric each one
should move.  Every run's cells are checked against the golden table.

The sweeps run on one thread and their spans use wall time.  ``dist-2w``
runs coordinator, workers and client as threads of one process, so its
spans use per-thread CPU time: self times then add up instead of each
counting the others' turns on the GIL, and a blocked ``read_frame`` costs
only the CPU it used.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import threading
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.tracer import Tracer
from perfbench.workloads import (
    MIXED_CHUNK_BRANCHES,
    PROFILE,
    WORKLOADS,
    BenchmarkError,
    Inputs,
    build_inputs,
    cell_key,
    grid_specs,
    repro_command,
    table_digest,
)

#: Per-layer metric (seconds of self time per traced iteration) -> layer.
#: Where each should show end to end:
#:   trace.* -> wall_s on sweep-solo-mixed; ingest -> setup_s;
#:   history.*, tage.* -> sim_branches_per_s on sweep-solo-mixed;
#:   sc.*, adder.*, imli.* -> cells_per_s on sweep-shared;
#:   shared_core.*, engine.* -> both sweeps;
#:   runner, store.*, dist.*, obs.* -> cells_per_s on dist-2w;
#:   cli.* -> wall_s on dist-2w (four interpreters).
LAYER_METRICS: Dict[str, str] = {
    "trace.decode_s": "trace.decode",
    "trace.load_s": "trace.load",
    "history.self_s": "history",
    "tage.lookup_s": "tage.lookup",
    "tage.train_s": "tage.train",
    "sc.predict_s": "sc.predict",
    "sc.train_s": "sc.train",
    "adder.compute_s": "adder.compute",
    "adder.train_s": "adder.train",
    "imli.heads_s": "imli.heads",
    "shared_core.step_s": "shared_core.step",
    "engine.self_s": "engine",
    "runner.self_s": "runner",
    "store.get_s": "store.get",
    "store.put_s": "store.put",
    "dist.encode_s": "dist.encode",
    "dist.decode_s": "dist.decode",
    "dist.frame_io_s": "dist.frame_io",
    "obs.record_s": "obs.record",
}

#: Exact counts reported beside the timings (they repeat run to run).
COUNT_METRICS = {
    "history.folds": "count",
    "engine.groups": "count",
    "engine.solos": "count",
    "store.hits": "count",
    "store.misses": "count",
    "dist.frames": "count",
    "dist.frame_bytes": "bytes",
}

#: Layers paid per cell rather than per branch (``dist.overhead_per_cell_ms``).
PER_CELL_LAYERS = (
    "store.get", "store.put", "dist.encode", "dist.decode", "dist.frame_io", "obs.record",
)

#: Shares of the traced wall used to show which layers a workload stresses.
SHARES = {
    "share.history_tage": ("history", "tage.lookup", "tage.train"),
    "share.heads": ("sc.predict", "sc.train", "adder.compute", "adder.train", "imli.heads"),
    "share.per_cell": ("runner",) + PER_CELL_LAYERS,
}

#: Layers whose individual calls are kept as spans (the coarse ones).
COARSE_LAYERS = (
    "trace.load", "ingest", "engine", "runner", "store.get", "store.put",
    "dist.encode", "dist.decode", "obs.record",
)

#: Frame types whose number and content do not depend on timing (polling
#: ``wait``/``lease`` and heartbeat ``renew`` frames do).
_DATA_FRAMES = frozenset({
    "hello", "welcome", "submit", "accepted", "work", "fetch_trace", "trace",
    "fetch_trace_chunk", "trace_chunk", "result", "ack", "job_done",
})
#: Per-frame keys carrying measured times, left out of ``dist.frame_bytes``.
_TIMED_KEYS = ("timings", "batch")


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer's entry points on ``tracer``.

    An entry point a later change removed is skipped and listed in
    ``tracer.missing``; :func:`measure_layers` then fails the run, so a
    vanished layer never reads as a faster one.
    """
    from repro.core.component import SharedState
    from repro.core.imli_oh import IMLIOuterHistoryComponent
    from repro.core.imli_sic import IMLISameIterationComponent
    from repro.dist import protocol
    from repro.ingest import pipeline
    from repro.obs.events import EventLog
    from repro.obs.timings import TimingLog
    from repro.predictors import shared_core
    from repro.predictors.adder import AdderTree
    from repro.predictors.statistical_corrector import StatisticalCorrector
    from repro.predictors.tage import TAGEEngine
    from repro.sim import engine, runner
    from repro.store.result_store import ResultStore
    from repro.trace import chunked
    from repro.trace.trace import Trace

    span = tracer.span
    span(Trace, "columns", "trace.decode")
    span(chunked.ChunkedTrace, "chunk", "trace.decode")
    span(chunked, "load_any_trace", "trace.load")
    span(Trace, "fingerprint", "trace.load")
    span(chunked.ChunkedTrace, "fingerprint", "trace.load")

    def count_ingest(counts, args, report):
        counts["ingest.records"] += report.records

    span(pipeline, "ingest_trace", "ingest", counter=count_ingest)

    # Registered folds per shared state (zero-length folds never update).
    folds: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def count_fold(counts, args, register):
        if args[1]:
            folds.setdefault(args[0], set()).add(id(register))

    def count_update(counts, args, result):
        counts["history.updates"] += 1
        counts["history.folds"] += len(folds.get(args[0], ()))

    def count_observe(counts, args, result):
        counts["history.updates"] += 1

    tracer.hook(SharedState, "new_folded_history", count_fold, "history.folds")
    span(SharedState, "update_conditional_fields", "history", counter=count_update)
    span(SharedState, "observe_pc", "history", counter=count_observe)

    span(TAGEEngine, "predict_into", "tage.lookup")
    span(TAGEEngine, "train_fields", "tage.train")
    span(StatisticalCorrector, "predict_into", "sc.predict")
    span(StatisticalCorrector, "predict_into_shared", "sc.predict")
    span(StatisticalCorrector, "train_fields", "sc.train")
    span(AdderTree, "compute", "adder.compute")
    span(AdderTree, "compute_with_shared", "adder.compute")
    span(AdderTree, "train_fields", "adder.train")
    span(IMLISameIterationComponent, "select_sum", "imli.heads")
    span(IMLIOuterHistoryComponent, "select_sum", "imli.heads")
    span(IMLIOuterHistoryComponent, "on_outcome_fields", "imli.heads")
    for name in ("_TageGscGroup", "_GehlGroup"):
        group = getattr(shared_core, name, None)
        span(group, "step_count", "shared_core.step")
        span(group, "step_list", "shared_core.step")

    def count_plan(counts, args, plan):
        if plan is None:
            counts["engine.solos"] += len(args[0])
        else:
            counts["engine.groups"] += len(plan[0])
            counts["engine.solos"] += len(plan[1])

    tracer.hook(engine, "plan_groups", count_plan, "engine.groups")
    for module in (engine, runner):
        span(module, "simulate", "engine")
        span(module, "simulate_many", "engine")
    span(runner.SuiteRunner, "run_specs", "runner")

    def count_get(counts, args, result):
        counts["store.misses" if result is None else "store.hits"] += 1

    span(ResultStore, "get", "store.get", counter=count_get)
    span(ResultStore, "put", "store.put")

    for name in ("encode_trace", "encode_chunk", "profile_to_payload"):
        span(protocol, name, "dist.encode")
    for name in ("decode_trace", "decode_chunk", "profile_from_payload"):
        span(protocol, name, "dist.decode")

    def count_frame(counts, args, result):
        frame = args[1]
        if frame.get("type") in _DATA_FRAMES:
            payload = {key: value for key, value in frame.items() if key not in _TIMED_KEYS}
            counts["dist.frames"] += 1
            counts["dist.frame_bytes"] += 1 + len(
                json.dumps(payload, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
            )

    span(protocol, "write_frame", "dist.frame_io", counter=count_frame)
    span(protocol, "read_frame", "dist.frame_io")

    span(TimingLog, "record", "obs.record")
    span(TimingLog, "write_summary", "obs.record")
    span(EventLog, "emit", "obs.record")


# --------------------------------------------------------------------------- #
# In-process drivers
# --------------------------------------------------------------------------- #


def _inprocess_ingest(text: Path, output: Path, name: str, env) -> dict:
    """``ingest_trace`` in this process (the traced counterpart of the CLI)."""
    from repro.ingest import pipeline

    report = pipeline.ingest_trace(
        text, output, reader="cbp", name=name, chunk_branches=MIXED_CHUNK_BRANCHES
    )
    return report.to_dict()


def _run_dist(specs, traces, store) -> None:
    """One coordinator, two worker threads, one submitting client."""
    from repro.dist import Coordinator
    from repro.dist.client import submit_sweep
    from repro.dist.worker import Worker

    coordinator = Coordinator(port=0, store=store)
    host, port = coordinator.start()
    workers = [Worker(host, port, name=f"w{index}", reconnect=0) for index in (1, 2)]
    threads = [
        threading.Thread(target=worker.run, name=f"perfbench-worker-{index}")
        for index, worker in enumerate(workers, start=1)
    ]
    for thread in threads:
        thread.start()
    try:
        submit_sweep(f"{host}:{port}", specs, traces)
    finally:
        coordinator.shutdown()
        for thread in threads:
            thread.join(timeout=60)
    if any(thread.is_alive() for thread in threads):
        raise BenchmarkError("a worker thread did not stop after the coordinator shut down")


def run_inprocess(inputs: Inputs, directory: Path) -> Tuple[float, float, Dict[str, list]]:
    """Drive the workload once through the public API.

    Returns ``(wall seconds, export seconds, exported cell table)``; the
    export is what ``repro store export`` does, timed on its own.
    """
    from repro.api.experiment import Experiment
    from repro.store.result_store import ResultStore
    from repro.trace import chunked

    workload = inputs.workload
    specs = grid_specs(workload)
    store = ResultStore(directory / "store")
    started = time.perf_counter()
    traces = [chunked.load_any_trace(path) for path in inputs.trace_paths]
    if workload.mode == "sweep":
        experiment = Experiment(specs, traces=traces, profile=PROFILE, jobs=1, store=store)
        try:
            experiment.run(baseline=specs[0])
        finally:
            experiment.close()
    else:
        _run_dist(specs, traces, store)
    wall = time.perf_counter() - started
    started = time.perf_counter()
    records = json.loads(json.dumps(store.export(), indent=2))
    export = time.perf_counter() - started
    table = {
        cell_key(record["label"], record["result"]["trace_name"]): [
            record["result"]["mispredictions"], record["result"]["instructions"],
        ]
        for record in records
    }
    return wall, export, table


def _failed_cells(inputs: Inputs, table: Dict[str, list]) -> int:
    if table_digest(table) == inputs.digest:
        return 0
    wrong = sum(1 for key, value in inputs.golden.items() if table.get(key) != value)
    return max(1, wrong)


def cli_startup_seconds(env: Dict[str, str], repeats: int = 3) -> float:
    """Median wall of ``repro --help``: the fixed cost of every CLI process."""
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            repro_command("--help"), env=env, stdout=subprocess.DEVNULL, check=True
        )
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def _clock_for(inputs: Inputs) -> Callable[[], float]:
    return time.thread_time if inputs.workload.mode == "dist" else time.perf_counter


@dataclass
class LayerProfile:
    """Per-layer metrics of one workload's traced iterations."""

    metrics: Dict[str, Tuple[float, str]]  # name -> (value, unit)
    failed: int  # cells that differed from the golden table
    iterations: int  # traced iterations (as many untraced ones ran between them)
    untraced_wall_s: float  # median of the untraced iterations
    tracer: Tracer


def profile_inputs(
    inputs: Inputs,
    workdir: Path,
    deadline: float,
    log: Callable[[str], None] = lambda message: None,
) -> LayerProfile:
    """Run ``inputs`` untraced and traced in turn until ``deadline`` (monotonic).

    At least one pair runs; another starts only when it should end before
    the deadline.  Alternating puts both kinds of iteration under the same
    host speed, so ``tracing.overhead_frac`` (median traced wall over median
    untraced wall) measures the tracer, not a drift of the host.  The
    metrics cover every layer except ingest and the CLI, which
    :func:`measure_layers` adds.
    """
    failed = 0
    tracer = Tracer(keep_spans=COARSE_LAYERS, clock=_clock_for(inputs))
    untraced: List[float] = []
    walls: List[float] = []
    exports: List[float] = []
    while not walls or time.monotonic() + untraced[-1] + walls[-1] <= deadline:
        wall, _, table = run_inprocess(inputs, workdir / f"untraced{len(untraced)}")
        untraced.append(wall)
        failed += _failed_cells(inputs, table)
        install_layers(tracer)
        try:
            wall, export, table = run_inprocess(inputs, workdir / f"traced{len(walls)}")
        finally:
            tracer.restore()
        walls.append(wall)
        exports.append(export)
        failed += _failed_cells(inputs, table)
        log(f"untraced {untraced[-1]:.3f} s, traced {wall:.3f} s")

    iterations = len(walls)
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    counts = tracer.counts()
    traced_wall = sum(walls)
    metrics: Dict[str, Tuple[float, str]] = {}
    for metric, layer in LAYER_METRICS.items():
        metrics[metric] = (self_s.get(layer, 0.0) / iterations, "s")
    for metric, unit in COUNT_METRICS.items():
        metrics[metric] = (counts.get(metric, 0) / iterations, unit)
    history_s = self_s.get("history", 0.0)
    metrics["history.branches_per_s"] = (
        calls.get("history", 0) / history_s if history_s else 0.0, "1/s"
    )
    metrics["dist.overhead_per_cell_ms"] = (
        1000.0 * sum(self_s.get(layer, 0.0) for layer in PER_CELL_LAYERS)
        / (iterations * inputs.cells),
        "ms",
    )
    metrics["cli.export_s"] = (statistics.median(exports), "s")
    metrics["traced_wall_s"] = (statistics.median(walls), "s")
    metrics["tracing.overhead_frac"] = (
        statistics.median(walls) / statistics.median(untraced) - 1.0, "fraction"
    )
    for metric, layers in SHARES.items():
        metrics[metric] = (
            sum(self_s.get(layer, 0.0) for layer in layers) / traced_wall, "fraction"
        )
    return LayerProfile(metrics, failed, iterations, statistics.median(untraced), tracer)


def measure_layers(
    name: str,
    seed: int,
    seconds: float,
    workdir: Path,
    env: Dict[str, str],
    spans_path: Optional[Path] = None,
    log: Callable[[str], None] = lambda message: None,
) -> dict:
    """Trace workload ``name`` in-process for about ``seconds``; the result dict.

    The set-up (including the mixed workload's ingest, in-process here) is
    traced on its own for ``ingest.branches_per_s``; spans and per-layer
    totals go to ``spans_path`` when given.  The run is not correct when a
    wrapped entry point no longer exists (see :func:`install_layers`).
    """
    deadline = time.monotonic() + seconds
    workload = WORKLOADS[name]
    setup_tracer = Tracer()
    install_layers(setup_tracer)
    try:
        inputs = build_inputs(workload, seed, workdir / "setup", env, ingest=_inprocess_ingest)
    finally:
        setup_tracer.restore()
    profile = profile_inputs(inputs, workdir, deadline, log)
    tracer = profile.tracer
    missing = setup_tracer.missing + [
        name for name in tracer.missing if name not in setup_tracer.missing
    ]
    for name in missing:
        log(f"perfbench: entry point {name} no longer exists; "
            "update perfbench/layers.py to the new one")
    ingest_seconds = setup_tracer.total_seconds().get("ingest", 0.0)
    metrics = dict(profile.metrics)
    metrics["ingest.branches_per_s"] = (
        setup_tracer.counts().get("ingest.records", 0) / ingest_seconds
        if ingest_seconds else 0.0,
        "1/s",
    )
    metrics["cli.startup_s"] = (cli_startup_seconds(env), "s")
    if spans_path is not None:
        spans_path.write_text(json.dumps({
            "workload": name,
            "seed": seed,
            "iterations": profile.iterations,
            "clock": tracer.clock.__name__,
            "missing": missing,
            "self_s": tracer.self_seconds(),
            "calls": tracer.calls(),
            "counts": tracer.counts(),
            "spans": tracer.spans(),
        }) + "\n", encoding="utf-8")
    # A layer that lost an entry point would read low: fail instead.
    return {
        "correct": profile.failed == 0 and not missing,
        "attempted": inputs.cells * 2 * profile.iterations,
        "failed": profile.failed,
        "metrics": {
            key: {"value": value, "unit": unit} for key, (value, unit) in sorted(metrics.items())
        },
    }
