"""Throughput regression gate for CI.

Measures predictions per second for the headline configurations (the same
four that ``bench_throughput.py`` tracks) on the SPEC2K6-12 trace, the
batched-sweep specs/s, the ``ingest_trace`` pipeline's branches/s and the
chunked-layout streaming-simulation branches/s, writes the numbers as
JSON, and -- when given a baseline file -- fails if any gated metric
dropped by more than the allowed fraction.  The committed
baseline (``benchmarks/baselines/BENCH_baseline.json``) is seeded from the
PR 1 numbers in ``docs/PERFORMANCE.md``.

Usage::

    # CI gate: measure, write BENCH_pr.json, compare against the baseline
    python benchmarks/check_regression.py \
        --output BENCH_pr.json \
        --baseline benchmarks/baselines/BENCH_baseline.json

    # refresh the committed baseline after an intentional perf change
    python benchmarks/check_regression.py \
        --write-baseline benchmarks/baselines/BENCH_baseline.json

    # sanity check: with the fast engine disabled the gate must fail
    python benchmarks/check_regression.py --no-fast-path \
        --baseline benchmarks/baselines/BENCH_baseline.json

Environment overrides: ``REPRO_BENCH_MAX_DROP`` (fraction, default 0.25)
and ``REPRO_BENCH_ROUNDS`` mirror ``--max-drop`` / ``--rounds`` for CI
without editing the workflow file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, Optional

from repro.predictors.composites import build_named
from repro.sim.engine import simulate
from repro.workloads.suites import generate_benchmark, get_benchmark

#: Headline configurations, matching benchmarks/bench_throughput.py.
CONFIGURATIONS = ["bimodal-baseline", "tage-gsc", "tage-gsc+imli", "gehl+imli"]

#: Workload matching the committed baseline (docs/PERFORMANCE.md):
#: SPEC2K6-12, 1500 conditional branches, default size profile.
SUITE = "cbp4like"
BENCHMARK = "SPEC2K6-12"
LENGTH = 1500
PROFILE = "default"

#: The batched-grid workload behind the ``sweep_specs_per_s`` metric: an
#: 8-spec ``oh_update_delay`` grid over the same trace, driven through
#: ``simulate_many`` in one traversal (the batched sweep engine's hot
#: path).  The serial figure replays the same grid one ``simulate`` call
#: per spec, the pre-batching layout.
SWEEP_BASE = "tage-gsc+oh"
SWEEP_DELAYS = [0, 1, 3, 7, 15, 31, 63, 127]

#: The ingest workload behind ``ingest_branches_per_s`` /
#: ``streaming_branches_per_s``: a synthesized CBP-style text trace run
#: through the full ``ingest_trace`` pipeline (reader -> gatekeeper ->
#: chunked writer), then ``tage-gsc`` simulated over the chunked layout
#: (streaming, several chunk boundaries).
INGEST_LINES = 20000
INGEST_CHUNK_BRANCHES = 600
STREAMING_CONFIGURATION = "tage-gsc"


def _build(configuration: str):
    if configuration == "bimodal-baseline":
        from repro.predictors.simple import BimodalPredictor

        return BimodalPredictor()
    return build_named(configuration, profile=PROFILE)


def _sweep_predictors():
    from repro.api.specs import PredictorSpec

    base = PredictorSpec.from_named(SWEEP_BASE, profile=PROFILE)
    return [spec.build() for spec in base.sweep(oh_update_delay=SWEEP_DELAYS)]


def measure_sweep(
    rounds: int, use_fast_path: Optional[bool] = None
) -> Dict[str, float]:
    """Best-of-``rounds`` specs/s for the batched grid (and serially).

    ``sweep_specs_per_s`` (the gated metric) drives all grid specs through
    one :func:`~repro.sim.engine.simulate_many` traversal with shared-core
    grouping on (the default -- the whole grid shares one TAGE core);
    ``sweep_specs_per_s_unshared`` repeats it with ``share_cores=False``,
    i.e. every spec as a group of one over its own tables, so the gate
    pins the shared-core win itself; ``sweep_specs_per_s_serial`` replays
    the same grid per-cell, the pre-batching layout.  Fresh predictors per
    round, like :func:`measure`, and the same ``use_fast_path`` semantics
    (``False`` = reference path, so ``--no-fast-path`` degrades this
    metric too).
    """
    from repro.sim.engine import simulate_many

    trace = generate_benchmark(
        get_benchmark(SUITE, BENCHMARK), target_conditional_branches=LENGTH
    )
    best_batched = 0.0
    best_unshared = 0.0
    best_serial = 0.0
    for _ in range(rounds):
        predictors = _sweep_predictors()
        start = time.perf_counter()
        results = simulate_many(predictors, trace, use_fast_path=use_fast_path)
        elapsed = time.perf_counter() - start
        if any(r.conditional_branches != trace.conditional_count for r in results):
            raise RuntimeError("batched sweep simulated a partial trace")
        best_batched = max(best_batched, len(predictors) / elapsed)

        predictors = _sweep_predictors()
        start = time.perf_counter()
        simulate_many(
            predictors, trace, use_fast_path=use_fast_path, share_cores=False
        )
        elapsed = time.perf_counter() - start
        best_unshared = max(best_unshared, len(predictors) / elapsed)

        predictors = _sweep_predictors()
        start = time.perf_counter()
        for predictor in predictors:
            simulate(predictor, trace, use_fast_path=use_fast_path)
        elapsed = time.perf_counter() - start
        best_serial = max(best_serial, len(predictors) / elapsed)
    return {
        "sweep_specs_per_s": best_batched,
        "sweep_specs_per_s_unshared": best_unshared,
        "sweep_specs_per_s_serial": best_serial,
    }


def measure_ingest(
    rounds: int, use_fast_path: Optional[bool] = None
) -> Dict[str, float]:
    """Best-of-``rounds`` ingest and streaming-simulation branches/s.

    ``ingest_branches_per_s`` times the full pipeline (CBP text reader ->
    gatekeeper -> chunked writer) over a synthesized ``INGEST_LINES``-line
    input; ``streaming_branches_per_s`` times ``STREAMING_CONFIGURATION``
    simulating the chunked layout (the per-chunk streaming path, several
    chunk boundaries per traversal).
    """
    import tempfile

    from repro.ingest import ingest_trace
    from repro.trace.chunked import load_chunked_trace, write_chunked_trace

    trace = generate_benchmark(
        get_benchmark(SUITE, BENCHMARK), target_conditional_branches=LENGTH
    )
    best_ingest = 0.0
    best_stream = 0.0
    with tempfile.TemporaryDirectory(prefix="repro-bench-ingest-") as scratch_name:
        scratch = Path(scratch_name)
        source = scratch / "external.cbp"
        with source.open("w", encoding="utf-8") as out:
            for i in range(INGEST_LINES):
                record = trace.record_at(i % len(trace))
                out.write(
                    f"{record.pc:#x} {int(record.taken)} {record.target:#x} "
                    f"{record.kind.value} {record.instruction_gap}\n"
                )
        for round_index in range(rounds):
            report = ingest_trace(
                source,
                scratch / f"round-{round_index}",
                reader="cbp",
                chunk_branches=INGEST_CHUNK_BRANCHES,
            )
            if report.records != INGEST_LINES:
                raise RuntimeError(
                    f"ingest converted {report.records} != {INGEST_LINES} records"
                )
            best_ingest = max(best_ingest, report.branches_per_second)

        streaming_dir = scratch / "streaming"
        write_chunked_trace(
            trace, streaming_dir, chunk_branches=INGEST_CHUNK_BRANCHES
        )
        streamed = load_chunked_trace(streaming_dir)
        for _ in range(rounds):
            predictor = _build(STREAMING_CONFIGURATION)
            start = time.perf_counter()
            result = simulate(predictor, streamed, use_fast_path=use_fast_path)
            elapsed = time.perf_counter() - start
            if result.conditional_branches != streamed.conditional_count:
                raise RuntimeError("streaming simulate covered a partial trace")
            best_stream = max(best_stream, result.conditional_branches / elapsed)
    return {
        "ingest_branches_per_s": best_ingest,
        "streaming_branches_per_s": best_stream,
    }


def measure(rounds: int, use_fast_path: Optional[bool]) -> Dict[str, float]:
    """Best-of-``rounds`` predictions/s per configuration.

    ``use_fast_path=None`` lets the engine pick the fast path (the
    production default); ``False`` forces the reference path, which is how
    the gate is shown to actually fire.
    """
    trace = generate_benchmark(
        get_benchmark(SUITE, BENCHMARK), target_conditional_branches=LENGTH
    )
    throughput: Dict[str, float] = {}
    for configuration in CONFIGURATIONS:
        best = 0.0
        for _ in range(rounds):
            predictor = _build(configuration)
            start = time.perf_counter()
            result = simulate(predictor, trace, use_fast_path=use_fast_path)
            elapsed = time.perf_counter() - start
            if result.conditional_branches != trace.conditional_count:
                raise RuntimeError(
                    f"{configuration}: simulated "
                    f"{result.conditional_branches} != {trace.conditional_count}"
                )
            best = max(best, result.conditional_branches / elapsed)
        throughput[configuration] = best
    return throughput


def _gate_metrics(document: Dict) -> Dict[str, float]:
    """Flatten one measurement document into the gated metric set.

    Per-configuration predictions/s plus the batched sweep throughput and
    the ingest / streaming-simulation branches/s.  Baselines written
    before a metric existed simply gate fewer metrics (``compare``
    iterates the baseline's keys).
    """
    metrics = dict(document.get("predictions_per_second", {}))
    sweep = document.get("sweep")
    if isinstance(sweep, dict) and "specs_per_second" in sweep:
        metrics["sweep_specs_per_s"] = sweep["specs_per_second"]
        if "specs_per_second_unshared" in sweep:
            metrics["sweep_specs_per_s_unshared"] = sweep[
                "specs_per_second_unshared"
            ]
    ingest = document.get("ingest")
    if isinstance(ingest, dict):
        for key in ("ingest_branches_per_s", "streaming_branches_per_s"):
            if key in ingest:
                metrics[key] = ingest[key]
    return metrics


def compare(
    current: Dict[str, float], baseline: Dict[str, float], max_drop: float
) -> int:
    """Print the comparison table; return the number of regressions."""
    regressions = 0
    print(f"{'configuration':<20} {'baseline':>12} {'current':>12} {'ratio':>8}")
    for configuration, reference in baseline.items():
        measured = current.get(configuration)
        if measured is None:
            print(f"{configuration:<20} {reference:>12.0f} {'missing':>12}")
            regressions += 1
            continue
        ratio = measured / reference
        verdict = ""
        if ratio < 1.0 - max_drop:
            verdict = f"  REGRESSION (> {max_drop:.0%} drop)"
            regressions += 1
        print(
            f"{configuration:<20} {reference:>12.0f} {measured:>12.0f} "
            f"{ratio:>7.2f}x{verdict}"
        )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the measured numbers as JSON (the CI artifact)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline JSON to gate against (no comparison when omitted)",
    )
    parser.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="write the measured numbers as a new baseline file and exit",
    )
    parser.add_argument(
        "--max-drop",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_MAX_DROP", "0.25")),
        help="maximum tolerated fractional drop vs the baseline "
             "(default 0.25, i.e. fail below 75%% of baseline)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=int(os.environ.get("REPRO_BENCH_ROUNDS", "3")),
        help="timing rounds per configuration, best-of (default 3)",
    )
    parser.add_argument(
        "--no-fast-path", action="store_true",
        help="force the reference simulation path (the gate must then fail)",
    )
    args = parser.parse_args(argv)

    throughput = measure(args.rounds, False if args.no_fast_path else None)
    sweep = measure_sweep(args.rounds, False if args.no_fast_path else None)
    ingest = measure_ingest(args.rounds, False if args.no_fast_path else None)
    document = {
        "meta": {
            "suite": SUITE,
            "benchmark": BENCHMARK,
            "length": LENGTH,
            "profile": PROFILE,
            "rounds": args.rounds,
            "fast_path": not args.no_fast_path,
            "python": platform.python_version(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
        "predictions_per_second": {
            name: round(value, 1) for name, value in throughput.items()
        },
        "sweep": {
            "base": SWEEP_BASE,
            "grid": {"oh_update_delay": SWEEP_DELAYS},
            "specs": len(SWEEP_DELAYS),
            "specs_per_second": round(sweep["sweep_specs_per_s"], 3),
            "specs_per_second_unshared": round(
                sweep["sweep_specs_per_s_unshared"], 3
            ),
            "specs_per_second_serial": round(
                sweep["sweep_specs_per_s_serial"], 3
            ),
        },
        "ingest": {
            "lines": INGEST_LINES,
            "chunk_branches": INGEST_CHUNK_BRANCHES,
            "streaming_configuration": STREAMING_CONFIGURATION,
            "ingest_branches_per_s": round(
                ingest["ingest_branches_per_s"], 1
            ),
            "streaming_branches_per_s": round(
                ingest["streaming_branches_per_s"], 1
            ),
        },
    }
    for destination in (args.output, args.write_baseline):
        if destination == "-":
            print(json.dumps(document, indent=2))
        elif destination:
            Path(destination).parent.mkdir(parents=True, exist_ok=True)
            Path(destination).write_text(
                json.dumps(document, indent=2) + "\n", encoding="utf-8"
            )
            print(f"wrote {destination}", file=sys.stderr)
    if args.write_baseline:
        return 0
    if args.baseline is None:
        if args.output == "-":
            return 0  # stdout is the JSON document; keep it parseable
        for name, value in throughput.items():
            print(f"{name:<20} {value:>12.0f} predictions/s")
        print(
            f"{'sweep (batched)':<20} {sweep['sweep_specs_per_s']:>12.2f} specs/s "
            f"({sweep['sweep_specs_per_s'] / sweep['sweep_specs_per_s_serial']:.2f}x "
            "vs per-cell)"
        )
        print(
            f"{'ingest':<20} {ingest['ingest_branches_per_s']:>12.0f} branches/s"
        )
        print(
            f"{'streaming simulate':<20} "
            f"{ingest['streaming_branches_per_s']:>12.0f} branches/s"
        )
        return 0

    baseline_doc = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    regressions = compare(
        _gate_metrics(document), _gate_metrics(baseline_doc), args.max_drop
    )
    if regressions:
        print(
            f"FAIL: {regressions} configuration(s) regressed more than "
            f"{args.max_drop:.0%} vs {args.baseline}",
            file=sys.stderr,
        )
        print(
            "If the change is an intentional trade-off, refresh the baseline "
            "with --write-baseline (see docs/PERFORMANCE.md).",
            file=sys.stderr,
        )
        return 1
    print(f"OK: all configurations within {args.max_drop:.0%} of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
