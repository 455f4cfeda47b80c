"""Command-line interface.

The CLI exposes the library's main workflows without writing any Python:

``python -m repro list``
    Show the available suites, benchmarks, predictor configurations, size
    profiles and registered experiments (all read dynamically from the
    registries, so user registrations appear too).
``python -m repro simulate``
    Run predictor configurations -- by name and/or from spec JSON files
    (``--spec``) -- over (a subset of) a synthetic suite and print the
    per-benchmark MPKI table.
``python -m repro sweep``
    Expand a parameter grid over a base configuration into a list of
    specs, run them (serially or with ``--jobs``), and print / export the
    resulting MPKI table with deltas against the base.
``python -m repro experiment <id>``
    Regenerate one of the paper's tables/figures (same registry as the
    benchmark harness).
``python -m repro trace``
    Generate one synthetic benchmark trace and write it to a file in the
    library's text format.
``python -m repro ingest``
    Convert external trace files (CBP-style text, raw binary events) into
    the library's formats -- including the chunked on-disk layout that
    streams through simulation in bounded memory -- and validate or
    inspect them (see ``docs/TRACES.md``).  Ingested traces plug into
    ``simulate`` / ``sweep`` / ``serve`` / ``submit`` via ``--trace``.
``python -m repro store``
    Inspect and maintain the persistent result store (``ls`` / ``gc`` /
    ``export`` / ``import``).  ``simulate`` and ``sweep`` read and write
    the store when ``--store DIR`` (or ``REPRO_RESULT_STORE``) names one,
    so an interrupted sweep restarted with ``--resume`` recomputes only
    the missing cells.
``python -m repro serve``
    Start a distributed sweep coordinator: expand a sweep into store
    cells and serve them to ``repro worker`` processes over TCP (or run
    as an idle service accepting ``repro submit`` jobs).
``python -m repro worker``
    Connect to a coordinator, lease cells, simulate them (optionally over
    a local process pool) and upload the results.
``python -m repro submit``
    Send a sweep to a running coordinator and wait for the results.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shlex
import signal
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.experiments import experiment_ids, run_experiment
from repro.api.experiment import Experiment, ResultSet
from repro.api.registry import default_registry
from repro.api.specs import PredictorSpec
from repro.common.progress import ProgressPrinter
from repro.obs.http import DEFAULT_STATUS_PORT, StatusServer
from repro.obs.top import run_top
from repro.sim.runner import ConfigurationRun, SuiteRunner
from repro.store import ResultStore
from repro.trace.chunked import load_any_trace
from repro.trace.trace import save_trace, save_trace_binary
from repro.workloads.suites import (
    benchmark_names,
    generate_benchmark,
    generate_suite,
    get_benchmark,
    suite_names,
)

#: Default TCP port of ``repro serve`` (workers and submitters default to it).
DEFAULT_PORT = 4780

#: Distinct exit codes for the failures an operator scripts around:
#: 2 stays argparse/usage errors, 130 stays SIGINT.
EXIT_BIND_FAILURE = 3  # `repro serve` could not bind its listen port
EXIT_UNREACHABLE = 4  # `repro worker` never reached a coordinator
EXIT_CORRUPTION = 5  # `repro store verify` found corrupt/truncated records

__all__ = ["build_parser", "main"]


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return parsed


def _non_negative_float(value: str) -> float:
    parsed = float(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return parsed


def _add_workload_arguments(parser: argparse.ArgumentParser, length: int) -> None:
    parser.add_argument("--suite", default="cbp4like", choices=suite_names())
    parser.add_argument(
        "--benchmarks", default=None,
        help="comma-separated benchmark names (default: the whole suite)",
    )
    parser.add_argument("--length", type=int, default=length,
                        help="conditional branches per benchmark trace")
    parser.add_argument(
        "--profile", default="small", choices=default_registry().profile_names(),
    )
    parser.add_argument(
        "--jobs", "-j", type=_positive_int, default=1,
        help="worker processes for the simulations (default: 1, in-process)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="persistent result store directory; completed (spec, trace) "
             "cells are reused and new ones persisted "
             "(default: $REPRO_RESULT_STORE when set)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print per-cell completion (done/total, cells/s, ETA) on stderr",
    )
    _add_trace_argument(parser)
    _add_batch_arguments(parser)


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", action="append", default=[], metavar="PATH", dest="trace_paths",
        help="simulate over this trace file or chunked trace directory "
             "(repeatable; see 'repro ingest'); replaces the synthetic "
             "suite when given",
    )


def _add_batch_arguments(parser: argparse.ArgumentParser) -> None:
    """``--batch`` / ``--no-batch``: same-trace cell batching escape hatch."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--batch", type=_positive_int, default=None, metavar="N",
        help="max same-trace (spec, trace) cells simulated per batched "
             "traversal (default: engine default); results are identical "
             "at any setting; distributed trace-affinity leases pick the "
             "grant cap up from 'serve' (a grant holds up to "
             "min(worker --batch, serve --batch) cells), and the printed "
             "'repro sweep --resume' command carries this flag forward",
    )
    group.add_argument(
        "--no-batch", action="store_true",
        help="one cell per task, the same as --batch 1; "
             "propagated by the printed resume command like --batch",
    )


def _batch_cells(args: argparse.Namespace) -> int:
    """Cells per task or lease grant from ``--batch``/``--no-batch``.

    ``--no-batch`` spells ``--batch 1``: one cell per task.
    """
    from repro.sim.runner import DEFAULT_BATCH_CELLS

    if getattr(args, "no_batch", False):
        return 1
    return args.batch if args.batch is not None else DEFAULT_BATCH_CELLS


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="result store directory (default: $REPRO_RESULT_STORE)",
    )


def _add_grid_arguments(
    parser: argparse.ArgumentParser, require_base: bool = True
) -> None:
    """``--base`` / ``--param``: the sweep grid (shared by sweep/serve/submit)."""
    parser.add_argument(
        "--base", required=require_base, default=None,
        help="configuration name (or spec JSON file) the grid is applied to",
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="NAME=V1,V2,...",
        help="one grid axis: an override name and its comma-separated values "
             "(repeatable; values are parsed as JSON, falling back to strings)",
    )


def _add_suite_arguments(parser: argparse.ArgumentParser, length: int = 2500) -> None:
    """Workload selection without execution options (serve/submit)."""
    parser.add_argument("--suite", default="cbp4like", choices=suite_names())
    parser.add_argument(
        "--benchmarks", default=None,
        help="comma-separated benchmark names (default: the whole suite)",
    )
    parser.add_argument("--length", type=int, default=length,
                        help="conditional branches per benchmark trace")
    parser.add_argument(
        "--profile", default="small", choices=default_registry().profile_names(),
    )
    _add_trace_argument(parser)


def _add_export_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", dest="json_output", default=None, metavar="FILE",
        help="write the full result set as JSON to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--csv", dest="csv_output", default=None, metavar="FILE",
        help="write the MPKI table as CSV to FILE ('-' for stdout)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the IMLI branch predictor paper (MICRO 2015).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list", help="list suites, benchmarks, configurations, profiles, experiments"
    )

    simulate = subparsers.add_parser(
        "simulate", help="run predictor configurations over a synthetic suite"
    )
    simulate.add_argument(
        "--configurations", default=None,
        help="comma-separated configuration names "
             "(default: tage-gsc,tage-gsc+imli when no --spec is given)",
    )
    simulate.add_argument(
        "--spec", action="append", default=None, metavar="FILE",
        help="JSON file holding one predictor spec or a list of specs "
             "(repeatable; see docs/API.md for the schema)",
    )
    _add_workload_arguments(simulate, length=2500)

    sweep = subparsers.add_parser(
        "sweep", help="expand a parameter grid into predictor specs and run them"
    )
    _add_grid_arguments(sweep)
    _add_export_arguments(sweep)
    sweep.add_argument(
        "--resume", action="store_true",
        help="require a persistent result store (--store or "
             "$REPRO_RESULT_STORE) so completed (spec, trace) cells are "
             "reused and only missing ones are recomputed; without this "
             "flag a configured store is still used, but its absence is "
             "not an error",
    )
    _add_workload_arguments(sweep, length=2500)

    serve = subparsers.add_parser(
        "serve",
        help="start a distributed sweep coordinator for repro worker processes",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="listen address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"listen port (default: {DEFAULT_PORT}; 0 picks a free port, "
             "printed on stderr)",
    )
    serve.add_argument(
        "--lease-timeout", type=float, default=120.0, metavar="SECONDS",
        help="requeue a leased cell when no result arrives within this time "
             "(default: 120; renewing workers extend their leases by "
             "heartbeat, so this bounds crash detection, not cell runtime)",
    )
    serve.add_argument(
        "--journal", nargs="?", const="", default=None, metavar="PATH",
        help="crash-safe journal of admitted jobs: a restarted "
             "`repro serve --journal` re-admits unfinished jobs and, with a "
             "store, resumes exactly where the crash left off (bare flag "
             "derives PATH as journal.jsonl inside --store)",
    )
    serve.add_argument(
        "--max-lease-losses", type=_positive_int, default=3, metavar="N",
        help="quarantine a cell after its lease is lost N times instead of "
             "requeueing it forever (default: 3)",
    )
    _add_grid_arguments(serve, require_base=False)
    _add_suite_arguments(serve)
    _add_export_arguments(serve)
    _add_store_argument(serve)
    serve.add_argument(
        "--progress", action="store_true",
        help="print per-cell completion (done/total, cells/s, ETA) on stderr",
    )
    serve.add_argument(
        "--status-port", type=int, default=None, metavar="PORT",
        help="also serve read-only HTTP status endpoints (/status, /jobs, "
             "/workers, /store, /metrics) on this port (0 picks a free "
             "port, printed on stderr; default: off)",
    )
    serve.add_argument(
        "--status-host", default="127.0.0.1", metavar="HOST",
        help="bind address of the status endpoints (default: 127.0.0.1; "
             "the surface is unauthenticated -- widen with care)",
    )
    _add_batch_arguments(serve)

    worker = subparsers.add_parser(
        "worker", help="lease sweep cells from a coordinator and simulate them"
    )
    worker.add_argument(
        "--connect", default=f"127.0.0.1:{DEFAULT_PORT}", metavar="HOST:PORT",
        help=f"coordinator address (default: 127.0.0.1:{DEFAULT_PORT})",
    )
    worker.add_argument(
        "--jobs", "-j", type=_positive_int, default=1,
        help="concurrent simulations on this worker (default: 1, in-process)",
    )
    worker.add_argument("--name", default=None, help="worker name in coordinator logs")
    worker.add_argument(
        "--connect-retry", type=float, default=10.0, metavar="SECONDS",
        help="keep retrying the initial connect for this long (default: 10)",
    )
    worker.add_argument(
        "--reconnect", type=_non_negative_float, default=None, metavar="SECONDS",
        help="after an abrupt connection loss, keep reconnecting (capped "
             "jittered exponential backoff) for this long before giving up "
             "(default: 30; 0 exits on first disconnect)",
    )
    _add_batch_arguments(worker)
    _add_store_argument(worker)

    submit = subparsers.add_parser(
        "submit", help="send a sweep to a running coordinator and await results"
    )
    submit.add_argument(
        "--connect", default=f"127.0.0.1:{DEFAULT_PORT}", metavar="HOST:PORT",
        help=f"coordinator address (default: 127.0.0.1:{DEFAULT_PORT})",
    )
    _add_grid_arguments(submit)
    _add_suite_arguments(submit)
    _add_export_arguments(submit)
    submit.add_argument(
        "--progress", action="store_true",
        help="print per-cell completion (done/total, cells/s, ETA) on stderr",
    )

    top = subparsers.add_parser(
        "top", help="live terminal view of a coordinator's status endpoints"
    )
    top.add_argument(
        "--connect", default=f"127.0.0.1:{DEFAULT_STATUS_PORT}",
        metavar="HOST:PORT",
        help="status endpoint address -- the coordinator's "
             f"`serve --status-port` (default: 127.0.0.1:{DEFAULT_STATUS_PORT})",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between polls (default: 2)",
    )
    top.add_argument(
        "--iterations", type=_positive_int, default=None, metavar="N",
        help="render N frames and exit (default: poll until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear", dest="clear", action="store_false",
        help="append frames instead of clearing the screen between them "
             "(for dumb terminals and log capture)",
    )

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's tables or figures"
    )
    experiment.add_argument("experiment_id", choices=experiment_ids())
    experiment.add_argument("--length", type=int, default=2500)
    experiment.add_argument(
        "--profile", default="small", choices=default_registry().profile_names(),
    )
    experiment.add_argument(
        "--benchmarks", default=None,
        help="comma-separated benchmark names to restrict both suites to",
    )
    experiment.add_argument(
        "--jobs", "-j", type=_positive_int, default=1,
        help="worker processes for the simulations (default: 1, in-process)",
    )

    store = subparsers.add_parser(
        "store", help="inspect and maintain the persistent result store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_ls = store_sub.add_parser("ls", help="list the stored result cells")
    store_ls.add_argument(
        "--json", dest="json_output", action="store_true",
        help="machine-readable output: one JSON array of cell summaries",
    )
    store_ls.add_argument(
        "--traces", dest="traces_view", action="store_true",
        help="group by trace instead: one row per trace fingerprint in the "
             "store, with the trace names seen and the cell count",
    )
    store_ls.add_argument(
        "--summary", dest="summary_view", action="store_true",
        help="print one line of totals instead (cells, bytes on disk, "
             "distinct specs, distinct traces)",
    )
    _add_store_argument(store_ls)
    store_gc = store_sub.add_parser(
        "gc", help="delete stored cells older than a cut-off"
    )
    store_gc.add_argument(
        "--older-than", required=True, metavar="AGE",
        help="age cut-off, e.g. 30d, 12h, 45m, 90s (bare numbers are seconds)",
    )
    _add_store_argument(store_gc)
    store_export = store_sub.add_parser(
        "export", help="dump every stored record as one JSON document"
    )
    store_export.add_argument(
        "--output", default="-", metavar="FILE",
        help="destination file ('-' for stdout, the default)",
    )
    _add_store_argument(store_export)
    store_import = store_sub.add_parser(
        "import", help="ingest records produced by 'store export' (merge stores)"
    )
    store_import.add_argument(
        "input", nargs="?", default="-", metavar="FILE",
        help="JSON document to ingest ('-' for stdin, the default)",
    )
    _add_store_argument(store_import)
    store_verify = store_sub.add_parser(
        "verify",
        help="scrub every stored record against its embedded checksum "
             "(docs/INTEGRITY.md)",
    )
    store_verify.add_argument(
        "--repair", action="store_true",
        help="quarantine corrupt/truncated records into <store>/corrupt/ so "
             "the next sweep recomputes those cells",
    )
    store_verify.add_argument(
        "--json", dest="json_output", action="store_true",
        help="machine-readable output: the full verification report",
    )
    _add_store_argument(store_verify)

    ingest = subparsers.add_parser(
        "ingest",
        help="convert, validate or inspect external trace files (docs/TRACES.md)",
    )
    ingest_sub = ingest.add_subparsers(dest="ingest_command", required=True)
    convert = ingest_sub.add_parser(
        "convert", help="convert an external trace into a library format"
    )
    convert.add_argument("input", help="source trace file (gzip transparently)")
    convert.add_argument(
        "--output", "-o", required=True, metavar="PATH",
        help="destination: a directory for --layout chunked, a file for "
             "--layout binary",
    )
    convert.add_argument(
        "--reader", default="auto",
        help="input format: 'auto' (sniff), or one of the registered "
             "readers (cbp, raw)",
    )
    convert.add_argument(
        "--layout", default="chunked", choices=("chunked", "binary"),
        help="output layout (default: chunked -- streams through "
             "simulation in bounded memory)",
    )
    convert.add_argument(
        "--chunk-branches", type=_positive_int, default=None, metavar="N",
        help="records per chunk of the chunked layout (default: 250000; "
             "part of the trace's identity -- see docs/TRACES.md)",
    )
    convert.add_argument(
        "--name", default=None,
        help="trace name (default: derived from the input file name)",
    )
    convert.add_argument(
        "--on-error", default="reject", choices=("reject", "repair", "skip"),
        help="malformed-event policy: reject the file (default), repair "
             "fixable fields, or skip bad events (counted + attributed)",
    )
    convert.add_argument(
        "--default-gap", type=int, default=4, metavar="N",
        help="instruction gap assumed when the input carries none (default: 4)",
    )
    convert.add_argument(
        "--json", dest="json_output", action="store_true",
        help="print the ingest report as JSON instead of prose",
    )
    validate = ingest_sub.add_parser(
        "validate", help="re-hash a trace file or chunked directory"
    )
    validate.add_argument("path", help="trace file or chunked trace directory")
    inspect = ingest_sub.add_parser(
        "inspect", help="print a trace's identity and shape"
    )
    inspect.add_argument("path", help="trace file or chunked trace directory")
    inspect.add_argument(
        "--json", dest="json_output", action="store_true",
        help="machine-readable output",
    )

    trace = subparsers.add_parser("trace", help="generate one benchmark trace to a file")
    trace.add_argument("--suite", default="cbp4like", choices=suite_names())
    trace.add_argument("--benchmark", required=True)
    trace.add_argument("--length", type=int, default=20000)
    trace.add_argument("--output", required=True, help="output path")
    trace.add_argument(
        "--format", dest="trace_format", default="text", choices=("text", "binary"),
        help="on-disk trace format (default: text)",
    )

    return parser


def _split(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    names = [name.strip() for name in raw.split(",") if name.strip()]
    return names or None


def _load_spec_file(path: str) -> List[PredictorSpec]:
    """Load one spec, a list of specs, or a ``{"specs": [...]}`` document."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict) and "specs" in data:
        data = data["specs"]
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a spec object or a list of specs")
    return [PredictorSpec.from_dict(entry) for entry in data]


def _parse_param(raw: str) -> tuple:
    """Parse one ``--param name=v1,v2,...`` grid axis."""
    name, _, values = raw.partition("=")
    if not name or not values:
        raise ValueError(f"--param needs the form NAME=V1,V2,..., got {raw!r}")
    parsed: List[Any] = []
    for token in values.split(","):
        token = token.strip()
        try:
            parsed.append(json.loads(token))
        except json.JSONDecodeError:
            parsed.append(token)
    return name.strip(), parsed


def _canonical_spec(spec: PredictorSpec) -> tuple:
    """Identity of the predictor a spec builds (label-independent).

    Overrides are folded into the resolved options so that an override
    equal to the field's default compares equal to no override at all.
    """
    resolved = spec.resolve()
    if not isinstance(resolved.base, str):
        options = (
            dataclasses.replace(resolved.base, **spec.overrides)
            if spec.overrides
            else resolved.base
        )
        return (options, spec.profile)
    return (resolved.base, tuple(sorted(spec.overrides.items())), spec.profile)


def _error_message(error: BaseException) -> str:
    """Human-readable message (str(KeyError) would add spurious quotes)."""
    if isinstance(error, KeyError) and error.args:
        return str(error.args[0])
    return str(error)


#: Duration suffixes accepted by ``repro store gc --older-than``.
_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def _parse_duration(raw: str) -> float:
    """Parse ``"30d"`` / ``"12h"`` / ``"90s"`` / ``"120"`` into seconds."""
    text = raw.strip().lower()
    unit = 1.0
    if text and text[-1] in _DURATION_UNITS:
        unit = _DURATION_UNITS[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"invalid duration {raw!r}; use e.g. 30d, 12h, 45m, 90s"
        ) from None
    if value < 0:
        raise ValueError(f"duration must be non-negative, got {raw!r}")
    return value * unit


def _resolve_store(path: Optional[str]) -> Optional[ResultStore]:
    """Store from ``--store`` or ``$REPRO_RESULT_STORE`` (None when neither)."""
    if path is not None:
        return ResultStore(path)
    return ResultStore.from_env()


def _report_store_use(store: Optional[ResultStore]) -> None:
    if store is not None and (store.hits or store.misses):
        shed = (
            f", {store.writes_shed} write(s) SHED (disk critical -- see "
            f"REPRO_DISK_HEADROOM)"
            if store.writes_shed
            else ""
        )
        print(
            f"result store {store.root}: {store.hits} cell(s) reused, "
            f"{store.misses} computed{shed}",
            file=sys.stderr,
        )


def _write_output(text: str, destination: str) -> None:
    if destination == "-":
        print(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {destination}", file=sys.stderr)


def _command_list() -> int:
    registry = default_registry()
    print("suites:")
    for suite in suite_names():
        print(f"  {suite}: {', '.join(benchmark_names(suite))}")
    print()
    print("predictor configurations:")
    print("  " + ", ".join(registry.names()))
    print()
    print("size profiles:")
    print("  " + ", ".join(registry.profile_names()))
    print()
    print("experiments (paper tables/figures):")
    print("  " + ", ".join(experiment_ids()))
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    specs: List[PredictorSpec] = []
    for path in args.spec or []:
        try:
            specs.extend(_load_spec_file(path))
        except (OSError, ValueError, TypeError) as error:
            print(f"cannot load specs from {path}: {error}", file=sys.stderr)
            return 2
    configurations = _split(args.configurations)
    if configurations is None and args.configurations is None and not specs:
        configurations = ["tage-gsc", "tage-gsc+imli"]
    specs = [
        PredictorSpec.from_named(name, profile=args.profile)
        for name in configurations or []
    ] + specs
    if not specs:
        print("no configurations selected", file=sys.stderr)
        return 2
    store = _resolve_store(args.store)
    try:
        experiment = Experiment(
            specs,
            suite=args.suite,
            traces=_cli_traces(args),
            benchmarks=_split(args.benchmarks),
            length=args.length,
            profile=args.profile,
            jobs=args.jobs,
            store=store if store is not None else False,
            progress=ProgressPrinter("simulate") if args.progress else None,
            batch=_batch_cells(args),
        )
        results = experiment.run()
    except (KeyError, TypeError, ValueError) as error:
        print(_error_message(error), file=sys.stderr)
        return 2
    print(results.report(title=f"MPKI on {_workload_description(args)}"))
    _report_store_use(store)
    return 0


def _expand_grid_specs(args: argparse.Namespace) -> tuple:
    """``(base_spec, specs)`` of a sweep grid (shared by sweep/serve/submit).

    Raises ``ValueError`` (with a printable message) on bad input.
    """
    if args.base.endswith(".json"):
        try:
            loaded = _load_spec_file(args.base)
        except (OSError, ValueError, TypeError) as error:
            raise ValueError(
                f"cannot load base spec from {args.base}: {error}"
            ) from None
        if len(loaded) != 1:
            raise ValueError(f"{args.base}: --base needs exactly one spec")
        base_spec = loaded[0]
    else:
        base_spec = PredictorSpec.from_named(args.base, profile=args.profile)
    grid: Dict[str, List[Any]] = {}
    for raw in args.param:
        name, values = _parse_param(raw)
        grid[name] = values
    # Dedupe semantically: a grid point that rebuilds the base
    # predictor (identical content, or an override equal to the
    # field's default, e.g. oh_update_delay=0) must not be simulated
    # and reported twice under a second label.
    base_canonical = _canonical_spec(base_spec)
    specs = [base_spec]
    for spec in base_spec.sweep(**grid):
        if _canonical_spec(spec) != base_canonical:
            specs.append(spec)
    return base_spec, specs


def _resume_command(args: argparse.Namespace, store: ResultStore) -> str:
    """The exact ``repro sweep --resume`` line that continues this sweep."""
    parts = ["repro", "sweep", "--base", args.base]
    for raw in args.param:
        parts += ["--param", raw]
    for path in getattr(args, "trace_paths", []) or []:
        parts += ["--trace", path]
    parts += ["--suite", args.suite]
    if args.benchmarks:
        parts += ["--benchmarks", args.benchmarks]
    parts += ["--length", str(args.length), "--profile", args.profile]
    if args.jobs and args.jobs > 1:
        parts += ["--jobs", str(args.jobs)]
    if getattr(args, "no_batch", False):
        parts += ["--no-batch"]
    elif args.batch is not None:
        parts += ["--batch", str(args.batch)]
    parts += ["--store", str(store.root), "--resume"]
    if args.json_output:
        parts += ["--json", args.json_output]
    if args.csv_output:
        parts += ["--csv", args.csv_output]
    return " ".join(shlex.quote(part) for part in parts)


def _command_sweep(args: argparse.Namespace) -> int:
    store = _resolve_store(args.store)
    if args.resume and store is None:
        print(
            "--resume needs a result store: pass --store DIR or set "
            "REPRO_RESULT_STORE",
            file=sys.stderr,
        )
        return 2
    experiment: Optional[Experiment] = None
    try:
        base_spec, specs = _expand_grid_specs(args)
        experiment = Experiment(
            specs,
            suite=args.suite,
            traces=_cli_traces(args),
            benchmarks=_split(args.benchmarks),
            length=args.length,
            profile=args.profile,
            jobs=args.jobs,
            store=store if store is not None else False,
            progress=ProgressPrinter("sweep") if args.progress else None,
            batch=_batch_cells(args),
        )
        results = experiment.run(baseline=base_spec)
    except (KeyError, TypeError, ValueError) as error:
        print(_error_message(error), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Completed cells were flushed to the store as they finished;
        # hand the user the exact command that picks the sweep back up.
        if experiment is not None:
            experiment.close()
        print("\nsweep interrupted.", file=sys.stderr)
        if store is not None:
            _report_store_use(store)
            print("resume with:", file=sys.stderr)
            print(f"  {_resume_command(args, store)}", file=sys.stderr)
        else:
            print(
                "no result store was configured, so completed cells were "
                "not preserved; rerun with --store DIR (or set "
                "REPRO_RESULT_STORE) to make sweeps resumable",
                file=sys.stderr,
            )
        return 130
    print(results.report(
        title=f"Sweep over {base_spec.label} on {_workload_description(args)} "
              f"({len(specs)} specs)"
    ))
    if args.json_output:
        _write_output(results.to_json(), args.json_output)
    if args.csv_output:
        _write_output(results.to_csv(), args.csv_output)
    _report_store_use(store)
    return 0


def _log_stderr(message: str) -> None:
    print(message, file=sys.stderr)


def _cli_traces(args: argparse.Namespace) -> Optional[list]:
    """Traces named by repeatable ``--trace`` (None when not given)."""
    paths = getattr(args, "trace_paths", None)
    if not paths:
        return None
    try:
        return [load_any_trace(path) for path in paths]
    except OSError as error:
        raise ValueError(f"cannot load trace: {error}") from None


def _workload_description(args: argparse.Namespace) -> str:
    paths = getattr(args, "trace_paths", None)
    if paths:
        return f"{len(paths)} ingested trace(s)"
    return f"{args.suite} ({args.length} branches per benchmark)"


def _suite_traces(args: argparse.Namespace) -> list:
    explicit = _cli_traces(args)
    if explicit is not None:
        return explicit
    traces = generate_suite(
        args.suite,
        target_conditional_branches=args.length,
        benchmarks=_split(args.benchmarks),
    )
    if not traces:
        raise ValueError(
            f"suite {args.suite!r} produced no traces for "
            f"benchmarks {args.benchmarks!r}"
        )
    return traces


def _sweep_result_set(
    specs: Sequence[PredictorSpec],
    base_spec: PredictorSpec,
    trace_names: Sequence[str],
    runs: Dict[str, "ConfigurationRun"],
) -> ResultSet:
    """Assemble the same :class:`ResultSet` a local ``repro sweep`` builds."""
    return ResultSet(
        specs=list(specs),
        runs={spec.label: runs[spec.label] for spec in specs},
        trace_names=list(trace_names),
        baseline=base_spec.label,
    )


def _print_sweep_results(
    args: argparse.Namespace, results: ResultSet, specs: Sequence[PredictorSpec]
) -> None:
    print(results.report(
        title=f"Sweep over {results.baseline} on {_workload_description(args)} "
              f"({len(specs)} specs)"
    ))
    if args.json_output:
        _write_output(results.to_json(), args.json_output)
    if args.csv_output:
        _write_output(results.to_csv(), args.csv_output)


def _command_serve(args: argparse.Namespace) -> int:
    from repro.dist import Coordinator, JobFailed

    store = _resolve_store(args.store)
    if args.base is None and args.param:
        print("--param needs --base", file=sys.stderr)
        return 2
    journal_path = None
    if args.journal is not None:
        if args.journal:
            journal_path = args.journal
        elif store is not None:
            journal_path = str(Path(store.root) / "journal.jsonl")
        else:
            print(
                "--journal without PATH needs a store to put journal.jsonl "
                "in: pass --store DIR (or --journal PATH)",
                file=sys.stderr,
            )
            return 2
    try:
        coordinator = Coordinator(
            host=args.host,
            port=args.port,
            store=store if store is not None else False,
            lease_timeout=args.lease_timeout,
            batch=_batch_cells(args),
            journal=journal_path,
            max_lease_losses=args.max_lease_losses,
            progress=ProgressPrinter("serve") if args.progress else None,
            log=_log_stderr,
        )
    except ValueError as error:
        print(_error_message(error), file=sys.stderr)
        return 2
    try:
        coordinator.start()
    except OSError as error:
        print(f"cannot listen on {args.host}:{args.port}: {error}", file=sys.stderr)
        return EXIT_BIND_FAILURE
    if coordinator.recovered_jobs:
        print(
            f"journal recovery: re-admitted {len(coordinator.recovered_jobs)} "
            "unfinished job(s)",
            file=sys.stderr,
        )
    status_server = None
    if args.status_port is not None:
        status_server = StatusServer(
            coordinator,
            store=store,
            host=args.status_host,
            port=args.status_port,
        )
        try:
            status_server.start()
        except OSError as error:
            coordinator.shutdown()
            print(
                f"cannot bind status server on "
                f"{args.status_host}:{args.status_port}: {error}",
                file=sys.stderr,
            )
            return EXIT_BIND_FAILURE
        print(f"status endpoint: {status_server.url}/status", file=sys.stderr)
    try:
        if args.base is None:
            # Idle service: accept `repro submit` jobs until Ctrl-C.
            print(
                "serving submitted sweeps; stop with Ctrl-C", file=sys.stderr
            )
            try:
                while True:
                    time.sleep(1.0)
            except KeyboardInterrupt:
                print("\ncoordinator stopped.", file=sys.stderr)
            return 0
        try:
            base_spec, specs = _expand_grid_specs(args)
            traces = _suite_traces(args)
            job = coordinator.submit(specs, traces)
        except (KeyError, TypeError, ValueError) as error:
            print(_error_message(error), file=sys.stderr)
            return 2
        print(
            f"sweep job {job.job_id}: {job.total} cell(s); waiting for workers "
            f"(repro worker --connect {args.host}:{coordinator.address[1]})",
            file=sys.stderr,
        )
        try:
            while not job.wait(timeout=0.5):
                pass
        except KeyboardInterrupt:
            print("\nserve interrupted.", file=sys.stderr)
            if store is not None:
                print(
                    "completed cells are in the store; rerun the same "
                    "`repro serve` command to resume from them",
                    file=sys.stderr,
                )
            return 130
        try:
            runs = job.runs()
        except JobFailed as error:
            print(f"sweep failed: {error}", file=sys.stderr)
            return 1
        results = _sweep_result_set(specs, base_spec, job.trace_names, runs)
        _print_sweep_results(args, results, specs)
        _report_store_use(store)
        return 0
    finally:
        if status_server is not None:
            status_server.close()
        coordinator.shutdown()


def _command_worker(args: argparse.Namespace) -> int:
    from repro.dist import CoordinatorUnreachable, ProtocolError
    from repro.dist.worker import DEFAULT_RECONNECT, make_worker

    store = _resolve_store(args.store)
    try:
        worker = make_worker(
            args.connect,
            jobs=args.jobs,
            store=store if store is not None else False,
            name=args.name,
            connect_retry=args.connect_retry,
            reconnect=(
                args.reconnect if args.reconnect is not None else DEFAULT_RECONNECT
            ),
            batch=_batch_cells(args),
            log=_log_stderr,
        )
    except ValueError as error:
        print(f"worker failed: {_error_message(error)}", file=sys.stderr)
        return 2

    # SIGTERM (the fleet manager's stop signal) drains: finish and upload
    # everything in flight, lease nothing new, exit 0.
    def _drain(signum, frame):
        print(
            "worker received SIGTERM; draining in-flight work before exiting",
            file=sys.stderr,
        )
        worker.request_stop()

    previous = signal.signal(signal.SIGTERM, _drain)
    try:
        completed = worker.run()
    except KeyboardInterrupt:
        print("\nworker stopped; leased cells will be requeued.", file=sys.stderr)
        return 130
    except CoordinatorUnreachable as error:
        print(f"worker failed: {_error_message(error)}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except (OSError, ProtocolError, ValueError) as error:
        print(f"worker failed: {_error_message(error)}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(f"completed {completed} cell(s)", file=sys.stderr)
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    from repro.dist import ProtocolError, submit_sweep

    try:
        base_spec, specs = _expand_grid_specs(args)
        traces = _suite_traces(args)
    except (KeyError, TypeError, ValueError) as error:
        print(_error_message(error), file=sys.stderr)
        return 2
    try:
        cell_results = submit_sweep(
            args.connect,
            specs,
            traces,
            progress=ProgressPrinter("submit") if args.progress else None,
        )
    except KeyboardInterrupt:
        print(
            "\nsubmit interrupted; the job keeps running on the coordinator.",
            file=sys.stderr,
        )
        return 130
    except (OSError, ProtocolError, RuntimeError, ValueError) as error:
        print(f"submit failed: {_error_message(error)}", file=sys.stderr)
        return 1
    try:
        runs = {
            spec.label: ConfigurationRun(
                configuration=spec.label,
                results=[
                    cell_results[(spec.label, index)] for index in range(len(traces))
                ],
            )
            for spec in specs
        }
    except KeyError as error:
        print(
            f"coordinator returned an incomplete job (missing cell {error})",
            file=sys.stderr,
        )
        return 1
    results = _sweep_result_set(
        specs, base_spec, [trace.name for trace in traces], runs
    )
    _print_sweep_results(args, results, specs)
    return 0


def _command_top(args: argparse.Namespace) -> int:
    return run_top(
        args.connect,
        interval=args.interval,
        iterations=args.iterations,
        clear=args.clear,
    )


def _command_experiment(args: argparse.Namespace) -> int:
    subset = _split(args.benchmarks)
    runners = {}
    for suite in suite_names():
        traces = generate_suite(
            suite, target_conditional_branches=args.length, benchmarks=subset
        )
        if traces:
            runners[suite] = SuiteRunner(
                traces, profile=args.profile, max_workers=args.jobs
            )
    if not runners:
        print("no benchmarks selected", file=sys.stderr)
        return 2
    result = run_experiment(args.experiment_id, runners)
    print(result.report())
    return 0


def _command_store(args: argparse.Namespace) -> int:
    store = _resolve_store(args.store)
    if store is None:
        print(
            "no result store: pass --store DIR or set REPRO_RESULT_STORE",
            file=sys.stderr,
        )
        return 2
    if args.store_command == "ls" and getattr(args, "summary_view", False):
        summary = store.summary()
        if args.json_output:
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        print(
            f"{summary['cells']} cell(s), {summary['bytes']} bytes on disk, "
            f"{summary['distinct_specs']} distinct spec(s), "
            f"{summary['distinct_traces']} distinct trace(s) in {summary['root']}"
        )
        return 0
    if args.store_command == "ls" and getattr(args, "traces_view", False):
        return _store_ls_traces(store, args)
    if args.store_command == "ls":
        entries = []
        for record in store.records():
            result = record.get("result", {})
            instructions = int(result.get("instructions", 0))
            mpki = (
                1000.0 * int(result.get("mispredictions", 0)) / instructions
                if instructions > 0
                else None
            )
            entries.append(
                {
                    "key": record.get("key"),
                    "label": record.get("label"),
                    "predictor_name": result.get("predictor_name"),
                    "trace_name": result.get("trace_name"),
                    "trace_fingerprint": record.get("trace_fingerprint"),
                    "mpki": mpki,
                    "mispredictions": result.get("mispredictions"),
                    "conditional_branches": result.get("conditional_branches"),
                    "instructions": result.get("instructions"),
                    "storage_bits": result.get("storage_bits"),
                    "age_seconds": record.get("age_seconds", 0.0),
                    "path": record.get("path"),
                }
            )
        if args.json_output:
            # Machine-readable: the coordinator smoke job and CI use this
            # to verify store contents without scraping the table.
            print(json.dumps(entries, indent=2))
            return 0
        for entry in entries:
            mpki_text = (
                f"{entry['mpki']:8.3f}" if entry["mpki"] is not None else "     n/a"
            )
            print(
                f"{(entry['key'] or '?')[:12]}  "
                f"{entry['predictor_name'] or '?':<32} "
                f"{entry['trace_name'] or '?':<12} "
                f"mpki={mpki_text}  age={_format_age(entry['age_seconds'])}"
            )
        print(f"{len(entries)} record(s) in {store.root}", file=sys.stderr)
        return 0
    if args.store_command == "gc":
        try:
            cutoff = _parse_duration(args.older_than)
        except ValueError as error:
            print(_error_message(error), file=sys.stderr)
            return 2
        removed = store.gc(cutoff)
        print(
            f"removed {removed} record(s) older than {args.older_than} "
            f"from {store.root}",
            file=sys.stderr,
        )
        return 0
    if args.store_command == "export":
        _write_output(json.dumps(store.export(), indent=2), args.output)
        return 0
    if args.store_command == "import":
        try:
            if args.input == "-":
                data = json.load(sys.stdin)
            else:
                with open(args.input, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"cannot read records from {args.input}: {error}", file=sys.stderr)
            return 2
        if isinstance(data, dict):
            data = [data]
        if not isinstance(data, list):
            print(
                f"{args.input}: expected a record object or a list of records",
                file=sys.stderr,
            )
            return 2
        imported = skipped = 0
        for record in data:
            try:
                store.import_record(record)
                imported += 1
            except (ValueError, OSError):
                skipped += 1
        print(
            f"imported {imported} record(s) into {store.root}"
            + (f", skipped {skipped} malformed" if skipped else ""),
            file=sys.stderr,
        )
        return 0 if not skipped else 1
    if args.store_command == "verify":
        report = store.verify(repair=args.repair)
        bad = report["corrupt"] + report["truncated"]
        if args.json_output:
            print(json.dumps(report, indent=2, sort_keys=True))
            return EXIT_CORRUPTION if bad else 0
        print(
            f"scanned {report['scanned']} record(s) in {report['root']}: "
            f"{report['ok']} ok, {report['legacy']} legacy (no checksum), "
            f"{report['corrupt']} corrupt, {report['truncated']} truncated"
        )
        for problem in report["problems"]:
            line = (
                f"  {problem['status']:<9} {(problem['key'] or '?')[:12]}  "
                f"{problem['detail']}"
            )
            if problem.get("quarantined_to"):
                line += f" -> quarantined to {problem['quarantined_to']}"
            print(line)
        if bad and args.repair:
            print(
                f"quarantined {report['quarantined']} record(s); the next "
                "sweep will recompute those cells",
                file=sys.stderr,
            )
        elif bad:
            print(
                "re-run with --repair to quarantine them so the next sweep "
                "recomputes those cells",
                file=sys.stderr,
            )
        return EXIT_CORRUPTION if bad else 0
    raise AssertionError(
        f"unhandled store command {args.store_command!r}"
    )  # pragma: no cover


def _store_ls_traces(store: ResultStore, args: argparse.Namespace) -> int:
    """``repro store ls --traces``: one row per trace fingerprint.

    Maps the fingerprints the store keys cells under back to the trace
    names its records carry, so an operator can tell which stored cells
    belong to which ingested trace (re-ingesting with a different chunk
    geometry yields a new fingerprint -- and therefore a new row).
    """
    by_fingerprint: Dict[str, Dict[str, Any]] = {}
    for record in store.records():
        fingerprint = record.get("trace_fingerprint") or "?"
        result = record.get("result", {})
        entry = by_fingerprint.setdefault(
            fingerprint, {"fingerprint": fingerprint, "names": set(), "cells": 0}
        )
        entry["cells"] += 1
        name = result.get("trace_name")
        if name:
            entry["names"].add(str(name))
    entries = [
        {
            "fingerprint": entry["fingerprint"],
            "names": sorted(entry["names"]),
            "cells": entry["cells"],
        }
        for entry in sorted(by_fingerprint.values(), key=lambda e: e["fingerprint"])
    ]
    if args.json_output:
        print(json.dumps(entries, indent=2))
        return 0
    for entry in entries:
        names = ", ".join(entry["names"]) or "?"
        print(
            f"{entry['fingerprint'][:16]}  {entry['cells']:>5} cell(s)  {names}"
        )
    print(
        f"{len(entries)} trace(s) across {sum(e['cells'] for e in entries)} "
        f"record(s) in {store.root}",
        file=sys.stderr,
    )
    return 0


def _format_age(seconds: float) -> str:
    for unit, size in (("d", 86400.0), ("h", 3600.0), ("m", 60.0)):
        if seconds >= size:
            return f"{seconds / size:.1f}{unit}"
    return f"{seconds:.0f}s"


def _command_ingest(args: argparse.Namespace) -> int:
    from repro.ingest import IngestError, ingest_trace
    from repro.trace.chunked import DEFAULT_CHUNK_BRANCHES, ChunkedTrace

    if args.ingest_command == "convert":
        try:
            report = ingest_trace(
                args.input,
                args.output,
                reader=args.reader,
                name=args.name,
                layout=args.layout,
                chunk_branches=(
                    args.chunk_branches
                    if args.chunk_branches is not None
                    else DEFAULT_CHUNK_BRANCHES
                ),
                on_error=args.on_error,
                default_gap=args.default_gap,
            )
        except IngestError as error:
            print(f"ingest rejected: {error}", file=sys.stderr)
            return 1
        except (OSError, ValueError) as error:
            print(f"ingest failed: {_error_message(error)}", file=sys.stderr)
            return 2
        if args.json_output:
            print(json.dumps(report.to_dict(), indent=2))
            return 0
        chunks = f", {report.chunks} chunk(s)" if report.chunks else ""
        repairs = (
            f", {report.repaired} repaired, {report.skipped} skipped"
            if report.repaired or report.skipped
            else ""
        )
        print(
            f"ingested {report.records} record(s) "
            f"({report.conditional} conditional) from {report.input} "
            f"via the {report.reader} reader into {report.output} "
            f"({report.layout} layout{chunks}{repairs}, "
            f"{report.branches_per_second:,.0f} branches/s)"
        )
        print(f"fingerprint: {report.fingerprint}")
        for attribution in report.attributions:
            print(f"  note: {attribution}", file=sys.stderr)
        return 0
    try:
        trace = load_any_trace(args.path)
    except (OSError, ValueError) as error:
        print(_error_message(error), file=sys.stderr)
        return 2
    chunked = isinstance(trace, ChunkedTrace)
    if args.ingest_command == "validate":
        try:
            if chunked:
                trace.validate()
        except (OSError, ValueError) as error:
            print(f"validation failed: {_error_message(error)}", file=sys.stderr)
            return 1
        print(
            f"{args.path}: OK ({len(trace)} record(s), "
            f"fingerprint {trace.fingerprint()})"
        )
        return 0
    if args.ingest_command == "inspect":
        info: Dict[str, Any] = {
            "path": args.path,
            "name": trace.name,
            "layout": "chunked" if chunked else "monolithic",
            "records": len(trace),
            "conditional": trace.conditional_count,
            "instructions": trace.instruction_count,
            "fingerprint": trace.fingerprint(),
            "metadata": dict(trace.metadata),
        }
        if chunked:
            info["chunks"] = trace.chunk_count
            info["chunk_branches"] = trace.manifest.get("chunk_branches")
        if args.json_output:
            print(json.dumps(info, indent=2))
            return 0
        for key in (
            "name", "layout", "records", "conditional", "instructions",
            "chunks", "chunk_branches", "fingerprint",
        ):
            if key in info:
                print(f"{key}: {info[key]}")
        for key, value in sorted(info["metadata"].items()):
            print(f"metadata.{key}: {value}")
        return 0
    raise AssertionError(
        f"unhandled ingest command {args.ingest_command!r}"
    )  # pragma: no cover


def _command_trace(args: argparse.Namespace) -> int:
    try:
        spec = get_benchmark(args.suite, args.benchmark)
    except KeyError as error:
        print(_error_message(error), file=sys.stderr)
        return 2
    trace = generate_benchmark(spec, target_conditional_branches=args.length)
    if args.trace_format == "binary":
        save_trace_binary(trace, args.output)
    else:
        save_trace(trace, args.output)
    print(f"wrote {len(trace)} branch records ({trace.conditional_count} conditional) "
          f"to {args.output} ({args.trace_format} format)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "simulate":
        return _command_simulate(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "worker":
        return _command_worker(args)
    if args.command == "submit":
        return _command_submit(args)
    if args.command == "top":
        return _command_top(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "store":
        return _command_store(args)
    if args.command == "ingest":
        return _command_ingest(args)
    if args.command == "trace":
        return _command_trace(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
