"""The experiment facade: specs in, analysable results out.

:class:`Experiment` ties the declarative layer to the simulation stack.
It takes a list of :class:`~repro.api.specs.PredictorSpec` (or registered
configuration names), a workload (a synthetic suite by name, or explicit
traces), and runs everything through one
:class:`~repro.sim.runner.SuiteRunner` -- serially or across a process
pool -- returning a :class:`ResultSet` with per-trace MPKI tables,
baseline deltas and JSON/CSV export::

    experiment = Experiment(
        ["tage-gsc", "tage-gsc+imli"],
        suite="cbp4like", benchmarks=["SPEC2K6-04"], length=3000,
        profile="small", jobs=4,
    )
    results = experiment.run(baseline="tage-gsc")
    print(results.report())
    results.to_csv()
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.analysis.tables import format_table
from repro.api.registry import Registry
from repro.api.specs import PredictorSpec
from repro.sim.metrics import mpki_delta
from repro.sim.runner import DEFAULT_BATCH_CELLS, ConfigurationRun, SuiteRunner
from repro.store import ResultStore
from repro.trace.chunked import ChunkedTrace, load_any_trace
from repro.trace.trace import Trace

__all__ = ["Experiment", "ResultSet"]

SpecLike = Union[PredictorSpec, str]


@dataclass
class ResultSet:
    """Results of one :class:`Experiment` run.

    Maps every spec label to its :class:`ConfigurationRun` (one
    :class:`~repro.sim.engine.SimulationResult` per trace) and knows how to
    present itself as a table, as baseline deltas, and as JSON / CSV.
    """

    specs: List[PredictorSpec]
    runs: Dict[str, ConfigurationRun]
    trace_names: List[str]
    baseline: Optional[str] = None
    _spec_by_label: Dict[str, PredictorSpec] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._spec_by_label = {spec.label: spec for spec in self.specs}
        if self.baseline is not None and self.baseline not in self.runs:
            raise KeyError(
                f"baseline {self.baseline!r} is not among the run labels "
                f"{self.labels()}"
            )

    # ----------------------------------------------------------------- #
    # Access
    # ----------------------------------------------------------------- #

    def labels(self) -> List[str]:
        """Spec labels, in run order."""
        return list(self.runs)

    def run_for(self, label: str) -> ConfigurationRun:
        """The :class:`ConfigurationRun` for one label."""
        try:
            return self.runs[label]
        except KeyError:
            raise KeyError(
                f"no results for {label!r}; known labels: {self.labels()}"
            ) from None

    def mpki(self, label: str, trace_name: str) -> float:
        """MPKI of ``label`` on ``trace_name``."""
        return self.run_for(label).result_for(trace_name).mpki

    def average_mpki(self, label: str) -> float:
        """Average MPKI of ``label`` over all traces."""
        return self.run_for(label).average_mpki

    def storage_bits(self, label: str) -> int:
        """Storage budget of ``label``."""
        return self.run_for(label).storage_bits

    def baseline_delta(self, label: str) -> Dict[str, float]:
        """Per-trace MPKI reduction of ``label`` relative to the baseline.

        Positive values mean ``label`` mispredicts less than the baseline.
        Includes an ``"AVERAGE"`` entry.
        """
        if self.baseline is None:
            raise ValueError("this result set was produced without a baseline")
        base = self.run_for(self.baseline)
        candidate = self.run_for(label)
        deltas = mpki_delta(base.mpki_by_trace(), candidate.mpki_by_trace())
        deltas["AVERAGE"] = base.average_mpki - candidate.average_mpki
        return deltas

    # ----------------------------------------------------------------- #
    # Presentation / export
    # ----------------------------------------------------------------- #

    def mpki_table(self) -> List[List[object]]:
        """Rows of the per-trace MPKI table (one final ``AVERAGE`` row)."""
        labels = self.labels()
        rows: List[List[object]] = [
            [name] + [self.mpki(label, name) for label in labels]
            for name in self.trace_names
        ]
        rows.append(["AVERAGE"] + [self.average_mpki(label) for label in labels])
        return rows

    def report(self, title: Optional[str] = None) -> str:
        """Human-readable MPKI table (plus baseline deltas when set)."""
        labels = self.labels()
        sections = [
            format_table(
                ["benchmark"] + labels,
                self.mpki_table(),
                title=title or "MPKI per benchmark",
            )
        ]
        if self.baseline is not None:
            delta_labels = [label for label in labels if label != self.baseline]
            if delta_labels:
                deltas = {label: self.baseline_delta(label) for label in delta_labels}
                rows = [
                    [name] + [deltas[label][name] for label in delta_labels]
                    for name in self.trace_names + ["AVERAGE"]
                ]
                sections.append("")
                sections.append(
                    format_table(
                        ["benchmark"] + delta_labels,
                        rows,
                        title=f"MPKI reduction vs {self.baseline}",
                    )
                )
        return "\n".join(sections)

    def to_dict(self) -> Dict[str, Any]:
        """Structured plain-dict form (JSON-safe)."""
        results = []
        for label in self.labels():
            run = self.run_for(label)
            spec = self._spec_by_label.get(label)
            entry: Dict[str, Any] = {
                "label": label,
                "spec": spec.to_dict() if spec is not None else None,
                "average_mpki": run.average_mpki,
                "storage_bits": run.storage_bits,
                "mpki": run.mpki_by_trace(),
                "mispredictions": {
                    result.trace_name: result.mispredictions for result in run.results
                },
            }
            if self.baseline is not None and label != self.baseline:
                entry["delta_vs_baseline"] = self.baseline_delta(label)
            results.append(entry)
        return {
            "traces": list(self.trace_names),
            "baseline": self.baseline,
            "results": results,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON export of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    def to_csv(self) -> str:
        """CSV export: one row per trace, one MPKI column per label.

        A final ``AVERAGE`` row and a ``storage_kbits`` row close the
        table.
        """
        labels = self.labels()
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["benchmark"] + labels)
        for row in self.mpki_table():
            writer.writerow(row)
        writer.writerow(
            ["storage_kbits"] + [self.storage_bits(label) / 1024.0 for label in labels]
        )
        return buffer.getvalue()


class Experiment:
    """Run a set of predictor specs over a workload.

    Parameters
    ----------
    specs:
        :class:`PredictorSpec` objects and/or registered configuration
        names (names are coerced to specs with ``profile``).
    suite:
        Synthetic suite to generate traces from (ignored when ``traces``
        is given).
    traces:
        Explicit traces to evaluate on, instead of a generated suite.
        Entries may be :class:`Trace` /
        :class:`~repro.trace.chunked.ChunkedTrace` objects or ``str`` /
        ``Path`` values naming a trace file or chunked trace directory
        (loaded via :func:`~repro.trace.chunked.load_any_trace`, so
        ingested traces are addressable by path like workloads).
    benchmarks:
        Restrict the generated suite to these benchmark names.
    length:
        Target conditional branches per generated benchmark trace.
    profile:
        Size profile applied when coercing configuration names to specs.
    jobs:
        Worker processes; 1 keeps everything in-process.  Parallel runs
        are bit-identical to serial ones.
    registry:
        Scoped :class:`Registry` to resolve names against (default: the
        process-wide registry).  Scoped registries imply in-process
        simulation, since worker processes cannot see their registrations.
    store:
        Persistent result store: a :class:`~repro.store.ResultStore`, a
        directory path, ``None`` (default -- honour the
        ``REPRO_RESULT_STORE`` environment variable) or ``False`` (no
        store).  Completed ``(spec, trace)`` cells are read from and
        written to the store, so re-running an interrupted or extended
        experiment recomputes only the missing cells (see
        ``docs/API.md``).
    backend:
        Execution backend: ``None`` (default -- in-process, or the local
        process pool when ``jobs > 1``), ``"serial"`` / ``"pool"``
        explicitly, or a :class:`~repro.dist.client.DistBackend` to run
        the experiment's cells on a cluster via a ``repro serve``
        coordinator (see ``docs/DISTRIBUTED.md``).  All backends are
        bit-identical.
    progress:
        Optional ``(done, total)`` callable invoked per completed cell
        (e.g. a :class:`~repro.common.progress.ProgressPrinter`).
    batch:
        Ceiling on the same-trace cells one task covers (see
        :class:`~repro.sim.runner.SuiteRunner`): a positive ``int``,
        default :data:`~repro.sim.runner.DEFAULT_BATCH_CELLS`; each task
        is one :func:`~repro.sim.engine.simulate_many` traversal, and
        ``1`` runs one cell per task.  Results, store keys and exported
        bytes are identical at any setting.
    timings:
        Per-cell timing capture (see ``docs/OBSERVABILITY.md``):
        ``None`` (default) writes ``timings.jsonl`` next to the result
        store when one is configured, a path redirects the artifact,
        ``False`` disables capture.  Timing never affects results.
    """

    def __init__(
        self,
        specs: Iterable[SpecLike],
        *,
        suite: Optional[str] = "cbp4like",
        traces: Optional[Sequence[Union[Trace, ChunkedTrace, str, Path]]] = None,
        benchmarks: Optional[Sequence[str]] = None,
        length: int = 2500,
        profile: str = "default",
        jobs: int = 1,
        registry: Optional[Registry] = None,
        store: Union["ResultStore", str, None, bool] = None,
        backend: Union[str, object, None] = None,
        progress=None,
        batch: int = DEFAULT_BATCH_CELLS,
        timings: Union[str, Path, None, bool] = None,
    ) -> None:
        self.specs = [
            spec
            if isinstance(spec, PredictorSpec)
            else PredictorSpec.from_named(spec, profile=profile)
            for spec in specs
        ]
        if not self.specs:
            raise ValueError("an experiment needs at least one spec")
        seen: Dict[str, PredictorSpec] = {}
        for spec in self.specs:
            previous = seen.setdefault(spec.label, spec)
            if previous != spec:
                raise ValueError(
                    f"two different specs share the label {spec.label!r}; "
                    "give one an explicit name"
                )
        if traces is None and suite is None:
            raise ValueError("an experiment needs either a suite name or traces")
        self.suite = suite
        self.benchmarks = list(benchmarks) if benchmarks is not None else None
        self.length = length
        self.profile = profile
        self.jobs = jobs
        self.registry = registry
        self.store = ResultStore.resolve(store)
        self.backend = backend
        self.progress = progress
        self.batch = batch
        self.timings = timings
        self._traces = (
            [
                load_any_trace(trace) if isinstance(trace, (str, Path)) else trace
                for trace in traces
            ]
            if traces is not None
            else None
        )
        self._runner: Optional[SuiteRunner] = None

    def traces(self) -> List[Trace]:
        """The experiment's traces (generated on first use, then cached)."""
        if self._traces is None:
            from repro.workloads.suites import generate_suite

            self._traces = generate_suite(
                self.suite,
                target_conditional_branches=self.length,
                benchmarks=self.benchmarks,
            )
            if not self._traces:
                raise ValueError(
                    f"suite {self.suite!r} produced no traces for "
                    f"benchmarks {self.benchmarks!r}"
                )
        return self._traces

    def run(
        self,
        baseline: Optional[SpecLike] = None,
        track_per_pc: bool = False,
    ) -> ResultSet:
        """Simulate every spec over every trace and collect the results.

        ``baseline`` (a spec, a label, or a configuration name) enables
        per-trace delta reporting; when it is not already among the specs
        it is added to the run.
        """
        specs = list(self.specs)
        baseline_label: Optional[str] = None
        if baseline is not None:
            if isinstance(baseline, PredictorSpec):
                baseline_spec = baseline
            else:
                existing = next((s for s in specs if s.label == baseline), None)
                baseline_spec = existing or PredictorSpec.from_named(
                    baseline, profile=self.profile
                )
            baseline_label = baseline_spec.label
            existing = next((s for s in specs if s.label == baseline_label), None)
            if existing is None:
                specs.insert(0, baseline_spec)
            elif existing != baseline_spec:
                raise ValueError(
                    f"the baseline shares the label {baseline_label!r} with a "
                    "different spec in the experiment; give one an explicit name"
                )
        runner = self._get_runner()
        runs = runner.run_specs(
            specs, track_per_pc=track_per_pc, registry=self.registry
        )
        return ResultSet(
            specs=specs,
            runs=runs,
            trace_names=runner.trace_names(),
            baseline=baseline_label,
        )

    def _get_runner(self) -> SuiteRunner:
        """The experiment's runner, created on first use and then kept.

        Keeping the runner (and its memoisation cache and worker pool)
        across :meth:`run` calls makes repeated runs of overlapping spec
        sets near-free.
        """
        if self._runner is None:
            self._runner = SuiteRunner(
                self.traces(),
                profile=self.profile,
                max_workers=self.jobs if self.jobs and self.jobs > 1 else None,
                store=self.store if self.store is not None else False,
                backend=self.backend,
                progress=self.progress,
                batch=self.batch,
                timings=self.timings,
            )
        return self._runner

    def close(self) -> None:
        """Shut down the runner's worker pool (no-op when none exists)."""
        if self._runner is not None:
            self._runner.close()
