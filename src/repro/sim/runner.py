"""Suite runner: evaluate many predictor configurations over many traces.

The benchmark harness and the examples all follow the same pattern: build a
set of traces (one or both synthetic suites), run a set of predictor
configurations over every trace, and aggregate per-suite average MPKI.
:class:`SuiteRunner` implements that pattern once, with a memo keyed like
the persistent store's cells, so that several experiments sharing a
configuration (for example Table 1 and Figure 8, which both need
``tage-gsc`` and ``tage-gsc+imli``) only pay for the simulation once.

Execution is **backend-pluggable**: the same batch of independent
``(configuration, trace)`` cells can run in-process (``serial``), across a
:class:`concurrent.futures.ProcessPoolExecutor` (``pool``, selected
automatically by ``max_workers``), or on a cluster through a
:class:`~repro.dist.client.DistBackend` connected to a ``repro serve``
coordinator.  Each cell is a self-contained unit of work (a fresh
predictor trained on one trace), so every backend produces bit-identical
results, merged back into the same memo and persistent store.
:func:`plan_cells` is the one cell planner and the one result lookup,
shared with the dist coordinator: it probes the memo and the store and
puts the missing cells in scheduling order.  Every spec -- registry-named,
declarative :class:`~repro.api.specs.PredictorSpec` or from a scoped
registry -- runs through the same batched tasks.  Specs that resolve to
explicit options are self-contained, so any backend may run them;
builder-based specs build in-process and join the serial tasks of their
trace.  Every task returns one outcome per cell
(:func:`_simulate_spec_batch`): the cell's result or the exception its
build or replay raised.

Traces are duck-typed: anything exposing ``name``, ``fingerprint()`` and
the engine's column surface works, so
:class:`~repro.trace.chunked.ChunkedTrace` objects stream through every
backend in bounded memory -- cell keys and results are byte-identical to
the same trace loaded monolithically (chunked traces pickle by directory,
so the pool backend works unchanged).
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Container,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.obs.timings import TimingLog, timing_log_for
from repro.predictors.base import BranchPredictor
from repro.predictors.composites import CompositeOptions, SizeProfile, core_key_for
from repro.sim.engine import SimulationResult, simulate, simulate_many
from repro.sim.metrics import average_mpki
from repro.store import ResultStore, profile_content
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim must not
    from repro.api.specs import PredictorSpec  # depend on api at runtime)

__all__ = [
    "ConfigurationRun",
    "DEFAULT_BATCH_CELLS",
    "ExecutionBackend",
    "PlannedCell",
    "SuiteRunner",
    "check_batch",
    "core_schedule_key",
    "plan_cells",
    "schedule_cells",
    "store_cell_keys",
]

_Item = TypeVar("_Item")


def core_schedule_key(spec: "PredictorSpec", sizes: SizeProfile) -> str:
    """Best-effort shared-core key of ``spec`` for scheduling order.

    :func:`plan_cells` sorts same-trace cells by this string, for the
    suite runner's batch chunking and the dist coordinator's admission
    queue alike, so cells that can share a core
    (:mod:`repro.predictors.shared_core`) land in the same batch or lease
    grant.  It is purely a scheduling hint -- batch
    membership never changes results -- so any resolution failure
    (builder-based specs, unknown base names, invalid overrides) degrades
    to ``""`` instead of raising; such cells simply keep their submission
    order.  The spec is duck-typed (``resolve()``/``base``/``overrides``)
    so this layer stays import-independent of :mod:`repro.api`.
    """
    try:
        options = spec.resolve().base
        if not isinstance(options, CompositeOptions):
            return ""
        overrides = getattr(spec, "overrides", None)
        if overrides:
            options = replace(options, **dict(overrides))
        return repr(core_key_for(options, sizes))
    except Exception:
        return ""


def schedule_cells(cells: Iterable[Tuple[int, str, _Item]]) -> List[_Item]:
    """Scheduling order of ``(trace index, core key, cell)`` triples.

    Trace-major, so one task or lease grant covers one trace; within a
    trace, cells with equal :func:`core_schedule_key` are adjacent, so
    :func:`~repro.sim.engine.simulate_many` can fan them out of one core;
    stable, so submission order breaks ties.  This is the one scheduling
    policy of :func:`plan_cells` -- a hint only, order never changes
    results.
    """
    return [cell for _, _, cell in sorted(cells, key=lambda item: item[:2])]


def store_cell_keys(
    resolved: "PredictorSpec",
    sizes: Optional[SizeProfile],
    traces: Sequence[Trace],
    track_per_pc: bool,
) -> Optional[List[str]]:
    """Per-trace cell keys of a resolved spec, for the store and the memo.

    ``None`` when the spec did not resolve to explicit options:
    builder-based specs have no content-addressed identity.
    """
    if not isinstance(resolved.base, CompositeOptions):
        return None
    content = resolved.content()
    sizes_content = profile_content(sizes)
    return [
        ResultStore.cell_key(content, sizes_content, trace.fingerprint(), track_per_pc)
        for trace in traces
    ]


@dataclass(frozen=True)
class PlannedCell:
    """One ``(label, trace index)`` cell as :func:`plan_cells` planned it."""

    label: str
    index: int
    #: Cell key of the store and the memo; ``None`` without either and for
    #: builder-based specs, which have no content-addressed identity.
    store_key: Optional[str]
    #: :func:`core_schedule_key` of the cell's spec.
    core_key: str


def plan_cells(
    specs: Mapping[str, "PredictorSpec"],
    sizes: Mapping[str, Optional[SizeProfile]],
    traces: Sequence[Trace],
    track_per_pc: bool,
    store: Optional[ResultStore],
    cells: Optional[Container[Tuple[str, int]]] = None,
    memo: Optional[Mapping[str, SimulationResult]] = None,
) -> Tuple[List[Tuple[PlannedCell, SimulationResult]], List[PlannedCell]]:
    """Look every cell up and put the misses in scheduling order.

    The one cell planner, and the one result lookup, of the suite runner
    and the dist coordinator.  ``specs`` maps each label to its resolved
    spec and ``sizes`` to its resolved :class:`SizeProfile` (``None`` for
    builder-based specs); the cells are ``specs x traces``, or only the
    ``(label, trace index)`` pairs in ``cells`` when given.  Each cell key
    is looked up in ``memo`` (the suite runner's in-process results; the
    coordinator has none) and, on a miss there, read once from ``store``.
    Returns ``(hits, pending)``: the found cells with their results, in
    label-major order, and the missing cells in :func:`schedule_cells`
    order.  Both callers derive cell keys here, so a local sweep's store
    resumes a coordinator and the other way round.
    """
    hits: List[Tuple[PlannedCell, SimulationResult]] = []
    pending: List[Tuple[int, str, PlannedCell]] = []
    for label, spec in specs.items():
        keys = (
            store_cell_keys(spec, sizes[label], traces, track_per_pc)
            if store is not None or memo is not None
            else None
        )
        core_key = core_schedule_key(spec, sizes[label])
        for index in range(len(traces)):
            if cells is not None and (label, index) not in cells:
                continue
            cell = PlannedCell(label, index, keys[index] if keys else None, core_key)
            stored = None
            if cell.store_key is not None:
                stored = memo.get(cell.store_key) if memo is not None else None
                if stored is None and store is not None:
                    stored = store.get(cell.store_key)
            if stored is None:
                pending.append((index, core_key, cell))
            else:
                hits.append((cell, stored))
    return hits, schedule_cells(pending)


#: Default ceiling on how many same-trace cells one batched task (or one
#: distributed lease grant) covers.  Large enough to amortise the shared
#: trace traversal over a typical sweep grid, small enough that an
#: interrupted batch (or an expired worker lease) forfeits bounded work.
DEFAULT_BATCH_CELLS = 16


def check_batch(batch: int) -> int:
    """Return ``batch`` if it is a positive ``int`` cells-per-task ceiling.

    Raises :class:`TypeError` for a ``bool`` (an ``int`` that would
    silently mean 1 or 0) or a non-integer, and :class:`ValueError`
    below 1.
    """
    if isinstance(batch, bool) or not isinstance(batch, int):
        raise TypeError(
            f"batch must be a positive int (batch=1 runs one cell per "
            f"task), got {batch!r}"
        )
    if batch < 1:
        raise ValueError(f"batch must be positive, got {batch}")
    return batch


#: Errors that are deterministic properties of a cell itself (an unknown
#: configuration name, bad override types, invalid geometry).  One raised
#: in the middle of a shared traversal makes :func:`_simulate_spec_batch`
#: re-run the cells one at a time to find its cell; a dist worker reports
#: a failed cell with one of these as a ``failure`` frame, which fails the
#: job fast.  Anything else (a broken process pool, OOM, I/O trouble) is a
#: property of the process: it propagates, and a worker dies instead so
#: the coordinator requeues its leases.
_CELL_ERRORS = (KeyError, TypeError, ValueError, AttributeError)

#: One cell's outcome from a batched task: its result, or the exception
#: its build or replay raised.
_Outcome = Union[SimulationResult, BaseException]


def _build_spec_predictor(
    spec_dict: Dict[str, object], sizes: "SizeProfile"
) -> BranchPredictor:
    """Build a predictor from a spec's portable ``(dict, SizeProfile)`` form.

    The spec travels as its plain-dict form and the size profile as the
    parent-resolved :class:`SizeProfile` instance (both picklable), so the
    worker needs none of the parent process's registrations -- custom
    profiles work even under the ``spawn`` start method.
    """
    from repro.api.registry import Registry
    from repro.api.specs import PredictorSpec

    spec = PredictorSpec.from_dict(spec_dict)
    registry = Registry.with_defaults()
    registry.register_profile(str(spec.profile), sizes, overwrite=True)
    return spec.build(registry)


def _cell_builder(
    spec: "PredictorSpec", sizes: Optional[SizeProfile], registry
) -> Callable[[], BranchPredictor]:
    """Zero-argument builder of one cell's fresh predictor.

    An options-based spec builds from its portable ``(dict, SizeProfile)``
    form (:func:`_build_spec_predictor`), which pickles, so the pool and
    backends may run it.  A builder-based spec calls back into
    ``registry`` and so runs only in-process.
    """
    if isinstance(spec.base, CompositeOptions):
        return partial(_build_spec_predictor, spec.to_dict(), sizes)
    return partial(spec.build, registry)


def _simulate_alone(
    build: Callable[[], BranchPredictor], trace: Trace, track_per_pc: bool
) -> _Outcome:
    """One cell on its own: its result, or the exception it raised."""
    try:
        return simulate(build(), trace, track_per_pc=track_per_pc)
    except Exception as error:
        return error


def _simulate_spec_batch(
    builders: Sequence[Callable[[], BranchPredictor]],
    trace: Trace,
    track_per_pc: bool,
) -> List[_Outcome]:
    """Batched task entry point: N same-trace cells, one traversal.

    ``builders`` holds one zero-argument predictor builder per cell
    (:func:`_cell_builder`); the returned outcomes are positionally
    aligned with it.  Each is the cell's result, bit-identical to a
    per-cell :func:`simulate`, or the exception the cell raised.  A build
    error belongs to its cell, and the other cells still share one
    traversal; a :data:`_CELL_ERRORS` failure in the middle of that
    traversal re-runs the cells one at a time; any other exception
    propagates.
    """
    outcomes: List[Optional[_Outcome]] = []
    predictors = []
    for build in builders:
        try:
            predictors.append(build())
            outcomes.append(None)
        except Exception as error:
            outcomes.append(error)
    try:
        results = simulate_many(predictors, trace, track_per_pc=track_per_pc)
    except _CELL_ERRORS:
        # A deterministic failure mid-traversal cannot be attributed to a
        # cell from here (the batch shares one loop).  Re-run the built
        # cells one at a time -- simulation is deterministic, so the
        # culprit fails again, this time as its own outcome.  Fresh
        # predictors are required: the batch traversal already mutated
        # the original instances.
        return [
            _simulate_alone(build, trace, track_per_pc) if outcome is None else outcome
            for build, outcome in zip(builders, outcomes)
        ]
    simulated = iter(results)
    return [next(simulated) if outcome is None else outcome for outcome in outcomes]


def _timed_spec_batch(
    builders: Sequence[Callable[[], BranchPredictor]],
    trace: Trace,
    track_per_pc: bool,
) -> Tuple[List[_Outcome], float]:
    """Pool task: :func:`_simulate_spec_batch` and its own wall in seconds.

    Timed inside the pool process, so the submitter can split the task's
    turnaround with :func:`_pool_phases`.
    """
    started = time.monotonic()
    outcomes = _simulate_spec_batch(builders, trace, track_per_pc)
    return outcomes, time.monotonic() - started


def _pool_phases(turnaround: float, simulate_seconds: float) -> Dict[str, float]:
    """Split a pool task's submit-to-completion ``turnaround``.

    ``simulate`` is the traversal wall the task measured itself
    (:func:`_timed_spec_batch`); ``queue_wait`` is the rest -- waiting
    behind other tasks plus moving the task and its results between
    processes -- so the two phases sum to the turnaround.
    """
    simulate_seconds = min(simulate_seconds, turnaround)
    return {"simulate": simulate_seconds, "queue_wait": turnaround - simulate_seconds}


class ExecutionBackend:
    """Structural interface of pluggable cell-execution backends.

    A backend object (``SuiteRunner(backend=...)``) receives one batch of
    missing ``(label, trace index)`` cells together with everything needed
    to simulate them anywhere -- resolved specs, resolved size profiles
    and the traces themselves -- and returns one
    :class:`~repro.sim.engine.SimulationResult` per requested cell.
    :class:`repro.dist.client.DistBackend` is the shipped implementation;
    duck typing is enough, subclassing this is optional.
    """

    name = "custom"

    def execute(
        self,
        specs: Mapping[str, "PredictorSpec"],
        sizes: Mapping[str, SizeProfile],
        traces: Sequence[Trace],
        pending: Sequence[Tuple[str, int]],
        track_per_pc: bool = False,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> Dict[Tuple[str, int], SimulationResult]:
        """Simulate every ``pending`` cell and return results keyed by cell.

        ``pending`` holds ``(label, trace index)`` pairs; ``specs`` and
        ``sizes`` map each label to its resolved spec and size profile.
        Implementations must return one result per requested cell and may
        call ``progress(done, total)`` as cells complete.
        """
        raise NotImplementedError


@dataclass
class ConfigurationRun:
    """Results of one configuration over one collection of traces."""

    configuration: str
    results: List[SimulationResult] = field(default_factory=list)

    @property
    def average_mpki(self) -> float:
        """Arithmetic mean MPKI over the traces."""
        return average_mpki(self.results)

    @property
    def storage_bits(self) -> int:
        """Storage of the configuration (identical across traces)."""
        if not self.results:
            return 0
        return self.results[0].storage_bits

    def mpki_by_trace(self) -> Dict[str, float]:
        """Map of trace name to MPKI."""
        return {result.trace_name: result.mpki for result in self.results}

    def result_for(self, trace_name: str) -> SimulationResult:
        """The :class:`SimulationResult` for ``trace_name``."""
        for result in self.results:
            if result.trace_name == trace_name:
                return result
        raise KeyError(f"no result for trace {trace_name!r}")


class SuiteRunner:
    """Runs predictor configurations over a fixed set of traces.

    Results are kept in a memo keyed by the store's cell key
    (:func:`store_cell_keys`), so a cell of the same content -- under any
    label, resolved through any registry -- is simulated once per runner.
    Builder-based specs have no content key and replay on every call.

    Parameters
    ----------
    traces:
        The traces to evaluate on (typically one synthetic suite, or the
        concatenation of both).
    profile:
        Size profile passed to :func:`repro.predictors.composites.build_named`
        when a configuration is referenced by name.
    max_workers:
        When greater than 1, options-based specs (registry-named or
        scoped) are simulated in a process pool with this many workers;
        builder-based specs stay in-process.  ``None`` or 1 keeps
        everything in-process, unless ``backend="pool"`` asks for a pool,
        which then has one worker per CPU.
    store:
        Persistent result store: a :class:`~repro.store.ResultStore`, a
        directory path, ``None`` (default -- honour ``REPRO_RESULT_STORE``)
        or ``False`` (no store even when the variable is set).  With a
        store, every options-based ``(spec, trace)`` cell is looked up
        before simulating and persisted after, so killed or extended
        sweeps resume from completed cells and separate runs (and
        concurrent workers) sharing one store directory reuse each other's
        results.  Builder-based specs have no content-addressed identity
        and bypass the store.
    backend:
        Execution backend for portable spec cells: ``None`` (default --
        ``"pool"`` when ``max_workers`` asks for one, ``"serial"``
        otherwise), the explicit strings ``"serial"`` / ``"pool"``, or an
        object with the :class:`~repro.dist.client.DistBackend` ``execute``
        signature to run cells on a cluster.  ``"serial"`` forces
        in-process simulation even when ``max_workers`` is set.
    progress:
        Optional ``(done, total)`` callable invoked as cells complete
        (simulated, loaded from the store, or found in the memo) -- e.g. a
        :class:`~repro.common.progress.ProgressPrinter` for live sweep
        output.
    batch:
        Ceiling on the same-trace cells one serial or pool task covers
        (:func:`~repro.sim.engine.simulate_many` drives every cell of a
        task in one trace traversal): a positive ``int``, default
        :data:`DEFAULT_BATCH_CELLS`; ``1`` runs one cell per task.
        Batching never changes results, store cell keys or exported
        bytes -- it only changes how many cells one task covers.
    timings:
        Per-cell timing artifact (see :mod:`repro.obs.timings`).
        ``None``/``True`` (default) writes ``timings.jsonl`` next to the
        result store when one is configured (honouring
        ``REPRO_TIMINGS``); ``False`` disables capture; a path or
        :class:`~repro.obs.timings.TimingLog` redirects it.  Timing
        capture never changes results or store bytes.
    """

    def __init__(
        self,
        traces: Sequence[Trace],
        profile: str = "default",
        max_workers: Optional[int] = None,
        store: Union[ResultStore, str, Path, None, bool] = None,
        backend: Union[str, "ExecutionBackend", None] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        batch: int = DEFAULT_BATCH_CELLS,
        timings: Union[TimingLog, str, Path, None, bool] = None,
    ) -> None:
        if not traces:
            raise ValueError("the runner needs at least one trace")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        check_batch(batch)
        if isinstance(backend, str):
            if backend not in ("serial", "pool"):
                raise ValueError(
                    f"unknown backend {backend!r}; use 'serial', 'pool' or a "
                    "backend object (e.g. repro.dist.DistBackend)"
                )
        elif backend is not None and not callable(getattr(backend, "execute", None)):
            raise TypeError(
                "a backend object needs an execute() method "
                f"(got {type(backend).__name__})"
            )
        self.traces = list(traces)
        self.profile = profile
        self.max_workers = max_workers
        self.store = ResultStore.resolve(store)
        self.backend = backend
        self.progress = progress
        self.batch = batch
        if timings is False:
            self.timings: Optional[TimingLog] = None
        elif isinstance(timings, TimingLog):
            self.timings = timings
        elif isinstance(timings, (str, Path)):
            self.timings = TimingLog(timings, component="runner")
        else:  # None / True: anchor next to the store, when there is one
            self.timings = timing_log_for(
                self.store.root if self.store is not None else None,
                component="runner",
            )
        #: Every result this runner simulated or read from the store, by
        #: cell key (:func:`store_cell_keys`), for :func:`plan_cells`.
        self._memo: Dict[str, SimulationResult] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._progress_total = 0
        self._progress_done = 0

    def trace_names(self) -> List[str]:
        """Names of the traces the runner evaluates on."""
        return [trace.name for trace in self.traces]

    def _pool_size(self) -> int:
        """Worker count of the local pool: ``max_workers``, else the CPUs."""
        return self.max_workers or os.cpu_count() or 1

    # ----------------------------------------------------------------- #
    # Progress accounting
    # ----------------------------------------------------------------- #
    #
    # Each run_specs call (run and run_spec delegate to it) is one
    # progress "session": it fixes the cell total up front and every
    # completed cell -- simulated, loaded from the store, or served from
    # the memo -- advances the counter.

    def _progress_begin(self, total: int) -> None:
        self._progress_total = total
        self._progress_done = 0
        if self.progress is not None:
            self.progress(0, total)  # starts the display's clock

    def _progress_advance(self, cells: int = 1) -> None:
        if self.progress is None or cells <= 0:
            return
        self._progress_done = min(
            self._progress_done + cells, self._progress_total
        )
        self.progress(self._progress_done, self._progress_total)

    def run(
        self, configuration: str, track_per_pc: bool = False
    ) -> ConfigurationRun:
        """Run the registry-named ``configuration`` over every trace.

        This is :meth:`run_many` with one configuration, so it shares the
        memo with every spec of the same content.  A fresh
        predictor instance is built per trace, as in the championship
        framework.
        """
        return self.run_many([configuration], track_per_pc)[configuration]

    def run_spec(
        self,
        spec: "PredictorSpec",
        track_per_pc: bool = False,
        registry=None,
    ) -> ConfigurationRun:
        """Run a declarative :class:`~repro.api.specs.PredictorSpec`.

        The spec carries its own profile and overrides.  Its cells are
        looked up by content (:func:`store_cell_keys`), not by label, so
        every spec that resolves to the same options, profile geometry and
        traces -- a registry name, the equivalent options-based spec, a
        renamed copy -- shares one replay, and a re-registered name,
        profile or changed trace resolves to a new key.  Builder-based
        specs have no content key and replay on every call.  This is
        :meth:`run_specs` with one spec.
        """
        return self.run_specs([spec], track_per_pc, registry)[spec.label]

    def run_specs(
        self,
        specs: Iterable["PredictorSpec"],
        track_per_pc: bool = False,
        registry=None,
    ) -> Dict[str, ConfigurationRun]:
        """Run several specs and return their runs keyed by label.

        Every spec is resolved against ``registry`` (default: the
        process-wide one) and all their ``(spec, trace)`` cells are planned
        and run as one batch (:meth:`_run_batch_specs`).  A resolved
        options-based spec is self-contained, so its cells may run on the
        pool or a backend even when a scoped ``registry`` defined it;
        builder-based specs run in-process.  Two different specs sharing
        one label would shadow each other in the returned dict, so that is
        rejected.
        """
        unique: Dict[str, "PredictorSpec"] = {}
        for spec in specs:
            if unique.setdefault(spec.label, spec).content() != spec.content():
                raise ValueError(
                    f"two different specs share the label {spec.label!r}; "
                    "give one an explicit name"
                )
        self._progress_begin(len(unique) * len(self.traces))
        return self._run_batch_specs(
            {label: spec.resolve(registry) for label, spec in unique.items()},
            track_per_pc,
            registry,
        )

    def _get_pool(self) -> ProcessPoolExecutor:
        """Worker pool, created on first use and reused across runs.

        Reusing the pool avoids paying process start-up once per
        :meth:`run_specs` call when one runner serves several (per-suite
        runners shared by several experiments, an ``Experiment`` run
        again).
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._pool_size())
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool and write the timings summary.

        The summary (:meth:`TimingLog.write_summary`) re-reads the whole
        timings file, so it is written here, once per runner, rather than
        after every :meth:`run_specs` call.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self.timings is not None:
            self.timings.write_summary()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    def _run_batch_specs(
        self,
        specs: Mapping[str, "PredictorSpec"],
        track_per_pc: bool,
        registry=None,
    ) -> Dict[str, ConfigurationRun]:
        """Run every (resolved spec, trace) cell and keep the new ones.

        Profiles of options-based specs are resolved to
        :class:`SizeProfile` instances here, in the parent, so pool
        workers and remote backends never consult a registry for them
        (custom and scoped profiles survive the ``spawn`` start method and
        the wire protocol, and unknown profile names fail fast with a
        parent-side KeyError).

        :func:`plan_cells` fills cells already in the memo or the store
        directly and only the misses are executed -- a fully stored batch
        never even touches the backend -- once per cell key, so labels of
        equal content in one call share one replay.  Every keyed result
        goes into the memo, and a new one into the store too.
        """
        if registry is None:
            from repro.api.registry import default_registry

            registry = default_registry()
        sizes = {
            label: (
                registry.resolve_profile(spec.profile)
                if isinstance(spec.base, CompositeOptions)
                else None
            )
            for label, spec in specs.items()
        }
        hits, pending = plan_cells(
            specs, sizes, self.traces, track_per_pc, self.store, memo=self._memo
        )
        slots: Dict[str, List[Optional[SimulationResult]]] = {
            label: [None] * len(self.traces) for label in specs
        }
        for cell, result in hits:
            # Every label of the same content shares one memo or store
            # entry: hand this label its own renamed copy.
            self._memo[cell.store_key] = result
            slots[cell.label][cell.index] = replace(result, predictor_name=cell.label)
            self._progress_advance()
        # Labels of equal content share a cell key: replay the first cell
        # of each key and hand its twins renamed copies, as memo hits are.
        twins: Dict[str, List[PlannedCell]] = {}
        replayed: List[PlannedCell] = []
        for cell in pending:
            if cell.store_key in twins:
                twins[cell.store_key].append(cell)
                continue
            if cell.store_key is not None:
                twins[cell.store_key] = []
            replayed.append(cell)
        store_keys = {(cell.label, cell.index): cell.store_key for cell in replayed}
        for (label, index), result, timing in self._execute_pending(
            specs, sizes, replayed, track_per_pc, registry
        ):
            trace = self.traces[index]
            key = store_keys[label, index]
            store_seconds = None
            if key is not None:
                self._memo[key] = result
            if key is not None and self.store is not None:
                store_started = time.monotonic()
                self.store.persist(
                    key,
                    result,
                    label=label,
                    trace_fingerprint=trace.fingerprint(),
                    spec=specs[label].to_dict(),
                    warn=lambda message: print(message, file=sys.stderr),
                )
                store_seconds = time.monotonic() - store_started
            if self.timings is not None and timing is not None:
                phases = dict(timing["phases"])
                if store_seconds is not None:
                    phases["store_write"] = store_seconds
                self.timings.record(
                    backend=timing["backend"],
                    label=label,
                    trace=trace.name,
                    phases=phases,
                    batch=timing.get("batch", 1),
                    branches=result.conditional_branches,
                )
            slots[label][index] = result
            for twin in twins.get(key, ()):
                slots[twin.label][twin.index] = replace(result, predictor_name=twin.label)
                self._progress_advance()
        return {
            label: ConfigurationRun(configuration=label, results=slots[label])
            for label in specs
        }

    def _group_pending(
        self, pending: Sequence[PlannedCell], use_pool: bool
    ) -> List[Tuple[int, List[str]]]:
        """Chunk missing cells into same-trace ``(trace index, labels)`` groups.

        ``pending`` comes from :func:`plan_cells`, in scheduling order
        (trace-major, same-core cells adjacent), and is chunked per trace
        at the batch ceiling, so that same-core cells land in the same
        chunk and :func:`~repro.sim.engine.simulate_many` can fan them out
        of one core; this is a scheduling hint only and never changes
        results.  On the pool path the ceiling is additionally capped at a
        fair share of the pending cells for the pool's workers, so a grid
        over few traces still keeps every worker busy instead of
        serialising into a few giant tasks.  A fair share never splits a
        trace, so while it leaves fewer than two tasks per worker (say 3
        traces of 4 cells for 2 workers: 3 tasks, one worker doing two
        thirds of the work) each round halves every task at the core-key
        boundary nearest its middle -- never inside a same-key run, so no
        shared-core group is broken, and at most one round past the
        target, so a trace with many keys is not traversed once per key.
        The tasks are returned largest first for submission.
        """
        keys = {cell.label: cell.core_key for cell in pending}
        by_trace: Dict[int, List[str]] = {}
        for cell in pending:
            by_trace.setdefault(cell.index, []).append(cell.label)
        limit = self.batch
        if use_pool:
            workers = self._pool_size()
            fair = -(-len(pending) // workers)  # ceil division
            limit = max(1, min(limit, fair))
        groups: List[Tuple[int, List[str]]] = []
        for index, labels in by_trace.items():
            for start in range(0, len(labels), limit):
                groups.append((index, labels[start:start + limit]))
        if not use_pool:
            return groups
        while len(groups) < 2 * workers:
            halved: List[Tuple[int, List[str]]] = []
            for index, labels in groups:
                cuts = [
                    cut for cut in range(1, len(labels))
                    if keys[labels[cut]] != keys[labels[cut - 1]]
                ]
                if not cuts:
                    halved.append((index, labels))
                    continue
                cut = min(cuts, key=lambda cut: abs(2 * cut - len(labels)))
                halved += [(index, labels[:cut]), (index, labels[cut:])]
            if len(halved) == len(groups):
                break
            groups = halved
        groups.sort(key=lambda group: len(group[1]), reverse=True)
        return groups

    def _execute_pending(
        self,
        specs: Mapping[str, "PredictorSpec"],
        sizes: Mapping[str, Optional[SizeProfile]],
        pending: Sequence[PlannedCell],
        track_per_pc: bool,
        registry,
    ) -> Iterable[Tuple[Tuple[str, int], SimulationResult, Optional[Dict[str, Any]]]]:
        """Yield ``((label, index), result, timing)`` for every missing cell.

        Portable cells (options-based specs) go to the backend object when
        one is set, or across the local pool when one is asked for and
        more than one such cell is missing.  Everything else runs
        in-process, builder-based specs included: same-trace cells are
        grouped into tasks of up to ``batch`` cells, one
        :func:`~repro.sim.engine.simulate_many` traversal each.  Results
        are yielded as they become available so the caller persists
        completed cells incrementally (an interrupted sweep keeps what
        finished).

        ``timing`` is ``None`` (backend-object cells: the backend owns its
        own timing artifact) or ``{"backend", "phases", "batch"}`` with a
        measured ``simulate`` wall -- pool cells split their
        submit-to-result turnaround into ``simulate`` (timed inside the
        pool task) and ``queue_wait`` (the rest), and batched cells share
        one group wall across their ``batch`` cells.
        """
        backend = self.backend if not isinstance(self.backend, str) else None
        use_pool = self.backend == "pool" or (
            self.backend is None and (self.max_workers or 1) > 1
        )
        portable = dict.fromkeys(
            label for label, spec in specs.items()
            if isinstance(spec.base, CompositeOptions)
        )
        offloaded = [cell for cell in pending if cell.label in portable]
        if backend is None and not (use_pool and len(offloaded) > 1):
            offloaded = []
        local = [cell for cell in pending if not offloaded or cell.label not in portable]
        if backend is not None and offloaded:
            # The submit lists cells label-major, whatever the schedule.
            order = {label: position for position, label in enumerate(portable)}
            cells = sorted(
                ((cell.label, cell.index) for cell in offloaded),
                key=lambda cell: (order[cell[0]], cell[1]),
            )
            last = 0

            def _advance_remote(done: int, total: int) -> None:
                nonlocal last
                self._progress_advance(done - last)
                last = done

            results = backend.execute(
                specs={label: specs[label] for label in portable},
                sizes={label: sizes[label] for label in portable},
                traces=self.traces,
                pending=cells,
                track_per_pc=track_per_pc,
                progress=_advance_remote,
            )
            for cell in cells:
                result = results.get(cell)
                if result is None:
                    label, index = cell
                    raise RuntimeError(
                        f"backend {getattr(backend, 'name', backend)!r} returned "
                        f"no result for cell ({label!r}, {self.traces[index].name})"
                    )
                yield cell, result, None
        elif offloaded:
            pool = self._get_pool()
            batch_futures = {
                pool.submit(
                    _timed_spec_batch,
                    [_cell_builder(specs[label], sizes[label], None) for label in labels],
                    self.traces[index],
                    track_per_pc,
                ): (index, labels, time.monotonic())
                for index, labels in self._group_pending(offloaded, True)
            }
            for future in as_completed(batch_futures):
                index, labels, submitted = batch_futures[future]
                outcomes, simulate_seconds = future.result()
                timing = {
                    "backend": "pool",
                    "phases": _pool_phases(time.monotonic() - submitted, simulate_seconds),
                    "batch": len(labels),
                }
                yield from self._task_cells(index, labels, outcomes, timing)
        for index, labels in self._group_pending(local, False):
            builders = [
                _cell_builder(specs[label], sizes[label], registry) for label in labels
            ]
            group_started = time.monotonic()
            outcomes = _simulate_spec_batch(builders, self.traces[index], track_per_pc)
            timing = {
                "backend": "serial",
                "phases": {"simulate": time.monotonic() - group_started},
                "batch": len(labels),
            }
            yield from self._task_cells(index, labels, outcomes, timing)

    def _task_cells(
        self,
        index: int,
        labels: Sequence[str],
        outcomes: Sequence[_Outcome],
        timing: Dict[str, Any],
    ) -> Iterable[Tuple[Tuple[str, int], SimulationResult, Dict[str, Any]]]:
        """Yield one task's simulated cells, then raise its first failure.

        The runner fails the whole run on the first bad cell, with that
        cell's own exception; the task's good cells are yielded (and so
        persisted) first.
        """
        failures = []
        for label, outcome in zip(labels, outcomes):
            if isinstance(outcome, BaseException):
                failures.append(outcome)
                continue
            self._progress_advance()
            yield (label, index), outcome, timing
        if failures:
            raise failures[0]

    def run_many(
        self, configurations: Iterable[str], track_per_pc: bool = False
    ) -> Dict[str, ConfigurationRun]:
        """Run several registry-named configurations, keyed by name.

        All of them go through one :meth:`run_specs` call, so their
        missing cells are planned and batched together.
        """
        from repro.api.specs import PredictorSpec

        return self.run_specs(
            (PredictorSpec.from_named(c, profile=self.profile) for c in configurations),
            track_per_pc,
        )
