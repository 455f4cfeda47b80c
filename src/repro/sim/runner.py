"""Suite runner: evaluate many predictor configurations over many traces.

The benchmark harness and the examples all follow the same pattern: build a
set of traces (one or both synthetic suites), run a set of predictor
configurations over every trace, and aggregate per-suite average MPKI.
:class:`SuiteRunner` implements that pattern once, with memoisation so that
several experiments sharing a configuration (for example Table 1 and
Figure 8, which both need ``tage-gsc`` and ``tage-gsc+imli``) only pay for
the simulation once.

Execution is **backend-pluggable**: the same batch of independent
``(configuration, trace)`` cells can run in-process (``serial``), across a
:class:`concurrent.futures.ProcessPoolExecutor` (``pool``, selected
automatically by ``max_workers``), or on a cluster through a
:class:`~repro.dist.client.DistBackend` connected to a ``repro serve``
coordinator.  Each cell is a self-contained unit of work (a fresh
predictor trained on one trace), so every backend produces bit-identical
results, merged back into the same memoisation cache and persistent
store.  Registry-named configurations and declarative
:class:`~repro.api.specs.PredictorSpec` objects (after resolving to
explicit options) can be dispatched to any backend; configurations with
custom (potentially unpicklable) factories or builder-based specs fall
back to in-process simulation transparently.

Traces are duck-typed: anything exposing ``name``, ``fingerprint()`` and
the engine's column surface works, so
:class:`~repro.trace.chunked.ChunkedTrace` objects stream through every
backend in bounded memory -- memo keys, store cell keys and results are
byte-identical to the same trace loaded monolithically (chunked traces
pickle by directory, so the pool backend works unchanged).
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
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

from repro.common import diskguard
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
    "BatchCellError",
    "ConfigurationRun",
    "DEFAULT_BATCH_CELLS",
    "ExecutionBackend",
    "SuiteRunner",
    "core_schedule_key",
    "schedule_cells",
    "store_cell_keys",
]

_Item = TypeVar("_Item")


def core_schedule_key(spec: "PredictorSpec", sizes: SizeProfile) -> str:
    """Best-effort shared-core key of ``spec`` for scheduling order.

    Schedulers (the suite runner's batch chunking, the dist coordinator's
    admission queue) sort same-trace cells by this string so cells that
    can share a core (:mod:`repro.predictors.shared_core`) land in the
    same batch or lease grant.  It is purely a scheduling hint -- batch
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
    policy of the suite runner's task planner and the dist coordinator's
    admission queue -- a hint only, order never changes results.
    """
    return [cell for _, _, cell in sorted(cells, key=lambda item: item[:2])]


def store_cell_keys(
    resolved: "PredictorSpec",
    sizes: SizeProfile,
    traces: Sequence[Trace],
    track_per_pc: bool,
) -> Optional[List[str]]:
    """Per-trace persistent-store cell keys of a resolved spec.

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


PredictorFactory = Callable[[], BranchPredictor]

#: Default ceiling on how many same-trace cells one batched task (or one
#: distributed lease grant) covers.  Large enough to amortise the shared
#: trace traversal over a typical sweep grid, small enough that an
#: interrupted batch (or an expired worker lease) forfeits bounded work.
DEFAULT_BATCH_CELLS = 16

#: Memoisation key: (label, profile, per-PC tracking requested, registry
#: uid, content token, traces digest).  The profile is part of the key
#: because specs carry their own profile which may differ from the
#: runner's; the tracking flag is part of the key because a run simulated
#: without per-PC tracking has empty ``per_pc_mispredictions`` and must
#: not satisfy a later request that needs them; the registry uid (the
#: stable ``Registry.uid`` of whichever registry resolves the spec; 0 for
#: registry-free factory runs) keeps results built against different
#: registries from shadowing each other; the content token (a canonical
#: dump of the spec minus its display name, or ``"factory"``) keeps two
#: specs that merely share a label from poisoning each other's entries;
#: and the traces digest (a hash over the traces' content fingerprints,
#: recomputed per lookup) keeps results keyed on what the traces *are*,
#: not which benchmarks they are named after -- a trace regenerated with
#: different content (e.g. after ``REPRO_TRACE_CACHE`` invalidation, or
#: mutated in place) can never be served a stale run.
#:
#: Each entry stores a validity stamp next to the run: the registry's
#: mutation ``token`` for spec entries (a registry mutation bumps the
#: token, so stale results are never served and are replaced in place --
#: bounded growth), or the factory object itself for factory entries (a
#: hit requires the same factory identity; holding the reference also
#: keeps the cache bounded at one entry per label).
_CacheKey = Tuple[str, str, bool, int, str, str]
_CacheEntry = Tuple[object, "ConfigurationRun"]


def _registry_identity(registry) -> Tuple[int, int]:
    """(stable uid, current mutation token) of a registry (default if None)."""
    if registry is None:
        from repro.api.registry import default_registry

        registry = default_registry()
    return registry.uid, registry.token


def _spec_content(spec: "PredictorSpec") -> str:
    """Canonical content token of a spec, independent of its display name."""
    return spec.content()


def _default_profile(profile: str) -> SizeProfile:
    """Resolve a profile name against the default registry (parent side)."""
    from repro.api.registry import default_registry

    return default_registry().resolve_profile(profile)


class BatchCellError(Exception):
    """One cell of a batched task failed; the others may still be good.

    Carries the failing cell's position in the batch and the original
    error, so callers (the suite runner, the distributed worker) can
    surface the cell's real exception and retry or report the rest.  The
    ``(index, original)`` args keep the exception picklable across the
    process pool.
    """

    def __init__(self, index: int, original: BaseException) -> None:
        super().__init__(index, original)
        self.index = index
        self.original = original

    def __str__(self) -> str:
        return f"cell {self.index} of the batch failed: {self.original}"


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


def _simulate_spec(
    spec_dict: Dict[str, object],
    sizes: "SizeProfile",
    trace: Trace,
    track_per_pc: bool,
) -> SimulationResult:
    """Worker entry point: build a predictor from a spec dict and simulate."""
    predictor = _build_spec_predictor(spec_dict, sizes)
    return simulate(predictor, trace, track_per_pc=track_per_pc)


def _simulate_spec_batch(
    entries: Sequence[Tuple[Dict[str, object], "SizeProfile"]],
    trace: Trace,
    track_per_pc: bool,
) -> List[SimulationResult]:
    """Batched worker entry point: N same-trace cells, one traversal.

    ``entries`` holds one ``(spec dict, resolved SizeProfile)`` pair per
    cell; the returned results are positionally aligned with it and
    bit-identical to :func:`_simulate_spec` per cell.  A cell whose spec
    fails deterministically (bad name, bad override, bad geometry) raises
    :class:`BatchCellError` naming it, so the caller can drop that cell
    and keep the rest of the batch.
    """
    predictors = []
    for index, (spec_dict, sizes) in enumerate(entries):
        try:
            predictors.append(_build_spec_predictor(spec_dict, sizes))
        except Exception as error:
            raise BatchCellError(index, error) from error
    try:
        return simulate_many(predictors, trace, track_per_pc=track_per_pc)
    except (KeyError, TypeError, ValueError, AttributeError):
        # A deterministic failure mid-traversal cannot be attributed to a
        # cell from here (the batch shares one loop).  Re-run the cells
        # independently -- simulation is deterministic, so the culprit
        # fails again, this time with its identity attached.  Fresh
        # predictors are required: the batch traversal already mutated
        # the original instances.
        results = []
        for index, (spec_dict, sizes) in enumerate(entries):
            try:
                results.append(
                    _simulate_spec(spec_dict, sizes, trace, track_per_pc)
                )
            except Exception as error:
                raise BatchCellError(index, error) from error
        return results


def _timed_spec_batch(
    entries: Sequence[Tuple[Dict[str, object], "SizeProfile"]],
    trace: Trace,
    track_per_pc: bool,
) -> Tuple[List[SimulationResult], float]:
    """Pool task: :func:`_simulate_spec_batch` and its own wall in seconds.

    Timed inside the pool process, so the submitter can split the task's
    turnaround with :func:`_pool_phases`.
    """
    started = time.monotonic()
    results = _simulate_spec_batch(entries, trace, track_per_pc)
    return results, time.monotonic() - started


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

    Parameters
    ----------
    traces:
        The traces to evaluate on (typically one synthetic suite, or the
        concatenation of both).
    profile:
        Size profile passed to :func:`repro.predictors.composites.build_named`
        when a configuration is referenced by name.
    max_workers:
        When greater than 1, registry-named configurations are simulated in
        a process pool with this many workers; ``None`` or 1 keeps
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
        results.  Factory and builder-based runs have no content-addressed
        identity and bypass the store.
    backend:
        Execution backend for portable spec cells: ``None`` (default --
        ``"pool"`` when ``max_workers`` asks for one, ``"serial"``
        otherwise), the explicit strings ``"serial"`` / ``"pool"``, or an
        object with the :class:`~repro.dist.client.DistBackend` ``execute``
        signature to run cells on a cluster.  ``"serial"`` forces
        in-process simulation even when ``max_workers`` is set.
    progress:
        Optional ``(done, total)`` callable invoked as cells complete
        (simulated, loaded from the store, or already memoised) -- e.g. a
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
        if isinstance(batch, bool) or not isinstance(batch, int):
            raise TypeError(
                f"batch must be a positive int (batch=1 runs one cell per "
                f"task), got {batch!r}"
            )
        if batch < 1:
            raise ValueError(f"batch must be positive, got {batch}")
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
        #: (validity stamp, run) per key -- see ``_CacheKey``/``_CacheEntry``.
        self._cache: Dict[_CacheKey, _CacheEntry] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._progress_total = 0
        self._progress_done = 0
        self._progress_active = False

    def trace_names(self) -> List[str]:
        """Names of the traces the runner evaluates on."""
        return [trace.name for trace in self.traces]

    def _traces_digest(self) -> str:
        """Hash over the traces' content fingerprints (memo key component).

        Recomputed per lookup from the traces' cached fingerprints, so a
        trace mutated (or regenerated) in place changes the digest and the
        memo can never serve a run computed from the old content.
        """
        digest = hashlib.sha256()
        for trace in self.traces:
            digest.update(trace.fingerprint().encode("ascii"))
        return digest.hexdigest()

    def _pool_size(self) -> int:
        """Worker count of the local pool: ``max_workers``, else the CPUs."""
        return self.max_workers or os.cpu_count() or 1

    # ----------------------------------------------------------------- #
    # Progress accounting
    # ----------------------------------------------------------------- #
    #
    # One top-level run_spec/run_specs call owns a progress "session":
    # it fixes the cell total up front and every completed cell --
    # simulated, loaded from the store, or served from the memo --
    # advances the shared counter, so nested calls (run_specs delegating
    # to run_spec, the batch path) all report into one display.

    def _progress_begin(self, total: int) -> bool:
        if self.progress is None or self._progress_active:
            return False
        self._progress_active = True
        self._progress_total = total
        self._progress_done = 0
        self.progress(0, total)  # starts the display's clock
        return True

    def _progress_advance(self, cells: int = 1) -> None:
        if not self._progress_active or cells <= 0:
            return
        self._progress_done = min(
            self._progress_done + cells, self._progress_total
        )
        self.progress(self._progress_done, self._progress_total)

    def _progress_end(self, owned: bool) -> None:
        if owned:
            self._progress_active = False

    def run(
        self,
        configuration: str,
        factory: Optional[PredictorFactory] = None,
        track_per_pc: bool = False,
    ) -> ConfigurationRun:
        """Run ``configuration`` over every trace (memoised).

        ``factory`` overrides how the predictor is built; by default the
        configuration name is looked up in the composite registry (the
        call is equivalent to :meth:`run_spec` with a named spec, and
        shares its memoisation).  A fresh predictor instance is built per
        trace, as in the championship framework.  Factory runs are always
        in-process and are memoised on the factory's identity, so they
        never shadow registry results for the same name (nor each other).
        """
        if factory is None:
            from repro.api.specs import PredictorSpec

            return self.run_spec(
                PredictorSpec.from_named(configuration, profile=self.profile),
                track_per_pc,
            )
        key = (
            configuration, self.profile, bool(track_per_pc), 0, "factory",
            self._traces_digest(),
        )
        cached = self._cache.get(key)
        if cached is not None and cached[0] is factory:
            return cached[1]
        owned = self._progress_begin(len(self.traces))
        try:
            run = ConfigurationRun(configuration=configuration)
            for trace in self.traces:
                run.results.append(
                    simulate(factory(), trace, track_per_pc=track_per_pc)
                )
                self._progress_advance()
        finally:
            self._progress_end(owned)
        self._cache[key] = (factory, run)
        return run

    def _spec_key(
        self, spec: "PredictorSpec", track_per_pc: bool, uid: int
    ) -> _CacheKey:
        return (
            spec.label,
            str(spec.profile),
            bool(track_per_pc),
            uid,
            _spec_content(spec),
            self._traces_digest(),
        )

    def _cached_spec_run(
        self, key: _CacheKey, token: int
    ) -> Optional[ConfigurationRun]:
        cached = self._cache.get(key)
        if cached is not None and cached[0] == token:
            return cached[1]
        return None

    def _store_keys(
        self, resolved: "PredictorSpec", track_per_pc: bool, registry
    ) -> Optional[List[str]]:
        """Per-trace persistent-store keys for a resolved spec.

        ``None`` when the store does not apply: no store configured, the
        spec did not resolve to explicit options (builder-based specs have
        no content-addressed identity), or its profile name does not
        resolve (the subsequent build will raise the real error).
        """
        if self.store is None:
            return None
        if registry is None:
            from repro.api.registry import default_registry

            registry = default_registry()
        try:
            sizes = registry.resolve_profile(resolved.profile)
        except KeyError:
            return None
        return store_cell_keys(resolved, sizes, self.traces, track_per_pc)

    def _store_put(
        self,
        key: str,
        result: SimulationResult,
        resolved: "PredictorSpec",
        trace: Trace,
    ) -> None:
        """Best-effort persist: an unwritable store must not fail the run."""
        try:
            self.store.put(
                key,
                result,
                label=resolved.label,
                trace_fingerprint=trace.fingerprint(),
                spec=resolved.to_dict(),
            )
        except diskguard.DiskPressureError as error:
            # The run keeps its results in memory; warn once so a sweep
            # that silently produced an empty store is explicable.
            if self.store.writes_shed == 1:
                print(f"store: shedding result persists ({error})", file=sys.stderr)
        except (OSError, TypeError, ValueError):
            pass

    def run_spec(
        self,
        spec: "PredictorSpec",
        track_per_pc: bool = False,
        registry=None,
    ) -> ConfigurationRun:
        """Run a declarative :class:`~repro.api.specs.PredictorSpec`.

        The spec carries its own profile and overrides; results are
        memoised on the spec's label *and* content (see ``_CacheKey``), so
        same-label specs with different content never shadow each other,
        and :meth:`run`-style named callers share work with specs built
        via ``from_named`` (content is compared textually, so an
        options-based spec does not share with the equivalent named one).
        A registry mutation invalidates its entries (stale entries are
        replaced in place, so mutate-then-run cycles do not grow the
        cache).  Specs that resolve to explicit options are dispatched to
        the worker pool when one is configured (and no scoped ``registry``
        is in play); builder-based specs run in-process.
        """
        uid, token = _registry_identity(registry)
        key = self._spec_key(spec, track_per_pc, uid)
        cached = self._cached_spec_run(key, token)
        if cached is not None:
            return cached
        owned = self._progress_begin(len(self.traces))
        try:
            resolved = spec.resolve(registry)
            if registry is None and isinstance(resolved.base, CompositeOptions):
                run = self._run_batch_specs({spec.label: resolved}, track_per_pc)[
                    spec.label
                ]
            else:
                store_keys = self._store_keys(resolved, track_per_pc, registry)
                run = ConfigurationRun(configuration=spec.label)
                for index, trace in enumerate(self.traces):
                    result = (
                        self.store.get(store_keys[index]) if store_keys else None
                    )
                    if result is None:
                        simulate_started = time.monotonic()
                        result = simulate(
                            spec.build(registry), trace, track_per_pc=track_per_pc
                        )
                        simulate_seconds = time.monotonic() - simulate_started
                        store_seconds = None
                        if store_keys:
                            store_started = time.monotonic()
                            self._store_put(store_keys[index], result, resolved, trace)
                            store_seconds = time.monotonic() - store_started
                        if self.timings is not None:
                            phases = {"simulate": simulate_seconds}
                            if store_seconds is not None:
                                phases["store_write"] = store_seconds
                            self.timings.record(
                                backend="serial",
                                label=spec.label,
                                trace=trace.name,
                                phases=phases,
                            )
                    else:
                        # The stored cell may have been written under another
                        # display name for the same content.
                        result.predictor_name = spec.label
                    run.results.append(result)
                    self._progress_advance()
        finally:
            self._progress_end(owned)
            if self.timings is not None:
                self.timings.write_summary()
        self._cache[key] = (token, run)
        return run

    def run_specs(
        self,
        specs: Iterable["PredictorSpec"],
        track_per_pc: bool = False,
        registry=None,
    ) -> Dict[str, ConfigurationRun]:
        """Run several specs and return their runs keyed by label.

        Like :meth:`run_many`, all missing portable specs are dispatched to
        the process pool as one batch of ``(spec, trace)`` pairs.  Two
        different specs sharing one label would shadow each other in the
        returned dict, so that is rejected.
        """
        specs = list(specs)
        contents: Dict[str, str] = {}
        for spec in specs:
            content = _spec_content(spec)
            if contents.setdefault(spec.label, content) != content:
                raise ValueError(
                    f"two different specs share the label {spec.label!r}; "
                    "give one an explicit name"
                )
        owned = self._progress_begin(len(specs) * len(self.traces))
        try:
            # Cells of specs that are already memoised (or duplicated in
            # this call) complete instantly; count them up front so the
            # session total is honest.
            uid, token = _registry_identity(registry)
            instant = 0
            seen: set = set()
            for spec in specs:
                key = self._spec_key(spec, track_per_pc, uid)
                if (
                    self._cached_spec_run(key, token) is not None
                    or spec.label in seen
                ):
                    instant += len(self.traces)
                seen.add(spec.label)
            self._progress_advance(instant)
            if registry is None:
                batch: Dict[str, "PredictorSpec"] = {}
                keys: Dict[str, _CacheKey] = {}
                for spec in specs:
                    key = self._spec_key(spec, track_per_pc, uid)
                    if (
                        self._cached_spec_run(key, token) is not None
                        or spec.label in batch
                    ):
                        continue
                    resolved = spec.resolve(registry)
                    if isinstance(resolved.base, CompositeOptions):
                        batch[spec.label] = resolved
                        keys[spec.label] = key
                if batch:
                    for label, run in self._run_batch_specs(
                        batch, track_per_pc
                    ).items():
                        self._cache[keys[label]] = (token, run)
            return {
                spec.label: self.run_spec(spec, track_per_pc, registry=registry)
                for spec in specs
            }
        finally:
            self._progress_end(owned)
            if self.timings is not None:
                self.timings.write_summary()

    def _get_pool(self) -> ProcessPoolExecutor:
        """Worker pool, created on first use and reused across runs.

        Reusing the pool avoids paying process start-up once per
        configuration when experiments call :meth:`run` one configuration
        at a time.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._pool_size())
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (no-op when none was created)."""
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
        self, specs: Mapping[str, "PredictorSpec"], track_per_pc: bool
    ) -> Dict[str, ConfigurationRun]:
        """Fan every (resolved spec, trace) pair across the active backend.

        Profiles are resolved to :class:`SizeProfile` instances here, in
        the parent, so pool workers and remote backends never consult a
        registry for them (custom profiles survive the ``spawn`` start
        method and the wire protocol, and unknown profile names fail fast
        with a parent-side KeyError).

        With a persistent store, cells already on disk are filled in
        directly and only the misses are executed -- a fully stored batch
        never even touches the backend.
        """
        runs = {label: ConfigurationRun(configuration=label) for label in specs}
        slots: Dict[str, List[Optional[SimulationResult]]] = {
            label: [None] * len(self.traces) for label in specs
        }
        store_keys = {
            label: self._store_keys(spec, track_per_pc, None)
            for label, spec in specs.items()
        }
        pending: List[Tuple[str, int]] = []
        for label in specs:
            keys = store_keys[label]
            for index in range(len(self.traces)):
                cached = self.store.get(keys[index]) if keys else None
                if cached is not None:
                    cached.predictor_name = label
                    slots[label][index] = cached
                    self._progress_advance()
                else:
                    pending.append((label, index))
        if pending:
            sizes = {
                label: _default_profile(spec.profile)
                for label, spec in specs.items()
            }
            for (label, index), result, timing in self._execute_pending(
                specs, sizes, pending, track_per_pc
            ):
                keys = store_keys[label]
                store_seconds = None
                if keys:
                    store_started = time.monotonic()
                    self._store_put(
                        keys[index], result, specs[label], self.traces[index]
                    )
                    store_seconds = time.monotonic() - store_started
                if self.timings is not None and timing is not None:
                    phases = dict(timing["phases"])
                    if store_seconds is not None:
                        phases["store_write"] = store_seconds
                    self.timings.record(
                        backend=timing["backend"],
                        label=label,
                        trace=self.traces[index].name,
                        phases=phases,
                        batch=timing.get("batch", 1),
                    )
                slots[label][index] = result
        for label in specs:
            runs[label].results.extend(slots[label])
        return runs

    def _group_pending(
        self,
        pending: Sequence[Tuple[str, int]],
        use_pool: bool,
        specs: Optional[Mapping[str, "PredictorSpec"]] = None,
        sizes: Optional[Mapping[str, SizeProfile]] = None,
    ) -> List[Tuple[int, List[str]]]:
        """Chunk missing cells into same-trace ``(trace index, labels)`` groups.

        Cells sharing a trace share one traversal, so they are put in
        :func:`schedule_cells` order (trace-major, same-core cells
        adjacent) and chunked per trace at the batch ceiling, so that
        same-core cells land in the same chunk and
        :func:`~repro.sim.engine.simulate_many` can fan them out of one
        core; this is a scheduling hint only and never changes results.
        On the pool path the ceiling is additionally capped at a fair
        share of the pending cells for the pool's workers, so a grid over
        few traces still keeps every worker busy instead of serialising
        into a few giant tasks.  A fair share never splits a trace, so
        while it leaves fewer than two tasks per worker (say 3 traces of
        4 cells for 2 workers: 3 tasks, one worker doing two thirds of
        the work) each round halves every task at the core-key boundary
        nearest its middle -- never inside a same-key run, so no
        shared-core group is broken, and at most one round past the
        target, so a trace with many keys is not traversed once per key.
        The tasks are returned largest first for submission.
        """
        keys: Dict[str, str] = {}
        if specs is not None and sizes is not None:
            keys = {
                label: core_schedule_key(specs[label], sizes[label])
                for label in dict.fromkeys(label for label, _ in pending)
            }
        by_trace: Dict[int, List[str]] = {}
        for label, index in schedule_cells(
            (index, keys.get(label, ""), (label, index)) for label, index in pending
        ):
            by_trace.setdefault(index, []).append(label)
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
        while keys and len(groups) < 2 * workers:
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
        sizes: Mapping[str, SizeProfile],
        pending: Sequence[Tuple[str, int]],
        track_per_pc: bool,
    ) -> Iterable[Tuple[Tuple[str, int], SimulationResult, Optional[Dict[str, Any]]]]:
        """Yield ``((label, index), result, timing)`` for every missing cell.

        Dispatches to the backend object when one is set; otherwise
        same-trace cells are grouped into tasks of up to ``batch`` cells
        (one :func:`~repro.sim.engine.simulate_many` traversal each) and
        run in-process or, for more than one cell, across the local pool.
        Results are yielded as they become available so the caller
        persists completed cells incrementally (an interrupted sweep
        keeps what finished).

        ``timing`` is ``None`` (backend-object cells: the backend owns its
        own timing artifact) or ``{"backend", "phases", "batch"}`` with a
        measured ``simulate`` wall -- pool cells split their
        submit-to-result turnaround into ``simulate`` (timed inside the
        pool task) and ``queue_wait`` (the rest), and batched cells share
        one group wall across their ``batch`` cells.
        """
        backend = self.backend if not isinstance(self.backend, str) else None
        if backend is not None:
            last = 0

            def _advance_remote(done: int, total: int) -> None:
                nonlocal last
                self._progress_advance(done - last)
                last = done

            results = backend.execute(
                specs=specs,
                sizes=sizes,
                traces=self.traces,
                pending=list(pending),
                track_per_pc=track_per_pc,
                progress=_advance_remote,
            )
            for cell in pending:
                result = results.get(cell)
                if result is None:
                    label, index = cell
                    raise RuntimeError(
                        f"backend {getattr(backend, 'name', backend)!r} returned "
                        f"no result for cell ({label!r}, {self.traces[index].name})"
                    )
                yield cell, result, None
            return
        use_pool = len(pending) > 1 and (
            self.backend == "pool"
            or (self.backend is None and (self.max_workers or 1) > 1)
        )
        groups = self._group_pending(pending, use_pool, specs, sizes)
        if use_pool:
            pool = self._get_pool()
            batch_futures = {
                pool.submit(
                    _timed_spec_batch,
                    [(specs[label].to_dict(), sizes[label]) for label in labels],
                    self.traces[index],
                    track_per_pc,
                ): (index, labels, time.monotonic())
                for index, labels in groups
            }
            for future in as_completed(batch_futures):
                index, labels, submitted = batch_futures[future]
                results, simulate_seconds = self._batch_results(future.result)
                timing = {
                    "backend": "pool",
                    "phases": _pool_phases(
                        time.monotonic() - submitted, simulate_seconds
                    ),
                    "batch": len(labels),
                }
                for label, result in zip(labels, results):
                    self._progress_advance()
                    yield (label, index), result, timing
            return
        for index, labels in groups:
            entries = [(specs[label].to_dict(), sizes[label]) for label in labels]

            def _run(entries=entries, index=index):
                return _simulate_spec_batch(entries, self.traces[index], track_per_pc)

            group_started = time.monotonic()
            results = self._batch_results(_run)
            timing = {
                "backend": "serial",
                "phases": {"simulate": time.monotonic() - group_started},
                "batch": len(labels),
            }
            for label, result in zip(labels, results):
                self._progress_advance()
                yield (label, index), result, timing

    @staticmethod
    def _batch_results(run: Callable[[], _Item]) -> _Item:
        """Run one batched task, unwrapping a cell failure to its real error.

        The runner fails the whole run on the first bad cell (as the
        per-cell path did via ``future.result()``), so the cell's original
        exception -- not the :class:`BatchCellError` envelope -- is what
        callers see.
        """
        try:
            return run()
        except BatchCellError as error:
            raise error.original from error

    def run_many(
        self,
        configurations: Iterable[str],
        factories: Optional[Mapping[str, PredictorFactory]] = None,
        track_per_pc: bool = False,
    ) -> Dict[str, ConfigurationRun]:
        """Run several configurations and return them keyed by name.

        With ``max_workers`` set, all missing registry-named configurations
        are dispatched to the process pool as one batch of
        ``(configuration, trace)`` pairs, which keeps every worker busy even
        when individual configurations have fewer traces than workers.
        Configurations with custom factories run in-process.
        """
        from repro.api.specs import PredictorSpec

        factories = factories or {}
        configurations = list(configurations)
        named = [c for c in configurations if c not in factories]
        named_runs = self.run_specs(
            (PredictorSpec.from_named(c, profile=self.profile) for c in named),
            track_per_pc,
        )
        return {
            configuration: (
                named_runs[configuration]
                if configuration in named_runs
                else self.run(
                    configuration, factories[configuration], track_per_pc
                )
            )
            for configuration in configurations
        }

    def invalidate(self, configuration: Optional[str] = None) -> None:
        """Drop memoised results (all of them, or one configuration/label)."""
        if configuration is None:
            self._cache.clear()
        else:
            for key in [k for k in self._cache if k[0] == configuration]:
                del self._cache[key]
