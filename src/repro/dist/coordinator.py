"""The sweep coordinator: expands sweeps into cells and serves them to workers.

The coordinator owns the **scheduler state** of one or more sweep jobs: a
queue of pending ``(spec, trace)`` cells, the set of currently leased
cells, and the per-job result slots.  Workers connect over TCP
(:mod:`repro.dist.protocol`), lease cells one at a time, and upload one
:class:`~repro.sim.engine.SimulationResult` per cell; submitters connect
the same way, upload a whole sweep, and stream progress until the job is
done.

Fault tolerance is lease-based: a leased cell that neither completes nor
renews within ``lease_timeout`` seconds goes back to the front of the
queue, and all cells leased by a connection are requeued the moment that
connection dies.  Workers that understand renewal (the ``welcome`` frame
advertises it) send ``renew`` heartbeats while simulating, so a slow
cell's lease stays alive as long as its worker is -- requeue becomes a
*liveness* decision instead of an operator-guessed timeout race.  A cell
may still be simulated twice in rare races -- results are deterministic,
the first upload wins, and later duplicates are acknowledged but
ignored, so nothing is lost and nothing is counted twice.

A cell whose lease is lost ``max_lease_losses`` times (worker death or
expiry; default 3) is **quarantined** instead of requeued forever: the
job settles with that cell's attributed error while every unrelated
cell still completes.  This turns a poison cell -- one that reliably
kills whatever worker touches it -- from an infinite crash-loop into a
reported failure.

With a :class:`~repro.store.ResultStore` attached, cells already present
in the store are completed without ever being leased (checked at admit
time *and* again at lease time, so concurrent writers sharing the store
are honoured), and every uploaded result is persisted -- a killed
distributed sweep resumes exactly like ``repro sweep --resume``.  With a
:class:`~repro.dist.journal.CoordinatorJournal` attached as well, the
*jobs themselves* survive a coordinator crash: admitted jobs are
journalled durably before any cell is served, and a restarted
coordinator re-admits every unsettled one (leases treated as expired,
store-hits skipped as usual), so recovery is byte-identical to an
uninterrupted run.

Disk pressure degrades deliberately (:mod:`repro.common.diskguard`):
workers advertise ``low_disk`` in their hello/renew frames and the
coordinator stops granting them chunked-trace cells (whose chunks land
in the worker's spool) until the pressure clears, and new job
admissions are refused with one clear error while the store's own disk
is critical -- both surfaced as events and ``/metrics`` counters.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.specs import PredictorSpec
from repro.common import diskguard
from repro.dist import protocol
from repro.dist.journal import CoordinatorJournal
from repro.dist.protocol import ProtocolError
from repro.obs import default_registry, event_log_for, timing_log_for
from repro.sim.result import SimulationResult
from repro.sim.runner import (
    DEFAULT_BATCH_CELLS,
    ConfigurationRun,
    check_batch,
    plan_cells,
)
from repro.store import ResultStore, result_from_dict, result_to_dict
from repro.trace.chunked import ChunkedTrace, load_chunked_trace
from repro.trace.trace import Trace

__all__ = ["Coordinator", "SweepJob", "JobFailed"]


class JobFailed(RuntimeError):
    """A sweep job cannot complete (e.g. a cell's spec does not build)."""


@dataclass
class _Cell:
    """One schedulable ``(spec, trace)`` unit of work."""

    cell_id: int
    job: "SweepJob"
    label: str
    index: int
    spec_dict: Dict[str, Any]
    profile_payload: Dict[str, Any]
    trace_fingerprint: str
    trace_name: str
    store_key: Optional[str]
    #: Times this cell's lease was lost (expiry or worker death), with a
    #: human-readable reason per loss -- the quarantine retry budget.
    losses: int = 0
    loss_log: List[str] = field(default_factory=list)
    #: Monotonic stamp of the most recent lease grant (timing artifacts:
    #: the dist ``total`` phase is grant-to-accepted-upload).
    granted_at: Optional[float] = None

    def work_item(self) -> Dict[str, Any]:
        """The ``work`` frame payload workers receive."""
        return {
            "cell": self.cell_id,
            "label": self.label,
            "spec": self.spec_dict,
            "profile": self.profile_payload,
            "trace": self.trace_fingerprint,
            "trace_name": self.trace_name,
            "track_per_pc": self.job.track_per_pc,
            "store_key": self.store_key,
        }


@dataclass
class SweepJob:
    """One submitted sweep: its cells, result slots and completion state."""

    job_id: int
    labels: List[str]
    trace_names: List[str]
    track_per_pc: bool
    total: int = 0
    done: int = 0
    error: Optional[str] = None
    #: ``slots[label][index]`` is the cell's result once completed.
    slots: Dict[str, List[Optional[SimulationResult]]] = field(default_factory=dict)
    #: Poison cells: ``(label, trace index) -> attributed error``.  The
    #: job settles with these missing instead of requeueing them forever.
    quarantined: Dict[Tuple[str, int], str] = field(default_factory=dict)
    #: Degradation counters surfaced via progress frames / hooks.
    requeued: int = 0
    retried: int = 0
    _event: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def finished(self) -> bool:
        """Whether the job is settled (all cells done/quarantined, or failed)."""
        return self._event.is_set()

    def stats(self) -> Dict[str, int]:
        """Degradation counters (for progress displays and frames)."""
        return {
            "requeued": self.requeued,
            "retried": self.retried,
            "quarantined": len(self.quarantined),
        }

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job settles; ``False`` on timeout."""
        return self._event.wait(timeout)

    def completed_cells(self) -> List[Tuple[str, int, SimulationResult]]:
        """Every completed ``(label, trace index, result)`` cell."""
        return [
            (label, index, result)
            for label in self.labels
            for index, result in enumerate(self.slots[label])
            if result is not None
        ]

    def runs(self) -> Dict[str, ConfigurationRun]:
        """Per-label :class:`ConfigurationRun`, in submission order.

        Only meaningful for settled, fully populated jobs; raises
        :class:`JobFailed` when the job failed or cells are missing.
        """
        if self.error is not None:
            raise JobFailed(self.error)
        if self.quarantined:
            details = "; ".join(
                f"({label}, trace {index}): {message}"
                for (label, index), message in sorted(self.quarantined.items())
            )
            raise JobFailed(
                f"job {self.job_id}: {len(self.quarantined)} cell(s) "
                f"quarantined -- {details}"
            )
        runs: Dict[str, ConfigurationRun] = {}
        for label in self.labels:
            results = self.slots[label]
            if any(result is None for result in results):
                raise JobFailed(
                    f"job {self.job_id} is incomplete ({self.done}/{self.total} cells)"
                )
            runs[label] = ConfigurationRun(configuration=label, results=list(results))
        return runs


#: A lease: (owner connection id, expiry deadline in monotonic seconds).
_Lease = Tuple[int, float]


class Coordinator:
    """Serves sweep cells to workers over line-delimited JSON TCP.

    Parameters
    ----------
    host / port:
        Listen address; port 0 binds an ephemeral port (see
        :attr:`address` after :meth:`start`).
    store:
        Optional shared :class:`ResultStore`: already-present cells are
        never dispatched, uploaded results are persisted.
    lease_timeout:
        Seconds a leased cell may stay unfinished **without renewal**
        before it is requeued for another worker.  Renewing workers
        heartbeat well inside this, so for them it bounds how long a
        *dead* worker's cells stay stranded, not how long a cell may run.
    journal:
        Optional :class:`~repro.dist.journal.CoordinatorJournal` (or a
        path for one): admitted jobs are journalled durably and
        re-admitted by :meth:`start` after a crash (see
        :attr:`recovered_jobs`).
    max_lease_losses:
        Lease losses (expiry or worker death) a cell may suffer before
        it is quarantined with an attributed error instead of requeued.
    conn_idle_timeout:
        Seconds a connection may stay completely silent before it is
        presumed half-open and dropped (its leases requeue).  Defaults
        to ``max(60, 4 * lease_timeout)`` -- far above any healthy
        worker's frame cadence, renewal heartbeats included.
    batch:
        Ceiling on cells granted per lease request.  A worker asking for
        ``max_cells`` receives up to ``min(max_cells, batch)`` cells
        sharing one trace (and per-PC flag), so it can simulate them in
        one :func:`~repro.sim.engine.simulate_many` traversal.  ``1``
        disables lease batching (every grant is a single cell).
    progress:
        Optional ``(done, total)`` callable, invoked per completed cell
        of every job (e.g. a
        :class:`~repro.common.progress.ProgressPrinter`).
    log:
        Optional ``(message: str)`` callable for lifecycle events
        (connections, requeues, job completion).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store: Union[ResultStore, str, None, bool] = False,
        lease_timeout: float = 120.0,
        journal: Union[CoordinatorJournal, str, None] = None,
        max_lease_losses: int = 3,
        conn_idle_timeout: Optional[float] = None,
        batch: int = DEFAULT_BATCH_CELLS,
        progress: Optional[Callable[[int, int], None]] = None,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        check_batch(batch)
        if max_lease_losses < 1:
            raise ValueError(
                f"max_lease_losses must be positive, got {max_lease_losses}"
            )
        if conn_idle_timeout is not None and conn_idle_timeout <= 0:
            raise ValueError(
                f"conn_idle_timeout must be positive, got {conn_idle_timeout}"
            )
        self._host = host
        self._port = port
        self.store = ResultStore.resolve(store)
        self.lease_timeout = float(lease_timeout)
        self.journal = (
            journal
            if isinstance(journal, CoordinatorJournal) or journal is None
            else CoordinatorJournal(journal)
        )
        self.max_lease_losses = int(max_lease_losses)
        self.conn_idle_timeout = (
            float(conn_idle_timeout)
            if conn_idle_timeout is not None
            else max(60.0, 4.0 * self.lease_timeout)
        )
        self.batch = batch
        self.progress = progress
        self.log = log or (lambda message: None)
        #: Jobs re-admitted from the journal by :meth:`start`.
        self.recovered_jobs: List[SweepJob] = []
        #: Service-lifetime degradation counters (across all jobs).
        self.stats: Dict[str, int] = {"requeued": 0, "retried": 0, "quarantined": 0}

        # Observability (read-only over scheduler state; see repro.obs).
        # The store root anchors the event / timing artifacts; without a
        # store both are off and every hook below is a cheap no-op.
        store_root = self.store.root if self.store is not None else None
        self.metrics = default_registry()
        self.events = event_log_for(store_root, component="coordinator")
        self.timings = timing_log_for(store_root, component="coordinator")
        self.started_wall: Optional[float] = None
        self.started_mono: Optional[float] = None
        #: Cells completed service-wide, and a ring of recent completion
        #: stamps (monotonic) backing the sliding-window cells/s rate.
        self.cells_completed = 0
        self._completions: deque = deque(maxlen=4096)
        #: Live connections: conn id -> {name, role, connected stamps,
        #: last_seen, completed} for the /workers endpoint.
        self._conn_info: Dict[int, Dict[str, Any]] = {}
        self._metric_results = self.metrics.counter(
            "repro_results_accepted_total", "Results accepted from workers."
        )
        self._metric_duplicates = self.metrics.counter(
            "repro_results_duplicate_total",
            "Duplicate uploads acknowledged and dropped.",
        )
        self._metric_traces_served = self.metrics.counter(
            "repro_traces_served_total", "fetch_trace frames answered."
        )
        self._metric_chunks_served = self.metrics.counter(
            "repro_trace_chunks_served_total", "fetch_trace_chunk frames answered."
        )
        self._metric_connections = self.metrics.counter(
            "repro_connections_total", "TCP connections accepted."
        )
        self._metric_lease_shed = self.metrics.counter(
            "repro_lease_shed_low_disk_total",
            "Chunked-trace cells withheld from low_disk workers.",
        )
        self._metric_admits_shed = self.metrics.counter(
            "repro_jobs_shed_disk_critical_total",
            "Job admissions refused because the store disk was critical.",
        )

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._cells: Dict[int, _Cell] = {}
        self._pending: deque = deque()  # cell ids, FIFO across jobs
        self._leases: Dict[int, _Lease] = {}
        self._jobs: Dict[int, SweepJob] = {}
        self._traces: Dict[str, str] = {}  # fingerprint -> base64 payload
        #: Chunked traces by manifest fingerprint.  Chunks are read from
        #: disk per ``fetch_trace_chunk`` request, so a huge trace costs
        #: the coordinator one manifest of memory, never its records.
        self._chunked: Dict[str, ChunkedTrace] = {}
        self._cell_ids = itertools.count(1)
        self._job_ids = itertools.count(1)
        self._conn_ids = itertools.count(1)
        self._conn_names: Dict[int, str] = {}  # worker names, for attribution

        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._open_sockets: Dict[int, socket.socket] = {}
        self._stopping = threading.Event()

    # ----------------------------------------------------------------- #
    # Lifecycle
    # ----------------------------------------------------------------- #

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (only valid after :meth:`start`)."""
        if self._listener is None:
            raise RuntimeError("coordinator is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> Tuple[str, int]:
        """Bind, listen and serve in background threads; returns the address.

        With a journal attached, every admitted-but-unsettled job from a
        previous (crashed) coordinator is re-admitted first -- see
        :attr:`recovered_jobs` -- so its cells are served as soon as the
        listener is up.
        """
        if self._listener is not None:
            raise RuntimeError("coordinator is already started")
        self.started_wall = time.time()
        self.started_mono = time.monotonic()
        self._recover_journal()
        self._listener = socket.create_server(
            (self._host, self._port), reuse_port=False
        )
        self._listener.settimeout(0.2)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-dist-accept", daemon=True
        )
        self._accept_thread.start()
        self.log(f"coordinator listening on {self.address[0]}:{self.address[1]}")
        if self.events is not None:
            self.events.emit(
                "coordinator_started",
                host=self.address[0],
                port=self.address[1],
                recovered_jobs=len(self.recovered_jobs),
            )
        return self.address

    def _recover_journal(self) -> None:
        """Re-admit every unsettled journalled job (crash recovery)."""
        if self.journal is None:
            return
        records = self.journal.replay()
        if not records:
            return
        # Fresh admits must never reuse a journalled job id.
        self._job_ids = itertools.count(self.journal.max_job_id() + 1)
        superseded: List[int] = []
        for record in records:
            try:
                job = self._admit_remote(record)
            except (ProtocolError, ValueError, TypeError, KeyError) as error:
                self.log(
                    f"journal: cannot recover job {record.get('job')}: {error}"
                )
                continue
            self.recovered_jobs.append(job)
            superseded.append(int(record["job"]))
            self.log(
                f"journal: job {record['job']} recovered as job {job.job_id} "
                f"({job.done}/{job.total} cells already in store)"
            )
        # The re-admits are journalled under new ids; retire the old
        # records so a second crash does not recover the job twice.
        for job_id in superseded:
            self.journal.record_settled(job_id)
        self.journal.compact()

    def shutdown(self, graceful: bool = True, grace: float = 2.0) -> None:
        """Stop serving: close the listener and every open connection.

        Graceful shutdown (the default) first lets worker connections
        drain naturally -- their next ``lease`` is answered with a
        ``shutdown`` frame, so workers exit cleanly instead of seeing the
        socket die and entering their reconnect loop.  ``graceful=False``
        slams every socket shut immediately; tests use it to simulate a
        coordinator crash.
        """
        self._stopping.set()
        with self._cond:
            self._cond.notify_all()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if graceful and grace > 0:
            deadline = time.monotonic() + grace
            for thread in list(self._conn_threads):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                thread.join(timeout=remaining)
        with self._lock:
            sockets = list(self._open_sockets.values())
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        if graceful:
            for thread in list(self._conn_threads):
                thread.join(timeout=5)
        if self.journal is not None:
            self.journal.close()
        if self.timings is not None:
            self.timings.write_summary()
        if self.events is not None:
            self.events.emit("coordinator_stopped", cells_completed=self.cells_completed)

    def __enter__(self) -> "Coordinator":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ----------------------------------------------------------------- #
    # Job admission
    # ----------------------------------------------------------------- #

    def submit(
        self,
        specs: Sequence[PredictorSpec],
        traces: Sequence[Trace],
        track_per_pc: bool = False,
        registry=None,
        cells: Optional[Sequence[Tuple[str, int]]] = None,
    ) -> SweepJob:
        """Admit a sweep directly (in-process; ``repro serve`` and tests).

        Specs are resolved against ``registry`` exactly like the local
        runner resolves them, so store keys -- and therefore resume
        behaviour -- match ``repro sweep --store`` byte for byte.
        ``cells`` optionally restricts the job to a subset of
        ``(label, trace index)`` pairs.

        Traces may be monolithic :class:`Trace` objects (shipped to
        workers as one base64 frame; a trace over the frame cap raises the
        actionable :class:`ProtocolError` from
        :func:`~repro.dist.protocol.encode_trace`) or
        :class:`~repro.trace.chunked.ChunkedTrace` objects, which workers
        fetch chunk by chunk -- store keys use the manifest fingerprint,
        identical to local streaming simulation.
        """
        if registry is None:
            from repro.api.registry import default_registry

            registry = default_registry()
        entries = []
        for spec in specs:
            resolved = spec.resolve(registry)
            entries.append(
                protocol.spec_entry(
                    spec.label, resolved, registry.resolve_profile(resolved.profile)
                )
            )
        payloads: Dict[str, str] = {}
        chunked: Dict[str, ChunkedTrace] = {}
        for trace in traces:
            if getattr(trace, "iter_chunks", None) is not None:
                chunked[trace.fingerprint()] = trace
            else:
                payloads[trace.fingerprint()] = protocol.encode_trace(trace)
        return self._admit(
            entries, list(traces), payloads, track_per_pc, cells, chunked
        )

    def _admit(
        self,
        entries: Sequence[Dict[str, Any]],
        traces: Sequence[Trace],
        trace_payloads: Dict[str, str],
        track_per_pc: bool,
        cells: Optional[Sequence[Tuple[str, int]]] = None,
        chunked: Optional[Dict[str, ChunkedTrace]] = None,
    ) -> SweepJob:
        """Expand spec entries x traces into cells and enqueue them.

        Refuses up front (with one actionable error) while the store's
        disk is critically low: admitting a sweep whose every result
        write would fail only converts disk exhaustion into thousands
        of store errors downstream.  The cells are planned
        (:func:`~repro.sim.runner.plan_cells`: store probe and scheduling
        order) before the scheduler lock is taken, so a large admission
        never stalls lease grants on store reads.
        """
        if self.store is not None:
            try:
                diskguard.check_writable(self.store.root, what="new job admission")
            except diskguard.DiskPressureError as error:
                self._metric_admits_shed.inc()
                self.log(f"job admission shed: {error}")
                if self.events is not None:
                    self.events.emit(
                        "job_shed_disk_critical",
                        store=str(self.store.root),
                        free_bytes=error.free,
                    )
                raise ValueError(str(error)) from None
        labels = [str(entry["label"]) for entry in entries]
        if len(set(labels)) != len(labels):
            raise ValueError("two specs share a label; give one an explicit name")
        wanted: Optional[set] = None
        if cells is not None:
            wanted = {(str(label), int(index)) for label, index in cells}
            for label, index in wanted:
                if label not in labels or not 0 <= index < len(traces):
                    raise ValueError(f"unknown cell ({label!r}, {index})")
        hits, pending = plan_cells(
            {
                label: PredictorSpec.from_dict(entry["spec"])  # validates
                for label, entry in zip(labels, entries)
            },
            {
                label: protocol.profile_from_payload(entry["profile"])
                for label, entry in zip(labels, entries)
            },
            traces,
            bool(track_per_pc),
            self.store,
            wanted,
        )
        with self._cond:
            job = SweepJob(
                job_id=next(self._job_ids),
                labels=labels,
                trace_names=[trace.name for trace in traces],
                track_per_pc=bool(track_per_pc),
                slots={label: [None] * len(traces) for label in labels},
            )
            self._jobs[job.job_id] = job
            self._traces.update(trace_payloads)
            if chunked:
                self._chunked.update(chunked)
            if self.journal is not None:
                # Durable before any cell is served: a crash after this
                # point recovers the job, byte-identical.  Chunked traces
                # are journalled by manifest directory (their bytes
                # already live durably on disk), monolithic ones inline.
                def _journal_trace(trace: Trace) -> Any:
                    fingerprint = trace.fingerprint()
                    if chunked and fingerprint in chunked:
                        return {"chunked": str(chunked[fingerprint].directory)}
                    return trace_payloads[fingerprint]

                try:
                    self.journal.record_admit(
                        job.job_id,
                        {
                            "protocol": protocol.PROTOCOL_VERSION,
                            "track_per_pc": bool(track_per_pc),
                            "specs": [dict(entry) for entry in entries],
                            "traces": [
                                _journal_trace(trace) for trace in traces
                            ],
                            "cells": (
                                sorted([label, index] for label, index in wanted)
                                if wanted is not None
                                else None
                            ),
                        },
                    )
                except OSError as error:
                    self.log(f"journal: cannot record job admission: {error}")
            # Cell ids follow submission (label-major) order.
            order = {label: position for position, label in enumerate(labels)}
            made: Dict[Tuple[str, int], _Cell] = {}
            for planned in sorted(
                [planned for planned, _ in hits] + pending,
                key=lambda planned: (order[planned.label], planned.index),
            ):
                entry = entries[order[planned.label]]
                trace = traces[planned.index]
                cell = _Cell(
                    cell_id=next(self._cell_ids),
                    job=job,
                    label=planned.label,
                    index=planned.index,
                    spec_dict=entry["spec"],
                    profile_payload=entry["profile"],
                    trace_fingerprint=trace.fingerprint(),
                    trace_name=trace.name,
                    store_key=planned.store_key,
                )
                self._cells[cell.cell_id] = cell
                made[planned.label, planned.index] = cell
            job.total = len(made)
            # Enqueue in scheduling order, so trace-affinity lease grants
            # hand workers same-core cells that ``simulate_many`` can fan
            # out of one core.
            self._pending.extend(
                made[planned.label, planned.index].cell_id for planned in pending
            )
            self.log(
                f"job {job.job_id}: {job.total} cell(s) over {len(labels)} spec(s) "
                f"x {len(traces)} trace(s)"
                + (f", {len(hits)} already in store" if hits else "")
            )
            if self.events is not None:
                self.events.emit(
                    "job_admitted",
                    job=job.job_id,
                    cells=job.total,
                    specs=len(labels),
                    traces=len(traces),
                    prefilled=len(hits),
                )
            for planned, stored in hits:
                self._complete_locked(
                    made[planned.label, planned.index], stored, persist=False
                )
            self._cond.notify_all()
            return job

    # ----------------------------------------------------------------- #
    # Scheduler core (all under self._lock)
    # ----------------------------------------------------------------- #

    def _reap_expired_locked(self) -> None:
        now = time.monotonic()
        expired = [
            (cell_id, owner)
            for cell_id, (owner, deadline) in self._leases.items()
            if deadline <= now
        ]
        for cell_id, owner in expired:
            del self._leases[cell_id]
            name = self._conn_names.get(owner, f"connection {owner}")
            self._lose_lease_locked(
                cell_id, f"lease expired on worker {name!r} (no renewal)"
            )

    def _lose_lease_locked(self, cell_id: int, reason: str) -> None:
        """A lease was lost: requeue the cell, or quarantine it when its
        retry budget (``max_lease_losses``) is spent."""
        cell = self._cells.get(cell_id)
        if cell is None or cell.job.finished:
            return
        if cell.job.slots[cell.label][cell.index] is not None:
            return  # completed by another upload; nothing was lost
        cell.losses += 1
        cell.loss_log.append(reason)
        if cell.losses >= self.max_lease_losses:
            self._quarantine_locked(cell)
            return
        cell.job.requeued += 1
        self.stats["requeued"] += 1
        self._pending.appendleft(cell_id)
        self.log(
            f"cell {cell_id} ({cell.label} / {cell.trace_name}): {reason}; "
            f"requeued (loss {cell.losses}/{self.max_lease_losses})"
        )
        if self.events is not None:
            self.events.emit(
                "cell_requeued",
                cell=cell_id,
                job=cell.job.job_id,
                label=cell.label,
                trace=cell.trace_name,
                losses=cell.losses,
                reason=reason,
            )
        self._notify_progress_locked(cell.job)

    def _quarantine_locked(self, cell: _Cell) -> None:
        """Retry budget exhausted: park the cell with its attributed error."""
        job = cell.job
        history = "; ".join(cell.loss_log)
        message = (
            f"quarantined after {cell.losses} lost lease(s) "
            f"[{history}] -- the cell likely crashes or stalls every "
            f"worker that runs it"
        )
        job.quarantined[(cell.label, cell.index)] = message
        self.stats["quarantined"] += 1
        self.log(
            f"cell {cell.cell_id} ({cell.label} / {cell.trace_name}): {message}"
        )
        if self.events is not None:
            self.events.emit(
                "cell_quarantined",
                cell=cell.cell_id,
                job=job.job_id,
                label=cell.label,
                trace=cell.trace_name,
                losses=cell.losses,
            )
        self._notify_progress_locked(job)
        if job.done + len(job.quarantined) >= job.total:
            self.log(
                f"job {job.job_id}: settled with "
                f"{len(job.quarantined)} quarantined cell(s)"
            )
            self._settle_locked(job)

    def _settle_locked(self, job: SweepJob) -> None:
        """Mark a job settled (complete, failed or quarantine-settled)."""
        job._event.set()
        if self.events is not None:
            self.events.emit(
                "job_settled",
                job=job.job_id,
                done=job.done,
                total=job.total,
                error=job.error,
                quarantined=len(job.quarantined),
            )
        if self.journal is not None:
            try:
                self.journal.record_settled(job.job_id)
            except OSError as error:
                self.log(f"journal: cannot record job settlement: {error}")
        self._cond.notify_all()

    def _notify_progress_locked(self, job: SweepJob) -> None:
        """Invoke the progress hook; stats-aware hooks (``stats_aware``
        attribute, e.g. :class:`~repro.common.progress.ProgressPrinter`)
        additionally receive requeue/retry/quarantine counters."""
        if self.progress is None:
            return
        if getattr(self.progress, "stats_aware", False):
            self.progress(job.done, job.total, stats=job.stats())
        else:
            self.progress(job.done, job.total)

    def _renew(self, owner: int, cell_ids: Sequence[int]) -> Tuple[List[int], List[int]]:
        """Extend the leases ``owner`` still holds; the second list is the
        cells it no longer does (expired and requeued, or completed by a
        faster upload) so the worker can stop renewing them."""
        renewed: List[int] = []
        lost: List[int] = []
        with self._cond:
            self._reap_expired_locked()
            deadline = time.monotonic() + self.lease_timeout
            for cell_id in cell_ids:
                lease = self._leases.get(cell_id)
                if lease is not None and lease[0] == owner:
                    self._leases[cell_id] = (owner, deadline)
                    renewed.append(cell_id)
                else:
                    lost.append(cell_id)
        return renewed, lost

    def _lease(self, owner: int, max_cells: int = 1) -> Tuple[str, List[_Cell]]:
        """One scheduling decision: ``("work", cells)``, ``("wait", [])``
        or ``("shutdown", [])``.

        With ``max_cells > 1`` the grant has **trace affinity**: after the
        first leasable cell anchors the grant, up to
        ``min(max_cells, batch) - 1`` more pending cells sharing its trace
        fingerprint and per-PC flag are leased in the same grant (queue
        order preserved for the rest), so the worker simulates the whole
        grant over one decoded trace in one batched traversal.  The lease
        deadline scales with the grant: an N-cell grant only uploads after
        one shared traversal of roughly N cells' work, so every cell in it
        gets ``N * lease_timeout`` -- ``lease_timeout`` keeps meaning "time
        budget per cell", independent of batching.
        """
        limit = max(1, min(int(max_cells), self.batch))
        with self._cond:
            if self._stopping.is_set():
                return ("shutdown", [])
            self._reap_expired_locked()
            owner_info = self._conn_info.get(owner)
            low_disk = bool(owner_info and owner_info.get("low_disk"))
            shed = 0
            granted: List[_Cell] = []
            anchor: Optional[Tuple[str, bool]] = None
            passed_over: List[int] = []
            while self._pending and len(granted) < limit:
                cell_id = self._pending.popleft()
                cell = self._cells.get(cell_id)
                if cell is None:  # job released after settling
                    continue
                if cell.job.finished:  # failed job: drop its queued cells
                    continue
                if cell.job.slots[cell.label][cell.index] is not None:
                    continue  # completed while queued (duplicate requeue)
                if low_disk and cell.trace_fingerprint in self._chunked:
                    # This worker's spool disk is low: chunked-trace cells
                    # (whose chunks land in that spool) are withheld until
                    # its renew frames report the pressure cleared.  The
                    # cell stays queued for any other worker.
                    passed_over.append(cell_id)
                    shed += 1
                    continue
                affinity = (cell.trace_fingerprint, cell.job.track_per_pc)
                if anchor is not None and affinity != anchor:
                    # A different trace: not part of this grant.  Skipped
                    # cells go back to the queue front afterwards -- the
                    # store check below is deliberately not run for them
                    # (one disk probe per *granted* cell, not per scan).
                    passed_over.append(cell_id)
                    continue
                # Planned store keys exist only with a store.
                stored = (
                    self.store.get(cell.store_key) if cell.store_key is not None else None
                )
                if stored is not None:  # a concurrent writer beat us to it
                    self._complete_locked(cell, stored, persist=False)
                    continue
                anchor = affinity
                granted.append(cell)
            for cell_id in reversed(passed_over):
                self._pending.appendleft(cell_id)
            if shed:
                self._metric_lease_shed.inc(shed)
                if owner_info is not None and not owner_info.get("shed_logged"):
                    # One event per low-disk episode, not per 0.25s poll.
                    owner_info["shed_logged"] = True
                    name = self._conn_names.get(owner, f"connection {owner}")
                    self.log(
                        f"worker {name!r}: withholding chunked-trace cells "
                        f"(low disk)"
                    )
                    if self.events is not None:
                        self.events.emit(
                            "lease_shed_low_disk", worker=name, cells=shed
                        )
            if granted:
                now = time.monotonic()
                deadline = now + self.lease_timeout * len(granted)
                for cell in granted:
                    self._leases[cell.cell_id] = (owner, deadline)
                    cell.granted_at = now
                    if cell.losses:
                        cell.job.retried += 1
                        self.stats["retried"] += 1
                return ("work", granted)
            return ("wait", [])

    def _complete(
        self,
        cell_id: int,
        result: SimulationResult,
        owner: int,
        timings: Optional[Dict[str, Any]] = None,
        batch: Any = 1,
    ) -> bool:
        """Accept an uploaded result; ``False`` when it was a duplicate.

        ``timings``/``batch`` mirror the additive keys a worker may attach
        to its result frame (worker-measured phase walls); accepted cells
        are recorded into the dist timing artifact with a coordinator-side
        ``total`` (lease grant to accepted upload) added.
        """
        record: Optional[Dict[str, Any]] = None
        with self._cond:
            cell = self._cells.get(cell_id)
            if cell is None:
                return False
            self._leases.pop(cell_id, None)
            if cell.job.slots[cell.label][cell.index] is not None:
                self._metric_duplicates.inc()
                return False  # first upload won; drop the duplicate
            # Counted before _complete_locked can settle the job, so a
            # waiter woken by the settle sees it in /workers.
            info = self._conn_info.get(owner)
            if info is not None:
                info["completed"] += 1
            accepted = self._complete_locked(cell, result)
            if accepted:
                self._metric_results.inc()
                if self.timings is not None:
                    phases = {
                        str(name): float(value)
                        for name, value in (timings or {}).items()
                        if isinstance(value, (int, float))
                    }
                    if cell.granted_at is not None:
                        phases["total"] = max(
                            0.0, time.monotonic() - cell.granted_at
                        )
                    if phases:
                        record = {
                            "label": cell.label,
                            "trace": cell.trace_name,
                            "phases": phases,
                            "batch": batch if isinstance(batch, int) and batch >= 1 else 1,
                            # From the uploaded result: the frame is unchanged.
                            "branches": result.conditional_branches,
                        }
        # The artifact write happens outside the scheduler lock: a slow
        # disk must never stall lease grants or renewals.
        if record is not None:
            self.timings.record(backend="dist", **record)
        return accepted

    def _complete_locked(
        self, cell: _Cell, result: SimulationResult, persist: bool = True
    ) -> bool:
        # Stored cells may carry the display name of whichever run wrote
        # them; results are normalised to this sweep's label.
        result.predictor_name = cell.label
        cell.job.slots[cell.label][cell.index] = result
        cell.job.done += 1
        self.cells_completed += 1
        self._completions.append(time.monotonic())
        # A late result for a not-yet-settled quarantined cell un-poisons
        # it -- a real result always beats an attributed failure.
        cell.job.quarantined.pop((cell.label, cell.index), None)
        if persist and cell.store_key is not None:
            self.store.persist(
                cell.store_key,
                result,
                label=cell.label,
                trace_fingerprint=cell.trace_fingerprint,
                spec=cell.spec_dict,
                warn=lambda message: self._warn_shed(message, cell.store_key),
            )
        self._notify_progress_locked(cell.job)
        if cell.job.done + len(cell.job.quarantined) >= cell.job.total:
            self.log(f"job {cell.job.job_id}: complete ({cell.job.done} cells)")
            self._settle_locked(cell.job)
        self._cond.notify_all()
        return True

    def _warn_shed(self, message: str, key: str) -> None:
        """One log line and one event for the first shed store persist."""
        self.log(message)
        if self.events is not None:
            self.events.emit("store_write_shed_disk_critical", key=key)

    def _fail_job(self, cell_id: int, message: str) -> None:
        """A cell is unbuildable: the whole job fails fast."""
        with self._cond:
            cell = self._cells.get(cell_id)
            if cell is None or cell.job.finished:
                return
            if cell.job.slots[cell.label][cell.index] is not None:
                return  # a stale failure for a cell another worker completed
            self._leases.pop(cell_id, None)
            job = cell.job
            job.error = (
                f"cell {cell_id} ({cell.label} / {cell.trace_name}) failed: {message}"
            )
            self.log(f"job {job.job_id}: failed -- {job.error}")
            self._settle_locked(job)

    def release_job(self, job: SweepJob) -> None:
        """Drop a settled job's scheduler state (a long-lived service must
        not grow with every job it has ever served).

        The job object itself — its slots, :meth:`SweepJob.runs` — stays
        valid for the caller; only the coordinator's cell map, leases and
        now-unreferenced trace payloads are pruned.  Submitter
        connections call this after answering; ``repro serve`` sweeps
        exit anyway.
        """
        with self._cond:
            self._jobs.pop(job.job_id, None)
            released = [
                cell_id for cell_id, cell in self._cells.items()
                if cell.job is job
            ]
            for cell_id in released:
                del self._cells[cell_id]
                self._leases.pop(cell_id, None)
            live = {cell.trace_fingerprint for cell in self._cells.values()}
            for fingerprint in [fp for fp in self._traces if fp not in live]:
                del self._traces[fingerprint]
            for fingerprint in [fp for fp in self._chunked if fp not in live]:
                del self._chunked[fingerprint]
            self._cond.notify_all()

    def _release_owner(self, owner: int) -> None:
        """Requeue (or quarantine) every cell the dead connection held."""
        with self._cond:
            held = [
                cell_id for cell_id, (held_by, _) in self._leases.items()
                if held_by == owner
            ]
            name = self._conn_names.pop(owner, f"connection {owner}")
            for cell_id in held:
                del self._leases[cell_id]
                self._lose_lease_locked(
                    cell_id, f"worker {name!r} died mid-lease"
                )
            if held:
                self.log(
                    f"worker {name!r} died holding {len(held)} lease(s)"
                )
            self._cond.notify_all()

    # ----------------------------------------------------------------- #
    # Status snapshots (read-only; served by repro.obs.http)
    # ----------------------------------------------------------------- #

    def _touch(self, conn_id: int) -> None:
        """Stamp a connection's last-seen time (any inbound frame)."""
        with self._lock:
            info = self._conn_info.get(conn_id)
            if info is not None:
                info["last_seen"] = time.monotonic()

    def _rate_locked(self, now: float, window: float = 60.0) -> float:
        """Recent completion rate: cells/s over at most ``window`` seconds
        of the completion ring (0.0 with fewer than two samples)."""
        stamps = [stamp for stamp in self._completions if now - stamp <= window]
        if len(stamps) < 2:
            return 0.0
        span = stamps[-1] - stamps[0]
        if span <= 1e-9:
            return 0.0
        return (len(stamps) - 1) / span

    def status_snapshot(self) -> Dict[str, Any]:
        """One JSON-safe view of overall service state (``/status``)."""
        now = time.monotonic()
        with self._lock:
            jobs_total = len(self._jobs)
            jobs_active = sum(
                1 for job in self._jobs.values() if not job.finished
            )
            cells_total = sum(job.total for job in self._jobs.values())
            cells_done = sum(job.done for job in self._jobs.values())
            rate = self._rate_locked(now)
            snapshot = {
                "uptime_seconds": (
                    now - self.started_mono if self.started_mono is not None else None
                ),
                "started": self.started_wall,
                "protocol": protocol.PROTOCOL_VERSION,
                "jobs_total": jobs_total,
                "jobs_active": jobs_active,
                "cells_total": cells_total,
                "cells_done": cells_done,
                "cells_pending": len(self._pending),
                "cells_leased": len(self._leases),
                "cells_completed_lifetime": self.cells_completed,
                "cells_per_second": rate,
                "eta_seconds": (
                    (cells_total - cells_done) / rate
                    if rate > 0 and cells_total > cells_done
                    else None
                ),
                "stats": dict(self.stats),
                "workers": sum(
                    1
                    for info in self._conn_info.values()
                    if info["role"] == "worker"
                ),
                "workers_low_disk": sum(
                    1
                    for info in self._conn_info.values()
                    if info["role"] == "worker" and info.get("low_disk")
                ),
                "connections": len(self._conn_info),
                "store": str(self.store.root) if self.store is not None else None,
            }
        return snapshot

    def jobs_snapshot(self) -> List[Dict[str, Any]]:
        """Per-job progress records (``/jobs``), in admission order."""
        with self._lock:
            return [
                {
                    "job": job.job_id,
                    "total": job.total,
                    "done": job.done,
                    "finished": job.finished,
                    "error": job.error,
                    "requeued": job.requeued,
                    "retried": job.retried,
                    "quarantined": len(job.quarantined),
                    "labels": list(job.labels),
                    "traces": len(job.trace_names),
                    "track_per_pc": job.track_per_pc,
                }
                for job in sorted(self._jobs.values(), key=lambda j: j.job_id)
            ]

    def workers_snapshot(self) -> List[Dict[str, Any]]:
        """Per-connection worker health (``/workers``): lease counts,
        cells completed over this connection, seconds since last frame."""
        now = time.monotonic()
        with self._lock:
            leases_by_owner: Dict[int, int] = {}
            for owner, _ in self._leases.values():
                leases_by_owner[owner] = leases_by_owner.get(owner, 0) + 1
            return [
                {
                    "connection": conn_id,
                    "name": info["name"],
                    "connected_seconds": now - info["connected_mono"],
                    "last_seen_seconds": now - info["last_seen"],
                    "leases": leases_by_owner.get(conn_id, 0),
                    "completed": info["completed"],
                    "low_disk": bool(info.get("low_disk")),
                }
                for conn_id, info in sorted(self._conn_info.items())
                if info["role"] == "worker"
            ]

    # ----------------------------------------------------------------- #
    # Connection handling
    # ----------------------------------------------------------------- #

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by shutdown()
            # Bounded idle timeout: a half-open peer (silent but never
            # closing) times out the blocking read and is dropped like a
            # dead connection, instead of pinning this thread forever.
            sock.settimeout(self.conn_idle_timeout)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn_id = next(self._conn_ids)
            now = time.monotonic()
            with self._lock:
                self._open_sockets[conn_id] = sock
                self._conn_info[conn_id] = {
                    "name": f"conn-{conn_id}",
                    "role": "unknown",
                    "connected_mono": now,
                    "last_seen": now,
                    "completed": 0,
                    "low_disk": False,
                }
            self._metric_connections.inc()
            self._conn_threads = [
                thread for thread in self._conn_threads if thread.is_alive()
            ]
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn_id, sock),
                name=f"repro-dist-conn-{conn_id}",
                daemon=True,
            )
            self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn_id: int, sock: socket.socket) -> None:
        rfile = sock.makefile("rb")
        wfile = sock.makefile("wb")
        try:
            try:
                frame = protocol.read_frame(rfile)
            except ProtocolError as error:
                self._send_error(wfile, str(error))
                return
            if frame is None:
                return
            if frame["type"] == "hello":
                self._serve_worker(conn_id, frame, rfile, wfile)
            elif frame["type"] == "submit":
                self._serve_submitter(conn_id, frame, wfile)
            else:
                self._send_error(
                    wfile, f"expected hello or submit, got {frame['type']!r}"
                )
        finally:
            self._release_owner(conn_id)
            with self._lock:
                self._open_sockets.pop(conn_id, None)
                self._conn_info.pop(conn_id, None)
            for stream in (wfile, rfile):
                try:
                    stream.close()
                except OSError:
                    pass
            try:
                sock.close()
            except OSError:
                pass

    def _send_error(self, wfile, message: str) -> None:
        try:
            protocol.write_frame(wfile, {"type": "error", "message": message})
        except (ProtocolError, OSError, ValueError):
            pass  # best effort: the peer may already be gone

    def _serve_worker(self, conn_id: int, hello: Dict[str, Any], rfile, wfile) -> None:
        if hello.get("protocol") != protocol.PROTOCOL_VERSION:
            self._send_error(
                wfile,
                f"protocol mismatch: coordinator speaks "
                f"{protocol.PROTOCOL_VERSION}, worker sent {hello.get('protocol')!r}",
            )
            return
        worker_name = str(hello.get("worker") or f"conn-{conn_id}")
        # "low_disk" is an additive version-1 hello/renew key; absent
        # means a pre-diskguard worker (treated as having headroom).
        low_disk = bool(hello.get("low_disk"))
        with self._lock:
            self._conn_names[conn_id] = worker_name
            info = self._conn_info.get(conn_id)
            if info is not None:
                info["name"] = worker_name
                info["role"] = "worker"
                info["low_disk"] = low_disk
        self.log(f"worker {worker_name} connected (connection {conn_id})")
        if self.events is not None:
            self.events.emit(
                "worker_connected",
                worker=worker_name,
                connection=conn_id,
                low_disk=low_disk,
            )
            if low_disk:
                self.events.emit(
                    "worker_low_disk", worker=worker_name, low_disk=True
                )
        protocol.write_frame(
            wfile,
            {
                "type": "welcome",
                "protocol": protocol.PROTOCOL_VERSION,
                "lease_timeout": self.lease_timeout,
                # Additive capability flag: workers that understand it
                # heartbeat with "renew" frames; older workers ignore it.
                "renew": True,
            },
        )
        try:
            while True:
                frame = protocol.read_frame(rfile)
                if frame is None:
                    break
                self._touch(conn_id)
                kind = frame["type"]
                if kind == "lease":
                    if self._stopping.is_set():
                        # Graceful shutdown: tell the worker instead of
                        # slamming the socket, so it exits rather than
                        # entering its reconnect loop.
                        protocol.write_frame(wfile, {"type": "shutdown"})
                        break
                    max_cells = frame.get("max_cells", 1)
                    if not isinstance(max_cells, int) or max_cells < 1:
                        max_cells = 1
                    state, cells = self._lease(conn_id, max_cells)
                    if state == "work":
                        if "max_cells" in frame:
                            # A batching worker asked; it understands the
                            # multi-cell grant shape.
                            protocol.write_frame(
                                wfile,
                                {
                                    "type": "work",
                                    "items": [cell.work_item() for cell in cells],
                                },
                            )
                        else:
                            protocol.write_frame(
                                wfile, {"type": "work", "item": cells[0].work_item()}
                            )
                    elif state == "wait":
                        protocol.write_frame(wfile, {"type": "wait", "delay": 0.25})
                    else:
                        protocol.write_frame(wfile, {"type": "shutdown"})
                        break
                elif kind == "renew":
                    cell_ids = frame.get("cells")
                    if not isinstance(cell_ids, list) or not all(
                        isinstance(cell_id, int) for cell_id in cell_ids
                    ):
                        raise ProtocolError("renew frame needs a 'cells' id list")
                    if "low_disk" in frame:
                        # Heartbeat refresh of the worker's disk state;
                        # transitions are logged once per episode.
                        low_disk = bool(frame.get("low_disk"))
                        changed = False
                        with self._lock:
                            info = self._conn_info.get(conn_id)
                            if info is not None and info["low_disk"] != low_disk:
                                info["low_disk"] = low_disk
                                info["shed_logged"] = False
                                changed = True
                        if changed:
                            self.log(
                                f"worker {worker_name}: low_disk -> {low_disk}"
                            )
                            if self.events is not None:
                                self.events.emit(
                                    "worker_low_disk",
                                    worker=worker_name,
                                    low_disk=low_disk,
                                )
                    renewed, lost = self._renew(conn_id, cell_ids)
                    protocol.write_frame(
                        wfile,
                        {"type": "renewed", "cells": renewed, "lost": lost},
                    )
                elif kind == "fetch_trace":
                    self._metric_traces_served.inc()
                    fingerprint = frame.get("fingerprint")
                    payload = self._traces.get(fingerprint)
                    if payload is not None:
                        protocol.write_frame(
                            wfile,
                            {
                                "type": "trace",
                                "fingerprint": fingerprint,
                                "data": payload,
                            },
                        )
                    else:
                        chunked = self._chunked.get(fingerprint)
                        if chunked is None:
                            raise ProtocolError(f"unknown trace {fingerprint!r}")
                        # Chunked trace: ship the manifest; the worker
                        # pulls chunks with fetch_trace_chunk frames.
                        protocol.write_frame(
                            wfile,
                            {
                                "type": "trace",
                                "fingerprint": fingerprint,
                                "manifest": chunked.manifest,
                            },
                        )
                elif kind == "fetch_trace_chunk":
                    self._metric_chunks_served.inc()
                    fingerprint = frame.get("fingerprint")
                    index = frame.get("chunk")
                    chunked = self._chunked.get(fingerprint)
                    if chunked is None:
                        raise ProtocolError(
                            f"unknown chunked trace {fingerprint!r}"
                        )
                    if (
                        not isinstance(index, int)
                        or not 0 <= index < chunked.chunk_count
                    ):
                        raise ProtocolError(
                            f"chunk index {index!r} out of range for trace "
                            f"{fingerprint!r} ({chunked.chunk_count} chunks)"
                        )
                    try:
                        # Read per request: the coordinator never holds
                        # more than one chunk's bytes in memory.
                        data = chunked.chunk_path(index).read_bytes()
                    except OSError as error:
                        raise ProtocolError(
                            f"chunk {index} of trace {fingerprint!r} is "
                            f"unreadable: {error}"
                        ) from None
                    protocol.write_frame(
                        wfile,
                        {
                            "type": "trace_chunk",
                            "fingerprint": fingerprint,
                            "chunk": index,
                            "data": protocol.encode_chunk(data),
                        },
                    )
                elif kind == "result":
                    cell_id = frame.get("cell")
                    try:
                        result = result_from_dict(frame["result"])
                    except (KeyError, TypeError, ValueError) as error:
                        raise ProtocolError(f"malformed result: {error}") from None
                    if not isinstance(cell_id, int):
                        raise ProtocolError("result frame without a cell id")
                    # "timings" / "batch" are additive version-1 keys: a
                    # worker may attach its measured phase walls; absent
                    # keys mean a pre-instrumentation worker.
                    frame_timings = frame.get("timings")
                    accepted = self._complete(
                        cell_id,
                        result,
                        conn_id,
                        timings=(
                            frame_timings
                            if isinstance(frame_timings, dict)
                            else None
                        ),
                        batch=frame.get("batch", 1),
                    )
                    protocol.write_frame(
                        wfile, {"type": "ack", "cell": cell_id, "accepted": accepted}
                    )
                elif kind == "failure":
                    cell_id = frame.get("cell")
                    if not isinstance(cell_id, int):
                        raise ProtocolError("failure frame without a cell id")
                    self._fail_job(cell_id, str(frame.get("message", "unknown error")))
                    protocol.write_frame(
                        wfile, {"type": "ack", "cell": cell_id, "accepted": False}
                    )
                else:
                    raise ProtocolError(f"unexpected frame type {kind!r}")
        except protocol.ConnectionClosed:
            pass  # the worker went away; its leases are requeued below
        except ProtocolError as error:
            self.log(f"worker {worker_name}: protocol error: {error}")
            self._send_error(wfile, str(error))
        except OSError:
            pass
        self.log(f"worker {worker_name} disconnected")
        if self.events is not None:
            self.events.emit(
                "worker_disconnected", worker=worker_name, connection=conn_id
            )

    def _serve_submitter(self, conn_id: int, frame: Dict[str, Any], wfile) -> None:
        try:
            job = self._admit_remote(frame)
        except (ProtocolError, ValueError, TypeError, KeyError) as error:
            self._send_error(wfile, f"bad submit: {error}")
            return
        self.log(f"job {job.job_id} submitted by connection {conn_id}")
        with self._lock:
            info = self._conn_info.get(conn_id)
            if info is not None:
                info["role"] = "submitter"
        try:
            protocol.write_frame(
                wfile,
                {
                    "type": "accepted",
                    "job": job.job_id,
                    "total": job.total,
                    "done": job.done,
                },
            )
            last_state = (-1, ())
            while True:
                finished = job.wait(timeout=0.2)
                # Degradation counters travel in every progress frame
                # (additive keys; pre-renewal clients simply ignore them)
                # so a submitter watching --progress sees requeues and
                # quarantines while they happen, not post mortem.
                stats = job.stats()
                state = (job.done, tuple(sorted(stats.items())))
                if state != last_state and not finished:
                    last_state = state
                    frame_out = {
                        "type": "progress",
                        "job": job.job_id,
                        "done": job.done,
                        "total": job.total,
                    }
                    frame_out.update(stats)
                    protocol.write_frame(wfile, frame_out)
                if finished:
                    reply: Dict[str, Any] = {
                        "type": "job_done",
                        "job": job.job_id,
                        "done": job.done,
                        "total": job.total,
                    }
                    reply.update(job.stats())
                    if job.error is not None:
                        reply["error"] = job.error
                    else:
                        reply["cells"] = [
                            {
                                "label": label,
                                "index": index,
                                "result": result_to_dict(result),
                            }
                            for label, index, result in job.completed_cells()
                        ]
                        if job.quarantined:
                            reply["quarantined_cells"] = [
                                {"label": label, "index": index, "error": message}
                                for (label, index), message in sorted(
                                    job.quarantined.items()
                                )
                            ]
                    protocol.write_frame(wfile, reply)
                    break
                if self._stopping.is_set():
                    self._send_error(wfile, "coordinator is shutting down")
                    break
        except (ProtocolError, OSError, ValueError):
            self.log(
                f"submitter of job {job.job_id} disconnected; job keeps running"
            )
        if job.finished:
            self.release_job(job)

    def _admit_remote(self, frame: Dict[str, Any]) -> SweepJob:
        """Admit a job from a ``submit`` frame (payloads are validated)."""
        if frame.get("protocol") != protocol.PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol mismatch: coordinator speaks "
                f"{protocol.PROTOCOL_VERSION}, submitter sent {frame.get('protocol')!r}"
            )
        raw_specs = frame.get("specs")
        raw_traces = frame.get("traces")
        if not isinstance(raw_specs, list) or not raw_specs:
            raise ProtocolError("submit needs a non-empty 'specs' list")
        if not isinstance(raw_traces, list) or not raw_traces:
            raise ProtocolError("submit needs a non-empty 'traces' list")
        entries = []
        for raw in raw_specs:
            if not isinstance(raw, dict):
                raise ProtocolError("each spec entry must be an object")
            label = raw.get("label")
            spec_dict = raw.get("spec")
            profile_payload = raw.get("profile")
            if not isinstance(label, str) or not label:
                raise ProtocolError("spec entry without a label")
            if not isinstance(spec_dict, dict) or not isinstance(profile_payload, dict):
                raise ProtocolError(f"spec entry {label!r} is malformed")
            PredictorSpec.from_dict(spec_dict)  # raises ValueError on junk
            protocol.profile_from_payload(profile_payload)
            entries.append(
                {"label": label, "spec": spec_dict, "profile": profile_payload}
            )
        traces: List[Trace] = []
        payloads: Dict[str, str] = {}
        chunked: Dict[str, ChunkedTrace] = {}
        for raw in raw_traces:
            if isinstance(raw, dict) and isinstance(raw.get("chunked"), str):
                # A coordinator-local chunked trace referenced by manifest
                # directory -- written by the journal (and only meaningful
                # on this host, which is where the journal replays).
                try:
                    trace = load_chunked_trace(raw["chunked"])
                except (OSError, ValueError) as error:
                    raise ProtocolError(
                        f"chunked trace {raw['chunked']!r} is unreadable: "
                        f"{error}"
                    ) from None
                traces.append(trace)
                chunked[trace.fingerprint()] = trace
                continue
            if not isinstance(raw, str):
                raise ProtocolError(
                    "each trace must be a base64 string or a "
                    "{'chunked': <manifest dir>} reference"
                )
            trace = protocol.decode_trace(raw)
            traces.append(trace)
            payloads[trace.fingerprint()] = raw
        cells = None
        if frame.get("cells") is not None:
            if not isinstance(frame["cells"], list):
                raise ProtocolError("'cells' must be a list of [label, index] pairs")
            try:
                cells = [(str(label), int(index)) for label, index in frame["cells"]]
            except (TypeError, ValueError) as error:
                raise ProtocolError(f"malformed 'cells' entry: {error}") from None
        return self._admit(
            entries, traces, payloads, bool(frame.get("track_per_pc")), cells,
            chunked,
        )
