"""The sweep worker: leases cells from a coordinator and simulates them.

A worker is a loop around one TCP connection: lease up to ``--batch``
cells sharing one trace, make sure that trace is cached locally (fetching
it from the coordinator on first use; the cache is a small LRU -- chunked
traces arrive as a manifest and stream chunk files on demand into a
worker-local spool, keeping memory bounded by the chunk size), build
one predictor per cell from its self-contained spec payload, simulate the
whole grant in one :func:`~repro.sim.engine.simulate_many` traversal, and
upload one result per cell.  With ``jobs > 1`` the batched simulations
fan out over a local :class:`~concurrent.futures.ProcessPoolExecutor`
while the connection keeps leasing ahead, so one worker process saturates
one machine exactly like ``repro sweep --jobs``.

Three layers of fault tolerance sit on that loop:

* **Heartbeat lease renewal.**  When the coordinator's ``welcome``
  advertises it, a background thread sends ``renew`` frames for every
  held cell while the main thread simulates, so a slow cell never races
  its lease timeout into duplicate execution.  The socket is shared
  under a request/response lock -- exactly one exchange is in flight at
  a time, so the strict protocol ordering is preserved.
* **Reconnect with capped, jittered exponential backoff.**  An abrupt
  connection loss (coordinator restart, network blip, an injected
  fault) makes the worker reconnect for up to ``reconnect`` seconds and
  resume leasing instead of dying; anything it held is requeued by the
  coordinator and simply re-leased.  A *clean* ``shutdown`` frame still
  ends the worker immediately.
* **Graceful drain.**  :meth:`Worker.request_stop` (wired to SIGTERM by
  ``repro worker``) stops new leasing, finishes and uploads everything
  in flight, then returns -- no cell is stranded waiting for a lease
  timeout.

Workers remain stateless and safely killable: anything leased but not
yet uploaded is requeued by the coordinator (on connection death
immediately, on missing renewal at lease expiry otherwise).  With a
local ``--store`` the worker reuses cells it already has and persists
what it computes, so a shared store directory turns uploads into pure
bookkeeping.  The named fault points of :mod:`repro.dist.chaos` are
compiled into this module's lease/simulate/upload/spool path.

Disk hygiene: spool directories embed the owning pid
(``repro-worker-spool-<pid>-...``) and every worker sweeps orphans left
by hard-killed predecessors at startup (:func:`sweep_orphan_spools`).
When the spool disk runs low on headroom the worker advertises
``low_disk`` in its (additive, version-1) hello and renew frames so the
coordinator stops routing chunked-trace work to it until the spool
drains.
"""

from __future__ import annotations

import errno
import os
import random
import shutil
import socket
import tempfile
import threading
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.common import diskguard
from repro.dist import chaos, protocol
from repro.dist.protocol import ConnectionClosed, ProtocolError
from repro.obs import timing_log_for
from repro.sim.result import SimulationResult
from repro.sim.runner import (
    _CELL_ERRORS,
    DEFAULT_BATCH_CELLS,
    _build_spec_predictor,
    _Outcome,
    _pool_phases,
    _timed_spec_batch,
    check_batch,
)
from repro.store import ResultStore, result_to_dict
from repro.trace.chunked import ChunkedTrace, validate_manifest
from repro.trace.trace import Trace

__all__ = [
    "DEFAULT_TRACE_CACHE",
    "DEFAULT_RECONNECT",
    "DEFAULT_SPOOL_MAX_AGE",
    "CoordinatorUnreachable",
    "Worker",
    "run_worker",
    "sweep_orphan_spools",
]

#: Default ceiling on decoded traces a worker keeps in memory.  A
#: long-lived worker serving many jobs would otherwise accumulate every
#: trace it has ever simulated; least-recently-used traces are evicted
#: beyond this bound and simply re-fetched if a later lease needs them.
DEFAULT_TRACE_CACHE = 8

#: Default window (seconds) a worker keeps trying to reconnect after an
#: abrupt connection loss before concluding the coordinator is gone.
DEFAULT_RECONNECT = 30.0

#: Spool tempdir prefix; the owning pid follows it so a later worker can
#: tell a live neighbour's spool from a dead one's.
_SPOOL_PREFIX = "repro-worker-spool-"

#: Orphan sweep age fallback: spools whose owner pid cannot be read
#: (pre-pid naming) or still appears alive (pid reuse) are only removed
#: once they are this old.
DEFAULT_SPOOL_MAX_AGE = 24 * 3600.0


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # EPERM and friends: the pid exists
    return True


def sweep_orphan_spools(max_age_seconds: float = DEFAULT_SPOOL_MAX_AGE) -> int:
    """Remove spool tempdirs leaked by dead workers; returns the count.

    A worker killed hard (chaos ``worker.simulate.kill``, OOM, SIGKILL)
    never runs its spool cleanup, leaking a tempdir per kill.  Every
    worker sweeps at startup: a spool whose embedded pid no longer
    exists is removed immediately, and one whose pid cannot be parsed
    or still appears alive (pid reuse) is removed only past
    ``max_age_seconds``.
    """
    removed = 0
    try:
        candidates = sorted(Path(tempfile.gettempdir()).glob(f"{_SPOOL_PREFIX}*"))
    except OSError:
        return 0
    now = time.time()
    for path in candidates:
        try:
            if not path.is_dir():
                continue
        except OSError:
            continue
        pid_text = path.name[len(_SPOOL_PREFIX):].split("-", 1)[0]
        stale = False
        if pid_text.isdigit():
            pid = int(pid_text)
            if pid == os.getpid():
                continue  # our own spool (should not exist yet, but still)
            stale = not _pid_alive(pid)
        if not stale:
            try:
                stale = now - path.stat().st_mtime >= max_age_seconds
            except OSError:
                continue
        if stale:
            shutil.rmtree(path, ignore_errors=True)
            if not path.exists():
                removed += 1
    return removed


class CoordinatorUnreachable(ConnectionError):
    """No coordinator answered within the connect/reconnect window.

    Raised from the *initial* connect (``repro worker`` maps it to a
    distinct exit code); a mid-run reconnect that exhausts its window
    ends the worker cleanly instead, since the most likely cause is a
    serve-one-sweep coordinator that finished and exited.
    """


def _simulate_batch_with_chaos(entries, trace, track_per_pc: bool):
    """The worker's simulation step, with its chaos points compiled in.

    Top-level so it pickles to pool children, where the ``kill`` fault
    must fire inside the child to emulate a crashed simulation process.
    """
    chaos.kill_process("worker.simulate.kill")
    chaos.delay("worker.simulate.delay")
    return _timed_spec_batch(entries, trace, track_per_pc)


class Worker:
    """One lease-simulate-upload loop with renewal, reconnect and drain.

    Parameters
    ----------
    host / port:
        Coordinator address.
    jobs:
        Concurrent simulations; 1 (default) stays in-process, more fans
        out over a process pool.
    store:
        Optional local/shared :class:`ResultStore`: cells found there are
        uploaded without simulating, computed cells are persisted.
    name:
        Worker name in coordinator logs (default: ``host-pid``).
    connect_retry:
        Seconds to keep retrying the initial connect (covers the race of
        starting workers before the coordinator is listening).
    reconnect:
        Seconds to keep retrying after an established connection is lost
        abruptly (coordinator restart, network trouble); ``0`` restores
        the old die-on-disconnect behaviour.  Backoff is exponential,
        capped and jittered so a restarted coordinator is not hit by a
        synchronized thundering herd of workers.
    batch:
        Cells requested per lease.  The coordinator grants up to this
        many cells sharing one trace, which the worker simulates in one
        :func:`~repro.sim.engine.simulate_many` traversal; ``1`` restores
        strict cell-at-a-time leasing.
    trace_cache:
        Decoded traces kept in memory (least-recently-used eviction
        beyond the bound; evicted traces are re-fetched on demand).
    log:
        Optional ``(message: str)`` callable for lifecycle events.
    """

    def __init__(
        self,
        host: str,
        port: int,
        jobs: int = 1,
        store: Union[ResultStore, str, None, bool] = False,
        name: Optional[str] = None,
        connect_retry: float = 10.0,
        reconnect: float = DEFAULT_RECONNECT,
        batch: int = DEFAULT_BATCH_CELLS,
        trace_cache: int = DEFAULT_TRACE_CACHE,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be positive, got {jobs}")
        check_batch(batch)
        if trace_cache < 1:
            raise ValueError(f"trace_cache must be positive, got {trace_cache}")
        if reconnect < 0:
            raise ValueError(f"reconnect must be non-negative, got {reconnect}")
        self.host = host
        self.port = port
        self.jobs = jobs
        self.store = ResultStore.resolve(store)
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.connect_retry = float(connect_retry)
        self.reconnect = float(reconnect)
        self.batch = batch
        self.trace_cache = int(trace_cache)
        self.log = log or (lambda message: None)
        self.completed = 0
        #: Reconnect attempts that succeeded (visible to tests/operators).
        self.reconnects = 0
        # Worker-local timing artifact, anchored next to the local store
        # (without one there is nowhere durable to put it -- the
        # coordinator still records dist timings from our result frames).
        self.timings = timing_log_for(
            self.store.root if self.store is not None else None,
            component="worker",
        )
        # Seconds the most recent _trace_for spent fetching (0.0 on a
        # cache hit); only ever touched from the main serve loop.
        self._last_fetch_seconds = 0.0
        self._traces: "OrderedDict[str, Trace]" = OrderedDict()
        # Chunked traces spool their fetched chunk files here (one subdir
        # per trace); created lazily, removed when the worker returns.
        self._spool: Optional[tempfile.TemporaryDirectory] = None
        # The live session's (rfile, wfile): chunk-fetch hooks go through
        # this indirection so a cached ChunkedTrace keeps working after a
        # reconnect replaces the streams.
        self._session_streams: Optional[Tuple[Any, Any]] = None
        # Exactly one request/response exchange may be in flight on the
        # shared socket: the main loop and the heartbeat thread both take
        # this around every (write frame, read reply) pair.
        self._io_lock = threading.Lock()
        # Cell ids currently leased to us and not yet settled -- what the
        # heartbeat renews.
        self._held: Set[int] = set()
        self._held_lock = threading.Lock()
        self._stop_requested = threading.Event()

    # ----------------------------------------------------------------- #
    # Connection plumbing
    # ----------------------------------------------------------------- #

    def request_stop(self) -> None:
        """Ask the worker to drain: finish and upload everything in
        flight, lease nothing new, then return from :meth:`run`.  Safe
        to call from any thread or a signal handler."""
        self._stop_requested.set()

    def _connect(self, window: float) -> socket.socket:
        """One connection within ``window`` seconds, with capped jittered
        exponential backoff between attempts."""
        deadline = time.monotonic() + window
        delay = 0.05
        while True:
            try:
                return protocol.connect(self.host, self.port)
            except OSError as error:
                if self._stop_requested.is_set() or time.monotonic() >= deadline:
                    raise CoordinatorUnreachable(
                        f"cannot reach coordinator at {self.host}:{self.port}"
                        f" within {window:.0f}s: {error}"
                    ) from None
                # Jitter spreads a worker fleet's retries out so a
                # restarted coordinator is not stampeded in lockstep.
                time.sleep(delay * (0.5 + random.random()))
                delay = min(delay * 2, 2.0)

    def _request(self, rfile, wfile, frame: Dict[str, Any], *replies: str):
        chaos.delay("worker.frame.delay")
        with self._io_lock:
            protocol.write_frame(wfile, frame)
            return protocol.expect(protocol.read_frame(rfile), *replies)

    def _fetch_chunk(self, fingerprint: str, index: int) -> bytes:
        """Chunk-fetch hook for a :class:`ChunkedTrace`: one
        ``fetch_trace_chunk`` exchange on the *current* session's streams
        (resolved per call, so the hook survives reconnects)."""
        streams = self._session_streams
        if streams is None:
            raise ProtocolError(
                f"no live coordinator session to fetch chunk {index} "
                f"of trace {fingerprint[:12]}"
            )
        rfile, wfile = streams
        reply = self._request(
            rfile, wfile,
            {"type": "fetch_trace_chunk", "fingerprint": fingerprint, "chunk": index},
            "trace_chunk",
        )
        if reply.get("fingerprint") != fingerprint or reply.get("chunk") != index:
            raise ProtocolError(
                f"coordinator sent chunk {reply.get('chunk')!r} of trace "
                f"{str(reply.get('fingerprint'))[:12]} for requested "
                f"chunk {index} of {fingerprint[:12]}"
            )
        return protocol.decode_chunk(reply.get("data", ""))

    def _chunked_trace(self, fingerprint: str, manifest: Any) -> ChunkedTrace:
        """Build a spooled, fetch-on-demand trace from a manifest reply."""
        if not isinstance(manifest, dict):
            raise ProtocolError("trace frame without data or manifest")
        try:
            manifest = validate_manifest(manifest, source="coordinator manifest")
        except ValueError as error:
            raise ProtocolError(str(error)) from None
        if manifest["fingerprint"] != fingerprint:
            raise ProtocolError(
                f"coordinator sent manifest {manifest['fingerprint'][:12]} "
                f"for requested {fingerprint[:12]}"
            )
        if self._spool is None:
            self._spool = tempfile.TemporaryDirectory(
                prefix=f"{_SPOOL_PREFIX}{os.getpid()}-"
            )
        spool_dir = Path(self._spool.name) / fingerprint[:16]
        spool_dir.mkdir(parents=True, exist_ok=True)
        return ChunkedTrace(
            spool_dir,
            manifest=manifest,
            fetch=lambda index: self._spool_fetch(fingerprint, index),
        )

    def _spool_fetch(self, fingerprint: str, index: int) -> bytes:
        """Chunk fetch with the spool's disk guard and chaos point compiled
        in.  Failing *before* the coordinator exchange keeps the spool
        free of partial chunk files; the error fails this lease cleanly
        (the coordinator requeues) instead of tearing the spool."""
        if chaos.active() and chaos.should("spool.enospc"):
            raise OSError(
                errno.ENOSPC, "chaos: injected ENOSPC on worker spool write"
            )
        if self._spool is not None:
            diskguard.check_writable(
                self._spool.name, what="worker trace-spool chunk write"
            )
        return self._fetch_chunk(fingerprint, index)

    def _low_disk(self) -> bool:
        """Whether the spool disk is low on headroom -- the state the
        additive ``low_disk`` hello/renew key advertises so the
        coordinator stops granting chunked-trace cells to us."""
        root = self._spool.name if self._spool is not None else tempfile.gettempdir()
        return diskguard.is_low(root)

    def _trace_for(self, rfile, wfile, item: Dict[str, Any]) -> Union[Trace, ChunkedTrace]:
        fingerprint = item["trace"]
        trace = self._traces.get(fingerprint)
        if trace is not None:
            self._traces.move_to_end(fingerprint)
            self._last_fetch_seconds = 0.0
            return trace
        fetch_started = time.monotonic()
        reply = self._request(
            rfile, wfile,
            {"type": "fetch_trace", "fingerprint": fingerprint},
            "trace",
        )
        if "data" in reply:
            trace = protocol.decode_trace(reply.get("data", ""))
            if trace.fingerprint() != fingerprint:
                raise ProtocolError(
                    f"coordinator sent trace {trace.fingerprint()[:12]} "
                    f"for requested {fingerprint[:12]}"
                )
        else:
            # Chunked trace: the reply carries only the manifest; chunk
            # files stream on demand into this worker's spool directory
            # and at most ``cache_chunks`` decoded chunks stay in memory.
            trace = self._chunked_trace(fingerprint, reply.get("manifest"))
        self._last_fetch_seconds = time.monotonic() - fetch_started
        self._traces[fingerprint] = trace
        while len(self._traces) > self.trace_cache:
            self._traces.popitem(last=False)  # evict least recently used
        return trace

    # ----------------------------------------------------------------- #
    # Lease bookkeeping (what the heartbeat renews)
    # ----------------------------------------------------------------- #

    def _hold(self, items: List[Dict[str, Any]]) -> None:
        with self._held_lock:
            for item in items:
                cell = item.get("cell")
                if isinstance(cell, int):
                    self._held.add(cell)

    def _settle(self, cell_id: Any) -> None:
        with self._held_lock:
            self._held.discard(cell_id)

    def _clear_held(self) -> None:
        with self._held_lock:
            self._held.clear()

    def _heartbeat_loop(
        self, rfile, wfile, interval: float, stop: threading.Event
    ) -> None:
        """Renew every held lease on a fixed cadence until the session ends.

        Runs while the main thread simulates (the socket is idle then, and
        the io lock arbitrates the rest).  Any wire trouble ends the
        thread quietly -- the main loop hits the same trouble on its next
        exchange and owns the recovery.
        """
        while not stop.wait(interval):
            with self._held_lock:
                held = sorted(self._held)
            if not held:
                continue
            try:
                reply = self._request(
                    rfile, wfile,
                    # low_disk is an additive version-1 key: it refreshes
                    # the coordinator's routing state every heartbeat and
                    # is ignored by pre-diskguard coordinators.
                    {
                        "type": "renew",
                        "cells": held,
                        "low_disk": self._low_disk(),
                    },
                    "renewed",
                )
            except (ProtocolError, OSError):
                return
            lost = reply.get("lost")
            if isinstance(lost, list) and lost:
                # Requeued under us (or completed by someone faster):
                # stop renewing them.  Any upload we still produce is
                # handled by first-upload-wins dedupe.
                with self._held_lock:
                    self._held.difference_update(lost)

    # ----------------------------------------------------------------- #
    # Cell execution
    # ----------------------------------------------------------------- #

    def _decode_item(self, item: Dict[str, Any]) -> Tuple[Dict[str, Any], Any, bool]:
        spec_dict = item.get("spec")
        profile_payload = item.get("profile")
        if not isinstance(spec_dict, dict) or not isinstance(profile_payload, dict):
            raise ProtocolError("malformed work item")
        sizes = protocol.profile_from_payload(profile_payload)
        return spec_dict, sizes, bool(item.get("track_per_pc"))

    def _stored(self, item: Dict[str, Any]) -> Optional[SimulationResult]:
        key = item.get("store_key")
        if self.store is None or not isinstance(key, str):
            return None
        return self.store.get(key)

    def _upload(
        self,
        rfile,
        wfile,
        item: Dict[str, Any],
        result: SimulationResult,
        phases: Optional[Dict[str, float]] = None,
        batch: int = 1,
    ) -> None:
        key = item.get("store_key")
        if self.store is not None and isinstance(key, str):
            self.store.persist(
                key,
                result,
                label=item.get("label"),
                trace_fingerprint=item.get("trace"),
                spec=item.get("spec"),
                warn=self.log,
            )
        frame = {
            "type": "result",
            "cell": item["cell"],
            "result": result_to_dict(result),
        }
        if phases:
            # Additive version-1 keys (see the protocol docstring): the
            # coordinator folds these into its dist timing artifact; a
            # pre-instrumentation coordinator simply ignores them.
            frame["timings"] = phases
            frame["batch"] = int(batch)
        if chaos.active() and chaos.should("worker.upload.corrupt"):
            # Mangled bytes on the wire: one complete line that is not
            # valid JSON.  The coordinator must reject it, drop us, and
            # requeue -- never accept or wedge.
            with self._io_lock:
                wfile.write(b'{"type": "result", "corrupt": !!!garbage\n')
                wfile.flush()
                protocol.expect(protocol.read_frame(rfile), "ack")
        upload_started = time.monotonic()
        self._request(rfile, wfile, frame, "ack")
        # Counted once the exchange is done: the coordinator may accept
        # the final result and shut down right after.
        self.completed += 1
        self._settle(item["cell"])
        if self.timings is not None and phases:
            local = dict(phases)
            local["upload"] = time.monotonic() - upload_started
            self.timings.record(
                backend="dist",
                label=str(item.get("label", "?")),
                trace=str(item.get("trace_name", item.get("trace", "?"))),
                phases=local,
                batch=int(batch),
                branches=result.conditional_branches,
            )
        if chaos.active() and chaos.should("worker.upload.duplicate"):
            # A retransmitted result: the coordinator must acknowledge it
            # (accepted: false) without double-counting.
            self._request(rfile, wfile, frame, "ack")

    def _report_failure(self, rfile, wfile, item: Dict[str, Any], error: BaseException) -> None:
        """Fail one cell's job with a ``failure`` frame.

        Only for a cell error (:data:`repro.sim.runner._CELL_ERRORS`):
        retrying on another worker cannot succeed.  Anything else is a
        property of *this worker* -- it is re-raised, the worker dies, the
        coordinator requeues its leases, and the sweep completes
        elsewhere.
        """
        if not isinstance(error, _CELL_ERRORS):
            raise error
        self._request(
            rfile, wfile,
            {
                "type": "failure",
                "cell": item["cell"],
                "message": f"{type(error).__name__}: {error}",
            },
            "ack",
        )
        self._settle(item["cell"])

    # ----------------------------------------------------------------- #
    # Main loop
    # ----------------------------------------------------------------- #

    def run(self) -> int:
        """Serve until the coordinator shuts down cleanly, the reconnect
        window closes, or :meth:`request_stop` drains us; returns cells
        completed."""
        swept = sweep_orphan_spools()
        if swept:
            self.log(
                f"worker {self.name}: removed {swept} orphaned spool dir(s)"
            )
        sock = self._connect(self.connect_retry)
        pool: Optional[ProcessPoolExecutor] = None
        if self.jobs > 1:
            pool = ProcessPoolExecutor(max_workers=self.jobs)
        try:
            while True:
                clean = False
                trouble: Optional[BaseException] = None
                try:
                    clean = self._session(sock, pool)
                except (ConnectionClosed, ProtocolError, OSError) as error:
                    trouble = error
                finally:
                    try:
                        sock.close()
                    except OSError:
                        pass
                self._clear_held()
                if clean or self._stop_requested.is_set():
                    break
                if self.reconnect <= 0:
                    if isinstance(trouble, ConnectionClosed):
                        # Pre-reconnect behaviour: a closed connection is
                        # the normal end of a serve-one-sweep run.
                        self.log(
                            f"worker {self.name}: coordinator closed the connection"
                        )
                        break
                    if trouble is not None:
                        raise trouble
                    break
                self.log(
                    f"worker {self.name}: connection lost"
                    f" ({trouble}); reconnecting for up to {self.reconnect:.0f}s"
                )
                try:
                    sock = self._connect(self.reconnect)
                except CoordinatorUnreachable:
                    # Most likely a finished serve-one-sweep coordinator:
                    # end cleanly rather than crash-looping the fleet.
                    self.log(
                        f"worker {self.name}: coordinator did not come back; exiting"
                    )
                    break
                self.reconnects += 1
                self.log(f"worker {self.name}: reconnected")
            self.log(f"worker {self.name}: done ({self.completed} cell(s) simulated)")
            return self.completed
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            if self._spool is not None:
                self._spool.cleanup()
                self._spool = None
            if self.timings is not None:
                self.timings.write_summary()

    def _session(self, sock: socket.socket, pool: Optional[ProcessPoolExecutor]) -> bool:
        """One connection's worth of serving.  ``True`` means a clean end
        (shutdown frame, or a requested drain finished); an abrupt loss
        raises and the caller decides whether to reconnect."""
        rfile = sock.makefile("rb")
        wfile = sock.makefile("wb")
        self._session_streams = (rfile, wfile)
        heartbeat: Optional[threading.Thread] = None
        heartbeat_stop = threading.Event()
        try:
            welcome = self._request(
                rfile, wfile,
                {
                    "type": "hello",
                    "role": "worker",
                    "protocol": protocol.PROTOCOL_VERSION,
                    "worker": self.name,
                    "low_disk": self._low_disk(),
                },
                "welcome",
            )
            if welcome.get("protocol") != protocol.PROTOCOL_VERSION:
                raise ProtocolError(
                    f"coordinator speaks protocol {welcome.get('protocol')!r}, "
                    f"this worker speaks {protocol.PROTOCOL_VERSION}"
                )
            self.log(f"worker {self.name}: connected to {self.host}:{self.port}")
            if welcome.get("renew"):
                # Heartbeat well inside the lease timeout; a pre-renewal
                # coordinator never advertises, so none is started and
                # the wire stays byte-compatible with it.
                lease_timeout = float(welcome.get("lease_timeout") or 120.0)
                interval = max(0.05, min(lease_timeout / 3.0, 30.0))
                heartbeat = threading.Thread(
                    target=self._heartbeat_loop,
                    args=(rfile, wfile, interval, heartbeat_stop),
                    name=f"repro-worker-heartbeat-{self.name}",
                    daemon=True,
                )
                heartbeat.start()
            try:
                self._serve(rfile, wfile, pool)
                return True
            except ConnectionClosed:
                if self.reconnect <= 0:
                    return True  # legacy: closed connection == clean end
                raise
        finally:
            heartbeat_stop.set()
            if heartbeat is not None:
                heartbeat.join(timeout=2)
            self._session_streams = None
            for stream in (wfile, rfile):
                try:
                    stream.close()
                except OSError:
                    pass

    #: One leased grant in flight on the pool: its items and the timing
    #: meta (submit stamp + trace-fetch seconds) for the phase record
    #: attached to its uploads.
    _Grant = Tuple[List[Dict[str, Any]], Dict[str, float]]

    def _lease_frame(self) -> Dict[str, Any]:
        """The lease request; plain (batch-free) when batching is off.

        Omitting ``max_cells`` keeps a ``--batch 1`` worker byte-identical
        on the wire to a pre-batching one, so it interoperates with any
        coordinator.
        """
        if self.batch > 1:
            return {"type": "lease", "max_cells": self.batch}
        return {"type": "lease"}

    def _settle_grant(
        self, rfile, wfile,
        items: List[Dict[str, Any]],
        outcomes: List[_Outcome],
        phases: Dict[str, float],
    ) -> None:
        """Upload every simulated cell of a grant and fail every other one.

        The cells simulated together share the grant's phase walls (see
        docs/OBSERVABILITY.md on interpreting batch).
        """
        batch = sum(not isinstance(outcome, BaseException) for outcome in outcomes)
        for item, outcome in zip(items, outcomes):
            if isinstance(outcome, BaseException):
                self._report_failure(rfile, wfile, item, outcome)
            else:
                self._upload(rfile, wfile, item, outcome, phases=phases, batch=batch)

    def _process_grant(
        self, rfile, wfile,
        items: List[Dict[str, Any]],
        pool: Optional[ProcessPoolExecutor],
        in_flight: Dict[Future, "_Grant"],
    ) -> None:
        """Dispatch one lease grant: store hits upload immediately, the
        rest simulate as one batched traversal per (trace, per-PC) group
        (the coordinator grants with trace affinity; grouping here keeps
        the worker correct against any coordinator)."""
        self._hold(items)
        if chaos.active() and chaos.should("worker.lease.drop"):
            # The connection dies right after the grant: every cell just
            # leased must be requeued by the coordinator and completed by
            # someone (possibly us, after reconnecting).
            raise OSError("chaos: dropping connection after lease grant")
        todo: List[Dict[str, Any]] = []
        for item in items:
            stored = self._stored(item)
            if stored is not None:
                self._upload(rfile, wfile, item, stored)
            else:
                todo.append(item)
        groups: Dict[Tuple[str, bool], List[Dict[str, Any]]] = {}
        for item in todo:
            key = (str(item.get("trace")), bool(item.get("track_per_pc")))
            groups.setdefault(key, []).append(item)
        for (_, track_per_pc), group in groups.items():
            trace = self._trace_for(rfile, wfile, group[0])
            entries = []
            for item in group:
                spec_dict, sizes, _ = self._decode_item(item)
                entries.append(partial(_build_spec_predictor, spec_dict, sizes))
            if pool is None:
                outcomes, simulate_seconds = _simulate_batch_with_chaos(
                    entries, trace, track_per_pc
                )
                phases = {
                    "trace_load": self._last_fetch_seconds,
                    "simulate": simulate_seconds,
                }
                self._settle_grant(rfile, wfile, group, outcomes, phases)
            else:
                ensure_local = getattr(trace, "ensure_local", None)
                if ensure_local is not None:
                    # Pickling a ChunkedTrace into a pool child drops its
                    # fetch hook (the child has no coordinator session),
                    # so every chunk file must be spooled to disk first.
                    ensure_local()
                meta = {
                    "submitted": time.monotonic(),
                    "trace_load": self._last_fetch_seconds,
                }
                future = pool.submit(
                    _simulate_batch_with_chaos, entries, trace, track_per_pc
                )
                in_flight[future] = (group, meta)

    def _drain_one(
        self, rfile, wfile,
        in_flight: Dict[Future, "_Grant"],
    ) -> None:
        """Wait for at least one pool grant and settle it.

        A pool task that raised is not a property of any one cell (broken
        pool, OOM, ...): ``future.result()`` re-raises it, which is
        worker-fatal, and the coordinator requeues our leases.
        """
        done, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
        for future in done:
            items, meta = in_flight.pop(future)
            # The pool task times its own traversal; the rest of the
            # submit-to-completion turnaround is queue_wait.
            outcomes, simulate_seconds = future.result()
            phases = {
                "trace_load": meta["trace_load"],
                **_pool_phases(time.monotonic() - meta["submitted"], simulate_seconds),
            }
            self._settle_grant(rfile, wfile, items, outcomes, phases)

    def _serve(self, rfile, wfile, pool: Optional[ProcessPoolExecutor]) -> None:
        in_flight: Dict[Future, Worker._Grant] = {}
        draining = False
        capacity = self.jobs if pool is not None else 1
        while True:
            if self._stop_requested.is_set() and not draining:
                draining = True
                if in_flight:
                    self.log(
                        f"worker {self.name}: draining "
                        f"{len(in_flight)} in-flight grant(s) before stopping"
                    )
            # Phase 1: lease until the pool is full or nothing is leasable.
            delay = 0.0
            while not draining and len(in_flight) < capacity:
                reply = self._request(
                    rfile, wfile, self._lease_frame(), "work", "wait", "shutdown"
                )
                if reply["type"] == "shutdown":
                    draining = True
                    break
                if reply["type"] == "wait":
                    delay = float(reply.get("delay", 0.25))
                    break
                if self._stop_requested.is_set():
                    draining = True
                items = reply.get("items")
                if items is None:  # single-cell grant (pre-batching shape)
                    items = [reply["item"]]
                if not isinstance(items, list) or not items:
                    raise ProtocolError("work frame without items")
                self._process_grant(rfile, wfile, items, pool, in_flight)
            # Phase 2: drain at least one finished simulation.
            if in_flight:
                self._drain_one(rfile, wfile, in_flight)
            elif draining:
                return
            elif delay:
                time.sleep(delay)


def run_worker(
    connect: str,
    jobs: int = 1,
    store: Union[ResultStore, str, Path, None, bool] = False,
    name: Optional[str] = None,
    connect_retry: float = 10.0,
    reconnect: float = DEFAULT_RECONNECT,
    batch: int = DEFAULT_BATCH_CELLS,
    trace_cache: int = DEFAULT_TRACE_CACHE,
    log: Optional[Callable[[str], None]] = None,
) -> int:
    """Run one worker against ``"host:port"`` until the coordinator closes.

    Returns the number of cells this worker completed (``repro worker``
    is a thin wrapper around this).
    """
    worker = make_worker(
        connect,
        jobs=jobs,
        store=store,
        name=name,
        connect_retry=connect_retry,
        reconnect=reconnect,
        batch=batch,
        trace_cache=trace_cache,
        log=log,
    )
    return worker.run()


def make_worker(connect: str, **kwargs) -> Worker:
    """Build a :class:`Worker` from a ``"host:port"`` address string.

    Split from :func:`run_worker` so callers (the CLI's SIGTERM drain)
    can hold the instance while it runs.
    """
    host, _, port_text = connect.rpartition(":")
    if not host or not port_text.isdigit():
        raise ValueError(f"--connect needs HOST:PORT, got {connect!r}")
    return Worker(host, int(port_text), **kwargs)
