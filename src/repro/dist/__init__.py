"""Distributed sweep execution: coordinator + workers over store cells.

The single-machine ``--jobs`` pool scales a sweep to one host; this
package scales it to many.  The unit of work is unchanged -- one
content-addressed ``(spec, trace)`` store cell, exactly what
:class:`~repro.store.ResultStore` persists -- so distributed sweeps
resume, dedupe and verify exactly like local ones:

* :class:`~repro.dist.coordinator.Coordinator` (``repro serve``) expands
  a sweep into cells and serves them over a line-delimited JSON TCP
  protocol with leases, timeouts and requeue-on-worker-death.
* :class:`~repro.dist.worker.Worker` (``repro worker``) leases cells,
  simulates them through the existing fast engine (optionally over a
  local process pool), and uploads the results.
* :func:`~repro.dist.client.submit_sweep` (``repro submit``) ships a
  whole sweep to a running coordinator and streams progress; and
  :class:`~repro.dist.client.DistBackend` plugs the same path into
  :class:`~repro.api.experiment.Experiment`/:class:`~repro.sim.runner.SuiteRunner`
  as the ``dist`` execution backend.

Results are bit-identical to serial runs by construction: the same
engine simulates the same resolved spec on the same trace, and the
coordinator assembles results by (label, trace) slot, not arrival order.
See ``docs/DISTRIBUTED.md`` for the architecture and protocol reference.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".client": ("DistBackend", "submit_sweep"),
    ".coordinator": ("Coordinator", "JobFailed", "SweepJob"),
    ".journal": ("CoordinatorJournal",),
    ".protocol": ("PROTOCOL_VERSION", "ProtocolError"),
    ".worker": ("CoordinatorUnreachable", "Worker", "run_worker"),
})

__all__ = [
    "Coordinator",
    "CoordinatorJournal",
    "CoordinatorUnreachable",
    "DistBackend",
    "JobFailed",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SweepJob",
    "Worker",
    "run_worker",
    "submit_sweep",
]
