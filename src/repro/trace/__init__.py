"""Branch trace model.

The experimental framework of the paper is trace driven (Section 3): a
stream of dynamic branch records is replayed through the predictors under
test.  This package defines that stream:

* :mod:`repro.trace.branch` -- the :class:`~repro.trace.branch.BranchRecord`
  dataclass describing one dynamic branch (PC, target, kind, outcome).
* :mod:`repro.trace.trace` -- the :class:`~repro.trace.trace.Trace`
  container plus a compact text serialisation so traces can be stored and
  re-used between runs.
* :mod:`repro.trace.chunked` -- the chunked on-disk layout
  (:class:`~repro.trace.chunked.ChunkedTrace`) that streams huge traces
  through the engine in bounded memory; see ``docs/TRACES.md``.
* :mod:`repro.trace.stats` -- descriptive statistics of a trace
  (branch/instruction counts, taken rates, per-PC footprints).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".branch": ("BranchKind", "BranchRecord", "conditional_branch"),
    ".chunked": (
        "ChunkedTrace", "ChunkedTraceWriter", "load_any_trace", "load_chunked_trace",
        "write_chunked_trace",
    ),
    ".stats": ("TraceStatistics", "compute_statistics"),
    ".trace": ("Trace", "load_trace", "save_trace"),
})

__all__ = [
    "BranchKind",
    "BranchRecord",
    "ChunkedTrace",
    "ChunkedTraceWriter",
    "Trace",
    "TraceStatistics",
    "compute_statistics",
    "conditional_branch",
    "load_any_trace",
    "load_chunked_trace",
    "load_trace",
    "save_trace",
    "write_chunked_trace",
]
