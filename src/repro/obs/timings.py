"""Per-cell timing artifacts: ``timings.jsonl`` + aggregated histograms.

Every completed sweep cell -- serial, pool or distributed -- can record
where its wall time went, split into named phases, so a slow run is
diagnosable *from its artifacts* after the fact (no re-run under a
profiler).  Records are one JSON object per line in ``timings.jsonl``
next to the :class:`~repro.store.ResultStore` the run writes to, plus an
aggregated ``timings_summary.json`` with per-phase fixed-bucket
histograms of every record in the file, whichever process wrote it.

Record schema (one line per completed cell)::

    {"ts": 1754650000.12,        # wall-clock write time
     "component": "runner",      # runner | worker | coordinator
     "backend": "serial",        # serial | pool | dist
     "label": "tage-gsc+oh",     # the cell's spec label
     "trace": "SPEC2K6-00",      # the cell's trace name
     "batch": 4,                 # cells sharing the recorded phase walls
     "phases": {"trace_load": 0.01, "simulate": 0.82,
                "store_write": 0.002},       # seconds, per phase
     "cell_phases": {"trace_load": 0.0025, "simulate": 0.205,
                     "store_write": 0.002},  # this cell's share (batch > 1)
     "branches": 20000,          # conditional branches the cell measured
     "cell_branches_per_s": 97560.98}  # branches / the cell's simulate share

Phase names by path:

* **serial / pool** (``component: runner``): ``simulate`` and
  ``store_write``; batched groups share one ``simulate`` wall across
  their ``batch`` cells.  Pool records split the task's
  submit-to-completion turnaround into ``simulate`` (timed inside the
  pool task) and ``queue_wait`` (the rest: waiting behind other tasks,
  moving the task and its results between processes).
* **dist, coordinator side** (``component: coordinator``): the worker's
  reported ``trace_load`` / ``simulate`` plus ``total`` (lease grant to
  accepted upload, so ``total - simulate - trace_load`` approximates
  wire + upload overhead).
* **dist, worker side** (``component: worker``; only with a worker-local
  ``--store``): ``trace_load``, ``simulate`` and the measured ``upload``
  exchange, plus ``queue_wait`` when the worker simulates in a pool
  (``--jobs`` > 1); the coordinator records the same worker phases.

The phases a batch shares (:data:`SHARED_PHASES`) carry the whole batch's
wall in ``phases``; ``cell_phases`` (written when ``batch > 1``) divides
them by ``batch``, and every summary aggregates those per-cell shares, so a
summed phase is the true wall however the cells were batched.

``branches`` is the cell's ``SimulationResult.conditional_branches`` (every
conditional branch of its trace), and
``cell_branches_per_s`` divides it by the cell's share of ``simulate``;
summaries add ``branches`` and ``branches_per_s`` (total branches over the
summed ``simulate`` shares of the records that carry a count).  Both are
reports only: nothing reads them back into results, keys or scheduling.

Timing capture is on whenever a run has a store to anchor the artifact
to, and off otherwise; ``REPRO_TIMINGS=0`` (or ``off``) disables it
explicitly.  Writes are single ``write()`` calls on an append-mode
handle, so concurrent writers (a coordinator and a same-host worker
sharing one store) interleave whole lines, never fragments.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.common import diskguard
from repro.obs.metrics import Histogram

__all__ = [
    "SHARED_PHASES",
    "TIMINGS_FILE",
    "TIMINGS_SUMMARY_FILE",
    "TimingLog",
    "summarize_timings",
    "timing_log_for",
    "timings_enabled",
]

#: File names written next to the result store root.
TIMINGS_FILE = "timings.jsonl"
TIMINGS_SUMMARY_FILE = "timings_summary.json"

#: Phases whose recorded wall covers every cell of a batch (one traversal,
#: one trace load); the other phases are measured per cell.
SHARED_PHASES = frozenset({"trace_load", "simulate", "queue_wait"})

#: Environment variable gating timing capture: ``0``/``off`` disables.
_TIMINGS_ENV = "REPRO_TIMINGS"


def timings_enabled() -> bool:
    """Whether ``REPRO_TIMINGS`` leaves timing capture on (the default)."""
    value = os.environ.get(_TIMINGS_ENV, "")
    return value.strip().lower() not in ("0", "off", "false")


class TimingLog:
    """Appends per-cell phase timings to ``timings.jsonl``.

    Parameters
    ----------
    path:
        The ``timings.jsonl`` file (parents created on first write).
    component:
        ``"component"`` tag of every record from this log.
    """

    def __init__(self, path: Union[str, Path], component: str) -> None:
        self.path = Path(path)
        self.component = component
        self.records_written = 0
        self._lock = threading.Lock()
        self._summary_stamp = 0

    def record(
        self,
        *,
        backend: str,
        label: str,
        trace: str,
        phases: Mapping[str, float],
        batch: int = 1,
        branches: Optional[int] = None,
    ) -> None:
        """Append one cell's record (best-effort; never fails the run).

        ``branches`` is the cell's simulated conditional-branch count.
        """
        clean = {
            str(name): float(value)
            for name, value in phases.items()
            if isinstance(value, (int, float)) and float(value) >= 0.0
        }
        if not clean:
            return
        batch = max(1, int(batch))
        record = {
            "ts": time.time(),
            "component": self.component,
            "backend": str(backend),
            "label": str(label),
            "trace": str(trace),
            "batch": batch,
            "phases": clean,
        }
        per_cell = _cell_phases(clean, batch)
        if batch > 1:
            record["cell_phases"] = per_cell
        if branches is not None:
            record["branches"] = branches = int(branches)
            simulate = per_cell.get("simulate", 0.0)
            if simulate > 0.0:
                record["cell_branches_per_s"] = branches / simulate
        line = (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
        with self._lock:
            if diskguard.is_critical(self.path.parent):
                return
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "ab") as handle:
                    handle.write(line)
                self.records_written += 1
            except OSError:
                pass

    def write_summary(self, path: Union[str, Path, None] = None) -> Optional[Path]:
        """Write :func:`summarize_timings` of the timings file as JSON next to it.

        The summary covers every writer of the file, this log's and any
        other process's.  It is written to a temporary file and renamed
        into place, so a reader never sees a partial summary.  Skipped
        (returns ``None``) when this log wrote nothing new since its last
        summary, so callers can flush at every natural boundary without
        rewriting an unchanged file; a log that wrote nothing at all never
        writes, so it leaves an earlier run's summary alone.
        """
        with self._lock:
            if self.records_written == self._summary_stamp:
                return None
            self._summary_stamp = self.records_written
        target = (
            Path(path)
            if path is not None
            else self.path.with_name(TIMINGS_SUMMARY_FILE)
        )
        staging = target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}")
        try:
            text = json.dumps(summarize_timings(self.path), indent=2, sort_keys=True) + "\n"
            target.parent.mkdir(parents=True, exist_ok=True)
            staging.write_text(text, encoding="utf-8")
            os.replace(staging, target)
        except OSError:
            staging.unlink(missing_ok=True)
            return None
        return target


def timing_log_for(
    root: Union[str, Path, None], component: str
) -> Optional[TimingLog]:
    """The timing log anchored at a store root, honouring ``REPRO_TIMINGS``.

    ``None`` when there is no root to anchor the artifact to or capture
    is disabled.
    """
    if root is None or not timings_enabled():
        return None
    return TimingLog(Path(root) / TIMINGS_FILE, component=component)


def summarize_timings(path: Union[str, Path]) -> Dict[str, Any]:
    """Aggregation of a ``timings.jsonl`` file (any writers).

    It reads the file back, so it covers every component and process
    that appended to it.  Each record counts with its per-cell phase
    shares (``cell_phases``, or the shared phases divided by ``batch`` for
    records written without them).  Malformed lines are skipped and
    counted.
    """
    histograms: Dict[str, Histogram] = {}
    branches_total = 0
    simulate_total = 0.0
    records = 0
    skipped = 0
    by_component: Dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                phases = record["phases"]
                if not isinstance(phases, dict):
                    raise TypeError("phases is not an object")
            except (ValueError, KeyError, TypeError):
                skipped += 1
                continue
            records += 1
            component = str(record.get("component", "?"))
            by_component[component] = by_component.get(component, 0) + 1
            cell_phases = record.get("cell_phases")
            if not isinstance(cell_phases, dict):
                batch = record.get("batch", 1)
                cell_phases = _cell_phases(phases, batch if isinstance(batch, int) else 1)
            branches = record.get("branches")
            simulate = cell_phases.get("simulate", 0.0)
            if isinstance(branches, int) and isinstance(simulate, (int, float)):
                branches_total += branches
                simulate_total += simulate
            for name, value in cell_phases.items():
                if not isinstance(value, (int, float)):
                    continue
                histogram = histograms.get(name)
                if histogram is None:
                    histogram = Histogram(
                        f"repro_phase_{_metric_safe(str(name))}_seconds"
                    )
                    histograms[str(name)] = histogram
                histogram.observe(float(value))
    return {
        "records": records,
        "skipped": skipped,
        "by_component": by_component,
        "phases": {
            name: histogram.snapshot()
            for name, histogram in sorted(histograms.items())
        },
        "branches": branches_total,
        "branches_per_s": branches_total / simulate_total if simulate_total > 0.0 else 0.0,
    }


def _cell_phases(phases: Mapping[str, Any], batch: int) -> Dict[str, Any]:
    """One cell's share of ``phases``: shared phases divided by ``batch``."""
    if batch <= 1:
        return dict(phases)
    return {
        name: value / batch
        if name in SHARED_PHASES and isinstance(value, (int, float))
        else value
        for name, value in phases.items()
    }


def _metric_safe(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)
