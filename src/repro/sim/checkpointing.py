"""Speculative-state checkpointing model.

The paper's practicality argument (Sections 2.3, 4.2.1 and 4.3.2) is that
the speculative state of the IMLI components can be managed exactly like
the speculative global history: checkpoint a few tens of bits per in-flight
branch and restore the checkpoint on a misprediction.  Local-history
components (and the wormhole predictor) instead require an associative
search of the window of in-flight branches on every fetch.

This module provides a small front-end model that demonstrates and
quantifies both points:

* :func:`run_checkpoint_recovery` drives a predictor over a trace while a
  *speculative* IMLI counter is advanced with predicted directions,
  checkpointed per branch, and restored on mispredictions.  It verifies that
  after every recovery the speculative counter agrees with the committed
  (architectural) counter -- i.e. checkpoint recovery is sufficient, no
  associative structure is needed.
* :func:`speculative_management_cost` compares the bookkeeping cost per
  fetched branch: checkpoint bits for global-history/IMLI state versus
  associative comparisons for local-history state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.imli import IMLIState
from repro.core.speculative import SpeculativeIMLITracker
from repro.predictors.base import BranchPredictor
from repro.trace.trace import Trace

__all__ = [
    "CheckpointRecoveryReport",
    "run_checkpoint_recovery",
    "speculative_management_cost",
]


@dataclass(frozen=True)
class CheckpointRecoveryReport:
    """Outcome of the speculative IMLI checkpoint/recovery model."""

    trace_name: str
    predictor_name: str
    conditional_branches: int
    mispredictions: int
    recoveries: int
    checkpoint_bits_per_branch: int
    divergence_events: int

    @property
    def recovered_correctly(self) -> bool:
        """True when every misprediction recovery restored the exact state."""
        return self.divergence_events == 0


def run_checkpoint_recovery(
    predictor: BranchPredictor,
    trace: Trace,
    counter_bits: int = 10,
) -> CheckpointRecoveryReport:
    """Model speculative IMLI tracking with checkpoint-based recovery.

    The committed (architectural) IMLI counter is advanced with actual
    outcomes; the speculative counter is advanced with *predicted*
    directions.  A checkpoint is taken before each branch is speculated.  On
    a misprediction the checkpoint is restored and the speculative counter
    is advanced with the correct outcome, modelling squash-and-restart.  A
    divergence event is recorded whenever, after this recovery discipline,
    the speculative counter disagrees with the committed counter -- the
    report should always show zero divergences.
    """
    committed = IMLIState(counter_bits)
    tracker = SpeculativeIMLITracker(counter_bits)
    mispredictions = 0
    recoveries = 0
    divergences = 0
    conditional = 0

    for record in trace:
        if not record.is_conditional:
            predictor.observe_unconditional(record)
            continue
        conditional += 1
        checkpoint = tracker.checkpoint()
        prediction = predictor.predict(record)
        tracker.speculate(record.is_backward, prediction)
        predictor.update(record, prediction)
        committed.observe(record.is_backward, record.taken)
        if prediction != record.taken:
            mispredictions += 1
            recoveries += 1
            tracker.recover(checkpoint, record.is_backward, record.taken)
        if tracker.count != committed.count:
            divergences += 1
            # Resynchronise so one bug does not cascade into every later branch.
            tracker.speculative.restore(committed.count)

    return CheckpointRecoveryReport(
        trace_name=trace.name,
        predictor_name=predictor.name,
        conditional_branches=conditional,
        mispredictions=mispredictions,
        recoveries=recoveries,
        checkpoint_bits_per_branch=tracker.checkpoint_bits(),
        divergence_events=divergences,
    )


def speculative_management_cost(
    inflight_window: int = 64,
    global_history_capacity: int = 1024,
    path_history_capacity: int = 32,
    imli_counter_bits: int = 10,
    pipe_vector_bits: int = 16,
    local_history_bits: int = 16,
    wormhole_history_bits: Optional[int] = 128,
) -> Dict[str, Dict[str, object]]:
    """Per-fetched-branch speculative management cost of each history kind.

    Returns, for global history, IMLI state, local history and wormhole
    history, the number of checkpoint bits per in-flight branch and whether
    an associative search of the ``inflight_window`` is required (and if
    so, how many entries must be compared per fetch).
    """
    if inflight_window <= 0:
        raise ValueError(f"in-flight window must be positive, got {inflight_window}")
    global_pointer_bits = global_history_capacity.bit_length()
    path_pointer_bits = path_history_capacity.bit_length()
    report: Dict[str, Dict[str, object]] = {
        "global-history": {
            "checkpoint_bits": global_pointer_bits + path_pointer_bits,
            "associative_search": False,
            "comparisons_per_fetch": 0,
        },
        "imli": {
            "checkpoint_bits": imli_counter_bits + pipe_vector_bits,
            "associative_search": False,
            "comparisons_per_fetch": 0,
        },
        "local-history": {
            "checkpoint_bits": 0,
            "associative_search": True,
            "comparisons_per_fetch": inflight_window,
            "bits_carried_per_inflight_branch": local_history_bits,
        },
    }
    if wormhole_history_bits is not None:
        report["wormhole"] = {
            "checkpoint_bits": 0,
            "associative_search": True,
            "comparisons_per_fetch": inflight_window,
            "bits_carried_per_inflight_branch": wormhole_history_bits,
        }
    return report


def total_checkpoint_storage_bits(
    costs: Dict[str, Dict[str, object]], kinds: Sequence[str], inflight_window: int = 64
) -> int:
    """Total checkpoint storage for ``kinds`` across the in-flight window."""
    total = 0
    for kind in kinds:
        if kind not in costs:
            raise KeyError(f"unknown history kind {kind!r}; known: {sorted(costs)}")
        total += int(costs[kind]["checkpoint_bits"]) * inflight_window
    return total
