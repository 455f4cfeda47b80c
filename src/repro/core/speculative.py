"""Speculative-state management for the IMLI components.

The practicality argument of the paper (Sections 2.3 and 4.2.1/4.3.2) is
that the IMLI components, unlike local-history components and the wormhole
predictor, need only a *tiny checkpoint* per in-flight branch to recover
from mispredictions:

* the IMLI counter itself (10 bits), and
* the IMLI-OH PIPE vector (16 bits),

exactly like the global-history head pointer, whereas local-history
components require an associative search of the in-flight branch window on
every fetch cycle.

This module provides:

* :class:`IMLICheckpoint` -- an immutable snapshot of the speculative IMLI
  state taken at prediction time.
* :class:`SpeculativeIMLITracker` -- a fetch-time model that advances a
  *speculative* IMLI counter from predicted directions, checkpoints it per
  branch, and restores it when a misprediction is discovered.  The
  simulator in :mod:`repro.sim.checkpointing` uses it to demonstrate that
  checkpoint-based recovery reproduces the committed IMLI sequence.
* :func:`checkpoint_cost_bits` -- the per-checkpoint storage cost used in
  the storage/speculation report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.imli import IMLIState
from repro.core.imli_oh import IMLIOuterHistoryComponent

__all__ = [
    "IMLICheckpoint",
    "SpeculativeIMLITracker",
    "checkpoint_cost_bits",
]


@dataclass(frozen=True)
class IMLICheckpoint:
    """Snapshot of the speculative IMLI state for one in-flight branch."""

    imli_count: int
    pipe: Optional[Tuple[int, ...]] = None

    def bits(self, imli_counter_bits: int = 10) -> int:
        """Storage bits of this checkpoint."""
        pipe_bits = len(self.pipe) if self.pipe is not None else 0
        return imli_counter_bits + pipe_bits


def checkpoint_cost_bits(
    imli: IMLIState, outer_history: Optional[IMLIOuterHistoryComponent] = None
) -> int:
    """Bits that must be checkpointed per in-flight branch for IMLI state."""
    bits = imli.storage_bits()
    if outer_history is not None:
        bits += outer_history.speculative_state_bits()
    return bits


class SpeculativeIMLITracker:
    """Fetch-time speculative IMLI counter with checkpoint/restore.

    The tracker mirrors what the front end of a superscalar processor would
    do: the speculative counter advances using *predicted* branch
    directions, a checkpoint is associated with every in-flight branch, and
    when a branch resolves as mispredicted the checkpoint taken at its
    prediction is restored and the counter is advanced with the *correct*
    outcome of the resolving branch.  An ``outer_history`` component must
    be bound to a shared state before its PIPE vector is checkpointed.
    """

    def __init__(
        self,
        counter_bits: int = 10,
        outer_history: Optional[IMLIOuterHistoryComponent] = None,
    ) -> None:
        self.speculative = IMLIState(counter_bits)
        self.outer_history = outer_history

    @property
    def count(self) -> int:
        """Current speculative IMLI counter value."""
        return self.speculative.count

    def checkpoint(self) -> IMLICheckpoint:
        """Take a checkpoint *before* the current branch is speculated."""
        pipe = (
            self.outer_history.snapshot_pipe()
            if self.outer_history is not None
            else None
        )
        return IMLICheckpoint(imli_count=self.speculative.count, pipe=pipe)

    def speculate(self, is_backward: bool, predicted_taken: bool) -> None:
        """Advance the speculative counter with a predicted direction."""
        self.speculative.observe(is_backward, predicted_taken)

    def recover(
        self, checkpoint: IMLICheckpoint, is_backward: bool, actual_taken: bool
    ) -> None:
        """Repair the speculative state after a misprediction.

        ``checkpoint`` is the snapshot taken when the mispredicted branch
        was fetched; the counter is restored to it and then advanced with
        the branch's *actual* outcome, exactly as hardware would resume
        fetch on the correct path.
        """
        self.speculative.restore(checkpoint.imli_count)
        if self.outer_history is not None and checkpoint.pipe is not None:
            self.outer_history.restore_pipe(checkpoint.pipe)
        self.speculative.observe(is_backward, actual_taken)

    def checkpoint_bits(self) -> int:
        """Size in bits of one checkpoint produced by this tracker."""
        return checkpoint_cost_bits(self.speculative, self.outer_history)
