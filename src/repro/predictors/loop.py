"""The loop (exit) predictor.

The loop predictor (Sherwood and Calder, 2000; implemented in recent Intel
processors) identifies loops with a constant iteration count and predicts
the loop-exit branch: it counts consecutive taken occurrences of a backward
conditional branch and, once the same trip count has been observed several
times, predicts "not taken" exactly on the final iteration.

In this library the loop predictor plays two roles, as in the paper:

* as a side predictor in the "+L" configurations (its confident prediction
  overrides the main predictor), and
* as the supplier of the inner-loop trip count for the wormhole predictor
  (the WH predictor only works for loops whose trip count it knows,
  Section 2.2.2); in the "+WH" configurations its *prediction* is unused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.bits import hash_pc, log2_exact, mask

__all__ = ["LoopPredictorConfig", "LoopPredictor"]


@dataclass(frozen=True)
class LoopPredictorConfig:
    """Geometry of the loop predictor."""

    entries: int = 16
    tag_bits: int = 10
    iteration_bits: int = 10
    confidence_threshold: int = 3
    max_confidence: int = 7


class _LoopEntry:
    """One loop predictor entry."""

    __slots__ = ("tag", "trip_count", "current_count", "confidence", "valid")

    def __init__(self) -> None:
        self.tag = 0
        self.trip_count = 0
        self.current_count = 0
        self.confidence = 0
        self.valid = False


class LoopPredictor:
    """Direct-mapped, tagged loop exit predictor."""

    def __init__(self, config: Optional[LoopPredictorConfig] = None) -> None:
        self.config = config or LoopPredictorConfig()
        self.index_bits = log2_exact(self.config.entries)
        self.entries: List[_LoopEntry] = [
            _LoopEntry() for _ in range(self.config.entries)
        ]
        self._max_count = (1 << self.config.iteration_bits) - 1

    # ------------------------------------------------------------------ #
    # Lookup helpers
    # ------------------------------------------------------------------ #

    def _index(self, pc: int) -> int:
        return hash_pc(pc, self.index_bits)

    def _tag(self, pc: int) -> int:
        return (pc >> self.index_bits) & mask(self.config.tag_bits)

    def _lookup(self, pc: int) -> Optional[_LoopEntry]:
        entry = self.entries[self._index(pc)]
        if entry.valid and entry.tag == self._tag(pc):
            return entry
        return None

    # ------------------------------------------------------------------ #
    # Prediction interface
    # ------------------------------------------------------------------ #

    def predict(self, pc: int, backward: bool) -> Optional[bool]:
        """Return a confident loop prediction for a conditional branch, or ``None``.

        Only backward branches (loop back-edges) are predicted.  The
        prediction is "taken" (continue looping) except on the iteration
        matching the learned trip count, where it is "not taken" (exit).
        """
        if not backward:
            return None
        entry = self._lookup(pc)
        if entry is None or entry.confidence < self.config.confidence_threshold:
            return None
        return entry.current_count + 1 < entry.trip_count

    def trip_count_for(self, pc: int) -> Optional[int]:
        """Confident constant trip count of the loop ending at ``pc``.

        Used by the wormhole predictor to locate outcomes of the previous
        outer-loop iteration inside a long local history.  ``None`` when the
        loop is unknown or its trip count is not (yet) stable.
        """
        entry = self._lookup(pc)
        if entry is None or entry.confidence < self.config.confidence_threshold:
            return None
        return entry.trip_count

    def current_iteration_for(self, pc: int) -> Optional[int]:
        """Number of completed iterations in the current execution of the loop."""
        entry = self._lookup(pc)
        if entry is None:
            return None
        return entry.current_count

    # ------------------------------------------------------------------ #
    # Update interface
    # ------------------------------------------------------------------ #

    def update(self, pc: int, backward: bool, taken: bool) -> None:
        """Observe the resolved outcome of a conditional branch."""
        if not backward:
            return
        index = self._index(pc)
        tag = self._tag(pc)
        entry = self.entries[index]
        if not entry.valid or entry.tag != tag:
            # Allocate only on a loop exit (a not-taken backward branch would
            # immediately give a bogus single-iteration loop); allocating on
            # a taken back-edge lets the entry start counting right away.
            if entry.valid and entry.confidence >= self.config.confidence_threshold:
                return  # keep a confident resident entry
            entry.valid = True
            entry.tag = tag
            entry.trip_count = 0
            entry.current_count = 1 if taken else 0
            entry.confidence = 0
            return

        if taken:
            if entry.current_count < self._max_count:
                entry.current_count += 1
            return

        # Loop exit observed: the completed trip count is current_count + 1
        # (the exit occurrence itself is the final iteration).
        observed_trip = entry.current_count + 1
        if observed_trip == entry.trip_count:
            if entry.confidence < self.config.max_confidence:
                entry.confidence += 1
        else:
            entry.trip_count = observed_trip
            entry.confidence = 0
        entry.current_count = 0

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def storage_bits(self) -> int:
        cfg = self.config
        entry_bits = (
            cfg.tag_bits
            + 2 * cfg.iteration_bits  # trip count and current count
            + cfg.max_confidence.bit_length()
            + 1  # valid bit
        )
        return cfg.entries * entry_bits
