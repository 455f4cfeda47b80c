"""The wormhole (WH) predictor.

Albericio et al. (MICRO 2014) observed that some branches encapsulated in
multidimensional loops are correlated with the outcomes of the *same*
branch in neighbouring inner-loop iterations of the *previous outer-loop
iteration*.  The wormhole predictor tracks a handful of such branches: each
entry records a very long local history of its branch and, knowing the
inner loop's constant trip count ``Ni`` (supplied by the loop predictor),
retrieves ``Out[N-1][M]`` and ``Out[N-1][M-1]`` as bits ``Ni-1`` and ``Ni``
of that history.  A tiny array of saturating counters indexed by those bits
provides the prediction, which overrides the main predictor only at high
confidence (Section 2.2.2, Figure 2 of the paper).

The paper uses WH as the prior-art comparison for the IMLI components: WH
captures the same correlation as IMLI-OH but needs per-entry long local
histories (unmanageable speculatively) and only works for loops with a
constant trip count that are executed on every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.bits import mask
from repro.predictors.loop import LoopPredictor

__all__ = ["WormholePredictorConfig", "WormholePredictor"]


@dataclass(frozen=True)
class WormholePredictorConfig:
    """Geometry of the wormhole side predictor."""

    entries: int = 7
    local_history_bits: int = 128
    counter_bits: int = 5
    confidence_threshold: int = 5
    usefulness_bits: int = 4


class _WormholeEntry:
    """One tracked branch: tag, long local history, correlation counters."""

    __slots__ = ("pc", "history", "history_length", "counters", "usefulness")

    def __init__(self, pc: int, counter_count: int) -> None:
        self.pc = pc
        self.history = 0
        self.history_length = 0
        self.counters = [0] * counter_count
        self.usefulness = 0


class WormholePredictor:
    """Side predictor exploiting outer-iteration correlation in loop nests.

    Parameters
    ----------
    loop_predictor:
        The loop predictor used to obtain the (constant) trip count of the
        inner-most loop currently executing.  Following Section 3.3 of the
        paper, only the trip count is consumed; the loop predictor's own
        direction prediction is not.
    config:
        Structure sizes.
    """

    def __init__(
        self,
        loop_predictor: LoopPredictor,
        config: Optional[WormholePredictorConfig] = None,
    ) -> None:
        self.config = config or WormholePredictorConfig()
        self.loop_predictor = loop_predictor
        self.entries: Dict[int, _WormholeEntry] = {}
        self._counter_max = (1 << (self.config.counter_bits - 1)) - 1
        self._counter_min = -(1 << (self.config.counter_bits - 1))
        self._usefulness_max = (1 << self.config.usefulness_bits) - 1
        # PC of the most recently seen backward conditional branch: the
        # back-edge of the loop currently executing, used to query the loop
        # predictor for the trip count of the loop enclosing a body branch.
        self._current_loop_pc: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #

    def _counter_index(self, entry: _WormholeEntry, trip_count: int) -> Optional[int]:
        """Index of the correlation counter for the current prediction.

        Bits ``trip_count - 1`` and ``trip_count`` of the entry's local
        history hold ``Out[N-1][M]`` and ``Out[N-1][M-1]`` respectively (bit
        0 is the most recent outcome).
        """
        if trip_count < 1:
            return None
        if entry.history_length < trip_count + 1:
            return None
        if trip_count + 1 > self.config.local_history_bits:
            return None
        same_iteration = (entry.history >> (trip_count - 1)) & 1
        previous_iteration = (entry.history >> trip_count) & 1
        return (same_iteration << 1) | previous_iteration

    def predict(self, pc: int, backward: bool) -> Optional[bool]:
        """Return a high-confidence prediction for a conditional branch, or ``None``."""
        if backward:
            return None
        entry = self.entries.get(pc)
        if entry is None or self._current_loop_pc is None:
            return None
        trip_count = self.loop_predictor.trip_count_for(self._current_loop_pc)
        if trip_count is None:
            return None
        counter_index = self._counter_index(entry, trip_count)
        if counter_index is None:
            return None
        counter = entry.counters[counter_index]
        if abs(2 * counter + 1) < 2 * self.config.confidence_threshold:
            return None
        return counter >= 0

    # ------------------------------------------------------------------ #
    # Update
    # ------------------------------------------------------------------ #

    def update(self, pc: int, backward: bool, taken: bool, main_mispredicted: bool) -> None:
        """Observe a resolved conditional branch.

        ``main_mispredicted`` tells the predictor whether the main (non-WH)
        prediction for this branch was wrong, which is the allocation
        trigger of the original design.
        """
        if backward:
            # Track the inner-most loop currently executing.
            self._current_loop_pc = pc
            return

        entry = self.entries.get(pc)
        trip_count = (
            self.loop_predictor.trip_count_for(self._current_loop_pc)
            if self._current_loop_pc is not None
            else None
        )

        if entry is None:
            if main_mispredicted and trip_count is not None:
                self._allocate(pc)
                entry = self.entries.get(pc)
            if entry is None:
                return

        if trip_count is not None:
            counter_index = self._counter_index(entry, trip_count)
            if counter_index is not None:
                self._train_counter(entry, counter_index, taken)

        # Record the outcome in the entry's long local history.
        entry.history = ((entry.history << 1) | int(taken)) & mask(
            self.config.local_history_bits
        )
        if entry.history_length < self.config.local_history_bits:
            entry.history_length += 1

    def _train_counter(self, entry: _WormholeEntry, index: int, taken: bool) -> None:
        value = entry.counters[index]
        predicted = value >= 0
        if predicted == taken:
            if entry.usefulness < self._usefulness_max:
                entry.usefulness += 1
        elif entry.usefulness > 0:
            entry.usefulness -= 1
        if taken:
            if value < self._counter_max:
                entry.counters[index] = value + 1
        elif value > self._counter_min:
            entry.counters[index] = value - 1

    def _allocate(self, pc: int) -> None:
        if len(self.entries) < self.config.entries:
            self.entries[pc] = _WormholeEntry(pc, counter_count=4)
            return
        # Replace the least useful entry, but only if it has decayed to zero
        # usefulness; otherwise decay everyone (prevents thrashing).
        victim_pc = min(self.entries, key=lambda key: self.entries[key].usefulness)
        victim = self.entries[victim_pc]
        if victim.usefulness == 0:
            del self.entries[victim_pc]
            self.entries[pc] = _WormholeEntry(pc, counter_count=4)
        else:
            for entry in self.entries.values():
                if entry.usefulness > 0:
                    entry.usefulness -= 1

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def storage_bits(self) -> int:
        cfg = self.config
        entry_bits = (
            64  # full tag / PC
            + cfg.local_history_bits
            + 4 * cfg.counter_bits
            + cfg.usefulness_bits
        )
        return cfg.entries * entry_bits
