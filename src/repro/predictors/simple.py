"""Simple baseline predictors: static, bimodal, gshare and perceptron.

These predictors predate the TAGE/GEHL designs the paper builds on.  They
serve three purposes in the library: sanity baselines for the benchmark
harness, reference points in the examples, and simple building blocks whose
behaviour the test suite can verify analytically.
"""

from __future__ import annotations

from typing import List

from repro.common.bits import hash_pc, log2_exact, mask
from repro.common.counters import UnsignedCounterArray
from repro.common.history import GlobalHistory
from repro.predictors.base import BranchPredictor
from repro.trace.branch import CONDITIONAL_CODE, BranchRecord

__all__ = [
    "AlwaysTakenPredictor",
    "BimodalPredictor",
    "GSharePredictor",
    "PerceptronPredictor",
    "StaticBackwardTakenPredictor",
]


class AlwaysTakenPredictor(BranchPredictor):
    """Predict taken for every branch (the weakest possible baseline)."""

    name = "always-taken"

    def predict(self, record: BranchRecord) -> bool:
        return True

    def update(self, record: BranchRecord, prediction: bool) -> None:
        pass

    def storage_bits(self) -> int:
        return 0


class StaticBackwardTakenPredictor(BranchPredictor):
    """Static BTFN heuristic: backward branches taken, forward not taken."""

    name = "static-btfn"

    def predict(self, record: BranchRecord) -> bool:
        return record.is_backward

    def update(self, record: BranchRecord, prediction: bool) -> None:
        pass

    def storage_bits(self) -> int:
        return 0


class BimodalPredictor(BranchPredictor):
    """Per-PC table of 2-bit saturating counters (Smith, 1981)."""

    name = "bimodal"

    def __init__(self, entries: int = 4096, counter_bits: int = 2) -> None:
        self.index_bits = log2_exact(entries)
        self.table = UnsignedCounterArray(entries, counter_bits)

    def _index(self, pc: int) -> int:
        return hash_pc(pc, self.index_bits)

    def predict(self, record: BranchRecord) -> bool:
        return self.table.predict(self._index(record.pc))

    def update(self, record: BranchRecord, prediction: bool) -> None:
        self.table.update(self._index(record.pc), record.taken)

    def predict_update_block(self, pcs, targets, takens, kinds, gaps) -> bytearray:
        """Block step: consume a column sub-block, return its predictions.

        The engine's fast-path protocol (``docs/ENGINE.md``).  Bit-identical
        to :meth:`predict` then :meth:`update` per conditional row: the
        same hash and counter arithmetic, inlined into one loop over the
        columns.  Non-conditional rows are skipped, because this predictor
        keeps no history.  Entry ``k`` of the returned column is the
        prediction (``0``/``1``) for the block's ``k``-th conditional row.
        """
        table = self.table
        width = self.index_bits
        index_mask = (1 << width) - 1
        values = table.values
        midpoint = table.midpoint
        maximum = table.maximum
        shift2 = 2 * width
        predictions = bytearray()
        append = predictions.append
        for pc, taken, kind in zip(pcs, takens, kinds):
            if kind != CONDITIONAL_CODE:
                continue
            index = (pc ^ (pc >> width) ^ (pc >> shift2)) & index_mask
            counter = values[index]
            append(counter >= midpoint)
            if taken:
                if counter < maximum:
                    values[index] = counter + 1
            elif counter > 0:
                values[index] = counter - 1
        return predictions

    def storage_bits(self) -> int:
        return self.table.storage_bits()


class GSharePredictor(BranchPredictor):
    """Global-history predictor indexing a counter table with PC xor history."""

    name = "gshare"

    def __init__(
        self, entries: int = 4096, history_length: int = 12, counter_bits: int = 2
    ) -> None:
        self.index_bits = log2_exact(entries)
        if history_length <= 0:
            raise ValueError(f"history length must be positive, got {history_length}")
        self.history_length = history_length
        self.table = UnsignedCounterArray(entries, counter_bits)
        self.history = GlobalHistory(history_length)

    def _index(self, pc: int) -> int:
        history = self.history.value(self.history_length) & mask(self.index_bits)
        return hash_pc(pc, self.index_bits) ^ history

    def predict(self, record: BranchRecord) -> bool:
        return self.table.predict(self._index(record.pc))

    def update(self, record: BranchRecord, prediction: bool) -> None:
        self.table.update(self._index(record.pc), record.taken)
        self.history.push(record.taken)

    def storage_bits(self) -> int:
        return self.table.storage_bits() + self.history_length


class PerceptronPredictor(BranchPredictor):
    """Global-history perceptron predictor (Jimenez and Lin, 2001).

    Each branch (hashed PC) owns a weight vector over the last
    ``history_length`` global outcomes plus a bias weight; the prediction is
    the sign of the dot product and training uses the classic
    threshold-gated perceptron rule.
    """

    name = "perceptron"

    def __init__(
        self,
        entries: int = 256,
        history_length: int = 24,
        weight_bits: int = 8,
    ) -> None:
        self.index_bits = log2_exact(entries)
        if history_length <= 0:
            raise ValueError(f"history length must be positive, got {history_length}")
        self.history_length = history_length
        self.weight_bits = weight_bits
        self.weight_max = (1 << (weight_bits - 1)) - 1
        self.weight_min = -(1 << (weight_bits - 1))
        # weights[i] is the weight vector of entry i: bias followed by one
        # weight per history position.
        self.weights: List[List[int]] = [
            [0] * (history_length + 1) for _ in range(entries)
        ]
        self.history = GlobalHistory(history_length)
        # Training threshold from the original paper: 1.93 * h + 14.
        self.threshold = int(1.93 * history_length + 14)
        self._last_sum = 0
        self._last_index = 0

    def _dot_product(self, pc: int) -> int:
        weights = self.weights[hash_pc(pc, self.index_bits)]
        total = weights[0]
        history_bits = self.history.bits
        for position in range(self.history_length):
            direction = 1 if (history_bits >> position) & 1 else -1
            total += weights[position + 1] * direction
        return total

    def predict(self, record: BranchRecord) -> bool:
        self._last_index = hash_pc(record.pc, self.index_bits)
        self._last_sum = self._dot_product(record.pc)
        return self._last_sum >= 0

    def update(self, record: BranchRecord, prediction: bool) -> None:
        outcome = 1 if record.taken else -1
        if prediction != record.taken or abs(self._last_sum) <= self.threshold:
            weights = self.weights[self._last_index]
            weights[0] = self._clip(weights[0] + outcome)
            history_bits = self.history.bits
            for position in range(self.history_length):
                direction = 1 if (history_bits >> position) & 1 else -1
                weights[position + 1] = self._clip(
                    weights[position + 1] + outcome * direction
                )
        self.history.push(record.taken)

    def _clip(self, value: int) -> int:
        return min(max(value, self.weight_min), self.weight_max)

    def storage_bits(self) -> int:
        per_entry = (self.history_length + 1) * self.weight_bits
        return len(self.weights) * per_entry + self.history_length
