"""The IMLI-SIC (Same Iteration Correlation) predictor component.

Section 4.2 of the paper: some hard-to-predict branches encapsulated in
loops repeat (or nearly repeat) their behaviour for the same iteration
number of the inner-most loop, i.e. ``Out[N][M] == Out[N-1][M]``.  A single
prediction table indexed with a hash of the branch PC and the IMLI counter
captures this correlation.  The paper uses a 512-entry table of (6-bit)
counters added to the statistical corrector of TAGE-GSC or to the GEHL
adder tree.

The component has no per-branch speculative state of its own: the only
speculative state it depends on is the IMLI counter itself, which is
checkpointed by the owning predictor (a few tens of bits).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.common.bits import log2_exact, mask, mix_hash, mix_hash2
from repro.common.counters import SignedCounterArray
from repro.core.component import CounterSelection, IndexedComponent, SharedState

__all__ = ["IMLISameIterationComponent"]


class IMLISameIterationComponent(IndexedComponent):
    """Prediction table indexed with ``hash(PC, IMLIcount)``.

    Parameters
    ----------
    entries:
        Number of table entries (power of two).  The paper's configuration
        uses 512 entries.
    counter_bits:
        Width of the signed prediction counters (6 in the paper).
    """

    name = "imli-sic"

    def __init__(self, entries: int = 512, counter_bits: int = 6) -> None:
        self.index_bits = log2_exact(entries)
        self.index_mask = mask(self.index_bits)
        self.table = SignedCounterArray(entries, counter_bits)
        self.counter_tables = (self.table,)

    def select(self, pc: int, state: SharedState) -> List[CounterSelection]:
        return [(self.table, mix_hash(pc, state.imli.count, width=self.index_bits))]

    def index_key(self) -> tuple:
        return (type(self), self.index_bits)

    def compute_indices(self, pc: int, state: SharedState) -> Tuple[int]:
        return (mix_hash2(pc, state.imli.count) & self.index_mask,)

    def index_columns(self, block) -> list:
        return [block.index(self.index_mask, block.imli)]

    def select_sum_at(self, indices: Sequence[int]) -> tuple:
        table = self.table
        index = indices[0]
        return [(table, index)], 2 * table.values[index] + 1

    def storage_bits(self) -> int:
        return self.table.storage_bits()
