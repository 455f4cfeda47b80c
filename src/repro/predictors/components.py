"""Adder-tree components shared by GEHL and the statistical corrector.

These components implement the :class:`~repro.core.component.NeuralComponent`
interface defined in :mod:`repro.core.component`.  Together with the IMLI
components from :mod:`repro.core` they are the inputs of the two adder-tree
predictors used in the paper:

* :class:`BiasComponent` -- per-PC bias tables, optionally hashed with the
  TAGE prediction (the "PC + TAGE prediction" tables of the statistical
  corrector, Figure 5).
* :class:`GlobalHistoryComponent` -- a bank of tables indexed with the PC
  hashed with folded global history of geometric lengths (the body of GEHL
  and of the global-history statistical corrector).
* :class:`LocalHistoryComponent` -- tables indexed with the PC hashed with
  the branch's local history; this is the "+L" local-history component whose
  speculative management the paper argues against (Sections 2.3.2 and 5).
* :class:`IMLICountHashedGlobalComponent` -- global-history tables whose
  index additionally mixes in the IMLI counter, the optional refinement
  mentioned at the end of Section 4.2.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.common import swar
from repro.common.bits import log2_exact, mask, mix_hash
from repro.common.counters import SignedCounterArray
from repro.common.history import FoldedHistory, LocalHistoryTable
from repro.core.component import CounterSelection, IndexedComponent, SharedState

__all__ = [
    "BiasComponent",
    "GlobalHistoryComponent",
    "IMLICountHashedGlobalComponent",
    "LocalHistoryComponent",
    "geometric_history_lengths",
]


def geometric_history_lengths(
    count: int, minimum: int, maximum: int
) -> List[int]:
    """Return ``count`` history lengths in geometric progression.

    This is the geometric-history-length scheme of O-GEHL and TAGE: the
    first length is ``minimum``, the last is ``maximum`` and intermediate
    lengths follow a geometric series (rounded, strictly increasing).
    """
    if count <= 0:
        raise ValueError(f"length count must be positive, got {count}")
    if minimum <= 0 or maximum < minimum:
        raise ValueError(
            f"invalid geometric range [{minimum}, {maximum}]"
        )
    if count == 1:
        return [minimum]
    ratio = (maximum / minimum) ** (1.0 / (count - 1))
    lengths: List[int] = []
    for position in range(count):
        length = int(round(minimum * (ratio ** position)))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
    lengths[-1] = max(lengths[-1], maximum)
    return lengths


class BiasComponent(IndexedComponent):
    """Per-PC bias tables for an adder tree.

    One table is indexed with the hashed PC alone.  When
    ``use_tage_prediction`` is set a second table is indexed with the PC
    hashed together with the current TAGE prediction, which is how the
    statistical corrector lets the TAGE prediction dominate unless other
    components disagree strongly.
    """

    name = "bias"

    def __init__(
        self,
        entries: int = 1024,
        counter_bits: int = 6,
        use_tage_prediction: bool = False,
    ) -> None:
        self.index_bits = log2_exact(entries)
        self.index_mask = mask(self.index_bits)
        self.use_tage_prediction = use_tage_prediction
        self.pc_table = SignedCounterArray(entries, counter_bits)
        self.tage_table = (
            SignedCounterArray(entries, counter_bits) if use_tage_prediction else None
        )
        self.counter_tables = (
            (self.pc_table,)
            if self.tage_table is None
            else (self.pc_table, self.tage_table)
        )

    def select(self, pc: int, state: SharedState) -> List[CounterSelection]:
        selections: List[CounterSelection] = [
            (self.pc_table, mix_hash(pc, width=self.index_bits))
        ]
        if self.tage_table is not None:
            tage_bit = 1 if state.tage_prediction else 0
            selections.append(
                (self.tage_table, mix_hash(pc, tage_bit, width=self.index_bits))
            )
        return selections

    def index_key(self) -> tuple:
        # The TAGE bit comes from the shared state, like every other input.
        return (type(self), self.index_bits, self.tage_table is not None)

    def index_columns(self, block) -> list:
        columns = [block.index(self.index_mask)]
        if self.tage_table is not None:
            columns.append(block.index(self.index_mask, block.tage))
        return block.unpack(columns, self.index_mask)

    def storage_bits(self) -> int:
        bits = self.pc_table.storage_bits()
        if self.tage_table is not None:
            bits += self.tage_table.storage_bits()
        return bits


class GlobalHistoryComponent(IndexedComponent):
    """Tables indexed with the PC hashed with folded global history.

    ``history_lengths`` gives one (possibly zero) history length per table;
    a zero length degenerates to a PC-indexed table.  Folded histories are
    registered with the owning predictor's :class:`SharedState` so they stay
    coherent with the global history register at O(1) cost per branch.
    """

    name = "global"

    def __init__(
        self,
        state: SharedState,
        history_lengths: Sequence[int],
        entries: int = 1024,
        counter_bits: int = 6,
        use_path_history: bool = True,
    ) -> None:
        if not history_lengths:
            raise ValueError("at least one history length is required")
        self.index_bits = log2_exact(entries)
        self.index_mask = mask(self.index_bits)
        self.history_lengths = list(history_lengths)
        self.use_path_history = use_path_history
        self.tables = [
            SignedCounterArray(entries, counter_bits) for _ in self.history_lengths
        ]
        self.counter_tables = self.tables
        self.folded: List[FoldedHistory] = [
            state.new_folded_history(length, self.index_bits)
            for length in self.history_lengths
        ]
        # Per-table rows: (folded register, path-history mask).  The
        # path hash consumes at most 16 path bits, clamped to the path
        # register capacity exactly like PathHistory.value() does.
        path_capacity = state.path_history.capacity
        self._rows = [
            (folded, mask(min(length, 16, path_capacity)))
            for folded, length in zip(self.folded, self.history_lengths)
        ]

    def select(self, pc: int, state: SharedState, *extra: int) -> List[CounterSelection]:
        # ``extra``: fields hashed after the path (the IMLI count of the
        # subclass), as in index_columns.
        path_bits = state.path_history.bits if self.use_path_history else 0
        return [
            (
                table,
                mix_hash(pc, folded.fold, path_bits & path_mask, *extra, width=self.index_bits),
            )
            for table, (folded, path_mask) in zip(self.tables, self._rows)
        ]

    def index_key(self) -> tuple:
        # Over one state, equal lengths and widths resolve to the *same*
        # fold objects (shape-deduplicated) and the path masks derive from
        # the same path register, so the geometry names the indices.
        return (type(self), tuple(self.history_lengths), self.index_bits, self.use_path_history)

    def index_columns(self, block, *extra: int) -> list:
        # ``extra``: slot columns hashed after the path (the IMLI count of
        # the subclass).  Zero-length folds are constant zero and have no
        # column.
        path = block.path if self.use_path_history else 0
        of = block.lanes.of
        columns = [
            block.index(self.index_mask, block.folds.get(folded, 0), path & of(path_mask), *extra)
            for folded, path_mask in self._rows
        ]
        return block.unpack(columns, self.index_mask)

    def storage_bits(self) -> int:
        return sum(table.storage_bits() for table in self.tables)


class IMLICountHashedGlobalComponent(GlobalHistoryComponent):
    """Global-history tables whose index also mixes in the IMLI counter.

    Section 4.2 of the paper notes that the IMLI-SIC benefit "can be further
    increased by inserting the IMLI counter in the indices of two tables in
    the global history component of the SC"; this component implements that
    refinement (used by the ablation benchmarks).
    """

    name = "global+imli"

    def select(self, pc: int, state: SharedState) -> List[CounterSelection]:
        return super().select(pc, state, state.imli.count)

    def index_columns(self, block) -> list:
        return super().index_columns(block, block.imli)


class LocalHistoryComponent(IndexedComponent):
    """Tables indexed with the PC hashed with the branch's local history.

    ``history_lengths`` selects how many low-order local-history bits each
    table consumes, so a small bank of tables can cover several local
    correlation distances.  The local histories live in the
    :class:`~repro.common.history.LocalHistoryTable` of geometry
    ``table_geometry=(size, history_bits)``, which the component registers
    on the state it is bound to (:meth:`bind`); that state advances it
    once per branch.
    """

    name = "local"

    def __init__(
        self,
        history_lengths: Sequence[int],
        table_geometry: Tuple[int, int],
        entries: int = 1024,
        counter_bits: int = 6,
    ) -> None:
        if not history_lengths:
            raise ValueError("at least one local history length is required")
        self.index_bits = log2_exact(entries)
        self.index_mask = mask(self.index_bits)
        self.history_lengths = list(history_lengths)
        self.tables = [
            SignedCounterArray(entries, counter_bits) for _ in self.history_lengths
        ]
        self.counter_tables = self.tables
        self._history_masks = [mask(length) for length in self.history_lengths]
        self.table_geometry = tuple(table_geometry)
        self.histories: Optional[LocalHistoryTable] = None

    def bind(self, state: SharedState) -> None:
        self.histories = state.new_local_history(*self.table_geometry)

    def select(self, pc: int, state: SharedState) -> List[CounterSelection]:
        local_history = self.histories.read(pc)
        return [
            (table, mix_hash(pc, local_history & history_mask, width=self.index_bits))
            for table, history_mask in zip(self.tables, self._history_masks)
        ]

    def index_key(self) -> tuple:
        return (type(self), tuple(self.history_lengths), self.index_bits, self.histories)

    def index_columns(self, block) -> list:
        histories = swar.pack(block.reads[self.histories])
        of = block.lanes.of
        columns = [
            block.index(self.index_mask, histories & of(history_mask))
            for history_mask in self._history_masks
        ]
        return block.unpack(columns, self.index_mask)

    def storage_bits(self) -> int:
        return sum(table.storage_bits() for table in self.tables)
