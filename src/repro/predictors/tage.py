"""The TAGE predictor (TAgged GEometric history length predictor).

TAGE (Seznec and Michaud, 2006) is the main component of the TAGE-GSC base
predictor used in the paper.  It consists of a bimodal base table plus a set
of partially tagged tables indexed with global (branch + path) history of
geometric lengths.  The longest-history matching table provides the
prediction; allocation on mispredictions steers hard branches toward longer
histories; per-entry useful counters manage replacement.

Two classes are provided:

* :class:`TAGEEngine` -- the predictor proper, operating on a
  :class:`~repro.core.component.SharedState` owned by someone else.  The
  TAGE-GSC composite shares one state object between TAGE and its
  statistical corrector.
* :class:`TAGEPredictor` -- a standalone
  :class:`~repro.predictors.base.BranchPredictor` wrapper that owns its own
  shared state (used for baselines, tests and examples).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.bits import MASK64, log2_exact, mask
from repro.common.counters import UnsignedCounterArray
from repro.common.history import FoldedHistory
from repro.core.component import SharedState
from repro.predictors.base import BranchPredictor
from repro.predictors.components import geometric_history_lengths
from repro.trace.branch import BranchRecord

__all__ = ["TAGEConfig", "TAGEEngine", "TAGEPrediction", "TAGEPredictor"]


@dataclass(frozen=True)
class TAGEConfig:
    """Geometry of a TAGE predictor."""

    num_tables: int = 10
    table_entries: int = 512
    tag_bits: int = 10
    counter_bits: int = 3
    useful_bits: int = 2
    min_history: int = 4
    max_history: int = 256
    base_entries: int = 4096
    base_counter_bits: int = 2
    use_alt_counter_bits: int = 4
    useful_reset_period: int = 16384

    def history_lengths(self) -> List[int]:
        """Geometric history lengths, one per tagged table (short to long)."""
        return geometric_history_lengths(
            self.num_tables, self.min_history, self.max_history
        )


@dataclass
class TAGEPrediction:
    """Prediction-time context of the TAGE engine for one branch.

    The engine caches everything the update phase needs: per-table indices
    and tags, the provider and alternate components, and both predictions.
    """

    prediction: bool = True
    alt_prediction: bool = True
    provider: int = -1
    alt_provider: int = -1
    provider_weak: bool = False
    indices: List[int] = field(default_factory=list)
    tags: List[int] = field(default_factory=list)
    base_index: int = 0


class _TaggedTable:
    """One partially tagged TAGE table (counters, tags, useful bits)."""

    __slots__ = ("entries", "counter_max", "counter_min", "useful_max", "ctr", "tag", "useful")

    def __init__(self, entries: int, counter_bits: int, useful_bits: int) -> None:
        self.entries = entries
        self.counter_max = (1 << (counter_bits - 1)) - 1
        self.counter_min = -(1 << (counter_bits - 1))
        self.useful_max = (1 << useful_bits) - 1
        self.ctr = [0] * entries
        self.tag = [0] * entries
        self.useful = [0] * entries


class TAGEEngine:
    """TAGE prediction and update logic over a shared fetch state."""

    def __init__(self, state: SharedState, config: Optional[TAGEConfig] = None) -> None:
        self.config = config or TAGEConfig()
        self.state = state
        cfg = self.config
        self.index_bits = log2_exact(cfg.table_entries)
        self.base_index_bits = log2_exact(cfg.base_entries)
        self.history_lengths = cfg.history_lengths()
        if self.history_lengths[-1] > state.global_history.capacity:
            raise ValueError(
                "shared global history capacity "
                f"({state.global_history.capacity}) is smaller than the longest "
                f"TAGE history ({self.history_lengths[-1]})"
            )
        self.tables = [
            _TaggedTable(cfg.table_entries, cfg.counter_bits, cfg.useful_bits)
            for _ in range(cfg.num_tables)
        ]
        self.base = UnsignedCounterArray(cfg.base_entries, cfg.base_counter_bits)
        # Precomputed masks for the hot index/tag functions.
        self._index_mask = mask(self.index_bits)
        self._tag_mask = mask(cfg.tag_bits)
        self._base_mask = mask(self.base_index_bits)
        path_capacity = state.path_history.capacity
        self._path_masks = [
            mask(min(length, 16, path_capacity)) for length in self.history_lengths
        ]
        # Folded histories: one fold at index width and one at tag width per
        # tagged table, kept coherent by the shared state.
        self.index_folds: List[FoldedHistory] = [
            state.new_folded_history(length, self.index_bits)
            for length in self.history_lengths
        ]
        self.tag_folds: List[FoldedHistory] = [
            state.new_folded_history(length, cfg.tag_bits)
            for length in self.history_lengths
        ]
        self.tag_folds_alt: List[FoldedHistory] = [
            state.new_folded_history(length, max(cfg.tag_bits - 1, 1))
            for length in self.history_lengths
        ]
        # Per-table hot rows for predict_into: (tag list of the table,
        # index fold, tag fold, alternate tag fold, path mask, table xor).
        self._predict_rows = [
            (
                self.tables[table].tag,
                self.index_folds[table],
                self.tag_folds[table],
                self.tag_folds_alt[table],
                self._path_masks[table],
                table << 3,
            )
            for table in range(cfg.num_tables)
        ]
        # use_alt_on_new_alloc counter: when positive, prefer the alternate
        # prediction for weak (newly allocated) provider entries.
        self._use_alt = 0
        self._use_alt_max = (1 << (cfg.use_alt_counter_bits - 1)) - 1
        self._use_alt_min = -(1 << (cfg.use_alt_counter_bits - 1))
        # Deterministic pseudo-random source for allocation spreading.
        self._allocation_seed = 0x2545F491
        self._updates_since_reset = 0
        self._reset_column = 0

    # ------------------------------------------------------------------ #
    # Index and tag functions
    # ------------------------------------------------------------------ #

    def _table_index(self, pc: int, table: int) -> int:
        folded = self.index_folds[table].fold
        length = self.history_lengths[table]
        path = self.state.path_history.value(min(length, 16))
        value = pc ^ (pc >> (self.index_bits - 2)) ^ folded ^ (path << 1) ^ (table << 3)
        return (value ^ (value >> self.index_bits)) & mask(self.index_bits)

    def _table_tag(self, pc: int, table: int) -> int:
        tag_bits = self.config.tag_bits
        value = pc ^ (pc >> 7) ^ self.tag_folds[table].fold ^ (self.tag_folds_alt[table].fold << 1)
        return (value ^ (value >> tag_bits)) & mask(tag_bits)

    def _base_index(self, pc: int) -> int:
        return (pc ^ (pc >> self.base_index_bits)) & mask(self.base_index_bits)

    def _next_random(self) -> int:
        # xorshift32: cheap, deterministic allocation tie-breaking.
        seed = self._allocation_seed
        seed ^= (seed << 13) & 0xFFFFFFFF
        seed ^= seed >> 17
        seed ^= (seed << 5) & 0xFFFFFFFF
        self._allocation_seed = seed & 0xFFFFFFFF
        return self._allocation_seed

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #

    def predict(self, pc: int) -> TAGEPrediction:
        """Compute the TAGE prediction and its update context for ``pc``."""
        num_tables = self.config.num_tables
        result = TAGEPrediction(indices=[0] * num_tables, tags=[0] * num_tables)
        return self.predict_into(pc, result)

    def predict_into(self, pc: int, result: TAGEPrediction) -> TAGEPrediction:
        """Fill ``result`` (whose lists must be pre-sized) with the
        prediction context for ``pc``.

        The reference path's per-branch lookup, with the index and tag
        hash functions inlined over hoisted locals; the block form is
        :meth:`predict_train_block`.
        """
        index_bits = self.index_bits
        index_mask = self._index_mask
        tag_bits = self.config.tag_bits
        tag_mask = self._tag_mask
        path_bits = self.state.path_history.bits
        rows = self._predict_rows
        indices = result.indices
        tags = result.tags

        pc_index_part = pc ^ (pc >> (index_bits - 2))
        pc_tag_part = pc ^ (pc >> 7)
        base_index = (pc ^ (pc >> self.base_index_bits)) & self._base_mask
        result.base_index = base_index
        base = self.base
        base_prediction = base.values[base_index] >= base.midpoint

        provider = -1
        alt_provider = -1
        # Walk from the longest history down.  Once both the provider and
        # the alternate provider are known, no shorter table's index or tag
        # can be observed by the update phase (training touches the provider
        # entry, allocation only tables *above* the provider), so the walk
        # stops early; entries below it keep stale scratch values that are
        # never read.
        for table in range(len(rows) - 1, -1, -1):
            table_tags, index_fold, tag_fold, alt_fold, path_mask, table_xor = rows[table]
            value = (
                pc_index_part
                ^ index_fold.fold
                ^ ((path_bits & path_mask) << 1)
                ^ table_xor
            )
            index = (value ^ (value >> index_bits)) & index_mask
            indices[table] = index
            value = pc_tag_part ^ tag_fold.fold ^ (alt_fold.fold << 1)
            tag = (value ^ (value >> tag_bits)) & tag_mask
            tags[table] = tag
            if table_tags[index] == tag:
                if provider < 0:
                    provider = table
                else:
                    alt_provider = table
                    break
        return self._resolve(result, provider, alt_provider, base_prediction)

    def index_columns(self, block) -> Tuple[List[array], List[array], array]:
        """``(index columns, tag columns, base-index column)`` of a block.

        Column ``t`` holds :meth:`_table_index` / :meth:`_table_tag` of
        table ``t`` for every branch of the
        :class:`~repro.core.component.BlockColumns` ``block``, hashed in
        bulk (:mod:`repro.common.swar`) and unpacked in one batch
        (:meth:`~repro.core.component.BlockColumns.unpack`); a slot holds
        64 PC bits, which is exact because no index or tag reads a PC bit
        above ``3 * index_bits`` or ``tag_bits + 7``.
        """
        of = block.lanes.of
        mask64 = of(MASK64)
        pc = block.pc
        folds = block.folds
        index_bits = self.index_bits
        tag_bits = self.config.tag_bits
        index_mask = of(self._index_mask)
        tag_mask = of(self._tag_mask)
        pc_index = pc ^ ((pc >> (index_bits - 2)) & mask64)
        pc_tag = pc ^ ((pc >> 7) & mask64)
        columns = []
        for table in range(self.config.num_tables):
            value = (
                pc_index
                ^ folds[self.index_folds[table]]
                ^ ((block.path & of(self._path_masks[table])) << 1)
                ^ of(table << 3)
            )
            columns.append((value ^ (value >> index_bits)) & index_mask)
            value = pc_tag ^ folds[self.tag_folds[table]] ^ (folds[self.tag_folds_alt[table]] << 1)
            columns.append((value ^ (value >> tag_bits)) & tag_mask)
        columns.append((pc ^ (pc >> self.base_index_bits)) & of(self._base_mask))
        columns = block.unpack(columns, self._index_mask | self._tag_mask | self._base_mask)
        return columns[0:-1:2], columns[1:-1:2], columns[-1]

    def predict_train_block(self, block) -> bytearray:
        """Predict and train every branch of a block; the prediction column.

        ``block`` is the :class:`~repro.core.component.BlockColumns` of
        the pre-pass, whose folds and path hold the state before each
        branch, so every index and tag comes from :meth:`index_columns`.
        Per branch, in order: the early-stopping walk of
        :meth:`predict_into`, :meth:`_resolve` and :meth:`train_fields`,
        inlined over hoisted locals; allocation and useful decay stay
        method calls.  The use-alt counter and the update count live in
        locals and are written back at the end.  Entry ``k`` is TAGE's
        prediction for branch ``k`` (``0``/``1``).
        """
        cfg = self.config
        indices, tags, base_column = self.index_columns(block)
        tables = self.tables
        last = cfg.num_tables - 1
        walk = [(table, tables[table].tag, indices[table], tags[table]) for table in range(last, -1, -1)]
        scratch = TAGEPrediction(indices=[0] * cfg.num_tables, tags=[0] * cfg.num_tables)
        allocation_indices = scratch.indices
        allocation_tags = scratch.tags
        base = self.base
        base_values = base.values
        midpoint = base.midpoint
        base_maximum = base.maximum
        use_alt = self._use_alt
        use_alt_max = self._use_alt_max
        use_alt_min = self._use_alt_min
        updates = self._updates_since_reset
        period = cfg.useful_reset_period
        predictions = bytearray(block.n)
        for position, taken in enumerate(block.taken):
            provider = -1
            alt_provider = -1
            for table, table_tags, index_column, tag_column in walk:
                if table_tags[index_column[position]] == tag_column[position]:
                    if provider < 0:
                        provider = table
                    else:
                        alt_provider = table
                        break
            base_index = base_column[position]
            base_value = base_values[base_index]
            if alt_provider >= 0:
                alt_prediction = tables[alt_provider].ctr[indices[alt_provider][position]] >= 0
            else:
                alt_prediction = base_value >= midpoint
            train_base = True
            if provider >= 0:
                entry = tables[provider]
                index = indices[provider][position]
                ctr = entry.ctr
                useful = entry.useful
                value = ctr[index]
                provider_prediction = value >= 0
                if value == 0 or value == -1:
                    prediction = alt_prediction if use_alt >= 0 else provider_prediction
                    if provider_prediction != alt_prediction:
                        if alt_prediction == taken:
                            if use_alt < use_alt_max:
                                use_alt += 1
                        elif use_alt > use_alt_min:
                            use_alt -= 1
                else:
                    prediction = provider_prediction
                if provider_prediction != alt_prediction:
                    if provider_prediction == taken:
                        if useful[index] < entry.useful_max:
                            useful[index] += 1
                    elif useful[index] > 0:
                        useful[index] -= 1
                if taken:
                    if value < entry.counter_max:
                        ctr[index] = value + 1
                elif value > entry.counter_min:
                    ctr[index] = value - 1
                train_base = useful[index] == 0
            else:
                prediction = base_value >= midpoint
            if train_base:
                if taken:
                    if base_value < base_maximum:
                        base_values[base_index] = base_value + 1
                elif base_value > 0:
                    base_values[base_index] = base_value - 1
            predictions[position] = prediction
            if prediction != taken and provider < last:
                scratch.provider = provider
                for table in range(provider + 1, last + 1):
                    allocation_indices[table] = indices[table][position]
                    allocation_tags[table] = tags[table][position]
                self._allocate(taken, scratch)
            updates += 1
            if updates >= period:
                updates = 0
                self._decay_useful()
        self._use_alt = use_alt
        self._updates_since_reset = updates
        return predictions

    def _resolve(
        self, result: TAGEPrediction, provider: int, alt_provider: int, base_prediction: bool
    ) -> TAGEPrediction:
        """Fill ``result``'s predictions from the walk's provider tables."""
        tables = self.tables
        indices = result.indices
        result.provider = provider
        result.alt_provider = alt_provider

        if alt_provider >= 0:
            alt_prediction = tables[alt_provider].ctr[indices[alt_provider]] >= 0
        else:
            alt_prediction = base_prediction
        result.alt_prediction = alt_prediction

        if provider >= 0:
            ctr = tables[provider].ctr[indices[provider]]
            # A "weak" provider is a (likely newly allocated) entry whose
            # counter is at one of the two central values.
            provider_weak = ctr == 0 or ctr == -1
            result.provider_weak = provider_weak
            if provider_weak and self._use_alt >= 0:
                result.prediction = alt_prediction
            else:
                result.prediction = ctr >= 0
        else:
            result.provider_weak = False
            result.prediction = base_prediction
        return result

    # ------------------------------------------------------------------ #
    # Update
    # ------------------------------------------------------------------ #

    def train_fields(self, pc: int, taken: bool, prediction: TAGEPrediction) -> None:
        """Update TAGE state with the resolved outcome of the branch at ``pc``."""
        cfg = self.config
        provider = prediction.provider
        mispredicted = prediction.prediction != taken

        if provider >= 0:
            table = self.tables[provider]
            index = prediction.indices[provider]
            ctr = table.ctr
            useful = table.useful
            alt_prediction = prediction.alt_prediction
            provider_prediction = ctr[index] >= 0
            # Track whether the alternate prediction would have been better
            # for weak providers (use_alt_on_na policy).
            if prediction.provider_weak and provider_prediction != alt_prediction:
                if alt_prediction == taken:
                    if self._use_alt < self._use_alt_max:
                        self._use_alt += 1
                elif self._use_alt > self._use_alt_min:
                    self._use_alt -= 1
            # Useful bits: the provider was useful when it disagreed with the
            # alternate prediction and was right.
            if provider_prediction != alt_prediction:
                if provider_prediction == taken:
                    if useful[index] < table.useful_max:
                        useful[index] += 1
                elif useful[index] > 0:
                    useful[index] -= 1
            value = ctr[index]
            if taken:
                if value < table.counter_max:
                    ctr[index] = value + 1
            elif value > table.counter_min:
                ctr[index] = value - 1
            # Keep the base table warm when the provider entry is not yet
            # confidently useful.
            if useful[index] == 0:
                self._update_base(prediction.base_index, taken)
        else:
            self._update_base(prediction.base_index, taken)

        if mispredicted and provider < cfg.num_tables - 1:
            self._allocate(taken, prediction)

        self._updates_since_reset += 1
        if self._updates_since_reset >= cfg.useful_reset_period:
            self._updates_since_reset = 0
            self._decay_useful()

    def _update_base(self, index: int, taken: bool) -> None:
        """Inlined saturating step of the bimodal base table."""
        base = self.base
        values = base.values
        value = values[index]
        if taken:
            if value < base.maximum:
                values[index] = value + 1
        elif value > 0:
            values[index] = value - 1

    def _allocate(self, taken: bool, prediction: TAGEPrediction) -> None:
        """Allocate entries in longer-history tables after a misprediction."""
        cfg = self.config
        start = prediction.provider + 1
        # Randomly skip the first candidate table occasionally so allocations
        # spread across history lengths (classic TAGE trick).
        if start < cfg.num_tables - 1 and (self._next_random() & 1):
            start += 1
        allocated = 0
        for table_number in range(start, cfg.num_tables):
            table = self.tables[table_number]
            index = prediction.indices[table_number]
            if table.useful[index] == 0:
                table.tag[index] = prediction.tags[table_number]
                table.ctr[index] = 0 if taken else -1
                table.useful[index] = 0
                allocated += 1
                if allocated >= 1:
                    break
        if allocated == 0:
            # No free entry: age the candidates so a future allocation succeeds.
            for table_number in range(start, cfg.num_tables):
                table = self.tables[table_number]
                index = prediction.indices[table_number]
                if table.useful[index] > 0:
                    table.useful[index] -= 1

    def _decay_useful(self) -> None:
        """Periodically halve useful counters (graceful forgetting)."""
        for table in self.tables:
            useful = table.useful
            for index in range(table.entries):
                if useful[index]:
                    useful[index] >>= 1

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def storage_bits(self) -> int:
        cfg = self.config
        entry_bits = cfg.counter_bits + cfg.tag_bits + cfg.useful_bits
        tagged_bits = cfg.num_tables * cfg.table_entries * entry_bits
        base_bits = cfg.base_entries * cfg.base_counter_bits
        return tagged_bits + base_bits + cfg.use_alt_counter_bits


class TAGEPredictor(BranchPredictor):
    """Standalone TAGE predictor owning its shared state."""

    def __init__(self, config: Optional[TAGEConfig] = None, name: str = "tage") -> None:
        self.name = name
        config = config or TAGEConfig()
        self.state = SharedState(
            history_capacity=max(1024, config.max_history + 1)
        )
        self.engine = TAGEEngine(self.state, config)
        self._last: Optional[TAGEPrediction] = None

    def predict(self, record: BranchRecord) -> bool:
        self._last = self.engine.predict(record.pc)
        return self._last.prediction

    def update(self, record: BranchRecord, prediction: bool) -> None:
        if self._last is None:
            raise RuntimeError("update() called before predict()")
        self.engine.train_fields(record.pc, record.taken, self._last)
        self.state.update_conditional_fields(record.pc, record.target, record.taken)

    def observe_unconditional(self, record: BranchRecord) -> None:
        self.state.observe_pc(record.pc)

    def predict_update_block(self, pcs, targets, takens, kinds, gaps) -> bytearray:
        """Block step: consume a column sub-block, return its predictions.

        The engine's fast-path protocol (``docs/ENGINE.md``), run like the
        TAGE core of a shared-core group: the trace-only pre-pass
        (:meth:`SharedState.advance_block`), then
        :meth:`TAGEEngine.predict_train_block` over its columns.  Entry
        ``k`` of the returned column is the prediction (``0``/``1``) for
        the block's ``k``-th conditional row.
        """
        block = self.state.advance_block(pcs, targets, takens, kinds)
        return self.engine.predict_train_block(block)

    def storage_bits(self) -> int:
        return self.engine.storage_bits() + self.state.storage_bits()
