"""Neural predictor component interface and shared fetch state.

Both base predictors used in the paper -- the GEHL predictor and the
statistical corrector of TAGE-GSC -- are *adder trees*: they sum small
signed counters read from several tables and predict the sign of the sum.
The IMLI-SIC and IMLI-OH contributions of the paper are simply two more
tables feeding that sum, which is why they can be dropped into either
predictor family (Figures 5 and 6).

This module defines the plumbing that makes that composition possible:

* :class:`SharedState` -- the fetch-time state every component may read:
  global branch history, global path history, per-table folded histories,
  the IMLI counter, the trace-only structures components register on it
  (local-history tables, the IMLI-OH outer history) and the TAGE
  prediction (for statistical-corrector bias tables).  Everything on it
  except the TAGE prediction depends only on the branch stream, so one
  state can serve every predictor of a shared-core group.
* :class:`BlockColumns` -- what :meth:`SharedState.advance_block` returns:
  the state's values before each conditional branch of a sub-block, as
  columns, so a shared-core group computes every index of the sub-block
  ahead of its predictions.
* :class:`NeuralComponent` -- the interface of one adder-tree input: select
  counters at prediction time, train them at update time, and perform any
  private bookkeeping once the outcome is known.
* :class:`IndexedComponent` -- a component whose counters sit at hashed
  table indices named by a hashable
  :meth:`~IndexedComponent.index_key`, so a shared-core group hashes each
  distinct index once per sub-block and the heads only read and train
  counters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from itertools import compress
from operator import lt
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common import swar
from repro.common.bits import MIX_ROUND_KEY, mask
from repro.common.counters import SignedCounterArray
from repro.common.history import FoldedHistory, GlobalHistory, LocalHistoryTable, PathHistory
from repro.core.imli import IMLIState
from repro.trace.branch import CONDITIONAL_CODE

__all__ = [
    "BlockColumns", "CounterSelection", "IndexedComponent", "NeuralComponent", "SharedState",
]

#: A reference to one selected counter: (table, index).
CounterSelection = Tuple[SignedCounterArray, int]

#: Byte translations of the pre-pass: branch-kind code -> is conditional,
#: outcome -> 0/1, ``"0"``/``"1"`` -> 0/1 and back.
_CONDITIONAL = bytes(1 if code == CONDITIONAL_CODE else 0 for code in range(256))
_TRUTH = bytes([0] + [1] * 255)
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class BlockColumns:
    """Trace-only columns of the conditional branches of one sub-block.

    Built by :meth:`SharedState.advance_block`.  Position ``k`` is the
    ``k``-th of the sub-block's ``n`` conditional branches, and every
    column holds what the incremental state held just *before* that
    branch, when the components read it: ``pc``, ``path`` (the path
    register's low bits, see :meth:`SharedState.advance_block`) and
    ``imli`` as :mod:`~repro.common.swar` slot columns over ``lanes``;
    ``pc_round``, the PC round every index hash shares; ``folds``, one
    slot column per registered
    :class:`~repro.common.history.FoldedHistory` of non-zero length;
    ``reads``, what each trace-only structure's walk
    (``advance_together``) returned for it; ``hashed``, index columns
    that components of different keys may share, keyed by everything they
    are computed from.  ``index`` hashes slot columns and ``unpack``
    turns a batch of them into arrays.  ``pcs`` and ``taken`` are the
    branches' own fields, and ``backward`` marks ``target < pc``, both
    flags as ``0``/``1`` bytes.  ``tage``, set by a group with a TAGE core
    once the core has run, is its prediction per branch as a slot column
    (what :attr:`SharedState.tage_prediction` holds on the reference
    path).  The columns reference no predictor or group.
    """

    __slots__ = (
        "n", "lanes", "pc", "pc_round", "path", "imli", "folds", "reads", "hashed",
        "pcs", "taken", "backward", "tage",
    )

    def __init__(self, n: int, pc: int) -> None:
        self.n = n
        self.lanes = swar.Lanes(n)
        self.pc = pc
        self.pc_round = swar.mix_round(self.lanes, self.lanes.of(MIX_ROUND_KEY), pc, 0)
        self.folds: Dict[FoldedHistory, int] = {}
        self.reads: Dict[Any, Any] = {}
        self.hashed: Dict[tuple, Any] = {}

    def index(self, index_mask: int, *fields: int) -> int:
        """``mix_hash(pc, *fields) & index_mask`` per branch, as a slot column."""
        lanes = self.lanes
        return swar.mix_tail(lanes, self.pc_round, *fields) & lanes.of(index_mask)

    def unpack(self, columns: Sequence[int], index_mask: int) -> List[array]:
        """Slot columns of values up to ``index_mask`` as arrays, in one batch.

        ``index_mask`` is the widest mask of the batch; it sets the lane
        width of :func:`repro.common.swar.unpack_many`.
        """
        return swar.unpack_many(columns, self.n, index_mask.bit_length())


class SharedState:
    """Fetch-time state shared by all components of one predictor.

    The owning predictor creates a single :class:`SharedState` and hands it
    to every component.  Per branch, it calls
    :meth:`update_conditional_fields` (a conditional branch) or
    :meth:`observe_pc` (any other) exactly once, *after* the components
    have been trained for that branch; a shared-core group instead calls
    :meth:`advance_block` once per sub-block, *before* its heads read.

    Components that use folded global history must register their
    :class:`~repro.common.history.FoldedHistory` registers through
    :meth:`new_folded_history` so the shared state can keep them coherent
    with the global history register.  Components with other trace-only
    structures (local histories, the IMLI-OH outer history) register them
    through :meth:`trace_only`; the state advances each one once per
    conditional branch.  Registrations are deduplicated by geometry, so
    components with equal geometry over one state read one structure.
    """

    def __init__(
        self,
        history_capacity: int = 1024,
        path_capacity: int = 32,
        path_bits_per_branch: int = 2,
        imli_counter_bits: int = 10,
    ) -> None:
        self.global_history = GlobalHistory(history_capacity)
        self.path_history = PathHistory(path_capacity, path_bits_per_branch)
        self.imli = IMLIState(imli_counter_bits)
        self.tage_prediction: Optional[bool] = None
        self._trace_only: Dict[tuple, Any] = {}
        self._advances: List[Callable[[int, int, bool, int], None]] = []
        self._folded: List[FoldedHistory] = []
        # Hot mirror of ``_folded`` for the per-branch update loop: one
        # ``(register, dropped-bit mask, out-position mask, width, width
        # mask)`` row per non-trivial register, so the loop reads
        # precomputed locals instead of five attributes per register.
        # Zero-length folds are excluded (their update is a no-op).
        self._folded_hot: List[tuple] = []
        self._folded_by_shape: dict = {}

    def new_folded_history(self, length: int, width: int) -> FoldedHistory:
        """Create and register a folded view of the global history.

        A registered fold is a pure function of the shared global history,
        so two requests with the same ``(length, width)`` always hold
        identical values; the shared state therefore hands out one register
        per shape and updates it once per branch.  (TAGE's alternate tag
        folds, for example, coincide with its index folds whenever the
        index and alternate-tag widths match.)
        """
        shape = (length, width)
        folded = self._folded_by_shape.get(shape)
        if folded is not None:
            return folded
        # The incremental update reads the dropped bit from the global
        # history register, and the block form keeps a fold in one slot.
        if length > self.global_history.capacity:
            raise ValueError(
                f"folded history length {length} exceeds the global history "
                f"capacity ({self.global_history.capacity})"
            )
        if width > swar.FIELD_BITS:
            raise ValueError(
                f"folded history width {width} exceeds {swar.FIELD_BITS} bits"
            )
        folded = FoldedHistory(length, width)
        self._folded_by_shape[shape] = folded
        self._folded.append(folded)
        if length:
            self._folded_hot.append(
                (
                    folded,
                    1 << (length - 1),
                    1 << folded._out_position,
                    width,
                    folded.width_mask,
                )
            )
        return folded

    def trace_only(self, key: tuple, factory: Callable[[], Any]) -> Any:
        """Return the trace-only structure registered under ``key``.

        The first request calls ``factory()`` and registers the result; a
        later request with an equal key gets the same object.  ``key`` must
        name everything the structure's evolution depends on (its kind and
        geometry), because the structure must be a pure function of the
        branch stream for sharing to be exact.  The object's
        ``advance(pc, target, taken, imli_count)`` runs once per
        conditional branch in :meth:`update_conditional_fields`, after every
        component has read and trained for that branch and before the IMLI
        count moves.  In :meth:`advance_block` the structures are grouped
        by their ``walk_key`` and each group is advanced over the
        sub-block, in registration order, by its first member's
        ``advance_together(members, block)``, which reads the block's
        columns (IMLI count included) and returns what each member's
        components read from it before each branch (the IMLI-OH outer
        histories of one geometry share one walk for all their update
        delays).
        """
        structure = self._trace_only.get(key)
        if structure is None:
            structure = self._trace_only[key] = factory()
            self._advances.append(structure.advance)
        return structure

    def new_local_history(self, size: int, history_bits: int) -> LocalHistoryTable:
        """The local-history table of geometry ``(size, history_bits)``."""
        return self.trace_only(
            ("local", size, history_bits), lambda: LocalHistoryTable(size, history_bits)
        )

    def update_conditional_fields(self, pc: int, target: int, taken: bool) -> None:
        """Advance all shared histories with a resolved conditional branch.

        The folded-history maintenance is inlined (rather than calling
        :meth:`FoldedHistory.update` per register) because a large
        composite carries several dozen folded registers.
        """
        new_bit = 1 if taken else 0
        global_history = self.global_history
        history_bits = global_history.bits
        # Folded histories must observe the dropped bit *before* the global
        # history register shifts.
        for folded, drop_mask, out_mask, width, width_mask in self._folded_hot:
            fold = (folded.fold << 1) | new_bit
            if history_bits & drop_mask:
                fold ^= out_mask
            fold ^= fold >> width
            folded.fold = fold & width_mask
        global_history.bits = ((history_bits << 1) | new_bit) & global_history.capacity_mask
        if global_history.length < global_history.capacity:
            global_history.length += 1
        path_history = self.path_history
        path_history.bits = (
            (path_history.bits << path_history.bits_per_branch)
            | (pc & path_history.branch_mask)
        ) & path_history.capacity_mask
        imli = self.imli
        # Registered structures read the IMLI count of this branch.
        for advance in self._advances:
            advance(pc, target, taken, imli.count)
        # IMLI heuristic for a conditional branch (backward means target < pc).
        if target < pc:
            if taken:
                if imli.count < imli.maximum:
                    imli.count += 1
            else:
                imli.count = 0

    def advance_block(self, pcs, targets, takens, kinds) -> BlockColumns:
        """Advance the state over one sub-block of records; its columns.

        The block form of :meth:`update_conditional_fields` (conditional
        records) and :meth:`observe_pc` (the others), computed a column at
        a time: afterwards the state is exactly where those per-branch
        calls would have left it, and the returned :class:`BlockColumns`
        hold the values each conditional branch read.  The path column
        keeps the register's low ``min(capacity, 64 - 64 % bits per
        branch)`` bits (index hashes read at most 16).  Folds use the
        closed form of :func:`repro.common.swar.fold_columns` over the
        block's outcomes after an ``L``-bit carry from the global history
        register (``L`` the longest registered fold).
        """
        flags = bytes(kinds).translate(_CONDITIONAL)
        pc = swar.pack(pcs)
        path_column = self._advance_path(pcs, pc)
        if flags.count(0):
            pcs, targets, takens = (
                array(column.typecode, compress(column, flags))
                for column in (pcs, targets, takens)
            )
            pc = swar.pack(pcs)
            path_column = swar.pack(
                array("Q", compress(swar.unpack(path_column, len(flags)), flags))
            )
        n = len(pcs)
        block = BlockColumns(n, pc)
        block.path = path_column & block.lanes.full
        block.pcs = pcs
        block.taken = bytes(takens).translate(_TRUTH)
        block.backward = bytes(map(lt, targets, pcs))
        imli = self.imli
        count = imli.count
        maximum = imli.maximum
        counts = array("Q", bytes(8 * n))
        for position, (backward, taken) in enumerate(zip(block.backward, takens)):
            counts[position] = count
            if backward:
                count = (count + 1 if count < maximum else count) if taken else 0
        self._advance_folds(block)
        block.imli = swar.pack(counts)
        walks: Dict[Any, list] = {}
        for structure in self._trace_only.values():
            walks.setdefault(structure.walk_key, []).append(structure)
        for members in walks.values():
            block.reads.update(zip(members, members[0].advance_together(members, block)))
        imli.count = count
        return block

    def _advance_path(self, pcs, pc: int) -> int:
        """Path register before each record, as a slot column; advances it.

        ``pc`` is ``pcs`` packed (:func:`repro.common.swar.pack`).
        """
        path_history = self.path_history
        branch_bits = path_history.bits_per_branch
        branch_mask = path_history.branch_mask
        count = swar.FIELD_BITS // branch_bits
        carry = [
            (path_history.bits >> (branch_bits * age)) & branch_mask
            for age in range(count - 1, -1, -1)
        ]
        lanes = swar.Lanes(count + len(pcs) + 1)
        elements = (swar.pack(carry) | (pc << (swar.SLOT_BITS * count))) & lanes.of(branch_mask)
        column = swar.windows(lanes, elements, branch_bits, count) & lanes.of(
            mask(min(path_history.capacity, count * branch_bits))
        )
        bits = path_history.bits
        for pc in pcs[-(path_history.capacity // branch_bits + 1):]:
            bits = ((bits << branch_bits) | (pc & branch_mask)) & path_history.capacity_mask
        path_history.bits = bits
        return column >> (swar.SLOT_BITS * count)

    def _advance_folds(self, block: BlockColumns) -> None:
        """Fold columns of the block; advances the folds and global history."""
        n = block.n
        outcomes = block.taken
        global_history = self.global_history
        folded = [register for register in self._folded if register.length]
        if folded:
            carry = max(register.length for register in folded)
            lanes = swar.Lanes(carry + n + 1)
            stream = bytearray(swar.SLOT_BITS // 8 * (carry + n))
            stream[:: swar.SLOT_BITS // 8] = (
                format(global_history.bits & mask(carry), f"0{carry}b").encode("ascii")
                .translate(_FROM_DIGITS)
                + outcomes
            )
            recent = swar.windows(
                lanes, int.from_bytes(stream, "little"), 1,
                max(register.width for register in folded),
            )
            by_width: Dict[int, List[FoldedHistory]] = {}
            for register in folded:
                by_width.setdefault(register.width, []).append(register)
            for width, registers in by_width.items():
                columns = swar.fold_columns(
                    lanes, recent, width, [register.length for register in registers]
                )
                for register, column in zip(registers, columns):
                    column >>= swar.SLOT_BITS * carry
                    register.fold = column >> (swar.SLOT_BITS * n)
                    block.folds[register] = column & block.lanes.full
        global_history.bits = (
            (global_history.bits << n) | int(outcomes.translate(_TO_DIGITS) or b"0", 2)
        ) & global_history.capacity_mask
        global_history.length = min(global_history.capacity, global_history.length + n)

    def observe_pc(self, pc: int) -> None:
        """Advance the path history with a non-conditional branch at ``pc``."""
        self.path_history.push(pc)

    def storage_bits(self) -> int:
        """State bits held by the shared registers (histories + IMLI).

        Local-history tables count here; the IMLI-OH outer history counts
        in its component's :meth:`~NeuralComponent.storage_bits`.
        """
        bits = self.global_history.capacity
        bits += self.path_history.capacity
        bits += self.imli.storage_bits()
        for structure in self._trace_only.values():
            if isinstance(structure, LocalHistoryTable):
                bits += structure.storage_bits()
        return bits

    def checkpoint_bits(self) -> int:
        """Bits a misprediction-recovery checkpoint of this state needs.

        Global and path history only need their head pointers checkpointed
        (the registers themselves are circular buffers); the IMLI counter is
        checkpointed in full.  Local histories are *not* checkpointable this
        way -- they require an associative in-flight window search -- which
        is the paper's argument against them (Section 2.3.2).
        """
        global_pointer_bits = max(self.global_history.capacity.bit_length(), 1)
        path_pointer_bits = max(self.path_history.capacity.bit_length(), 1)
        return global_pointer_bits + path_pointer_bits + self.imli.storage_bits()


class NeuralComponent(ABC):
    """One input of an adder-tree (neural) predictor.

    Subclasses provide prediction-table counters selected from the branch PC
    and the :class:`SharedState`.  The owning predictor sums the selected
    counters (together with those of every other component), predicts the
    sign of the sum and trains the selected counters with the standard
    GEHL/statistical-corrector threshold rule.
    """

    #: Human-readable component name used in storage breakdowns.
    name: str = "component"

    def bind(self, state: SharedState) -> None:
        """Attach the component to the state of the predictor that owns it.

        Called once by the owning predictor's
        :class:`~repro.predictors.adder.AdderTree`.  Components with
        trace-only structures register them on ``state`` here (see
        :meth:`SharedState.trace_only`) and read them only after binding;
        the default does nothing.
        """

    @abstractmethod
    def select(self, pc: int, state: SharedState) -> List[CounterSelection]:
        """Return the counters this component contributes for branch ``pc``."""

    def select_sum(self, pc: int, state: SharedState) -> tuple:
        """Return ``(selections, contribution)`` for branch ``pc``.

        The contribution is the component's centred adder-tree input,
        ``sum(2 * counter + 1)`` over the counters :meth:`select` picks;
        the adder tree trains through the returned selections.
        """
        selections = self.select(pc, state)
        total = 0
        for table, index in selections:
            total += 2 * table.values[index] + 1
        return selections, total

    def train(
        self,
        pc: int,
        taken: bool,
        selections: List[CounterSelection],
        state: SharedState,
    ) -> None:
        """Train the counters selected at prediction time.

        The default moves every selected counter one step toward the
        outcome (the saturating-counter step is inlined -- this runs for
        every selected counter of every trained branch); components with
        bespoke training override this.
        """
        if taken:
            for table, index in selections:
                values = table.values
                value = values[index]
                if value < table.maximum:
                    values[index] = value + 1
        else:
            for table, index in selections:
                values = table.values
                value = values[index]
                if value > table.minimum:
                    values[index] = value - 1

    def on_outcome_fields(
        self, pc: int, target: int, taken: bool, state: SharedState
    ) -> None:
        """Bookkeeping hook invoked once per conditional branch outcome.

        Called after :meth:`train` and before the shared histories advance;
        the default does nothing.  Trace-only structures do not use this
        hook: they are registered on the state
        (:meth:`SharedState.trace_only`), which advances them.
        """

    @abstractmethod
    def storage_bits(self) -> int:
        """Number of storage bits the component's tables model."""

    def speculative_state_bits(self) -> int:
        """Bits of component state that must be checkpointed per branch.

        Zero for purely table-based components; the IMLI-OH component
        reports its PIPE vector here (Section 4.3.2 of the paper).
        """
        return 0


class IndexedComponent(NeuralComponent):
    """A component reading counters at indices hashed from trace-only state.

    Subclasses list their tables in ``counter_tables`` and give each hash
    in two forms: :meth:`select`, per branch from the branch PC and the
    :class:`SharedState` only (one selection per table of
    ``counter_tables``, in that order), which the reference path reads
    through the inherited :meth:`~NeuralComponent.select_sum`; and
    :meth:`index_columns`, the same hash for every branch of a sub-block.

    Two components with equal :meth:`index_key` over one state compute
    equal indices for every branch, so a shared-core group computes each
    distinct key's :meth:`index_columns` once per sub-block and reads and
    trains every head's ``counter_tables`` at those indices itself.  A key
    starts with the component's type, so a subclass that hashes
    differently never shares with its parent.
    """

    counter_tables: Sequence[SignedCounterArray] = ()

    @abstractmethod
    def index_key(self) -> tuple:
        """Hashable identity of the component's table indices."""

    @abstractmethod
    def index_columns(self, block: BlockColumns) -> list:
        """:meth:`select`'s indices for every branch of a block, in bulk.

        One ``array`` per table of ``counter_tables``: entry ``k`` of a
        column is the index :meth:`select` picks in that table for branch
        ``k`` over the state :meth:`SharedState.advance_block` recorded;
        a table indexed with the TAGE prediction reads ``block.tage``.
        """
