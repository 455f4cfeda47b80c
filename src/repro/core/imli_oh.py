"""The IMLI-OH (Outer History) predictor component.

Section 4.3 of the paper: for a branch B in the inner loop of a
two-dimensional loop nest, the outcome ``Out[N][M]`` is sometimes
correlated with the outcomes of the *same branch* in neighbouring inner
iterations of the *previous outer iteration*, ``Out[N-1][M]`` and
``Out[N-1][M-1]`` -- the correlation targeted by the wormhole predictor.

IMLI-OH recovers those two outcomes with two small structures:

* The **IMLI history table** (1 Kbit in the paper): outcome of branch B is
  stored at address ``(B * 64) + IMLIcount``, i.e. the table holds, per
  tracked branch, one outcome per inner-loop iteration number.  When
  predicting ``Out[N][M]``, the entry at ``(B, M)`` still holds
  ``Out[N-1][M]`` because the current outer iteration has not reached it
  yet.
* The **PIPE vector** (Previous Inner iteration in Previous External
  iteration, 16 bits): before the entry at ``(B, M)`` is overwritten with
  the new outcome, its old value is staged into ``PIPE[B]`` so that on the
  *next* inner iteration it still provides ``Out[N-1][M-1]`` even though the
  history table entry was already overwritten.

The IMLI-OH prediction table (256 entries in the paper) is indexed with the
PC hashed with the two recovered outcome bits and feeds the same adder tree
as IMLI-SIC.

The history table, the PIPE vector and the pending delayed writes are
written from resolved outcomes only, so they form an :class:`OuterHistory`
that depends on the branch stream alone.  A component bound to a
predictor's :class:`~repro.core.component.SharedState` registers it there
by geometry, and the state advances it once per branch; components with
equal geometry over one state (the heads of a shared-core group) read one
structure.

Speculative state: only the 16-bit PIPE vector (plus the IMLI counter
handled by the owning predictor) needs checkpointing.  Precise speculative
management of the history table is not required; the paper validates this
with a delayed-update experiment which :class:`IMLIOuterHistoryComponent`
reproduces through its ``update_delay`` parameter.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.common import swar
from repro.common.bits import log2_exact, mask, mix_hash, mix_hash3
from repro.common.counters import SignedCounterArray
from repro.core.component import CounterSelection, IndexedComponent, SharedState

__all__ = ["IMLIOuterHistoryComponent", "OuterHistory"]


class OuterHistory:
    """The IMLI history table, the PIPE vector and the delayed writes.

    Parameters are those of :class:`IMLIOuterHistoryComponent` of the same
    names.  :meth:`advance` records one resolved conditional branch; the
    structure never reads a prediction.
    """

    __slots__ = (
        "tracked_branches", "iterations_per_branch", "update_delay",
        "branch_index_bits", "branch_index_mask", "history", "pipe", "_pending", "_tick",
    )

    def __init__(
        self, tracked_branches: int, iterations_per_branch: int, update_delay: int
    ) -> None:
        if update_delay < 0:
            raise ValueError(f"update delay must be non-negative, got {update_delay}")
        self.tracked_branches = tracked_branches
        self.iterations_per_branch = iterations_per_branch
        self.update_delay = update_delay
        self.branch_index_bits = log2_exact(tracked_branches)
        self.branch_index_mask = mask(self.branch_index_bits)
        # One outcome bit per (branch slot, inner iteration number).
        self.history = [0] * (tracked_branches * iterations_per_branch)
        # PIPE vector: one staged bit per branch slot.
        self.pipe = [0] * tracked_branches
        # Pending history-table writes: (cell, outcome, due_tick).  The PIPE
        # vector is always updated immediately -- it is speculative,
        # checkpointed state, not a commit-time table (Section 4.3.2).
        self._pending: Deque[Tuple[int, int, int]] = deque()
        self._tick = 0

    def slot(self, pc: int) -> int:
        """Branch slot of ``pc`` (:func:`~repro.common.bits.hash_pc`)."""
        width = self.branch_index_bits
        return (pc ^ (pc >> width) ^ (pc >> (2 * width))) & self.branch_index_mask

    def advance(self, pc: int, target: int, taken: bool, imli_count: int) -> None:
        """Record the resolved outcome of one conditional branch.

        Backward conditional branches (loop back-edges) are not recorded:
        their outcomes are almost always "taken", they are already covered
        by the loop predictor / IMLI-SIC, and recording them would only
        pollute the rows of the loop-body branches IMLI-OH targets.  They
        still advance the delayed-write clock.
        """
        self._tick += 1
        pending = self._pending
        if pending:
            history = self.history
            tick = self._tick
            while pending and pending[0][2] <= tick:
                cell, outcome, _ = pending.popleft()
                history[cell] = outcome
        if target < pc:
            return
        width = self.branch_index_bits
        slot = (pc ^ (pc >> width) ^ (pc >> (2 * width))) & self.branch_index_mask
        cell = slot * self.iterations_per_branch + (imli_count % self.iterations_per_branch)
        # Stage the previous-outer-iteration outcome into the PIPE vector
        # before the cell is overwritten with the current outcome.  This is
        # the speculative, checkpointed part of the state and is never
        # delayed.
        self.pipe[slot] = self.history[cell]
        if self.update_delay == 0:
            self.history[cell] = 1 if taken else 0
        else:
            pending.append((cell, 1 if taken else 0, self._tick + self.update_delay))

    def advance_block(self, pcs, targets, takens, imli_counts) -> Tuple[array, array]:
        """:meth:`advance` over a block; ``(same, previous)`` read columns.

        ``same[k]`` and ``previous[k]`` are ``Out[N-1][M]`` and
        ``Out[N-1][M-1]`` as branch ``k`` read them before its advance:
        its history cell and its PIPE bit.
        """
        n = len(pcs)
        same = array("Q", bytes(8 * n))
        previous = array("Q", bytes(8 * n))
        history = self.history
        pipe = self.pipe
        pending = self._pending
        width = self.branch_index_bits
        slot_mask = self.branch_index_mask
        iterations = self.iterations_per_branch
        delay = self.update_delay
        tick = self._tick
        for position in range(n):
            pc = pcs[position]
            slot = (pc ^ (pc >> width) ^ (pc >> (2 * width))) & slot_mask
            cell = slot * iterations + (imli_counts[position] % iterations)
            same[position] = history[cell]
            previous[position] = pipe[slot]
            tick += 1
            while pending and pending[0][2] <= tick:
                written, outcome, _ = pending.popleft()
                history[written] = outcome
            if targets[position] < pc:
                continue
            pipe[slot] = history[cell]
            if delay == 0:
                history[cell] = 1 if takens[position] else 0
            else:
                pending.append((cell, 1 if takens[position] else 0, tick + delay))
        self._tick = tick
        return same, previous


class IMLIOuterHistoryComponent(IndexedComponent):
    """IMLI outer-history tracking plus its prediction table.

    Parameters
    ----------
    prediction_entries:
        Entries of the IMLI-OH prediction table (256 in the paper).
    counter_bits:
        Width of the signed prediction counters (6 in the paper).
    tracked_branches:
        Number of distinct branch slots in the IMLI history table (16 in
        the paper -- the PIPE vector has one bit per slot).
    iterations_per_branch:
        Inner-loop iteration numbers tracked per branch slot (64 in the
        paper; ``tracked_branches * iterations_per_branch`` is the history
        table size in bits, 1 Kbit in the paper).
    update_delay:
        Number of subsequent conditional branches after which a branch's
        write into the IMLI history table becomes visible.  ``0`` models
        immediate update; the paper's experiment uses 63 to model a very
        large instruction window (Section 4.3.2).

    The component's :class:`OuterHistory` is trace-only state: :meth:`bind`
    registers it on the owning predictor's shared state, which advances it
    once per conditional branch, so the component only reads it (its
    :meth:`on_outcome_fields` is the inherited no-op).  The history, the
    PIPE vector and the predictions are available once bound.
    """

    name = "imli-oh"

    def __init__(
        self,
        prediction_entries: int = 256,
        counter_bits: int = 6,
        tracked_branches: int = 16,
        iterations_per_branch: int = 64,
        update_delay: int = 0,
    ) -> None:
        if update_delay < 0:
            raise ValueError(f"update delay must be non-negative, got {update_delay}")
        self.branch_index_bits = log2_exact(tracked_branches)
        self.prediction_index_bits = log2_exact(prediction_entries)
        self.prediction_index_mask = mask(self.prediction_index_bits)
        self.table = SignedCounterArray(prediction_entries, counter_bits)
        self.counter_tables = (self.table,)
        self.tracked_branches = tracked_branches
        self.iterations_per_branch = iterations_per_branch
        self.update_delay = update_delay
        self.outer: Optional[OuterHistory] = None
        # compute_indices memo: PC -> (history-table slot, the PC's four
        # index tuples by 2 * Out[N-1][M] + Out[N-1][M-1]).
        self._indices_by_pc: Dict[int, Tuple[int, tuple]] = {}

    def bind(self, state: SharedState) -> None:
        geometry = (self.tracked_branches, self.iterations_per_branch, self.update_delay)
        self.outer = state.trace_only(("imli-oh",) + geometry, lambda: OuterHistory(*geometry))

    @property
    def history(self) -> List[int]:
        """The IMLI history table (one outcome bit per slot and iteration)."""
        return self.outer.history

    @property
    def pipe(self) -> List[int]:
        """The PIPE vector (one staged outcome bit per branch slot)."""
        return self.outer.pipe

    # ------------------------------------------------------------------ #
    # Outer-history recovery
    # ------------------------------------------------------------------ #

    def _slot(self, pc: int) -> int:
        return self.outer.slot(pc)

    def _cell(self, slot: int, imli_count: int) -> int:
        return slot * self.iterations_per_branch + (imli_count % self.iterations_per_branch)

    def recovered_outcomes(self, pc: int, imli_count: int) -> Tuple[int, int]:
        """Return ``(Out[N-1][M], Out[N-1][M-1])`` for branch ``pc``.

        ``Out[N-1][M]`` comes from the IMLI history table, ``Out[N-1][M-1]``
        from the PIPE vector (see the module docstring for why).
        """
        slot = self._slot(pc)
        return self.outer.history[self._cell(slot, imli_count)], self.outer.pipe[slot]

    # ------------------------------------------------------------------ #
    # IndexedComponent interface
    # ------------------------------------------------------------------ #

    def select(self, pc: int, state: SharedState) -> List[CounterSelection]:
        same, previous = self.recovered_outcomes(pc, state.imli.count)
        return [(self.table, mix_hash(pc, same, 2 * previous, width=self.prediction_index_bits))]

    def index_key(self) -> tuple:
        return (type(self), self.prediction_index_bits, self.outer)

    def compute_indices(self, pc: int, state: SharedState) -> Tuple[int]:
        # The two recovered outcomes are single bits, so a PC has only four
        # possible indices: hashed once per PC, then picked by the bits.
        outer = self.outer
        entry = self._indices_by_pc.get(pc)
        if entry is None:
            index_mask = self.prediction_index_mask
            entry = self._indices_by_pc[pc] = (
                outer.slot(pc),
                tuple(
                    (mix_hash3(pc, same, 2 * previous) & index_mask,)
                    for same in (0, 1)
                    for previous in (0, 1)
                ),
            )
        slot, choices = entry
        iterations = self.iterations_per_branch
        same = outer.history[slot * iterations + (state.imli.count % iterations)]
        return choices[2 * same + outer.pipe[slot]]

    def index_columns(self, block) -> list:
        same, previous = block.reads[self.outer]
        return [block.index(self.prediction_index_mask, swar.pack(same), swar.pack(previous) << 1)]

    def select_sum_at(self, indices: Sequence[int]) -> tuple:
        table = self.table
        index = indices[0]
        return [(table, index)], 2 * table.values[index] + 1

    def storage_bits(self) -> int:
        prediction_bits = self.table.storage_bits()
        history_bits = self.tracked_branches * self.iterations_per_branch
        pipe_bits = self.tracked_branches
        return prediction_bits + history_bits + pipe_bits

    def speculative_state_bits(self) -> int:
        """The PIPE vector is the only per-checkpoint state (16 bits)."""
        return self.tracked_branches

    # ------------------------------------------------------------------ #
    # Checkpointing helpers used by repro.core.speculative
    # ------------------------------------------------------------------ #

    def snapshot_pipe(self) -> Tuple[int, ...]:
        """Return a copy of the PIPE vector for checkpointing."""
        return tuple(self.outer.pipe)

    def restore_pipe(self, snapshot: Tuple[int, ...]) -> None:
        """Restore a PIPE vector saved by :meth:`snapshot_pipe`."""
        pipe = self.outer.pipe
        if len(snapshot) != len(pipe):
            raise ValueError(
                f"PIPE snapshot has {len(snapshot)} bits, expected {len(pipe)}"
            )
        pipe[:] = snapshot
