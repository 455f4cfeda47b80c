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

from collections import deque
from functools import lru_cache
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.common import swar
from repro.common.bits import log2_exact, mask, mix_hash
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

    @property
    def walk_key(self) -> tuple:
        """Structures with equal keys advance in one :meth:`advance_together` walk."""
        return (OuterHistory, self.tracked_branches, self.iterations_per_branch)

    @staticmethod
    def advance_together(histories, pcs, targets, takens, imli_counts) -> List[Tuple[bytes, bytes]]:
        """:meth:`advance` over a block for outer histories of one geometry.

        ``histories`` share ``tracked_branches`` and
        ``iterations_per_branch`` and differ in ``update_delay``.  Their
        history cells and PIPE slots are a function of the branch alone,
        and a write is the same outcome for every delay; only when it lands
        differs.  So the branches are hashed once, and up to eight
        histories run in one walk over bit masks, one bit per history: a
        cell's mask holds that cell in every history, a slot's mask that
        PIPE bit.  A read and a PIPE staging then serve every delay at
        once, and only the delayed writes are applied one bit at a time,
        bucketed by the position at which each history's write lands.

        Returns one ``(same, previous)`` pair per history, in order:
        ``same[k]`` and ``previous[k]`` are ``Out[N-1][M]`` and
        ``Out[N-1][M-1]`` as branch ``k`` read them before its advance (its
        history cell and its PIPE bit), as ``0``/``1`` bytes.  Afterwards
        every history's table, PIPE vector, pending writes and tick are
        exactly where its own per-branch :meth:`advance` calls leave them.
        """
        reads: List[Tuple[bytes, bytes]] = []
        for start in range(0, len(histories), 8):
            reads += OuterHistory._walk(histories[start:start + 8], pcs, targets, takens, imli_counts)
        return reads

    @staticmethod
    def _walk(histories, pcs, targets, takens, imli_counts) -> List[Tuple[bytes, bytes]]:
        """:meth:`advance_together` for at most eight histories."""
        first = histories[0]
        n = len(pcs)
        width = first.branch_index_bits
        slot_mask = first.branch_index_mask
        iterations = first.iterations_per_branch
        slots = [(pc ^ (pc >> width) ^ (pc >> (2 * width))) & slot_mask for pc in pcs]
        cells = [slot * iterations + count % iterations for slot, count in zip(slots, imli_counts)]
        # Per branch: its history write ``(cell, outcome)``, or None for a
        # backward branch (not recorded).
        records = [
            None if target < pc else (cell, 1 if taken else 0)
            for pc, target, taken, cell in zip(pcs, targets, takens, cells)
        ]
        # History i's writes land in bit i of the masks.  A pending write is
        # applied at the first position whose tick reaches its due tick,
        # after that branch's reads and before its PIPE staging, as in
        # advance(); delay 0 writes right after the staging.  So at
        # position k a history of delay d >= 1 applies the write of branch
        # k - d (its lag column, ``records`` shifted by d), and the pending
        # writes it carried into the block where they fall due.
        carried: Dict[int, list] = {}
        lag_bits = []
        lags = []
        zero_bits = 0
        cell_masks = 0
        pipe_masks = 0
        pendings = []
        for bit_index, history in enumerate(histories):
            bit = 1 << bit_index
            tick = history._tick
            pending: Deque[Tuple[int, int, int]] = deque()
            for entry in history._pending:
                cell, outcome, due = entry
                position = due - tick - 1
                if position >= n:
                    pending.append(entry)
                else:
                    carried.setdefault(max(position, 0), []).append(
                        (cell, 0xFF ^ bit, bit if outcome else 0)
                    )
            delay = history.update_delay
            if delay == 0:
                zero_bits |= bit
            else:
                if delay < n:
                    lag_bits.append(bit)
                    lags.append([None] * delay + records[:n - delay])
                pending.extend(
                    (*records[position], tick + position + 1 + delay)
                    for position in range(max(n - delay, 0), n)
                    if records[position] is not None
                )
            pendings.append(pending)
            cell_masks |= int.from_bytes(bytes(history.history), "little") << bit_index
            pipe_masks |= int.from_bytes(bytes(history.pipe), "little") << bit_index
        hist = bytearray(cell_masks.to_bytes(len(first.history), "little"))
        pipe = bytearray(pipe_masks.to_bytes(len(first.pipe), "little"))
        if carried:
            events = [None] * n
            for position, writes in carried.items():
                events[position] = writes
            lags.append(events)
        walk = _walk_loop(zero_bits, tuple(lag_bits), bool(carried))
        same, previous = walk(hist, pipe, cells, slots, records, *lags)
        reads = []
        for bit_index, (history, pending) in enumerate(zip(histories, pendings)):
            bit = _BIT[bit_index]
            history.history[:] = hist.translate(bit)
            history.pipe[:] = pipe.translate(bit)
            history._pending = pending
            history._tick += n
            reads.append((same.translate(bit), previous.translate(bit)))
        return reads


@lru_cache(maxsize=None)
def _walk_loop(zero_bits: int, lag_bits: Tuple[int, ...], carried: bool) -> Callable:
    """The per-branch loop of :meth:`OuterHistory._walk`, generated per delay set.

    ``loop(hist, pipe, cells, slots, records, *lags)`` walks one block over
    the history-cell and PIPE bit masks ``hist`` and ``pipe`` (bytearrays,
    updated in place) and returns the ``(same, previous)`` masks each
    branch read, as bytes.  ``zero_bits`` marks the histories of delay 0,
    which write right after the PIPE staging; ``lag_bits`` holds one bit
    per delayed history whose write lands inside the block, and ``lags``
    that history's lag column (the write landing at each position, or
    ``None``), then, when ``carried``, the list of pending writes carried
    into the block that land at each position (``(cell, keep, value)``
    masks), or ``None``.  The lag writes are unrolled into straight-line
    code, compiled once per delay set as
    :func:`~repro.predictors.shared_core.head_kernel` is.
    """
    names = "".join(f"w{lag}, " for lag in range(len(lag_bits)))
    if carried:
        names += "events, "
    body = ["same_append(hist[cell])", "previous_append(pipe[slot])"]
    if carried:
        body += [
            "if events is not None:",
            "    for written, keep, value in events:",
            "        hist[written] = hist[written] & keep | value",
        ]
    for lag, bit in enumerate(lag_bits):
        body += [
            f"if w{lag} is not None:",
            f"    written, outcome = w{lag}",
            f"    hist[written] = hist[written] | {bit} if outcome"
            f" else hist[written] & {0xFF ^ bit}",
        ]
    body += ["if record is not None:", "    pipe[slot] = value = hist[cell]"]
    if zero_bits:
        body.append(
            f"    hist[cell] = value | {zero_bits} if record[1] else value & {0xFF ^ zero_bits}"
        )
    source = "\n".join([
        f"def loop(hist, pipe, cells, slots, records, {names}):",
        "    same = bytearray()",
        "    previous = bytearray()",
        "    same_append = same.append",
        "    previous_append = previous.append",
        f"    for cell, slot, record, {names}in zip(cells, slots, records, {names}):",
        *(f"        {line}" for line in body),
        "    return bytes(same), bytes(previous)",
    ])
    namespace: dict = {}
    name = f"<outer-history walk {zero_bits} {lag_bits} {carried}>"
    exec(compile(source, name, "exec"), namespace)
    return namespace["loop"]


#: ``_BIT[i]`` translates a byte of history masks to history ``i``'s bit.
_BIT = [bytes((value >> bit) & 1 for value in range(256)) for bit in range(8)]


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

    def index_columns(self, block) -> list:
        """The prediction-table index column, hashed once per distinct read.

        Outer histories of different update delays often read the same
        outcomes over a whole sub-block; components whose mask and reads
        are equal then share one column object (``block.hashed``).
        """
        same, previous = block.reads[self.outer]
        key = (self.prediction_index_mask, same, previous)
        column = block.hashed.get(key)
        if column is None:
            column = block.hashed[key] = block.index(
                self.prediction_index_mask, swar.pack_bytes(same), swar.pack_bytes(previous) << 1
            )
        return [column]

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
