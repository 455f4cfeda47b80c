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
from functools import lru_cache
from typing import Callable, Deque, List, Optional, Tuple

from repro.common import swar
from repro.common.bits import log2_exact, mask, mix_hash
from repro.common.counters import SignedCounterArray
from repro.core.component import CounterSelection, IndexedComponent, SharedState

__all__ = ["IMLIOuterHistoryComponent", "OuterHistory"]


class OuterHistory:
    """The IMLI history table, the PIPE vector and the delayed writes.

    Parameters are those of :class:`IMLIOuterHistoryComponent` of the same
    names (``iterations_per_branch`` must be a power of two, as the table
    of the paper is).  :meth:`advance` records one resolved conditional
    branch and :meth:`advance_together` a block of them for several
    histories; the structure never reads a prediction.

    Between block walks the state lives packed in the histories' walk
    (:class:`_PackedWalk`).  ``history``, ``pipe``, ``_pending`` and
    ``_tick`` are derived from it when first read (as :meth:`advance`,
    ``recovered_outcomes`` and the PIPE checkpoint helpers do); from then
    on those views are the state, mutable in place, until the next walk
    packs them again.
    """

    __slots__ = (
        "tracked_branches", "iterations_per_branch", "update_delay",
        "branch_index_bits", "branch_index_mask", "_history", "_pipe", "_writes", "_ticks",
        "_packed", "_bit",
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
        # The walk takes the iteration number modulo the row as a bit mask.
        log2_exact(iterations_per_branch)
        # One outcome bit per (branch slot, inner iteration number).
        self._history = [0] * (tracked_branches * iterations_per_branch)
        # PIPE vector: one staged bit per branch slot.
        self._pipe = [0] * tracked_branches
        # Pending history-table writes: (cell, outcome, due_tick).  The PIPE
        # vector is always updated immediately -- it is speculative,
        # checkpointed state, not a commit-time table (Section 4.3.2).
        self._writes: Deque[Tuple[int, int, int]] = deque()
        self._ticks = 0
        # The walk holding this history's state, and its bit there.
        self._packed: Optional[_PackedWalk] = None
        self._bit = 0

    def _unpacked(self) -> "OuterHistory":
        if self._packed is not None:
            self._packed.unpack(self)
        return self

    @property
    def history(self) -> List[int]:
        """One outcome bit per (branch slot, inner iteration number)."""
        return self._unpacked()._history

    @property
    def pipe(self) -> List[int]:
        """The PIPE vector: one staged outcome bit per branch slot."""
        return self._unpacked()._pipe

    @property
    def _pending(self) -> Deque[Tuple[int, int, int]]:
        """Pending history-table writes ``(cell, outcome, due tick)``, by due tick."""
        return self._unpacked()._writes

    @property
    def _tick(self) -> int:
        """Conditional branches advanced over so far."""
        return self._unpacked()._ticks

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
        if self._packed is not None:
            self._packed.unpack(self)
        self._ticks += 1
        history = self._history
        pending = self._writes
        if pending:
            tick = self._ticks
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
        self._pipe[slot] = history[cell]
        if self.update_delay == 0:
            history[cell] = 1 if taken else 0
        else:
            pending.append((cell, 1 if taken else 0, self._ticks + self.update_delay))

    @property
    def walk_key(self) -> tuple:
        """Structures with equal keys advance in one :meth:`advance_together` walk."""
        return (OuterHistory, self.tracked_branches, self.iterations_per_branch)

    @staticmethod
    def advance_together(histories, block) -> List[Tuple[bytes, bytes]]:
        """:meth:`advance` over a block for outer histories of one geometry.

        ``block`` is the :class:`~repro.core.component.BlockColumns` of
        the conditional branches (its ``pc``, ``imli``, ``backward`` and
        ``taken``).  ``histories`` share
        ``tracked_branches`` and ``iterations_per_branch`` and differ in
        ``update_delay``.  Their history cells and PIPE slots are a
        function of the branch alone, and a write is the same outcome for
        every delay; only when it lands differs.  So the branches are
        hashed once, in bulk, and up to eight histories run in one walk
        over bit masks, one bit per history (:class:`_PackedWalk`), which
        stays packed from one block to the next.

        Returns one ``(same, previous)`` pair per history, in order:
        ``same[k]`` and ``previous[k]`` are ``Out[N-1][M]`` and
        ``Out[N-1][M-1]`` as branch ``k`` read them before its advance (its
        history cell and its PIPE bit), as ``0``/``1`` bytes.  Afterwards
        every history's table, PIPE vector, pending writes and tick are
        exactly where its own per-branch :meth:`advance` calls leave them.
        """
        columns = _walk_columns(histories[0], block)
        reads: List[Tuple[bytes, bytes]] = []
        for start in range(0, len(histories), 8):
            members = histories[start:start + 8]
            walk = members[0]._packed
            if walk is None or not walk.holds(members):
                walk = _PackedWalk(members)
            reads += walk.advance(members, *columns)
        return reads


def _walk_columns(history: OuterHistory, block) -> tuple:
    """``(cells, slots, stage_slots, write_cells, outcomes)`` of a block.

    Per conditional branch of ``block``, for histories of ``history``'s
    geometry: the cell and PIPE slot it reads, as computed by
    :meth:`OuterHistory.advance`, hashed in SWAR from the block's PC and
    IMLI-count columns (exact: the slot hash reads PC bits below
    ``3 * branch_index_bits`` only); the slot it stages and the cell it
    writes, the same for a forward branch and in the scratch half of the
    PIPE vector and table for a backward one, which records nothing; and
    its outcome (``0``/``1`` bytes).
    """
    of = block.lanes.of
    pc = block.pc
    width = history.branch_index_bits
    iteration_bits = log2_exact(history.iterations_per_branch)
    cell_bits = width + iteration_bits
    slot = (pc ^ (pc >> width) ^ (pc >> (2 * width))) & of(history.branch_index_mask)
    cell = (slot << iteration_bits) | (block.imli & of(history.iterations_per_branch - 1))
    backward = swar.pack_bytes(block.backward)
    cells, slots, stage_slots, write_cells = swar.unpack_many(
        [cell, slot, slot | (backward << width), cell | (backward << cell_bits)],
        block.n, cell_bits + 1,
    )
    return cells, slots, stage_slots, write_cells, block.taken


class _PackedWalk:
    """The state of up to eight outer histories of one geometry, packed.

    Member ``i``'s bits are bit ``i`` of the byte masks ``hist`` (one
    byte per history cell) and ``pipe`` (one per PIPE slot); each is
    followed by a scratch half as long, where backward branches stage
    and write.  :meth:`OuterHistory.advance` queues one write per
    branch, due ``delay`` ticks later, so a member's pending writes are
    the writes of its last ``delay`` branches: ``writes[i]`` and
    ``outcomes[i]`` hold their cells and outcomes, oldest first (a
    scratch cell where no write is pending), and each block's lag column
    continues from that tail.  ``ticks`` holds the members' ticks when
    packed, and ``walked`` the branches walked since.

    The members point to the walk (``_packed``, ``_bit``), not the walk
    to them, so no reference cycle keeps a finished group's histories
    alive.  A member that derives its own views (:meth:`unpack`) leaves
    the walk, so the walk no longer :meth:`holds` its members and
    advances no further: the other members derive theirs from it when
    they need them, and the next block packs a new walk.
    """

    __slots__ = ("size", "hist", "pipe", "writes", "outcomes", "ticks", "walked")

    def __init__(self, members: List[OuterHistory]) -> None:
        for member in members:
            member._unpacked()
        cells = len(members[0]._history)
        slots = len(members[0]._pipe)
        hist = pipe = 0
        self.writes = []
        self.outcomes = []
        for bit, member in enumerate(members):
            hist |= int.from_bytes(bytes(member._history), "little") << bit
            pipe |= int.from_bytes(bytes(member._pipe), "little") << bit
            writes = [cells] * member.update_delay
            outcomes = bytearray(member.update_delay)
            for cell, outcome, due in member._writes:
                writes[due - member._ticks - 1] = cell
                outcomes[due - member._ticks - 1] = outcome
            self.writes.append(writes)
            self.outcomes.append(bytes(outcomes))
        self.size = len(members)
        self.hist = bytearray(hist.to_bytes(cells, "little")) + bytes(cells)
        self.pipe = bytearray(pipe.to_bytes(slots, "little")) + bytes(slots)
        self.ticks = [member._ticks for member in members]
        self.walked = 0
        for bit, member in enumerate(members):
            member._packed = self
            member._bit = bit
            member._history = member._pipe = member._writes = None

    def holds(self, members: List[OuterHistory]) -> bool:
        """True when this walk holds exactly ``members``, in order."""
        return self.size == len(members) and all(
            member._packed is self and member._bit == bit for bit, member in enumerate(members)
        )

    def advance(
        self, members, cells, slots, stage_slots, write_cells, outcomes
    ) -> List[Tuple[bytes, bytes]]:
        """Walk one block (:func:`_walk_columns`); each member's reads.

        A write's outcome goes in as a byte holding its history's bit
        (or its delay-0 histories' bits) when taken, by one translation
        per column.
        """
        n = len(cells)
        zero_bits = 0
        lag_bits = []
        lags = []
        for bit, member in enumerate(members):
            if not member.update_delay:
                zero_bits |= 1 << bit
                continue
            writes = self.writes[bit]
            if not isinstance(writes, array):
                writes = array(write_cells.typecode, writes)
            writes += write_cells
            stream = self.outcomes[bit] + outcomes
            lag_bits.append(1 << bit)
            lags += (writes[:n], stream[:n].translate(_spread(1 << bit)))
            self.writes[bit] = writes[n:]
            self.outcomes[bit] = stream[n:]
        walk = _walk_loop(zero_bits, tuple(lag_bits))
        same, previous = walk(
            self.hist, self.pipe, cells, slots, stage_slots, write_cells,
            outcomes.translate(_spread(zero_bits)), *lags,
        )
        self.walked += n
        return [
            (same.translate(_BIT[bit]), previous.translate(_BIT[bit]))
            for bit in range(len(members))
        ]

    def unpack(self, member: OuterHistory) -> None:
        """Give ``member`` its own history, PIPE vector, pending writes and tick."""
        bit = member._bit
        cells = len(self.hist) // 2
        ticks = self.ticks[bit] + self.walked
        # The write of the branch ``delay - age`` back falls due at tick
        # ``ticks + 1 + age``; scratch cells made no write.
        member._writes = deque(
            (cell, outcome, ticks + 1 + age)
            for age, (cell, outcome) in enumerate(zip(self.writes[bit], self.outcomes[bit]))
            if cell < cells
        )
        member._history = list(self.hist[:cells].translate(_BIT[bit]))
        member._pipe = list(self.pipe[:len(self.pipe) // 2].translate(_BIT[bit]))
        member._ticks = ticks
        member._packed = None


@lru_cache(maxsize=None)
def _walk_loop(zero_bits: int, lag_bits: Tuple[int, ...]) -> Callable:
    """The per-branch loop of :meth:`_PackedWalk.advance`, generated per delay set.

    ``loop(hist, pipe, cells, slots, stage_slots, write_cells, fills,
    *lags)`` walks one block over the history-cell and PIPE bit masks
    ``hist`` and ``pipe`` (bytearrays, updated in place) and returns the
    ``(same, previous)`` masks each branch read, as bytes.  Per branch:
    the two reads; one write per delayed history, whose bit is in
    ``lag_bits`` and whose ``lags`` pair holds the write cells and
    outcomes (as that bit) of the branches ``delay`` back; the PIPE
    staging; and the write of the histories of delay 0 (``zero_bits``),
    whose outcomes ``fills`` holds as those bits.  Backward branches
    stage and write into the scratch halves, so no step tests the branch
    direction.  The writes are unrolled into straight-line code,
    compiled once per delay set as
    :func:`~repro.predictors.shared_core.head_kernel` is.
    """
    names = "".join(f"w{lag}, f{lag}, " for lag in range(len(lag_bits)))
    body = ["same_append(hist[cell])", "previous_append(pipe[slot])"]
    for lag, bit in enumerate(lag_bits):
        body.append(f"hist[w{lag}] = hist[w{lag}] & {0xFF ^ bit} | f{lag}")
    if zero_bits:
        body += [
            "pipe[stage] = value = hist[cell]",
            f"hist[write] = value & {0xFF ^ zero_bits} | fill",
        ]
        columns = "cell, slot, stage, write, fill, "
        sources = "cells, slots, stage_slots, write_cells, fills, "
    else:
        body.append("pipe[stage] = hist[cell]")
        columns = "cell, slot, stage, "
        sources = "cells, slots, stage_slots, "
    source = "\n".join([
        f"def loop(hist, pipe, cells, slots, stage_slots, write_cells, fills, {names}):",
        "    same = bytearray()",
        "    previous = bytearray()",
        "    same_append = same.append",
        "    previous_append = previous.append",
        f"    for {columns}{names}in zip({sources}{names}):",
        *(f"        {line}" for line in body),
        "    return bytes(same), bytes(previous)",
    ])
    namespace: dict = {}
    name = f"<outer-history walk {zero_bits} {lag_bits}>"
    exec(compile(source, name, "exec"), namespace)
    return namespace["loop"]


def _read_columns(block, index_mask: int) -> dict:
    """``mix_hash(pc, same, 2 * previous) & index_mask`` per distinct read.

    Keys are the ``(same, previous)`` reads of the outer histories in
    ``block.reads``; each distinct read is hashed once and all of them
    are unpacked in one batch.
    """
    reads = list(dict.fromkeys(
        read for structure, read in block.reads.items() if isinstance(structure, OuterHistory)
    ))
    columns = [
        block.index(index_mask, swar.pack_bytes(same), swar.pack_bytes(previous) << 1)
        for same, previous in reads
    ]
    return dict(zip(reads, block.unpack(columns, index_mask)))


#: ``_BIT[i]`` translates a byte of history masks to history ``i``'s bit.
_BIT = [bytes((value >> bit) & 1 for value in range(256)) for bit in range(8)]


@lru_cache(maxsize=None)
def _spread(bits: int) -> bytes:
    """Translation of outcome ``0``/``1`` bytes to ``0``/``bits``."""
    return bytes([0, bits]) + bytes(254)


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
        Inner-loop iteration numbers tracked per branch slot, a power of
        two (64 in the paper; ``tracked_branches * iterations_per_branch``
        is the history table size in bits, 1 Kbit in the paper).
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
        """The prediction-table index column, hashed per distinct read.

        Once per sub-block and index mask, :func:`_read_columns` hashes
        the column of every distinct read of the block's outer histories;
        components whose reads are equal share one column object.
        """
        index_mask = self.prediction_index_mask
        columns = block.hashed.get(("imli-oh", index_mask))
        if columns is None:
            columns = block.hashed[("imli-oh", index_mask)] = _read_columns(block, index_mask)
        return [columns[block.reads[self.outer]]]

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
