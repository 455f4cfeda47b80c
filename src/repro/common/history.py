"""Branch history registers.

Global-history predictors (TAGE, GEHL, gshare, the statistical corrector)
consume three kinds of history state, all modelled here:

* :class:`GlobalHistory` -- the global branch outcome history, a shift
  register of the most recent conditional branch outcomes.
* :class:`PathHistory` -- the global path history, a shift register of low
  PC bits of recent branches (taken or not), used by TAGE index hashing.
* :class:`FoldedHistory` -- an incrementally maintained XOR-fold of the most
  recent ``length`` global history bits down to ``width`` bits, mirroring
  the circular-shift-register trick used by hardware TAGE/GEHL
  implementations so that arbitrarily long histories cost O(1) per branch.
* :class:`LocalHistoryTable` -- per-branch (per-PC-hash) outcome histories,
  used by local-history predictor components and by the wormhole predictor.
"""

from __future__ import annotations

from array import array
from typing import List

from repro.common.bits import mask

__all__ = ["GlobalHistory", "PathHistory", "FoldedHistory", "LocalHistoryTable"]


class GlobalHistory:
    """Global conditional-branch outcome history.

    The history is stored as an integer whose bit 0 is the most recent
    outcome.  Only the ``capacity`` most recent outcomes are retained.
    """

    __slots__ = ("capacity", "bits", "length", "capacity_mask")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"history capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.capacity_mask = mask(capacity)
        self.bits = 0
        self.length = 0

    def push(self, taken: bool) -> None:
        """Append the outcome of the most recent conditional branch."""
        self.bits = ((self.bits << 1) | int(taken)) & self.capacity_mask
        if self.length < self.capacity:
            self.length += 1

    def value(self, length: int) -> int:
        """Return the most recent ``length`` outcomes as an integer."""
        if length < 0:
            raise ValueError(f"history length must be non-negative, got {length}")
        length = min(length, self.capacity)
        return self.bits & mask(length)

    def bit(self, age: int) -> int:
        """Return the outcome ``age`` branches ago (0 = most recent)."""
        if age < 0:
            raise ValueError(f"history age must be non-negative, got {age}")
        return (self.bits >> age) & 1

    def snapshot(self) -> int:
        """Return the raw history register for checkpointing."""
        return self.bits

    def restore(self, snapshot: int) -> None:
        """Restore a history register previously returned by :meth:`snapshot`."""
        self.bits = snapshot & mask(self.capacity)

    def reset(self) -> None:
        """Clear the history."""
        self.bits = 0
        self.length = 0


class PathHistory:
    """Global path history: a shift register of low PC bits of past branches."""

    __slots__ = ("capacity", "bits_per_branch", "bits", "capacity_mask", "branch_mask")

    def __init__(self, capacity: int, bits_per_branch: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"path history capacity must be positive, got {capacity}")
        if bits_per_branch <= 0:
            raise ValueError(
                f"bits per branch must be positive, got {bits_per_branch}"
            )
        self.capacity = capacity
        self.bits_per_branch = bits_per_branch
        self.capacity_mask = mask(capacity)
        self.branch_mask = mask(bits_per_branch)
        self.bits = 0

    def push(self, pc: int) -> None:
        """Append the low bits of the PC of the most recent branch."""
        low = pc & self.branch_mask
        self.bits = ((self.bits << self.bits_per_branch) | low) & self.capacity_mask

    def value(self, length: int) -> int:
        """Return the most recent ``length`` path bits as an integer."""
        if length < 0:
            raise ValueError(f"path length must be non-negative, got {length}")
        length = min(length, self.capacity)
        return self.bits & mask(length)

    def snapshot(self) -> int:
        """Return the raw path register for checkpointing."""
        return self.bits

    def restore(self, snapshot: int) -> None:
        """Restore a path register previously returned by :meth:`snapshot`."""
        self.bits = snapshot & mask(self.capacity)

    def reset(self) -> None:
        """Clear the path history."""
        self.bits = 0


class FoldedHistory:
    """Incrementally folded global history.

    Maintains ``fold == fold_bits(history[:length], length, width)`` while
    requiring only O(1) work per new outcome, exactly like the circular
    folded registers used in hardware TAGE and GEHL index functions.  The
    instance must be fed every global-history update *and* the bit that
    falls off the end of the window (which requires access to the backing
    :class:`GlobalHistory`).
    """

    __slots__ = ("length", "width", "fold", "width_mask", "_out_position")

    def __init__(self, length: int, width: int) -> None:
        if length < 0:
            raise ValueError(f"folded history length must be non-negative, got {length}")
        if width <= 0:
            raise ValueError(f"folded history width must be positive, got {width}")
        self.length = length
        self.width = width
        self.width_mask = mask(width)
        self.fold = 0
        # Bit position inside the fold where the oldest history bit lands.
        self._out_position = length % width if length else 0

    def update(self, new_bit: int, dropped_bit: int) -> None:
        """Shift in ``new_bit`` and retire ``dropped_bit`` from the window.

        ``dropped_bit`` is the global history bit that is ``length`` branches
        old *before* this update (it leaves the window as the new bit
        enters).  For ``length == 0`` the fold is always zero.
        """
        if self.length == 0:
            return
        fold = self.fold
        fold = (fold << 1) | (new_bit & 1)
        fold ^= (dropped_bit & 1) << self._out_position
        fold ^= fold >> self.width
        self.fold = fold & self.width_mask

    def value(self) -> int:
        """Current folded value (``width`` bits)."""
        return self.fold

    def snapshot(self) -> int:
        """Return the fold register for checkpointing."""
        return self.fold

    def restore(self, snapshot: int) -> None:
        """Restore a fold previously returned by :meth:`snapshot`."""
        self.fold = snapshot & mask(self.width)

    def reset(self) -> None:
        """Clear the fold."""
        self.fold = 0


class LocalHistoryTable:
    """Per-branch local outcome histories.

    The table is indexed by a hash of the branch PC; each entry is a shift
    register of the most recent outcomes of (branches mapping to) that entry.
    This is the structure whose *speculative* management the paper argues is
    too expensive for real hardware (Section 2.3.2).
    """

    __slots__ = (
        "size", "history_bits", "_index_bits", "index_mask", "history_mask", "entries",
    )

    def __init__(self, size: int, history_bits: int) -> None:
        if size <= 0:
            raise ValueError(f"table size must be positive, got {size}")
        if history_bits <= 0:
            raise ValueError(f"history width must be positive, got {history_bits}")
        if size & (size - 1):
            raise ValueError(f"table size must be a power of two, got {size}")
        self.size = size
        self.history_bits = history_bits
        self._index_bits = size.bit_length() - 1
        self.index_mask = size - 1
        self.history_mask = mask(history_bits)
        self.entries: List[int] = [0] * size

    def index(self, pc: int) -> int:
        """Table index for a branch PC (:func:`~repro.common.bits.hash_pc`)."""
        width = self._index_bits
        return (pc ^ (pc >> width) ^ (pc >> (2 * width))) & self.index_mask

    def read(self, pc: int) -> int:
        """Return the local history register associated with ``pc``."""
        width = self._index_bits
        return self.entries[(pc ^ (pc >> width) ^ (pc >> (2 * width))) & self.index_mask]

    def update(self, pc: int, taken: bool) -> None:
        """Shift the outcome of ``pc`` into its local history."""
        self.advance(pc, 0, taken, 0)

    def advance(self, pc: int, target: int, taken: bool, imli_count: int) -> None:
        """:meth:`update` in the form a ``SharedState`` calls once per branch."""
        width = self._index_bits
        entries = self.entries
        index = (pc ^ (pc >> width) ^ (pc >> (2 * width))) & self.index_mask
        entries[index] = ((entries[index] << 1) | (1 if taken else 0)) & self.history_mask

    @property
    def walk_key(self) -> "LocalHistoryTable":
        """Each table walks alone (a state holds one table per geometry)."""
        return self

    @staticmethod
    def advance_together(tables, block) -> List[array]:
        """:meth:`advance` over a block's ``pcs`` and ``taken`` columns.

        Returns, per table, the history each branch read first.
        """
        (table,) = tables
        width = table._index_bits
        index_mask = table.index_mask
        history_mask = table.history_mask
        entries = table.entries
        reads = array("Q", bytes(8 * block.n))
        for position, (pc, taken) in enumerate(zip(block.pcs, block.taken)):
            index = (pc ^ (pc >> width) ^ (pc >> (2 * width))) & index_mask
            history = reads[position] = entries[index]
            entries[index] = ((history << 1) | taken) & history_mask
        return [reads]

    def reset(self) -> None:
        """Clear every local history."""
        self.entries = [0] * self.size

    def storage_bits(self) -> int:
        """Total number of storage bits this table models."""
        return self.size * self.history_bits
