"""The Inner Most Loop Iteration (IMLI) counter.

Section 4.1 of the paper defines the IMLI counter as *the number of times
that the last encountered backward conditional branch has been consecutively
taken*, tracked at instruction fetch time with the heuristic::

    if backward:
        if taken: IMLIcount += 1
        else:     IMLIcount = 0

Backward conditional branches are treated as loop back-edges, so the counter
is (approximately) the iteration index of the dynamically inner-most loop.
The counter is a handful of bits (10 in the paper's configuration) and its
speculative state is checkpointed like the global history head pointer,
which is the key practicality argument of the paper.
"""

from __future__ import annotations

__all__ = ["IMLIState"]


class IMLIState:
    """Tracks the Inner Most Loop Iteration counter.

    Parameters
    ----------
    counter_bits:
        Width of the hardware counter.  The count saturates at
        ``2**counter_bits - 1`` (it does not wrap), matching a saturating
        hardware register.
    """

    __slots__ = ("counter_bits", "maximum", "count")

    def __init__(self, counter_bits: int = 10) -> None:
        if counter_bits <= 0:
            raise ValueError(f"counter width must be positive, got {counter_bits}")
        self.counter_bits = counter_bits
        self.maximum = (1 << counter_bits) - 1
        self.count = 0

    def observe(self, is_backward: bool, taken: bool) -> None:
        """Apply the IMLI heuristic for one resolved conditional branch."""
        if not is_backward:
            return
        if taken:
            if self.count < self.maximum:
                self.count += 1
        else:
            self.count = 0

    def snapshot(self) -> int:
        """Return the counter value for checkpointing."""
        return self.count

    def restore(self, snapshot: int) -> None:
        """Restore a counter value saved by :meth:`snapshot`."""
        if not 0 <= snapshot <= self.maximum:
            raise ValueError(
                f"snapshot {snapshot} outside [0, {self.maximum}] for "
                f"{self.counter_bits}-bit IMLI counter"
            )
        self.count = snapshot

    def reset(self) -> None:
        """Clear the counter."""
        self.count = 0

    def storage_bits(self) -> int:
        """Number of state bits (the checkpointable cost of the counter)."""
        return self.counter_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IMLIState(count={self.count}, bits={self.counter_bits})"
