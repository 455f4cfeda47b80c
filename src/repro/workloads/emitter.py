"""Columnar emission of branches with stable synthetic program counters.

Workload kernels describe programs ("for each row, for each column, test a
condition ...").  The :class:`KernelEmitter` turns the control-flow events
of such a program into trace columns with *stable* PCs: every distinct
``label`` string used by a kernel maps to one synthetic instruction
address, allocated on the label's first use, so that the same static
branch always shows up at the same PC, just like in a real trace.

Backward conditional branches (loop back-edges) receive a target below
their own PC, which is what the IMLI heuristic and the loop predictor key
on.  Forward branches receive a target above their own PC.

Emission is columnar: each branch appends its PC, target, taken bit and
kind code to arrays, and :meth:`KernelEmitter.drain` returns them as a
:class:`~repro.trace.trace.Trace`; no record object is built per branch.
A record's invariants hold by construction: PCs and the gap are checked
once in the constructor, back-edge targets clamp at zero, and calls and
jumps are always taken.
"""

from __future__ import annotations

from array import array
from typing import Dict, Sequence

from repro.trace.branch import CONDITIONAL_CODE, KIND_TO_CODE, BranchKind, BranchRecord
from repro.trace.trace import Trace

__all__ = ["KernelEmitter"]

# Synthetic instruction addresses are spaced widely apart so that hashed
# predictor indices do not collide in degenerate ways for tiny programs.
_PC_STRIDE = 64
_FORWARD_TARGET_OFFSET = 24
_BACKWARD_TARGET_OFFSET = 40


class KernelEmitter:
    """Collects the branches emitted by workload kernels, as trace columns.

    Parameters
    ----------
    base_pc:
        First synthetic instruction address handed out.  Different kernels
        inside one benchmark use different ``base_pc`` values so their
        static branches do not alias.
    instruction_gap:
        Number of non-branch instructions assumed between consecutive
        branches (feeds the MPKI denominator); one constant per emitter.
    """

    def __init__(self, base_pc: int = 0x10000, instruction_gap: int = 4) -> None:
        if base_pc < 0:
            raise ValueError(f"base pc must be non-negative, got {base_pc}")
        if instruction_gap < 0:
            raise ValueError(
                f"instruction gap must be non-negative, got {instruction_gap}"
            )
        self.base_pc = base_pc
        self.instruction_gap = instruction_gap
        self._pcs: Dict[str, int] = {}
        self._clear()

    def _clear(self) -> None:
        self._pc = array("q")
        self._target = array("q")
        self._taken = array("b")
        self._kind = array("b")

    def __len__(self) -> int:
        return len(self._pc)

    def pc_for(self, label: str) -> int:
        """Return (allocating if needed) the PC associated with ``label``."""
        pc = self._pcs.get(label)
        if pc is None:
            pc = self.base_pc + len(self._pcs) * _PC_STRIDE
            self._pcs[label] = pc
        return pc

    def branch(self, label: str, taken: bool) -> None:
        """Emit a forward conditional branch (an ``if`` test)."""
        pc = self.pc_for(label)
        self._pc.append(pc)
        self._target.append(pc + _FORWARD_TARGET_OFFSET)
        self._taken.append(taken)
        self._kind.append(CONDITIONAL_CODE)

    def loop_branch(self, label: str, taken: bool) -> None:
        """Emit a backward conditional branch (a loop back-edge).

        ``taken`` means the loop continues for another iteration; a
        not-taken outcome is the loop exit.
        """
        pc = self.pc_for(label)
        self._pc.append(pc)
        self._target.append(max(pc - _BACKWARD_TARGET_OFFSET, 0))
        self._taken.append(taken)
        self._kind.append(CONDITIONAL_CODE)

    def call(self, label: str) -> None:
        """Emit an always-taken call instruction."""
        self._always_taken(label, KIND_TO_CODE[BranchKind.CALL])

    def jump(self, label: str) -> None:
        """Emit an always-taken unconditional direct jump."""
        self._always_taken(label, KIND_TO_CODE[BranchKind.UNCONDITIONAL])

    def _always_taken(self, label: str, kind: int) -> None:
        pc = self.pc_for(label)
        self._pc.append(pc)
        self._target.append(pc + _FORWARD_TARGET_OFFSET)
        self._taken.append(True)
        self._kind.append(kind)

    def _pending(self) -> Trace:
        trace = Trace("emitted")
        gaps = array("q", [self.instruction_gap]) * len(self._pc)
        trace.extend_columns(self._pc, self._target, self._taken, self._kind, gaps)
        return trace

    @property
    def records(self) -> Sequence[BranchRecord]:
        """Record view of the branches emitted since the last drain (a copy)."""
        return self._pending().records

    def drain(self) -> Trace:
        """Return the pending branches as a columnar trace, and clear them."""
        trace = self._pending()
        self._clear()
        return trace
