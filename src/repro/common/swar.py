"""Bulk column arithmetic over Python big ints, one branch per 128-bit slot.

The trace-only pre-pass of a shared-core group (see ``docs/ENGINE.md``)
computes a whole block of index and tag columns at once instead of one
branch at a time.  It stays stdlib-only with SIMD-within-a-register
(SWAR) arithmetic: a column of ``n`` values becomes one Python int whose
``k``-th 128-bit slot holds value ``k``, so one big-int multiply, XOR,
AND or shift processes the whole column in C.

Exactness rests on keeping every slot value below ``2**64`` between
operations:

* adding a 64-bit constant to a 64-bit slot gives at most 65 bits and a
  64 x 64-bit product at most 128, so neither carries into the next slot;
* a right shift moves the low bits of slot ``k + 1`` into the top of slot
  ``k``, and a left shift moves slot ``k`` into slot ``k + 1``; every
  shift is therefore followed by a mask that keeps each slot's own low
  bits (:meth:`Lanes.of` of the mask replicates it into every slot).

:func:`mix_round` and :func:`mix_final` are the splitmix rounds of
:func:`repro.common.bits.mix_hash` under those rules, so slot ``k`` of
``mix_tail(lanes, mix_round(lanes, lanes.of(MIX_ROUND_KEY), a, 0), b)``
equals ``mix_hash(a[k] mod 2**64, b[k] mod 2**64, width=64)``; the absorb step
``(a + key) & MASK64`` depends only on ``a mod 2**64``, which is what a
slot holds.  :func:`windows` and :func:`fold_columns` give the closed
form of :class:`~repro.common.history.FoldedHistory` (see there).
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, List, Sequence

from repro.common.bits import MASK64, MIX_FINAL_MULTIPLIER, MIX_ROUND_KEY, MIX_ROUND_MULTIPLIER

__all__ = [
    "FIELD_BITS",
    "SLOT_BITS",
    "Lanes",
    "fold_columns",
    "mix_final",
    "mix_round",
    "mix_tail",
    "pack",
    "pack_bytes",
    "unpack",
    "windows",
]

#: Width of one slot: room for a full 64 x 64-bit product.
SLOT_BITS = 128
#: Widest value a slot carries between operations (fields, folds, windows).
FIELD_BITS = 64

_BIG_ENDIAN = sys.byteorder == "big"


class Lanes:
    """Per-slot constants of an ``n``-slot column (memoized per value)."""

    __slots__ = ("n", "ones", "full", "_constants")

    def __init__(self, n: int) -> None:
        self.n = n
        self.ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
        self.full = (1 << (SLOT_BITS * n)) - 1
        self._constants: Dict[int, int] = {}

    def of(self, value: int) -> int:
        """``value`` (below ``2**SLOT_BITS``) replicated into every slot."""
        constant = self._constants.get(value)
        if constant is None:
            constant = self._constants[value] = value * self.ones
        return constant


def pack(values: Sequence[int]) -> int:
    """One slot per value, each taken modulo ``2**64``."""
    if getattr(values, "itemsize", 0) == 8:
        words = array("Q", values.tobytes())  # two's complement: mod 2**64
    else:
        words = array("Q", [value & MASK64 for value in values])
    slots = array("Q", bytes(16 * len(words)))
    slots[::2] = words
    if _BIG_ENDIAN:
        slots.byteswap()
    return int.from_bytes(slots, "little")


def pack_bytes(values: bytes) -> int:
    """:func:`pack` of byte values: one slot per byte, from C-level copies."""
    slots = bytearray(SLOT_BITS // 8 * len(values))
    slots[:: SLOT_BITS // 8] = values
    return int.from_bytes(slots, "little")


def unpack(column: int, n: int) -> array:
    """The low 64 bits of the first ``n`` slots of ``column``, as an array."""
    slots = array("Q", (column & ((1 << (SLOT_BITS * n)) - 1)).to_bytes(16 * n, "little"))
    if _BIG_ENDIAN:
        slots.byteswap()
    return slots[::2]


def mix_round(lanes: Lanes, acc: int, field: int, position: int) -> int:
    """Absorb ``field`` as field number ``position`` of ``mix_hash``."""
    mask64 = lanes.of(MASK64)
    acc ^= (field + lanes.of(MIX_ROUND_KEY + position)) & mask64
    acc = (acc * MIX_ROUND_MULTIPLIER) & mask64
    return acc ^ ((acc >> 27) & mask64)


def mix_final(lanes: Lanes, acc: int) -> int:
    """The final avalanche of ``mix_hash`` (64-bit result per slot)."""
    mask64 = lanes.of(MASK64)
    acc = (acc * MIX_FINAL_MULTIPLIER) & mask64
    return acc ^ ((acc >> 31) & mask64)


def mix_tail(lanes: Lanes, acc: int, *fields: int) -> int:
    """Absorb ``fields`` as field numbers 1, 2, ... after a PC round; finalise.

    ``acc`` is ``mix_round(lanes, lanes.of(MIX_ROUND_KEY), pc, 0)``, which
    every index hash of one block shares.
    """
    for position, field in enumerate(fields, 1):
        acc = mix_round(lanes, acc, field, position)
    return mix_final(lanes, acc)


def windows(lanes: Lanes, elements: int, element_bits: int, count: int) -> int:
    """Slot ``i``: elements ``i-1, i-2, ...`` packed most recent first.

    ``elements`` holds one ``element_bits``-bit element per slot; slot
    ``i`` of the result is ``sum(e[i-1-j] << (element_bits * j))`` over
    the ``count`` most recent elements (elements before slot 0 are zero),
    by doubling the window ``log2(count)`` times.  ``element_bits *
    count`` must not exceed :data:`FIELD_BITS`.
    """
    full = lanes.full
    acc = (elements << SLOT_BITS) & full
    width = 1
    while width < count:
        acc |= (acc << ((SLOT_BITS + element_bits) * width)) & full
        width *= 2
    return acc & lanes.of((1 << (element_bits * count)) - 1)


def fold_columns(lanes: Lanes, recent: int, width: int, lengths: Sequence[int]) -> List[int]:
    """Closed-form fold columns of ``(length, width)`` folded histories.

    ``recent`` is the :func:`windows` column of 64 one-bit outcomes over
    a stream that starts from an all-zero history; the result holds one
    column per entry of ``lengths``.  Slot ``i`` of a column is
    ``XOR_{m<length} h[i-1-m] << (m mod width)``, the value of a
    :class:`~repro.common.history.FoldedHistory` fed the first ``i``
    outcomes.  Stepping it ``width`` times is a rotation by ``width``
    (the identity) plus the ``width`` outcomes that entered and the
    ``width`` that left, so ``fold[i] = fold[i-width] ^ G[i] ^
    rot(G[i-length], length mod width)`` with ``G`` the ``width`` most
    recent outcomes.  A prefix XOR with stride ``width`` (by doubling)
    solves that recurrence from the zero history, and it is linear and
    commutes with slot shifts and in-slot rotations, so with ``P`` the
    prefix XOR of ``G`` every fold is ``P ^ rot(P << length slots,
    length mod width)``: one prefix per width serves every length.
    """
    full = lanes.full
    window_mask = lanes.of((1 << width) - 1)
    prefix = recent & window_mask
    stride = width
    while stride < lanes.n:
        prefix ^= (prefix << (SLOT_BITS * stride)) & full
        stride *= 2
    columns = []
    for length in lengths:
        left = (prefix << (SLOT_BITS * length)) & full
        shift = length % width
        if shift:
            left = ((left << shift) | (left >> (width - shift))) & window_mask
        columns.append(prefix ^ left)
    return columns
