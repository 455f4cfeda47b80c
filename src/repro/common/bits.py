"""Bit-manipulation helpers used by predictor index and tag functions.

Branch predictors are built from tables indexed by hashes of the branch
program counter (PC) and various history registers.  Hardware implements
these hashes with simple XOR/shift networks; we mirror that style here so
the Python model stays close to what a real design would compute.

All helpers operate on non-negative Python integers and return values that
fit in the requested number of bits.
"""

from __future__ import annotations

__all__ = [
    "mask",
    "rotate_left",
    "fold_bits",
    "hash_pc",
    "mix_hash",
    "bit_at",
    "is_power_of_two",
    "log2_exact",
]


def mask(width: int) -> int:
    """Return a bit mask of ``width`` ones (``mask(3) == 0b111``).

    Parameters
    ----------
    width:
        Number of low-order bits to keep.  Must be non-negative.
    """
    if width < 0:
        raise ValueError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def rotate_left(value: int, amount: int, width: int) -> int:
    """Rotate ``value`` left by ``amount`` within a ``width``-bit register."""
    if width <= 0:
        raise ValueError(f"rotate width must be positive, got {width}")
    amount %= width
    value &= mask(width)
    return ((value << amount) | (value >> (width - amount))) & mask(width)


def fold_bits(value: int, input_width: int, output_width: int) -> int:
    """Fold ``input_width`` bits of ``value`` down to ``output_width`` bits.

    The fold is the XOR of consecutive ``output_width``-wide slices, the
    classic way long branch histories are compressed into a table index.
    With ``output_width == 0`` the result is ``0`` (an empty fold).
    """
    if output_width < 0:
        raise ValueError(f"output width must be non-negative, got {output_width}")
    if output_width == 0 or input_width <= 0:
        return 0
    value &= mask(input_width)
    folded = 0
    while value:
        folded ^= value & mask(output_width)
        value >>= output_width
    return folded


def hash_pc(pc: int, width: int) -> int:
    """Hash a program counter down to ``width`` bits.

    The PC is XOR-folded with two shifted copies of itself, which spreads
    nearby instruction addresses across the table while remaining cheap.
    """
    if width <= 0:
        raise ValueError(f"hash width must be positive, got {width}")
    value = pc ^ (pc >> width) ^ (pc >> (2 * width))
    return value & mask(width)


#: Constants of the splitmix64-style rounds used by :func:`mix_hash`.  The
#: block form of the same hash (:mod:`repro.common.swar`) must produce
#: exactly the same values, so the constants are shared.
MASK64 = 0xFFFFFFFFFFFFFFFF
MIX_ROUND_KEY = 0x9E3779B97F4A7C15
MIX_ROUND_MULTIPLIER = 0xBF58476D1CE4E5B9
MIX_FINAL_MULTIPLIER = 0x94D049BB133111EB


def mix_hash(*values: int, width: int) -> int:
    """Combine several integer fields into one ``width``-bit index.

    The fields are absorbed into a 64-bit accumulator with a splitmix64-style
    multiply/xor-shift round per field and a final avalanche step, so that
    fields with few distinct values (for example a small loop-iteration
    counter) still influence all index bits.
    """
    if width <= 0:
        raise ValueError(f"hash width must be positive, got {width}")
    acc = MIX_ROUND_KEY
    for position, value in enumerate(values):
        acc ^= (value + MIX_ROUND_KEY + position) & MASK64
        acc = (acc * MIX_ROUND_MULTIPLIER) & MASK64
        acc ^= acc >> 27
    acc = (acc * MIX_FINAL_MULTIPLIER) & MASK64
    acc ^= acc >> 31
    return acc & mask(width)


def bit_at(value: int, position: int) -> int:
    """Return bit ``position`` of ``value`` (0 or 1)."""
    if position < 0:
        raise ValueError(f"bit position must be non-negative, got {position}")
    return (value >> position) & 1


def is_power_of_two(value: int) -> bool:
    """Return ``True`` when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return ``log2(value)`` for an exact power of two, else raise."""
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1
