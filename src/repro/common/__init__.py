"""Shared low-level building blocks for branch predictors.

This package provides the small hardware-like primitives that every
predictor in :mod:`repro.predictors` and :mod:`repro.core` is built from:

* :mod:`repro.common.counters` -- saturating up/down counters (signed and
  unsigned) and packed counter arrays.
* :mod:`repro.common.bits` -- bit manipulation helpers: masking, folding,
  hashing of program counters and histories.
* :mod:`repro.common.history` -- global branch/path history registers,
  incrementally folded histories (as used by TAGE/GEHL index functions) and
  local history tables.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".bits": ("fold_bits", "hash_pc", "mask", "mix_hash", "rotate_left"),
    ".counters": (
        "SaturatingCounter", "SignedCounterArray", "SignedSaturatingCounter",
        "UnsignedCounterArray",
    ),
    ".history": ("FoldedHistory", "GlobalHistory", "LocalHistoryTable", "PathHistory"),
})

__all__ = [
    "FoldedHistory",
    "GlobalHistory",
    "LocalHistoryTable",
    "PathHistory",
    "SaturatingCounter",
    "SignedCounterArray",
    "SignedSaturatingCounter",
    "UnsignedCounterArray",
    "fold_bits",
    "hash_pc",
    "mask",
    "mix_hash",
    "rotate_left",
]
