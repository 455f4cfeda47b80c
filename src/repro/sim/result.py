"""What one simulation produces, and the version of the semantics behind it.

:data:`ENGINE_VERSION` and :class:`SimulationResult` live in this leaf
module -- no predictor imports -- so the result store and the wire
protocol can handle results without loading the engine;
:mod:`repro.sim.engine` re-exports both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["ENGINE_VERSION", "SimulationResult"]

#: Version of the simulation semantics.  Bump whenever a change alters the
#: numbers :func:`~repro.sim.engine.simulate` produces for an unchanged (predictor, trace)
#: pair -- the persistent result store (:mod:`repro.store`) folds this into
#: its cell keys, so bumping it retires every stored result at once.
#: Pure-speed changes that keep results bit-identical must NOT bump it.
ENGINE_VERSION = 1


@dataclass
class SimulationResult:
    """Outcome of simulating one predictor over one trace."""

    trace_name: str
    predictor_name: str
    conditional_branches: int
    mispredictions: int
    instructions: int
    storage_bits: int
    per_pc_mispredictions: Dict[int, int] = field(default_factory=dict)

    @property
    def mpki(self) -> float:
        """Mispredictions per kilo-instruction."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.mispredictions / self.instructions

    @property
    def misprediction_rate(self) -> float:
        """Fraction of conditional branches mispredicted."""
        if self.conditional_branches == 0:
            return 0.0
        return self.mispredictions / self.conditional_branches

    @property
    def accuracy(self) -> float:
        """Fraction of conditional branches predicted correctly."""
        return 1.0 - self.misprediction_rate

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.predictor_name} on {self.trace_name}: "
            f"{self.mpki:.3f} MPKI "
            f"({self.mispredictions}/{self.conditional_branches} mispredicted, "
            f"{self.storage_bits / 1024:.1f} Kbits)"
        )
