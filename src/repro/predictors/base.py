"""The branch predictor interface used by the trace-driven simulator.

All predictors in this library -- from the 2-bit bimodal baseline to the
TAGE-GSC + IMLI composite -- implement :class:`BranchPredictor`.  The
simulation engine (:mod:`repro.sim.engine`) drives them with the immediate
update discipline of the CBP championship framework (Section 3 of the
paper): ``predict`` is called for every conditional branch, followed
immediately by ``update`` with the resolved outcome;
``observe_unconditional`` is called for the other branch kinds so that path
history and similar structures can observe them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.trace.branch import BranchRecord

__all__ = ["BranchPredictor"]


class BranchPredictor(ABC):
    """Abstract trace-driven branch predictor.

    Implementations may assume the call sequence the simulator guarantees:
    for every conditional branch, :meth:`predict` is immediately followed by
    :meth:`update` for the same record, so prediction-time context (table
    indices, partial sums) can be cached on the instance between the two
    calls.
    """

    #: Human-readable predictor/configuration name used in reports.
    name: str = "predictor"

    @abstractmethod
    def predict(self, record: BranchRecord) -> bool:
        """Predict the direction of a conditional branch."""

    @abstractmethod
    def update(self, record: BranchRecord, prediction: bool) -> None:
        """Train the predictor with the resolved outcome of ``record``.

        ``prediction`` is the value previously returned by :meth:`predict`
        for this record (some update policies depend on whether the final
        prediction was correct rather than on internal component signals).
        """

    def observe_unconditional(self, record: BranchRecord) -> None:
        """Observe a non-conditional branch (default: ignore it)."""

    @abstractmethod
    def storage_bits(self) -> int:
        """Number of storage bits the predictor configuration models."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
