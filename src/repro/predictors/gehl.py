"""The GEHL predictor (GEometric History Length predictor).

GEHL (Seznec, 2005) is the neural-inspired global-history base predictor of
the paper (Section 3.2.2): a set of prediction tables indexed with the
branch PC hashed with global histories of geometric lengths, summed by an
adder tree, with threshold-based training and dynamic threshold fitting.

The paper's configuration uses 17 tables of 2K 6-bit counters and a maximum
history length of 600 (204 Kbits).  The default configuration here is
scaled down to the synthetic workloads (shorter traces, fewer static
branches) but keeps the same structure; the ``GEHLConfig`` dataclass exposes
every knob.

Extra adder-tree components -- the IMLI-SIC and IMLI-OH tables of the paper
(Figure 6), or local-history tables for the FTL-style "+L" configurations --
are passed through ``extra_components``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.component import NeuralComponent, SharedState
from repro.predictors.adder import AdderTree
from repro.predictors.base import BranchPredictor
from repro.predictors.components import (
    BiasComponent,
    GlobalHistoryComponent,
    geometric_history_lengths,
)
from repro.trace.branch import BranchRecord

__all__ = ["GEHLConfig", "GEHLPredictor"]


@dataclass(frozen=True)
class GEHLConfig:
    """Geometry of a GEHL predictor."""

    num_tables: int = 8
    table_entries: int = 1024
    counter_bits: int = 6
    min_history: int = 3
    max_history: int = 200
    bias_entries: int = 1024
    initial_threshold: int = 8
    history_capacity: int = 1024
    path_capacity: int = 32
    imli_counter_bits: int = 10

    def history_lengths(self) -> List[int]:
        """Geometric history lengths, one per history-indexed table."""
        return geometric_history_lengths(
            self.num_tables, self.min_history, self.max_history
        )


@dataclass
class _GEHLContext:
    """Prediction-time context cached between predict() and update()."""

    total: int = 0
    selections: list = field(default_factory=list)


class GEHLPredictor(BranchPredictor):
    """A standalone GEHL predictor with optional extra adder-tree components.

    Parameters
    ----------
    config:
        Table geometry; defaults to the library's scaled-down configuration.
    extra_components:
        Additional :class:`NeuralComponent` inputs (IMLI-SIC, IMLI-OH,
        local-history tables) appended to the adder tree.
    name:
        Report name for this configuration (defaults to ``"gehl"``).
    """

    def __init__(
        self,
        config: Optional[GEHLConfig] = None,
        extra_components: Sequence[NeuralComponent] = (),
        name: str = "gehl",
    ) -> None:
        self.name = name
        self.config = config or GEHLConfig()
        self.state = SharedState(
            history_capacity=self.config.history_capacity,
            path_capacity=self.config.path_capacity,
            imli_counter_bits=self.config.imli_counter_bits,
        )
        components: List[NeuralComponent] = [
            BiasComponent(
                entries=self.config.bias_entries,
                counter_bits=self.config.counter_bits,
                use_tage_prediction=False,
            ),
            GlobalHistoryComponent(
                state=self.state,
                history_lengths=self.config.history_lengths(),
                entries=self.config.table_entries,
                counter_bits=self.config.counter_bits,
            ),
        ]
        components.extend(extra_components)
        self.adder = AdderTree(
            components, initial_threshold=self.config.initial_threshold, state=self.state
        )
        self._ctx = _GEHLContext()

    def predict(self, record: BranchRecord) -> bool:
        total, selections = self.adder.compute(record.pc, self.state)
        self._ctx.total = total
        self._ctx.selections = selections
        return total >= 0

    def update(self, record: BranchRecord, prediction: bool) -> None:
        self.adder.train(record, self._ctx.total, self._ctx.selections, self.state)
        self.state.update_conditional(record)

    def predict_update(
        self, pc: int, target: int, taken: bool, kind: int = 0, gap: int = 0
    ) -> bool:
        """Combined predict-and-train fast path (see ``docs/PERFORMANCE.md``)."""
        state = self.state
        adder = self.adder
        total, selections = adder.compute(pc, state)
        adder.train_fields(pc, target, taken, total, selections, state)
        state.update_conditional_fields(pc, target, taken)
        return total >= 0

    def observe_unconditional(self, record: BranchRecord) -> None:
        self.state.update_unconditional(record)

    def observe_pc(self, pc: int) -> None:
        self.state.observe_pc(pc)

    def storage_bits(self) -> int:
        return self.adder.storage_bits() + self.state.storage_bits()

    def speculative_state_bits(self) -> int:
        """Per-checkpoint speculative state (history pointers, IMLI, PIPE)."""
        return self.state.checkpoint_bits() + self.adder.speculative_state_bits()
