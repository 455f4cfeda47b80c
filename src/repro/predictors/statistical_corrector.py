"""The (global-history) statistical corrector.

In TAGE-SC-L the statistical corrector (SC) is a small neural predictor
that confirms -- or, rarely, reverts -- the TAGE prediction when TAGE has
statistically mispredicted in similar circumstances (Section 3.2.1 of the
paper, Figure 5).  The corrector used here is the *global history*
statistical corrector (GSC): bias tables indexed with the PC (and with the
PC hashed with the TAGE prediction) plus a few global-history tables.

The IMLI-SIC and IMLI-OH components of the paper, and the local-history
tables of the "+L" configurations, plug into the same adder tree through
``extra_components``.

Decision rule: the corrector sum is computed over all components; when the
corrector disagrees with TAGE *and* the magnitude of its sum exceeds a
small confidence margin, the corrector's sign replaces the TAGE prediction,
otherwise the TAGE prediction stands.  This mirrors the role of the SC in
TAGE-SC-L: it reverts the main prediction only when it is confident, which
in practice happens rarely (TAGE is usually right and the PC+TAGE bias
tables then dominate the sum in TAGE's favour).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.component import NeuralComponent, SharedState
from repro.predictors.adder import AdderTree
from repro.predictors.components import BiasComponent, GlobalHistoryComponent
from repro.trace.branch import BranchRecord

__all__ = ["StatisticalCorrectorConfig", "StatisticalCorrector", "CorrectorContext"]


@dataclass(frozen=True)
class StatisticalCorrectorConfig:
    """Geometry of the statistical corrector."""

    bias_entries: int = 1024
    counter_bits: int = 6
    global_table_entries: int = 512
    global_history_lengths: Sequence[int] = (4, 9, 16, 27, 44)
    initial_threshold: int = 6
    #: Minimum |sum| for the corrector to revert the TAGE prediction.
    revert_margin: int = 5

    def __post_init__(self) -> None:
        if not self.global_history_lengths:
            raise ValueError("the corrector needs at least one global history length")
        if self.revert_margin < 0:
            raise ValueError(
                f"revert margin must be non-negative, got {self.revert_margin}"
            )


@dataclass
class CorrectorContext:
    """Prediction-time context cached between predict() and update()."""

    total: int = 0
    selections: list = field(default_factory=list)
    corrector_prediction: bool = True
    final_prediction: bool = True
    reverted: bool = False


class StatisticalCorrector:
    """Global-history statistical corrector over a shared fetch state."""

    def __init__(
        self,
        state: SharedState,
        config: Optional[StatisticalCorrectorConfig] = None,
        extra_components: Sequence[NeuralComponent] = (),
    ) -> None:
        self.config = config or StatisticalCorrectorConfig()
        self.state = state
        components: List[NeuralComponent] = [
            BiasComponent(
                entries=self.config.bias_entries,
                counter_bits=self.config.counter_bits,
                use_tage_prediction=True,
            ),
            GlobalHistoryComponent(
                state=state,
                history_lengths=list(self.config.global_history_lengths),
                entries=self.config.global_table_entries,
                counter_bits=self.config.counter_bits,
            ),
        ]
        components.extend(extra_components)
        self.adder = AdderTree(
            components, initial_threshold=self.config.initial_threshold, state=state
        )

    def predict(self, pc: int, tage_prediction: bool) -> CorrectorContext:
        """Compute the corrected prediction for ``pc``.

        ``state.tage_prediction`` must already be set so the bias component
        can index its TAGE-hashed table; it is passed explicitly as well to
        keep the decision logic readable.
        """
        return self.predict_into(pc, tage_prediction, CorrectorContext())

    def predict_into(
        self, pc: int, tage_prediction: bool, context: CorrectorContext
    ) -> CorrectorContext:
        """Fill ``context`` (reusable scratch) with the corrected prediction."""
        total, selections = self.adder.compute(pc, self.state)
        return self._decide(total, selections, tage_prediction, context)

    def predict_into_shared(
        self,
        pc: int,
        tage_prediction: bool,
        context: CorrectorContext,
        reads,
        shared,
    ) -> CorrectorContext:
        """:meth:`predict_into` over indices a shared-core group hashed once.

        ``reads`` and ``shared`` are those of
        :meth:`AdderTree.compute_with_shared`.  Bit-identical to
        :meth:`predict_into`.
        """
        total, selections = self.adder.compute_with_shared(pc, self.state, reads, shared)
        return self._decide(total, selections, tage_prediction, context)

    def _decide(
        self,
        total: int,
        selections: list,
        tage_prediction: bool,
        context: CorrectorContext,
    ) -> CorrectorContext:
        """Apply the confidence-margin revert rule to a computed sum."""
        context.total = total
        context.selections = selections
        corrector_prediction = total >= 0
        context.corrector_prediction = corrector_prediction
        if corrector_prediction != tage_prediction and (
            total if total >= 0 else -total
        ) >= self.config.revert_margin:
            context.final_prediction = corrector_prediction
            context.reverted = True
        else:
            context.final_prediction = tage_prediction
            context.reverted = False
        return context

    def train(self, record: BranchRecord, context: CorrectorContext) -> None:
        """Train the corrector with the resolved outcome."""
        force = context.final_prediction != record.taken
        self.adder.train(
            record, context.total, context.selections, self.state, force=force
        )

    def train_fields(
        self, pc: int, target: int, taken: bool, context: CorrectorContext
    ) -> None:
        """Field-based form of :meth:`train` (the per-branch hot path)."""
        self.adder.train_fields(
            pc,
            target,
            taken,
            context.total,
            context.selections,
            self.state,
            force=context.final_prediction != taken,
        )

    def storage_bits(self) -> int:
        return self.adder.storage_bits()

    def speculative_state_bits(self) -> int:
        return self.adder.speculative_state_bits()

    def component_storage_breakdown(self) -> List[tuple]:
        """Per-component storage report (name, bits)."""
        return self.adder.component_storage_breakdown()
