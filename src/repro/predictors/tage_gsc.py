"""The TAGE-GSC predictor: TAGE backed by a global-history statistical corrector.

This is base predictor #1 of the paper (Section 3.2.1, Figure 4): the exact
TAGE-SC-L structure of the CBP4 winner with the loop predictor and the
local-history corrector components deactivated, leaving only global-history
state.  The IMLI components (and, for the "+L" configurations, the
local-history components) are added to the statistical corrector through
``extra_sc_components``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.component import NeuralComponent, SharedState
from repro.predictors.base import BranchPredictor
from repro.predictors.statistical_corrector import (
    CorrectorContext,
    StatisticalCorrector,
    StatisticalCorrectorConfig,
)
from repro.predictors.tage import TAGEConfig, TAGEEngine, TAGEPrediction
from repro.trace.branch import BranchRecord

__all__ = ["TAGEGSCConfig", "TAGEGSCPredictor"]


@dataclass(frozen=True)
class TAGEGSCConfig:
    """Configuration of the TAGE-GSC composite."""

    tage: TAGEConfig = TAGEConfig()
    corrector: StatisticalCorrectorConfig = StatisticalCorrectorConfig()
    history_capacity: int = 1024
    path_capacity: int = 32
    imli_counter_bits: int = 10


class TAGEGSCPredictor(BranchPredictor):
    """TAGE + global-history statistical corrector.

    Parameters
    ----------
    config:
        Geometry of both the TAGE engine and the corrector.
    extra_sc_components:
        Extra adder-tree inputs for the statistical corrector: the
        IMLI-SIC / IMLI-OH components of the paper or local-history tables.
    name:
        Report name of the configuration (defaults to ``"tage-gsc"``).
    """

    def __init__(
        self,
        config: Optional[TAGEGSCConfig] = None,
        extra_sc_components: Sequence[NeuralComponent] = (),
        name: str = "tage-gsc",
    ) -> None:
        self.name = name
        self.config = config or TAGEGSCConfig()
        history_capacity = max(
            self.config.history_capacity, self.config.tage.max_history + 1
        )
        self.state = SharedState(
            history_capacity=history_capacity,
            path_capacity=self.config.path_capacity,
            imli_counter_bits=self.config.imli_counter_bits,
        )
        self.tage = TAGEEngine(self.state, self.config.tage)
        self.corrector = StatisticalCorrector(
            self.state, self.config.corrector, extra_components=extra_sc_components
        )
        self._tage_ctx: Optional[TAGEPrediction] = None
        self._sc_ctx: Optional[CorrectorContext] = None
        num_tables = self.config.tage.num_tables
        self._tage_scratch = TAGEPrediction(
            indices=[0] * num_tables, tags=[0] * num_tables
        )
        self._sc_scratch = CorrectorContext()

    def predict(self, record: BranchRecord) -> bool:
        tage_ctx = self.tage.predict(record.pc)
        self.state.tage_prediction = tage_ctx.prediction
        sc_ctx = self.corrector.predict(record.pc, tage_ctx.prediction)
        self._tage_ctx = tage_ctx
        self._sc_ctx = sc_ctx
        return sc_ctx.final_prediction

    def update(self, record: BranchRecord, prediction: bool) -> None:
        if self._tage_ctx is None or self._sc_ctx is None:
            raise RuntimeError("update() called before predict()")
        self.tage.train(record, self._tage_ctx)
        self.corrector.train(record, self._sc_ctx)
        self.state.update_conditional(record)

    def predict_update(
        self, pc: int, target: int, taken: bool, kind: int = 0, gap: int = 0
    ) -> bool:
        """Combined predict-and-train fast path (see ``docs/PERFORMANCE.md``)."""
        state = self.state
        tage = self.tage
        tage_ctx = tage.predict_into(pc, self._tage_scratch)
        tage_prediction = tage_ctx.prediction
        state.tage_prediction = tage_prediction
        sc_ctx = self.corrector.predict_into(pc, tage_prediction, self._sc_scratch)
        prediction = sc_ctx.final_prediction
        tage.train_fields(pc, taken, tage_ctx)
        self.corrector.train_fields(pc, target, taken, sc_ctx)
        state.update_conditional_fields(pc, target, taken)
        return prediction

    def observe_unconditional(self, record: BranchRecord) -> None:
        self.state.update_unconditional(record)

    def observe_pc(self, pc: int) -> None:
        self.state.observe_pc(pc)

    def storage_bits(self) -> int:
        return (
            self.tage.storage_bits()
            + self.corrector.storage_bits()
            + self.state.storage_bits()
        )

    def speculative_state_bits(self) -> int:
        """Per-checkpoint speculative state (history pointers, IMLI, PIPE)."""
        return self.state.checkpoint_bits() + self.corrector.speculative_state_bits()
