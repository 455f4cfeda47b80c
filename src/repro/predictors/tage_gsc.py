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

    def new_state(self) -> SharedState:
        """A fresh shared state sized for this geometry (and TAGE's history)."""
        return SharedState(
            history_capacity=max(self.history_capacity, self.tage.max_history + 1),
            path_capacity=self.path_capacity,
            imli_counter_bits=self.imli_counter_bits,
        )


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
        self.state = self.config.new_state()
        self.tage = TAGEEngine(self.state, self.config.tage)
        self.corrector = StatisticalCorrector(
            self.state, self.config.corrector, extra_components=extra_sc_components
        )
        self._tage_ctx: Optional[TAGEPrediction] = None
        self._sc_ctx: Optional[CorrectorContext] = None

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
        pc, target, taken = record.pc, record.target, record.taken
        self.tage.train_fields(pc, taken, self._tage_ctx)
        self.corrector.train_fields(pc, target, taken, self._sc_ctx)
        self.state.update_conditional_fields(pc, target, taken)

    def observe_unconditional(self, record: BranchRecord) -> None:
        self.state.observe_pc(record.pc)

    def storage_bits(self) -> int:
        return (
            self.tage.storage_bits()
            + self.corrector.storage_bits()
            + self.state.storage_bits()
        )

    def speculative_state_bits(self) -> int:
        """Per-checkpoint speculative state (history pointers, IMLI, PIPE)."""
        return self.state.checkpoint_bits() + self.corrector.speculative_state_bits()
