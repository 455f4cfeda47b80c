"""Tests for the GEHL predictor, the statistical corrector and TAGE-GSC."""

from __future__ import annotations

import random

import pytest

from repro.core.imli_sic import IMLISameIterationComponent
from repro.predictors.components import LocalHistoryComponent
from repro.predictors.gehl import GEHLConfig, GEHLPredictor
from repro.predictors.simple import AlwaysTakenPredictor, BimodalPredictor
from repro.predictors.statistical_corrector import (
    StatisticalCorrector,
    StatisticalCorrectorConfig,
)
from repro.predictors.tage import TAGEConfig
from repro.predictors.tage_gsc import TAGEGSCConfig, TAGEGSCPredictor
from repro.sim.engine import simulate
from repro.trace.branch import conditional_branch

SMALL_GEHL = GEHLConfig(num_tables=4, table_entries=256, bias_entries=256, max_history=48)
SMALL_TAGE = TAGEConfig(num_tables=5, table_entries=256, base_entries=512, max_history=60)
SMALL_SC = StatisticalCorrectorConfig(
    bias_entries=128, global_table_entries=128, global_history_lengths=(4, 9, 18)
)
SMALL_TAGE_GSC = TAGEGSCConfig(tage=SMALL_TAGE, corrector=SMALL_SC)


def _drive(predictor, records):
    mispredictions = 0
    for record in records:
        prediction = predictor.predict(record)
        predictor.update(record, prediction)
        mispredictions += prediction != record.taken
    return mispredictions


class TestGEHLConfig:
    def test_history_lengths(self):
        lengths = SMALL_GEHL.history_lengths()
        assert len(lengths) == SMALL_GEHL.num_tables
        assert lengths[0] == SMALL_GEHL.min_history


class TestGEHLPredictor:
    def test_learns_biased_branch(self):
        predictor = GEHLPredictor(SMALL_GEHL)
        records = [conditional_branch(0x40, 0x80, taken=True)] * 150
        assert _drive(predictor, records) <= 6

    def test_learns_alternation(self, alternating_records):
        predictor = GEHLPredictor(SMALL_GEHL)
        assert _drive(predictor, alternating_records * 4) <= len(alternating_records)

    def test_learns_history_correlation(self):
        rng = random.Random(5)
        predictor = GEHLPredictor(SMALL_GEHL)
        records = []
        for _ in range(1200):
            a = rng.random() < 0.5
            records.append(conditional_branch(0x100, 0x140, taken=a))
            records.append(conditional_branch(0x300, 0x340, taken=not a))
        assert _drive(predictor, records) / len(records) < 0.40

    def test_beats_always_taken_on_easy_trace(self, easy_trace):
        gehl = simulate(GEHLPredictor(SMALL_GEHL), easy_trace)
        always = simulate(AlwaysTakenPredictor(), easy_trace)
        assert gehl.mpki < always.mpki

    def test_extra_component_improves_sic_kernel(self, sic_trace):
        base = simulate(GEHLPredictor(SMALL_GEHL, name="gehl"), sic_trace)
        with_sic = simulate(
            GEHLPredictor(
                SMALL_GEHL,
                extra_components=[IMLISameIterationComponent(entries=512)],
                name="gehl+sic",
            ),
            sic_trace,
        )
        assert with_sic.mpki < base.mpki

    def test_local_component_requires_table_and_works(self, local_trace):
        predictor = GEHLPredictor(
            SMALL_GEHL,
            extra_components=[
                LocalHistoryComponent(
                    history_lengths=[6, 11], table_geometry=(128, 12), entries=256
                )
            ],
            name="gehl+l",
        )
        result = simulate(predictor, local_trace)
        base = simulate(GEHLPredictor(SMALL_GEHL), local_trace)
        assert result.mpki <= base.mpki

    def test_storage_includes_components_and_state(self):
        predictor = GEHLPredictor(SMALL_GEHL)
        assert predictor.storage_bits() > SMALL_GEHL.num_tables * SMALL_GEHL.table_entries * 6

    def test_speculative_state_is_small(self):
        predictor = GEHLPredictor(SMALL_GEHL)
        assert predictor.speculative_state_bits() < 128


class TestStatisticalCorrectorConfig:
    def test_rejects_empty_history_lengths(self):
        with pytest.raises(ValueError):
            StatisticalCorrectorConfig(global_history_lengths=())

    def test_rejects_negative_revert_margin(self):
        with pytest.raises(ValueError):
            StatisticalCorrectorConfig(revert_margin=-1)


class TestStatisticalCorrector:
    def _make(self):
        from repro.core.component import SharedState

        state = SharedState()
        return StatisticalCorrector(state, SMALL_SC), state

    def test_agrees_with_tage_when_cold(self):
        corrector, state = self._make()
        state.tage_prediction = True
        context = corrector.predict(0x1234, tage_prediction=True)
        assert context.final_prediction is True
        assert not context.reverted

    def test_reverts_when_confidently_disagreeing(self):
        corrector, state = self._make()
        record = conditional_branch(0x1234, 0x1300, taken=False)
        # Train the corrector that this branch is not taken while TAGE keeps
        # predicting taken.
        for _ in range(40):
            state.tage_prediction = True
            context = corrector.predict(0x1234, tage_prediction=True)
            corrector.train(record, context)
            state.update_conditional(record)
        state.tage_prediction = True
        context = corrector.predict(0x1234, tage_prediction=True)
        assert context.reverted
        assert context.final_prediction is False

    def test_storage_breakdown_names(self):
        corrector, _ = self._make()
        names = [name for name, _ in corrector.component_storage_breakdown()]
        assert names[0] == "bias"
        assert "global" in names


class TestTAGEGSCPredictor:
    def test_learns_easy_and_history_correlated_branches(self, easy_trace):
        predictor = TAGEGSCPredictor(SMALL_TAGE_GSC)
        result = simulate(predictor, easy_trace)
        always = simulate(AlwaysTakenPredictor(), easy_trace)
        assert result.mpki < always.mpki

    def test_not_much_worse_than_bimodal_anywhere(self, easy_trace):
        tage_gsc = simulate(TAGEGSCPredictor(SMALL_TAGE_GSC), easy_trace)
        bimodal = simulate(BimodalPredictor(entries=4096), easy_trace)
        assert tage_gsc.mpki <= bimodal.mpki * 1.5 + 1.0

    def test_update_requires_predict(self):
        predictor = TAGEGSCPredictor(SMALL_TAGE_GSC)
        with pytest.raises(RuntimeError):
            predictor.update(conditional_branch(0x40, 0x80, True), True)

    def test_imli_component_improves_sic_kernel(self, sic_trace):
        base = simulate(TAGEGSCPredictor(SMALL_TAGE_GSC), sic_trace)
        with_sic = simulate(
            TAGEGSCPredictor(
                SMALL_TAGE_GSC,
                extra_sc_components=[IMLISameIterationComponent(entries=512)],
                name="tage-gsc+sic",
            ),
            sic_trace,
        )
        assert with_sic.mpki < base.mpki

    def test_storage_is_sum_of_parts(self):
        predictor = TAGEGSCPredictor(SMALL_TAGE_GSC)
        assert predictor.storage_bits() == (
            predictor.tage.storage_bits()
            + predictor.corrector.storage_bits()
            + predictor.state.storage_bits()
        )

    def test_speculative_state_is_small(self):
        predictor = TAGEGSCPredictor(SMALL_TAGE_GSC)
        # A handful of pointer/counter bits, not the predictor tables.
        assert predictor.speculative_state_bits() < 128

    def test_named_configuration(self):
        predictor = TAGEGSCPredictor(SMALL_TAGE_GSC, name="my-config")
        assert predictor.name == "my-config"
