"""Tests for the TAGE predictor (engine and standalone wrapper)."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.component import SharedState
from repro.predictors.simple import BimodalPredictor
from repro.predictors.tage import TAGEConfig, TAGEEngine, TAGEPredictor
from repro.sim import engine
from repro.sim.engine import simulate
from repro.trace.branch import conditional_branch
from repro.trace.trace import Trace
from repro.workloads.suites import generate_benchmark, get_benchmark


SMALL_CONFIG = TAGEConfig(
    num_tables=5,
    table_entries=256,
    base_entries=512,
    max_history=60,
    useful_reset_period=2048,
)


def _drive(predictor, records):
    mispredictions = 0
    for record in records:
        prediction = predictor.predict(record)
        predictor.update(record, prediction)
        mispredictions += prediction != record.taken
    return mispredictions


class TestTAGEConfig:
    def test_history_lengths_are_geometric(self):
        lengths = TAGEConfig(num_tables=6, min_history=4, max_history=128).history_lengths()
        assert lengths[0] == 4
        assert lengths[-1] >= 128
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_default_config_is_consistent(self):
        config = TAGEConfig()
        assert len(config.history_lengths()) == config.num_tables


class TestTAGEEngine:
    def test_rejects_history_capacity_too_small(self):
        state = SharedState(history_capacity=16)
        with pytest.raises(ValueError):
            TAGEEngine(state, TAGEConfig(max_history=300))

    def test_prediction_context_fields(self):
        state = SharedState(history_capacity=512)
        engine = TAGEEngine(state, SMALL_CONFIG)
        prediction = engine.predict(0x1234)
        assert len(prediction.indices) == SMALL_CONFIG.num_tables
        assert len(prediction.tags) == SMALL_CONFIG.num_tables
        assert prediction.provider == -1  # nothing allocated yet

    def test_allocation_after_misprediction(self):
        state = SharedState(history_capacity=512)
        engine = TAGEEngine(state, SMALL_CONFIG)
        record = conditional_branch(0x1234, 0x1300, taken=False)
        allocated_before = sum(
            1 for table in engine.tables for tag in table.tag if tag
        )
        for _ in range(8):
            prediction = engine.predict(record.pc)
            engine.train_fields(record.pc, record.taken, prediction)
            state.update_conditional_fields(record.pc, record.target, record.taken)
        allocated_after = sum(
            1 for table in engine.tables for index in range(table.entries)
            if table.tag[index] or table.ctr[index]
        )
        assert allocated_after >= allocated_before

    def test_storage_bits_formula(self):
        state = SharedState(history_capacity=512)
        engine = TAGEEngine(state, SMALL_CONFIG)
        cfg = SMALL_CONFIG
        expected = (
            cfg.num_tables * cfg.table_entries * (cfg.counter_bits + cfg.tag_bits + cfg.useful_bits)
            + cfg.base_entries * cfg.base_counter_bits
            + cfg.use_alt_counter_bits
        )
        assert engine.storage_bits() == expected


class TestTAGEPredictor:
    def test_learns_biased_branches(self):
        predictor = TAGEPredictor(SMALL_CONFIG)
        records = [conditional_branch(0x40, 0x80, taken=True)] * 200
        assert _drive(predictor, records) <= 5

    def test_learns_alternation(self, alternating_records):
        predictor = TAGEPredictor(SMALL_CONFIG)
        assert _drive(predictor, alternating_records * 4) <= len(alternating_records)

    def test_learns_global_history_correlation(self):
        """A branch equal to the XOR of the two previous branches is TAGE food."""
        rng = random.Random(11)
        predictor = TAGEPredictor(SMALL_CONFIG)
        records = []
        for _ in range(1500):
            a = rng.random() < 0.5
            b = rng.random() < 0.5
            records.append(conditional_branch(0x100, 0x140, taken=a))
            records.append(conditional_branch(0x200, 0x240, taken=b))
            records.append(conditional_branch(0x300, 0x340, taken=a ^ b))
        mispredictions = _drive(predictor, records)
        total = len(records)
        # The two source branches are random (about 50 % each), the sink must
        # become nearly perfectly predicted, so the overall rate is ~1/3.
        assert mispredictions / total < 0.42

    def test_beats_bimodal_on_history_correlated_code(self, local_trace):
        tage = simulate(TAGEPredictor(SMALL_CONFIG), local_trace)
        bimodal = simulate(BimodalPredictor(entries=4096), local_trace)
        assert tage.mpki < bimodal.mpki

    def test_update_requires_predict(self):
        predictor = TAGEPredictor(SMALL_CONFIG)
        with pytest.raises(RuntimeError):
            predictor.update(conditional_branch(0x40, 0x80, True), True)

    def test_observe_unconditional_advances_path_only(self):
        predictor = TAGEPredictor(SMALL_CONFIG)
        from repro.trace.branch import BranchKind, BranchRecord

        predictor.observe_unconditional(
            BranchRecord(pc=0x500, target=0x600, taken=True, kind=BranchKind.CALL)
        )
        assert predictor.state.global_history.value(4) == 0

    def test_storage_positive_and_reported(self):
        predictor = TAGEPredictor(SMALL_CONFIG)
        assert predictor.storage_bits() > 0

    def test_deterministic_across_instances(self, easy_trace):
        first = simulate(TAGEPredictor(SMALL_CONFIG), easy_trace)
        second = simulate(TAGEPredictor(SMALL_CONFIG), easy_trace)
        assert first.mispredictions == second.mispredictions


def _learned_and_trace_state(predictor):
    """Everything of a standalone TAGE a later branch can read."""
    tage, state = predictor.engine, predictor.state
    return (
        [(list(table.tag), list(table.ctr), list(table.useful)) for table in tage.tables],
        list(tage.base.values),
        tage._use_alt,
        tage._allocation_seed,
        tage._updates_since_reset,
        [folded.fold for folded in state._folded],
        state.global_history.bits,
        state.global_history.length,
        state.path_history.bits,
        state.imli.count,
    )


class TestBlockStep:
    """``TAGEPredictor.predict_update_block``: the pre-pass plus the TAGE pass."""

    @pytest.mark.parametrize("sub_block", [1, engine.SUB_BLOCK_RECORDS])
    def test_continues_a_reference_trained_predictor(self, mixed_kind, monkeypatch, sub_block):
        # Trained on the reference path, continued on the fast path with
        # the per-branch forms patched to raise: the fast continuation
        # must equal a second reference replay, results and state.
        # Byte-granular PCs keep the path history non-zero, and a
        # useful-reset period prime to the sub-block size makes
        # _decay_useful fire inside blocks.
        monkeypatch.setattr(engine, "SUB_BLOCK_RECORDS", sub_block)
        first, second = (
            mixed_kind(generate_benchmark(get_benchmark("cbp4like", name), 1500), seed)
            for seed, name in enumerate(["SPEC2K6-12", "SPEC2K6-04"])
        )
        config = dataclasses.replace(SMALL_CONFIG, useful_reset_period=97)
        ours, theirs = TAGEPredictor(config), TAGEPredictor(config)
        assert simulate(ours, first, use_fast_path=False) == simulate(
            theirs, first, use_fast_path=False
        )
        assert ours.state.path_history.bits
        decays = []
        real_decay = TAGEEngine._decay_useful

        def decay(tage):
            decays.append(tage)
            real_decay(tage)

        def forbidden(*args, **kwargs):
            raise AssertionError("per-branch upkeep or lookup in a block step")

        monkeypatch.setattr(TAGEEngine, "_decay_useful", decay)
        assert engine.supports_fast_path(ours, second)
        with monkeypatch.context() as patch:
            for owner, name in [
                (SharedState, "update_conditional_fields"),
                (SharedState, "observe_pc"),
                (TAGEEngine, "predict_into"),
                (TAGEEngine, "train_fields"),
            ]:
                patch.setattr(owner, name, forbidden)
            continued = simulate(ours, second, track_per_pc=True)
        assert len(decays) >= 10
        replayed = simulate(theirs, second, track_per_pc=True, use_fast_path=False)
        assert continued == replayed
        assert list(continued.per_pc_mispredictions.items()) == list(
            replayed.per_pc_mispredictions.items()
        )
        assert _learned_and_trace_state(ours) == _learned_and_trace_state(theirs)
