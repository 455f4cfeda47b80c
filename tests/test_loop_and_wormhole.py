"""Tests for the loop predictor and the wormhole side predictor."""

from __future__ import annotations

import random

import pytest

from repro.predictors.composites import SidecarPredictor
from repro.predictors.loop import LoopPredictor, LoopPredictorConfig
from repro.predictors.simple import AlwaysTakenPredictor
from repro.predictors.wormhole import WormholePredictor, WormholePredictorConfig
from repro.trace.branch import BranchKind, BranchRecord, conditional_branch


def _loop_back(pc: int, taken: bool) -> BranchRecord:
    return BranchRecord(pc=pc, target=pc - 64, taken=taken)


def _run_loop(predictor, pc, trip, executions):
    """Drive a loop back-edge through the predictor; return (correct, total)."""
    correct = 0
    total = 0
    for _ in range(executions):
        for iteration in range(trip):
            taken = iteration < trip - 1
            prediction = predictor.predict(pc, True)
            if prediction is not None:
                total += 1
                correct += prediction == taken
            predictor.update(pc, True, taken)
    return correct, total


class TestLoopPredictor:
    def test_learns_constant_trip_count(self):
        predictor = LoopPredictor(LoopPredictorConfig(entries=16))
        correct, total = _run_loop(predictor, pc=0x800, trip=10, executions=12)
        assert total > 0
        # Once confident, every iteration including the exit is predicted.
        assert correct / total > 0.95

    def test_trip_count_exposed_for_wormhole(self):
        predictor = LoopPredictor()
        _run_loop(predictor, pc=0x800, trip=7, executions=6)
        assert predictor.trip_count_for(0x800) == 7

    def test_no_confidence_for_variable_trip_counts(self):
        predictor = LoopPredictor()
        rng = random.Random(2)
        for _ in range(20):
            trip = rng.randint(5, 12)
            for iteration in range(trip):
                predictor.update(0x800, True, iteration < trip - 1)
        assert predictor.trip_count_for(0x800) is None

    def test_only_backward_branches_are_tracked(self):
        predictor = LoopPredictor()
        assert predictor.predict(0x800, False) is None
        predictor.update(0x800, False, True)
        assert predictor.trip_count_for(0x800) is None

    def test_current_iteration_tracking(self):
        predictor = LoopPredictor()
        for iteration in range(4):
            predictor.update(0x800, True, True)
        assert predictor.current_iteration_for(0x800) >= 4

    def test_unknown_pc(self):
        predictor = LoopPredictor()
        assert predictor.trip_count_for(0x1234) is None
        assert predictor.current_iteration_for(0x1234) is None

    def test_storage_bits_positive(self):
        assert LoopPredictor(LoopPredictorConfig(entries=16)).storage_bits() > 0

    def test_no_prediction_before_confidence(self):
        predictor = LoopPredictor()
        predictor.update(0x800, True, True)
        assert predictor.predict(0x800, True) is None


class TestWormholePredictor:
    def _nested_loop_records(self, trip, outers, rng=None, diagonal=True):
        """Emit (record, is_target) pairs for a diagonal-correlated loop nest."""
        rng = rng or random.Random(9)
        previous_row = [rng.random() < 0.5 for _ in range(trip)]
        records = []
        for _ in range(outers):
            current_row = []
            for inner in range(trip):
                if diagonal and inner > 0:
                    outcome = previous_row[inner - 1]
                else:
                    outcome = rng.random() < 0.5
                current_row.append(outcome)
                records.append((conditional_branch(0x9000, 0x9040, outcome), True))
                records.append((_loop_back(0xA000, inner < trip - 1), False))
            previous_row = current_row
        return records

    def _drive(self, records, loop_config=None, wh_config=None):
        loop_predictor = LoopPredictor(loop_config or LoopPredictorConfig())
        wormhole = WormholePredictor(loop_predictor, wh_config or WormholePredictorConfig())
        used = 0
        correct = 0
        target_total = 0
        for record, is_target in records:
            pc, backward, taken = record.pc, record.is_backward, record.taken
            prediction = wormhole.predict(pc, backward)
            if is_target:
                target_total += 1
                if prediction is not None:
                    used += 1
                    correct += prediction == record.taken
            # A weak main predictor: always predict taken.
            main_mispredicted = record.taken is False
            loop_predictor.update(pc, backward, taken)
            wormhole.update(pc, backward, taken, main_mispredicted)
        return used, correct, target_total

    def test_captures_diagonal_correlation(self):
        records = self._nested_loop_records(trip=12, outers=30)
        used, correct, total = self._drive(records)
        assert used > total * 0.3
        assert correct / used > 0.9

    def test_silent_without_constant_trip_count(self):
        rng = random.Random(4)
        records = []
        for _ in range(30):
            trip = rng.randint(6, 14)
            for inner in range(trip):
                records.append((conditional_branch(0x9000, 0x9040, rng.random() < 0.5), True))
                records.append((_loop_back(0xA000, inner < trip - 1), False))
        used, _, _ = self._drive(records)
        assert used == 0

    def test_entry_count_is_bounded(self):
        loop_predictor = LoopPredictor()
        wormhole = WormholePredictor(loop_predictor, WormholePredictorConfig(entries=4))
        rng = random.Random(1)
        # Train the loop predictor on a constant-trip loop, then mispredict
        # many distinct branches inside it.
        for outer in range(40):
            for inner in range(8):
                pc = 0x9000 + 0x40 * (outer % 10)
                wormhole.update(pc, False, rng.random() < 0.5, main_mispredicted=True)
                loop_predictor.update(0xA000, True, inner < 7)
                wormhole.update(0xA000, True, inner < 7, main_mispredicted=False)
        assert len(wormhole.entries) <= 4

    def test_no_prediction_for_backward_branches(self):
        loop_predictor = LoopPredictor()
        wormhole = WormholePredictor(loop_predictor)
        assert wormhole.predict(0xA000, True) is None

    def test_storage_bits_scale_with_entries(self):
        small = WormholePredictor(LoopPredictor(), WormholePredictorConfig(entries=4))
        large = WormholePredictor(LoopPredictor(), WormholePredictorConfig(entries=8))
        assert large.storage_bits() == 2 * small.storage_bits()


def test_sidecar_predictor_feeds_only_conditional_branches_to_its_sidecars():
    # The side predictors take branch fields and trust that the branch is
    # conditional; SidecarPredictor checks it for them.
    loop_predictor = LoopPredictor()
    wormhole = WormholePredictor(loop_predictor)
    predictor = SidecarPredictor(AlwaysTakenPredictor(), loop_predictor, wormhole)
    for kind in BranchKind:
        if kind is BranchKind.CONDITIONAL:
            continue
        record = BranchRecord(pc=0xA000, target=0x9000, taken=True, kind=kind)
        assert predictor.predict(record) is True
        predictor.update(record, True)
    assert not any(entry.valid for entry in loop_predictor.entries)
    assert wormhole._current_loop_pc is None
    back_edge = BranchRecord(pc=0xA000, target=0x9000, taken=False)
    predictor.update(back_edge, predictor.predict(back_edge))
    assert loop_predictor.entries[loop_predictor._index(0xA000)].valid
    assert wormhole._current_loop_pc == 0xA000
