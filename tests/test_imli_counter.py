"""Tests for the IMLI counter (repro.core.imli) and the shared state."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.common.bits import fold_bits
from repro.core.component import SharedState
from repro.core.imli import IMLIState
from repro.trace.branch import BranchKind, BranchRecord, conditional_branch


def _backward(taken: bool) -> BranchRecord:
    return BranchRecord(pc=0x200, target=0x100, taken=taken)


def _forward(taken: bool) -> BranchRecord:
    return BranchRecord(pc=0x200, target=0x300, taken=taken)


class TestIMLIState:
    def test_initial_count_is_zero(self):
        assert IMLIState().count == 0

    def test_heuristic_matches_paper(self):
        """if backward: taken -> count += 1, not taken -> count = 0."""
        imli = IMLIState()
        imli.update(_backward(True))
        imli.update(_backward(True))
        assert imli.count == 2
        imli.update(_backward(False))
        assert imli.count == 0

    def test_forward_branches_are_ignored(self):
        imli = IMLIState()
        imli.update(_backward(True))
        imli.update(_forward(True))
        imli.update(_forward(False))
        assert imli.count == 1

    def test_non_conditional_branches_are_ignored(self):
        imli = IMLIState()
        imli.update(_backward(True))
        imli.update(
            BranchRecord(pc=0x400, target=0x100, taken=True, kind=BranchKind.UNCONDITIONAL)
        )
        assert imli.count == 1

    def test_saturation(self):
        imli = IMLIState(counter_bits=3)
        for _ in range(20):
            imli.update(_backward(True))
        assert imli.count == 7

    def test_observe_matches_update(self):
        a, b = IMLIState(), IMLIState()
        sequence = [(True, True), (True, False), (False, True), (True, True)]
        for backward, taken in sequence:
            record = _backward(taken) if backward else _forward(taken)
            a.update(record)
            b.observe(backward, taken)
        assert a.count == b.count

    def test_snapshot_restore(self):
        imli = IMLIState()
        imli.update(_backward(True))
        snapshot = imli.snapshot()
        imli.update(_backward(True))
        imli.restore(snapshot)
        assert imli.count == 1

    def test_restore_validates_range(self):
        with pytest.raises(ValueError):
            IMLIState(counter_bits=4).restore(16)

    def test_reset_and_storage(self):
        imli = IMLIState(counter_bits=10)
        imli.update(_backward(True))
        imli.reset()
        assert imli.count == 0
        assert imli.storage_bits() == 10

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            IMLIState(counter_bits=0)

    def test_counts_inner_loop_iterations(self, simple_loop_records):
        """Over a 5-iteration loop the counter reaches 4 and resets at the exit."""
        imli = IMLIState()
        seen_maximum = 0
        for record in simple_loop_records:
            imli.update(record)
            seen_maximum = max(seen_maximum, imli.count)
        assert seen_maximum == 4
        assert imli.count == 0  # the trace ends on a loop exit

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=200))
    def test_reference_implementation_property(self, events):
        """The class matches a direct transcription of the paper's pseudo-code."""
        imli = IMLIState(counter_bits=10)
        reference = 0
        for backward, taken in events:
            imli.observe(backward, taken)
            if backward:
                if taken:
                    reference = min(reference + 1, 1023)
                else:
                    reference = 0
            assert imli.count == reference


class TestSharedState:
    def test_conditional_update_advances_everything(self):
        state = SharedState()
        local_histories = state.new_local_history(64, 8)
        record = BranchRecord(pc=0x300, target=0x200, taken=True)
        state.update_conditional(record)
        assert state.global_history.value(1) == 1
        assert state.imli.count == 1
        assert local_histories.read(0x300) == 1

    def test_unconditional_update_only_touches_path(self):
        state = SharedState()
        record = BranchRecord(pc=0x300, target=0x400, taken=True, kind=BranchKind.CALL)
        state.update_unconditional(record)
        assert state.global_history.value(8) == 0
        assert state.imli.count == 0

    def test_folded_histories_stay_coherent(self):
        state = SharedState()
        folded = state.new_folded_history(length=13, width=5)
        outcomes = [True, False, True, True, False, True, False, False] * 5
        for index, taken in enumerate(outcomes):
            record = conditional_branch(pc=0x100 + index, target=0x200 + index, taken=taken)
            state.update_conditional(record)
        expected = fold_bits(state.global_history.value(13), 13, 5)
        assert folded.value() == expected

    def test_storage_and_checkpoint_bits(self):
        state = SharedState(history_capacity=512, path_capacity=32, imli_counter_bits=10)
        assert state.storage_bits() == 512 + 32 + 10
        # checkpoint: history pointers + IMLI counter, far smaller than storage
        assert state.checkpoint_bits() < state.storage_bits()
        assert state.checkpoint_bits() >= 10

    def test_checkpoint_bits_include_imli(self):
        small = SharedState(imli_counter_bits=4)
        large = SharedState(imli_counter_bits=12)
        assert large.checkpoint_bits() - small.checkpoint_bits() == 8
