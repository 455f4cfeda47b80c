"""Tests for speculative IMLI state management (repro.core.speculative)."""

from __future__ import annotations

import random

from hypothesis import given, strategies as st

from repro.core.component import SharedState
from repro.core.imli import IMLIState
from repro.core.imli_oh import IMLIOuterHistoryComponent
from repro.core.speculative import (
    IMLICheckpoint,
    SpeculativeIMLITracker,
    checkpoint_cost_bits,
)


class TestIMLICheckpoint:
    def test_bits_without_pipe(self):
        assert IMLICheckpoint(imli_count=5).bits(imli_counter_bits=10) == 10

    def test_bits_with_pipe(self):
        checkpoint = IMLICheckpoint(imli_count=5, pipe=tuple([0] * 16))
        assert checkpoint.bits(imli_counter_bits=10) == 26

    def test_checkpoint_cost_helper(self):
        imli = IMLIState(counter_bits=10)
        assert checkpoint_cost_bits(imli) == 10
        oh = IMLIOuterHistoryComponent(tracked_branches=16)
        assert checkpoint_cost_bits(imli, oh) == 26


class TestSpeculativeIMLITracker:
    def test_speculation_follows_predictions(self):
        tracker = SpeculativeIMLITracker()
        tracker.speculate(is_backward=True, predicted_taken=True)
        tracker.speculate(is_backward=True, predicted_taken=True)
        assert tracker.count == 2

    def test_recovery_restores_and_replays_actual_outcome(self):
        tracker = SpeculativeIMLITracker()
        tracker.speculate(True, True)  # count == 1
        checkpoint = tracker.checkpoint()
        tracker.speculate(True, True)  # predicted taken -> 2
        # The branch actually exits the loop: recover and apply the real outcome.
        tracker.recover(checkpoint, is_backward=True, actual_taken=False)
        assert tracker.count == 0

    def test_recovery_with_outer_history_restores_pipe(self):
        oh = IMLIOuterHistoryComponent()
        oh.bind(SharedState())
        tracker = SpeculativeIMLITracker(outer_history=oh)
        checkpoint = tracker.checkpoint()
        oh.pipe[0] = 1  # wrong-path pollution
        tracker.recover(checkpoint, is_backward=False, actual_taken=True)
        assert oh.pipe[0] == 0

    def test_checkpoint_bits_match_paper_scale(self):
        """10-bit IMLI counter + 16-bit PIPE vector = 26 bits per checkpoint."""
        tracker = SpeculativeIMLITracker(
            counter_bits=10, outer_history=IMLIOuterHistoryComponent(tracked_branches=16)
        )
        assert tracker.checkpoint_bits() == 26

    @given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), max_size=150))
    def test_recovery_always_resynchronises_with_committed_state(self, events):
        """After checkpoint recovery the speculative counter equals the committed one.

        ``events`` is a list of (is_backward, actual_taken, predicted_taken)
        triples; whenever prediction != actual we recover from the checkpoint
        taken before the branch, which must resynchronise exactly.
        """
        committed = IMLIState()
        tracker = SpeculativeIMLITracker()
        for is_backward, actual, predicted in events:
            checkpoint = tracker.checkpoint()
            tracker.speculate(is_backward, predicted)
            committed.observe(is_backward, actual)
            if predicted != actual:
                tracker.recover(checkpoint, is_backward, actual)
            assert tracker.count == committed.count

    def test_long_random_speculation_with_recovery(self):
        rng = random.Random(1)
        committed = IMLIState()
        tracker = SpeculativeIMLITracker()
        for _ in range(2000):
            is_backward = rng.random() < 0.3
            actual = rng.random() < 0.8
            predicted = actual if rng.random() < 0.9 else not actual
            checkpoint = tracker.checkpoint()
            tracker.speculate(is_backward, predicted)
            committed.observe(is_backward, actual)
            if predicted != actual:
                tracker.recover(checkpoint, is_backward, actual)
            assert tracker.count == committed.count
