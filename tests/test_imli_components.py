"""Tests for the IMLI-SIC and IMLI-OH predictor components."""

from __future__ import annotations

import pytest

from repro.core.component import SharedState
from repro.core.imli_oh import IMLIOuterHistoryComponent
from repro.core.imli_sic import IMLISameIterationComponent
from repro.trace.branch import BranchRecord


def _body_branch(pc: int, taken: bool) -> BranchRecord:
    return BranchRecord(pc=pc, target=pc + 32, taken=taken)


def _loop_back(pc: int, taken: bool) -> BranchRecord:
    return BranchRecord(pc=pc, target=pc - 64, taken=taken)


def _run_nested_loop(components, state, pattern_for, outer_iterations, trip, target_pc=0x1000):
    """Drive components through a synthetic two-level loop nest.

    ``pattern_for(outer, inner)`` gives the outcome of the target branch.
    Returns the list of (prediction_correct, outer, inner) observations for
    the second half of the run (after warm-up).
    """
    for component in components:
        component.bind(state)
    observations = []
    back_pc = 0x2000
    for outer in range(outer_iterations):
        for inner in range(trip):
            outcome = pattern_for(outer, inner)
            record = _body_branch(target_pc, outcome)
            # Prediction step: sum the component counters.
            total = 0
            selections = []
            for component in components:
                component_selection = component.select(target_pc, state)
                selections.append(component_selection)
                for table, index in component_selection:
                    total += 2 * table.values[index] + 1
            prediction = total >= 0
            if outer >= outer_iterations // 2:
                observations.append((prediction == outcome, outer, inner))
            # Update step.
            for component, component_selection in zip(components, selections):
                component.train(target_pc, outcome, component_selection, state)
                component.on_outcome(record, state)
            state.update_conditional(record)
            # Inner loop back-edge.
            back = _loop_back(back_pc, inner < trip - 1)
            for component in components:
                component.on_outcome(back, state)
            state.update_conditional(back)
    return observations


class TestIMLISameIterationComponent:
    def test_select_returns_single_counter(self):
        component = IMLISameIterationComponent(entries=128)
        state = SharedState()
        selections = component.select(0x1234, state)
        assert len(selections) == 1
        table, index = selections[0]
        assert 0 <= index < 128

    def test_index_depends_on_imli_count(self):
        component = IMLISameIterationComponent(entries=512)
        state = SharedState()
        index_at_zero = component.select(0x1234, state)[0][1]
        state.imli.count = 7
        index_at_seven = component.select(0x1234, state)[0][1]
        assert index_at_zero != index_at_seven

    def test_storage_bits(self):
        assert IMLISameIterationComponent(entries=512, counter_bits=6).storage_bits() == 3072

    def test_no_speculative_state(self):
        assert IMLISameIterationComponent().speculative_state_bits() == 0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            IMLISameIterationComponent(entries=500)

    def test_learns_same_iteration_correlation(self):
        """Out[N][M] == pattern[M] must become highly predictable."""
        pattern = [bool((inner * 7) % 3 == 0) for inner in range(16)]
        component = IMLISameIterationComponent(entries=256)
        state = SharedState()
        observations = _run_nested_loop(
            [component], state, lambda outer, inner: pattern[inner],
            outer_iterations=12, trip=16,
        )
        accuracy = sum(correct for correct, _, _ in observations) / len(observations)
        assert accuracy > 0.95

    def test_does_not_learn_alternating_outer_correlation(self):
        """Out[N][M] == parity(N) flips every outer iteration -> SIC cannot lock on."""
        component = IMLISameIterationComponent(entries=256)
        state = SharedState()
        observations = _run_nested_loop(
            [component], state, lambda outer, inner: bool(outer % 2),
            outer_iterations=12, trip=16,
        )
        accuracy = sum(correct for correct, _, _ in observations) / len(observations)
        assert accuracy < 0.8


class TestIMLIOuterHistoryComponent:
    def test_select_returns_single_counter(self):
        component = IMLIOuterHistoryComponent(prediction_entries=64)
        state = SharedState()
        component.bind(state)
        selections = component.select(0x1234, state)
        assert len(selections) == 1
        assert 0 <= selections[0][1] < 64

    def test_storage_accounting(self):
        component = IMLIOuterHistoryComponent(
            prediction_entries=256, counter_bits=6, tracked_branches=16, iterations_per_branch=64
        )
        # prediction table + 1 Kbit history + 16-bit PIPE
        assert component.storage_bits() == 256 * 6 + 1024 + 16
        assert component.speculative_state_bits() == 16

    def test_history_and_pipe_updates(self):
        component = IMLIOuterHistoryComponent()
        state = SharedState()
        component.bind(state)
        record = _body_branch(0x1000, True)
        slot = component._slot(0x1000)
        cell = component._cell(slot, state.imli.count)
        state.update_conditional(record)
        assert component.history[cell] == 1
        assert component.pipe[slot] == 0  # the old history value was staged
        state.update_conditional(_body_branch(0x1000, False))
        assert component.history[cell] == 0
        assert component.pipe[slot] == 1

    def test_backward_branches_are_not_recorded(self):
        component = IMLIOuterHistoryComponent()
        state = SharedState()
        component.bind(state)
        state.update_conditional(_loop_back(0x2000, True))
        assert all(bit == 0 for bit in component.history)

    def test_recovers_previous_outer_iteration_outcomes(self):
        """After a full outer iteration, recovered bits are Out[N-1][M] and Out[N-1][M-1]."""
        component = IMLIOuterHistoryComponent()
        state = SharedState()
        component.bind(state)
        trip = 8
        rows = [
            [bool((outer + inner) % 3 == 0) for inner in range(trip)]
            for outer in range(4)
        ]
        target_pc = 0x1000
        back_pc = 0x2000
        recovered = []
        for outer in range(4):
            for inner in range(trip):
                # The IMLI counter value seen by the body branch differs by one
                # between the very first outer iteration and the later ones
                # (Section 4.1 of the paper), so only check once the mapping
                # has stabilised (outer >= 2).
                if outer >= 2:
                    same, previous = component.recovered_outcomes(target_pc, state.imli.count)
                    recovered.append((outer, inner, same, previous))
                state.update_conditional(_body_branch(target_pc, rows[outer][inner]))
                state.update_conditional(_loop_back(back_pc, inner < trip - 1))
            # The outer loop back edge.
            state.update_conditional(_loop_back(0x3000, outer < 3))
        for outer, inner, same, previous in recovered:
            assert bool(same) == rows[outer - 1][inner]
            if inner > 0:
                assert bool(previous) == rows[outer - 1][inner - 1]

    def test_learns_wormhole_correlation(self):
        """Out[N][M] == Out[N-1][M-1] must become highly predictable."""
        import random

        rng = random.Random(3)
        trip = 12
        rows = [[rng.random() < 0.5 for _ in range(trip)]]
        for outer in range(1, 16):
            previous = rows[outer - 1]
            rows.append([rng.random() < 0.5] + [previous[m - 1] for m in range(1, trip)])
        component = IMLIOuterHistoryComponent(prediction_entries=128)
        state = SharedState()
        observations = _run_nested_loop(
            [component], state, lambda outer, inner: rows[outer][inner],
            outer_iterations=16, trip=trip,
        )
        # Ignore inner == 0 (a genuinely random bit each outer iteration).
        informative = [correct for correct, _, inner in observations if inner > 0]
        accuracy = sum(informative) / len(informative)
        assert accuracy > 0.9

    def test_delayed_update_drains_eventually(self):
        component = IMLIOuterHistoryComponent(update_delay=3)
        state = SharedState()
        component.bind(state)
        slot = component._slot(0x1000)
        cell = component._cell(slot, 0)
        state.update_conditional(_body_branch(0x1000, True))
        assert component.history[cell] == 0  # not yet visible
        # Backward branches advance the delay clock without writing history.
        for _ in range(4):
            state.update_conditional(_loop_back(0x2000, True))
        assert component.history[cell] == 1  # drained after the delay

    def test_pipe_snapshot_restore(self):
        component = IMLIOuterHistoryComponent()
        state = SharedState()
        component.bind(state)
        state.update_conditional(_body_branch(0x1000, True))
        snapshot = component.snapshot_pipe()
        state.update_conditional(_body_branch(0x1000, False))
        component.restore_pipe(snapshot)
        assert component.snapshot_pipe() == snapshot

    def test_bound_component_is_advanced_by_the_state(self):
        # The outer history lives on the shared state: equal geometry
        # shares one structure, the state records each outcome once, and
        # the component's own outcome hook does not write.
        state = SharedState()
        first, second = IMLIOuterHistoryComponent(), IMLIOuterHistoryComponent()
        delayed = IMLIOuterHistoryComponent(update_delay=3)
        for component in (first, second, delayed):
            component.bind(state)
        assert first.outer is second.outer and delayed.outer is not first.outer
        cell = first._cell(first._slot(0x1000), state.imli.count)
        first.on_outcome(_body_branch(0x1000, True), state)
        assert first.history[cell] == 0
        state.update_conditional(_body_branch(0x1000, True))
        assert first.history[cell] == 1 and second.history[cell] == 1
        assert delayed.history[cell] == 0  # still pending
        assert first.storage_bits() == IMLIOuterHistoryComponent().storage_bits()

    def test_pipe_restore_validates_length(self):
        component = IMLIOuterHistoryComponent()
        component.bind(SharedState())
        with pytest.raises(ValueError):
            component.restore_pipe((0, 1))

    def test_invalid_delay_rejected(self):
        with pytest.raises(ValueError):
            IMLIOuterHistoryComponent(update_delay=-1)
