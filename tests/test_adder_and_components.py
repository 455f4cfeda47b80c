"""Tests for the adder tree and its standard components."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.component import SharedState
from repro.core.imli_oh import IMLIOuterHistoryComponent
from repro.core.imli_sic import IMLISameIterationComponent
from repro.predictors.adder import AdderTree
from repro.predictors.components import (
    BiasComponent,
    GlobalHistoryComponent,
    IMLICountHashedGlobalComponent,
    LocalHistoryComponent,
    geometric_history_lengths,
)


class TestGeometricHistoryLengths:
    def test_endpoints(self):
        lengths = geometric_history_lengths(8, 4, 200)
        assert lengths[0] == 4
        assert lengths[-1] >= 200
        assert len(lengths) == 8

    def test_strictly_increasing(self):
        lengths = geometric_history_lengths(10, 3, 300)
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_single_length(self):
        assert geometric_history_lengths(1, 5, 100) == [5]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            geometric_history_lengths(0, 4, 100)
        with pytest.raises(ValueError):
            geometric_history_lengths(4, 10, 5)


class TestBiasComponent:
    def test_selects_one_counter_without_tage(self):
        state = SharedState()
        component = BiasComponent(entries=64, use_tage_prediction=False)
        assert len(component.select(0x123, state)) == 1

    def test_selects_two_counters_with_tage(self):
        state = SharedState()
        state.tage_prediction = True
        component = BiasComponent(entries=64, use_tage_prediction=True)
        assert len(component.select(0x123, state)) == 2

    def test_tage_prediction_changes_second_index(self):
        state = SharedState()
        component = BiasComponent(entries=256, use_tage_prediction=True)
        state.tage_prediction = True
        taken_index = component.select(0x123, state)[1][1]
        state.tage_prediction = False
        not_taken_index = component.select(0x123, state)[1][1]
        assert taken_index != not_taken_index

    def test_storage(self):
        assert BiasComponent(entries=128, counter_bits=6).storage_bits() == 768
        assert BiasComponent(entries=128, counter_bits=6, use_tage_prediction=True).storage_bits() == 1536

    def test_default_training_moves_counters(self):
        state = SharedState()
        component = BiasComponent(entries=64)
        selections = component.select(0x44, state)
        component.train(0x44, True, selections, state)
        table, index = selections[0]
        assert table.values[index] == 1


class TestGlobalHistoryComponent:
    def test_one_counter_per_history_length(self):
        state = SharedState()
        component = GlobalHistoryComponent(state, history_lengths=[0, 5, 11], entries=128)
        assert len(component.select(0x99, state)) == 3

    def test_index_changes_with_history(self):
        """Different global histories must (in general) select different entries."""
        state = SharedState()
        component = GlobalHistoryComponent(state, history_lengths=[8], entries=512)
        indices = {component.select(0x99, state)[0][1]}
        for index in range(24):
            state.update_conditional_fields(0x10 + index, 0x20, bool(index % 3))
            indices.add(component.select(0x99, state)[0][1])
        assert len(indices) > 8

    def test_index_changes_with_path_history(self):
        # At most min(length, 16) path bits join the hash: a zero-length
        # table and a component built without path history ignore them.
        state = SharedState()
        component = GlobalHistoryComponent(state, history_lengths=[0, 8], entries=512)
        pathless = GlobalHistoryComponent(
            state, history_lengths=[0, 8], entries=512, use_path_history=False
        )
        rows, pathless_rows = set(), set()
        for path in range(32):
            state.path_history.restore(path)
            rows.add(tuple(index for _, index in component.select(0x99, state)))
            pathless_rows.add(tuple(index for _, index in pathless.select(0x99, state)))
        assert len({row[0] for row in rows}) == 1
        assert len({row[1] for row in rows}) > 16
        assert len(pathless_rows) == 1

    def test_storage(self):
        state = SharedState()
        component = GlobalHistoryComponent(state, history_lengths=[4, 8], entries=256, counter_bits=6)
        assert component.storage_bits() == 2 * 256 * 6

    def test_requires_history_lengths(self):
        with pytest.raises(ValueError):
            GlobalHistoryComponent(SharedState(), history_lengths=[])


class TestIMLICountHashedGlobalComponent:
    def test_index_changes_with_imli_count(self):
        state = SharedState()
        component = IMLICountHashedGlobalComponent(state, history_lengths=[8], entries=512)
        index_zero = component.select(0x99, state)[0][1]
        state.imli.count = 9
        index_nine = component.select(0x99, state)[0][1]
        assert index_zero != index_nine


class TestLocalHistoryComponent:
    def test_requires_local_history_table(self):
        with pytest.raises(TypeError, match="table_geometry"):
            LocalHistoryComponent(history_lengths=[8], entries=64)

    def test_index_changes_with_local_history(self):
        state = SharedState()
        component = LocalHistoryComponent(history_lengths=[8], table_geometry=(64, 16), entries=512)
        component.bind(state)
        before = component.select(0x99, state)[0][1]
        for _ in range(5):
            state.update_conditional_fields(0x99, 0x120, True)
        after = component.select(0x99, state)[0][1]
        assert before != after

    def test_each_table_reads_only_its_history_length(self):
        # Two local histories equal in their last two outcomes and not
        # before: the 2-bit table indexes alike, the 8-bit one does not.
        indices = []
        for outcomes in ([True] * 8, [False] * 6 + [True] * 2):
            state = SharedState()
            component = LocalHistoryComponent([2, 8], table_geometry=(64, 16), entries=512)
            component.bind(state)
            for taken in outcomes:
                state.update_conditional_fields(0x99, 0x120, taken)
            indices.append([index for _, index in component.select(0x99, state)])
        (short, long), (other_short, other_long) = indices
        assert short == other_short
        assert long != other_long

    def test_storage(self):
        component = LocalHistoryComponent(
            history_lengths=[6, 11, 16], table_geometry=(64, 16), entries=128, counter_bits=6
        )
        assert component.storage_bits() == 3 * 128 * 6

    def test_bind_registers_one_table_per_geometry(self):
        state = SharedState()
        first = LocalHistoryComponent([6], entries=64, table_geometry=(64, 12))
        second = LocalHistoryComponent([4, 9], entries=64, table_geometry=(64, 12))
        other = LocalHistoryComponent([6], entries=64, table_geometry=(128, 12))
        for component in (first, second, other):
            component.bind(state)
        assert first.histories is second.histories
        assert other.histories is not first.histories
        assert state.new_local_history(64, 12) is first.histories
        assert state.storage_bits() == SharedState().storage_bits() + 64 * 12 + 128 * 12

    @settings(max_examples=50, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 16), min_size=1, max_size=4),
        entries_bits=st.integers(4, 10),
        branches=st.lists(
            st.tuples(st.integers(0, 1 << 24), st.booleans()), min_size=1, max_size=40
        ),
    )
    def test_fused_select_sum_matches_select(self, lengths, entries_bits, branches):
        state = SharedState()
        component = LocalHistoryComponent(
            lengths, entries=1 << entries_bits, table_geometry=(64, 16)
        )
        component.bind(state)
        for pc, taken in branches:
            selections, total = component.select_sum(pc, state)
            assert selections == component.select(pc, state)
            assert total == sum(2 * table.values[index] + 1 for table, index in selections)
            component.train(pc, taken, selections, state)
            state.update_conditional_fields(pc, pc + 8, taken)


def _index_components(state):
    """One of each component kind, bound to ``state``."""
    components = [
        BiasComponent(entries=64),
        BiasComponent(entries=64, use_tage_prediction=True),
        GlobalHistoryComponent(state, [0, 3, 9, 20], entries=128),
        IMLICountHashedGlobalComponent(state, [9, 18], entries=128),
        LocalHistoryComponent([5, 10], entries=128, table_geometry=(64, 12)),
        IMLISameIterationComponent(entries=128),
        IMLIOuterHistoryComponent(prediction_entries=64, update_delay=2),
    ]
    for component in components:
        component.bind(state)
    return components


_BRANCHES = st.lists(
    st.tuples(st.integers(0, 1 << 12), st.integers(0, 1 << 12), st.booleans()),
    min_size=1,
    max_size=60,
)


class TestIndexSharing:
    """``index_key`` / ``select`` / ``select_sum`` per component."""

    @settings(max_examples=40, deadline=None)
    @given(branches=_BRANCHES)
    def test_select_sum_matches_select(self, branches):
        state = SharedState()
        components = _index_components(state)
        for pc, target, taken in branches:
            state.tage_prediction = bool(pc & 1)
            for component in components:
                selections, total = component.select_sum(pc, state)
                assert selections == component.select(pc, state)
                assert [table for table, _ in selections] == list(component.counter_tables)
                assert total == sum(2 * table.values[index] + 1 for table, index in selections)
                component.train(pc, taken, selections, state)
            state.update_conditional_fields(pc, target, taken)

    @settings(max_examples=40, deadline=None)
    @given(branches=_BRANCHES)
    def test_equal_keys_compute_equal_indices(self, branches):
        # Two heads' components over one state: equal keys, equal indices,
        # though each head trains its own counters.
        state = SharedState()
        ours, theirs = _index_components(state), _index_components(state)
        for mine, other in zip(ours, theirs):
            assert mine.index_key() == other.index_key()
        for pc, target, taken in branches:
            state.tage_prediction = not (pc & 2)
            for mine, other in zip(ours, theirs):
                assert [index for _, index in mine.select(pc, state)] == [
                    index for _, index in other.select(pc, state)
                ]
                mine.train(pc, taken, mine.select(pc, state), state)
            state.update_conditional_fields(pc, target, taken)

    def test_keys_separate_what_hashes_differently(self):
        state = SharedState()
        keys = {component.index_key() for component in _index_components(state)}
        assert len(keys) == 7
        delayed = IMLIOuterHistoryComponent(prediction_entries=64, update_delay=5)
        delayed.bind(state)
        assert delayed.index_key() not in keys
        # Components bound to different states read different trace-only
        # structures: never shared.
        for make in (
            lambda: IMLIOuterHistoryComponent(prediction_entries=64, update_delay=2),
            lambda: LocalHistoryComponent([5, 10], entries=128, table_geometry=(64, 12)),
        ):
            mine, theirs = make(), make()
            mine.bind(state)
            theirs.bind(SharedState())
            assert mine.index_key() in keys and theirs.index_key() not in keys


class TestAdderTree:
    def _make(self, extra=()):
        state = SharedState()
        components = [BiasComponent(entries=64), *extra]
        return AdderTree(components, state, initial_threshold=4), state

    def test_requires_components(self):
        with pytest.raises(ValueError):
            AdderTree([], SharedState())

    def test_sum_uses_centred_counters(self):
        adder, state = self._make()
        total, selections = adder.compute(0x77, state)
        # A single zero counter contributes 2*0 + 1.
        assert total == 1
        assert len(selections) == 1

    def test_training_moves_counters_toward_outcome(self):
        adder, state = self._make()
        total, selections = adder.compute(0x77, state)
        adder.train_fields(0x77, 0x90, False, total, selections, state)
        table, index = selections[0][0]
        assert table.values[index] == -1

    def test_training_skipped_when_confident_and_correct(self):
        adder, state = self._make()
        branch = (0x77, 0x90, True)
        # Saturate the counter well above the threshold.
        for _ in range(30):
            total, selections = adder.compute(0x77, state)
            adder.train_fields(*branch, total, selections, state)
        table, index = selections[0][0]
        value_before = table.values[index]
        total, selections = adder.compute(0x77, state)
        assert abs(total) > adder.threshold
        adder.train_fields(*branch, total, selections, state)
        assert table.values[index] == value_before

    def test_force_training(self):
        adder, state = self._make()
        branch = (0x77, 0x90, True)
        for _ in range(30):
            total, selections = adder.compute(0x77, state)
            adder.train_fields(*branch, total, selections, state)
        total, selections = adder.compute(0x77, state)
        value_before = selections[0][0][0].values[selections[0][0][1]]
        adder.train_fields(*branch, total, selections, state, force=True)
        # Forced training still saturates upward (no change at the rail) but
        # must not decrease the counter.
        assert selections[0][0][0].values[selections[0][0][1]] >= value_before

    def test_components_appended_after_first_train_get_outcome_hook(self):
        adder, state = self._make()
        branch = (0x77, 0x90, True)
        total, selections = adder.compute(0x77, state)
        adder.train_fields(*branch, total, selections, state)

        calls = []

        class Observer(BiasComponent):
            def on_outcome_fields(self, pc, target, taken, state):
                calls.append(pc)

        adder.components.append(Observer(entries=64))
        total, selections = adder.compute(0x77, state)
        adder.train_fields(*branch, total, selections, state)
        assert calls == [0x77]

    def test_threshold_adapts_upward_under_mispredictions(self):
        adder, state = self._make()
        initial_threshold = adder.threshold
        import random

        rng = random.Random(3)
        for _ in range(4000):
            branch = (0x77, 0x90, rng.random() < 0.5)
            total, selections = adder.compute(0x77, state)
            adder.train_fields(*branch, total, selections, state)
        assert adder.threshold >= initial_threshold

    def test_learns_imli_correlation_through_extra_component(self):
        """An IMLI-SIC component plugged into an adder tree learns the pattern."""
        sic = IMLISameIterationComponent(entries=128)
        adder, state = self._make(extra=[sic])
        pattern = [bool(i % 3 == 0) for i in range(12)]
        correct = 0
        total_branches = 0
        for outer in range(20):
            for inner in range(12):
                branch = (0x5000, 0x5040, pattern[inner])
                total, selections = adder.compute(0x5000, state)
                if outer >= 10:
                    total_branches += 1
                    correct += (total >= 0) == pattern[inner]
                adder.train_fields(*branch, total, selections, state)
                state.update_conditional_fields(*branch)
                back = (0x6000, 0x5000, inner < 11)
                state.update_conditional_fields(*back)
        assert correct / total_branches > 0.9

    def test_storage_and_breakdown(self):
        adder, _ = self._make(extra=[IMLISameIterationComponent(entries=128)])
        breakdown = adder.component_storage_breakdown()
        assert [name for name, _ in breakdown] == ["bias", "imli-sic"]
        assert adder.storage_bits() >= sum(bits for _, bits in breakdown)

    def test_speculative_state_bits_sum(self):
        from repro.core.imli_oh import IMLIOuterHistoryComponent

        adder, _ = self._make(extra=[IMLIOuterHistoryComponent()])
        assert adder.speculative_state_bits() == 16
