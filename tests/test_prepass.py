"""The trace-only pre-pass of shared-core groups against per-branch upkeep.

A group advances its :class:`~repro.core.component.SharedState` once per
sub-block (:meth:`SharedState.advance_block`) and reads every index from
columns (``index_columns``, ``TAGEEngine.index_columns``).  The per-branch
forms -- ``update_conditional_fields`` / ``observe_pc`` and each
component's ``select`` -- serve the record-based reference path and are
the oracle here: branch by branch the columns must equal them, and after
every sub-block the state must be exactly where the per-branch calls
leave it.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_batch_engine as batch_tests
from repro.common import swar
from repro.common.history import LocalHistoryTable
from repro.core.component import IndexedComponent, SharedState
from repro.core.imli_oh import OuterHistory
from repro.predictors import shared_core
from repro.predictors.composites import CompositeOptions, build
from repro.predictors.tage import TAGEEngine
from repro.sim import engine
from repro.sim.engine import simulate, simulate_many
from repro.trace.branch import CONDITIONAL_CODE

#: Fixture of short mixed-kind traces, monolithic and chunked (97 records).
differential_traces = batch_tests.differential_traces

#: Heads of one group per base: every index-key kind, three IMLI-OH outer
#: histories (delays 0, 1 and 63), a local-history table and both
#: IMLI-hashed global variants.
MEMBERS = [
    dict(imli_sic=True, imli_oh=True, oh_update_delay=0, local=True, imli_global_tables=2),
    dict(imli_oh=True, oh_update_delay=1, loop=True),
    dict(imli_sic=True, imli_oh=True, oh_update_delay=63, imli_global_tables=1),
]


def _group(base):
    predictors = [build(CompositeOptions(base=base, **member), "small") for member in MEMBERS]
    groups, solos = shared_core.plan_groups(predictors)
    assert len(groups) == 1 and solos == []
    return groups[0]


def _components(group):
    """The group's distinct-key components, in flat order."""
    return [index_columns.__self__ for index_columns in group._column_fns]


def _state_snapshot(state):
    structures = []
    for structure in state._trace_only.values():
        if isinstance(structure, LocalHistoryTable):
            structures.append(list(structure.entries))
        else:
            assert isinstance(structure, OuterHistory)
            structures.append((
                list(structure.history), list(structure.pipe),
                list(structure._pending), structure._tick,
            ))
    return (
        [folded.fold for folded in state._folded],
        state.global_history.bits,
        state.global_history.length,
        state.path_history.bits,
        state.imli.count,
        structures,
    )


@pytest.mark.parametrize("sub_block", [1, 7, 64])
@pytest.mark.parametrize("use_chunks", [False, True])
@pytest.mark.parametrize("base", ["tage-gsc", "gehl"])
def test_block_columns_match_per_branch_upkeep(
    differential_traces, monkeypatch, sub_block, use_chunks, base
):
    monkeypatch.setattr(engine, "SUB_BLOCK_RECORDS", sub_block)
    monolithic, chunked = differential_traces
    trace = (chunked if use_chunks else monolithic)[0]
    block_group, step_group = _group(base), _group(base)
    block_state, step_state = block_group.state, step_group.state
    pairs = list(zip(_components(block_group), _components(step_group)))
    assert len(pairs) >= 6
    rng = random.Random(sub_block)
    for block in engine._column_blocks(trace):
        assert len(block[0]) <= sub_block
        columns = block_state.advance_block(*block[:4])
        tage_columns = (
            block_group.tage.index_columns(columns) if block_group.tage is not None else None
        )
        # The TAGE-bit bias index hashes the group's TAGE prediction column:
        # all not taken, all taken and a random mix.
        settings = [bytes(columns.n), b"\x01" * columns.n, rng.randbytes(columns.n)]
        index_columns = []
        for setting in settings:
            setting = bytes(bit & 1 for bit in setting)
            columns.tage = swar.pack_bytes(setting)
            index_columns.append(
                (setting, [component.index_columns(columns) for component, _ in pairs])
            )
        position = 0
        for pc, target, taken, kind, _ in zip(*block):
            if kind != CONDITIONAL_CODE:
                step_state.observe_pc(pc)
                continue
            if tage_columns is not None:
                indices, tags, base_index = tage_columns
                tage = step_group.tage
                assert [column[position] for column in indices] == [
                    tage._table_index(pc, table) for table in range(len(indices))
                ]
                assert [column[position] for column in tags] == [
                    tage._table_tag(pc, table) for table in range(len(tags))
                ]
                assert base_index[position] == tage._base_index(pc)
            for setting, setting_columns in index_columns:
                step_state.tage_prediction = bool(setting[position])
                for (_, component), component_columns in zip(pairs, setting_columns):
                    expected = [index for _, index in component.select(pc, step_state)]
                    got = [column[position] for column in component_columns]
                    assert got == expected, (type(component).__name__, position)
            step_state.update_conditional_fields(pc, target, taken)
            position += 1
        assert position == columns.n
        assert _state_snapshot(block_state) == _state_snapshot(step_state)


@settings(max_examples=12, deadline=None)
@given(
    members=st.lists(batch_tests._HEAD_OPTIONS, min_size=2, max_size=5),
    trace_index=st.sampled_from([0, 1]),
    use_chunks=st.booleans(),
    track=st.booleans(),
)
def test_group_differential_with_small_sub_blocks(
    differential_traces, members, trace_index, use_chunks, track
):
    # TestGroupDifferential with 7-record sub-blocks, so every pre-pass
    # carry (history, folds, path, IMLI count, outer histories) crosses
    # many block boundaries; each member also runs as a batch of one, a
    # group of one over its own tables.
    monolithic, chunked = differential_traces
    trace = (chunked if use_chunks else monolithic)[trace_index]
    options = [CompositeOptions(**member) for member in members]
    saved = engine.SUB_BLOCK_RECORDS
    engine.SUB_BLOCK_RECORDS = 7
    try:
        batched = simulate_many(
            [build(option, "small") for option in options], trace, track_per_pc=track
        )
        alone = [
            simulate(build(option, "small"), trace, track_per_pc=track)
            for option in options
        ]
    finally:
        engine.SUB_BLOCK_RECORDS = saved
    references = batch_tests.TestGroupDifferential()
    for result, solo, option in zip(batched, alone, options):
        reference = references._reference(option, monolithic[trace_index], track)
        batch_tests._assert_identical(result, reference)
        batch_tests._assert_identical(solo, reference)


def _grid(base):
    return [build(CompositeOptions(base=base, **member), "small") for member in MEMBERS]


@pytest.mark.parametrize("track", [False, True])
def test_grouped_steps_do_no_upkeep_or_hashing(differential_traces, monkeypatch, track):
    monolithic, chunked = differential_traces
    traces = [monolithic[1], chunked[1]]
    expected = [
        simulate_many(_grid("tage-gsc") + _grid("gehl"), trace, track_per_pc=track,
                      share_cores=False)
        for trace in traces
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("per-branch upkeep or hashing in a grouped run")

    monkeypatch.setattr(SharedState, "update_conditional_fields", forbidden)
    monkeypatch.setattr(SharedState, "observe_pc", forbidden)
    monkeypatch.setattr(TAGEEngine, "predict_into", forbidden)
    pending = [IndexedComponent]
    while pending:
        kind = pending.pop()
        pending.extend(kind.__subclasses__())
        if "select" in vars(kind):
            monkeypatch.setattr(kind, "select", forbidden)
    for trace, reference in zip(traces, expected):
        grouped = simulate_many(_grid("tage-gsc") + _grid("gehl"), trace, track_per_pc=track)
        for result, solo in zip(grouped, reference):
            batch_tests._assert_identical(result, solo)


def test_finished_groups_are_freed_without_the_cyclic_gc(differential_traces, monkeypatch):
    # A group must not form a reference cycle with its column state: the
    # cycle would keep every finished group's tables alive until the
    # cyclic collector runs.
    groups = []

    def plan_and_watch(predictors, share_cores=True):
        plan = shared_core.plan_groups(predictors, share_cores)
        groups.extend(weakref.ref(group) for group in plan[0])
        return plan

    monkeypatch.setattr(engine, "plan_groups", plan_and_watch)
    monolithic, chunked = differential_traces
    gc.collect()
    gc.disable()
    try:
        for trace in (monolithic[0], chunked[0]):
            simulate_many(_grid("tage-gsc") + _grid("gehl"), trace)
            simulate_many(_grid("gehl"), trace, track_per_pc=True)
    finally:
        gc.enable()
    assert len(groups) == 6
    assert [group() for group in groups] == [None] * 6


@pytest.mark.parametrize("base", ["tage-gsc", "gehl"])
def test_lone_and_trained_predictors_run_as_groups_of_one(
    differential_traces, monkeypatch, base
):
    trace = differential_traces[0][0]
    # Reference instances replay the trace twice: the second replay
    # starts from the state the first one trained.
    reference = _grid(base)
    first = simulate_many(reference, trace, use_fast_path=False)
    second = simulate_many(reference, trace, use_fast_path=False)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-branch upkeep or hashing outside a group")

    monkeypatch.setattr(SharedState, "update_conditional_fields", forbidden)
    monkeypatch.setattr(SharedState, "observe_pc", forbidden)
    monkeypatch.setattr(TAGEEngine, "predict_into", forbidden)
    lone = _grid(base)[0]
    batch_tests._assert_identical(simulate(lone, trace), first[0])
    assert not shared_core.is_pristine(lone)  # trained in place
    batch_tests._assert_identical(simulate(lone, trace), second[0])
    # A trained member is a group of one beside the pristine members'
    # shared group, and continues from its trained state.
    trained = _grid(base)
    simulate(trained[0], trace)
    for result, expected in zip(simulate_many(trained, trace), second[:1] + first[1:]):
        batch_tests._assert_identical(result, expected)
