"""Heads that still agree run once.

A fresh shared-core group sorts its heads into classes of equal state
(counter values and bounds, threshold state and revert margin; no
sidecars) and runs one head kernel per class and sub-block.  A class
splits on the first sub-block on which its members' index columns
differ, and each new part starts from a copy of the class's state.  The
oracles are the same batch with ``share_cores=False`` (every member a
group of one over its own tables) and the record-based reference path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_batch_engine as batch_tests
from repro.api.specs import PredictorSpec
from repro.predictors import shared_core
from repro.predictors.shared_core import plan_groups
from repro.sim import engine
from repro.sim.engine import simulate, simulate_many

differential_traces = batch_tests.differential_traces


def _specs():
    """Two gehl classes over four members, one tage-gsc class over three.

    With IMLI-OH off, ``oh_update_delay`` changes nothing, so the three
    ``imli_oh=False`` members stay one class; the ``tage-gsc+oh`` members
    start as one class, which the delay-63 member leaves once its outer
    history reads differently from delay 0's.
    """
    gehl = PredictorSpec.from_named("gehl+imli", profile="small")
    tage = PredictorSpec.from_named("tage-gsc+oh", profile="small")
    return (
        [gehl]
        + gehl.sweep(imli_oh=[False], oh_update_delay=[0, 3, 63])
        + [tage, tage] + tage.sweep(oh_update_delay=[63])
    )


def _member_heads(predictors, trace=None):
    """Per group, the class each member's head runs in, numbered in order.

    Classes are taken at build time, or after ``trace`` has run.
    """
    groups, solos = plan_groups(predictors)
    assert solos == []
    for block in engine._column_blocks(trace) if trace is not None else ():
        for group in groups:
            group.run_block(block)
    heads = []
    for group in groups:
        classes = [0] * len(group.indices)
        for number, (members, _) in enumerate(sorted(group._classes)):
            for member in members:
                classes[member] = number
        heads.append((group.kind, classes))
    return sorted(heads)


def test_equal_state_heads_share_one_class(differential_traces):
    # At build time every tage-gsc+oh head has the same state; the
    # delay-63 member leaves its class once its outer-history reads
    # differ from delay 0's, and the imli_oh=False members never do.
    assert _member_heads([spec.build() for spec in _specs()]) == [
        ("gehl", [0, 1, 1, 1]),
        ("tage-gsc", [0, 0, 0]),
    ]
    trace = differential_traces[0][0]
    assert _member_heads([spec.build() for spec in _specs()], trace) == [
        ("gehl", [0, 1, 1, 1]),
        ("tage-gsc", [0, 0, 1]),
    ]


@pytest.mark.parametrize("use_chunks", [False, True])
def test_merged_heads_match_unshared_and_reference(differential_traces, use_chunks):
    monolithic, chunked = differential_traces
    specs = _specs()
    for trace in chunked if use_chunks else monolithic:
        merged = simulate_many([spec.build() for spec in specs], trace, track_per_pc=True)
        unshared = simulate_many(
            [spec.build() for spec in specs], trace, track_per_pc=True, share_cores=False
        )
        for result, alone, spec in zip(merged, unshared, specs):
            batch_tests._assert_identical(result, alone)
            reference = simulate(
                spec.build(), trace, track_per_pc=True, use_fast_path=False
            )
            batch_tests._assert_identical(result, reference)


def _count_kernel_runs(monkeypatch):
    """Count head-kernel runs per base from now on."""
    calls = {"tage-gsc": 0, "gehl": 0}
    real_kernel = shared_core.head_kernel

    def counted(rows, corrector):
        kernel = real_kernel(rows, corrector)

        def run(*args):
            calls["tage-gsc" if corrector else "gehl"] += 1
            return kernel(*args)

        return run

    monkeypatch.setattr(shared_core, "head_kernel", counted)
    return calls


def test_head_kernel_runs_once_per_distinct_head(differential_traces, monkeypatch):
    # The delay-63 tage-gsc head leaves its class on the first sub-block.
    trace = differential_traces[0][0]
    calls = _count_kernel_runs(monkeypatch)
    blocks = sum(1 for _ in engine._column_blocks(trace))
    assert blocks > 1
    simulate_many([spec.build() for spec in _specs()], trace)
    assert calls == {"tage-gsc": 2 * blocks, "gehl": 2 * blocks}


@pytest.mark.parametrize("base", ["tage-gsc+oh", "gehl+imli"])
def test_class_splits_after_its_first_sub_block(differential_traces, monkeypatch, base):
    # On this trace, delays 0 and 7 read the same outer history for six
    # sub-blocks and then differ: the delay-7 head must pick up its
    # class's trained counters and threshold state at the split, so its
    # results match its own unshared run and the reference path.
    trace = differential_traces[0][0]
    specs = PredictorSpec.from_named(base, profile="small").sweep(oh_update_delay=[0, 7])
    calls = _count_kernel_runs(monkeypatch)
    merged = simulate_many([spec.build() for spec in specs], trace, track_per_pc=True)
    runs = sum(calls.values())
    blocks = sum(1 for _ in engine._column_blocks(trace))
    assert blocks < runs < 2 * blocks
    monkeypatch.undo()
    unshared = simulate_many(
        [spec.build() for spec in specs], trace, track_per_pc=True, share_cores=False
    )
    for result, alone, spec in zip(merged, unshared, specs):
        batch_tests._assert_identical(result, alone)
        reference = simulate(spec.build(), trace, track_per_pc=True, use_fast_path=False)
        batch_tests._assert_identical(result, reference)


def _learned(group, member):
    """The counter values and threshold state of a member's head."""
    _, _, tables, adder, _, _ = group._heads[member]
    return [list(values) for values, _, _ in tables], adder.threshold, adder._threshold_counter


@pytest.mark.parametrize("use_chunks", [False, True])
@pytest.mark.parametrize("base", ["tage-gsc+oh", "gehl+imli"])
def test_every_class_holds_its_members_unshared_state(differential_traces, base, use_chunks):
    # After every sub-block, the head that runs for a class has learned
    # exactly what each member's own head learns alone, so a part split
    # off a class starts from that state (counters, threshold and
    # threshold counter).
    trace = differential_traces[1 if use_chunks else 0][0]
    specs = PredictorSpec.from_named(base, profile="small").sweep(oh_update_delay=[0, 7, 63])
    (merged,), _ = plan_groups([spec.build() for spec in specs])
    alone, _ = plan_groups([spec.build() for spec in specs], share_cores=False)
    splits = 0
    for block in engine._column_blocks(trace):
        merged.run_block(block)
        for group in alone:
            group.run_block(block)
        for members, _ in merged._classes:
            for member in members:
                assert _learned(merged, members[0]) == _learned(alone[member], 0)
        splits = max(splits, len(merged._classes))
    assert splits == 3


#: Reference results by (base, delay, trace index), shared by the examples.
_references: dict = {}


def _reference(base, delay, trace_index, trace):
    key = (base, delay, trace_index)
    if key not in _references:
        spec = PredictorSpec.from_named(base, profile="small", oh_update_delay=delay)
        _references[key] = simulate(
            spec.build(), trace, track_per_pc=True, use_fast_path=False
        )
    return _references[key]


@settings(max_examples=10, deadline=None)
@given(
    base=st.sampled_from(["tage-gsc+oh", "gehl+imli"]),
    delays=st.lists(st.sampled_from([0, 1, 3, 7, 15, 63, 600]), min_size=2, max_size=5),
    trace_index=st.sampled_from([0, 1]),
    use_chunks=st.booleans(),
)
def test_delay_subsets_match_unshared_and_reference(
    differential_traces, base, delays, trace_index, use_chunks
):
    # Any subset of delays, repeats included (equal specs start as one
    # class whose columns always agree), over sub-blocks of up to 512
    # records or chunks of 97.
    monolithic, chunked = differential_traces
    trace = (chunked if use_chunks else monolithic)[trace_index]
    specs = [
        PredictorSpec.from_named(base, profile="small", oh_update_delay=delay)
        for delay in delays
    ]
    merged = simulate_many([spec.build() for spec in specs], trace, track_per_pc=True)
    unshared = simulate_many(
        [spec.build() for spec in specs], trace, track_per_pc=True, share_cores=False
    )
    for result, alone, delay in zip(merged, unshared, delays):
        batch_tests._assert_identical(result, alone)
        batch_tests._assert_identical(
            result, _reference(base, delay, trace_index, monolithic[trace_index])
        )


def _twins(**overrides):
    spec = PredictorSpec.from_named("tage-gsc+oh", profile="small", **overrides)
    return [spec.build(), spec.build()]


def _perturb_second_head(monkeypatch, change):
    """Make fresh tage-gsc groups apply ``change`` to their second head."""
    real = shared_core._GROUP_KINDS["tage-gsc"]

    def make(indices, state, tage, heads):
        heads = list(heads)
        heads[1] = change(*heads[1])
        return real(indices, state, tage, heads)

    monkeypatch.setitem(shared_core._GROUP_KINDS, "tage-gsc", make)


def _train_one_counter(adder, revert_margin, sidecars):
    table = adder.components[0].counter_tables[0]
    table.values[5] = table.maximum
    return adder, revert_margin, sidecars


def _raise_threshold(adder, revert_margin, sidecars):
    adder.threshold += 1
    return adder, revert_margin, sidecars


def _move_threshold_counter(adder, revert_margin, sidecars):
    adder._threshold_counter += 1
    return adder, revert_margin, sidecars


def _widen_revert_margin(adder, revert_margin, sidecars):
    return adder, revert_margin + 1, sidecars


@pytest.mark.parametrize(
    "change",
    [_train_one_counter, _raise_threshold, _move_threshold_counter, _widen_revert_margin],
)
def test_heads_that_differ_are_not_merged(monkeypatch, change):
    assert _member_heads(_twins()) == [("tage-gsc", [0, 0])]
    _perturb_second_head(monkeypatch, change)
    assert _member_heads(_twins()) == [("tage-gsc", [0, 1])]


def test_heads_with_sidecars_are_not_merged():
    assert _member_heads(_twins(loop=True)) == [("tage-gsc", [0, 1])]
    assert _member_heads(_twins(wormhole=True)) == [("tage-gsc", [0, 1])]
