"""Fresh shared-core groups run each distinct head once.

Members whose heads have equal content (the same column positions,
counter values and bounds, threshold state and revert margin, and no
sidecars) share one head kernel per sub-block.  The oracles are the same
batch with ``share_cores=False`` (every member a group of one over its
own tables) and the record-based reference path.
"""

from __future__ import annotations

import pytest

import test_batch_engine as batch_tests
from repro.api.specs import PredictorSpec
from repro.predictors import shared_core
from repro.predictors.shared_core import plan_groups
from repro.sim import engine
from repro.sim.engine import simulate, simulate_many

differential_traces = batch_tests.differential_traces


def _specs():
    """Two gehl heads over five members, two tage-gsc heads over three.

    With IMLI-OH off, ``oh_update_delay`` changes nothing, so the three
    ``imli_oh=False`` members are one head; the ``tage-gsc+oh`` twins
    are another.
    """
    gehl = PredictorSpec.from_named("gehl+imli", profile="small")
    tage = PredictorSpec.from_named("tage-gsc+oh", profile="small")
    return (
        [gehl]
        + gehl.sweep(imli_oh=[False], oh_update_delay=[0, 3, 63])
        + [tage, tage] + tage.sweep(oh_update_delay=[63])
    )


def _member_heads(predictors):
    groups, solos = plan_groups(predictors)
    assert solos == []
    return sorted((group.kind, group._member_heads) for group in groups)


def test_equal_content_heads_share_one_head():
    assert _member_heads([spec.build() for spec in _specs()]) == [
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


def test_head_kernel_runs_once_per_distinct_head(differential_traces, monkeypatch):
    trace = differential_traces[0][0]
    calls = {"tage-gsc": 0, "gehl": 0}
    real_kernel = shared_core.head_kernel

    def counted(rows, corrector):
        kernel = real_kernel(rows, corrector)

        def run(*args):
            calls["tage-gsc" if corrector else "gehl"] += 1
            return kernel(*args)

        return run

    monkeypatch.setattr(shared_core, "head_kernel", counted)
    blocks = sum(1 for _ in engine._column_blocks(trace))
    assert blocks > 1
    simulate_many([spec.build() for spec in _specs()], trace)
    assert calls == {"tage-gsc": 2 * blocks, "gehl": 2 * blocks}


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
