"""A composite run on the fast path is trained in place, as on the reference path.

Every TAGE-GSC/GEHL composite runs as a group; a lone one is a group of
one over the predictor's own state, TAGE engine, adder tree and sidecars.
After ``simulate`` the instance must therefore hold exactly the learned
and trace-only state the record-based reference path leaves, and a
second trace must continue from it with identical results.
"""

from __future__ import annotations

import pytest

from repro.common.history import LocalHistoryTable
from repro.core.imli_oh import OuterHistory
from repro.predictors.composites import build_named, configuration_names
from repro.sim.engine import simulate
from repro.workloads.suites import generate_benchmark, get_benchmark


@pytest.fixture(scope="module")
def traces(mixed_kind):
    """Two mixed-kind traces: the first trains, the second continues."""
    return [
        mixed_kind(
            generate_benchmark(
                get_benchmark("cbp4like", name), target_conditional_branches=400
            ),
            seed,
        )
        for seed, name in enumerate(["SPEC2K6-12", "SPEC2K6-04"])
    ]


def _trace_only(structure):
    if isinstance(structure, LocalHistoryTable):
        return list(structure.entries)
    assert isinstance(structure, OuterHistory)
    return (
        list(structure.history), list(structure.pipe),
        list(structure._pending), structure._tick,
    )


def _state(predictor) -> dict:
    """Everything a later branch can read, minus reference-only memos.

    ``IMLIOuterHistoryComponent._indices_by_pc`` (a hash memo of the
    per-branch ``compute_indices``) and the prediction contexts cached
    between ``predict`` and ``update`` are left out: they are not state
    a prediction depends on.
    """
    main = getattr(predictor, "main", predictor)
    state = main.state
    corrector = getattr(main, "corrector", None)
    adder = main.adder if corrector is None else corrector.adder
    snapshot = {
        "counters": [
            list(table.values)
            for component in adder.components
            for table in component.counter_tables
        ],
        "threshold": (adder.threshold, adder._threshold_counter),
        "history": (
            state.global_history.bits,
            state.global_history.length,
            state.path_history.bits,
            state.imli.count,
        ),
        "folds": [folded.fold for folded in state._folded],
        "trace_only": [_trace_only(structure) for structure in state._trace_only.values()],
    }
    tage = getattr(main, "tage", None)
    if tage is not None:
        snapshot["tage"] = (
            [(list(table.tag), list(table.ctr), list(table.useful)) for table in tage.tables],
            list(tage.base.values),
            tage._use_alt,
            tage._allocation_seed,
            tage._updates_since_reset,
        )
    loop = getattr(predictor, "loop_predictor", None)
    if loop is not None:
        snapshot["loop"] = [
            (entry.tag, entry.trip_count, entry.current_count, entry.confidence, entry.valid)
            for entry in loop.entries
        ]
    wormhole = getattr(predictor, "wormhole", None)
    if wormhole is not None:
        snapshot["wormhole"] = (
            [
                (pc, entry.history, entry.history_length, list(entry.counters), entry.usefulness)
                for pc, entry in wormhole.entries.items()
            ],
            wormhole._current_loop_pc,
        )
    return snapshot


@pytest.mark.parametrize("configuration", configuration_names())
@pytest.mark.parametrize("warmup,track", [(0.0, False), (0.25, True)])
def test_fast_path_trains_the_instance_like_the_reference(
    traces, configuration, warmup, track
):
    fast = build_named(configuration, profile="small")
    reference = build_named(configuration, profile="small")
    for trace in traces:
        ours = simulate(fast, trace, warmup_fraction=warmup, track_per_pc=track)
        theirs = simulate(
            reference, trace, warmup_fraction=warmup, track_per_pc=track,
            use_fast_path=False,
        )
        assert ours == theirs, trace.name
        assert _state(fast) == _state(reference), trace.name
