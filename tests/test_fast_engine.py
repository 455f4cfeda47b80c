"""Equivalence tests for the columnar fast simulation path.

The engine promises that the fast path (the block loop handing column
sub-blocks to shared-core groups and ``predict_update_block`` solos) and the
reference path (record views driving ``predict()`` / ``update()``) are
bit-identical.  These tests pin
that promise for every registered composite configuration on benchmarks
from both synthetic suites and on a mixed-kind trace (calls, returns,
unconditional and indirect branches, which the all-conditional suites
never produce), plus the protocol edge cases.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.component import SharedState
from repro.predictors.adder import AdderTree
from repro.predictors.composites import build_named, configuration_names
from repro.predictors.simple import (
    AlwaysTakenPredictor,
    BimodalPredictor,
)
from repro.predictors.statistical_corrector import StatisticalCorrector
from repro.predictors.tage import TAGEConfig, TAGEEngine, TAGEPredictor
from repro.sim.engine import simulate, supports_fast_path
from repro.trace.branch import BranchKind
from repro.workloads.suites import generate_benchmark, get_benchmark

#: One deliberately hard benchmark per suite (they exercise IMLI, wormhole
#: and noise kernels together, so every component sees real traffic).
_BENCHMARKS = [("cbp4like", "SPEC2K6-12"), ("cbp3like", "MM07")]

#: The first benchmark with every non-conditional branch kind mixed in.
_MIXED = ("mixed", "SPEC2K6-12")

#: Solo predictors: not groupable, stepped through ``predict_update_block``.
_SOLOS = {
    "bimodal": BimodalPredictor,
    "tage": lambda: TAGEPredictor(
        TAGEConfig(num_tables=5, table_entries=256, base_entries=512, max_history=60)
    ),
}


@pytest.fixture(scope="module")
def suite_traces(mixed_kind):
    traces = {
        (suite, name): generate_benchmark(
            get_benchmark(suite, name), target_conditional_branches=400
        )
        for suite, name in _BENCHMARKS
    }
    traces[_MIXED] = mixed_kind(traces[_BENCHMARKS[0]], seed=0)
    return traces


def _assert_identical(reference, fast):
    assert reference.mispredictions == fast.mispredictions
    assert reference.conditional_branches == fast.conditional_branches
    assert reference.instructions == fast.instructions
    assert reference.storage_bits == fast.storage_bits
    assert reference.per_pc_mispredictions == fast.per_pc_mispredictions


@pytest.mark.parametrize("configuration", configuration_names())
@pytest.mark.parametrize("suite,benchmark_name", _BENCHMARKS + [_MIXED])
class TestCompositeEquivalence:
    def test_fast_path_matches_reference(
        self, suite_traces, configuration, suite, benchmark_name
    ):
        trace = suite_traces[(suite, benchmark_name)]
        reference = simulate(
            build_named(configuration, profile="small"), trace, use_fast_path=False
        )
        fast = simulate(
            build_named(configuration, profile="small"), trace, use_fast_path=True
        )
        _assert_identical(reference, fast)


@pytest.mark.parametrize("configuration", ["tage-gsc+imli", "gehl+imli+l"])
def test_reference_path_steps_through_the_field_forms(
    suite_traces, monkeypatch, configuration
):
    """The reference loop trains and advances through the field forms.

    Once per conditional record: the shared state's update, the adder
    tree's training and, under TAGE-GSC, TAGE's and the corrector's
    training; once per other record: the path-history push.
    """
    trace = suite_traces[_MIXED]
    calls = Counter()
    hooks = [
        (SharedState, "update_conditional_fields"),
        (SharedState, "observe_pc"),
        (AdderTree, "train_fields"),
    ]
    if configuration.startswith("tage-gsc"):
        hooks += [(TAGEEngine, "train_fields"), (StatisticalCorrector, "train_fields")]
    for owner, name in hooks:
        def counted(*args, _inherited=getattr(owner, name), _key=f"{owner.__name__}.{name}",
                    **kwargs):
            calls[_key] += 1
            return _inherited(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    simulate(build_named(configuration, profile="small"), trace, use_fast_path=False)
    conditional = trace.conditional_count
    assert 0 < conditional < len(trace)
    expected = {f"{owner.__name__}.{name}": conditional for owner, name in hooks}
    expected["SharedState.observe_pc"] = len(trace) - conditional
    assert calls == expected


class TestFastPathProtocol:
    def test_all_composites_support_fast_path(self, suite_traces):
        trace = next(iter(suite_traces.values()))
        for configuration in configuration_names():
            predictor = build_named(configuration, profile="small")
            assert supports_fast_path(predictor, trace), configuration

    def test_bimodal_supports_fast_path(self, suite_traces):
        trace = next(iter(suite_traces.values()))
        assert supports_fast_path(BimodalPredictor(), trace)

    def test_non_opt_in_predictor_falls_back(self, suite_traces):
        trace = next(iter(suite_traces.values()))
        predictor = AlwaysTakenPredictor()
        assert not supports_fast_path(predictor, trace)
        # Auto mode silently uses the reference path ...
        result = simulate(predictor, trace)
        assert result.conditional_branches == trace.conditional_count
        # ... while an explicit fast-path request is an error.
        with pytest.raises(ValueError):
            simulate(predictor, trace, use_fast_path=True)

        # The per-branch predict_update / observe_pc step is no fast-path
        # protocol: a predictor offering only that takes the reference loop.
        class PerBranchStep(AlwaysTakenPredictor):
            def predict_update(self, pc, target, taken, kind=0, gap=0):
                raise AssertionError("predict_update called")

            def observe_pc(self, pc):
                raise AssertionError("observe_pc called")

        predictor = PerBranchStep()
        assert not supports_fast_path(predictor, trace)
        assert simulate(predictor, trace).mispredictions == result.mispredictions
        with pytest.raises(ValueError):
            simulate(predictor, trace, use_fast_path=True)

    @pytest.mark.parametrize("key", [_BENCHMARKS[0], _MIXED], ids=["cbp4like", "mixed"])
    def test_per_pc_equivalence(self, suite_traces, key):
        trace = suite_traces[key]
        reference = simulate(
            build_named("tage-gsc+imli", profile="small"),
            trace,
            track_per_pc=True,
            use_fast_path=False,
        )
        fast = simulate(
            build_named("tage-gsc+imli", profile="small"),
            trace,
            track_per_pc=True,
            use_fast_path=True,
        )
        _assert_identical(reference, fast)
        assert fast.per_pc_mispredictions  # misses actually got attributed

    @pytest.mark.parametrize("key", [_BENCHMARKS[0], _MIXED], ids=["cbp4like", "mixed"])
    @pytest.mark.parametrize("track", [False, True])
    @pytest.mark.parametrize("solo", sorted(_SOLOS))
    def test_bimodal_equivalence(self, suite_traces, key, track, solo):
        # A lone solo runs the block loop through predict_update_block,
        # with and without per-PC tracking; the per-PC map's key order
        # (first misprediction) must match the reference loop's too.
        trace = suite_traces[key]
        make = _SOLOS[solo]
        reference = simulate(
            make(), trace, track_per_pc=track, use_fast_path=False
        )
        fast = simulate(make(), trace, track_per_pc=track, use_fast_path=True)
        _assert_identical(reference, fast)
        assert list(fast.per_pc_mispredictions.items()) == list(
            reference.per_pc_mispredictions.items()
        )
        assert bool(fast.per_pc_mispredictions) == track

    def test_mixed_trace_holds_every_kind(self, suite_traces):
        kinds = {record.kind for record in suite_traces[_MIXED]}
        assert kinds == set(BranchKind)
        # The path history keeps the low two PC bits of every branch; the
        # inserted records must set some, or it never leaves zero.
        assert any(record.pc & 3 for record in suite_traces[_MIXED])
