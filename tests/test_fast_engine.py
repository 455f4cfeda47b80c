"""Equivalence tests for the columnar fast simulation path.

The engine promises that the fast path (columnar iteration driving the
combined ``predict_update`` protocol) and the reference path (record views
driving ``predict()`` / ``update()``) are bit-identical.  These tests pin
that promise for every registered composite configuration on benchmarks
from both synthetic suites and on a mixed-kind trace (calls, returns,
unconditional and indirect branches, which the all-conditional suites
never produce), plus the protocol edge cases.
"""

from __future__ import annotations

import pytest

from repro.predictors.composites import build_named, configuration_names
from repro.predictors.simple import (
    AlwaysTakenPredictor,
    BimodalPredictor,
)
from repro.sim.engine import simulate, supports_fast_path
from repro.trace.branch import BranchKind
from repro.workloads.suites import generate_benchmark, get_benchmark

#: One deliberately hard benchmark per suite (they exercise IMLI, wormhole
#: and noise kernels together, so every component sees real traffic).
_BENCHMARKS = [("cbp4like", "SPEC2K6-12"), ("cbp3like", "MM07")]

#: The first benchmark with every non-conditional branch kind mixed in.
_MIXED = ("mixed", "SPEC2K6-12")


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

    @pytest.mark.parametrize("key", [_BENCHMARKS[0], _MIXED], ids=["cbp4like", "mixed"])
    def test_warmup_and_per_pc_equivalence(self, suite_traces, key):
        trace = suite_traces[key]
        reference = simulate(
            build_named("tage-gsc+imli", profile="small"),
            trace,
            warmup_fraction=0.25,
            track_per_pc=True,
            use_fast_path=False,
        )
        fast = simulate(
            build_named("tage-gsc+imli", profile="small"),
            trace,
            warmup_fraction=0.25,
            track_per_pc=True,
            use_fast_path=True,
        )
        _assert_identical(reference, fast)
        assert fast.per_pc_mispredictions  # misses actually got attributed

    @pytest.mark.parametrize("key", [_BENCHMARKS[0], _MIXED], ids=["cbp4like", "mixed"])
    @pytest.mark.parametrize("track", [False, True])
    def test_bimodal_equivalence(self, suite_traces, key, track):
        # Without per-PC tracking a lone bimodal takes the column-block
        # lane; with it, the grouped general loop.
        trace = suite_traces[key]
        reference = simulate(
            BimodalPredictor(), trace, track_per_pc=track, use_fast_path=False
        )
        fast = simulate(
            BimodalPredictor(), trace, track_per_pc=track, use_fast_path=True
        )
        _assert_identical(reference, fast)

    def test_mixed_trace_holds_every_kind(self, suite_traces):
        kinds = {record.kind for record in suite_traces[_MIXED]}
        assert kinds == set(BranchKind)
