"""Tests for the simulation engine, metrics and suite runner."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import PredictorSpec, Registry
from repro.predictors.simple import AlwaysTakenPredictor, BimodalPredictor
from repro.sim.engine import SimulationResult, simulate
from repro.sim.metrics import (
    average_mpki,
    most_affected,
    most_improved,
    mpki_by_trace,
    mpki_delta,
    mpki_reduction_percent,
)
from repro.sim.runner import SuiteRunner
from repro.trace.branch import BranchKind, BranchRecord, conditional_branch
from repro.trace.trace import Trace


def _tiny_trace(name="tiny"):
    trace = Trace(name=name)
    for index in range(20):
        trace.append(conditional_branch(0x100, 0x140, taken=index % 2 == 0, instruction_gap=9))
    trace.append(BranchRecord(pc=0x200, target=0x240, taken=True, kind=BranchKind.CALL))
    return trace


class TestSimulate:
    def test_counts_and_mpki(self):
        trace = _tiny_trace()
        result = simulate(AlwaysTakenPredictor(), trace)
        assert result.conditional_branches == 20
        assert result.mispredictions == 10
        assert result.instructions == trace.instruction_count
        assert result.mpki == pytest.approx(1000.0 * 10 / trace.instruction_count)
        assert result.misprediction_rate == pytest.approx(0.5)
        assert result.accuracy == pytest.approx(0.5)

    def test_summary_mentions_names(self):
        result = simulate(AlwaysTakenPredictor(), _tiny_trace("bench-x"))
        assert "bench-x" in result.summary()
        assert "always-taken" in result.summary()

    def test_every_conditional_branch_is_measured(self):
        # The first half is not-taken, so always-taken mispredicts only
        # there: a warm-up window would have dropped all ten.
        trace = Trace(name="cold-start")
        for index in range(20):
            trace.append(conditional_branch(0x100, 0x140, taken=index >= 10))
        result = simulate(AlwaysTakenPredictor(), trace)
        assert result.conditional_branches == 20
        assert result.mispredictions == 10

    def test_warmup_fraction_not_accepted(self):
        with pytest.raises(TypeError, match="warmup_fraction"):
            simulate(AlwaysTakenPredictor(), _tiny_trace(), warmup_fraction=0.5)

    def test_per_pc_tracking(self):
        result = simulate(AlwaysTakenPredictor(), _tiny_trace(), track_per_pc=True)
        assert result.per_pc_mispredictions == {0x100: 10}

    def test_empty_trace(self):
        result = simulate(AlwaysTakenPredictor(), Trace(name="empty"))
        assert result.mpki == 0.0
        assert result.accuracy == 1.0

    def test_storage_reported(self):
        result = simulate(BimodalPredictor(entries=64), _tiny_trace())
        assert result.storage_bits == 128


class TestMetrics:
    def _results(self):
        return [
            SimulationResult("a", "p", 1000, 10, 10000, 0),
            SimulationResult("b", "p", 1000, 30, 10000, 0),
        ]

    def test_average_mpki(self):
        assert average_mpki(self._results()) == pytest.approx((1.0 + 3.0) / 2)

    def test_average_rejects_empty(self):
        with pytest.raises(ValueError):
            average_mpki([])

    def test_mpki_by_trace(self):
        assert mpki_by_trace(self._results()) == {"a": pytest.approx(1.0), "b": pytest.approx(3.0)}

    def test_mpki_delta(self):
        baseline = {"a": 2.0, "b": 3.0}
        candidate = {"a": 1.5, "b": 3.5}
        assert mpki_delta(baseline, candidate) == {"a": pytest.approx(0.5), "b": pytest.approx(-0.5)}

    def test_mpki_delta_requires_same_traces(self):
        with pytest.raises(ValueError):
            mpki_delta({"a": 1.0}, {"b": 1.0})

    def test_reduction_percent(self):
        assert mpki_reduction_percent(2.0, 1.5) == pytest.approx(25.0)
        assert mpki_reduction_percent(0.0, 1.0) == 0.0

    def test_most_improved(self):
        baseline = {"a": 2.0, "b": 3.0, "c": 1.0}
        candidate = {"a": 1.0, "b": 2.9, "c": 1.0}
        assert most_improved(baseline, candidate, 2) == [("a", pytest.approx(1.0)), ("b", pytest.approx(0.1))]

    def test_most_affected(self):
        baseline = {"a": 2.0, "b": 3.0, "c": 1.0}
        candidates = [{"a": 1.0, "b": 3.0, "c": 1.0}, {"a": 2.0, "b": 3.4, "c": 1.0}]
        assert most_affected(baseline, candidates, 2) == ["a", "b"]


def _builder_registry():
    """A scoped registry with a builder-based ``always`` configuration."""
    registry = Registry.with_defaults()
    registry.register_configuration("always", lambda profile: AlwaysTakenPredictor())
    return registry


class TestSuiteRunner:
    def _runner(self):
        traces = [_tiny_trace("t1"), _tiny_trace("t2")]
        return SuiteRunner(traces, profile="small", store=False)

    def _run(self, runner, registry, name="always", track_per_pc=False):
        spec = PredictorSpec.from_named(name, profile="small")
        return runner.run_spec(spec, track_per_pc, registry=registry)

    def test_requires_traces(self):
        with pytest.raises(ValueError):
            SuiteRunner([])

    def test_run_builder_spec(self):
        runner = self._runner()
        run = self._run(runner, _builder_registry())
        assert run.configuration == "always"
        assert len(run.results) == 2
        assert run.average_mpki > 0
        assert run.mpki_by_trace().keys() == {"t1", "t2"}

    def test_results_are_memoised(self, replays):
        runner, registry = self._runner(), Registry.with_defaults()
        first = self._run(runner, registry, name="gehl")
        second = self._run(runner, registry, name="gehl")
        assert replays == [1, 1]  # one task per trace, the first time only
        assert second.results == first.results

    def test_run_many(self, replays):
        runner = self._runner()
        runs = runner.run_many(["tage-gsc", "gehl"])
        assert set(runs) == {"tage-gsc", "gehl"}
        assert runner.run("gehl").results == runs["gehl"].results
        assert replays == [2, 2]  # one shared task per trace

    def test_equal_content_labels_share_one_replay(self, replays):
        runner = self._runner()
        spec = PredictorSpec.from_named("tage-gsc", profile="small")
        runs = runner.run_specs([spec, dataclasses.replace(spec, name="copy")])
        assert replays == [1, 1]  # one cell per trace, not one per label
        assert [result.predictor_name for result in runs["copy"].results] == ["copy"] * 2
        assert runs["copy"].results == [
            dataclasses.replace(result, predictor_name="copy") for result in runs[spec.label].results
        ]

    def test_named_configuration_from_registry(self, easy_trace):
        runner = SuiteRunner([easy_trace], profile="small")
        run = runner.run("tage-gsc")
        assert run.storage_bits > 0
        assert run.result_for(easy_trace.name).trace_name == easy_trace.name
        with pytest.raises(KeyError):
            run.result_for("missing")

    def test_trace_names(self):
        assert self._runner().trace_names() == ["t1", "t2"]

    def test_memoisation_keyed_on_track_per_pc(self, replays):
        runner, registry = self._runner(), Registry.with_defaults()
        plain = self._run(runner, registry, name="gehl")
        tracked = self._run(runner, registry, name="gehl", track_per_pc=True)
        # A run cached without per-PC data must not satisfy a tracked request.
        assert replays == [1, 1, 1, 1]
        assert not any(result.per_pc_mispredictions for result in plain.results)
        assert all(result.per_pc_mispredictions for result in tracked.results)
        # Both variants are memoised independently.
        assert self._run(runner, registry, name="gehl").results == plain.results
        assert (
            self._run(runner, registry, name="gehl", track_per_pc=True).results
            == tracked.results
        )
        assert replays == [1, 1, 1, 1]

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            SuiteRunner([_tiny_trace()], max_workers=0)


class TestParallelSuiteRunner:
    def _traces(self):
        from repro.workloads.suites import generate_suite

        return generate_suite(
            "cbp4like",
            target_conditional_branches=200,
            benchmarks=["SPEC2K6-04", "SPEC2K6-12", "MM-4"],
        )

    def test_parallel_results_match_serial(self):
        traces = self._traces()
        serial = SuiteRunner(traces, profile="small")
        parallel = SuiteRunner(traces, profile="small", max_workers=2)
        configurations = ["tage-gsc", "tage-gsc+sic"]

        def _factoryless(runner):
            return runner.run_many(configurations)

        serial_runs = _factoryless(serial)
        parallel_runs = _factoryless(parallel)
        for configuration in configurations:
            serial_results = serial_runs[configuration].results
            parallel_results = parallel_runs[configuration].results
            assert [r.trace_name for r in serial_results] == [
                r.trace_name for r in parallel_results
            ]
            assert [r.mispredictions for r in serial_results] == [
                r.mispredictions for r in parallel_results
            ]
            assert [r.instructions for r in serial_results] == [
                r.instructions for r in parallel_results
            ]

    def test_parallel_run_is_memoised(self, replays, monkeypatch):
        parallel = SuiteRunner(
            self._traces(), profile="small", max_workers=2, store=False
        )
        try:
            first = parallel.run("tage-gsc")
            assert parallel._pool is not None and replays == []

            def _no_pool():
                raise AssertionError("a memoised run used the pool")

            monkeypatch.setattr(parallel, "_get_pool", _no_pool)
            second = parallel.run("tage-gsc")
            assert replays == []  # nor any in-process replay
            assert second.results == first.results
        finally:
            parallel.close()

    def test_builder_specs_fall_back_in_process(self):
        # Builders do not pickle across the pool, so their cells run
        # in-process even when the runner has a pool.
        parallel = SuiteRunner(self._traces(), profile="small", max_workers=2)
        spec = PredictorSpec.from_named("always", profile="small")
        run = parallel.run_spec(spec, registry=_builder_registry())
        assert len(run.results) == 3
        assert parallel._pool is None
