"""Tests for storage accounting, delayed update and checkpoint modelling."""

from __future__ import annotations

import pytest

from repro.predictors.composites import build_named
from repro.sim.checkpointing import (
    run_checkpoint_recovery,
    speculative_management_cost,
    total_checkpoint_storage_bits,
)
from repro.sim.delayed_update import run_delayed_update_experiment, summarize
from repro.sim.runner import SuiteRunner
from repro.sim.storage import (
    imli_component_cost_bits,
    speculative_state_report,
    storage_report,
)


class TestStorageReport:
    def test_breakdown_sums_to_components(self):
        report = storage_report("tage-gsc+imli", profile="small")
        assert report.total_bits > 0
        assert report.total_kilobits == pytest.approx(report.total_bits / 1024.0)
        assert report.total_bytes == pytest.approx(report.total_bits / 8.0)
        names = [name for name, _ in report.breakdown]
        assert "tage" in names
        assert any(name.startswith("sc/") for name in names)

    def test_imli_components_appear_in_breakdown(self):
        report = storage_report("tage-gsc+imli", profile="small")
        names = [name for name, _ in report.breakdown]
        assert "sc/imli-sic" in names
        assert "sc/imli-oh" in names

    def test_gehl_breakdown(self):
        report = storage_report("gehl+imli", profile="small")
        names = [name for name, _ in report.breakdown]
        assert any(name.startswith("gehl/") for name in names)

    def test_side_predictors_in_breakdown(self):
        report = storage_report("tage-gsc+wh", profile="small")
        names = [name for name, _ in report.breakdown]
        assert "wormhole" in names
        assert "loop-predictor" in names

    def test_accepts_prebuilt_predictor(self):
        predictor = build_named("gehl", profile="small")
        report = storage_report("gehl", profile="small", predictor=predictor)
        assert report.total_bits == predictor.storage_bits()


class TestIMLIComponentCost:
    def test_cost_is_small_relative_to_predictor(self):
        cost = imli_component_cost_bits(profile="small")
        base = storage_report("tage-gsc", profile="small").total_bits
        assert cost["total"] > 0
        assert cost["total"] < base * 0.25

    def test_cost_contains_both_components(self):
        cost = imli_component_cost_bits(profile="small")
        assert "sc/imli-sic" in cost
        assert "sc/imli-oh" in cost


class TestSpeculativeStateReport:
    def test_report_shape(self):
        report = speculative_state_report(profile="small")
        assert set(report) == {"tage-gsc", "tage-gsc+imli", "tage-gsc+l", "tage-gsc+wh"}
        for details in report.values():
            assert "checkpoint_bits" in details
            assert "requires_inflight_window_search" in details

    def test_imli_does_not_need_window_search(self):
        report = speculative_state_report(profile="small")
        assert report["tage-gsc+imli"]["requires_inflight_window_search"] is False
        assert report["tage-gsc+l"]["requires_inflight_window_search"] is True
        assert report["tage-gsc+wh"]["requires_inflight_window_search"] is True

    def test_imli_checkpoint_is_a_few_tens_of_bits_larger(self):
        report = speculative_state_report(profile="small")
        base_bits = report["tage-gsc"]["checkpoint_bits"]
        imli_bits = report["tage-gsc+imli"]["checkpoint_bits"]
        assert 0 < imli_bits - base_bits <= 32


def _runners(*traces, store=False, suites=("one",)):
    """One in-process runner per suite name, the traces spread over them."""
    share = -(-len(traces) // len(suites))
    return {
        suite: SuiteRunner(traces[start:start + share], profile="small", store=store)
        for suite, start in zip(suites, range(0, len(traces), share))
    }


class TestDelayedUpdateExperiment:
    def test_delay_costs_very_little(self, sic_trace, wormhole_trace):
        results = run_delayed_update_experiment(
            _runners(sic_trace, wormhole_trace), base="tage-gsc", delays=(16,)
        )
        assert len(results) == 1
        result = results[0]
        assert result.delay == 16
        # The paper reports ~0.002 MPKI loss; allow a loose bound here since
        # the traces are tiny, but the loss must stay far below the IMLI gain.
        assert abs(result.mpki_loss) < 1.0
        assert summarize(results) == {16: pytest.approx(result.mpki_loss)}

    def test_invalid_delay_rejected(self, sic_trace):
        with pytest.raises(ValueError):
            run_delayed_update_experiment(_runners(sic_trace), delays=(0,))

    def test_invalid_delay_rejected_before_simulating(self, sic_trace, monkeypatch):
        import repro.sim.engine as engine_module
        import repro.sim.runner as runner_module

        def _no_simulation(*args, **kwargs):
            raise AssertionError("simulated before validating delays")

        monkeypatch.setattr(engine_module, "simulate_many", _no_simulation)
        monkeypatch.setattr(runner_module, "simulate_many", _no_simulation)
        with pytest.raises(ValueError, match="positive"):
            run_delayed_update_experiment(_runners(sic_trace), delays=(63, 0))

    def test_matches_per_cell_simulation(self, sic_trace, wormhole_trace):
        from repro.predictors.composites import CompositeOptions, build
        from repro.sim.engine import simulate
        from repro.sim.metrics import average_mpki

        traces = [sic_trace, wormhole_trace]

        def _alone(delay):
            options = CompositeOptions(
                base="gehl", imli_sic=True, imli_oh=True, oh_update_delay=delay
            )
            return average_mpki(
                [simulate(build(options, profile="small"), trace) for trace in traces]
            )

        # Two suites: the averages run over both, in order.
        results = run_delayed_update_experiment(
            _runners(*traces, suites=("first", "second")), base="gehl", delays=(63, 7)
        )
        assert [result.delay for result in results] == [63, 7]
        for result in results:
            assert result.immediate_mpki == _alone(0)
            assert result.delayed_mpki == _alone(result.delay)

    def test_second_run_against_the_same_store_simulates_nothing(
        self, tmp_path, monkeypatch, sic_trace, wormhole_trace
    ):
        # The experiment's cells are ordinary store cells: a new process
        # (fresh runners) over the same store reads every one of them
        # back, immediate delay included, and reports the same text.
        import repro.sim.engine as engine_module
        import repro.sim.runner as runner_module
        from repro.analysis.experiments import run_experiment
        from repro.api.specs import PredictorSpec

        suites = ("cbp4like", "cbp3like")
        store = tmp_path / "store"
        first = run_experiment(
            "delayed-update", _runners(sic_trace, wormhole_trace, store=store, suites=suites)
        ).report()

        def _no_simulation(*args, **kwargs):
            raise AssertionError("simulated a cell the store holds")

        monkeypatch.setattr(engine_module, "simulate_many", _no_simulation)
        monkeypatch.setattr(runner_module, "simulate_many", _no_simulation)
        runners = _runners(sic_trace, wormhole_trace, store=store, suites=suites)
        assert run_experiment("delayed-update", runners).report() == first
        # Delay 0 is the cell of tage-gsc+imli.
        for runner in runners.values():
            runner.run_specs([PredictorSpec.from_named("tage-gsc+imli", profile="small")])


class TestCheckpointRecovery:
    def test_recovery_reproduces_committed_imli_state(self, sic_trace):
        predictor = build_named("tage-gsc", profile="small")
        report = run_checkpoint_recovery(predictor, sic_trace)
        assert report.conditional_branches == sic_trace.conditional_count
        assert report.recoveries == report.mispredictions
        assert report.divergence_events == 0
        assert report.recovered_correctly
        assert report.checkpoint_bits_per_branch == 10

    def test_checkpoint_cost_table(self):
        costs = speculative_management_cost(inflight_window=64)
        assert costs["imli"]["checkpoint_bits"] == 26
        assert costs["global-history"]["associative_search"] is False
        assert costs["local-history"]["associative_search"] is True
        assert costs["local-history"]["comparisons_per_fetch"] == 64
        assert costs["wormhole"]["comparisons_per_fetch"] == 64

    def test_total_checkpoint_storage(self):
        costs = speculative_management_cost(inflight_window=32)
        total = total_checkpoint_storage_bits(costs, ["global-history", "imli"], inflight_window=32)
        assert total == 32 * (costs["global-history"]["checkpoint_bits"] + 26)

    def test_unknown_kind_rejected(self):
        costs = speculative_management_cost()
        with pytest.raises(KeyError):
            total_checkpoint_storage_bits(costs, ["quantum-history"])

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            speculative_management_cost(inflight_window=0)
