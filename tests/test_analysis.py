"""Tests for the reporting helpers (tables, figures) and the experiment registry."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    experiment_ids,
    run_experiment,
)
from repro.analysis.figures import format_bar_chart, format_grouped_bar_chart
from repro.analysis.tables import format_key_values, format_mpki_table, format_table


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(["name", "mpki"], [["a", 1.2345], ["bench-b", 2.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert "1.234" in text or "1.235" in text
        assert "bench-b" in text

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_mpki_table_layout(self):
        text = format_mpki_table(
            ["base", "base+i"],
            {"cbp4like": {"base": 2.5, "base+i": 2.3}},
            storage_kbits={"base": 228.0, "base+i": 234.0},
            title="Table 1",
        )
        assert "Table 1" in text
        assert "size (Kbits)" in text
        assert "cbp4like" in text
        assert "2.300" in text

    def test_key_values(self):
        text = format_key_values({"alpha": 1.0, "beta": "x"}, title="Facts")
        assert "Facts" in text
        assert "alpha" in text and "beta" in text

    def test_key_values_empty(self):
        assert format_key_values({}, title="Empty") == "Empty"


class TestFigures:
    def test_bar_chart_renders_bars(self):
        text = format_bar_chart({"a": 1.0, "b": -0.5}, title="Fig", value_label="delta")
        assert "Fig" in text
        assert "#" in text
        assert "-" in text

    def test_bar_chart_limit_and_sort(self):
        values = {f"b{i}": float(i) for i in range(10)}
        text = format_bar_chart(values, sort_descending=True, limit=3)
        assert "b9" in text and "b0" not in text

    def test_bar_chart_empty(self):
        assert format_bar_chart({}, title="Nothing") == "Nothing"

    def test_grouped_bar_chart(self):
        groups = {
            "bench1": {"imli-sic": 0.5, "imli-sic+oh": 0.7},
            "bench2": {"imli-sic": 0.1, "imli-sic+oh": 0.05},
        }
        text = format_grouped_bar_chart(groups, series_order=["imli-sic", "imli-sic+oh"], title="G")
        assert "bench1" in text and "bench2" in text
        assert "imli-sic+oh" in text

    def test_grouped_bar_chart_limit(self):
        groups = {f"bench{i}": {"x": float(i)} for i in range(6)}
        text = format_grouped_bar_chart(groups, series_order=["x"], limit=2)
        assert "bench5" in text and "bench0" not in text


class TestExperimentRegistry:
    EXPECTED_IDS = {
        "base-predictors", "wormhole", "imli-sic",
        "fig8", "fig9", "fig10", "fig11", "fig13", "fig14", "fig15",
        "table1", "table2", "delayed-update", "record", "storage-speculation",
    }

    def test_every_paper_table_and_figure_is_registered(self):
        assert self.EXPECTED_IDS == set(experiment_ids())

    def test_every_experiment_has_a_callable(self):
        for experiment_id, function in EXPERIMENTS.items():
            assert callable(function), experiment_id

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99", {})

    def test_experiment_result_report_includes_paper_values(self):
        result = ExperimentResult(
            experiment_id="x", title="Demo", text="body",
            paper={"reference": 1.23},
        )
        report = result.report()
        assert "[x] Demo" in report
        assert "Paper reference values" in report
        assert "body" in report


class TestExperimentsOnTinySuites:
    """Run a representative subset of experiments end to end on tiny traces."""

    @pytest.fixture(scope="class")
    def runners(self):
        from repro.sim.runner import SuiteRunner
        from repro.workloads.suites import generate_suite

        subset4 = ["SPEC2K6-04", "SPEC2K6-12", "MM-4", "SPEC2K6-00"]
        subset3 = ["CLIENT02", "WS04", "MM07", "INT01"]
        traces4 = generate_suite("cbp4like", target_conditional_branches=1200, benchmarks=subset4)
        traces3 = generate_suite("cbp3like", target_conditional_branches=1200, benchmarks=subset3)
        return {
            "cbp4like": SuiteRunner(traces4, profile="small"),
            "cbp3like": SuiteRunner(traces3, profile="small"),
        }

    def test_base_predictor_experiment(self, runners):
        result = run_experiment("base-predictors", runners)
        assert result.experiment_id == "base-predictors"
        assert "tage-gsc" in result.text
        assert "gehl" in result.text
        averages = result.measured["average_mpki"]
        assert set(averages) == {"cbp4like", "cbp3like"}
        assert all(value > 0 for value in averages["cbp4like"].values())

    def test_table1_experiment(self, runners):
        result = run_experiment("table1", runners)
        averages = result.measured["average_mpki"]["cbp4like"]
        assert set(averages) == {"tage-gsc", "tage-gsc+l", "tage-gsc+imli", "tage-gsc+imli+l"}
        # The shape of Table 1: every augmented configuration beats the base.
        assert averages["tage-gsc+imli"] < averages["tage-gsc"]
        assert averages["tage-gsc+imli+l"] < averages["tage-gsc"]
        assert "size (Kbits)" in result.text

    def test_fig9_experiment(self, runners):
        result = run_experiment("fig9", runners)
        grouped = result.measured["per_benchmark_reduction"]
        assert "SPEC2K6-04" in grouped
        assert set(grouped["SPEC2K6-04"]) == {"imli-sic", "imli-sic+oh"}

    def test_one_batch_per_suite(self, monkeypatch):
        import repro.sim.runner as runner_module
        from repro.sim.runner import SuiteRunner
        from repro.workloads.suites import generate_suite

        runners = {
            suite: SuiteRunner(
                generate_suite(suite, target_conditional_branches=200, benchmarks=[name]),
                profile="small",
                store=False,
            )
            for suite, name in (("cbp4like", "SPEC2K6-04"), ("cbp3like", "CLIENT02"))
        }
        batches = []
        simulate_spec_batch = runner_module._simulate_spec_batch

        def _spy(builders, trace, track_per_pc):
            batches.append((trace.name, sorted(build().name for build in builders)))
            return simulate_spec_batch(builders, trace, track_per_pc)

        monkeypatch.setattr(runner_module, "_simulate_spec_batch", _spy)
        run_experiment("table1", runners)
        configurations = sorted(
            ["tage-gsc", "tage-gsc+l", "tage-gsc+imli", "tage-gsc+imli+l"]
        )
        assert batches == [
            ("SPEC2K6-04", configurations),
            ("CLIENT02", configurations),
        ]
        # Figure 14 reads the same configurations: every run is memoised.
        run_experiment("fig14", runners)
        assert len(batches) == 2

    def test_storage_experiment_needs_no_simulation(self, runners):
        result = run_experiment("storage-speculation", runners)
        assert result.measured["imli_cost_bits"]["total"] > 0
        assert "checkpoint" in result.text.lower()
