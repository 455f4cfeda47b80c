"""Experiment registry: one entry per table and figure of the paper.

Every experiment takes the per-suite :class:`~repro.sim.runner.SuiteRunner`
objects (keys ``"cbp4like"`` and ``"cbp3like"``), runs the predictor
configurations it needs (results are memoised inside the runners, so
experiments sharing configurations do not repeat simulations), and returns
an :class:`ExperimentResult` holding

* a formatted text report (the regenerated table / figure),
* the structured measured data, and
* the corresponding numbers reported by the paper, so that the benchmark
  harness and EXPERIMENTS.md can show paper-vs-measured side by side.

Absolute MPKI values are *not* expected to match the paper (the traces are
synthetic substitutes, see DESIGN.md); the comparisons of interest are the
shape ones: which configurations win, on which benchmarks, by roughly what
relative margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence

from repro.analysis.figures import format_bar_chart, format_grouped_bar_chart
from repro.analysis.tables import format_key_values, format_mpki_table, format_table
from repro.api.specs import PredictorSpec
from repro.sim.delayed_update import run_delayed_update_experiment
from repro.sim.metrics import (
    most_affected,
    mpki_delta,
    mpki_reduction_percent,
)
from repro.sim.runner import ConfigurationRun, SuiteRunner
from repro.sim.storage import (
    imli_component_cost_bits,
    speculative_state_report,
    storage_report,
)

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "experiment_ids",
    "run_experiment",
]

Runners = Mapping[str, SuiteRunner]

#: Suites in the order the paper reports them (CBP4 first, then CBP3).
SUITE_ORDER = ("cbp4like", "cbp3like")

#: Benchmarks the paper singles out as IMLI / WH beneficiaries.
PAPER_HIGHLIGHTED_BENCHMARKS = (
    "SPEC2K6-04",
    "SPEC2K6-12",
    "MM-4",
    "CLIENT02",
    "MM07",
    "WS03",
    "WS04",
)


@dataclass
class ExperimentResult:
    """Output of one reproduced experiment."""

    experiment_id: str
    title: str
    text: str
    measured: Dict[str, object] = field(default_factory=dict)
    paper: Dict[str, object] = field(default_factory=dict)

    def report(self) -> str:
        """Full text report including the paper's reference numbers."""
        sections = [f"[{self.experiment_id}] {self.title}", "", self.text]
        if self.paper:
            sections.append("")
            sections.append(format_key_values(self.paper, title="Paper reference values"))
        return "\n".join(sections)


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #


def _ordered_suites(runners: Runners) -> List[str]:
    return [suite for suite in SUITE_ORDER if suite in runners] + [
        suite for suite in runners if suite not in SUITE_ORDER
    ]


def _run_all(
    runners: Runners, configurations: Sequence[str]
) -> Dict[str, Dict[str, ConfigurationRun]]:
    """``{suite: {configuration: run}}`` for the given named configurations.

    One :meth:`~repro.sim.runner.SuiteRunner.run_specs` call per suite, so
    configurations sharing a core (say ``tage-gsc``, ``+l``, ``+imli`` and
    ``+imli+l``) run as one shared-core group per trace.  The runners'
    memo is keyed by cell content, so it is shared with name-based
    callers and with the other experiments.
    """
    return {
        suite: runners[suite].run_specs(
            PredictorSpec.from_named(configuration, profile=runners[suite].profile)
            for configuration in configurations
        )
        for suite in _ordered_suites(runners)
    }


def _suite_averages(
    runs: Mapping[str, Mapping[str, ConfigurationRun]]
) -> Dict[str, Dict[str, float]]:
    """``{suite: {configuration: average MPKI}}`` of :func:`_run_all` runs."""
    return {
        suite: {configuration: run.average_mpki for configuration, run in by_name.items()}
        for suite, by_name in runs.items()
    }


def _per_benchmark_delta(
    runs: Mapping[str, Mapping[str, ConfigurationRun]], baseline: str, candidate: str
) -> Dict[str, float]:
    """Per-benchmark MPKI reduction of ``candidate`` relative to ``baseline``."""
    deltas: Dict[str, float] = {}
    for by_name in runs.values():
        deltas.update(
            mpki_delta(
                by_name[baseline].mpki_by_trace(), by_name[candidate].mpki_by_trace()
            )
        )
    return deltas


def _storage_kbits(runners: Runners, configurations: Sequence[str]) -> Dict[str, float]:
    profile = next(iter(runners.values())).profile
    return {
        configuration: storage_report(configuration, profile=profile).total_kilobits
        for configuration in configurations
    }


# --------------------------------------------------------------------------- #
# Section 3.2: base predictors
# --------------------------------------------------------------------------- #


def experiment_base_predictors(runners: Runners) -> ExperimentResult:
    """Average MPKI of the two base predictors (Section 3.2)."""
    configurations = ["tage-gsc", "gehl"]
    averages = _suite_averages(_run_all(runners, configurations))
    text = format_mpki_table(
        configurations,
        averages,
        storage_kbits=_storage_kbits(runners, configurations),
        title="Base predictor accuracy (average MPKI)",
    )
    return ExperimentResult(
        experiment_id="base-predictors",
        title="Base global-history predictors (Section 3.2)",
        text=text,
        measured={"average_mpki": averages},
        paper={
            "tage-gsc cbp4 MPKI": 2.473,
            "tage-gsc cbp3 MPKI": 3.902,
            "gehl cbp4 MPKI": 2.864,
            "gehl cbp3 MPKI": 4.243,
            "tage-gsc size (Kbits)": 228,
            "gehl size (Kbits)": 204,
        },
    )


# --------------------------------------------------------------------------- #
# Section 3.3 and 4.3: wormhole prediction
# --------------------------------------------------------------------------- #


def experiment_wormhole(runners: Runners) -> ExperimentResult:
    """WH on top of the base predictors and on top of IMLI-SIC (Sections 3.3, 4.3)."""
    configurations = [
        "tage-gsc", "tage-gsc+wh", "tage-gsc+sic", "tage-gsc+sic+wh",
        "gehl", "gehl+wh", "gehl+sic", "gehl+sic+wh",
    ]
    runs = _run_all(runners, configurations)
    averages = _suite_averages(runs)
    reductions: Dict[str, float] = {}
    for suite, per_configuration in averages.items():
        for base in ("tage-gsc", "gehl"):
            reductions[f"{base}+wh vs {base} ({suite})"] = mpki_reduction_percent(
                per_configuration[base], per_configuration[f"{base}+wh"]
            )
    per_benchmark = _per_benchmark_delta(runs, "tage-gsc", "tage-gsc+wh")
    top = sorted(per_benchmark.items(), key=lambda item: item[1], reverse=True)[:6]
    text_parts = [
        format_mpki_table(
            configurations,
            averages,
            title="Wormhole side predictor (average MPKI)",
        ),
        "",
        format_key_values(reductions, title="Relative MPKI reduction from WH (%)"),
        "",
        format_bar_chart(
            dict(top),
            title="Benchmarks most improved by WH on TAGE-GSC (MPKI reduction)",
            value_label="delta MPKI",
            sort_descending=True,
        ),
    ]
    return ExperimentResult(
        experiment_id="wormhole",
        title="Wormhole prediction on top of TAGE-GSC and GEHL (Sections 3.3 and 4.3)",
        text="\n".join(text_parts),
        measured={
            "average_mpki": averages,
            "reduction_percent": reductions,
            "most_improved": dict(top),
        },
        paper={
            "tage-gsc+wh cbp4 MPKI": 2.415,
            "tage-gsc+wh cbp3 MPKI": 3.823,
            "gehl+wh cbp4 MPKI": 2.802,
            "gehl+wh cbp3 MPKI": 4.141,
            "WH reduction on TAGE-GSC (cbp4, %)": 2.4,
            "WH reduction on TAGE-GSC (cbp3, %)": 2.2,
            "tage-gsc+sic+wh cbp4 MPKI": 2.323,
            "tage-gsc+sic+wh cbp3 MPKI": 3.675,
            "benefiting benchmarks": "SPEC2K6-12, MM-4, CLIENT02, MM07 only",
        },
    )


# --------------------------------------------------------------------------- #
# Section 4.2: IMLI-SIC
# --------------------------------------------------------------------------- #


def experiment_imli_sic(runners: Runners) -> ExperimentResult:
    """IMLI-SIC alone on both base predictors, and its interaction with the loop predictor."""
    configurations = [
        "tage-gsc", "tage-gsc+sic", "gehl", "gehl+sic",
        "tage-gsc+loop", "tage-gsc+sic+loop",
    ]
    runs = _run_all(runners, configurations)
    averages = _suite_averages(runs)
    loop_benefit: Dict[str, float] = {}
    for suite, per_configuration in averages.items():
        loop_benefit[f"loop benefit without SIC ({suite})"] = (
            per_configuration["tage-gsc"] - per_configuration["tage-gsc+loop"]
        )
        loop_benefit[f"loop benefit with SIC ({suite})"] = (
            per_configuration["tage-gsc+sic"] - per_configuration["tage-gsc+sic+loop"]
        )
    per_benchmark = _per_benchmark_delta(runs, "tage-gsc", "tage-gsc+sic")
    top = dict(sorted(per_benchmark.items(), key=lambda item: item[1], reverse=True)[:8])
    text_parts = [
        format_mpki_table(
            ["tage-gsc", "tage-gsc+sic", "gehl", "gehl+sic"],
            {suite: averages[suite] for suite in averages},
            title="IMLI-SIC alone (average MPKI)",
        ),
        "",
        format_key_values(loop_benefit, title="Loop predictor benefit with / without IMLI-SIC (delta MPKI)"),
        "",
        format_bar_chart(
            top,
            title="Benchmarks most improved by IMLI-SIC on TAGE-GSC (MPKI reduction)",
            value_label="delta MPKI",
            sort_descending=True,
        ),
    ]
    return ExperimentResult(
        experiment_id="imli-sic",
        title="The IMLI-SIC component (Section 4.2.2)",
        text="\n".join(text_parts),
        measured={
            "average_mpki": averages,
            "loop_benefit": loop_benefit,
            "most_improved": top,
        },
        paper={
            "tage-gsc cbp4 MPKI": 2.473,
            "tage-gsc+sic cbp4 MPKI": 2.373,
            "tage-gsc cbp3 MPKI": 3.902,
            "tage-gsc+sic cbp3 MPKI": 3.733,
            "gehl cbp4 MPKI": 2.864,
            "gehl+sic cbp4 MPKI": 2.752,
            "gehl cbp3 MPKI": 4.243,
            "gehl+sic cbp3 MPKI": 4.053,
            "loop benefit without SIC (cbp4)": 0.034,
            "loop benefit with SIC (cbp4)": 0.013,
            "loop benefit without SIC (cbp3)": 0.094,
            "loop benefit with SIC (cbp3)": 0.010,
            "most improved": "SPEC2K6-04, SPEC2K6-12, WS04, MM07, CLIENT02",
        },
    )


# --------------------------------------------------------------------------- #
# Figures 8-11: IMLI-induced MPKI reduction
# --------------------------------------------------------------------------- #


def _imli_reduction_figure(
    runners: Runners, base: str, experiment_id: str, title: str, limit: int | None
) -> ExperimentResult:
    configurations = [base, f"{base}+sic", f"{base}+imli"]
    runs = _run_all(runners, configurations)
    sic_delta = _per_benchmark_delta(runs, base, f"{base}+sic")
    imli_delta = _per_benchmark_delta(runs, base, f"{base}+imli")
    grouped = {
        name: {"imli-sic": sic_delta[name], "imli-sic+oh": imli_delta[name]}
        for name in imli_delta
    }
    averages = _suite_averages(runs)
    text_parts = [
        format_grouped_bar_chart(
            grouped,
            series_order=["imli-sic", "imli-sic+oh"],
            title=f"IMLI-induced MPKI reduction over {base}"
            + (f" ({limit} most benefitting benchmarks)" if limit else " (all benchmarks)"),
            limit=limit,
        ),
        "",
        format_mpki_table(configurations, averages, title="Average MPKI"),
    ]
    paper_reference = {
        "tage-gsc": {
            "base cbp4 MPKI": 2.473,
            "base+imli cbp4 MPKI": 2.313,
            "base cbp3 MPKI": 3.902,
            "base+imli cbp3 MPKI": 3.649,
            "relative reduction cbp4 (%)": 6.8,
            "relative reduction cbp3 (%)": 6.1,
        },
        "gehl": {
            "base cbp4 MPKI": 2.864,
            "base+imli cbp4 MPKI": 2.694,
            "base cbp3 MPKI": 4.243,
            "base+imli cbp3 MPKI": 3.958,
            "relative reduction cbp4 (%)": 6.0,
            "relative reduction cbp3 (%)": 6.5,
        },
    }[base]
    paper_reference["benefitting benchmarks"] = (
        "SPEC2K6-04, SPEC2K6-12, MM-4, CLIENT02, MM07, WS04, WS03"
    )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        text="\n".join(text_parts),
        measured={
            "per_benchmark_reduction": grouped,
            "average_mpki": averages,
        },
        paper=paper_reference,
    )


def experiment_fig8(runners: Runners) -> ExperimentResult:
    """Figure 8: IMLI-induced MPKI reduction on all benchmarks, TAGE-GSC."""
    return _imli_reduction_figure(
        runners, "tage-gsc", "fig8",
        "IMLI-induced MPKI reduction, all benchmarks, TAGE-GSC (Figure 8)", None,
    )


def experiment_fig9(runners: Runners) -> ExperimentResult:
    """Figure 9: IMLI-induced MPKI reduction, 15 most benefitting benchmarks, TAGE-GSC."""
    return _imli_reduction_figure(
        runners, "tage-gsc", "fig9",
        "IMLI-induced MPKI reduction, 15 most benefitting benchmarks, TAGE-GSC (Figure 9)", 15,
    )


def experiment_fig10(runners: Runners) -> ExperimentResult:
    """Figure 10: IMLI-induced MPKI reduction on all benchmarks, GEHL."""
    return _imli_reduction_figure(
        runners, "gehl", "fig10",
        "IMLI-induced MPKI reduction, all benchmarks, GEHL (Figure 10)", None,
    )


def experiment_fig11(runners: Runners) -> ExperimentResult:
    """Figure 11: IMLI-induced MPKI reduction, 15 most benefitting benchmarks, GEHL."""
    return _imli_reduction_figure(
        runners, "gehl", "fig11",
        "IMLI-induced MPKI reduction, 15 most benefitting benchmarks, GEHL (Figure 11)", 15,
    )


# --------------------------------------------------------------------------- #
# Figure 13: IMLI-OH vs WH
# --------------------------------------------------------------------------- #


def experiment_fig13(runners: Runners) -> ExperimentResult:
    """Figure 13: IMLI-OH vs WH prediction accuracy on top of GEHL."""
    configurations = ["gehl", "gehl+oh", "gehl+wh"]
    runs = _run_all(runners, configurations)
    oh_delta = _per_benchmark_delta(runs, "gehl", "gehl+oh")
    wh_delta = _per_benchmark_delta(runs, "gehl", "gehl+wh")
    grouped = {
        name: {"imli-oh": oh_delta[name], "wormhole": wh_delta[name]}
        for name in oh_delta
    }
    averages = _suite_averages(runs)
    text_parts = [
        format_grouped_bar_chart(
            grouped,
            series_order=["imli-oh", "wormhole"],
            title="MPKI reduction over GEHL: IMLI-OH vs wormhole (Figure 13)",
            limit=12,
        ),
        "",
        format_mpki_table(configurations, averages, title="Average MPKI"),
    ]
    return ExperimentResult(
        experiment_id="fig13",
        title="IMLI-OH vs WH prediction accuracy on top of GEHL (Figure 13)",
        text="\n".join(text_parts),
        measured={"per_benchmark_reduction": grouped, "average_mpki": averages},
        paper={
            "expected shape": (
                "both IMLI-OH and WH improve the wormhole-correlated benchmarks "
                "(SPEC2K6-12, MM-4, CLIENT02, MM07); IMLI-OH additionally gives "
                "small gains on a few IMLI-SIC benchmarks (SPEC2K6-04, WS03)"
            ),
        },
    )


# --------------------------------------------------------------------------- #
# Tables 1 and 2
# --------------------------------------------------------------------------- #


def _table_experiment(
    runners: Runners, base: str, experiment_id: str, title: str, paper: Dict[str, object]
) -> ExperimentResult:
    configurations = [base, f"{base}+l", f"{base}+imli", f"{base}+imli+l"]
    averages = _suite_averages(_run_all(runners, configurations))
    storage = _storage_kbits(runners, configurations)
    text = format_mpki_table(
        configurations, averages, storage_kbits=storage, title=title
    )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        text=text,
        measured={"average_mpki": averages, "storage_kbits": storage},
        paper=paper,
    )


def experiment_table1(runners: Runners) -> ExperimentResult:
    """Table 1: average MPKI for TAGE-GSC-based predictors."""
    return _table_experiment(
        runners,
        "tage-gsc",
        "table1",
        "Average MPKI for TAGE-GSC-based predictors (Table 1)",
        paper={
            "size (Kbits)": "228 / 256 / 234 / 261",
            "cbp4 MPKI (base, +L, +I, +I+L)": "2.473 / 2.365 / 2.313 / 2.226",
            "cbp3 MPKI (base, +L, +I, +I+L)": "3.902 / 3.670 / 3.649 / 3.555",
        },
    )


def experiment_table2(runners: Runners) -> ExperimentResult:
    """Table 2: average MPKI for GEHL-based predictors."""
    return _table_experiment(
        runners,
        "gehl",
        "table2",
        "Average MPKI for GEHL-based predictors (Table 2)",
        paper={
            "size (Kbits)": "204 / 256 / 209 / 261",
            "cbp4 MPKI (base, +L, +I, +I+L)": "2.864 / 2.693 / 2.694 / 2.562",
            "cbp3 MPKI (base, +L, +I, +I+L)": "4.243 / 3.924 / 3.958 / 3.827",
        },
    )


# --------------------------------------------------------------------------- #
# Figures 14 and 15: benefit of local history components
# --------------------------------------------------------------------------- #


def _local_history_figure(
    runners: Runners, base: str, experiment_id: str, title: str
) -> ExperimentResult:
    configurations = [base, f"{base}+imli", f"{base}+l", f"{base}+imli+l"]
    runs = _run_all(runners, configurations)
    averages = _suite_averages(runs)
    base_mpki: Dict[str, float] = {}
    series: Dict[str, Dict[str, float]] = {}
    for by_name in runs.values():
        base_run = by_name[base].mpki_by_trace()
        base_mpki.update(base_run)
        for configuration in configurations[1:]:
            candidate = by_name[configuration].mpki_by_trace()
            for name, delta in mpki_delta(base_run, candidate).items():
                series.setdefault(name, {})[configuration] = delta
    affected = most_affected(
        base_mpki,
        [
            {name: base_mpki[name] - series[name][configuration] for name in series}
            for configuration in configurations[1:]
        ],
        count=25,
    )
    grouped = {name: series[name] for name in affected}
    imli_shrink: Dict[str, float] = {}
    for suite, per_configuration in averages.items():
        imli_shrink[f"local benefit without IMLI ({suite})"] = (
            per_configuration[base] - per_configuration[f"{base}+l"]
        )
        imli_shrink[f"local benefit with IMLI ({suite})"] = (
            per_configuration[f"{base}+imli"] - per_configuration[f"{base}+imli+l"]
        )
    text_parts = [
        format_grouped_bar_chart(
            grouped,
            series_order=configurations[1:],
            title=title + " (25 most affected benchmarks, MPKI reduction over base)",
            limit=25,
        ),
        "",
        format_key_values(imli_shrink, title="Benefit of local history with / without IMLI (delta MPKI)"),
        "",
        format_mpki_table(configurations, averages, title="Average MPKI"),
    ]
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        text="\n".join(text_parts),
        measured={
            "per_benchmark_reduction": grouped,
            "average_mpki": averages,
            "local_benefit": imli_shrink,
        },
        paper={
            "tage-gsc": {
                "local benefit without IMLI (cbp4)": 0.108,
                "local benefit with IMLI (cbp4)": 0.087,
                "local benefit without IMLI (cbp3)": 0.232,
                "local benefit with IMLI (cbp3)": 0.094,
            },
            "gehl": {
                "local benefit without IMLI (cbp4)": 0.171,
                "local benefit with IMLI (cbp4)": 0.132,
                "local benefit without IMLI (cbp3)": 0.319,
                "local benefit with IMLI (cbp3)": 0.131,
            },
        }[base],
    )


def experiment_fig14(runners: Runners) -> ExperimentResult:
    """Figure 14: benefits of local history components on TAGE."""
    return _local_history_figure(
        runners, "tage-gsc", "fig14", "Benefits of local history components on TAGE (Figure 14)"
    )


def experiment_fig15(runners: Runners) -> ExperimentResult:
    """Figure 15: benefits of local history components on GEHL."""
    return _local_history_figure(
        runners, "gehl", "fig15", "Benefits of local history components on GEHL (Figure 15)"
    )


# --------------------------------------------------------------------------- #
# Section 4.3.2: delayed update of the IMLI history table
# --------------------------------------------------------------------------- #


def experiment_delayed_update(runners: Runners) -> ExperimentResult:
    """Section 4.3.2: delayed update of the IMLI history table."""
    traces = []
    for suite in _ordered_suites(runners):
        traces.extend(runners[suite].traces)
    profile = next(iter(runners.values())).profile
    results = run_delayed_update_experiment(
        traces, base="tage-gsc", delays=(63,), profile=profile
    )
    rows = [
        (result.delay, result.immediate_mpki, result.delayed_mpki, result.mpki_loss)
        for result in results
    ]
    text = format_table(
        ["update delay (branches)", "immediate MPKI", "delayed MPKI", "MPKI loss"],
        rows,
        title="Delayed update of the IMLI history table (Section 4.3.2)",
        float_format="{:.4f}",
    )
    return ExperimentResult(
        experiment_id="delayed-update",
        title="Delayed update of the IMLI outer-history table (Section 4.3.2)",
        text=text,
        measured={"results": rows},
        paper={"MPKI loss with 63-branch delay": 0.002},
    )


# --------------------------------------------------------------------------- #
# Section 5: the TAGE-SC-L + IMLI record
# --------------------------------------------------------------------------- #


def experiment_record(runners: Runners) -> ExperimentResult:
    """Section 5: TAGE-SC-L enhanced with IMLI components."""
    configurations = ["tage-sc-l", "tage-sc-l+imli"]
    averages = _suite_averages(_run_all(runners, configurations))
    reductions = {
        suite: mpki_reduction_percent(
            per_configuration["tage-sc-l"], per_configuration["tage-sc-l+imli"]
        )
        for suite, per_configuration in averages.items()
    }
    text_parts = [
        format_mpki_table(
            configurations,
            averages,
            storage_kbits=_storage_kbits(runners, configurations),
            title="TAGE-SC-L with IMLI components (Section 5)",
        ),
        "",
        format_key_values(
            {f"relative reduction ({suite}, %)": value for suite, value in reductions.items()},
            title="Relative MPKI reduction from adding IMLI to TAGE-SC-L",
        ),
    ]
    return ExperimentResult(
        experiment_id="record",
        title="Setting a new branch prediction record (Section 5)",
        text="\n".join(text_parts),
        measured={"average_mpki": averages, "reduction_percent": reductions},
        paper={
            "tage-sc-l cbp4 MPKI": 2.365,
            "tage-sc-l+imli cbp4 MPKI": 2.228,
            "relative reduction (%)": 5.8,
        },
    )


# --------------------------------------------------------------------------- #
# Section 4.4: storage and speculative state
# --------------------------------------------------------------------------- #


def experiment_storage(runners: Runners) -> ExperimentResult:
    """Section 4.4: storage budget and speculative-state cost of the IMLI components."""
    profile = next(iter(runners.values())).profile
    imli_cost = imli_component_cost_bits(profile=profile)
    speculation = speculative_state_report(profile=profile)
    storage_rows = []
    for configuration in ("tage-gsc", "tage-gsc+imli", "tage-gsc+l", "tage-gsc+imli+l"):
        report = storage_report(configuration, profile=profile)
        storage_rows.append((configuration, round(report.total_kilobits, 1), round(report.total_bytes)))
    speculation_rows = [
        (
            configuration,
            details["checkpoint_bits"],
            "yes" if details["requires_inflight_window_search"] else "no",
        )
        for configuration, details in speculation.items()
    ]
    text_parts = [
        format_table(
            ["configuration", "size (Kbits)", "size (bytes)"],
            storage_rows,
            title="Storage budget per configuration (Section 4.4)",
        ),
        "",
        format_key_values(
            {name: f"{bits} bits ({bits / 8:.0f} bytes)" for name, bits in imli_cost.items()},
            title="Storage added by the IMLI components",
        ),
        "",
        format_table(
            ["configuration", "checkpoint bits / branch", "in-flight window search"],
            speculation_rows,
            title="Speculative state management",
        ),
    ]
    return ExperimentResult(
        experiment_id="storage-speculation",
        title="IMLI storage budget and speculative state (Section 4.4)",
        text="\n".join(text_parts),
        measured={
            "imli_cost_bits": imli_cost,
            "storage": {row[0]: row[1] for row in storage_rows},
            "speculation": speculation,
        },
        paper={
            "IMLI total storage (bytes)": 708,
            "IMLI-SIC table (bytes)": 384,
            "IMLI outer history table (bytes)": 128,
            "IMLI-OH prediction table (bytes)": 192,
            "PIPE vector + IMLI counter (bytes)": 4,
            "checkpoint": "10-bit IMLI counter + 16-bit PIPE vector",
        },
    )


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

ExperimentFunction = Callable[[Runners], ExperimentResult]

EXPERIMENTS: Dict[str, ExperimentFunction] = {
    "base-predictors": experiment_base_predictors,
    "wormhole": experiment_wormhole,
    "imli-sic": experiment_imli_sic,
    "fig8": experiment_fig8,
    "fig9": experiment_fig9,
    "fig10": experiment_fig10,
    "fig11": experiment_fig11,
    "fig13": experiment_fig13,
    "table1": experiment_table1,
    "table2": experiment_table2,
    "fig14": experiment_fig14,
    "fig15": experiment_fig15,
    "delayed-update": experiment_delayed_update,
    "record": experiment_record,
    "storage-speculation": experiment_storage,
}


def experiment_ids() -> List[str]:
    """Identifiers of every reproduced experiment."""
    return list(EXPERIMENTS)


def run_experiment(experiment_id: str, runners: Runners) -> ExperimentResult:
    """Run one experiment by id over the provided suite runners."""
    try:
        function = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {experiment_ids()}"
        ) from None
    return function(runners)
