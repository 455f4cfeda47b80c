"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.experiments import experiment_ids
from repro.api import PredictorSpec, default_registry
from repro.cli import build_parser, main
from repro.trace.trace import load_trace
from repro.workloads.suites import suite_names


def _eager_choice_error(choices, value: str, capsys) -> str:
    """What argparse prints for ``value`` against a plain list of choices."""
    parser = argparse.ArgumentParser(prog="eager")
    parser.add_argument("value", choices=list(choices))
    with pytest.raises(SystemExit):
        parser.parse_args([value])
    error = capsys.readouterr().err.strip().splitlines()[-1]
    return error.split("argument value: ", 1)[1]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_rejects_unknown_suite(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--suite", "cbp5like"])

    @pytest.mark.parametrize(
        "argv, choices",
        [
            (["sweep", "--profile", "nosuch"], lambda: default_registry().profile_names()),
            (["simulate", "--suite", "nosuch"], suite_names),
            (["experiment", "nosuch"], experiment_ids),
        ],
        ids=["sweep-profile", "simulate-suite", "experiment-id"],
    )
    def test_invalid_choice_lists_the_registry(self, argv, choices, capsys):
        """Lazily loaded choices print exactly what a plain list would."""
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        expected = _eager_choice_error(choices(), "nosuch", capsys)
        assert expected.startswith("invalid choice: 'nosuch'")
        assert error.endswith(expected)

    def test_sweep_help_lists_profiles_and_suites(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["sweep", "--help"])
        assert exited.value.code == 0
        output = capsys.readouterr().out
        assert "--profile {" + ",".join(default_registry().profile_names()) + "}" in output
        assert "--suite {" + ",".join(suite_names()) + "}" in output


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "cbp4like" in output
        assert "tage-gsc+imli" in output
        assert "table1" in output
        assert "size profiles" in output

    def test_list_reflects_registry_mutations(self, capsys):
        from repro.api import CompositeOptions, default_registry, register_configuration

        register_configuration("cli-listed", CompositeOptions(base="gehl"))
        try:
            assert main(["list"]) == 0
            assert "cli-listed" in capsys.readouterr().out
        finally:
            default_registry().unregister("cli-listed")

    def test_simulate_command(self, capsys):
        exit_code = main([
            "simulate", "--suite", "cbp4like", "--benchmarks", "SPEC2K6-00",
            "--configurations", "tage-gsc,tage-gsc+imli",
            "--length", "400", "--profile", "small",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "SPEC2K6-00" in output
        assert "AVERAGE" in output
        assert "tage-gsc+imli" in output

    def test_simulate_rejects_empty_configurations(self, capsys):
        assert main([
            "simulate", "--configurations", ",", "--length", "300",
        ]) == 2

    def test_experiment_command(self, capsys):
        exit_code = main([
            "experiment", "base-predictors",
            "--benchmarks", "SPEC2K6-00,INT01", "--length", "400",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "base-predictors" in output
        assert "Paper reference values" in output

    def test_trace_command(self, tmp_path, capsys):
        output_path = tmp_path / "mm4.trace"
        exit_code = main([
            "trace", "--suite", "cbp4like", "--benchmark", "MM-4",
            "--length", "300", "--output", str(output_path),
        ])
        assert exit_code == 0
        trace = load_trace(output_path)
        assert trace.name == "MM-4"
        assert trace.conditional_count >= 300

    def test_trace_unknown_benchmark(self, tmp_path):
        exit_code = main([
            "trace", "--benchmark", "NOPE", "--output", str(tmp_path / "x"),
        ])
        assert exit_code == 2


class TestSimulateSpec:
    def test_simulate_from_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "specs.json"
        specs = [
            PredictorSpec.from_named("tage-gsc", profile="small").to_dict(),
            PredictorSpec.from_named(
                "tage-gsc", profile="small", imli_sic=True
            ).to_dict(),
        ]
        spec_path.write_text(json.dumps(specs))
        exit_code = main([
            "simulate", "--spec", str(spec_path),
            "--suite", "cbp4like", "--benchmarks", "SPEC2K6-00",
            "--length", "400", "--profile", "small",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "tage-gsc" in output
        assert "tage-gsc[imli_sic=True]" in output

    def test_spec_file_combines_with_named_configurations(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            PredictorSpec.from_named("gehl", profile="small").to_json()
        )
        exit_code = main([
            "simulate", "--configurations", "tage-gsc", "--spec", str(spec_path),
            "--benchmarks", "SPEC2K6-00", "--length", "400", "--profile", "small",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "tage-gsc" in output and "gehl" in output

    def test_missing_spec_file_is_an_error(self, capsys):
        assert main(["simulate", "--spec", "/no/such/file.json"]) == 2
        assert "cannot load specs" in capsys.readouterr().err

    def test_malformed_spec_file_is_an_error(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"profil": "small"}))
        assert main(["simulate", "--spec", str(spec_path)]) == 2


class TestSweep:
    def test_sweep_grid_runs_parallel_and_exports(self, tmp_path, capsys):
        json_path = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        exit_code = main([
            "sweep", "--base", "tage-gsc+oh",
            "--param", "oh_update_delay=7,15,63",
            "--suite", "cbp4like", "--benchmarks", "SPEC2K6-00,SPEC2K6-04",
            "--length", "400", "--profile", "small", "--jobs", "2",
            "--json", str(json_path), "--csv", str(csv_path),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "MPKI reduction vs tage-gsc+oh" in output
        data = json.loads(json_path.read_text())
        assert data["baseline"] == "tage-gsc+oh"
        assert len(data["results"]) == 4  # base + three delays
        labels = {entry["label"] for entry in data["results"]}
        assert "tage-gsc+oh[oh_update_delay=63]" in labels
        csv_text = csv_path.read_text()
        assert csv_text.splitlines()[0].startswith("benchmark,")
        assert "storage_kbits" in csv_text

    def test_sweep_value_equal_to_default_not_duplicated(self, capsys):
        # oh_update_delay=0 is the CompositeOptions default: that grid
        # point rebuilds the base predictor and must not appear twice.
        exit_code = main([
            "sweep", "--base", "tage-gsc+oh", "--param", "oh_update_delay=0,63",
            "--benchmarks", "SPEC2K6-00", "--length", "300", "--profile", "small",
        ])
        assert exit_code == 0
        header = capsys.readouterr().out.splitlines()[2]
        assert "tage-gsc+oh[oh_update_delay=0]" not in header
        assert "tage-gsc+oh[oh_update_delay=63]" in header

    def test_sweep_named_base_not_duplicated(self, tmp_path, capsys):
        # An explicitly named base must not be re-simulated under its
        # derived label when the (empty) grid regenerates its content.
        spec_path = tmp_path / "base.json"
        spec_path.write_text(json.dumps(
            {"configuration": "tage-gsc", "profile": "small", "name": "custom"}
        ))
        exit_code = main([
            "sweep", "--base", str(spec_path),
            "--benchmarks", "SPEC2K6-00", "--length", "300", "--profile", "small",
        ])
        assert exit_code == 0
        header = capsys.readouterr().out.splitlines()[2]
        assert "custom" in header
        assert "tage-gsc" not in header.replace("custom", "")

    def test_sweep_base_from_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "base.json"
        spec_path.write_text(
            PredictorSpec.from_named("gehl", profile="small").to_json()
        )
        exit_code = main([
            "sweep", "--base", str(spec_path),
            "--param", "imli_sic=true,false",
            "--benchmarks", "SPEC2K6-00", "--length", "400", "--profile", "small",
        ])
        assert exit_code == 0
        assert "gehl[imli_sic=True]" in capsys.readouterr().out

    def test_sweep_bad_param_is_an_error(self, capsys):
        assert main([
            "sweep", "--base", "tage-gsc", "--param", "oh_update_delay",
            "--benchmarks", "SPEC2K6-00", "--length", "300",
        ]) == 2
        assert "--param" in capsys.readouterr().err

    def test_sweep_unknown_base_is_an_error(self, capsys):
        assert main([
            "sweep", "--base", "no-such-config",
            "--benchmarks", "SPEC2K6-00", "--length", "300",
        ]) == 2

    def test_sweep_bad_value_type_is_a_clean_error(self, capsys):
        # "abc" survives JSON parsing as a string and only explodes inside
        # predictor construction; the CLI must still exit 2, not traceback.
        assert main([
            "sweep", "--base", "tage-gsc+oh", "--param", "oh_update_delay=abc",
            "--benchmarks", "SPEC2K6-00", "--length", "300", "--profile", "small",
        ]) == 2

    def test_sweep_progress_reports_cells(self, capsys):
        exit_code = main([
            "sweep", "--base", "tage-gsc", "--param", "imli_sic=true,false",
            "--benchmarks", "SPEC2K6-00", "--length", "300", "--profile", "small",
            "--progress",
        ])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "sweep: 0/2 cells" in err
        assert "sweep: 2/2 cells" in err
        assert "cells/s" in err

    def test_simulate_progress_reports_cells(self, capsys):
        exit_code = main([
            "simulate", "--configurations", "tage-gsc",
            "--benchmarks", "SPEC2K6-00", "--length", "300", "--profile", "small",
            "--progress",
        ])
        assert exit_code == 0
        assert "simulate: 1/1 cells" in capsys.readouterr().err

    def test_sweep_colliding_labels_is_an_error(self, capsys):
        # JSON 15 and string "15" are different override values but derive
        # the same label; the duplicate-label rejection must exit cleanly.
        assert main([
            "sweep", "--base", "tage-gsc+oh",
            "--param", 'oh_update_delay=15,"15"',
            "--benchmarks", "SPEC2K6-00", "--length", "300", "--profile", "small",
        ]) == 2
        assert "share the label" in capsys.readouterr().err


class TestServeSignals:
    def test_sigint_stops_serve_started_with_sigint_ignored(self):
        # A non-interactive shell starts background jobs with SIGINT
        # ignored, and exec keeps that; serve must still stop on SIGINT.
        env = {key: value for key, value in os.environ.items() if key != "REPRO_RESULT_STORE"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        launcher = (
            "import os, signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
            "os.execv(sys.executable, [sys.executable, '-m', 'repro', 'serve', '--port', '0'])"
        )
        serve = subprocess.Popen(
            [sys.executable, "-c", launcher], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            lines: "queue.Queue[str]" = queue.Queue()
            threading.Thread(
                target=lambda: [lines.put(line) for line in serve.stderr], daemon=True
            ).start()
            deadline = time.monotonic() + 60
            while "coordinator listening" not in lines.get(
                timeout=max(deadline - time.monotonic(), 0.1)
            ):
                pass
            serve.send_signal(signal.SIGINT)
            assert serve.wait(timeout=10) == 0
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.wait(timeout=15)
