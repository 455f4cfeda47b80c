"""Tests for the observability layer (:mod:`repro.obs`).

Unit coverage for the metrics registry, the structured event log and the
per-cell timing artifacts, then the integrated surfaces: the HTTP status
server answering live during a real two-worker distributed sweep (with
results still bit-identical to serial), the same surface polled while a
worker process is hard-killed under ``REPRO_CHAOS``, the windowed
ProgressPrinter ETA, ``repro store ls --summary`` and ``repro top``.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api.experiment import Experiment
from repro.api.specs import PredictorSpec
from repro.cli import main
from repro.common.progress import ProgressPrinter
from repro.dist import Coordinator, Worker
from repro.obs import (
    EventLog,
    MetricsRegistry,
    TimingLog,
    default_registry,
    event_log_for,
    reset_default_registry,
    summarize_timings,
    timing_log_for,
)
from repro.obs.http import StatusServer
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.top import render, run_top, sparkline
from repro.store import ResultStore, result_to_dict
from repro.workloads.suites import generate_suite

BENCHMARKS = ["SPEC2K6-00", "SPEC2K6-04"]
LENGTH = 300


@pytest.fixture(scope="module")
def traces():
    return generate_suite(
        "cbp4like", target_conditional_branches=LENGTH, benchmarks=BENCHMARKS
    )


@pytest.fixture(scope="module")
def specs():
    return [
        PredictorSpec.from_named("tage-gsc", profile="small"),
        PredictorSpec.from_named("tage-gsc", profile="small", imli_sic=True),
    ]


@pytest.fixture(scope="module")
def serial_results(specs, traces):
    return Experiment(specs, traces=traces, profile="small", store=False).run()


def _get_json(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def _get_text(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.headers.get("Content-Type"), response.read().decode("utf-8")


def _assert_bit_identical(runs, serial_results, specs):
    for spec in specs:
        ours = runs[spec.label].results
        theirs = serial_results.run_for(spec.label).results
        assert len(ours) == len(theirs)
        for mine, ref in zip(ours, theirs):
            assert result_to_dict(mine) == result_to_dict(ref)


def _parse_prometheus(body: str):
    """Well-formedness check: returns {name: value} for sample lines."""
    samples = {}
    for line in body.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            assert line.startswith("# HELP ") or line.startswith("# TYPE ")
            continue
        name, value = line.rsplit(" ", 1)
        float(value.replace("+Inf", "inf"))  # every sample value is numeric
        samples[name] = value
    return samples


class TestMetrics:
    def test_counter_and_gauge(self):
        counter = Counter("c_total", "help")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        gauge = Gauge("g")
        gauge.set(3)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 2

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("has space")
        with pytest.raises(ValueError):
            Counter("9starts_with_digit")

    def test_histogram_buckets_are_cumulative(self):
        histogram = Histogram("h_seconds", buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 5
        assert snap["buckets"]["0.1"] == 1
        assert snap["buckets"]["1"] == 3
        assert snap["buckets"]["10"] == 4
        assert snap["buckets"]["+Inf"] == 5
        assert snap["sum"] == pytest.approx(56.05)

    def test_registry_get_or_create_and_kind_clash(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total")
        assert registry.counter("x_total") is first
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_disabled_registry_hands_out_null_metrics(self):
        registry = MetricsRegistry(enabled=False)
        metric = registry.counter("x_total")
        metric.inc(100)
        assert metric.value() == 0.0
        assert registry.render_prometheus() == ""
        assert registry.snapshot() == {}

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("cells_total", "Cells completed.").inc(3)
        registry.histogram("walltime_seconds", buckets=[1.0]).observe(0.5)
        body = registry.render_prometheus()
        assert "# HELP cells_total Cells completed." in body
        assert "# TYPE cells_total counter" in body
        assert "cells_total 3" in body
        assert 'walltime_seconds_bucket{le="1"} 1' in body
        assert 'walltime_seconds_bucket{le="+Inf"} 1' in body
        assert "walltime_seconds_count 1" in body
        assert body.endswith("\n")

    def test_env_gate_disables_default_registry(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "off")
        reset_default_registry()
        try:
            registry = default_registry()
            registry.counter("gated_total").inc()
            assert registry.render_prometheus() == ""
        finally:
            monkeypatch.delenv("REPRO_TELEMETRY")
            reset_default_registry()


class TestEventLog:
    def test_emit_appends_tagged_json_lines(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl", component="tester")
        log.emit("started", answer=42)
        log.emit("stopped", component="other")
        lines = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        assert [line["event"] for line in lines] == ["started", "stopped"]
        assert lines[0]["component"] == "tester"
        assert lines[0]["answer"] == 42
        assert lines[1]["component"] == "other"
        assert all("ts" in line for line in lines)

    def test_rotation_keeps_two_bounded_files(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, max_bytes=200)
        for index in range(50):
            log.emit("tick", index=index)
        assert path.stat().st_size <= 200
        backup = tmp_path / "events.jsonl.1"
        assert backup.exists()
        # Both files still parse line-by-line.
        for file in (path, backup):
            for line in file.read_text().splitlines():
                json.loads(line)

    def test_event_log_for_env_gates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_LOG", "0")
        assert event_log_for(tmp_path) is None
        redirected = tmp_path / "custom.log"
        monkeypatch.setenv("REPRO_OBS_LOG", str(redirected))
        log = event_log_for(None, component="x")
        assert log is not None and log.path == redirected
        monkeypatch.delenv("REPRO_OBS_LOG")
        assert event_log_for(None) is None
        default = event_log_for(tmp_path)
        assert default is not None
        assert default.path == tmp_path / "repro.obs.log"


class TestTimingLog:
    def test_record_schema_and_summary(self, tmp_path):
        log = TimingLog(tmp_path / "timings.jsonl", component="tester")
        log.record(
            backend="serial",
            label="a",
            trace="t0",
            phases={"simulate": 0.25, "store_write": 0.01},
        )
        log.record(
            backend="pool", label="b", trace="t1", phases={"simulate": 1.5}, batch=4
        )
        lines = [
            json.loads(line)
            for line in (tmp_path / "timings.jsonl").read_text().splitlines()
        ]
        assert len(lines) == 2
        assert lines[0]["component"] == "tester"
        assert lines[0]["backend"] == "serial"
        assert lines[0]["phases"] == {"simulate": 0.25, "store_write": 0.01}
        assert lines[0]["batch"] == 1
        assert lines[1]["batch"] == 4
        summary = summarize_timings(log.path)
        assert summary["records"] == 2
        assert summary["phases"]["simulate"]["count"] == 2
        assert summary["phases"]["store_write"]["count"] == 1

    def test_invalid_phases_are_filtered(self, tmp_path):
        log = TimingLog(tmp_path / "timings.jsonl", component="tester")
        log.record(
            backend="serial",
            label="a",
            trace="t",
            phases={"simulate": -1.0, "junk": "text"},
        )
        assert not (tmp_path / "timings.jsonl").exists()
        assert log.records_written == 0

    def test_write_summary_skips_when_unchanged(self, tmp_path):
        log = TimingLog(tmp_path / "timings.jsonl", component="tester")
        log.record(backend="serial", label="a", trace="t", phases={"simulate": 0.1})
        target = log.write_summary()
        assert target is not None and target.name == "timings_summary.json"
        assert json.loads(target.read_text())["records"] == 1
        assert log.write_summary() is None  # nothing new since the flush
        log.record(backend="serial", label="b", trace="t", phases={"simulate": 0.2})
        assert log.write_summary() is not None

    def test_write_summary_skips_when_nothing_was_recorded(self, tmp_path):
        # A later process that records nothing (an all-hit resume) keeps
        # the earlier run's summary instead of writing an empty one.
        earlier = TimingLog(tmp_path / "timings.jsonl", component="tester")
        earlier.record(backend="serial", label="a", trace="t", phases={"simulate": 0.1})
        target = earlier.write_summary()
        kept = target.read_text()
        idle = TimingLog(tmp_path / "timings.jsonl", component="tester")
        assert idle.write_summary() is None
        assert target.read_text() == kept

    def test_summary_counts_every_writer_of_the_file(self, tmp_path):
        # Two logs (two processes of one store, say a sweep and a later
        # resume) append to one timings.jsonl: the summary that either writes
        # covers both, and replaces the file whole.
        path = tmp_path / "timings.jsonl"
        first = TimingLog(path, component="runner")
        first.record(backend="serial", label="a", trace="t", phases={"simulate": 0.1},
                     branches=100)
        first.record(backend="serial", label="b", trace="t", phases={"simulate": 0.3},
                     branches=300)
        assert json.loads(first.write_summary().read_text())["records"] == 2
        second = TimingLog(path, component="worker")
        second.record(backend="dist", label="c", trace="t", phases={"simulate": 0.6},
                      branches=600)
        summary = json.loads(second.write_summary().read_text())
        assert summary == summarize_timings(path)
        assert summary["records"] == 3
        assert summary["by_component"] == {"runner": 2, "worker": 1}
        assert summary["phases"]["simulate"]["count"] == 3
        assert summary["branches"] == 1000
        assert sorted(entry.name for entry in tmp_path.iterdir()) == [
            "timings.jsonl", "timings_summary.json",
        ]

    def test_timing_log_for_gates(self, tmp_path, monkeypatch):
        assert timing_log_for(None, "x") is None
        monkeypatch.setenv("REPRO_TIMINGS", "0")
        assert timing_log_for(tmp_path, "x") is None
        monkeypatch.delenv("REPRO_TIMINGS")
        log = timing_log_for(tmp_path, "x")
        assert log is not None and log.path == tmp_path / "timings.jsonl"

    def test_summarize_timings_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "timings.jsonl"
        log = TimingLog(path, component="a")
        log.record(backend="serial", label="l", trace="t", phases={"simulate": 0.5})
        other = TimingLog(path, component="b")
        other.record(backend="dist", label="l", trace="t", phases={"total": 2.0})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write('{"no_phases": true}\n')
        summary = summarize_timings(path)
        assert summary["records"] == 2
        assert summary["skipped"] == 2
        assert summary["by_component"] == {"a": 1, "b": 1}
        assert summary["phases"]["simulate"]["count"] == 1
        assert summary["phases"]["total"]["count"] == 1


class TestRunnerTimings:
    """Serial and pool experiments leave timing artifacts next to the store."""

    def _records(self, store_dir: Path):
        return [
            json.loads(line)
            for line in (store_dir / "timings.jsonl").read_text().splitlines()
        ]

    def test_serial_experiment_records_phases(self, tmp_path, specs, traces):
        store_dir = tmp_path / "store"
        experiment = Experiment(
            specs, traces=traces, profile="small", store=store_dir
        )
        experiment.run()
        experiment.close()
        records = self._records(store_dir)
        assert len(records) == len(specs) * len(traces)
        for record in records:
            assert record["component"] == "runner"
            assert record["backend"] == "serial"
            assert "simulate" in record["phases"]
            assert "store_write" in record["phases"]
        trace_names = {record["trace"] for record in records}
        assert trace_names == {trace.name for trace in traces}
        summary = json.loads((store_dir / "timings_summary.json").read_text())
        assert summary["records"] == len(records)
        assert summary["phases"]["simulate"]["count"] == len(records)

    def test_pool_experiment_records_phases(self, tmp_path, specs, traces):
        store_dir = tmp_path / "store"
        experiment = Experiment(
            specs, traces=traces, profile="small", store=store_dir, jobs=2
        )
        experiment.run()
        experiment.close()
        records = self._records(store_dir)
        assert len(records) == len(specs) * len(traces)
        assert {record["backend"] for record in records} == {"pool"}
        assert (store_dir / "timings_summary.json").exists()

    def test_timings_env_disables_capture(self, tmp_path, specs, traces, monkeypatch):
        monkeypatch.setenv("REPRO_TIMINGS", "0")
        store_dir = tmp_path / "store"
        experiment = Experiment(
            specs, traces=traces, profile="small", store=store_dir
        )
        experiment.run()
        experiment.close()
        assert not (store_dir / "timings.jsonl").exists()

    def test_summary_is_written_once_at_close(self, tmp_path, specs, traces, monkeypatch):
        from repro.obs import timings as timings_module
        from repro.sim.runner import SuiteRunner

        calls = []

        def counted(path):
            calls.append(path)
            return summarize_timings(path)

        monkeypatch.setattr(timings_module, "summarize_timings", counted)
        store_dir = tmp_path / "store"
        runner = SuiteRunner(traces, profile="small", store=str(store_dir))
        runner.run_specs(specs[:1])
        runner.run_specs(specs[1:])
        assert calls == []
        runner.close()
        assert len(calls) == 1
        lines = (store_dir / "timings.jsonl").read_text().splitlines()
        assert len(lines) == len(specs) * len(traces)
        summary = json.loads((store_dir / "timings_summary.json").read_text())
        assert summary["records"] == len(lines)

    def test_results_identical_with_and_without_timings(
        self, tmp_path, specs, traces, serial_results
    ):
        experiment = Experiment(
            specs, traces=traces, profile="small", store=tmp_path / "store"
        )
        runs = experiment.run().runs
        experiment.close()
        _assert_bit_identical(runs, serial_results, specs)


class TestBranchThroughput:
    """Timing records and summaries report simulated branches per second."""

    def test_records_and_summaries_carry_branch_counts(self, tmp_path):
        path = tmp_path / "timings.jsonl"
        log = TimingLog(path, component="tester")
        log.record(backend="serial", label="a", trace="t", phases={"simulate": 0.5},
                   branches=1000)
        log.record(backend="serial", label="b", trace="t", phases={"simulate": 2.0},
                   batch=4, branches=3000)
        log.record(backend="dist", label="c", trace="t", phases={"total": 1.0})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["branches"] == 1000
        assert lines[0]["cell_branches_per_s"] == pytest.approx(2000.0)
        # A batched cell divides by its share of the group's wall.
        assert lines[1]["cell_branches_per_s"] == pytest.approx(3000 / 0.5)
        assert "branches" not in lines[2]
        for summary in (json.loads(log.write_summary().read_text()), summarize_timings(path)):
            assert summary["branches"] == 4000
            assert summary["branches_per_s"] == pytest.approx(4000 / 1.0)

    def test_serial_records_count_the_results_branches(self, tmp_path, specs, traces):
        store_dir = tmp_path / "store"
        experiment = Experiment(specs, traces=traces, profile="small", store=store_dir)
        runs = experiment.run().runs
        experiment.close()
        expected = {
            (run.configuration, result.trace_name): result.conditional_branches
            for run in runs.values()
            for result in run.results
        }
        records = [
            json.loads(line)
            for line in (store_dir / "timings.jsonl").read_text().splitlines()
        ]
        assert {
            (record["label"], record["trace"]): record["branches"] for record in records
        } == expected
        summary = json.loads((store_dir / "timings_summary.json").read_text())
        assert summary["branches"] == sum(expected.values())
        assert summary["branches_per_s"] > 0

    def test_coordinator_counts_branches_from_the_uploaded_result(
        self, tmp_path, specs, traces, monkeypatch
    ):
        from repro.dist import worker as worker_module

        frames = []
        write_frame = worker_module.protocol.write_frame

        def record_frame(wfile, frame):
            if frame.get("type") == "result":
                frames.append(frame)
            return write_frame(wfile, frame)

        monkeypatch.setattr(worker_module.protocol, "write_frame", record_frame)
        coordinator = Coordinator(store=ResultStore(tmp_path / "store"))
        host, port = coordinator.start()
        worker = Worker(host, port, name="w", reconnect=0)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            job = coordinator.submit(specs, traces)
            assert job.wait(60)
        finally:
            coordinator.shutdown()
            thread.join(timeout=30)
            # The coordinator counted into the process-wide metrics, which
            # the status-surface test reads from zero.
            reset_default_registry()
        records = [
            json.loads(line)
            for line in (tmp_path / "store" / "timings.jsonl").read_text().splitlines()
            if json.loads(line)["component"] == "coordinator"
        ]
        counts = {trace.name: trace.conditional_count for trace in traces}
        assert len(records) == len(specs) * len(traces)
        assert all(record["branches"] == counts[record["trace"]] for record in records)
        # The result frame's timings key carries phase walls only.
        assert frames and all(
            set(frame["timings"]) <= {"trace_load", "simulate", "queue_wait"}
            for frame in frames
        )


class TestStatusSurface:
    """The HTTP surface answers accurately during a live two-worker sweep."""

    def test_live_endpoints_during_dist_sweep(
        self, tmp_path, specs, traces, serial_results
    ):
        store_dir = tmp_path / "store"
        coordinator = Coordinator(store=ResultStore(store_dir))
        address = coordinator.start()
        server = StatusServer(coordinator, store=coordinator.store, port=0)
        host, port = server.start()
        base = f"http://{host}:{port}"
        try:
            # Before any job: empty but well-formed.
            status = _get_json(f"{base}/status")
            assert status["jobs_total"] == 0
            assert status["cells_total"] == 0
            assert status["protocol"] == 1
            job = coordinator.submit(specs, traces)
            workers = [
                Worker(address[0], address[1], name=f"obs-w{i}", reconnect=0.75)
                for i in range(2)
            ]
            threads = [
                threading.Thread(target=worker.run, daemon=True)
                for worker in workers
            ]
            for thread in threads:
                thread.start()
            # Poll every endpoint while the sweep runs; responses must
            # stay well-formed at every intermediate state.
            while not job.wait(timeout=0.05):
                polled = _get_json(f"{base}/status")
                assert 0 <= polled["cells_done"] <= polled["cells_total"]
                _get_json(f"{base}/workers")
            assert job.wait(60)
            runs = job.runs()

            status = _get_json(f"{base}/status")
            assert status["jobs_total"] == 1
            assert status["cells_done"] == job.total
            assert status["cells_total"] == job.total
            assert status["cells_pending"] == 0
            assert status["cells_leased"] == 0
            assert status["stats"] == coordinator.stats
            assert status["workers"] == 2
            assert status["uptime_seconds"] > 0

            jobs = _get_json(f"{base}/jobs")["jobs"]
            assert len(jobs) == 1
            assert jobs[0]["done"] == jobs[0]["total"] == job.total
            assert jobs[0]["finished"] is True
            assert jobs[0]["labels"] == [spec.label for spec in specs]

            worker_rows = _get_json(f"{base}/workers")["workers"]
            assert len(worker_rows) == 2
            assert {row["name"] for row in worker_rows} == {"obs-w0", "obs-w1"}
            assert sum(row["completed"] for row in worker_rows) == job.total
            assert all(row["leases"] == 0 for row in worker_rows)

            store_view = _get_json(f"{base}/store")["store"]
            assert store_view["cells"] == job.total
            assert store_view["distinct_specs"] == len(specs)
            assert store_view["distinct_traces"] == len(traces)
            assert store_view["bytes"] > 0

            content_type, body = _get_text(f"{base}/metrics")
            assert content_type.startswith("text/plain; version=0.0.4")
            samples = _parse_prometheus(body)
            assert samples["repro_cells_done"] == str(job.total)
            assert samples["repro_cells_total"] == str(job.total)
            assert samples["repro_store_cells"] == str(job.total)
            assert samples["repro_results_accepted_total"] == str(job.total)
            assert samples["repro_jobs_total"] == "1"

            coordinator.shutdown()
            for thread in threads:
                thread.join(timeout=15)
            assert not any(thread.is_alive() for thread in threads)
            _assert_bit_identical(runs, serial_results, specs)
            # The coordinator's dist timing artifact landed by the store.
            timing_records = [
                json.loads(line)
                for line in (store_dir / "timings.jsonl").read_text().splitlines()
                if json.loads(line)["component"] == "coordinator"
            ]
            assert len(timing_records) == job.total
            for record in timing_records:
                assert record["backend"] == "dist"
                assert "total" in record["phases"]
                assert "simulate" in record["phases"]
            # And the coordinator event log told the story.
            events = [
                json.loads(line)["event"]
                for line in (store_dir / "repro.obs.log").read_text().splitlines()
            ]
            assert "coordinator_started" in events
            assert "job_admitted" in events
            assert "worker_connected" in events
            assert "job_settled" in events
        finally:
            coordinator.shutdown()
            server.close()

    def test_workers_count_every_cell_of_a_settled_job(self, monkeypatch, specs, traces):
        # A worker's "completed" count must be in place before the result
        # can settle its job: a stall after Coordinator._complete returns
        # must not let a waiter see the job done with a cell uncounted.
        complete = Coordinator._complete

        def complete_then_stall(self, *args, **kwargs):
            accepted = complete(self, *args, **kwargs)
            time.sleep(0.5)
            return accepted

        monkeypatch.setattr(Coordinator, "_complete", complete_then_stall)
        coordinator = Coordinator()
        address = coordinator.start()
        worker = Worker(address[0], address[1], name="lone", reconnect=0.75)
        thread = threading.Thread(target=worker.run, daemon=True)
        try:
            job = coordinator.submit(specs, traces)
            thread.start()
            assert job.wait(60)
            [row] = coordinator.workers_snapshot()
            assert row["completed"] == job.total
        finally:
            coordinator.shutdown()
            thread.join(timeout=15)

    def test_unknown_path_is_json_404(self, specs, traces):
        coordinator = Coordinator()
        coordinator.start()
        server = StatusServer(coordinator, port=0)
        host, port = server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as failure:
                _get_json(f"http://{host}:{port}/nope")
            assert failure.value.code == 404
            payload = json.loads(failure.value.read().decode("utf-8"))
            assert "/nope" in payload["error"]
        finally:
            server.close()
            coordinator.shutdown()

    def test_closing_server_does_not_disturb_coordinator(
        self, specs, traces, serial_results
    ):
        coordinator = Coordinator()
        address = coordinator.start()
        server = StatusServer(coordinator, port=0)
        server.start()
        job = coordinator.submit(specs, traces)
        server.close()  # observability dies first; the sweep must not care
        workers = [
            Worker(address[0], address[1], name="lone", reconnect=0.75)
        ]
        thread = threading.Thread(target=workers[0].run, daemon=True)
        thread.start()
        assert job.wait(60)
        runs = job.runs()
        coordinator.shutdown()
        thread.join(timeout=15)
        _assert_bit_identical(runs, serial_results, specs)


class TestStatusUnderChaos:
    """Status endpoints polled while a worker process is hard-killed."""

    def test_surface_stays_up_through_worker_kill(
        self, tmp_path, specs, traces, serial_results
    ):
        coordinator = Coordinator()
        host, port = coordinator.start()
        server = StatusServer(coordinator, port=0)
        status_host, status_port = server.start()
        base = f"http://{status_host}:{status_port}"
        job = coordinator.submit(specs, traces)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        doomed_env = dict(env)
        doomed_env["REPRO_CHAOS"] = "worker.simulate.kill:1:1"
        command = [
            sys.executable, "-m", "repro", "worker",
            "--connect", f"{host}:{port}", "--reconnect", "2",
        ]
        doomed = subprocess.Popen(
            command, env=doomed_env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        healthy = None
        try:
            # Poll the surface while the doomed worker dies (exit 137).
            while doomed.poll() is None:
                _get_json(f"{base}/workers")
                _get_json(f"{base}/status")
                time.sleep(0.05)
            assert doomed.returncode == 137
            healthy = subprocess.Popen(
                command, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            while not job.wait(timeout=0.1):
                _get_json(f"{base}/workers")  # never 500s mid-recovery
            runs = job.runs()
        finally:
            if doomed.poll() is None:
                doomed.kill()
                doomed.wait(timeout=15)
            if healthy is not None:
                healthy.terminate()
                healthy.wait(timeout=15)
            coordinator.shutdown()
        _assert_bit_identical(runs, serial_results, specs)
        # The endpoint's degradation counters agree with the coordinator.
        status = _get_json(f"{base}/status")
        assert status["stats"] == coordinator.stats
        assert status["stats"]["requeued"] >= 1
        _, body = _get_text(f"{base}/metrics")
        samples = _parse_prometheus(body)
        assert samples["repro_cells_requeued_total"] == str(
            coordinator.stats["requeued"]
        )
        server.close()


class TestProgressWindow:
    """The printed rate and ETA track the recent window, not the mean."""

    def _run_clock(self, monkeypatch):
        clock = {"now": 1000.0}
        monkeypatch.setattr(time, "monotonic", lambda: clock["now"])
        return clock

    def test_store_warm_burst_does_not_poison_eta(self, monkeypatch):
        clock = self._run_clock(monkeypatch)
        out = io.StringIO()
        printer = ProgressPrinter(
            "resume", stream=out, min_interval=0.0, window=30.0
        )
        # 50 store-warm cells land in 0.1s (a resumed run's replay)...
        for done in range(1, 51):
            printer(done, 100)
            clock["now"] += 0.002
        # ...then real simulation at 1 cell per 10s.
        for done in range(51, 56):
            clock["now"] += 10.0
            printer(done, 100)
        last = out.getvalue().strip().splitlines()[-1]
        # Since-start mean would claim ~1.05 cells/s and promise an ETA
        # under a minute; the windowed rate reports reality: ~0.1 cells/s
        # and ~45 remaining cells => ETA in minutes.
        assert "0.1 cells/s" in last
        assert "ETA 7.5m" in last

    def test_final_line_reports_whole_run(self, monkeypatch):
        clock = self._run_clock(monkeypatch)
        out = io.StringIO()
        printer = ProgressPrinter("run", stream=out, min_interval=0.0)
        printer(1, 2)
        clock["now"] += 50.0
        printer(2, 2)
        last = out.getvalue().strip().splitlines()[-1]
        assert "took 50.0s" in last

    def test_stall_longer_than_window_degrades_rate(self, monkeypatch):
        clock = self._run_clock(monkeypatch)
        out = io.StringIO()
        printer = ProgressPrinter(
            "stall", stream=out, min_interval=0.0, window=5.0
        )
        printer(10, 20)
        clock["now"] += 1.0
        printer(12, 20)
        clock["now"] += 100.0  # stall: no completions for 101s
        printer(12, 20, stats={"requeued": 1})  # stats change forces a line
        last = out.getvalue().strip().splitlines()[-1]
        assert "0.0 cells/s" in last


class TestStoreSummary:
    def test_summary_counts_cells_bytes_specs_traces(
        self, tmp_path, specs, traces
    ):
        store_dir = tmp_path / "store"
        Experiment(specs, traces=traces, profile="small", store=store_dir).run()
        summary = ResultStore(store_dir).summary()
        assert summary["cells"] == len(specs) * len(traces)
        assert summary["distinct_specs"] == len(specs)
        assert summary["distinct_traces"] == len(traces)
        assert summary["bytes"] > 0
        assert summary["root"] == str(Path(store_dir))

    def test_empty_store_summary(self, tmp_path):
        summary = ResultStore(tmp_path / "empty").summary()
        assert summary["cells"] == 0
        assert summary["bytes"] == 0
        assert summary["distinct_specs"] == 0
        assert summary["distinct_traces"] == 0

    def test_cli_store_ls_summary(self, tmp_path, specs, traces, capsys):
        store_dir = tmp_path / "store"
        Experiment(specs, traces=traces, profile="small", store=store_dir).run()
        assert main(["store", "ls", "--summary", "--store", str(store_dir)]) == 0
        line = capsys.readouterr().out.strip()
        total = len(specs) * len(traces)
        assert line.startswith(f"{total} cell(s)")
        assert f"{len(specs)} distinct spec(s)" in line
        assert f"{len(traces)} distinct trace(s)" in line
        assert main([
            "store", "ls", "--summary", "--store", str(store_dir), "--json"
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"] == total


class TestTop:
    def test_sparkline_scales_to_peak(self):
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == "▁▁"
        line = sparkline([1.0, 2.0, 4.0])
        assert len(line) == 3
        assert line[-1] == "█"

    def test_render_frame(self):
        status = {
            "uptime_seconds": 12.0,
            "jobs_total": 2,
            "jobs_active": 1,
            "cells_done": 3,
            "cells_total": 8,
            "cells_per_second": 1.5,
            "eta_seconds": 3.33,
            "workers": 2,
            "stats": {"requeued": 1, "retried": 0, "quarantined": 0},
        }
        jobs = [
            {"job": 1, "done": 4, "total": 4, "finished": True, "error": None,
             "labels": ["a"]},
            {"job": 2, "done": 0, "total": 4, "finished": False, "error": None,
             "labels": ["b", "c"]},
        ]
        workers = [
            {"name": "w0", "leases": 2, "completed": 1, "last_seen_seconds": 0.2},
        ]
        frame = render(status, jobs, workers, [0.5, 1.0, 1.5])
        assert "cells 3/8 (38%)" in frame
        assert "1.50 cells/s" in frame
        assert "ETA 3.3s" in frame
        assert "degradation: requeued 1" in frame
        assert "finished" in frame and "running" in frame
        assert "w0" in frame
        assert "throughput" in frame

    def test_run_top_against_live_server_and_cli(self, capsys):
        coordinator = Coordinator()
        coordinator.start()
        server = StatusServer(coordinator, port=0)
        host, port = server.start()
        try:
            out = io.StringIO()
            code = run_top(
                f"{host}:{port}", interval=0.0, iterations=2, clear=False,
                stream=out,
            )
            assert code == 0
            assert out.getvalue().count("repro top · up") == 2
            assert "\x1b" not in out.getvalue()  # --no-clear means no ANSI
            assert main([
                "top", "--connect", f"{host}:{port}",
                "--iterations", "1", "--no-clear",
            ]) == 0
            assert "repro top · up" in capsys.readouterr().out
        finally:
            server.close()
            coordinator.shutdown()

    def test_run_top_unreachable_returns_4(self):
        out = io.StringIO()
        code = run_top(
            "127.0.0.1:9", interval=0.0, iterations=1, clear=False, stream=out
        )
        assert code == 4
        assert "unreachable" in out.getvalue()


class TestServeStatusPortCli:
    """`repro serve --status-port` wires the surface into the CLI path."""

    def test_serve_sweep_with_status_port(self, tmp_path, capsys):
        # A worker thread joins the CLI-spawned coordinator by port; the
        # status server must be live during the run and gone after it.
        store_dir = tmp_path / "store"
        work_port, status_port = 47951, 47952
        probe = {}

        def poll_then_work():
            # Wait for the status surface to come up, snapshot it, then
            # run a worker so the CLI sweep can finish.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    probe["status"] = _get_json(
                        f"http://127.0.0.1:{status_port}/status"
                    )
                    break
                except (urllib.error.URLError, OSError):
                    time.sleep(0.05)
            worker = Worker(
                "127.0.0.1", work_port, connect_retry=30, reconnect=0.75
            )
            worker.run()

        thread = threading.Thread(target=poll_then_work, daemon=True)
        thread.start()
        code = main([
            "serve", "--port", str(work_port),
            "--status-port", str(status_port),
            "--store", str(store_dir),
            "--base", "tage-gsc", "--profile", "small",
            "--suite", "cbp4like", "--benchmarks", ",".join(BENCHMARKS),
            "--length", str(LENGTH),
        ])
        thread.join(timeout=30)
        assert not thread.is_alive(), "worker thread hung"
        assert code == 0
        captured = capsys.readouterr()
        assert f"http://127.0.0.1:{status_port}/status" in captured.err
        assert probe["status"]["cells_total"] >= 0
        # The surface died with the run.
        with pytest.raises((urllib.error.URLError, OSError)):
            _get_json(f"http://127.0.0.1:{status_port}/status")
        assert (store_dir / "timings.jsonl").exists()

    def test_status_port_bind_failure_exit_code(self, tmp_path):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        blocked_port = blocker.getsockname()[1]
        try:
            code = main([
                "serve", "--port", "0",
                "--status-port", str(blocked_port),
                "--base", "tage-gsc", "--profile", "small",
                "--suite", "cbp4like", "--benchmarks", BENCHMARKS[0],
                "--length", str(LENGTH),
            ])
        finally:
            blocker.close()
        assert code == 3  # EXIT_BIND_FAILURE, same as a coordinator clash
