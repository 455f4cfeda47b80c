"""Tests for the distributed sweep service (:mod:`repro.dist`).

The heavy guarantees are exercised fully in-process: a coordinator thread
plus worker threads on localhost TCP, so the tests cover the real
protocol path (sockets, frames, leases) without spawning processes.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.api.experiment import Experiment, ResultSet
from repro.api.specs import PredictorSpec
from repro.dist import (
    Coordinator,
    DistBackend,
    JobFailed,
    Worker,
    submit_sweep,
)
from repro.dist import protocol
from repro.dist.protocol import ProtocolError
from repro.sim.engine import simulate
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


def _start_workers(address, count, **kwargs):
    """``count`` workers in background threads; returns (workers, threads)."""
    host, port = address
    # A short reconnect window keeps worker threads joinable within the
    # test timeout when a coordinator goes away abruptly.
    kwargs.setdefault("reconnect", 0.75)
    workers = [
        Worker(host, port, name=f"test-worker-{i}", **kwargs) for i in range(count)
    ]
    threads = [
        threading.Thread(target=worker.run, daemon=True) for worker in workers
    ]
    for thread in threads:
        thread.start()
    return workers, threads


def _join_workers(coordinator, threads):
    coordinator.shutdown()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads), "worker thread hung"


class _RawClient:
    """Hand-rolled protocol client for fault and fuzz tests."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.rfile = self.sock.makefile("rb")
        self.wfile = self.sock.makefile("wb")

    def send(self, frame):
        protocol.write_frame(self.wfile, frame)

    def send_raw(self, data: bytes):
        self.wfile.write(data)
        self.wfile.flush()

    def recv(self):
        return protocol.read_frame(self.rfile)

    def hello(self):
        self.send(
            {"type": "hello", "role": "worker", "protocol": protocol.PROTOCOL_VERSION,
             "worker": "raw"}
        )
        reply = self.recv()
        assert reply["type"] == "welcome"
        return reply

    def lease(self):
        self.send({"type": "lease"})
        return self.recv()

    def close(self):
        for stream in (self.wfile, self.rfile):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.sock.close()
        except OSError:
            pass


class TestProtocol:
    def test_trace_codec_round_trip(self, traces):
        for trace in traces:
            restored = protocol.decode_trace(protocol.encode_trace(trace))
            assert restored.fingerprint() == trace.fingerprint()
            assert restored.name == trace.name

    def test_profile_codec_round_trip(self):
        from repro.api.registry import default_registry
        from repro.store import profile_content

        profile = default_registry().resolve_profile("small")
        payload = json.loads(json.dumps(protocol.profile_to_payload(profile)))
        restored = protocol.profile_from_payload(payload)
        assert profile_content(restored) == profile_content(profile)

    def test_decode_trace_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            protocol.decode_trace("not base64!")
        with pytest.raises(ProtocolError):
            protocol.decode_trace("aGVsbG8=")  # valid base64, not a trace

    def test_profile_payload_rejects_junk(self):
        with pytest.raises(ProtocolError):
            protocol.profile_from_payload({"tage": {}, "nonsense": 1})

    def test_frame_round_trip_and_errors(self, tmp_path):
        import io

        buffer = io.BytesIO()
        protocol.write_frame(buffer, {"type": "lease", "n": 1})
        buffer.seek(0)
        assert protocol.read_frame(buffer) == {"type": "lease", "n": 1}
        assert protocol.read_frame(buffer) is None  # EOF
        for junk in (b"not json\n", b'[1, 2]\n', b'{"no-type": 1}\n', b'{"x": 1'):
            with pytest.raises(ProtocolError):
                protocol.read_frame(io.BytesIO(junk))


class TestEndToEnd:
    def test_two_workers_bit_identical_to_serial(self, specs, traces, serial_results):
        coordinator = Coordinator()
        address = coordinator.start()
        job = coordinator.submit(specs, traces)
        workers, threads = _start_workers(address, 2)
        assert job.wait(60), "distributed sweep did not finish"
        runs = job.runs()
        _join_workers(coordinator, threads)

        dist_results = ResultSet(
            specs=list(specs), runs=runs,
            trace_names=[trace.name for trace in traces],
        )
        assert dist_results.to_json() == serial_results.to_json()
        assert dist_results.to_csv() == serial_results.to_csv()
        # Both workers did real work and every cell ran exactly once.
        assert job.done == job.total == len(specs) * len(traces)
        assert sum(worker.completed for worker in workers) == job.total

    def test_experiment_dist_backend_matches_serial(
        self, specs, traces, serial_results
    ):
        coordinator = Coordinator()
        address = coordinator.start()
        workers, threads = _start_workers(address, 2)
        experiment = Experiment(
            specs, traces=traces, profile="small", store=False,
            backend=DistBackend(address),
        )
        dist_results = experiment.run()
        _join_workers(coordinator, threads)
        assert dist_results.to_json() == serial_results.to_json()

    def test_submit_sweep_client(self, specs, traces, serial_results):
        coordinator = Coordinator()
        address = coordinator.start()
        workers, threads = _start_workers(address, 2)
        seen = []
        results = submit_sweep(address, specs, traces, progress=lambda d, t: seen.append((d, t)))
        _join_workers(coordinator, threads)
        for index, trace in enumerate(traces):
            for spec in specs:
                assert results[(spec.label, index)].mpki == serial_results.mpki(
                    spec.label, trace.name
                )
        assert seen and seen[-1][0] == seen[-1][1] == len(specs) * len(traces)

    def test_unbuildable_spec_fails_the_job(self, traces):
        from repro.api.registry import Registry

        # A builder-based spec from a scoped registry is admissible on the
        # coordinator but cannot build on a worker (workers only know the
        # default registry) -- the worker reports it and the job fails
        # fast instead of looping the cell forever.
        scoped = Registry.with_defaults()
        scoped.register_configuration(
            "test-doomed", lambda profile, **overrides: None
        )
        coordinator = Coordinator()
        address = coordinator.start()
        bad = PredictorSpec.from_named("test-doomed", profile="small")
        job = coordinator.submit([bad], traces, registry=scoped)
        workers, threads = _start_workers(address, 1)
        assert job.wait(60)
        assert job.error is not None and "test-doomed" in job.error
        with pytest.raises(JobFailed):
            job.runs()
        _join_workers(coordinator, threads)


class TestFaultTolerance:
    def test_killed_worker_leases_are_requeued(self, specs, traces, serial_results):
        coordinator = Coordinator()
        address = coordinator.start()
        job = coordinator.submit(specs, traces)

        # A worker leases one cell and dies without ever reporting back.
        casualty = _RawClient(address)
        casualty.hello()
        reply = casualty.lease()
        assert reply["type"] == "work"
        casualty.close()

        # A healthy worker must still complete the whole sweep.
        workers, threads = _start_workers(address, 1)
        assert job.wait(60), "sweep did not recover from the dead worker"
        runs = job.runs()
        _join_workers(coordinator, threads)
        dist_results = ResultSet(
            specs=list(specs), runs=runs,
            trace_names=[trace.name for trace in traces],
        )
        assert dist_results.to_json() == serial_results.to_json()
        assert job.done == job.total  # nothing lost
        assert workers[0].completed == job.total  # requeued cell re-ran

    def test_expired_lease_is_requeued_and_duplicate_ignored(self, specs, traces):
        coordinator = Coordinator(lease_timeout=0.2)
        address = coordinator.start()
        job = coordinator.submit(specs, traces)

        # This client leases a cell and sits on it past the timeout.
        slow = _RawClient(address)
        slow.hello()
        reply = slow.lease()
        assert reply["type"] == "work"
        item = reply["item"]

        workers, threads = _start_workers(address, 1)
        assert job.wait(60), "sweep did not recover from the expired lease"
        assert job.done == job.total

        # The slow worker finally uploads its (now duplicate) result.
        trace = next(t for t in traces if t.fingerprint() == item["trace"])
        spec = PredictorSpec.from_dict(item["spec"])
        result = simulate(spec.build(), trace, track_per_pc=item["track_per_pc"])
        slow.send(
            {"type": "result", "cell": item["cell"], "result": result_to_dict(result)}
        )
        ack = slow.recv()
        assert ack["type"] == "ack" and ack["accepted"] is False
        assert job.done == job.total  # not double counted
        slow.close()
        _join_workers(coordinator, threads)


    def test_stale_failure_after_completion_does_not_fail_job(self, specs, traces):
        coordinator = Coordinator(lease_timeout=0.2)
        address = coordinator.start()
        job = coordinator.submit(specs, traces)

        # Lease a cell, stall past the timeout so another worker redoes it.
        stale = _RawClient(address)
        stale.hello()
        reply = stale.lease()
        assert reply["type"] == "work"
        workers, threads = _start_workers(address, 1)
        assert job.wait(60)
        assert job.error is None

        # The stalled worker now reports a (stale) failure for its cell:
        # the completed job must not be retroactively failed.
        stale.send(
            {"type": "failure", "cell": reply["item"]["cell"], "message": "boom"}
        )
        ack = stale.recv()
        assert ack["type"] == "ack"
        assert job.error is None
        job.runs()  # still a healthy, complete job
        stale.close()
        _join_workers(coordinator, threads)

    def test_transient_worker_errors_are_not_job_fatal(self):
        # Deterministic cell errors go to the coordinator as failure
        # frames; transient host errors must kill the worker instead (its
        # leases are requeued), never the job.
        worker = Worker("127.0.0.1", 1)
        with pytest.raises(RuntimeError):
            worker._report_failure(None, None, {"cell": 1}, RuntimeError("oom-ish"))

    def test_release_job_prunes_scheduler_state(self, specs, traces):
        coordinator = Coordinator()
        address = coordinator.start()
        job = coordinator.submit(specs, traces)
        workers, threads = _start_workers(address, 1)
        assert job.wait(60)
        runs_before = job.runs()
        coordinator.release_job(job)
        # A long-lived service keeps nothing of a settled job ...
        assert not coordinator._cells
        assert not coordinator._traces
        assert job.job_id not in coordinator._jobs
        # ... while the job object the caller holds stays usable.
        assert job.runs().keys() == runs_before.keys()
        _join_workers(coordinator, threads)


class TestProtocolFuzz:
    @pytest.mark.parametrize(
        "payload",
        [
            b"\x00\xff\xfe garbage bytes\n",
            b"not json at all\n",
            b"[1, 2, 3]\n",
            b'{"no_type_key": true}\n',
            b'{"type": "lease"',  # truncated: no newline, then close
            b'{"type": "bogus-verb"}\n',
            b'{"type": "result", "cell": "nope"}\n',
        ],
    )
    def test_garbage_connections_do_not_wedge(self, specs, traces, payload):
        coordinator = Coordinator()
        address = coordinator.start()
        job = coordinator.submit([specs[0]], [traces[0]])

        fuzz = _RawClient(address)
        if payload.startswith(b'{"type": "result"') or payload.startswith(
            b'{"type": "bogus'
        ):
            fuzz.hello()  # reach the worker loop before misbehaving
        fuzz.send_raw(payload)
        if payload.endswith(b"\n"):
            reply = fuzz.recv()  # error frame or clean close, never a hang
            assert reply is None or reply["type"] == "error"
        fuzz.close()  # truncated frame: die mid-line; coordinator must cope

        # The coordinator still serves real workers afterwards.
        workers, threads = _start_workers(address, 1)
        assert job.wait(60), "coordinator wedged after fuzz input"
        _join_workers(coordinator, threads)

    def test_large_frame_then_abrupt_close_does_not_wedge(self, specs, traces):
        coordinator = Coordinator()
        address = coordinator.start()
        job = coordinator.submit([specs[0]], [traces[0]])
        fuzz = _RawClient(address)
        fuzz.send_raw(b'{"type": "hello", "pad": "' + b"x" * (256 * 1024) + b'"}\n')
        fuzz.close()
        workers, threads = _start_workers(address, 1)
        assert job.wait(60)
        _join_workers(coordinator, threads)

    def test_frame_size_cap_is_enforced(self, monkeypatch):
        import io

        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        oversized = b'{"type": "hello", "pad": "' + b"x" * 128 + b'"}\n'
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.read_frame(io.BytesIO(oversized))

    def test_bad_submit_gets_an_error_frame(self, traces):
        coordinator = Coordinator()
        address = coordinator.start()
        client = _RawClient(address)
        client.send(
            {
                "type": "submit",
                "protocol": protocol.PROTOCOL_VERSION,
                "specs": [{"label": "x", "spec": {"bogus": 1}, "profile": {}}],
                "traces": ["AAAA"],
            }
        )
        reply = client.recv()
        assert reply["type"] == "error"
        client.close()
        coordinator.shutdown()

    def test_protocol_version_mismatch_is_rejected(self, traces):
        coordinator = Coordinator()
        address = coordinator.start()
        client = _RawClient(address)
        client.send({"type": "hello", "role": "worker", "protocol": 99})
        reply = client.recv()
        assert reply["type"] == "error" and "protocol" in reply["message"]
        client.close()
        coordinator.shutdown()


class TestStoreIntegration:
    def test_coordinator_store_prefill_completes_without_workers(
        self, specs, traces, tmp_path, serial_results
    ):
        store = ResultStore(tmp_path / "store")
        # A local sweep populates the store ...
        Experiment(specs, traces=traces, profile="small", store=store).run()
        # ... and the coordinator finds every cell already done.
        coordinator = Coordinator(store=store)
        coordinator.start()
        job = coordinator.submit(specs, traces)
        assert job.wait(5), "store-prefilled job should settle immediately"
        runs = job.runs()
        coordinator.shutdown()
        dist_results = ResultSet(
            specs=list(specs), runs=runs,
            trace_names=[trace.name for trace in traces],
        )
        assert dist_results.to_json() == serial_results.to_json()

    def test_distributed_sweep_persists_cells_for_resume(
        self, specs, traces, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        coordinator = Coordinator(store=store)
        address = coordinator.start()
        job = coordinator.submit(specs, traces)
        workers, threads = _start_workers(address, 2)
        assert job.wait(60)
        _join_workers(coordinator, threads)
        assert len(store) == job.total
        # A plain local sweep over the same grid reuses every cell.
        reuse = ResultStore(tmp_path / "store")
        Experiment(specs, traces=traces, profile="small", store=reuse).run()
        assert reuse.hits == job.total and reuse.misses == 0

    def test_worker_side_store_serves_cells(self, specs, traces, tmp_path):
        store = ResultStore(tmp_path / "store")
        Experiment(specs, traces=traces, profile="small", store=store).run()
        # Coordinator has no store; the worker's local store has it all.
        coordinator = Coordinator()
        address = coordinator.start()
        job = coordinator.submit(specs, traces)
        workers, threads = _start_workers(address, 1, store=store)
        assert job.wait(60)
        _join_workers(coordinator, threads)
        assert job.done == job.total


class TestResultStoreHooks:
    def test_result_dict_round_trip(self, traces):
        from repro.store import result_from_dict

        spec = PredictorSpec.from_named("gehl", profile="small")
        result = simulate(spec.build(), traces[0], track_per_pc=True)
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert restored == result

    def test_import_record_round_trip(self, specs, traces, tmp_path):
        source = ResultStore(tmp_path / "source")
        Experiment(specs, traces=traces, profile="small", store=source).run()
        destination = ResultStore(tmp_path / "destination")
        for record in source.export():
            destination.import_record(record)
        assert sorted(destination.keys()) == sorted(source.keys())
        # The merged store serves the sweep without recomputation.
        merged = ResultStore(tmp_path / "destination")
        Experiment(specs, traces=traces, profile="small", store=merged).run()
        assert merged.misses == 0

    def test_import_record_rejects_junk(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError):
            store.import_record({"no": "key"})
        with pytest.raises(ValueError):
            store.import_record({"key": "abc", "version": 1, "result": {}})
        with pytest.raises(ValueError):
            store.import_record("not a dict")


class TestDistCli:
    def test_worker_bad_connect_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["worker", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_worker_unreachable_coordinator_exits_distinctly(self, capsys):
        from repro.cli import EXIT_UNREACHABLE, main

        assert main([
            "worker", "--connect", "127.0.0.1:1", "--connect-retry", "0",
        ]) == EXIT_UNREACHABLE
        err = capsys.readouterr().err
        assert "worker failed" in err
        assert "cannot reach coordinator" in err

    def test_submit_unreachable_coordinator_fails_cleanly(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.dist import client

        class FakeClock:
            """Retry sleeps advance ``monotonic`` instead of waiting."""

            now = 0.0

            def monotonic(self):
                return self.now

            def sleep(self, seconds):
                self.now += seconds

        attempts = []
        connect = client.protocol.connect

        def counting_connect(*args, **kwargs):
            attempts.append(args)
            return connect(*args, **kwargs)

        monkeypatch.setattr(client, "time", FakeClock())
        monkeypatch.setattr(client.protocol, "connect", counting_connect)
        exit_code = main([
            "submit", "--connect", "127.0.0.1:1", "--base", "tage-gsc",
            "--benchmarks", "SPEC2K6-00", "--length", "300", "--profile", "small",
        ])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert "submit failed" in err
        assert "within 10s" in err
        assert len(attempts) > 1

    def test_store_ls_json_output(self, specs, traces, tmp_path, capsys):
        from repro.cli import main

        store = ResultStore(tmp_path / "store")
        Experiment(specs, traces=traces, profile="small", store=store).run()
        assert main(["store", "ls", "--json", "--store", str(tmp_path / "store")]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == len(specs) * len(traces)
        for entry in entries:
            assert set(entry) >= {"key", "label", "trace_name", "mpki"}

    def test_store_import_cli_merges(self, specs, traces, tmp_path, capsys):
        from repro.cli import main

        store = ResultStore(tmp_path / "source")
        Experiment(
            [specs[0]], traces=traces, profile="small", store=store
        ).run()
        dump = tmp_path / "dump.json"
        assert main([
            "store", "export", "--store", str(tmp_path / "source"),
            "--output", str(dump),
        ]) == 0
        capsys.readouterr()
        assert main([
            "store", "import", str(dump), "--store", str(tmp_path / "merged"),
        ]) == 0
        assert f"imported {len(traces)} record(s)" in capsys.readouterr().err
