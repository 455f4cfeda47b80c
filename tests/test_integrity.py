"""Storage integrity and resource-exhaustion hardening tests.

Covers the checksummed result store (every written record carries a
verifying ``sha256:`` checksum; bit rot is detected on load and *never
served*), the ``repro store verify [--repair]`` scrub (corrupt and
truncated records classified, quarantined into ``corrupt/``, and
transparently recomputed by the next sweep), torn-write atomicity (a
writer killed between scratch and rename leaves the old record or none),
the :mod:`repro.common.diskguard` disk-pressure degradation ladder
(telemetry sheds first, durable writes refuse with one actionable error,
low-disk workers stop receiving chunked-trace leases), journal tail
tearing / healing / auto-compaction, and the filesystem chaos points
(``store.write_enospc``, ``store.read_corrupt``, ``journal.torn_tail``,
``spool.enospc``) driving dist sweeps that stay bit-identical to serial
once the faults clear.
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.api.experiment import Experiment
from repro.api.specs import PredictorSpec
from repro.cli import EXIT_CORRUPTION, main
from repro.common import diskguard
from repro.dist import Coordinator, CoordinatorJournal, Worker, chaos, protocol
from repro.dist.worker import _SPOOL_PREFIX, sweep_orphan_spools
from repro.obs.events import EventLog
from repro.obs.http import StatusServer
from repro.obs.timings import TimingLog
from repro.store import ResultStore, result_to_dict
from repro.store.result_store import _classify_record, _record_checksum
from repro.trace.chunked import load_chunked_trace, write_chunked_trace
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


@pytest.fixture(autouse=True)
def _clean_slate(monkeypatch):
    """Chaos disarmed and diskguard on pristine defaults around every test."""
    chaos.configure(None)
    monkeypatch.delenv("REPRO_DISK_HEADROOM", raising=False)
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    diskguard.reset()
    yield
    chaos.configure(None)
    diskguard.reset()


def _fill_store(root, specs, traces, compress=False):
    """Run the sweep into a fresh store at ``root``; returns the store."""
    store = ResultStore(root, compress=compress)
    Experiment(specs, traces=traces, profile="small", store=store).run()
    return store


def _record_files(store):
    return list(store._record_paths())


def _flip_result_value(path):
    """Damage a record's payload while keeping it valid JSON (bit rot)."""
    raw = path.read_bytes()
    data = gzip.decompress(raw) if path.suffix == ".gz" else raw
    record = json.loads(data.decode("utf-8"))
    record["result"]["mispredictions"] = int(record["result"]["mispredictions"]) + 1
    out = json.dumps(record, ensure_ascii=False).encode("utf-8")
    if path.suffix == ".gz":
        out = gzip.compress(out, mtime=0)
    path.write_bytes(out)
    return record["key"]


def _content_view(store):
    """Everything identity-relevant about a store's records, keyed by cell.

    ``created`` (a wall-clock stamp) legitimately differs between two
    runs of the same sweep, so "byte-identical store" means: same keys,
    and per key the same label/spec/trace/result bytes.
    """
    view = {}
    for record in store.records():
        view[record["key"]] = json.dumps(
            {
                field: record[field]
                for field in ("label", "spec", "trace_fingerprint", "result")
            },
            sort_keys=True,
            default=repr,
        )
    return view


class TestChecksummedRecords:
    def test_every_written_record_verifies(self, tmp_path, specs, traces):
        store = _fill_store(tmp_path / "store", specs, traces)
        records = list(store.records())
        assert len(records) == len(specs) * len(traces)
        for record in records:
            assert str(record["checksum"]).startswith("sha256:")
            clean = {
                field: value
                for field, value in record.items()
                if field not in ("path", "age_seconds")
            }
            assert _record_checksum(clean) == record["checksum"]
        report = store.verify()
        assert report["scanned"] == len(records)
        assert report["ok"] == len(records)
        assert report["corrupt"] == report["truncated"] == report["legacy"] == 0
        assert report["problems"] == []

    def test_checksum_survives_export_import_byte_identically(
        self, tmp_path, specs, traces
    ):
        source = _fill_store(tmp_path / "source", specs, traces)
        target = ResultStore(tmp_path / "target")
        for record in source.export():
            target.import_record(record)
        assert target.verify()["ok"] == len(specs) * len(traces)
        for path in _record_files(source):
            twin = target.root / path.relative_to(source.root)
            assert twin.read_bytes() == path.read_bytes()

    def test_legacy_record_without_checksum_still_served(self, tmp_path, specs, traces):
        store = _fill_store(tmp_path / "store", specs, traces)
        path = _record_files(store)[0]
        record = json.loads(path.read_text(encoding="utf-8"))
        del record["checksum"]
        path.write_text(json.dumps(record, ensure_ascii=False), encoding="utf-8")
        assert store.get(record["key"]) is not None  # served normally
        report = store.verify()
        assert report["legacy"] == 1
        assert report["corrupt"] == report["truncated"] == 0

    def test_bit_rotted_record_is_never_served(self, tmp_path, specs, traces):
        store = _fill_store(tmp_path / "store", specs, traces)
        path = _record_files(store)[0]
        key = _flip_result_value(path)
        # Valid JSON, valid schema -- only the checksum knows.
        assert store.get(key) is None
        assert not path.exists()  # dropped so the cell is recomputed

    def test_gzip_records_checksummed_too(self, tmp_path, specs, traces):
        store = _fill_store(tmp_path / "store", specs, traces, compress=True)
        assert store.verify()["ok"] == len(specs) * len(traces)
        path = _record_files(store)[0]
        key = _flip_result_value(path)
        assert store.get(key) is None


class TestVerifyRepairRerun:
    """The acceptance round trip: corrupt -> detect -> quarantine -> re-run."""

    def test_quarantined_cells_are_recomputed_exactly(
        self, tmp_path, specs, traces
    ):
        reference = _fill_store(tmp_path / "reference", specs, traces)
        store = _fill_store(tmp_path / "store", specs, traces)
        files = _record_files(store)
        total = len(specs) * len(traces)
        assert len(files) == total
        _flip_result_value(files[0])
        files[1].write_bytes(files[1].read_bytes()[: files[1].stat().st_size // 2])

        # Detection without repair leaves the files in place.
        report = store.verify(repair=False)
        assert report["corrupt"] == 1
        assert report["truncated"] == 1
        assert report["quarantined"] == 0
        assert files[0].exists() and files[1].exists()

        # Repair quarantines into corrupt/ -- moved, not deleted.
        report = store.verify(repair=True)
        assert report["quarantined"] == 2
        assert not files[0].exists() and not files[1].exists()
        quarantined = sorted((store.root / "corrupt").iterdir())
        assert len(quarantined) == 2
        for problem in report["problems"]:
            assert problem["quarantined_to"]

        # The next sweep recomputes exactly the two quarantined cells.
        rerun_store = ResultStore(store.root)
        Experiment(specs, traces=traces, profile="small", store=rerun_store).run()
        assert rerun_store.misses == 2
        assert rerun_store.hits == total - 2

        # ...and the healed store equals the uncorrupted reference.
        assert store.verify()["ok"] == total
        assert _content_view(store) == _content_view(reference)

    def test_hand_truncated_records_classified(self, tmp_path, specs, traces):
        plain = _fill_store(tmp_path / "plain", specs, traces)
        packed = _fill_store(tmp_path / "packed", specs, traces, compress=True)
        for store in (plain, packed):
            path = _record_files(store)[0]
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            status, detail = _classify_record(path)
            assert status == "truncated", detail
        empty = _record_files(plain)[1]
        empty.write_bytes(b"")
        assert _classify_record(empty) == ("truncated", "empty file")

    def test_cli_verify_exit_codes_and_json(self, tmp_path, specs, traces, capsys):
        store = _fill_store(tmp_path / "store", specs, traces)
        argv = ["store", "verify", "--store", str(store.root)]
        assert main(argv) == 0
        _flip_result_value(_record_files(store)[0])
        capsys.readouterr()  # drain the clean run's human-readable output
        assert main(argv + ["--json"]) == EXIT_CORRUPTION
        report = json.loads(capsys.readouterr().out)
        assert report["corrupt"] == 1
        assert report["quarantined"] == 0
        # --repair still exits 5 (corruption *found*), but quarantines.
        assert main(argv + ["--repair"]) == EXIT_CORRUPTION
        assert any((store.root / "corrupt").iterdir())
        assert main(argv) == 0  # the scrubbed store is clean


class TestTornWrites:
    """A writer killed mid-put leaves the old record or none -- never half."""

    def _kill_during_put(self, root, compress, mode, result, key):
        script = (
            "import json, os, sys\n"
            "from pathlib import Path\n"
            "from repro.store import ResultStore\n"
            "from repro.store.result_store import result_from_dict\n"
            "root, compress, mode, payload, key = sys.argv[1:6]\n"
            "store = ResultStore(root, compress=compress == '1')\n"
            "result = result_from_dict(json.loads(payload))\n"
            "if mode == 'before-rename':\n"
            "    os.replace = lambda *a, **k: os._exit(137)\n"
            "else:\n"
            "    def half(self, data):\n"
            "        with open(self, 'wb') as handle:\n"
            "            handle.write(data[: len(data) // 2])\n"
            "        os._exit(137)\n"
            "    Path.write_bytes = half\n"
            "store.put(key, result)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        process = subprocess.run(
            [
                sys.executable, "-c", script,
                str(root), "1" if compress else "0", mode,
                json.dumps(result_to_dict(result)), key,
            ],
            env=env, capture_output=True, timeout=120,
        )
        assert process.returncode == 137, process.stderr.decode()

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    @pytest.mark.parametrize("mode", ["before-rename", "mid-scratch"])
    def test_killed_writer_leaves_old_record_or_none(
        self, tmp_path, specs, traces, serial_results, compress, mode
    ):
        store = ResultStore(tmp_path / "store", compress=compress)
        spec = specs[0].resolve()
        result = serial_results.run_for(specs[0].label).results[0]
        key = ResultStore.cell_key(
            spec.content(), "small", traces[0].fingerprint()
        )
        # Fresh store: the kill must leave *no* record for the key.
        self._kill_during_put(store.root, compress, mode, result, key)
        assert store.get(key) is None
        assert store.verify()["scanned"] == 0  # no torn record surfaced
        # Seeded store: the kill must leave the *old* bytes untouched.
        path = store.put(key, result)
        before = path.read_bytes()
        self._kill_during_put(store.root, compress, mode, result, key)
        assert path.read_bytes() == before
        # Each killed writer leaked one scratch file; scratches are
        # invisible to reads and verify, and gc sweeps them.
        scratches = [
            candidate
            for candidate in path.parent.iterdir()
            if candidate.name.startswith(".")
        ]
        assert len(scratches) == 2
        assert store.verify()["scanned"] == 1  # the live record only
        future = time.time() + 60
        os.utime(path, (future, future))  # keep the live record past gc
        store.gc(0.0)
        assert not any(
            candidate.name.startswith(".") for candidate in path.parent.iterdir()
        )
        assert store.get(key) is not None  # gc spared the live record


class TestDiskGuard:
    def test_parse_size(self):
        assert diskguard.parse_size("1024") == 1024
        assert diskguard.parse_size("4k") == 4096
        assert diskguard.parse_size("1m") == 1024**2
        assert diskguard.parse_size("2G") == 2 * 1024**3
        assert diskguard.parse_size("1t") == 1024**4
        assert diskguard.parse_size("1.5k") == 1536
        for bad in ("", "x", "-1", "12q"):
            with pytest.raises(ValueError):
                diskguard.parse_size(bad)

    def test_thresholds_override_and_disable(self, monkeypatch):
        monkeypatch.delenv(diskguard.ENV_VAR, raising=False)
        assert diskguard.thresholds() == (
            diskguard.DEFAULT_LOW_BYTES, diskguard.DEFAULT_CRITICAL_BYTES
        )
        monkeypatch.setenv(diskguard.ENV_VAR, "1g,128m")
        assert diskguard.thresholds() == (1024**3, 128 * 1024**2)
        monkeypatch.setenv(diskguard.ENV_VAR, "2g")
        low, critical = diskguard.thresholds()
        assert low == 2 * 1024**3
        assert 0 < critical <= low
        monkeypatch.setenv(diskguard.ENV_VAR, "off")
        assert diskguard.thresholds() is None
        monkeypatch.setenv(diskguard.ENV_VAR, "not-a-size")
        assert diskguard.thresholds() is None  # malformed disables, never fails

    def test_states_forced_by_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(diskguard.ENV_VAR, "1t,1")
        diskguard.reset()
        assert diskguard.state(tmp_path) == "low"
        assert diskguard.is_low(tmp_path) and not diskguard.is_critical(tmp_path)
        diskguard.check_writable(tmp_path)  # low does not refuse writes
        monkeypatch.setenv(diskguard.ENV_VAR, "1t,1t")
        diskguard.reset()
        assert diskguard.state(tmp_path) == "critical"
        with pytest.raises(diskguard.DiskPressureError) as excinfo:
            diskguard.check_writable(tmp_path, what="test write")
        message = str(excinfo.value)
        assert "test write" in message
        assert "REPRO_DISK_HEADROOM" in message  # actionable: names the knob
        monkeypatch.setenv(diskguard.ENV_VAR, "off")
        diskguard.reset()
        assert diskguard.state(tmp_path) == "ok"

    def test_state_probes_unborn_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv(diskguard.ENV_VAR, "1t,1t")
        diskguard.reset()
        assert diskguard.state(tmp_path / "no" / "such" / "dir") == "critical"

    def test_store_write_refuses_under_critical(
        self, tmp_path, specs, traces, serial_results, monkeypatch
    ):
        store = ResultStore(tmp_path / "store")
        result = serial_results.run_for(specs[0].label).results[0]
        monkeypatch.setenv(diskguard.ENV_VAR, "1t,1t")
        diskguard.reset()
        with pytest.raises(diskguard.DiskPressureError, match="store record write"):
            store.put("0" * 64, result)
        assert not (store.root / "objects").exists()  # nothing half-written
        monkeypatch.delenv(diskguard.ENV_VAR)
        diskguard.reset()
        store.put("0" * 64, result)  # pressure cleared: writes resume

    @pytest.mark.parametrize("path", ["serial", "worker", "coordinator"])
    def test_serial_sweep_under_critical_completes_with_visible_shed(
        self, tmp_path, specs, traces, serial_results, monkeypatch, capsys, path
    ):
        # The serial runner, a dist worker's local store and the
        # coordinator's store are all best-effort: under critical
        # pressure the sweep still completes (results in memory), but the
        # shed is counted and warned about once -- never a silently empty
        # store.
        store = ResultStore(tmp_path / "store")

        def _critical():
            monkeypatch.setenv(diskguard.ENV_VAR, "1t,1t")
            diskguard.reset()

        if path == "serial":
            _critical()
            results = Experiment(
                specs, traces=traces, profile="small", store=store
            ).run()
            runs = {spec.label: results.run_for(spec.label) for spec in specs}
        else:
            def _log(message):
                print(message, file=sys.stderr)

            # Work items carry store keys only from a coordinator with a
            # store, so the worker path needs one too; only the path under
            # test logs.
            coordinator = Coordinator(
                store=store if path == "coordinator" else str(tmp_path / "coordinator"),
                log=_log if path == "coordinator" else None,
            )
            address = coordinator.start()
            # Admitted before the pressure: admission itself refuses
            # while the store disk is critical.
            job = coordinator.submit(specs, traces)
            _critical()
            _, threads = _start_workers(
                address, 1,
                store=store if path == "worker" else None,
                log=_log if path == "worker" else None,
            )
            assert job.wait(60), "sweep did not finish under critical disk"
            runs = job.runs()
            _join_workers(coordinator, threads)
        _assert_bit_identical(runs, serial_results, specs)
        total = len(specs) * len(traces)
        assert store.writes_shed == total
        assert not (store.root / "objects").exists()
        warning = capsys.readouterr().err
        assert warning.count("shedding result persists") == 1  # once, not per cell
        assert "REPRO_DISK_HEADROOM" in warning

    def test_journal_append_refuses_under_critical(self, tmp_path, monkeypatch):
        journal = CoordinatorJournal(tmp_path / "journal.jsonl")
        journal.record_admit(1, {})
        monkeypatch.setenv(diskguard.ENV_VAR, "1t,1t")
        diskguard.reset()
        with pytest.raises(
            diskguard.DiskPressureError, match="coordinator journal append"
        ):
            journal.record_admit(2, {})
        monkeypatch.delenv(diskguard.ENV_VAR)
        diskguard.reset()
        journal.record_admit(3, {})
        journal.close()
        assert [r["job"] for r in CoordinatorJournal(journal.path).replay()] == [1, 3]

    def test_event_log_sheds_at_critical_not_low(self, tmp_path, monkeypatch):
        log = EventLog(tmp_path / "events.jsonl")
        monkeypatch.setenv(diskguard.ENV_VAR, "1t,1")
        diskguard.reset()
        log.emit("survives_low")  # low: best-effort writes still land
        monkeypatch.setenv(diskguard.ENV_VAR, "1t,1t")
        diskguard.reset()
        log.emit("shed_at_critical")
        monkeypatch.delenv(diskguard.ENV_VAR)
        diskguard.reset()
        text = log.path.read_text(encoding="utf-8")
        assert "survives_low" in text
        assert "shed_at_critical" not in text

    def test_timing_log_sheds_file_but_keeps_histograms(self, tmp_path, monkeypatch):
        timings = TimingLog(tmp_path / "timings.jsonl", component="test")
        monkeypatch.setenv(diskguard.ENV_VAR, "1t,1t")
        diskguard.reset()
        timings.record(
            backend="serial", label="l", trace="t", phases={"simulate": 0.5}
        )
        assert not timings.path.exists()  # the file write shed...
        assert timings.summary()["phases"]  # ...the in-memory aggregate did not


class TestWorkerSpoolHygiene:
    def test_orphan_spools_swept_by_pid_and_age(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        dead = tmp_path / f"{_SPOOL_PREFIX}999999999-abc"
        dead.mkdir()
        (dead / "chunk").write_bytes(b"x" * 128)
        alive = tmp_path / f"{_SPOOL_PREFIX}{os.getpid()}-self"
        alive.mkdir()
        fresh_unparseable = tmp_path / f"{_SPOOL_PREFIX}legacy"
        fresh_unparseable.mkdir()
        old_unparseable = tmp_path / f"{_SPOOL_PREFIX}ancient"
        old_unparseable.mkdir()
        stale = time.time() - 48 * 3600
        os.utime(old_unparseable, (stale, stale))
        assert sweep_orphan_spools() == 2
        assert not dead.exists()  # pid verifiably dead: removed at once
        assert not old_unparseable.exists()  # unknown pid, stale: removed
        assert alive.exists()  # our own spool: never touched
        assert fresh_unparseable.exists()  # unknown pid, fresh: kept

    def test_worker_spools_are_pid_tagged(self, tmp_path):
        worker = Worker("127.0.0.1", 1, name="tagged")
        trace = generate_suite(
            "cbp4like", target_conditional_branches=LENGTH,
            benchmarks=["SPEC2K6-00"],
        )[0]
        directory = tmp_path / "chunked"
        write_chunked_trace(trace, directory, chunk_branches=200)
        chunked = load_chunked_trace(directory)
        manifest = json.loads(
            (directory / "manifest.json").read_text(encoding="utf-8")
        )
        worker._chunked_trace(chunked.fingerprint(), manifest)
        try:
            assert f"{_SPOOL_PREFIX}{os.getpid()}-" in worker._spool.name
        finally:
            worker._spool.cleanup()


class TestJournalIntegrity:
    def test_torn_tail_chaos_heals_on_next_append(self, tmp_path):
        journal = CoordinatorJournal(tmp_path / "journal.jsonl")
        chaos.configure("journal.torn_tail:1:1")
        with pytest.raises(OSError, match="torn journal append"):
            journal.record_admit(1, {"specs": ["a"]})
        raw = journal.path.read_bytes()
        assert raw and not raw.endswith(b"\n")  # exactly a crash mid-write
        assert journal.replay() == []  # the torn line is skipped
        journal.record_admit(2, {"specs": ["b"]})  # chaos limit spent
        assert [r["job"] for r in journal.replay()] == [2]
        journal.close()

    def test_torn_tail_healed_on_reopen(self, tmp_path):
        first = CoordinatorJournal(tmp_path / "journal.jsonl")
        chaos.configure("journal.torn_tail:1:1")
        with pytest.raises(OSError):
            first.record_admit(1, {})
        first.close()
        chaos.configure(None)
        second = CoordinatorJournal(tmp_path / "journal.jsonl")
        second.record_admit(2, {})
        second.close()
        assert [r["job"] for r in CoordinatorJournal(second.path).replay()] == [2]

    def test_auto_compaction_bounds_the_file(self, tmp_path):
        journal = CoordinatorJournal(
            tmp_path / "journal.jsonl", compact_threshold=512
        )
        payload = {"specs": ["x" * 64]}
        for job_id in range(1, 40):
            journal.record_admit(job_id, payload)
            journal.record_settled(job_id)
        size = journal.path.stat().st_size
        # ~39 admit+settle pairs of ~100 bytes each would be ~8 KiB
        # append-only; compaction kept the file near one threshold.
        assert size < 2 * 512 + 256
        assert journal.replay() == []
        journal.record_admit(99, payload)  # the compacted journal still works
        assert [r["job"] for r in journal.replay()] == [99]
        journal.close()

    def test_compaction_rearms_on_all_live_journal(self, tmp_path):
        journal = CoordinatorJournal(
            tmp_path / "journal.jsonl", compact_threshold=256
        )
        for job_id in range(1, 30):  # nothing ever settles: nothing to drop
            journal.record_admit(job_id, {"specs": ["y" * 32]})
        assert len(journal.replay()) == 29
        journal.close()


class TestStoreChaosPoints:
    def test_write_enospc_leaves_no_partial_record(
        self, tmp_path, specs, serial_results
    ):
        store = ResultStore(tmp_path / "store")
        result = serial_results.run_for(specs[0].label).results[0]
        chaos.configure("store.write_enospc:1:1")
        with pytest.raises(OSError, match="ENOSPC|No space"):
            store.put("a" * 64, result)
        shard = store.root / "objects" / "aa"
        assert not shard.exists() or not any(shard.iterdir())
        path = store.put("a" * 64, result)  # fault cleared: write lands
        assert store.verify()["ok"] == 1
        assert not any(p.name.startswith(".") for p in path.parent.iterdir())

    def test_read_corrupt_recomputes_instead_of_serving(
        self, tmp_path, specs, serial_results
    ):
        store = ResultStore(tmp_path / "store")
        result = serial_results.run_for(specs[0].label).results[0]
        key = "b" * 64
        store.put(key, result)
        chaos.configure("store.read_corrupt:1:1")
        assert store.get(key) is None  # flipped bytes: a miss, never served
        store.put(key, result)
        served = store.get(key)
        assert served is not None
        assert result_to_dict(served) == result_to_dict(result)


def _start_workers(address, count, **kwargs):
    host, port = address
    kwargs.setdefault("reconnect", 5.0)
    workers = [
        Worker(host, port, name=f"integrity-worker-{i}", **kwargs)
        for i in range(count)
    ]
    threads = [
        threading.Thread(target=worker.run, daemon=True) for worker in workers
    ]
    for thread in threads:
        thread.start()
    return workers, threads


def _join_workers(coordinator, threads):
    coordinator.shutdown(graceful=True)
    for thread in threads:
        thread.join(timeout=15)
    assert not any(thread.is_alive() for thread in threads), "worker thread hung"


def _assert_bit_identical(runs, serial_results, specs):
    for spec in specs:
        ours = runs[spec.label].results
        theirs = serial_results.run_for(spec.label).results
        assert len(ours) == len(theirs)
        for mine, ref in zip(ours, theirs):
            assert result_to_dict(mine) == result_to_dict(ref)


class TestDistDiskPressure:
    def test_low_disk_sweep_completes_and_is_visible(
        self, tmp_path, specs, traces, serial_results, monkeypatch
    ):
        # low (not critical) everywhere: store/journal writes still land,
        # telemetry still flows, but every worker advertises low_disk.
        monkeypatch.setenv(diskguard.ENV_VAR, "1t,1")
        diskguard.reset()
        store = ResultStore(tmp_path / "store")
        coordinator = Coordinator(store=store)
        address = coordinator.start()
        job = coordinator.submit(specs, traces)
        _, threads = _start_workers(address, 2)
        assert job.wait(60), "sweep did not finish under low disk"
        runs = job.runs()
        snapshot = coordinator.status_snapshot()
        workers = coordinator.workers_snapshot()
        metrics_text = StatusServer(coordinator, store=store)._render_metrics()
        _join_workers(coordinator, threads)
        _assert_bit_identical(runs, serial_results, specs)
        # The pressure was visible the whole time: snapshots, /metrics
        # gauges and the event log all carried it.
        assert snapshot["workers_low_disk"] == 2
        assert all(row["low_disk"] for row in workers)
        assert "repro_workers_low_disk 2" in metrics_text
        assert "repro_store_disk_low 1" in metrics_text
        assert "repro_store_disk_critical 0" in metrics_text
        events = (store.root / "repro.obs.log").read_text(encoding="utf-8")
        assert "worker_low_disk" in events

    def test_low_disk_worker_denied_chunked_cells(
        self, tmp_path, specs, monkeypatch
    ):
        trace = generate_suite(
            "cbp4like", target_conditional_branches=LENGTH,
            benchmarks=["SPEC2K6-00"],
        )[0]
        directory = tmp_path / "chunked"
        write_chunked_trace(trace, directory, chunk_branches=200)
        chunked = load_chunked_trace(directory)
        store = ResultStore(tmp_path / "store")
        coordinator = Coordinator(store=store)
        address = coordinator.start()
        coordinator.submit(specs, [chunked])
        shed_before = coordinator._metric_lease_shed.value()
        import socket as socket_module

        sock = socket_module.create_connection(address, timeout=10)
        rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
        try:
            protocol.write_frame(
                wfile,
                {
                    "type": "hello", "role": "worker",
                    "protocol": protocol.PROTOCOL_VERSION,
                    "worker": "squeezed", "low_disk": True,
                },
            )
            assert protocol.read_frame(rfile)["type"] == "welcome"
            protocol.write_frame(wfile, {"type": "lease"})
            reply = protocol.read_frame(rfile)
            # Every pending cell is chunked-trace: all withheld from us.
            assert reply["type"] == "wait"
            assert coordinator._metric_lease_shed.value() > shed_before
            assert coordinator.status_snapshot()["workers_low_disk"] == 1
            # The renew heartbeat reports the spool drained: cells flow.
            protocol.write_frame(
                wfile, {"type": "renew", "cells": [], "low_disk": False}
            )
            assert protocol.read_frame(rfile)["type"] == "renewed"
            protocol.write_frame(wfile, {"type": "lease"})
            reply = protocol.read_frame(rfile)
            assert reply["type"] == "work"
            events = (store.root / "repro.obs.log").read_text(encoding="utf-8")
            assert "lease_shed_low_disk" in events
        finally:
            for stream in (wfile, rfile):
                try:
                    stream.close()
                except OSError:
                    pass
            sock.close()
            coordinator.shutdown()

    def test_critical_store_disk_sheds_new_admits(
        self, tmp_path, specs, traces, monkeypatch
    ):
        store = ResultStore(tmp_path / "store")
        coordinator = Coordinator(store=store)
        coordinator.start()
        try:
            monkeypatch.setenv(diskguard.ENV_VAR, "1t,1t")
            diskguard.reset()
            with pytest.raises(ValueError, match="new job admission"):
                coordinator.submit(specs, traces)
            assert coordinator._metric_admits_shed.value() >= 1
            monkeypatch.delenv(diskguard.ENV_VAR)
            diskguard.reset()
            job = coordinator.submit(specs, traces)  # pressure gone: admitted
            assert job.total == len(specs) * len(traces)
        finally:
            coordinator.shutdown()


class TestDistFsFaults:
    """Sweeps complete bit-identically to serial once fs faults clear."""

    def test_spool_enospc_fails_lease_cleanly_then_recovers(
        self, tmp_path, specs, monkeypatch
    ):
        trace = generate_suite(
            "cbp4like", target_conditional_branches=LENGTH,
            benchmarks=["SPEC2K6-00"],
        )[0]
        directory = tmp_path / "chunked"
        write_chunked_trace(trace, directory, chunk_branches=200)
        chunked = load_chunked_trace(directory)
        reference = Experiment(
            specs, traces=[str(directory)], profile="small", store=False
        ).run()
        chaos.configure("spool.enospc:1:1")
        coordinator = Coordinator()
        address = coordinator.start()
        job = coordinator.submit(specs, [chunked])
        _, threads = _start_workers(address, 2, reconnect=10.0)
        assert job.wait(90), "sweep did not finish after spool ENOSPC"
        runs = job.runs()
        _join_workers(coordinator, threads)
        for spec in specs:
            assert [result_to_dict(r) for r in runs[spec.label].results] == [
                result_to_dict(r)
                for r in reference.run_for(spec.label).results
            ]

    def test_sweep_with_torn_journal_is_bit_identical(
        self, tmp_path, specs, traces, serial_results
    ):
        chaos.configure("journal.torn_tail:1:2")
        coordinator = Coordinator(
            store=ResultStore(tmp_path / "store"),
            journal=str(tmp_path / "journal.jsonl"),
        )
        address = coordinator.start()
        job = coordinator.submit(specs, traces)
        _, threads = _start_workers(address, 2)
        assert job.wait(60), "sweep did not finish with a torn journal"
        runs = job.runs()
        _join_workers(coordinator, threads)
        _assert_bit_identical(runs, serial_results, specs)
        # The torn journal never poisons recovery: a restart replays
        # whatever survived and recovers nothing twice.
        second = Coordinator(
            store=ResultStore(tmp_path / "store"),
            journal=str(tmp_path / "journal.jsonl"),
        )
        second.start()
        for recovered in second.recovered_jobs:
            assert recovered.wait(10)  # store-complete: settles instantly
        second.shutdown()

    def test_corrupted_store_cells_recomputed_in_dist_sweep(
        self, tmp_path, specs, traces, serial_results
    ):
        store = _fill_store(tmp_path / "store", specs, traces)
        files = _record_files(store)
        _flip_result_value(files[0])
        files[1].write_bytes(files[1].read_bytes()[: files[1].stat().st_size // 2])
        coordinator = Coordinator(store=ResultStore(store.root))
        address = coordinator.start()
        job = coordinator.submit(specs, traces)
        _, threads = _start_workers(address, 2)
        assert job.wait(60), "sweep did not finish over a damaged store"
        runs = job.runs()
        _join_workers(coordinator, threads)
        # The damaged cells were recomputed, never served.
        _assert_bit_identical(runs, serial_results, specs)
        assert ResultStore(store.root).verify()["corrupt"] == 0
