"""Tests for the persistent result store (repro.store) and its wiring.

Covers the store lifecycle (hit / miss / corrupt-record recovery),
concurrent writers sharing one store, resume semantics (an interrupted
sweep completed from the store is bit-identical to a cold run), and the
trace-fingerprint keying that keeps regenerated traces from being served
stale results.
"""

from __future__ import annotations

import gzip
import json
import os
import threading
import time

import pytest

from repro.api import Experiment, PredictorSpec
from repro.api.registry import default_registry
from repro.sim.engine import SimulationResult, simulate
from repro.sim.runner import SuiteRunner
from repro.store import ResultStore, profile_content
from repro.trace.branch import conditional_branch
from repro.trace.trace import Trace


def _result(**overrides) -> SimulationResult:
    fields = dict(
        trace_name="trace-a",
        predictor_name="cfg-a",
        conditional_branches=1000,
        mispredictions=37,
        instructions=10000,
        storage_bits=4096,
        per_pc_mispredictions={0x4000: 30, 0x4040: 7},
    )
    fields.update(overrides)
    return SimulationResult(**fields)


def _key(salt: str = "", track: bool = False) -> str:
    return ResultStore.cell_key(
        f'{{"configuration": "cfg-a{salt}"}}', "profile-content", "fingerprint", track
    )


class TestStoreLifecycle:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = _key()
        store.put(key, _result(), trace_fingerprint="fingerprint")
        loaded = store.get(key)
        assert loaded == _result()
        assert isinstance(next(iter(loaded.per_pc_mispredictions)), int)
        assert store.hits == 1 and store.misses == 0

    def test_missing_key_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get(_key()) is None
        assert store.misses == 1
        assert _key() not in store
        assert len(store) == 0

    def test_concurrent_probes_count_every_hit_and_miss(self, tmp_path):
        # The dist coordinator plans admissions outside its scheduler lock
        # while its lease loop re-probes the same store.
        import sys

        store = ResultStore(tmp_path / "store")
        store.put(_key(), _result())

        def probe():
            for _ in range(200):
                store.get(_key())
                store.get(_key("missing"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=probe) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert store.hits == store.misses == 8 * 200

    def test_gzip_records_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store", compress=True)
        key = _key()
        path = store.put(key, _result())
        assert path.name.endswith(".json.gz")
        assert store.get(key) == _result()
        # A plain-format reader of the same directory still finds it.
        assert ResultStore(tmp_path / "store").get(key) == _result()

    def test_corrupt_record_is_removed_and_recomputed(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = _key()
        path = store.put(key, _result())
        path.write_text("{ not json", encoding="utf-8")
        assert store.get(key) is None  # corrupt -> miss
        assert not path.exists()  # ...and removed, so the cell self-heals
        store.put(key, _result())
        assert store.get(key) == _result()

    def test_truncated_gzip_record_is_removed(self, tmp_path):
        store = ResultStore(tmp_path / "store", compress=True)
        key = _key()
        path = store.put(key, _result())
        path.write_bytes(gzip.compress(b'{"version": 1')[:-4])
        assert store.get(key) is None
        assert not path.exists()

    def test_record_under_wrong_key_is_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        source = store.put(_key(), _result())
        impostor = store._paths_for(_key("other"))[0]
        impostor.parent.mkdir(parents=True, exist_ok=True)
        impostor.write_bytes(source.read_bytes())
        assert store.get(_key("other")) is None

    def test_track_per_pc_gets_its_own_cell(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(_key(track=False), _result(per_pc_mispredictions={}))
        assert store.get(_key(track=True)) is None

    def test_cell_key_depends_on_every_component(self):
        base = ResultStore.cell_key("spec", "profile", "trace", False)
        assert ResultStore.cell_key("spec2", "profile", "trace", False) != base
        assert ResultStore.cell_key("spec", "profile2", "trace", False) != base
        assert ResultStore.cell_key("spec", "profile", "trace2", False) != base
        assert ResultStore.cell_key("spec", "profile", "trace", True) != base
        assert ResultStore.cell_key("spec", "profile", "trace", False) == base

    def test_gc_removes_only_old_records(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        old_path = store.put(_key("old"), _result())
        store.put(_key("new"), _result())
        stale = time.time() - 3600
        os.utime(old_path, (stale, stale))
        assert store.gc(older_than_seconds=60) == 1
        assert store.get(_key("old")) is None
        assert store.get(_key("new")) == _result()

    def test_export_and_records_skip_nothing_on_clean_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(_key("1"), _result(), label="one")
        store.put(_key("2"), _result(), label="two")
        exported = store.export()
        assert {record["label"] for record in exported} == {"one", "two"}
        assert all("age_seconds" in record for record in exported)
        assert sorted(store.keys()) == sorted([_key("1"), _key("2")])

    def test_non_json_spec_metadata_does_not_fail_put(self, tmp_path):
        class Odd:
            def __repr__(self):
                return "Odd()"

        store = ResultStore(tmp_path / "store")
        key = _key()
        store.put(key, _result(), spec={"overrides": {"weird": Odd()}})
        assert store.get(key) == _result()
        assert store.get_record(key)["spec"]["overrides"]["weird"] == "Odd()"

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        assert ResultStore.from_env() is None
        monkeypatch.setenv("REPRO_RESULT_STORE", "0")
        assert ResultStore.from_env() is None
        monkeypatch.setenv("REPRO_RESULT_STORE", "off")
        assert ResultStore.from_env() is None
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "env-store"))
        store = ResultStore.from_env()
        assert store is not None and store.root == tmp_path / "env-store"
        # resolve(): False beats the environment, instances pass through,
        # None and True both honour the environment variable.
        assert ResultStore.resolve(False) is None
        assert ResultStore.resolve(store) is store
        assert ResultStore.resolve(None).root == store.root
        assert ResultStore.resolve(True).root == store.root


class TestTraceFingerprint:
    def test_deterministic_and_content_addressed(self):
        records = [conditional_branch(pc=0x10, target=0x20, taken=bool(i % 2))
                   for i in range(16)]
        one = Trace(name="t", records=records)
        two = Trace(name="t", records=records)
        assert one.fingerprint() == two.fingerprint()

    def test_changes_with_content_and_name(self):
        records = [conditional_branch(pc=0x10, target=0x20, taken=True)]
        base = Trace(name="t", records=records)
        renamed = Trace(name="u", records=records)
        assert base.fingerprint() != renamed.fingerprint()
        extended = Trace(name="t", records=records)
        before = extended.fingerprint()
        extended.append(conditional_branch(pc=0x30, target=0x40, taken=False))
        assert extended.fingerprint() != before  # mutation invalidates


def _easy_trace(name: str = "store-kernel", flip: bool = False) -> Trace:
    return Trace(
        name=name,
        records=[
            conditional_branch(pc=0x100 + 16 * (i % 8), target=0x400,
                               taken=(i % 3 == 0) ^ flip)
            for i in range(600)
        ],
    )


class TestRunnerStoreIntegration:
    SPECS = ["tage-gsc", "tage-gsc+sic"]

    def test_fresh_runner_reuses_stored_cells(self, tmp_path):
        trace = _easy_trace()
        first = SuiteRunner([trace], profile="small", store=tmp_path / "store")
        cold = first.run_specs(
            [PredictorSpec.from_named(name, profile="small") for name in self.SPECS]
        )
        assert first.store.misses == 2 and first.store.hits == 0

        warm_runner = SuiteRunner([trace], profile="small", store=tmp_path / "store")
        warm = warm_runner.run_specs(
            [PredictorSpec.from_named(name, profile="small") for name in self.SPECS]
        )
        assert warm_runner.store.hits == 2 and warm_runner.store.misses == 0
        for label in self.SPECS:
            assert (
                warm[label].mpki_by_trace() == cold[label].mpki_by_trace()
            )

    def test_store_results_identical_serial_and_parallel(self, tmp_path):
        trace_a = _easy_trace("a")
        trace_b = _easy_trace("b", flip=True)
        specs = [PredictorSpec.from_named(n, profile="small") for n in self.SPECS]
        serial = SuiteRunner([trace_a, trace_b], profile="small").run_specs(specs)
        parallel = SuiteRunner(
            [trace_a, trace_b], profile="small", max_workers=2,
            store=tmp_path / "store",
        )
        try:
            filled = parallel.run_specs(specs)
            # Every cell was computed and persisted by the pool...
            assert parallel.store.misses == 4
            resumed_runner = SuiteRunner(
                [trace_a, trace_b], profile="small", max_workers=2,
                store=tmp_path / "store",
            )
            resumed = resumed_runner.run_specs(specs)
            # ...and a second parallel runner fills everything from disk
            # without spinning up its pool.
            assert resumed_runner.store.hits == 4
            assert resumed_runner._pool is None
        finally:
            parallel.close()
        for label in self.SPECS:
            mispredictions = [r.mispredictions for r in serial[label].results]
            assert [r.mispredictions for r in filled[label].results] == mispredictions
            assert [r.mispredictions for r in resumed[label].results] == mispredictions

    def test_regenerated_trace_invalidates_store_and_memo(self, tmp_path):
        spec = PredictorSpec.from_named("tage-gsc", profile="small")
        original = _easy_trace()
        runner = SuiteRunner([original], profile="small", store=tmp_path / "store")
        first = runner.run_spec(spec)

        # Same benchmark name, different content -- as after a generator
        # edit invalidated the REPRO_TRACE_CACHE entry and the trace was
        # regenerated.  Neither the persistent store nor a fresh memo may
        # serve the old run.
        regenerated = _easy_trace(flip=True)
        assert regenerated.name == original.name
        assert regenerated.fingerprint() != original.fingerprint()
        runner2 = SuiteRunner([regenerated], profile="small", store=tmp_path / "store")
        second = runner2.run_spec(spec)
        assert runner2.store.hits == 0  # store keyed on content, not name
        assert runner2.store.misses == 1  # the cell was recomputed
        assert second.results[0] == simulate(spec.build(), _easy_trace(flip=True))
        assert first.results[0].trace_name == second.results[0].trace_name

    def test_in_place_mutation_invalidates_memo(self):
        spec = PredictorSpec.from_named("tage-gsc", profile="small")
        trace = _easy_trace()
        runner = SuiteRunner([trace], profile="small")
        first = runner.run_spec(spec)
        for i in range(200):
            trace.append(
                conditional_branch(pc=0x900, target=0x400, taken=bool(i % 2))
            )
        second = runner.run_spec(spec)
        assert second is not first
        assert second.results[0].conditional_branches == 800

    def test_builder_specs_bypass_the_store(self, tmp_path):
        from repro.api import Registry
        from repro.predictors.simple import BimodalPredictor

        registry = Registry.with_defaults()
        registry.register_configuration(
            "custom", lambda profile: BimodalPredictor(entries=64)
        )
        runner = SuiteRunner(
            [_easy_trace()], profile="small", store=tmp_path / "store"
        )
        runner.run_spec(
            PredictorSpec.from_named("custom", profile="small"), registry=registry
        )
        assert len(runner.store) == 0

    def test_concurrent_writers_share_one_store(self, tmp_path):
        """Two concurrent writers (same cells) settle on one clean store."""
        store_dir = tmp_path / "store"
        specs = [PredictorSpec.from_named(n, profile="small") for n in self.SPECS]
        outcomes = {}

        def run(worker: int) -> None:
            runner = SuiteRunner(
                [_easy_trace()], profile="small", store=ResultStore(store_dir)
            )
            outcomes[worker] = runner.run_specs(specs)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(ResultStore(store_dir)) == 2  # one record per cell
        for label in self.SPECS:
            assert (
                outcomes[0][label].mpki_by_trace()
                == outcomes[1][label].mpki_by_trace()
            )
        # every persisted record is readable and self-describing
        reader = ResultStore(store_dir)
        for key in reader.keys():
            assert reader.get(key) is not None


class TestResumeBitIdentical:
    """A sweep killed mid-run and resumed must equal an uninterrupted run."""

    BENCHMARKS = ["SPEC2K6-00"]
    LENGTH = 400

    def _experiment(self, specs, store) -> Experiment:
        return Experiment(
            specs,
            suite="cbp4like",
            benchmarks=self.BENCHMARKS,
            length=self.LENGTH,
            profile="small",
            store=store,
        )

    def test_partial_then_resumed_run_matches_cold_run(self, tmp_path):
        base = PredictorSpec.from_named("tage-gsc+oh", profile="small")
        full = [base] + base.sweep(oh_update_delay=[15, 63])

        # Uninterrupted cold run, no store: the reference output.
        cold = self._experiment(full, store=False).run(baseline=base)

        # "Killed mid-run": only the first two specs completed before the
        # interruption, leaving their cells in the store.
        store_dir = tmp_path / "store"
        self._experiment(full[:2], store=ResultStore(store_dir)).run()

        # Resumed run over the full grid: recomputes only the missing
        # cells and reproduces the cold run byte for byte.
        resumed_store = ResultStore(store_dir)
        resumed = self._experiment(full, store=resumed_store).run(baseline=base)
        assert resumed_store.hits == 2 * len(self.BENCHMARKS)
        assert resumed_store.misses == 1 * len(self.BENCHMARKS)
        assert resumed.to_json() == cold.to_json()
        assert resumed.to_csv() == cold.to_csv()

    def test_store_key_uses_resolved_spec_content(self, tmp_path):
        # A named spec and its resolved explicit-options form describe the
        # same predictor and must share one store cell.
        trace = _easy_trace()
        named = PredictorSpec.from_named("tage-gsc", profile="small")
        resolved = named.resolve()
        store = ResultStore(tmp_path / "store")
        SuiteRunner([trace], profile="small", store=store).run_spec(named)
        reuse = ResultStore(tmp_path / "store")
        run = SuiteRunner([trace], profile="small", store=reuse).run_spec(resolved)
        assert reuse.hits == 1 and reuse.misses == 0
        assert run.results[0].predictor_name == resolved.label

    def test_reregistered_profile_invalidates_cells(self, tmp_path):
        import dataclasses

        trace = _easy_trace()
        registry = default_registry()
        small = registry.resolve_profile("small")
        registry.register_profile("store-prof", small, overwrite=True)
        try:
            spec = PredictorSpec.from_named("tage-gsc", profile="store-prof")
            SuiteRunner(
                [trace], profile="store-prof", store=ResultStore(tmp_path / "s")
            ).run_spec(spec)
            # Same profile *name*, different geometry: cells must miss.
            registry.register_profile(
                "store-prof",
                dataclasses.replace(small, sic_entries=64),
                overwrite=True,
            )
            reuse = ResultStore(tmp_path / "s")
            SuiteRunner(
                [trace], profile="store-prof", store=reuse
            ).run_spec(spec)
            assert reuse.hits == 0 and reuse.misses == 1
        finally:
            registry._profiles.pop("store-prof", None)
            registry._touch()

    def test_profile_content_is_stable(self):
        profile = default_registry().resolve_profile("small")
        assert profile_content(profile) == profile_content(profile)
        other = default_registry().resolve_profile("default")
        assert profile_content(profile) != profile_content(other)

    def test_spec_content_hash_is_label_independent(self):
        plain = PredictorSpec.from_named("tage-gsc", profile="small")
        named = PredictorSpec.from_named("tage-gsc", profile="small", label="mine")
        assert plain.content_hash() == named.content_hash()
        assert plain.content() == named.content()
        other = PredictorSpec.from_named("gehl", profile="small")
        assert plain.content_hash() != other.content_hash()

    def test_simulate_equivalence_of_stored_results(self, tmp_path):
        # The stored record reproduces simulate() exactly, per-PC included.
        trace = _easy_trace()
        spec = PredictorSpec.from_named("tage-gsc", profile="small")
        store = ResultStore(tmp_path / "store")
        runner = SuiteRunner([trace], profile="small", store=store)
        stored = runner.run_spec(spec, track_per_pc=True).results[0]
        direct = simulate(spec.build(), trace, track_per_pc=True)
        assert stored == direct
        reuse_runner = SuiteRunner(
            [trace], profile="small", store=ResultStore(tmp_path / "store")
        )
        reloaded = reuse_runner.run_spec(spec, track_per_pc=True).results[0]
        assert reloaded == direct


class TestStoreCLI:
    def test_sweep_store_resume_and_gc(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = tmp_path / "store"
        argv = [
            "sweep", "--base", "tage-gsc+oh", "--param", "oh_update_delay=7,63",
            "--benchmarks", "SPEC2K6-00", "--length", "300", "--profile", "small",
            "--store", str(store_dir),
        ]
        json1, json2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(argv + ["--json", str(json1)]) == 0
        first = capsys.readouterr()
        assert "3 cell(s)" not in first.err  # nothing to reuse yet
        assert main(argv + ["--resume", "--json", str(json2)]) == 0
        second = capsys.readouterr()
        assert "3 cell(s) reused, 0 computed" in second.err
        assert json1.read_bytes() == json2.read_bytes()

        assert main(["store", "ls", "--store", str(store_dir)]) == 0
        listing = capsys.readouterr()
        assert "3 record(s)" in listing.err
        assert "tage-gsc+oh[oh_update_delay=63]" in listing.out

        export_path = tmp_path / "export.json"
        assert main([
            "store", "export", "--store", str(store_dir),
            "--output", str(export_path),
        ]) == 0
        capsys.readouterr()
        assert len(json.loads(export_path.read_text())) == 3

        assert main([
            "store", "gc", "--older-than", "1d", "--store", str(store_dir)
        ]) == 0
        assert "removed 0 record(s)" in capsys.readouterr().err
        assert main([
            "store", "gc", "--older-than", "0s", "--store", str(store_dir)
        ]) == 0
        assert "removed 3 record(s)" in capsys.readouterr().err
        assert len(ResultStore(store_dir)) == 0

    def test_resume_without_store_is_an_error(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        assert main([
            "sweep", "--base", "tage-gsc", "--resume",
            "--benchmarks", "SPEC2K6-00", "--length", "300",
        ]) == 2
        assert "--resume needs a result store" in capsys.readouterr().err

    def test_store_commands_without_store_are_an_error(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        assert main(["store", "ls"]) == 2
        assert "no result store" in capsys.readouterr().err

    def test_gc_rejects_bad_duration(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "store", "gc", "--older-than", "soon", "--store", str(tmp_path)
        ]) == 2
        assert "invalid duration" in capsys.readouterr().err

    def test_store_honours_environment_variable(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        store_dir = tmp_path / "env-store"
        monkeypatch.setenv("REPRO_RESULT_STORE", str(store_dir))
        argv = [
            "simulate", "--configurations", "tage-gsc",
            "--benchmarks", "SPEC2K6-00", "--length", "300", "--profile", "small",
        ]
        assert main(argv) == 0
        assert "1 computed" in capsys.readouterr().err
        assert main(argv) == 0
        assert "1 cell(s) reused" in capsys.readouterr().err


class TestDurationParsing:
    @pytest.mark.parametrize(
        ("raw", "seconds"),
        [("90", 90.0), ("90s", 90.0), ("45m", 2700.0), ("12h", 43200.0),
         ("30d", 2592000.0), ("2w", 1209600.0), ("1.5h", 5400.0)],
    )
    def test_valid(self, raw, seconds):
        from repro.cli import _parse_duration

        assert _parse_duration(raw) == seconds

    @pytest.mark.parametrize("raw", ["", "soon", "-5s", "h", "5y"])
    def test_invalid(self, raw):
        from repro.cli import _parse_duration

        with pytest.raises(ValueError):
            _parse_duration(raw)
