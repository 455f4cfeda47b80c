"""Batched simulation must be bit-identical to per-cell simulation.

:func:`repro.sim.engine.simulate_many` (and everything layered on it: the
suite runner's batched serial/pool paths, the distributed lease batching)
is a pure execution-shape optimisation -- these tests pin that claim for
every registered configuration, for warm-up and per-PC bookkeeping, and
for the persistent store's cell keys, which must not see batching at all.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.api.experiment import Experiment
from repro.api.registry import default_registry
from repro.api.specs import PredictorSpec
from repro.dist import Coordinator, protocol
from repro.dist.worker import Worker
from repro.predictors.shared_core import plan_groups
from repro.predictors.simple import AlwaysTakenPredictor, BimodalPredictor
from repro.sim.engine import ENGINE_VERSION, simulate, simulate_many
from repro.sim.runner import DEFAULT_BATCH_CELLS, SuiteRunner
from repro.store import ResultStore
from repro.trace.branch import BranchKind
from repro.workloads.suites import generate_suite

LENGTH = 150
BENCHMARKS = ["SPEC2K6-00", "SPEC2K6-12"]


@pytest.fixture(scope="module")
def traces():
    return generate_suite(
        "cbp4like", target_conditional_branches=LENGTH, benchmarks=BENCHMARKS
    )


def _build(name):
    return default_registry().build(name, profile="small")


def _assert_identical(batched, serial):
    assert batched.trace_name == serial.trace_name
    assert batched.predictor_name == serial.predictor_name
    assert batched.mispredictions == serial.mispredictions
    assert batched.conditional_branches == serial.conditional_branches
    assert batched.instructions == serial.instructions
    assert batched.storage_bits == serial.storage_bits
    assert batched.per_pc_mispredictions == serial.per_pc_mispredictions


class TestSimulateMany:
    @pytest.mark.parametrize(
        "warmup,track", [(0.0, False), (0.0, True), (0.3, False), (0.25, True)]
    )
    def test_every_registered_configuration_bit_identical(
        self, traces, warmup, track
    ):
        names = default_registry().names()
        for trace in traces:
            batched = simulate_many(
                [_build(name) for name in names],
                trace,
                warmup_fraction=warmup,
                track_per_pc=track,
            )
            for name, result in zip(names, batched):
                serial = simulate(
                    _build(name), trace, warmup_fraction=warmup, track_per_pc=track
                )
                _assert_identical(result, serial)

    def test_empty_batch(self, traces):
        assert simulate_many([], traces[0]) == []

    def test_single_predictor_matches_simulate(self, traces):
        [batched] = simulate_many([_build("tage-gsc")], traces[0])
        _assert_identical(batched, simulate(_build("tage-gsc"), traces[0]))

    def test_reference_path_forced(self, traces):
        names = ["tage-gsc", "gehl"]
        batched = simulate_many(
            [_build(name) for name in names], traces[0], use_fast_path=False
        )
        for name, result in zip(names, batched):
            _assert_identical(
                result, simulate(_build(name), traces[0], use_fast_path=False)
            )

    def test_mixed_batch_falls_back_per_predictor(self, traces):
        # AlwaysTakenPredictor has no fast-path protocol, so the batch
        # cannot share a traversal -- results must still be identical.
        predictors = [_build("tage-gsc"), AlwaysTakenPredictor(), BimodalPredictor()]
        batched = simulate_many(predictors, traces[0])
        serial = [
            simulate(p, traces[0])
            for p in (_build("tage-gsc"), AlwaysTakenPredictor(), BimodalPredictor())
        ]
        for result, expected in zip(batched, serial):
            assert result.mispredictions == expected.mispredictions
            assert result.conditional_branches == expected.conditional_branches

    def test_fast_path_required_raises_on_mixed_batch(self, traces):
        with pytest.raises(ValueError, match="fast-path"):
            simulate_many(
                [_build("tage-gsc"), AlwaysTakenPredictor()],
                traces[0],
                use_fast_path=True,
            )

    def test_bad_warmup_fraction_rejected(self, traces):
        with pytest.raises(ValueError):
            simulate_many([_build("tage-gsc")], traces[0], warmup_fraction=1.0)


def _sweep_specs():
    base = PredictorSpec.from_named("tage-gsc+oh", profile="small")
    return [base] + base.sweep(oh_update_delay=[7, 15, 31, 63])


def _store_records(store_dir):
    """key -> record, with write-time-only fields dropped."""
    records = {}
    for record in ResultStore(store_dir).records():
        record = dict(record)
        record.pop("created", None)
        record.pop("age_seconds", None)
        record.pop("path", None)
        record.pop("checksum", None)  # covers "created", so write-time too
        records[record["key"]] = record
    return records


class TestBatchedSweepPath:
    def test_engine_version_unchanged_by_batching(self):
        # Batching is a pure-speed change; the store folds ENGINE_VERSION
        # into every cell key, so bumping it here would retire every
        # stored result for no semantic reason.
        assert ENGINE_VERSION == 1

    def test_store_cells_identical_across_batch_modes(self, traces, tmp_path):
        specs = _sweep_specs()
        runs = {}
        for mode, batch in (("batched", DEFAULT_BATCH_CELLS), ("per-cell", 1), ("pairs", 2)):
            store = tmp_path / mode
            runner = SuiteRunner(
                traces, profile="small", store=str(store), batch=batch
            )
            runs[mode] = runner.run_specs(specs)
            runner.close()
        batched = _store_records(tmp_path / "batched")
        per_cell = _store_records(tmp_path / "per-cell")
        pairs = _store_records(tmp_path / "pairs")
        assert batched.keys() == per_cell.keys() == pairs.keys()
        assert len(batched) == len(specs) * len(traces)
        assert batched == per_cell == pairs  # full records, not just keys
        for mode in ("per-cell", "pairs"):
            for label, run in runs[mode].items():
                for ours, theirs in zip(run.results, runs["batched"][label].results):
                    _assert_identical(ours, theirs)

    def test_experiment_exports_identical_across_batch_modes(self, traces):
        specs = _sweep_specs()
        outputs = []
        for batch in (DEFAULT_BATCH_CELLS, 1, 3):
            results = Experiment(
                specs, traces=traces, profile="small", store=False, batch=batch
            ).run(baseline=specs[0])
            outputs.append((results.to_json(), results.to_csv()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_batched_pool_matches_serial(self, traces):
        specs = _sweep_specs()
        serial = SuiteRunner(traces, profile="small").run_specs(specs)
        pooled_runner = SuiteRunner(traces, profile="small", max_workers=2)
        try:
            pooled = pooled_runner.run_specs(specs)
        finally:
            pooled_runner.close()
        for label in serial:
            for ours, theirs in zip(serial[label].results, pooled[label].results):
                _assert_identical(ours, theirs)

    def test_bad_cell_in_batch_surfaces_its_own_error(self, traces):
        good = PredictorSpec.from_named("tage-gsc", profile="small")
        bad = PredictorSpec.from_named(
            "tage-gsc", profile="small", label="bad", nonsense_knob=1
        )
        runner = SuiteRunner([traces[0]], profile="small")
        # The per-cell path raises ValueError for an unknown override;
        # the batched path must surface the same error, not a batch
        # envelope around it.
        with pytest.raises(ValueError, match="nonsense_knob"):
            runner.run_specs([good, bad])

    def test_batch_validation(self, traces):
        with pytest.raises(ValueError):
            SuiteRunner(traces, batch=0)

    @pytest.mark.parametrize("batch", [True, False])
    def test_bool_batch_rejected(self, traces, batch):
        # bool is an int: without the check True would silently mean 1.
        with pytest.raises(TypeError, match="batch=1"):
            SuiteRunner(traces, batch=batch)


def _oh_grid(count=8, profile="small"):
    """``tage-gsc+oh`` grid over a head-only knob: one shared core."""
    delays = [0, 1, 3, 7, 15, 31, 63, 127][:count]
    return PredictorSpec.from_named("tage-gsc+oh", profile=profile).sweep(
        oh_update_delay=delays
    )


class TestSharedCoreGrouping:
    """Shared-core batch grouping: formation rules and bit-identity.

    ``oh_update_delay`` and ``local`` only move head components and the
    trace-only structures they register on the shared state, so such grids
    share one TAGE core; the TAGE/GEHL geometry (the profile) splits it.
    """

    def test_shared_grid_forms_one_group(self):
        predictors = [spec.build() for spec in _oh_grid()]
        plan = plan_groups(predictors)
        assert plan is not None
        groups, solos = plan
        assert solos == []
        assert len(groups) == 1 and groups[0].kind == "tage-gsc"
        assert sorted(groups[0].indices) == list(range(len(predictors)))

    def test_batch_of_one_stays_flat(self):
        # A lone member never pays grouping overhead.
        assert plan_groups([_build("tage-gsc")]) is None

    def test_local_override_groups_bit_identical(self, traces):
        # The local-history table is trace-only state: a +l member joins
        # the global-only member's group and both stay bit-identical.
        specs = [
            PredictorSpec.from_named("tage-gsc+oh", profile="small"),
            PredictorSpec.from_named("tage-gsc+oh", profile="small", local=True),
        ]
        built = [spec.build() for spec in specs]
        assert built[0].shared_core.key == built[1].shared_core.key
        plan = plan_groups(built)
        assert plan is not None
        groups, solos = plan
        assert solos == [] and len(groups) == 1
        for trace in traces:
            batched = simulate_many([spec.build() for spec in specs], trace)
            for result, spec in zip(batched, specs):
                _assert_identical(result, simulate(spec.build(), trace))

    def test_profile_mismatch_must_not_group(self):
        small = PredictorSpec.from_named("tage-gsc+oh", profile="small")
        default = PredictorSpec.from_named("tage-gsc+oh", profile="default")
        assert plan_groups([small.build(), default.build()]) is None

    def test_trained_member_stays_solo(self, traces):
        predictors = [spec.build() for spec in _oh_grid(3)]
        simulate(predictors[1], traces[0])  # no longer pristine
        plan = plan_groups(predictors)
        assert plan is not None
        groups, solos = plan
        assert solos == [1]
        assert sorted(groups[0].indices) == [0, 2]

    def test_mixed_shared_and_foreign_cores(self, traces):
        # A tage-gsc group, a gehl group, and a solo bimodal in one batch.
        specs = _oh_grid(3) + [
            PredictorSpec.from_named("gehl+sic", profile="small"),
            PredictorSpec.from_named("gehl+imli", profile="small"),
        ]
        predictors = [spec.build() for spec in specs] + [BimodalPredictor()]
        plan = plan_groups(predictors)
        assert plan is not None
        groups, solos = plan
        assert sorted(group.kind for group in groups) == ["gehl", "tage-gsc"]
        assert solos == [5]
        batched = simulate_many(predictors, traces[0])
        fresh = [spec.build() for spec in specs] + [BimodalPredictor()]
        for result, predictor in zip(batched, fresh):
            _assert_identical(result, simulate(predictor, traces[0]))

    @pytest.mark.parametrize(
        "warmup,track", [(0.0, False), (0.0, True), (0.3, False), (0.25, True)]
    )
    def test_share_cores_false_bit_identical(self, traces, warmup, track):
        # share_cores=False is the pre-grouping batched path; equality
        # here pins the grouped executor to it bit for bit.
        specs = _oh_grid()
        for trace in traces:
            grouped = simulate_many(
                [spec.build() for spec in specs],
                trace,
                warmup_fraction=warmup,
                track_per_pc=track,
            )
            flat = simulate_many(
                [spec.build() for spec in specs],
                trace,
                warmup_fraction=warmup,
                track_per_pc=track,
                share_cores=False,
            )
            for ours, theirs in zip(grouped, flat):
                _assert_identical(ours, theirs)

    def test_grouped_members_left_untouched(self, traces):
        # The group runs fresh cores/heads; the originals stay pristine
        # (documented contract -- callers must not rely on batch members
        # being trained after a grouped run).
        predictors = [spec.build() for spec in _oh_grid(4)]
        simulate_many(predictors, traces[0])
        assert plan_groups(predictors) is not None  # still pristine

    def test_mixed_grid_store_records_identical(self, traces, tmp_path):
        specs = _oh_grid(3) + [
            PredictorSpec.from_named("gehl+imli", profile="small"),
            PredictorSpec.from_named(
                "tage-gsc+oh", profile="small", label="oh-local", local=True
            ),
        ]
        for mode, batch in (("batched", DEFAULT_BATCH_CELLS), ("per-cell", 1)):
            runner = SuiteRunner(
                traces, profile="small", store=str(tmp_path / mode), batch=batch
            )
            runner.run_specs(specs)
            runner.close()
        batched = _store_records(tmp_path / "batched")
        per_cell = _store_records(tmp_path / "per-cell")
        assert batched.keys() == per_cell.keys()
        assert len(batched) == len(specs) * len(traces)
        assert batched == per_cell


@pytest.fixture(scope="module")
def mixed_traces(mixed_kind):
    base = generate_suite(
        "cbp4like", target_conditional_branches=600, benchmarks=BENCHMARKS
    )
    return [mixed_kind(trace, seed) for seed, trace in enumerate(base)]


class TestMixedKindGrouping:
    """Grouped heads over mixed-kind traces match the reference path.

    ``{tage-gsc,gehl}+imli`` x ``local`` x ``oh_update_delay`` in {0, 63}
    forms one group per base: the heads differ in the local-history tables
    and IMLI-OH outer histories they register on the shared state, and in
    the loop sidecar ``local`` activates.  The oracle is the record-based
    reference path, one predictor at a time.
    """

    SPECS = [
        PredictorSpec.from_named(
            f"{base}+imli", profile="small", local=local, oh_update_delay=delay
        )
        for base in ("tage-gsc", "gehl")
        for local in (False, True)
        for delay in (0, 63)
    ]

    #: Reference-path mispredictions per spec and trace, recorded before the
    #: trace-only state moved onto the shared state (the results must not
    #: move: ENGINE_VERSION is unchanged).
    PINNED = {
        "tage-gsc+imli[local=False,oh_update_delay=0]": [210, 563],
        "tage-gsc+imli[local=False,oh_update_delay=63]": [204, 565],
        "tage-gsc+imli[local=True,oh_update_delay=0]": [218, 532],
        "tage-gsc+imli[local=True,oh_update_delay=63]": [222, 536],
        "gehl+imli[local=False,oh_update_delay=0]": [210, 559],
        "gehl+imli[local=False,oh_update_delay=63]": [198, 564],
        "gehl+imli[local=True,oh_update_delay=0]": [223, 524],
        "gehl+imli[local=True,oh_update_delay=63]": [220, 528],
    }

    def test_reference_path_matches_pinned_counts(self, mixed_traces):
        for spec in self.SPECS:
            counts = [
                simulate(spec.build(), trace, use_fast_path=False).mispredictions
                for trace in mixed_traces
            ]
            assert counts == self.PINNED[spec.label], spec.label

    def test_traces_hold_every_kind(self, mixed_traces):
        for trace in mixed_traces:
            assert {record.kind for record in trace} == set(BranchKind)

    def test_one_group_per_base(self):
        plan = plan_groups([spec.build() for spec in self.SPECS])
        assert plan is not None
        groups, solos = plan
        assert solos == []
        assert sorted((group.kind, len(group.indices)) for group in groups) == [
            ("gehl", 4), ("tage-gsc", 4),
        ]

    @pytest.mark.parametrize("warmup,track", [(0.0, False), (0.25, True)])
    def test_grouped_matches_reference(self, mixed_traces, warmup, track):
        for trace in mixed_traces:
            batched = simulate_many(
                [spec.build() for spec in self.SPECS],
                trace,
                warmup_fraction=warmup,
                track_per_pc=track,
            )
            for result, spec in zip(batched, self.SPECS):
                reference = simulate(
                    spec.build(),
                    trace,
                    warmup_fraction=warmup,
                    track_per_pc=track,
                    use_fast_path=False,
                )
                _assert_identical(result, reference)


class TestPoolTaskLayout:
    """``SuiteRunner._group_pending``: how missing cells become tasks."""

    GRID = [
        PredictorSpec.from_named("tage-gsc+imli", profile="small", base=base, local=local)
        for base in ("tage-gsc", "gehl")
        for local in (False, True)
    ]

    def _layout(self, jobs, use_pool, traces, **options):
        runner = SuiteRunner(traces, profile="small", max_workers=jobs, **options)
        specs = {spec.label: spec for spec in self.GRID}
        sizes = {label: default_registry().resolve_profile("small") for label in specs}
        pending = [(label, index) for index in range(len(traces)) for label in specs]
        return runner._group_pending(pending, use_pool, specs, sizes), specs

    def test_pool_splits_at_core_key_boundaries(self, traces):
        # 3 traces x 4 cells for 2 workers: the fair share alone gives
        # 3 tasks; split at core keys, every task is one whole group.
        three = [traces[0], traces[1], traces[0]]
        tasks, specs = self._layout(2, True, three)
        assert len(tasks) == 6
        for index, labels in tasks:
            assert len(labels) == 2
            keys = {specs[label].build().shared_core.key for label in labels}
            assert len(keys) == 1
        cells = sorted((label, index) for index, labels in tasks for label in labels)
        assert cells == sorted((label, index) for index in range(3) for label in specs)

    def test_pool_without_jobs_splits_for_the_cpu_count(self, traces, monkeypatch):
        # backend="pool" without max_workers sizes the pool by the CPU
        # count, and the fair-share split must use the same worker count.
        import repro.sim.runner as runner_module

        monkeypatch.setattr(runner_module.os, "cpu_count", lambda: 2)
        three = [traces[0], traces[1], traces[0]]
        tasks, _ = self._layout(None, True, three, backend="pool")
        expected, _ = self._layout(2, True, three)
        assert tasks == expected
        assert len(tasks) == 6

    def test_batch_of_one_gives_one_pool_task_per_cell(self, traces):
        three = [traces[0], traces[1], traces[0]]
        tasks, specs = self._layout(2, True, three, batch=1)
        assert len(tasks) == 3 * len(specs)
        assert all(len(labels) == 1 for _, labels in tasks)

    def test_pool_split_stops_near_two_tasks_per_worker(self, traces, monkeypatch):
        # One trace of 8 cells with 8 distinct core keys for 2 workers:
        # halving rounds stop at 4 tasks instead of traversing the trace
        # once per key.
        import repro.sim.runner as runner_module

        monkeypatch.setattr(runner_module, "core_schedule_key", lambda spec, size: spec)
        runner = SuiteRunner(traces, profile="small", max_workers=2)
        labels = [f"cell{n}" for n in range(8)]
        pending = [(label, 0) for label in labels]
        tasks = runner._group_pending(pending, True, {label: label for label in labels}, {
            label: None for label in labels
        })
        assert [(index, len(task)) for index, task in tasks] == [(0, 2)] * 4
        assert sorted(label for _, task in tasks for label in task) == labels

    def test_pool_submits_largest_task_first(self, traces):
        runner = SuiteRunner(traces, profile="small", max_workers=2)
        pending = [("a", 0), ("b", 1), ("c", 1), ("d", 1)]
        tasks = runner._group_pending(pending, True)
        assert [len(labels) for _, labels in tasks] == [2, 1, 1]

    def test_serial_layout_unchanged(self, traces):
        three = [traces[0], traces[1], traces[0]]
        tasks, specs = self._layout(1, False, three)
        assert [(index, len(labels)) for index, labels in tasks] == [(0, 4), (1, 4), (2, 4)]


class TestBatchTimings:
    def test_batched_cells_record_their_share_of_the_wall(self, traces, tmp_path):
        # One 4-cell batch: every record keeps the group wall in phases,
        # carries a quarter of it in cell_phases, and the summaries sum
        # the shares back to one group wall instead of four.
        from repro.obs.timings import summarize_timings

        runner = SuiteRunner(traces[:1], profile="small", store=str(tmp_path / "store"))
        runner.run_specs(_oh_grid(4))
        runner.close()
        lines = [
            json.loads(line)
            for line in (tmp_path / "store" / "timings.jsonl").read_text().splitlines()
        ]
        assert len(lines) == 4
        wall = lines[0]["phases"]["simulate"]
        for line in lines:
            assert line["batch"] == 4
            assert line["phases"]["simulate"] == wall
            assert line["cell_phases"]["simulate"] == pytest.approx(wall / 4)
            assert line["cell_phases"]["store_write"] == line["phases"]["store_write"]
        offline = summarize_timings(tmp_path / "store" / "timings.jsonl")
        assert offline["phases"]["simulate"]["count"] == 4
        assert offline["phases"]["simulate"]["sum"] == pytest.approx(wall)
        summary = json.loads((tmp_path / "store" / "timings_summary.json").read_text())
        assert summary["phases"]["simulate"]["sum"] == pytest.approx(wall)


class TestDistBatching:
    def test_lease_grant_has_trace_affinity(self, traces):
        specs = _sweep_specs()
        with Coordinator() as coordinator:
            job = coordinator.submit(specs, traces)
            state, cells = coordinator._lease(owner=1, max_cells=len(specs))
            assert state == "work"
            # Only same-trace cells travel in one grant, and with five
            # pending specs on the first trace the grant holds all five.
            assert len(cells) == len(specs)
            assert len({cell.trace_fingerprint for cell in cells}) == 1
            assert job.total == len(specs) * len(traces)

    def test_lease_grant_clusters_same_core_cells(self, traces):
        # Admission sorts each trace's cells by shared-core key, so a
        # batched grant hands a worker cells its simulate_many call can
        # actually group -- even when the submitted specs interleave
        # core families.
        gehl = PredictorSpec.from_named("gehl+imli", profile="small")
        tage = _oh_grid(3)
        interleaved = [tage[0], gehl, tage[1], gehl.sweep(imli_sic=[True])[0], tage[2]]
        with Coordinator() as coordinator:
            coordinator.submit(interleaved, traces)
            state, cells = coordinator._lease(owner=1, max_cells=2)
            assert state == "work" and len(cells) == 2
            from repro.sim.runner import core_schedule_key

            keys = {
                core_schedule_key(
                    PredictorSpec.from_dict(cell.spec_dict),
                    protocol.profile_from_payload(cell.profile_payload),
                )
                for cell in cells
            }
            # Both cells of the first grant come from the same core family
            # ("gehl..." sorts ahead of "tage-gsc...").
            assert len(keys) == 1 and "gehl" in next(iter(keys))

    def test_lease_grant_respects_coordinator_cap(self, traces):
        with Coordinator(batch=2) as coordinator:
            coordinator.submit(_sweep_specs(), traces)
            state, cells = coordinator._lease(owner=1, max_cells=64)
            assert state == "work"
            assert len(cells) == 2

    def test_plain_lease_still_single_cell(self, traces):
        with Coordinator() as coordinator:
            coordinator.submit(_sweep_specs(), traces)
            state, cells = coordinator._lease(owner=1)
            assert state == "work"
            assert len(cells) == 1

    def test_batched_grant_scales_lease_deadline(self, traces):
        # An N-cell grant uploads only after ~N cells of shared traversal,
        # so each cell's lease must get N * lease_timeout -- otherwise
        # every batched grant of cells near the single-cell budget would
        # systematically expire and be re-simulated elsewhere.
        import time as _time

        with Coordinator(lease_timeout=10.0) as coordinator:
            coordinator.submit(_sweep_specs(), traces)
            before = _time.monotonic()
            state, cells = coordinator._lease(owner=1, max_cells=5)
            assert state == "work" and len(cells) == 5
            for cell in cells:
                _, deadline = coordinator._leases[cell.cell_id]
                assert deadline - before >= 10.0 * len(cells) - 1.0
            # A plain lease keeps the per-cell timeout.
            state, single = coordinator._lease(owner=2)
            assert state == "work" and len(single) == 1
            _, deadline = coordinator._leases[single[0].cell_id]
            assert deadline - before < 10.0 * 2

    def test_batched_workers_bit_identical_to_serial(self, traces):
        import threading

        specs = _sweep_specs()
        serial = Experiment(specs, traces=traces, profile="small", store=False).run()
        with Coordinator() as coordinator:
            host, port = coordinator.address
            job = coordinator.submit(specs, traces)
            workers = [
                Worker(host, port, name=f"batch-worker-{i}", batch=3)
                for i in range(2)
            ]
            threads = [
                threading.Thread(target=worker.run, daemon=True)
                for worker in workers
            ]
            for thread in threads:
                thread.start()
            assert job.wait(60), "batched workers did not finish the sweep"
            runs = job.runs()
        for spec in specs:
            for ours, theirs in zip(
                runs[spec.label].results, serial.run_for(spec.label).results
            ):
                _assert_identical(ours, theirs)


class TestWorkerTraceCache:
    def _frame_bytes(self, frame):
        buffer = io.BytesIO()
        protocol.write_frame(buffer, frame)
        return buffer.getvalue()

    def test_decoded_traces_are_lru_bounded(self, traces):
        extra = generate_suite(
            "cbp4like", target_conditional_branches=LENGTH,
            benchmarks=["SPEC2K6-04"],
        )
        worker = Worker("127.0.0.1", 1, trace_cache=2)
        all_traces = list(traces) + extra
        for trace in all_traces:
            rfile = io.BytesIO(
                self._frame_bytes(
                    {
                        "type": "trace",
                        "fingerprint": trace.fingerprint(),
                        "data": protocol.encode_trace(trace),
                    }
                )
            )
            worker._trace_for(rfile, io.BytesIO(), {"trace": trace.fingerprint()})
        assert len(worker._traces) == 2
        # Least recently used (the first trace) was evicted ...
        assert all_traces[0].fingerprint() not in worker._traces
        # ... and the survivors are the two most recent.
        assert list(worker._traces) == [
            trace.fingerprint() for trace in all_traces[-2:]
        ]

    def test_cache_hit_refreshes_recency(self, traces):
        worker = Worker("127.0.0.1", 1, trace_cache=2)
        for trace in traces:
            worker._traces[trace.fingerprint()] = trace
        # Touch the older entry through the cache path (no fetch needed).
        worker._trace_for(None, None, {"trace": traces[0].fingerprint()})
        assert list(worker._traces)[-1] == traces[0].fingerprint()

    def test_trace_cache_validation(self):
        with pytest.raises(ValueError):
            Worker("127.0.0.1", 1, trace_cache=0)
        with pytest.raises(ValueError):
            Worker("127.0.0.1", 1, batch=0)


class TestBatchCLI:
    def test_sweep_no_batch_output_identical(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "sweep", "--base", "tage-gsc+oh", "--param", "oh_update_delay=0,63",
            "--benchmarks", "SPEC2K6-00", "--length", "120", "--profile", "small",
        ]
        default_json = tmp_path / "default.json"
        nobatch_json = tmp_path / "nobatch.json"
        assert main(args + ["--json", str(default_json)]) == 0
        assert main(args + ["--no-batch", "--json", str(nobatch_json)]) == 0
        capsys.readouterr()
        assert default_json.read_text() == nobatch_json.read_text()

    def test_batch_flags_are_mutually_exclusive(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--base", "tage-gsc", "--batch", "4", "--no-batch"]
            )

    def test_default_batch_constant_sane(self):
        assert DEFAULT_BATCH_CELLS >= 2
