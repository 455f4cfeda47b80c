"""Tests for the Experiment facade and ResultSet (repro.api.experiment)."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.api import Experiment, PredictorSpec, Registry, ResultSet
from repro.predictors.simple import BimodalPredictor
from repro.sim.runner import SuiteRunner

BENCHMARKS = ["SPEC2K6-00", "SPEC2K6-04"]
LENGTH = 400


def _experiment(jobs: int = 1, **kwargs) -> Experiment:
    return Experiment(
        ["tage-gsc", "tage-gsc+sic"],
        suite="cbp4like",
        benchmarks=BENCHMARKS,
        length=LENGTH,
        profile="small",
        jobs=jobs,
        **kwargs,
    )


class TestExperiment:
    def test_names_are_coerced_to_specs(self):
        experiment = _experiment()
        assert all(isinstance(spec, PredictorSpec) for spec in experiment.specs)
        assert [spec.profile for spec in experiment.specs] == ["small", "small"]

    def test_run_produces_per_trace_results(self):
        results = _experiment().run()
        assert results.labels() == ["tage-gsc", "tage-gsc+sic"]
        assert results.trace_names == BENCHMARKS
        for label in results.labels():
            for name in BENCHMARKS:
                assert results.mpki(label, name) > 0
            assert results.storage_bits(label) > 0

    def test_baseline_is_added_and_deltas_computed(self):
        experiment = Experiment(
            ["tage-gsc+sic"], suite="cbp4like", benchmarks=BENCHMARKS,
            length=LENGTH, profile="small",
        )
        results = experiment.run(baseline="tage-gsc")
        assert results.baseline == "tage-gsc"
        assert results.labels()[0] == "tage-gsc"
        deltas = results.baseline_delta("tage-gsc+sic")
        assert set(deltas) == set(BENCHMARKS) | {"AVERAGE"}
        expected = (
            results.average_mpki("tage-gsc") - results.average_mpki("tage-gsc+sic")
        )
        assert deltas["AVERAGE"] == pytest.approx(expected)

    def test_parallel_run_is_bit_identical_to_serial(self):
        serial = _experiment(jobs=1).run()
        parallel = _experiment(jobs=2).run()
        for label in serial.labels():
            for name in BENCHMARKS:
                assert serial.mpki(label, name) == parallel.mpki(label, name)
            assert serial.storage_bits(label) == parallel.storage_bits(label)

    def test_explicit_traces_skip_suite_generation(self, easy_trace):
        results = Experiment(
            [PredictorSpec.from_named("tage-gsc", profile="small")],
            traces=[easy_trace],
        ).run()
        assert results.trace_names == [easy_trace.name]

    def test_scoped_registry_builders_run_in_process(self, easy_trace):
        registry = Registry.with_defaults()

        @registry.register_configuration("exp-bimodal")
        def _build(profile):
            return BimodalPredictor(entries=64)

        results = Experiment(
            ["exp-bimodal", "tage-gsc"],
            traces=[easy_trace],
            profile="small",
            registry=registry,
            jobs=2,  # builders cannot cross process boundaries; must not crash
        ).run()
        assert results.storage_bits("exp-bimodal") == 64 * 2

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Experiment(
                [
                    PredictorSpec.from_named("tage-gsc", profile="small"),
                    PredictorSpec.from_named("tage-gsc", profile="default"),
                ],
                suite="cbp4like",
            )

    def test_same_spec_twice_is_deduplicated_not_rejected(self):
        experiment = Experiment(
            ["tage-gsc", "tage-gsc"], suite="cbp4like",
            benchmarks=BENCHMARKS[:1], length=LENGTH, profile="small",
        )
        assert len(experiment.run().labels()) == 1

    def test_needs_at_least_one_spec(self):
        with pytest.raises(ValueError):
            Experiment([], suite="cbp4like")

    def test_sweep_through_experiment(self):
        base = PredictorSpec.from_named("tage-gsc+oh", profile="small")
        specs = [base] + base.sweep(oh_update_delay=[15, 63])
        results = Experiment(
            specs, suite="cbp4like", benchmarks=BENCHMARKS[:1],
            length=LENGTH, profile="small",
        ).run(baseline=base)
        assert len(results.labels()) == 3
        assert results.baseline == "tage-gsc+oh"


class TestResultSetExport:
    @pytest.fixture(scope="class")
    def results(self) -> ResultSet:
        return _experiment().run(baseline="tage-gsc")

    def test_report_contains_tables(self, results):
        report = results.report()
        assert "AVERAGE" in report
        assert "MPKI reduction vs tage-gsc" in report

    def test_to_json_round_trips_through_parser(self, results):
        data = json.loads(results.to_json())
        assert data["traces"] == BENCHMARKS
        assert data["baseline"] == "tage-gsc"
        by_label = {entry["label"]: entry for entry in data["results"]}
        assert set(by_label) == {"tage-gsc", "tage-gsc+sic"}
        entry = by_label["tage-gsc+sic"]
        assert entry["spec"] == {"configuration": "tage-gsc+sic", "profile": "small"}
        assert set(entry["mpki"]) == set(BENCHMARKS)
        assert "delta_vs_baseline" in entry
        # the embedded spec rebuilds the same predictor
        spec = PredictorSpec.from_dict(entry["spec"])
        assert spec.build().storage_bits() == entry["storage_bits"]

    def test_to_csv_parses_and_matches_mpki(self, results):
        rows = list(csv.reader(io.StringIO(results.to_csv())))
        header = rows[0]
        assert header == ["benchmark", "tage-gsc", "tage-gsc+sic"]
        body = {row[0]: row[1:] for row in rows[1:]}
        assert set(body) == set(BENCHMARKS) | {"AVERAGE", "storage_kbits"}
        for name in BENCHMARKS:
            assert float(body[name][0]) == pytest.approx(results.mpki("tage-gsc", name))

    def test_unknown_label_rejected(self, results):
        with pytest.raises(KeyError):
            results.run_for("no-such-label")
        with pytest.raises(KeyError):
            results.mpki("no-such-label", BENCHMARKS[0])


class TestRunnerSpecPath:
    def test_run_spec_shares_cache_with_run(self, easy_trace, local_trace, replays):
        runner = SuiteRunner([easy_trace, local_trace], profile="small", store=False)
        by_name = runner.run("tage-gsc")
        by_spec = runner.run_spec(PredictorSpec.from_named("tage-gsc", profile="small"))
        assert replays == [1, 1]  # one replay per trace, none for the spec
        assert by_spec.results == by_name.results

    def test_profiles_do_not_collide_in_the_cache(self, easy_trace):
        runner = SuiteRunner([easy_trace], profile="small")
        small = runner.run_spec(PredictorSpec.from_named("tage-gsc", profile="small"))
        default = runner.run_spec(
            PredictorSpec.from_named("tage-gsc", profile="default")
        )
        assert small is not default
        assert small.storage_bits < default.storage_bits

    def test_worker_entry_point_needs_no_parent_registrations(self, easy_trace):
        # Simulates a spawn-start worker: the profile name below is not
        # registered anywhere; the parent-resolved SizeProfile instance
        # shipped alongside the spec dict must be enough to build.
        import dataclasses

        from repro.api import default_registry
        from repro.sim.engine import simulate
        from repro.sim.runner import _build_spec_predictor

        sizes = dataclasses.replace(
            default_registry().resolve_profile("small"), sic_entries=64
        )
        spec = PredictorSpec.from_named(
            "tage-gsc+sic", profile="only-in-parent"
        ).resolve()
        result = simulate(_build_spec_predictor(spec.to_dict(), sizes), easy_trace)
        assert result.predictor_name == "tage-gsc+sic"
        assert result.storage_bits < default_registry().build(
            "tage-gsc+sic", profile="small"
        ).storage_bits()

    def test_registry_mutation_invalidates_cache(self, easy_trace, replays):
        from repro.api import CompositeOptions, default_registry, register_configuration

        runner = SuiteRunner([easy_trace], profile="small", store=False)
        register_configuration("mut-cfg", CompositeOptions(base="tage-gsc"))
        try:
            spec = PredictorSpec.from_named("mut-cfg", profile="small")
            first = runner.run_spec(spec)
            register_configuration(
                "mut-cfg", CompositeOptions(base="gehl", imli_sic=True),
                overwrite=True,
            )
            second = runner.run_spec(spec)
            assert replays == [1, 1]  # the new definition replays
            assert second.storage_bits != first.storage_bits
            # Restoring the old definition finds its cell again.
            register_configuration(
                "mut-cfg", CompositeOptions(base="tage-gsc"), overwrite=True
            )
            assert runner.run_spec(spec).results == first.results
            assert replays == [1, 1]
        finally:
            default_registry().unregister("mut-cfg")

    def test_additive_registration_keeps_cache_warm(self, easy_trace, replays):
        from repro.api import CompositeOptions, default_registry, register_configuration

        runner = SuiteRunner([easy_trace], profile="small", store=False)
        spec = PredictorSpec.from_named("tage-gsc", profile="small")
        first = runner.run_spec(spec)
        register_configuration("brand-new-cfg", CompositeOptions(base="gehl"))
        try:
            assert runner.run_spec(spec).results == first.results
            assert replays == [1]
        finally:
            default_registry().unregister("brand-new-cfg")

    def test_run_specs_rejects_label_collisions(self, easy_trace):
        from repro.api import CompositeOptions

        runner = SuiteRunner([easy_trace], profile="small")
        with pytest.raises(ValueError):
            runner.run_specs([
                PredictorSpec(base="tage-gsc", profile="small", name="x"),
                PredictorSpec(
                    base=CompositeOptions(base="gehl"), profile="small", name="x"
                ),
            ])

    def test_from_named_label_keyword(self, easy_trace):
        spec = PredictorSpec.from_named("tage-gsc", profile="small", label="mine")
        assert spec.label == "mine"
        assert spec.base == "tage-gsc"

    def test_alternating_registries_stay_memoised(self, easy_trace, replays):
        runner = SuiteRunner([easy_trace], profile="small", store=False)
        spec = PredictorSpec.from_named("tage-gsc", profile="small")
        scoped = Registry.with_defaults()
        via_default = runner.run_spec(spec)
        # The scoped registry resolves the name to the same content, so
        # every run after the first is a memo hit.
        assert runner.run_spec(spec, registry=scoped).results == via_default.results
        assert runner.run_spec(spec).results == via_default.results
        assert runner.run_spec(spec, registry=scoped).results == via_default.results
        assert replays == [1]

    def test_equal_content_labels_share_one_replay(self, easy_trace, replays):
        runner = SuiteRunner([easy_trace], profile="small", store=False)
        first = runner.run_spec(PredictorSpec.from_named("tage-gsc", profile="small"))
        mine = runner.run_spec(
            PredictorSpec.from_named("tage-gsc", profile="small", label="mine")
        )
        assert replays == [1]
        assert mine.configuration == "mine"
        assert mine.results[0].predictor_name == "mine"
        assert first.results[0].predictor_name == "tage-gsc"  # not renamed
        assert mine.results[0].mispredictions == first.results[0].mispredictions

    def test_named_and_resolved_options_share_one_replay(self, easy_trace, replays):
        from repro.api import CompositeOptions

        runner = SuiteRunner([easy_trace], profile="small", store=False)
        named = PredictorSpec.from_named("tage-gsc", profile="small")
        resolved = named.resolve()
        assert isinstance(resolved.base, CompositeOptions)
        options = PredictorSpec(base=resolved.base, profile="small", name="opts")
        by_name = runner.run_spec(named)
        by_options = runner.run_spec(options)
        assert replays == [1]
        assert by_options.results[0].predictor_name == "opts"
        assert by_options.results[0].mispredictions == by_name.results[0].mispredictions

    def test_builder_spec_replays_on_every_call(self, easy_trace, replays):
        registry = Registry.with_defaults()
        registry.register_configuration(
            "every-call", lambda profile: BimodalPredictor(entries=64)
        )
        runner = SuiteRunner([easy_trace], profile="small", store=False)
        spec = PredictorSpec.from_named("every-call", profile="small")
        first = runner.run_spec(spec, registry=registry)
        second = runner.run_spec(spec, registry=registry)
        assert replays == [1, 1]  # no content key, so no memo entry
        assert second.results == first.results

    def test_different_builders_do_not_share_cache(self, easy_trace):
        runner = SuiteRunner([easy_trace], profile="small")
        spec = PredictorSpec.from_named("custom", profile="small")
        runs = []
        for entries in (64, 128):
            registry = Registry.with_defaults()
            registry.register_configuration(
                "custom", lambda profile, entries=entries: BimodalPredictor(entries=entries)
            )
            runs.append(runner.run_spec(spec, registry=registry))
        small, large = runs
        assert large.storage_bits == 2 * small.storage_bits

    def test_renamed_spec_does_not_poison_name_cache(self, easy_trace):
        from repro.api import CompositeOptions

        runner = SuiteRunner([easy_trace], profile="small")
        imposter = PredictorSpec(
            base=CompositeOptions(base="gehl"), profile="small", name="tage-gsc"
        )
        imposter_run = runner.run_spec(imposter)
        real_run = runner.run("tage-gsc")
        assert real_run is not imposter_run
        assert real_run.storage_bits != imposter_run.storage_bits

    def test_baseline_label_collision_rejected(self, easy_trace):
        from repro.api import CompositeOptions

        experiment = Experiment(
            ["tage-gsc"], traces=[easy_trace], profile="small"
        )
        imposter = PredictorSpec(
            base=CompositeOptions(base="gehl"), profile="small", name="tage-gsc"
        )
        with pytest.raises(ValueError):
            experiment.run(baseline=imposter)

    def test_scoped_registry_does_not_hit_default_cache(self, easy_trace):
        from repro.api import CompositeOptions

        registry = Registry.with_defaults()
        registry.register_configuration(
            "tage-gsc", CompositeOptions(base="tage-gsc", imli_sic=True),
            overwrite=True,
        )
        runner = SuiteRunner([easy_trace], profile="small")
        spec = PredictorSpec.from_named("tage-gsc", profile="small")
        default_run = runner.run_spec(spec)
        scoped_run = runner.run_spec(spec, registry=registry)
        assert scoped_run is not default_run
        assert scoped_run.storage_bits > default_run.storage_bits  # +sic tables

    def test_run_specs_batch_parallel_matches_serial(self, easy_trace, local_trace):
        specs = [
            PredictorSpec.from_named(name, profile="small")
            for name in ("tage-gsc", "tage-gsc+sic", "gehl")
        ]
        serial_runner = SuiteRunner([easy_trace, local_trace], profile="small")
        serial = serial_runner.run_specs(specs)
        parallel_runner = SuiteRunner(
            [easy_trace, local_trace], profile="small", max_workers=2
        )
        try:
            parallel = parallel_runner.run_specs(specs)
        finally:
            parallel_runner.close()
        assert set(serial) == set(parallel)
        for label in serial:
            assert [r.mispredictions for r in serial[label].results] == [
                r.mispredictions for r in parallel[label].results
            ]

    def test_scoped_registry_configuration_runs_on_the_pool(
        self, easy_trace, local_trace
    ):
        # A resolved options-based spec is self-contained, so a
        # configuration and a profile that only a scoped registry knows
        # still fan out over the pool, bit-identical to a serial run.
        import dataclasses

        from repro.api import CompositeOptions
        from repro.store import result_to_dict

        registry = Registry.with_defaults()
        registry.register_configuration(
            "scoped-gehl-imli",
            CompositeOptions(base="gehl", imli_sic=True, imli_oh=True),
        )
        registry.register_profile(
            "scoped-small",
            dataclasses.replace(registry.resolve_profile("small"), sic_entries=64),
        )
        spec = PredictorSpec.from_named("scoped-gehl-imli", profile="scoped-small")
        traces = [easy_trace, local_trace]
        pooled = Experiment([spec], traces=traces, registry=registry, jobs=2, store=False)
        try:
            parallel = pooled.run().run_for(spec.label).results
            assert pooled._runner._pool is not None
        finally:
            pooled.close()
        serial = Experiment(
            [spec], traces=traces, registry=registry, store=False
        ).run().run_for(spec.label).results
        assert [result_to_dict(result) for result in parallel] == [
            result_to_dict(result) for result in serial
        ]

    def test_builder_spec_shares_a_serial_task(self, easy_trace, monkeypatch):
        # A builder-based spec joins the same in-process task as the
        # options-based specs on its trace, and still gets the result of
        # its own simulate().
        import repro.sim.runner as runner_module
        from repro.sim.engine import simulate
        from repro.store import result_to_dict

        registry = Registry.with_defaults()

        @registry.register_configuration("task-bimodal")
        def _build(profile):
            return BimodalPredictor(entries=64)

        tasks = []
        batch = runner_module._simulate_spec_batch

        def _recording(builders, trace, track_per_pc):
            tasks.append(len(builders))
            return batch(builders, trace, track_per_pc)

        monkeypatch.setattr(runner_module, "_simulate_spec_batch", _recording)
        specs = [
            PredictorSpec.from_named(name, profile="small")
            for name in ("tage-gsc", "task-bimodal", "gehl")
        ]
        runs = SuiteRunner([easy_trace], profile="small", store=False).run_specs(
            specs, registry=registry
        )
        assert tasks == [3]
        for spec in specs:
            alone = simulate(spec.build(registry), easy_trace)
            assert result_to_dict(runs[spec.label].results[0]) == result_to_dict(alone)


class TestProgressAccounting:
    """The runner's ``progress`` hook counts every cell exactly once."""

    def _collect(self):
        seen = []
        return seen, lambda done, total: seen.append((done, total))

    def test_serial_run_counts_every_cell(self, easy_trace, local_trace):
        seen, hook = self._collect()
        specs = [
            PredictorSpec.from_named(name, profile="small")
            for name in ("tage-gsc", "gehl")
        ]
        runner = SuiteRunner([easy_trace, local_trace], profile="small", progress=hook)
        runner.run_specs(specs)
        assert seen[0] == (0, 4)
        assert seen[-1] == (4, 4)
        assert [done for done, _ in seen] == sorted(done for done, _ in seen)

    def test_memoised_rerun_jumps_to_total(self, easy_trace):
        seen, hook = self._collect()
        spec = PredictorSpec.from_named("tage-gsc", profile="small")
        runner = SuiteRunner([easy_trace], profile="small", progress=hook)
        runner.run_specs([spec])
        seen.clear()
        runner.run_specs([spec])  # fully memoised
        assert seen == [(0, 1), (1, 1)]

    def test_store_hits_count_as_completed(self, easy_trace, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        spec = PredictorSpec.from_named("tage-gsc", profile="small")
        SuiteRunner([easy_trace], profile="small", store=store).run_spec(spec)
        seen, hook = self._collect()
        resumed = SuiteRunner(
            [easy_trace], profile="small", store=store, progress=hook
        )
        resumed.run_spec(spec)
        assert seen[-1] == (1, 1)
        assert store.hits == 1

    def test_pool_batch_counts_every_cell(self, easy_trace, local_trace):
        seen, hook = self._collect()
        specs = [
            PredictorSpec.from_named(name, profile="small")
            for name in ("tage-gsc", "gehl")
        ]
        runner = SuiteRunner(
            [easy_trace, local_trace], profile="small", max_workers=2, progress=hook
        )
        try:
            runner.run_specs(specs)
        finally:
            runner.close()
        assert seen[-1] == (4, 4)


class TestBackendSelection:
    def test_unknown_backend_string_is_rejected(self, easy_trace):
        with pytest.raises(ValueError):
            SuiteRunner([easy_trace], backend="quantum")

    def test_backend_object_needs_execute(self, easy_trace):
        with pytest.raises(TypeError):
            SuiteRunner([easy_trace], backend=object())

    def test_serial_backend_forces_in_process(self, easy_trace, local_trace):
        # With backend="serial" the pool is never created even though
        # max_workers asks for one.
        runner = SuiteRunner(
            [easy_trace, local_trace], profile="small",
            max_workers=4, backend="serial",
        )
        specs = [
            PredictorSpec.from_named(name, profile="small")
            for name in ("tage-gsc", "gehl")
        ]
        runner.run_specs(specs)
        assert runner._pool is None

    def test_custom_backend_object_runs_cells(self, easy_trace, local_trace):
        from repro.sim.engine import simulate
        from repro.sim.runner import _build_spec_predictor

        class InlineBackend:
            """Executes the runner's batch in-process (test double)."""

            name = "inline"
            calls = 0

            def execute(self, specs, sizes, traces, pending,
                        track_per_pc=False, progress=None):
                type(self).calls += 1
                results = {}
                for label, index in pending:
                    results[(label, index)] = simulate(
                        _build_spec_predictor(specs[label].to_dict(), sizes[label]),
                        traces[index], track_per_pc=track_per_pc,
                    )
                if progress is not None:
                    progress(len(pending), len(pending))
                return results

        specs = [
            PredictorSpec.from_named(name, profile="small")
            for name in ("tage-gsc", "gehl")
        ]
        serial = SuiteRunner([easy_trace, local_trace], profile="small").run_specs(specs)
        backend_runner = SuiteRunner(
            [easy_trace, local_trace], profile="small", backend=InlineBackend()
        )
        via_backend = backend_runner.run_specs(specs)
        assert InlineBackend.calls == 1
        for label in serial:
            assert [r.mispredictions for r in serial[label].results] == [
                r.mispredictions for r in via_backend[label].results
            ]
