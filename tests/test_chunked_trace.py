"""Chunked trace layout: streaming/in-memory bit-identity and fingerprints.

The load-bearing guarantee of :mod:`repro.trace.chunked` is that a trace
streamed chunk by chunk through the engine is **bit-identical** to the
same trace loaded monolithically -- same results, same fingerprints, and
therefore the same :class:`~repro.store.ResultStore` cell keys and
record bytes.  These tests pin that for every registered configuration,
for ``simulate`` and ``simulate_many``, with per-PC maps built across
chunk boundaries.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.api.registry import default_registry
from repro.api.specs import PredictorSpec
from repro.sim.engine import simulate, simulate_many
from repro.store import ResultStore, profile_content, result_to_dict
from repro.trace.branch import BranchRecord
from repro.trace.chunked import (
    ChunkedTrace,
    ChunkedTraceWriter,
    chunked_fingerprint,
    is_chunked_dir,
    load_any_trace,
    load_chunked_trace,
    validate_manifest,
    write_chunked_trace,
)
from repro.trace.trace import save_trace, save_trace_binary
from repro.workloads.suites import generate_suite

#: Small but non-trivial: several hundred conditional branches so every
#: predictor does real work, chunked finely so many boundaries land in
#: interesting places.
LENGTH = 400
CHUNK = 150


@pytest.fixture(scope="module")
def trace():
    return generate_suite(
        "cbp4like", target_conditional_branches=LENGTH, benchmarks=["SPEC2K6-00"]
    )[0]


@pytest.fixture(scope="module")
def chunked(trace, tmp_path_factory):
    directory = tmp_path_factory.mktemp("chunked") / "trace"
    write_chunked_trace(trace, directory, chunk_branches=CHUNK)
    return load_chunked_trace(directory)


def _predictor(name):
    return PredictorSpec.from_named(name, profile="small").resolve().build()


# --------------------------------------------------------------------- #
# Layout and identity
# --------------------------------------------------------------------- #


class TestLayout:
    def test_round_trip_records(self, trace, chunked):
        assert len(chunked) == len(trace)
        assert chunked.name == trace.name
        assert chunked.conditional_count == trace.conditional_count
        assert chunked.instruction_count == trace.instruction_count
        assert chunked.to_trace().columns() == trace.columns()

    def test_chunk_geometry(self, trace, chunked):
        expected = (len(trace) + CHUNK - 1) // CHUNK
        assert chunked.chunk_count == expected
        assert sum(len(chunked.chunk(i)) for i in range(expected)) == len(trace)

    def test_manifest_fingerprint_matches_monolithic(self, trace, chunked):
        # The manifest fingerprint is the chunked trace's identity; it is
        # derived from the chunk fingerprints, not equal to the monolithic
        # trace fingerprint (chunk geometry is part of the identity).
        manifest = chunked.manifest
        assert manifest["fingerprint"] == chunked_fingerprint(
            trace.name, [entry["fingerprint"] for entry in manifest["chunks"]]
        )

    def test_different_geometry_different_fingerprint(self, trace, tmp_path):
        write_chunked_trace(trace, tmp_path / "a", chunk_branches=CHUNK)
        write_chunked_trace(trace, tmp_path / "b", chunk_branches=CHUNK + 17)
        a = load_chunked_trace(tmp_path / "a")
        b = load_chunked_trace(tmp_path / "b")
        assert a.fingerprint() != b.fingerprint()
        assert a.to_trace().columns() == b.to_trace().columns()

    def test_validate_detects_corruption(self, trace, tmp_path):
        directory = tmp_path / "corrupt"
        write_chunked_trace(trace, directory, chunk_branches=CHUNK)
        loaded = load_chunked_trace(directory)
        loaded.validate()  # pristine layout passes
        victim = loaded.chunk_path(1)
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            load_chunked_trace(directory).validate()

    def test_validate_manifest_rejects_unsafe_chunk_files(self, chunked):
        manifest = json.loads(json.dumps(chunked.manifest))
        manifest["chunks"][0]["file"] = "../escape.rpt"
        with pytest.raises(ValueError):
            validate_manifest(manifest)

    def test_empty_trace_still_has_one_chunk(self, tmp_path):
        writer = ChunkedTraceWriter(tmp_path / "empty", name="empty")
        writer.close()
        loaded = load_chunked_trace(tmp_path / "empty")
        assert len(loaded) == 0
        assert loaded.chunk_count == 1

    def test_writer_extend_columns_matches_bulk(self, trace, tmp_path):
        writer = ChunkedTraceWriter(
            tmp_path / "appended", name=trace.name, chunk_branches=CHUNK
        )
        # Uneven batches: some inside a chunk, some across one or more
        # chunk boundaries, and an empty one.
        cuts = [0, 1, 1, 40, CHUNK, CHUNK + 7, 3 * CHUNK + 2, len(trace)]
        for start, stop in zip(cuts, cuts[1:]):
            writer.extend_columns(*(column[start:stop] for column in trace.columns()))
        writer.close()
        write_chunked_trace(trace, tmp_path / "bulk", chunk_branches=CHUNK)
        appended = load_chunked_trace(tmp_path / "appended")
        bulk = load_chunked_trace(tmp_path / "bulk")
        assert appended.fingerprint() == bulk.fingerprint()
        assert appended.manifest["chunks"] == bulk.manifest["chunks"]
        assert appended.to_trace().columns() == trace.columns()

    def test_load_any_trace(self, trace, chunked, tmp_path):
        assert is_chunked_dir(chunked.directory)
        assert isinstance(load_any_trace(chunked.directory), ChunkedTrace)
        save_trace(trace, tmp_path / "t.txt")
        save_trace_binary(trace, tmp_path / "t.bin")
        for path in (tmp_path / "t.txt", tmp_path / "t.bin"):
            loaded = load_any_trace(path)
            assert loaded.columns() == trace.columns()
        with pytest.raises(ValueError):
            load_any_trace(tmp_path)  # a directory without a manifest

    def test_pickle_drops_cache_and_survives(self, chunked):
        chunked.chunk(0)
        clone = pickle.loads(pickle.dumps(chunked))
        assert clone.fingerprint() == chunked.fingerprint()
        assert clone.to_trace().columns() == chunked.to_trace().columns()

    def test_bounded_decoded_cache(self, chunked):
        for i in range(chunked.chunk_count):
            chunked.chunk(i)
        assert len(chunked._cache) <= 2  # default cache_chunks


# --------------------------------------------------------------------- #
# Streaming vs in-memory bit-identity (satellite: every configuration)
# --------------------------------------------------------------------- #


def _result_key(result):
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestBitIdentity:
    @pytest.mark.parametrize("name", default_registry().names())
    def test_simulate_every_configuration(self, name, trace, chunked):
        streamed = simulate(_predictor(name), chunked, track_per_pc=True)
        in_memory = simulate(_predictor(name), trace, track_per_pc=True)
        assert _result_key(streamed) == _result_key(in_memory)

    def test_per_pc_map_across_chunk_boundaries(self, trace, chunked):
        # CHUNK=150 over ~LENGTH conditionals puts a static branch's
        # mispredictions in several chunks; the streamed map must hold the
        # reference loop's counts with its keys in the same order
        # (_result_key sorts them, so compare the items directly).
        streamed = simulate(_predictor("tage-gsc"), chunked, track_per_pc=True)
        reference = simulate(
            _predictor("tage-gsc"), trace, track_per_pc=True, use_fast_path=False
        )
        assert len(streamed.per_pc_mispredictions) > 1
        assert list(streamed.per_pc_mispredictions.items()) == list(
            reference.per_pc_mispredictions.items()
        )

    @pytest.mark.parametrize("track_per_pc", [False, True])
    def test_simulate_many(self, track_per_pc, trace, chunked):
        names = ["tage-gsc", "tage-gsc+imli", "gehl"]
        streamed = simulate_many(
            [_predictor(name) for name in names], chunked, track_per_pc=track_per_pc
        )
        in_memory = simulate_many(
            [_predictor(name) for name in names], trace, track_per_pc=track_per_pc
        )
        assert [_result_key(r) for r in streamed] == [
            _result_key(r) for r in in_memory
        ]

    def test_store_cell_keys_and_record_bytes(self, trace, chunked, tmp_path):
        """The store contract: a chunked trace seeded from a monolithic one
        yields the same cell keys and byte-identical record files when the
        decoded whole (``to_trace``) is what simulation consumes -- and
        streaming produces the same record content under the manifest key.
        """
        registry = default_registry()
        spec = PredictorSpec.from_named("tage-gsc", profile="small").resolve()
        sizes = registry.resolve_profile(spec.profile)
        key_chunked = ResultStore.cell_key(
            spec.content(), profile_content(sizes), chunked.fingerprint(), False
        )
        key_decoded = ResultStore.cell_key(
            spec.content(),
            profile_content(sizes),
            chunked.to_trace().fingerprint(),
            False,
        )
        # to_trace() keeps the manifest fingerprint, so both addressing
        # modes hit the same cell.
        assert key_chunked == key_decoded
        store_a = ResultStore(tmp_path / "a")
        store_b = ResultStore(tmp_path / "b")
        streamed = simulate(spec.build(), chunked)
        decoded = simulate(spec.build(), chunked.to_trace())
        store_a.put(key_chunked, streamed, label=spec.label,
                    trace_fingerprint=chunked.fingerprint())
        store_b.put(key_decoded, decoded, label=spec.label,
                    trace_fingerprint=chunked.to_trace().fingerprint())
        [record_a] = [p for p in (tmp_path / "a").rglob("*") if p.is_file()]
        [record_b] = [p for p in (tmp_path / "b").rglob("*") if p.is_file()]
        assert record_a.name == record_b.name
        doc_a = json.loads(record_a.read_bytes())
        doc_b = json.loads(record_b.read_bytes())
        doc_a.pop("created", None)
        doc_b.pop("created", None)
        doc_a.pop("checksum", None)  # covers "created", so write-time too
        doc_b.pop("checksum", None)
        assert doc_a == doc_b


class TestBranchRecordSurface:
    def test_record_at_round_trip(self, trace, chunked):
        probe = [0, CHUNK - 1, CHUNK, len(trace) - 1]
        decoded = chunked.to_trace()
        for index in probe:
            assert decoded.record_at(index) == trace.record_at(index)

    def test_iter_chunks_covers_everything(self, trace, chunked):
        records: list[BranchRecord] = []
        for chunk in chunked.iter_chunks():
            records.extend(chunk.record_at(i) for i in range(len(chunk)))
        assert records == [trace.record_at(i) for i in range(len(trace))]
