"""External trace ingestion: readers, gatekeeper policies, the pipeline
and the ``repro ingest`` CLI verb (see ``docs/TRACES.md``).
"""

from __future__ import annotations

import gzip
import json
import struct

import pytest

from repro.cli import main
from repro.ingest import (
    CBPTextReader,
    EventBatch,
    Gatekeeper,
    IngestError,
    RAW_MAGIC,
    RawBinaryReader,
    RawEvent,
    ingest_trace,
    resolve_reader,
)
from repro.trace.chunked import load_any_trace, load_chunked_trace
from repro.trace.trace import Trace, load_trace

_RAW_EVENT = struct.Struct("<QQBBI")


def _write_cbp(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_raw(path, events, magic=True):
    blob = RAW_MAGIC if magic else b""
    for pc, target, taken, kind, gap in events:
        blob += _RAW_EVENT.pack(pc, target, taken, kind, gap)
    path.write_bytes(blob)
    return path


def _validated(keeper, batches):
    """The records ``keeper`` accepts from ``batches``."""
    trace = Trace("validated")
    for columns in keeper.validate(batches):
        trace.extend_columns(*columns)
    return list(trace)


def _events_batch(events):
    """One batch whose rows are ``events``, each judged by the per-event rules.

    Every row carries the unparsed placeholder pc -1; its position is the
    number that ends its source attribution.
    """
    count = len(events)
    positions = [int(event.source.rpartition(" ")[2]) for event in events]
    return EventBatch(
        [-1] * count, [0] * count, [0] * count, [0] * count, [None] * count,
        positions, events.__getitem__,
    )


GOOD_LINES = [
    "# a comment",
    "0x1000 1 0x2000",
    "0x1004 0 0x1008",
    "4104 t 4200 cond 8",
    "0x100c 1 0x1000 call",
    "// another comment style",
    "0x1010 n",
]


class TestReaders:
    def test_cbp_text_parses_fields(self, tmp_path):
        path = _write_cbp(tmp_path / "t.txt", GOOD_LINES)
        records = _validated(Gatekeeper("reject"), CBPTextReader().batches(path))
        assert len(records) == 5
        assert records[0].pc == 0x1000 and records[0].taken
        assert records[2].instruction_gap == 8
        assert records[3].kind.name == "CALL"
        # no target given: repaired to the fall-through convention
        assert records[4].target == 0x1010 + 1

    def test_cbp_gzip_transparent(self, tmp_path):
        text = "\n".join(GOOD_LINES) + "\n"
        path = tmp_path / "t.txt.gz"
        path.write_bytes(gzip.compress(text.encode()))
        records = _validated(Gatekeeper("reject"), CBPTextReader().batches(path))
        assert len(records) == 5

    def test_raw_binary_round_trip(self, tmp_path):
        events = [(0x1000 + 4 * i, 0x2000, i % 2, 0, 4) for i in range(100)]
        path = _write_raw(tmp_path / "t.raw", events)
        records = _validated(Gatekeeper("reject"), RawBinaryReader().batches(path))
        assert len(records) == 100
        assert records[3].pc == 0x100C and records[3].taken

    def test_raw_binary_magic_optional(self, tmp_path):
        events = [(0x1000, 0x2000, 1, 0, 4)]
        bare = _write_raw(tmp_path / "bare.raw", events, magic=False)
        records = _validated(Gatekeeper("reject"), RawBinaryReader().batches(bare))
        assert len(records) == 1

    def test_raw_trailing_partial_record_rejected(self, tmp_path):
        path = _write_raw(tmp_path / "t.raw", [(0x1000, 0x2000, 1, 0, 4)])
        path.write_bytes(path.read_bytes() + b"\x01\x02\x03")
        with pytest.raises(IngestError, match="malformed"):
            _validated(Gatekeeper("reject"), RawBinaryReader().batches(path))

    def test_sniffing_resolves_both_formats(self, tmp_path):
        text = _write_cbp(tmp_path / "t.txt", GOOD_LINES)
        raw = _write_raw(tmp_path / "t.raw", [(0x1000, 0x2000, 1, 0, 4)])
        assert resolve_reader("auto", text).name == "cbp"
        assert resolve_reader("auto", raw).name == "raw"
        with pytest.raises(ValueError, match="unknown trace reader"):
            resolve_reader("no-such-reader", text)


class TestGatekeeper:
    def test_reject_attributes_source_line(self, tmp_path):
        path = _write_cbp(tmp_path / "bad.txt", ["0x1000 1", "not-a-line"])
        with pytest.raises(IngestError) as excinfo:
            _validated(Gatekeeper("reject"), CBPTextReader().batches(path))
        message = str(excinfo.value)
        assert "line 2" in message and "not-a-line" in message

    def test_skip_counts_and_keeps_attributions(self, tmp_path):
        lines = ["0x1000 1"] + [f"junk-{i}" for i in range(8)] + ["0x1004 0"]
        path = _write_cbp(tmp_path / "bad.txt", lines)
        keeper = Gatekeeper("skip")
        records = _validated(keeper, CBPTextReader().batches(path))
        assert len(records) == 2
        assert keeper.skipped == 8
        assert len(keeper.attributions) == 5  # first five, not all

    def test_repair_fixes_fixable_fields(self):
        keeper = Gatekeeper("repair")
        events = [
            RawEvent(pc=0x1000, taken=False, kind_code=2, source="e 1"),  # call
            RawEvent(pc=0x1004, taken=True, target=2**70, source="e 2"),
            RawEvent(pc=0x1008, taken=True, gap=-5, source="e 3"),
        ]
        records = _validated(keeper, [_events_batch(events)])
        assert keeper.repaired == 3
        assert records[0].taken  # non-conditional branches are always taken
        assert records[1].target == 0x1004 + 1
        assert records[2].instruction_gap == 0

    def test_reject_raises_on_repairable_too(self):
        events = [RawEvent(pc=0x1000, taken=False, kind_code=2, source="e 1")]
        with pytest.raises(IngestError):
            _validated(Gatekeeper("reject"), [_events_batch(events)])

    def test_source_order_must_be_monotonic(self):
        events = [
            RawEvent(pc=0x1000, taken=True, source="line 5"),
            RawEvent(pc=0x1004, taken=True, source="line 3"),
        ]
        # Rows that pass the bulk check are held to source order too,
        # inside one batch and across batches.
        clean = EventBatch(
            [0x1000, 0x1004], [1, 1], [0x1001, 0x1005], [0, 0], [4, 4], [5, 3],
            events.__getitem__,
        )
        cases = [
            [_events_batch(events)],
            [clean],
            [
                clean._replace(position=[5, 5]),
                clean._replace(position=[3, 6], event=events[1:].__getitem__),
            ],
        ]
        for policy in ("reject", "repair", "skip"):
            for batches in cases:
                with pytest.raises(IngestError, match="line 3 after position 5"):
                    _validated(Gatekeeper(policy), batches)


class TestPipeline:
    def test_chunked_layout(self, tmp_path):
        path = _write_cbp(
            tmp_path / "in.txt",
            [f"{0x1000 + 4 * i:#x} {i % 2}" for i in range(500)],
        )
        report = ingest_trace(
            path, tmp_path / "out", layout="chunked", chunk_branches=128
        )
        assert report.records == 500
        assert report.chunks == 4
        loaded = load_chunked_trace(tmp_path / "out")
        assert loaded.fingerprint() == report.fingerprint
        assert loaded.metadata["ingested-from"] == path.name
        assert report.branches_per_second > 0

    def test_binary_layout(self, tmp_path):
        path = _write_cbp(tmp_path / "in.txt", ["0x1000 1 0x2000", "0x1004 0"])
        report = ingest_trace(path, tmp_path / "out.rpt", layout="binary")
        assert report.chunks == 0
        loaded = load_trace(tmp_path / "out.rpt")
        assert len(loaded) == 2
        assert loaded.fingerprint() == report.fingerprint

    def test_default_name_strips_suffixes(self, tmp_path):
        text = "0x1000 1\n"
        path = tmp_path / "work.load.txt.gz"
        path.write_bytes(gzip.compress(text.encode()))
        report = ingest_trace(path, tmp_path / "out")
        assert report.name == "work.load"

    def test_reject_policy_propagates(self, tmp_path):
        path = _write_cbp(tmp_path / "in.txt", ["0x1000 1", "garbage"])
        with pytest.raises(IngestError):
            ingest_trace(path, tmp_path / "out")
        report = ingest_trace(path, tmp_path / "out2", on_error="skip")
        assert report.records == 1 and report.skipped == 1


class TestIngestCLI:
    def test_convert_inspect_validate(self, tmp_path, capsys):
        path = _write_cbp(
            tmp_path / "in.txt",
            [f"{0x1000 + 4 * i:#x} {int(i % 3 != 0)}" for i in range(300)],
        )
        out = tmp_path / "chunked"
        assert main([
            "ingest", "convert", str(path), "-o", str(out),
            "--chunk-branches", "100", "--name", "cli-trace", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["name"] == "cli-trace"
        assert report["chunks"] == 3
        assert main(["ingest", "inspect", str(out), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["layout"] == "chunked"
        assert info["fingerprint"] == report["fingerprint"]
        assert main(["ingest", "validate", str(out)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_convert_rejects_bad_input(self, tmp_path, capsys):
        path = _write_cbp(tmp_path / "in.txt", ["0x1000 1", "broken line !!!"])
        assert main(
            ["ingest", "convert", str(path), "-o", str(tmp_path / "out")]
        ) == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_simulate_over_ingested_trace(self, tmp_path, capsys):
        path = _write_cbp(
            tmp_path / "in.txt",
            [f"{0x1000 + 4 * (i % 40):#x} {int(i % 40 < 30)}" for i in range(400)],
        )
        out = tmp_path / "chunked"
        assert main(
            ["ingest", "convert", str(path), "-o", str(out), "--name", "mini"]
        ) == 0
        capsys.readouterr()
        assert main([
            "simulate", "--trace", str(out),
            "--configurations", "tage-gsc", "--profile", "small",
        ]) == 0
        table = capsys.readouterr().out
        assert "mini" in table
        # and the loaded object is the chunked trace, not a decoded copy
        assert load_any_trace(out).chunk_count >= 1
