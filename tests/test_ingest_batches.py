"""The columnar ingest pipeline against the per-event rules, row by row.

``ingest_trace`` reads column batches, checks each batch in bulk and sends
only the rows of batches that fail that check through the gatekeeper's
per-event rules.  The oracle here never batches: it walks the input one line (or one
packed record) at a time with ``CBPTextReader._parse_line`` /
a plain ``struct`` decode, judges every event with ``Gatekeeper._check``,
appends the records one by one to a :class:`~repro.trace.trace.Trace` and
cuts that into chunks itself.  Both must agree on the chunk bytes, the
manifest, the report and, under ``reject``, the error message -- for every
policy, several chunk sizes and several reader batch sizes.
"""

from __future__ import annotations

import json
import struct
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ingest import (
    CBPTextReader,
    Gatekeeper,
    IngestError,
    POLICIES,
    RAW_MAGIC,
    RawBinaryReader,
    RawEvent,
    ingest_trace,
)
from repro.trace.chunked import CHUNK_FORMAT, MANIFEST_NAME, chunked_fingerprint
from repro.trace.trace import Trace, trace_to_bytes

_RAW_EVENT = struct.Struct("<QQBBI")
_MAX = 2**63 - 1
CHUNK_SIZES = (1, 7, 4096)

# --------------------------------------------------------------------------- #
# The oracle: one event at a time
# --------------------------------------------------------------------------- #


def _cbp_events(path):
    with path.open("rt", encoding="utf-8", errors="replace") as stream:
        for number, raw_line in enumerate(stream, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#") or line.startswith("//"):
                continue
            yield CBPTextReader._parse_line(line, number)


def _raw_events(path):
    data = path.read_bytes()
    offset = len(RAW_MAGIC) if data.startswith(RAW_MAGIC) else 0
    size = _RAW_EVENT.size
    while offset + size <= len(data):
        pc, target, taken, kind, gap = _RAW_EVENT.unpack_from(data, offset)
        yield RawEvent(
            pc=pc,
            taken=bool(taken) if taken in (0, 1) else taken,
            target=target,
            kind_code=kind,
            gap=gap,
            source=f"offset {offset}",
            raw=data[offset : offset + size].hex(),
        )
        offset += size
    if offset < len(data):
        yield RawEvent(pc=-1, taken=False, source=f"offset {offset}", raw=data[offset:].hex())


def _expected(events, name, metadata, policy, default_gap, chunk_branches):
    """``("error", message)`` or ``("ok", report, chunk bytes, manifest, binary)``."""
    keeper = Gatekeeper(policy, default_gap=default_gap)
    records = []
    try:
        for event in events:
            record = keeper._check(event)
            if record is not None:
                keeper.accepted += 1
                records.append(record)
    except IngestError as error:
        return ("error", str(error))
    whole = Trace(name=name, metadata=metadata)
    for record in records:
        whole.append(record)
    chunks, entries = [], []
    for start in range(0, max(len(records), 1), chunk_branches):
        chunk = Trace(name=name)
        for record in records[start : start + chunk_branches]:
            chunk.append(record)
        chunks.append(trace_to_bytes(chunk))
        entries.append({
            "file": f"chunk-{len(entries):05d}.rpt",
            "records": len(chunk),
            "conditional": chunk.conditional_count,
            "instructions": chunk.instruction_count,
            "fingerprint": chunk.fingerprint(),
        })
    fingerprint = chunked_fingerprint(name, [entry["fingerprint"] for entry in entries])
    manifest = {
        "format": CHUNK_FORMAT,
        "version": 1,
        "name": name,
        "metadata": metadata,
        "chunk_branches": chunk_branches,
        "records": len(whole),
        "conditional": whole.conditional_count,
        "instructions": whole.instruction_count,
        "fingerprint": fingerprint,
        "chunks": entries,
    }
    report = {
        "records": len(whole),
        "conditional": whole.conditional_count,
        "instructions": whole.instruction_count,
        "repaired": keeper.repaired,
        "skipped": keeper.skipped,
        "attributions": keeper.attributions,
    }
    return ("ok", report, chunks, manifest, trace_to_bytes(whole), whole.fingerprint())


def _actual(path, out, reader, policy, default_gap, chunk_branches):
    try:
        chunked = ingest_trace(
            path, out / "chunked", reader=reader, name="t", on_error=policy,
            default_gap=default_gap, chunk_branches=chunk_branches,
        )
        binary = ingest_trace(
            path, out / "t.rpt", reader=reader, name="t", layout="binary",
            on_error=policy, default_gap=default_gap,
        )
    except IngestError as error:
        return ("error", str(error))
    manifest = json.loads((out / "chunked" / MANIFEST_NAME).read_text(encoding="utf-8"))
    chunks = [(out / "chunked" / entry["file"]).read_bytes() for entry in manifest["chunks"]]
    report = {
        key: chunked.to_dict()[key]
        for key in ("records", "conditional", "instructions", "repaired", "skipped", "attributions")
    }
    assert binary.to_dict()["attributions"] == report["attributions"]
    assert chunked.chunks == len(chunks) and chunked.fingerprint == manifest["fingerprint"]
    return ("ok", report, chunks, manifest, (out / "t.rpt").read_bytes(), binary.fingerprint)


def _check_all(path, reader, events, default_gap):
    metadata = {"ingested-from": path.name, "ingest-reader": reader}
    for policy in POLICIES:
        for chunk_branches in CHUNK_SIZES:
            expected = _expected(
                events(path), "t", metadata, policy, default_gap, chunk_branches
            )
            with tempfile.TemporaryDirectory() as out:
                actual = _actual(path, Path(out), reader, policy, default_gap, chunk_branches)
            assert actual == expected, (policy, chunk_branches)


# --------------------------------------------------------------------------- #
# CBP text
# --------------------------------------------------------------------------- #

_EDGES = [0, 1, 4096, _MAX - 1, _MAX, _MAX + 1, 2**64 - 1, 2**64, -1, -5, -(2**63)]
_INTEGERS = st.one_of(
    st.sampled_from(_EDGES), st.integers(0, 2**20), st.integers(-(2**65), 2**65)
)
_STYLES = ("{:d}", "{:#x}", "{:#X}", "{:#o}", "{:_d}", "{:#_x}")


def _int_token():
    return st.builds(lambda value, style: style.format(value), _INTEGERS, st.sampled_from(_STYLES))


def _any_case(words):
    return st.sampled_from(words).flatmap(
        lambda word: st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
            lambda upper: "".join(c.upper() if u else c for c, u in zip(word, upper))
        )
    )


_TAKEN_WORDS = ["1", "0", "t", "n", "y", "taken", "not-taken", "nottaken"]
_KIND_WORDS = [
    "cond", "c", "conditional", "uncond", "u", "j", "unconditional",
    "call", "ret", "return", "ind", "indirect",
]
_JUNK = st.one_of(
    st.sampled_from(["zz", "0x", "1__0", "0xg", "--1", "007", "maybe", "0b2", "1.5"]),
    st.text(alphabet="xyz019#/_-", min_size=1, max_size=4),
)


def _field(normal):
    return st.one_of(normal, normal, normal, _JUNK)


_FIELDS = [
    _field(_int_token()),
    _field(_any_case(_TAKEN_WORDS)),
    _field(_int_token()),
    _field(_any_case(_KIND_WORDS)),
    _field(_int_token()),
    st.one_of(_int_token(), _JUNK),
]


@st.composite
def _data_line(draw):
    count = draw(st.integers(1, 6))
    fields = [draw(strategy) for strategy in _FIELDS[:count]]
    separator = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return pad + separator.join(fields) + draw(st.sampled_from(["", " ", "\t"]))


@st.composite
def _valid_line(draw):
    """2-5 fields that all parse; numbers in range or at and just past
    ``2**63 - 1`` (only the last goes to the per-event rules, with
    not-taken non-conditional branches)."""
    count = draw(st.sampled_from([2, 3, 4, 5, 5, 5]))
    value = st.one_of(
        st.integers(0, 2**20), st.integers(0, _MAX), st.sampled_from([_MAX, _MAX + 1])
    )
    number = st.builds(lambda v, style: style.format(v), value, st.sampled_from(_STYLES))
    fields = [draw(number), draw(_any_case(_TAKEN_WORDS))]
    if count > 2:
        fields.append(draw(number))
    if count > 3:
        fields.append(draw(_any_case(_KIND_WORDS)))
    if count > 4:
        fields.append(draw(number))
    return " ".join(fields)


_COMMENT_TEXT = st.text(alphabet="abc 0x1#/", max_size=12)
_OTHER_LINES = st.one_of(
    _COMMENT_TEXT.map(lambda text: "#" + text),
    _COMMENT_TEXT.map(lambda text: "  //" + text),
    st.sampled_from(["", "   ", "\t"]),
)
#: Either only lines whose fields all parse (so a whole batch can pass the
#: bulk check), or those mixed with junk of every shape.
_LINES = st.one_of(
    st.lists(st.one_of(_valid_line(), _valid_line(), _OTHER_LINES), min_size=8, max_size=60),
    st.lists(
        st.one_of(
            _valid_line(), _valid_line(), _data_line(), _OTHER_LINES,
            st.sampled_from(["/", "/x 1"]),
        ),
        min_size=8,
        max_size=60,
    ),
)


@settings(max_examples=60, deadline=None)
# Rows just past the range, each in a batch whose other rows pass the bulk
# check: a gap, a target, and a pc whose fall-through is out of range.
@example(lines=["1 1 2 cond 0x8000000000000000", "5 t"], newline=True, batch=1 << 18, default_gap=4)
@example(lines=["1 1 0x8000000000000000", "5 t"], newline=False, batch=1 << 18, default_gap=0)
@example(lines=["0x7fffffffffffffff 1", "5 t"], newline=True, batch=1 << 18, default_gap=4)
@given(
    lines=_LINES,
    newline=st.booleans(),
    batch=st.sampled_from([1, 60, CBPTextReader.BATCH_CHARS]),
    default_gap=st.sampled_from([0, 4, _MAX]),
)
def test_cbp_batches_match_per_event_rules(lines, newline, batch, default_gap):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "in.cbp"
        path.write_text("\n".join(lines) + ("\n" if newline else ""), encoding="utf-8")
        with mock.patch.object(CBPTextReader, "BATCH_CHARS", batch):
            _check_all(path, "cbp", _cbp_events, default_gap)


# --------------------------------------------------------------------------- #
# Raw binary events
# --------------------------------------------------------------------------- #

_WORDS = st.one_of(
    st.sampled_from([0, 0x1000, _MAX, _MAX + 1, 2**64 - 1]), st.integers(0, 2**64 - 1)
)
_RECORDS = st.lists(
    st.tuples(
        _WORDS,
        _WORDS,
        st.sampled_from([0, 1, 0, 1, 2, 255]),
        st.sampled_from([0, 1, 2, 3, 4, 0, 5, 255]),
        st.one_of(st.sampled_from([0, 4, 2**32 - 1]), st.integers(0, 2**32 - 1)),
    ),
    max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(
    records=_RECORDS,
    magic=st.booleans(),
    tail=st.binary(max_size=_RAW_EVENT.size - 1),
    batch=st.sampled_from([1, 4, RawBinaryReader.BATCH]),
)
def test_raw_batches_match_per_event_rules(records, magic, tail, batch):
    blob = (RAW_MAGIC if magic else b"") + b"".join(
        _RAW_EVENT.pack(*record) for record in records
    ) + tail
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "in.raw"
        path.write_bytes(blob)
        with mock.patch.object(RawBinaryReader, "BATCH", batch):
            _check_all(path, "raw", _raw_events, 4)
