"""Readers for external branch-trace formats.

A reader turns some on-disk representation of a branch trace into a stream
of :class:`EventBatch` column batches -- the *unvalidated* intermediate
form the gatekeeper (:mod:`repro.ingest.gatekeeper`) then checks a batch
at a time and hands to the trace writers as columns.  Readers never
validate semantics themselves; they only parse, attributing every row to
its source location (line number or byte offset) so a downstream
rejection can name exactly what was wrong and where.

Two formats ship:

``cbp``
    CBP-championship-style text: one branch per line, ``pc taken
    [target] [kind] [gap]``, ``#`` comments, hex (``0x``) or decimal
    addresses, ``1/0/T/N/y/n`` outcomes.  ``.gz`` inputs are decompressed
    transparently.

``raw``
    A raw binary event stream: little-endian packed records of
    ``<pc:u64, target:u64, taken:u8, kind:u8, gap:u32>`` (26 bytes per
    event), the kind byte using the columnar trace's stable codes.

New formats register with :func:`register_reader`; :func:`resolve_reader`
picks one by name or sniffs the input (``auto``).
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Union

__all__ = [
    "EventBatch",
    "RawEvent",
    "TraceReader",
    "CBPTextReader",
    "RawBinaryReader",
    "reader_names",
    "register_reader",
    "resolve_reader",
]


@dataclass
class RawEvent:
    """One parsed-but-unvalidated branch event.

    ``kind_code`` uses :data:`repro.trace.branch.KIND_TO_CODE` values;
    ``gap`` is the instruction gap (``None`` when the format does not carry
    one -- the gatekeeper substitutes the pipeline's default).  ``source``
    names where the event came from (``"line 12"`` / ``"offset 104"``) and
    ``raw`` preserves the original text (or a hex excerpt) for error
    attribution.  The gatekeeper's per-event rules read this form, for the
    rows of a batch that fails its bulk check.
    """

    pc: int
    taken: bool
    target: Optional[int] = None
    kind_code: int = 0
    gap: Optional[int] = None
    source: str = ""
    raw: str = ""


class EventBatch(NamedTuple):
    """Consecutive rows of one input, one column per field, in source order.

    ``taken`` holds 0/1 for well-formed rows and ``kind`` the
    :data:`~repro.trace.branch.KIND_TO_CODE` values; a missing target is
    already the fall-through ``pc + 1`` and a missing gap is ``None`` (the
    gatekeeper substitutes its default).  ``position`` is each row's line
    number or byte offset.  A row the reader could not parse carries pc
    ``-1``, so it fails the gatekeeper's bulk check.
    ``event(row)`` rebuilds row ``row`` as the :class:`RawEvent` the
    per-event rules judge (with its source attribution); the gatekeeper
    calls it only for the rows of a batch that fails the bulk check.
    """

    pc: Sequence[int]
    taken: Sequence[int]
    target: Sequence[int]
    kind: Sequence[int]
    gap: Sequence[Optional[int]]
    position: Sequence[int]
    event: Callable[[int], RawEvent]


class TraceReader:
    """Structural interface of a trace reader.

    Subclasses set :attr:`name`, implement :meth:`batches` and optionally
    :meth:`sniff` (used by ``auto`` format detection).
    """

    name = "abstract"

    def batches(self, path: Path) -> Iterator[EventBatch]:
        """Yield the rows of ``path`` as :class:`EventBatch`\\ es, in order."""
        raise NotImplementedError

    @classmethod
    def sniff(cls, path: Path) -> bool:
        """Whether this reader thinks it can parse ``path``."""
        return False


def _open_maybe_gzip(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8", errors="replace")
    return path.open("rt", encoding="utf-8", errors="replace")


_TAKEN_TOKENS = {
    "1": True, "0": False,
    "t": True, "n": False,
    "y": True,
    "taken": True, "not-taken": False, "nottaken": False,
}

_KIND_TOKENS = {
    "cond": 0, "c": 0, "conditional": 0,
    "uncond": 1, "u": 1, "j": 1, "unconditional": 1,
    "call": 2,
    "ret": 3, "return": 3,
    "ind": 4, "indirect": 4,
}

_COMMENTS = ("#", "//")


class CBPTextReader(TraceReader):
    """CBP-style text traces: ``pc taken [target] [kind] [gap]`` per line."""

    name = "cbp"

    #: Characters of text per batch (bounds memory on huge inputs); a batch
    #: ends with the line that reaches it.
    BATCH_CHARS = 1 << 18

    def batches(self, path: Path) -> Iterator[EventBatch]:
        """Yield column batches from a (possibly gzipped) CBP-style text file."""
        first = 1
        with _open_maybe_gzip(path) as stream:
            while True:
                lines = stream.readlines(self.BATCH_CHARS)
                if not lines:
                    break
                yield self._parse_lines(lines, first)
                first += len(lines)

    @classmethod
    def _parse_lines(cls, lines: List[str], first: int) -> EventBatch:
        """Columns of the data lines of ``lines`` (line ``first`` onwards).

        A line of 2-5 fields that parses goes straight into the columns; any
        other data line becomes a placeholder row (pc ``-1``) whose
        :class:`RawEvent` :meth:`_parse_line` builds on demand.
        """
        taken_tokens, kind_tokens = _TAKEN_TOKENS, _KIND_TOKENS
        pcs: List[int] = []
        takens: List[int] = []
        targets: List[int] = []
        kinds: List[int] = []
        gaps: List[Optional[int]] = []
        positions: List[int] = []
        for number, line in enumerate(lines, first):
            fields = line.split()
            if not fields or fields[0].startswith(_COMMENTS):
                continue
            width = len(fields)
            try:
                if width > 5:
                    raise ValueError("lines of six or more fields take the per-event route")
                pc = int(fields[0], 0)
                taken = taken_tokens[fields[1].lower()]
                target = int(fields[2], 0) if width > 2 else pc + 1
                kind = kind_tokens[fields[3].lower()] if width > 3 else 0
                gap = int(fields[4], 0) if width > 4 else None
            except (ValueError, KeyError, IndexError):
                pc, taken, target, kind, gap = -1, 0, 0, 0, None
            pcs.append(pc)
            takens.append(taken)
            targets.append(target)
            kinds.append(kind)
            gaps.append(gap)
            positions.append(number)

        def event(row: int) -> RawEvent:
            """Row ``row`` as :meth:`_parse_line` reads its line."""
            number = positions[row]
            return cls._parse_line(lines[number - first].strip(), number)

        return EventBatch(pcs, takens, targets, kinds, gaps, positions, event)

    @staticmethod
    def _parse_line(line: str, line_number: int) -> RawEvent:
        fields = line.split()
        source = f"line {line_number}"
        event = RawEvent(pc=-1, taken=False, source=source, raw=line)
        try:
            event.pc = int(fields[0], 0)
        except ValueError:
            return event  # pc stays -1: the gatekeeper attributes the junk
        if len(fields) < 2:
            event.pc = -1  # a lone pc is malformed, not a valid event
            return event
        taken = _TAKEN_TOKENS.get(fields[1].lower())
        if taken is None:
            event.pc = -1
            return event
        event.taken = taken
        if len(fields) >= 3:
            try:
                event.target = int(fields[2], 0)
            except ValueError:
                event.pc = -1
                return event
        if len(fields) >= 4:
            kind = _KIND_TOKENS.get(fields[3].lower())
            if kind is None:
                event.pc = -1
                return event
            event.kind_code = kind
        if len(fields) >= 5:
            try:
                event.gap = int(fields[4], 0)
            except ValueError:
                event.pc = -1
                return event
        return event

    @classmethod
    def sniff(cls, path: Path) -> bool:
        """True when the first data line parses as ``pc taken ...``."""
        try:
            with _open_maybe_gzip(path) as stream:
                for _ in range(50):
                    line = stream.readline()
                    if not line:
                        break
                    line = line.strip()
                    if not line or line.startswith("#") or line.startswith("//"):
                        continue
                    fields = line.split()
                    if len(fields) < 2:
                        return False
                    int(fields[0], 0)
                    return fields[1].lower() in _TAKEN_TOKENS
        except (OSError, ValueError, UnicodeError):
            return False
        return False


#: Packed layout of one raw binary event (little-endian).
_RAW_EVENT = struct.Struct("<QQBBI")

#: Optional magic prefix of raw binary event streams (written by exporters
#: that want sniffable files); a stream may also start directly with events.
RAW_MAGIC = b"RPRAW1\n"


class RawBinaryReader(TraceReader):
    """Raw binary branch events: ``<pc:u64 target:u64 taken:u8 kind:u8 gap:u32>``."""

    name = "raw"

    #: Events decoded per read (bounds memory on huge inputs).
    BATCH = 65536

    def batches(self, path: Path) -> Iterator[EventBatch]:
        """Decode fixed-size packed events, one read buffer per batch."""
        size = _RAW_EVENT.size
        opener = gzip.open if path.suffix == ".gz" else open
        with opener(path, "rb") as stream:
            head = stream.read(len(RAW_MAGIC))
            if head == RAW_MAGIC:
                offset, pending = len(RAW_MAGIC), b""
            else:
                offset, pending = 0, head
            while True:
                block = stream.read(size * self.BATCH)
                data = pending + block
                usable = len(data) - (len(data) % size)
                if usable:
                    yield self._decode(data, usable, offset)
                pending = data[usable:]
                offset += usable
                if not block:
                    break
            if pending:
                partial = RawEvent(
                    pc=-1, taken=False, source=f"offset {offset}", raw=pending.hex()
                )
                yield EventBatch([-1], [0], [0], [0], [None], [offset], lambda row: partial)

    @staticmethod
    def _decode(data: bytes, usable: int, offset: int) -> EventBatch:
        """The batch of the first ``usable`` bytes of ``data`` (at ``offset``)."""
        size = _RAW_EVENT.size
        pcs, targets, takens, kinds, gaps = zip(
            *_RAW_EVENT.iter_unpack(memoryview(data)[:usable])
        )

        def event(row: int) -> RawEvent:
            """Row ``row`` as one packed record, hex-attributed to its offset."""
            start = row * size
            taken = takens[row]
            return RawEvent(
                pc=pcs[row],
                taken=bool(taken) if taken in (0, 1) else taken,
                target=targets[row],
                kind_code=kinds[row],
                gap=gaps[row],
                source=f"offset {offset + start}",
                raw=data[start : start + size].hex(),
            )

        positions = range(offset, offset + usable, size)
        return EventBatch(pcs, takens, targets, kinds, gaps, positions, event)

    @classmethod
    def sniff(cls, path: Path) -> bool:
        """True when the stream starts with :data:`RAW_MAGIC`."""
        try:
            opener = gzip.open if path.suffix == ".gz" else open
            with opener(path, "rb") as stream:
                return stream.read(len(RAW_MAGIC)) == RAW_MAGIC
        except OSError:
            return False


_READERS: Dict[str, Callable[[], TraceReader]] = {}


def register_reader(name: str, factory: Callable[[], TraceReader]) -> None:
    """Register a reader factory under ``name`` (overwrites silently).

    The factory returns a :class:`TraceReader` whose :meth:`~TraceReader.batches`
    yields :class:`EventBatch`\\ es in source order; the reader parses and
    attributes rows, the gatekeeper judges them.
    """
    _READERS[name] = factory


def reader_names() -> list:
    """Registered reader names (sorted)."""
    return sorted(_READERS)


def resolve_reader(name: str, path: Union[str, Path]) -> TraceReader:
    """Instantiate a reader by name, or sniff the input when ``"auto"``."""
    path = Path(path)
    if name != "auto":
        try:
            return _READERS[name]()
        except KeyError:
            raise ValueError(
                f"unknown trace reader {name!r}; registered: "
                f"{', '.join(reader_names())}"
            ) from None
    for factory in _READERS.values():
        reader = factory()
        if type(reader).sniff(path):
            return reader
    raise ValueError(
        f"could not auto-detect the format of {path}; pass --reader "
        f"({', '.join(reader_names())})"
    )


register_reader(CBPTextReader.name, CBPTextReader)
register_reader(RawBinaryReader.name, RawBinaryReader)
