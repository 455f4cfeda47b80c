"""Trace container and serialisation.

A :class:`Trace` is an in-memory, ordered collection of dynamic branch
records together with a name and free-form metadata describing how it was
generated.  Traces are the unit of work for the simulator
(:mod:`repro.sim.engine`) and the unit of naming in the benchmark suites
(:mod:`repro.workloads.suites`).

Internally a trace stores its records in *columnar* (structure-of-arrays)
form: one compact :mod:`array` per field (pc, target, taken, kind,
instruction gap).  The columnar layout is what the fast simulation loop in
:mod:`repro.sim.engine` iterates over directly; the record-oriented API
(`trace[i]`, iteration, ``trace.records``) is preserved through lazy
:class:`~repro.trace.branch.BranchRecord` views so existing callers are
unaffected.

Two on-disk formats are supported:

* a line-oriented text format (one record per line) chosen for
  debuggability, and
* a compact binary format (raw column dumps behind a small header) used by
  the workload generation cache; see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from array import array
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Union, overload

from repro.trace.branch import (
    CONDITIONAL_CODE,
    KIND_FROM_CODE,
    KIND_TO_CODE,
    BranchKind,
    BranchRecord,
)

__all__ = [
    "Trace",
    "save_trace",
    "load_trace",
    "save_trace_binary",
    "load_trace_binary",
    "trace_to_bytes",
    "trace_from_bytes",
]

_FORMAT_VERSION = 1

#: Magic prefix of the binary trace format.
_BINARY_MAGIC = b"RPTRACE1"


class _RecordsView(Sequence[BranchRecord]):
    """Read-only record-oriented view over a columnar :class:`Trace`.

    Materialises :class:`BranchRecord` objects lazily, so code written
    against the original list-of-records representation (iteration,
    indexing, slicing, equality) keeps working without the trace having to
    hold per-record objects.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    @overload
    def __getitem__(self, index: int) -> BranchRecord: ...

    @overload
    def __getitem__(self, index: slice) -> List[BranchRecord]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[BranchRecord, List[BranchRecord]]:
        if isinstance(index, slice):
            trace = self._trace
            return [trace.record_at(i) for i in range(*index.indices(len(trace)))]
        return self._trace.record_at(index)

    def __iter__(self) -> Iterator[BranchRecord]:
        return iter(self._trace)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (_RecordsView, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_RecordsView({len(self)} records of {self._trace.name!r})"


class Trace:
    """An ordered sequence of dynamic branch records in columnar storage.

    Parameters
    ----------
    name:
        Human-readable benchmark name, e.g. ``"SPEC2K6-12"``.
    records:
        Optional initial records (any iterable of
        :class:`~repro.trace.branch.BranchRecord`).
    metadata:
        Free-form generator parameters (kernel name, seed, sizes) recorded
        for reproducibility.
    """

    __slots__ = (
        "name",
        "metadata",
        "_pc",
        "_target",
        "_taken",
        "_kind",
        "_gap",
        "_conditional_count",
        "_instruction_count",
        "_fingerprint",
    )

    def __init__(
        self,
        name: str,
        records: Iterable[BranchRecord] | None = None,
        metadata: Dict[str, str] | None = None,
    ) -> None:
        self.name = name
        self.metadata: Dict[str, str] = dict(metadata) if metadata else {}
        self._pc = array("q")
        self._target = array("q")
        self._taken = array("b")
        self._kind = array("b")
        self._gap = array("q")
        # Both aggregate counts are maintained incrementally on append and
        # extend, so reading them is O(1) however often the simulator asks.
        self._conditional_count = 0
        self._instruction_count = 0
        #: Cached content fingerprint; invalidated on every mutation.
        self._fingerprint: str | None = None
        if records is not None:
            self.extend(records)

    # ------------------------------------------------------------------ #
    # Record-oriented API (compatible with the original list storage)
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._pc)

    def __iter__(self) -> Iterator[BranchRecord]:
        pcs, targets, takens, kinds, gaps = (
            self._pc, self._target, self._taken, self._kind, self._gap,
        )
        kind_from_code = KIND_FROM_CODE
        for index in range(len(pcs)):
            yield BranchRecord(
                pc=pcs[index],
                target=targets[index],
                taken=bool(takens[index]),
                kind=kind_from_code[kinds[index]],
                instruction_gap=gaps[index],
            )

    def __getitem__(self, index: int) -> BranchRecord:
        return self.record_at(index)

    def record_at(self, index: int) -> BranchRecord:
        """Materialise the :class:`BranchRecord` view of record ``index``."""
        return BranchRecord(
            pc=self._pc[index],
            target=self._target[index],
            taken=bool(self._taken[index]),
            kind=KIND_FROM_CODE[self._kind[index]],
            instruction_gap=self._gap[index],
        )

    @property
    def records(self) -> _RecordsView:
        """Record-oriented view of the trace (lazy, read-only)."""
        return _RecordsView(self)

    def append(self, record: BranchRecord) -> None:
        """Append one dynamic branch to the trace."""
        kind_code = KIND_TO_CODE[record.kind]
        self._pc.append(record.pc)
        self._target.append(record.target)
        self._taken.append(record.taken)
        self._kind.append(kind_code)
        gap = record.instruction_gap
        self._gap.append(gap)
        if kind_code == CONDITIONAL_CODE:
            self._conditional_count += 1
        self._instruction_count += gap + 1
        self._fingerprint = None

    def extend(self, records: Iterable[BranchRecord]) -> None:
        """Append several dynamic branches to the trace."""
        if isinstance(records, Trace):
            self.extend_columns(*records.columns())
            return
        append = self.append
        for record in records:
            append(record)

    def extend_columns(self, pc, target, taken, kind, gap) -> None:
        """Append raw columns in :meth:`columns` order (no record materialisation).

        ``taken`` holds 0/1 and ``kind`` the kind codes, in arrays of the
        trace's own typecodes; the columns must already be valid trace
        content (another trace's, or the ingest gatekeeper's output).
        """
        conditional = kind.count(CONDITIONAL_CODE)
        instructions = sum(gap) + len(gap)
        self._pc.extend(pc)
        self._target.extend(target)
        self._taken.extend(taken)
        self._kind.extend(kind)
        self._gap.extend(gap)
        self._conditional_count += conditional
        self._instruction_count += instructions
        self._fingerprint = None

    # ------------------------------------------------------------------ #
    # Columnar access (used by the fast simulation loop)
    # ------------------------------------------------------------------ #

    def columns(self) -> tuple:
        """Return the raw ``(pc, target, taken, kind, gap)`` column arrays.

        ``taken`` and ``kind`` are stored as small integers; kind codes are
        :data:`repro.trace.branch.KIND_TO_CODE`.  The arrays are the trace's
        own storage: callers must treat them as read-only.
        """
        return self._pc, self._target, self._taken, self._kind, self._gap

    # ------------------------------------------------------------------ #
    # Aggregate statistics
    # ------------------------------------------------------------------ #

    @property
    def conditional_count(self) -> int:
        """Number of conditional branch records in the trace (cached)."""
        return self._conditional_count

    @property
    def instruction_count(self) -> int:
        """Total instructions represented by the trace (cached).

        Every branch counts as one instruction plus its ``instruction_gap``
        of preceding non-branch instructions.
        """
        return self._instruction_count

    def fingerprint(self) -> str:
        """Content fingerprint of the trace (SHA-256 hex, cached).

        Covers the trace name and every column byte-for-byte (normalised to
        little-endian), so two traces share a fingerprint exactly when they
        would drive a predictor identically and report under the same name.
        This is the trace component of persistent cache keys
        (:mod:`repro.store`): a benchmark regenerated with different content
        -- e.g. after a generator edit invalidated the
        ``REPRO_TRACE_CACHE`` entry -- gets a new fingerprint even though
        its benchmark name is unchanged, so stale results are never served.

        The value is cached and invalidated on ``append``/``extend``;
        rebinding ``trace.name`` after the first call is not tracked.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(self.name.encode("utf-8"))
            for column in (self._pc, self._target, self._taken, self._kind, self._gap):
                if _BIG_ENDIAN_HOST and column.itemsize > 1:
                    column = array(column.typecode, column)
                    column.byteswap()
                digest.update(b"|")
                digest.update(column.tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def static_branches(self) -> Dict[int, int]:
        """Map of conditional branch PC to dynamic execution count."""
        kinds = self._kind
        pcs = self._pc
        counts: Counter[int] = Counter(
            pcs[index]
            for index in range(len(pcs))
            if kinds[index] == CONDITIONAL_CODE
        )
        return dict(counts)

    def slice(self, start: int, stop: int | None = None) -> "Trace":
        """Return a new trace containing records ``start:stop``."""
        part = Trace(name=self.name, metadata=dict(self.metadata))
        view = slice(start, stop)
        part._pc = self._pc[view]
        part._target = self._target[view]
        part._taken = self._taken[view]
        part._kind = self._kind[view]
        part._gap = self._gap[view]
        kinds = part._kind
        part._conditional_count = sum(
            1 for code in kinds if code == CONDITIONAL_CODE
        )
        part._instruction_count = sum(part._gap) + len(part._gap)
        return part

    def taken_rate(self) -> float:
        """Fraction of conditional branches that are taken."""
        if not self._conditional_count:
            return 0.0
        kinds = self._kind
        takens = self._taken
        taken = sum(
            takens[index]
            for index in range(len(kinds))
            if kinds[index] == CONDITIONAL_CODE
        )
        return taken / self._conditional_count


# --------------------------------------------------------------------------- #
# Text serialisation
# --------------------------------------------------------------------------- #


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` to ``path`` in the library's text format."""
    path = Path(path)
    lines = [f"# repro-trace v{_FORMAT_VERSION}", f"# name: {trace.name}"]
    for key, value in sorted(trace.metadata.items()):
        lines.append(f"# meta: {key}={value}")
    pcs, targets, takens, kinds, gaps = trace.columns()
    kind_values = [kind.value for kind in KIND_FROM_CODE]
    for index in range(len(pcs)):
        lines.append(
            f"{pcs[index]} {targets[index]} {takens[index]} "
            f"{kind_values[kinds[index]]} {gaps[index]}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_record(fields: Sequence[str], line_number: int) -> BranchRecord:
    if len(fields) != 5:
        raise ValueError(f"line {line_number}: expected 5 fields, got {len(fields)}")
    pc, target, taken, kind, gap = fields
    return BranchRecord(
        pc=int(pc),
        target=int(target),
        taken=bool(int(taken)),
        kind=BranchKind(kind),
        instruction_gap=int(gap),
    )


def load_trace(path: str | Path) -> Trace:
    """Read a trace previously written by :func:`save_trace`.

    Binary traces (written by :func:`save_trace_binary`) are detected by
    their magic prefix and dispatched automatically.
    """
    path = Path(path)
    with path.open("rb") as stream:
        if stream.read(len(_BINARY_MAGIC)) == _BINARY_MAGIC:
            return load_trace_binary(path)
    name = path.stem
    metadata: Dict[str, str] = {}
    trace = Trace(name=name)
    for line_number, raw_line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("name:"):
                name = body[len("name:"):].strip()
            elif body.startswith("meta:"):
                key, _, value = body[len("meta:"):].strip().partition("=")
                metadata[key.strip()] = value.strip()
            continue
        trace.append(_parse_record(line.split(), line_number))
    trace.name = name
    trace.metadata = metadata
    return trace


# --------------------------------------------------------------------------- #
# Binary serialisation
# --------------------------------------------------------------------------- #

# Layout: magic, then a little-endian uint32 JSON header length, the JSON
# header (name, metadata, record count), then the five column dumps in
# columns() order.  Column typecodes are fixed by the format: "q" for
# pc/target/gap, "b" for taken/kind.  Multi-byte columns are stored
# little-endian regardless of host byte order.
_HEADER_LENGTH = struct.Struct("<I")
_COLUMN_TYPECODES = ("q", "q", "b", "b", "q")
_BIG_ENDIAN_HOST = sys.byteorder == "big"


def trace_to_bytes(trace: Trace) -> bytes:
    """Serialize ``trace`` to the compact binary format as one bytes object.

    The byte layout is identical to what :func:`save_trace_binary` writes,
    so the result can be persisted to a file or shipped over a socket (the
    distributed runner sends traces to workers this way) and read back with
    :func:`trace_from_bytes` / :func:`load_trace_binary`.
    """
    header = json.dumps(
        {
            "version": _FORMAT_VERSION,
            "name": trace.name,
            "metadata": trace.metadata,
            "count": len(trace),
        },
        ensure_ascii=False,
    ).encode("utf-8")
    parts = [_BINARY_MAGIC, _HEADER_LENGTH.pack(len(header)), header]
    for column in trace.columns():
        if _BIG_ENDIAN_HOST and column.itemsize > 1:
            column = array(column.typecode, column)
            column.byteswap()
        parts.append(column.tobytes())
    return b"".join(parts)


def trace_from_bytes(data: bytes, source: str = "trace bytes") -> Trace:
    """Inverse of :func:`trace_to_bytes` (``source`` labels error messages)."""
    view = memoryview(data)
    magic = bytes(view[: len(_BINARY_MAGIC)])
    if magic != _BINARY_MAGIC:
        raise ValueError(f"{source}: not a binary repro trace (bad magic {magic!r})")
    offset = len(_BINARY_MAGIC)
    if len(view) < offset + _HEADER_LENGTH.size:
        raise ValueError(f"{source}: truncated binary trace header")
    (header_length,) = _HEADER_LENGTH.unpack_from(view, offset)
    offset += _HEADER_LENGTH.size
    try:
        header = json.loads(bytes(view[offset : offset + header_length]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"{source}: corrupt binary trace header ({error})") from None
    offset += header_length
    if not isinstance(header, dict) or header.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"{source}: unsupported binary trace version "
            f"{header.get('version') if isinstance(header, dict) else header!r}"
        )
    count = int(header["count"])
    trace = Trace(
        name=str(header["name"]),
        metadata={str(k): str(v) for k, v in header.get("metadata", {}).items()},
    )
    columns = []
    for typecode in _COLUMN_TYPECODES:
        column = array(typecode)
        if count:
            end = offset + count * column.itemsize
            if end > len(view):
                raise ValueError(f"{source}: truncated binary trace columns")
            column.frombytes(view[offset:end])
            offset = end
            if _BIG_ENDIAN_HOST and column.itemsize > 1:
                column.byteswap()
        columns.append(column)
    trace._pc, trace._target, trace._taken, trace._kind, trace._gap = columns
    trace._conditional_count = sum(
        1 for code in trace._kind if code == CONDITIONAL_CODE
    )
    trace._instruction_count = sum(trace._gap) + len(trace._gap)
    return trace


def save_trace_binary(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` to ``path`` in the compact binary format."""
    Path(path).write_bytes(trace_to_bytes(trace))


def load_trace_binary(path: str | Path) -> Trace:
    """Read a trace previously written by :func:`save_trace_binary`."""
    path = Path(path)
    return trace_from_bytes(path.read_bytes(), source=str(path))
