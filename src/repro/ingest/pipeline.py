"""The ingest pipeline: external trace file -> repro trace layout.

``ingest_trace`` wires a reader (:mod:`repro.ingest.readers`), the
gatekeeper (:mod:`repro.ingest.gatekeeper`) and a trace writer into one
streaming pass: rows are parsed, validated and appended to a
:class:`~repro.trace.chunked.ChunkedTraceWriter` (or an in-memory trace
for the monolithic layout) a batch of columns at a time, so converting an
arbitrarily large input costs one chunk of memory.  The returned
:class:`IngestReport` carries everything ``repro ingest`` prints.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.ingest.gatekeeper import Gatekeeper
from repro.ingest.readers import resolve_reader
from repro.trace.chunked import (
    DEFAULT_CHUNK_BRANCHES,
    ChunkedTrace,
    ChunkedTraceWriter,
)
from repro.trace.trace import Trace, save_trace_binary

__all__ = ["IngestReport", "ingest_trace"]

LAYOUTS = ("chunked", "binary")


@dataclass
class IngestReport:
    """Outcome of one ingest run (what ``repro ingest convert`` reports)."""

    name: str
    input: str
    output: str
    layout: str
    reader: str
    policy: str
    records: int
    conditional: int
    instructions: int
    repaired: int
    skipped: int
    chunks: int
    fingerprint: str
    elapsed_seconds: float
    attributions: List[str] = field(default_factory=list)

    @property
    def branches_per_second(self) -> float:
        """Ingest throughput (0.0 when no time elapsed)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.records / self.elapsed_seconds

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe plain-dict form (the ``ingest convert --json`` output)."""
        return {
            "name": self.name,
            "input": self.input,
            "output": self.output,
            "layout": self.layout,
            "reader": self.reader,
            "policy": self.policy,
            "records": self.records,
            "conditional": self.conditional,
            "instructions": self.instructions,
            "repaired": self.repaired,
            "skipped": self.skipped,
            "chunks": self.chunks,
            "fingerprint": self.fingerprint,
            "elapsed_seconds": self.elapsed_seconds,
            "branches_per_second": self.branches_per_second,
            "attributions": list(self.attributions),
        }


def ingest_trace(
    input_path: Union[str, Path],
    output_path: Union[str, Path],
    reader: str = "auto",
    name: Optional[str] = None,
    layout: str = "chunked",
    chunk_branches: int = DEFAULT_CHUNK_BRANCHES,
    on_error: str = "reject",
    default_gap: int = 4,
    metadata: Optional[Dict[str, str]] = None,
) -> IngestReport:
    """Convert an external trace into the chunked (or binary) layout.

    Parameters
    ----------
    input_path:
        The external trace file (text, ``.gz`` text, or raw binary).
    output_path:
        Destination: a directory for ``layout="chunked"``, a file for
        ``layout="binary"``.
    reader:
        Reader name (``"cbp"``, ``"raw"``) or ``"auto"`` to sniff.
    name:
        Trace name; defaults to the input file's stem.
    layout:
        ``"chunked"`` (the streaming RPCHUNK1 directory, the default) or
        ``"binary"`` (one monolithic RPTRACE1 file -- requires the whole
        trace in memory, intended for small traces and comparisons).
    chunk_branches:
        Records per chunk for the chunked layout.
    on_error:
        Gatekeeper policy: ``"reject"`` (default), ``"repair"``, ``"skip"``.
    default_gap:
        Instruction gap substituted when the input format carries none.
    metadata:
        Extra metadata recorded in the output (merged over the pipeline's
        own ``ingested-from``/``ingest-reader`` keys).
    """
    input_path = Path(input_path)
    output_path = Path(output_path)
    if layout not in LAYOUTS:
        raise ValueError(
            f"unknown layout {layout!r}; use one of {', '.join(LAYOUTS)}"
        )
    if not input_path.exists():
        raise FileNotFoundError(f"input trace {input_path} does not exist")
    trace_reader = resolve_reader(reader, input_path)
    gatekeeper = Gatekeeper(policy=on_error, default_gap=default_gap)
    trace_name = name or _default_name(input_path)
    trace_metadata = {
        "ingested-from": input_path.name,
        "ingest-reader": trace_reader.name,
    }
    if metadata:
        trace_metadata.update(metadata)

    started = time.perf_counter()
    batches = gatekeeper.validate(trace_reader.batches(input_path))
    if layout == "chunked":
        writer = ChunkedTraceWriter(
            output_path,
            name=trace_name,
            metadata=trace_metadata,
            chunk_branches=chunk_branches,
        )
        for columns in batches:
            writer.extend_columns(*columns)
        result: Union[Trace, ChunkedTrace] = writer.close()
        chunks = result.chunk_count
    else:
        trace = Trace(name=trace_name, metadata=trace_metadata)
        for columns in batches:
            trace.extend_columns(*columns)
        output_path.parent.mkdir(parents=True, exist_ok=True)
        save_trace_binary(trace, output_path)
        result = trace
        chunks = 0
    elapsed = time.perf_counter() - started

    return IngestReport(
        name=trace_name,
        input=str(input_path),
        output=str(output_path),
        layout=layout,
        reader=trace_reader.name,
        policy=on_error,
        records=len(result),
        conditional=result.conditional_count,
        instructions=result.instruction_count,
        repaired=gatekeeper.repaired,
        skipped=gatekeeper.skipped,
        chunks=chunks,
        fingerprint=result.fingerprint(),
        elapsed_seconds=elapsed,
        attributions=list(gatekeeper.attributions),
    )


def _default_name(path: Path) -> str:
    stem = path.stem
    if path.suffix == ".gz":
        stem = Path(stem).stem or stem
    return stem
