"""Real-trace ingestion: external formats -> streaming chunked traces.

The subsystem has three small layers:

* :mod:`repro.ingest.readers` -- format parsers (CBP-style text/gzip, raw
  binary events) behind a :func:`~repro.ingest.readers.register_reader`
  registry, producing attributed :class:`~repro.ingest.readers.RawEvent`
  streams;
* :mod:`repro.ingest.gatekeeper` -- the validation chokepoint with a
  reject / repair / skip policy and per-event source attribution;
* :mod:`repro.ingest.pipeline` -- :func:`ingest_trace`, the streaming
  conversion into the chunked ``RPCHUNK1`` layout
  (:mod:`repro.trace.chunked`) or a monolithic binary trace.

``repro ingest`` (:mod:`repro.cli`) is the command-line face of this
package; ``docs/TRACES.md`` documents the formats and guarantees.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".gatekeeper": ("Gatekeeper", "IngestError", "POLICIES"),
    ".pipeline": ("IngestReport", "ingest_trace"),
    ".readers": (
        "CBPTextReader", "RAW_MAGIC", "RawBinaryReader", "RawEvent", "TraceReader",
        "reader_names", "register_reader", "resolve_reader",
    ),
})

__all__ = [
    "CBPTextReader",
    "Gatekeeper",
    "IngestError",
    "IngestReport",
    "POLICIES",
    "RAW_MAGIC",
    "RawBinaryReader",
    "RawEvent",
    "TraceReader",
    "ingest_trace",
    "reader_names",
    "register_reader",
    "resolve_reader",
]
