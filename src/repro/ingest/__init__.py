"""Real-trace ingestion: external formats -> streaming chunked traces.

The subsystem has three small layers:

* :mod:`repro.ingest.readers` -- format parsers (CBP-style text/gzip, raw
  binary events) behind a :func:`~repro.ingest.readers.register_reader`
  registry, producing attributed
  :class:`~repro.ingest.readers.EventBatch` column batches;
* :mod:`repro.ingest.gatekeeper` -- the validation chokepoint: one bulk
  check per batch, and a reject / repair / skip policy with per-event
  source attribution for the rows of batches that fail it;
* :mod:`repro.ingest.pipeline` -- :func:`ingest_trace`, the streaming
  conversion into the chunked ``RPCHUNK1`` layout
  (:mod:`repro.trace.chunked`) or a monolithic binary trace, a batch of
  columns at a time.

``repro ingest`` (:mod:`repro.cli`) is the command-line face of this
package; ``docs/TRACES.md`` documents the formats and guarantees.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".gatekeeper": ("Gatekeeper", "IngestError", "POLICIES"),
    ".pipeline": ("IngestReport", "ingest_trace"),
    ".readers": (
        "CBPTextReader", "EventBatch", "RAW_MAGIC", "RawBinaryReader", "RawEvent",
        "TraceReader",
        "reader_names", "register_reader", "resolve_reader",
    ),
})

__all__ = [
    "CBPTextReader",
    "EventBatch",
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
