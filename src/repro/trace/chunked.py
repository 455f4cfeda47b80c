"""Chunked on-disk traces: bounded-memory storage for huge branch traces.

A *chunked trace* is a directory (the ``RPCHUNK1`` layout) holding a JSON
manifest plus N chunk files, each chunk a complete binary trace blob in
the :func:`repro.trace.trace.trace_to_bytes` encoding::

    my-trace.rpchunk/
        manifest.json           # format, name, totals, per-chunk entries
        chunk-00000.rpt         # records [0, chunk_branches)
        chunk-00001.rpt         # records [chunk_branches, 2*chunk_branches)
        ...

Every chunk carries its own content fingerprint (the ordinary
:meth:`~repro.trace.trace.Trace.fingerprint` of the chunk's records under
the parent trace's name), and the manifest fingerprint is derived
*deterministically from the ordered chunk fingerprints* -- so the identity
of a chunked trace is computable without ever holding more than one chunk
in memory, and :class:`~repro.store.ResultStore` cell keys work unchanged.
Note the consequence: the chunk geometry is part of the identity.
Re-ingesting the same records with a different ``chunk_branches`` yields a
different fingerprint (and therefore fresh store cells), exactly like
regenerating a synthetic workload with different content.

:class:`ChunkedTrace` exposes the subset of the :class:`Trace` interface
the simulation engine needs -- ``name``, ``metadata``, ``len``,
``conditional_count``, ``instruction_count``, ``fingerprint()``, record
iteration -- plus :meth:`iter_chunks`, which the engine's fast path streams
so peak memory is bounded by the chunk size, not the trace length.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.trace.branch import BranchRecord
from repro.trace.trace import Trace, load_trace, trace_from_bytes, trace_to_bytes

__all__ = [
    "CHUNK_FORMAT",
    "DEFAULT_CHUNK_BRANCHES",
    "MANIFEST_NAME",
    "ChunkedTrace",
    "ChunkedTraceWriter",
    "chunked_fingerprint",
    "is_chunked_dir",
    "load_any_trace",
    "load_chunked_trace",
    "write_chunked_trace",
]

#: Format tag of the chunked layout (also the fingerprint domain tag).
CHUNK_FORMAT = "RPCHUNK1"

#: Manifest file name inside a chunked trace directory.
MANIFEST_NAME = "manifest.json"

#: Default records per chunk.  One record costs 26 bytes on disk, so the
#: default chunk is ~6.5 MiB -- small enough that a handful of decoded
#: chunks fit comfortably in memory, large enough that per-chunk overhead
#: (a file open, a fingerprint check, a dist frame) is negligible, and far
#: under the dist protocol's 64 MiB frame cap even after base64 expansion.
DEFAULT_CHUNK_BRANCHES = 250_000

_MANIFEST_VERSION = 1

#: Decoded chunks a :class:`ChunkedTrace` keeps in memory (LRU).  Two is
#: enough for sequential streaming plus one chunk of lookahead/re-read.
_DEFAULT_CACHE_CHUNKS = 2


def chunked_fingerprint(name: str, chunk_fingerprints: List[str]) -> str:
    """Manifest fingerprint: SHA-256 over the ordered chunk fingerprints.

    Domain-tagged with the format magic and the trace name so a chunked
    trace can never collide with a monolithic trace fingerprint, and so the
    identity is computable chunk-by-chunk in bounded memory.
    """
    digest = hashlib.sha256()
    digest.update(CHUNK_FORMAT.encode("ascii"))
    digest.update(b"|")
    digest.update(name.encode("utf-8"))
    for fingerprint in chunk_fingerprints:
        digest.update(b"|")
        digest.update(fingerprint.encode("ascii"))
    return digest.hexdigest()


def _chunk_file_name(index: int) -> str:
    return f"chunk-{index:05d}.rpt"


def validate_manifest(manifest: Any, source: str = "manifest") -> Dict[str, Any]:
    """Structurally validate a manifest dict (raises ``ValueError`` on junk).

    Used both when loading from disk and when a dist worker receives a
    manifest payload over the wire, so a malformed peer cannot crash the
    worker with a shape error deep inside the engine.  Returns the manifest
    unchanged on success.
    """
    if not isinstance(manifest, dict):
        raise ValueError(f"{source}: manifest must be a JSON object")
    if manifest.get("format") != CHUNK_FORMAT:
        raise ValueError(
            f"{source}: not a {CHUNK_FORMAT} manifest "
            f"(format={manifest.get('format')!r})"
        )
    if manifest.get("version") != _MANIFEST_VERSION:
        raise ValueError(
            f"{source}: unsupported manifest version {manifest.get('version')!r}"
        )
    if not isinstance(manifest.get("name"), str):
        raise ValueError(f"{source}: manifest needs a string 'name'")
    chunks = manifest.get("chunks")
    if not isinstance(chunks, list):
        raise ValueError(f"{source}: manifest needs a 'chunks' list")
    for index, entry in enumerate(chunks):
        if not isinstance(entry, dict):
            raise ValueError(f"{source}: chunk {index} entry must be an object")
        for key in ("file", "fingerprint"):
            if not isinstance(entry.get(key), str):
                raise ValueError(f"{source}: chunk {index} needs a string {key!r}")
        for key in ("records", "conditional", "instructions"):
            if not isinstance(entry.get(key), int) or entry[key] < 0:
                raise ValueError(
                    f"{source}: chunk {index} needs a non-negative int {key!r}"
                )
        name = entry["file"]
        if "/" in name or "\\" in name or name.startswith("."):
            raise ValueError(f"{source}: chunk {index} file name {name!r} unsafe")
    for key in ("records", "conditional", "instructions"):
        if not isinstance(manifest.get(key), int) or manifest[key] < 0:
            raise ValueError(f"{source}: manifest needs a non-negative int {key!r}")
    expected = chunked_fingerprint(
        manifest["name"], [entry["fingerprint"] for entry in chunks]
    )
    if manifest.get("fingerprint") != expected:
        raise ValueError(
            f"{source}: manifest fingerprint {manifest.get('fingerprint')!r} "
            f"does not match its chunk fingerprints (expected {expected})"
        )
    return manifest


class ChunkedTrace:
    """A trace stored as on-disk chunks, streamed in bounded memory.

    Parameters
    ----------
    directory:
        The chunk directory.  Chunk files are read from here on demand; a
        worker spooling fetched chunks points this at its spool directory.
    manifest:
        Pre-parsed manifest dict (e.g. received over the dist protocol).
        ``None`` reads ``manifest.json`` from ``directory``.
    fetch:
        Optional ``fetch(index) -> bytes`` hook invoked when a chunk file
        is missing from ``directory``; the returned bytes are verified
        against the manifest's chunk fingerprint and spooled to the
        directory before use (the dist worker's chunk transport).
    cache_chunks:
        Decoded chunks kept in an in-memory LRU (default 2).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        manifest: Optional[Dict[str, Any]] = None,
        fetch: Optional[Callable[[int], bytes]] = None,
        cache_chunks: int = _DEFAULT_CACHE_CHUNKS,
    ) -> None:
        if cache_chunks < 1:
            raise ValueError(f"cache_chunks must be positive, got {cache_chunks}")
        self.directory = Path(directory)
        if manifest is None:
            manifest_path = self.directory / MANIFEST_NAME
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            except FileNotFoundError:
                raise ValueError(
                    f"{self.directory} is not a chunked trace "
                    f"(no {MANIFEST_NAME})"
                ) from None
            except (OSError, json.JSONDecodeError) as error:
                raise ValueError(
                    f"{manifest_path}: unreadable manifest ({error})"
                ) from None
            manifest = validate_manifest(manifest, source=str(manifest_path))
        else:
            manifest = validate_manifest(manifest)
        self._manifest = manifest
        self._fetch = fetch
        self._cache_limit = cache_chunks
        self._cache: "OrderedDict[int, Trace]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Trace-compatible surface
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        return self._manifest["name"]

    @property
    def metadata(self) -> Dict[str, str]:
        return dict(self._manifest.get("metadata", {}))

    def __len__(self) -> int:
        return self._manifest["records"]

    @property
    def conditional_count(self) -> int:
        """Conditional branches in the whole trace (from the manifest)."""
        return self._manifest["conditional"]

    @property
    def instruction_count(self) -> int:
        """Total instructions represented (from the manifest)."""
        return self._manifest["instructions"]

    def fingerprint(self) -> str:
        """The manifest fingerprint (derived from the chunk fingerprints).

        This is the trace component of :class:`~repro.store.ResultStore`
        cell keys for chunked traces, and what :meth:`to_trace` seeds into
        the fully decoded :class:`Trace` so streaming and in-memory
        simulation of one ingested trace land in the same store cells.
        """
        return self._manifest["fingerprint"]

    def __iter__(self) -> Iterator[BranchRecord]:
        for chunk in self.iter_chunks():
            yield from chunk

    # ------------------------------------------------------------------ #
    # Chunk access
    # ------------------------------------------------------------------ #

    @property
    def manifest(self) -> Dict[str, Any]:
        """The manifest dict (treat as read-only)."""
        return self._manifest

    @property
    def chunk_count(self) -> int:
        return len(self._manifest["chunks"])

    def chunk_path(self, index: int) -> Path:
        return self.directory / self._manifest["chunks"][index]["file"]

    def chunk(self, index: int) -> Trace:
        """Decode chunk ``index`` (LRU-cached, fetched on local miss)."""
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached
        entry = self._manifest["chunks"][index]
        path = self.directory / entry["file"]
        if path.exists():
            chunk = trace_from_bytes(path.read_bytes(), source=str(path))
        else:
            chunk = self._fetch_chunk(index, entry, path)
        if len(chunk) != entry["records"]:
            raise ValueError(
                f"{path}: chunk {index} holds {len(chunk)} records, "
                f"manifest says {entry['records']}"
            )
        # Seed the chunk's fingerprint cache: the manifest entry *is* the
        # chunk fingerprint, so streaming consumers never re-hash chunks.
        chunk._fingerprint = entry["fingerprint"]
        self._cache[index] = chunk
        while len(self._cache) > self._cache_limit:
            self._cache.popitem(last=False)
        return chunk

    def _fetch_chunk(self, index: int, entry: Dict[str, Any], path: Path) -> Trace:
        if self._fetch is None:
            raise FileNotFoundError(
                f"chunk file {path} is missing and the trace has no fetch hook"
            )
        data = self._fetch(index)
        chunk = trace_from_bytes(data, source=f"fetched chunk {index}")
        if chunk.fingerprint() != entry["fingerprint"]:
            raise ValueError(
                f"fetched chunk {index} of {self.name!r} has fingerprint "
                f"{chunk.fingerprint()}, manifest says {entry['fingerprint']}"
            )
        # Spool to disk so re-reads (and later simulations on this worker)
        # never re-fetch; best-effort -- a read-only spool still works.
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(data)
            tmp.replace(path)
        except OSError:
            pass
        return chunk

    def iter_chunks(self) -> Iterator[Trace]:
        """Yield each chunk as a decoded :class:`Trace`, one at a time.

        This is the engine's streaming entry point: the fast simulation
        loops iterate these blocks with carried state, so peak memory is
        one or two decoded chunks regardless of trace length.
        """
        for index in range(self.chunk_count):
            yield self.chunk(index)

    def ensure_local(self) -> None:
        """Fetch/verify every chunk file onto disk (no decoding kept)."""
        for index, entry in enumerate(self._manifest["chunks"]):
            path = self.directory / entry["file"]
            if not path.exists():
                self._fetch_chunk(index, entry, path)

    def validate(self) -> None:
        """Re-hash every chunk file against the manifest (raises on drift)."""
        for index, entry in enumerate(self._manifest["chunks"]):
            chunk = self.chunk(index)
            # chunk() seeds the cached fingerprint from the manifest, so
            # recompute from the columns for a genuine integrity check.
            rehashed = Trace(name=chunk.name)
            rehashed.extend_columns(*chunk.columns())
            if rehashed.fingerprint() != entry["fingerprint"]:
                raise ValueError(
                    f"chunk {index} of {self.name!r} does not match its "
                    f"manifest fingerprint {entry['fingerprint']}"
                )

    def to_trace(self) -> Trace:
        """Fully decode into one in-memory :class:`Trace`.

        The returned trace's fingerprint cache is seeded with the
        *manifest* fingerprint, so simulating the decoded trace produces
        the same :class:`~repro.store.ResultStore` cell keys as streaming
        the chunked layout -- the bit-identity contract.  Mutating the
        returned trace invalidates the seeded cache as usual.
        """
        trace = Trace(name=self.name, metadata=self.metadata)
        for chunk in self.iter_chunks():
            trace.extend_columns(*chunk.columns())
        trace._fingerprint = self._manifest["fingerprint"]
        return trace

    # ------------------------------------------------------------------ #
    # Pickling (the suite runner's process pool ships traces to workers)
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> Dict[str, Any]:
        # The fetch hook (a closure over a live socket on dist workers) and
        # the decoded-chunk cache do not travel; the receiving process
        # re-reads chunks from the directory, so callers must ensure_local()
        # before shipping a trace whose chunks are not all on disk.
        return {
            "directory": str(self.directory),
            "manifest": self._manifest,
            "cache_chunks": self._cache_limit,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(
            state["directory"],
            manifest=state["manifest"],
            cache_chunks=state["cache_chunks"],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkedTrace({self.name!r}, {self.chunk_count} chunks, "
            f"{len(self)} records)"
        )


class ChunkedTraceWriter:
    """Incrementally write a chunked trace without holding it in memory.

    The ingest pipeline appends each validated batch of columns as it
    parses it; every ``chunk_branches`` records one chunk file is flushed
    to disk and the in-memory buffer reset, so converting an arbitrarily
    large input costs one chunk of memory.  :meth:`close` writes the
    manifest and returns the finished :class:`ChunkedTrace`.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        name: str,
        metadata: Optional[Dict[str, str]] = None,
        chunk_branches: int = DEFAULT_CHUNK_BRANCHES,
    ) -> None:
        if chunk_branches < 1:
            raise ValueError(
                f"chunk_branches must be positive, got {chunk_branches}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.name = name
        self.metadata = dict(metadata) if metadata else {}
        self.chunk_branches = chunk_branches
        self._buffer = Trace(name=name)
        self._entries: List[Dict[str, Any]] = []
        self._records = 0
        self._conditional = 0
        self._instructions = 0
        self._closed = False

    def extend_columns(self, pc, target, taken, kind, gap) -> None:
        """Append columns (:meth:`Trace.columns` order), cutting full chunks."""
        if self._closed:
            raise ValueError("writer is closed")
        start, total = 0, len(pc)
        while start < total:
            stop = min(total, start + self.chunk_branches - len(self._buffer))
            self._buffer.extend_columns(
                *(column[start:stop] for column in (pc, target, taken, kind, gap))
            )
            start = stop
            if len(self._buffer) >= self.chunk_branches:
                self._flush_chunk()

    def _flush_chunk(self) -> None:
        chunk = self._buffer
        index = len(self._entries)
        file_name = _chunk_file_name(index)
        (self.directory / file_name).write_bytes(trace_to_bytes(chunk))
        self._entries.append(
            {
                "file": file_name,
                "records": len(chunk),
                "conditional": chunk.conditional_count,
                "instructions": chunk.instruction_count,
                "fingerprint": chunk.fingerprint(),
            }
        )
        self._records += len(chunk)
        self._conditional += chunk.conditional_count
        self._instructions += chunk.instruction_count
        self._buffer = Trace(name=self.name)

    def close(self) -> ChunkedTrace:
        """Flush the final chunk, write the manifest, return the trace."""
        if self._closed:
            raise ValueError("writer is closed")
        if len(self._buffer) or not self._entries:
            # An empty input still yields one (empty) chunk so the layout
            # always has at least one chunk file and a defined fingerprint.
            self._flush_chunk()
        self._closed = True
        manifest = {
            "format": CHUNK_FORMAT,
            "version": _MANIFEST_VERSION,
            "name": self.name,
            "metadata": self.metadata,
            "chunk_branches": self.chunk_branches,
            "records": self._records,
            "conditional": self._conditional,
            "instructions": self._instructions,
            "fingerprint": chunked_fingerprint(
                self.name, [entry["fingerprint"] for entry in self._entries]
            ),
            "chunks": self._entries,
        }
        manifest_path = self.directory / MANIFEST_NAME
        tmp = manifest_path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(manifest, indent=2, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        tmp.replace(manifest_path)
        return ChunkedTrace(self.directory, manifest=manifest)


def write_chunked_trace(
    trace: Trace,
    directory: Union[str, Path],
    chunk_branches: int = DEFAULT_CHUNK_BRANCHES,
) -> ChunkedTrace:
    """Write an in-memory :class:`Trace` as a chunked directory."""
    writer = ChunkedTraceWriter(
        directory,
        name=trace.name,
        metadata=trace.metadata,
        chunk_branches=chunk_branches,
    )
    writer.extend_columns(*trace.columns())
    return writer.close()


def load_chunked_trace(directory: Union[str, Path]) -> ChunkedTrace:
    """Open a chunked trace directory (manifest validated, chunks lazy)."""
    return ChunkedTrace(directory)


def is_chunked_dir(path: Union[str, Path]) -> bool:
    """Whether ``path`` is a chunked trace directory."""
    path = Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


def load_any_trace(path: Union[str, Path]) -> Union[Trace, ChunkedTrace]:
    """Open any on-disk trace: chunked directory, binary file or text file.

    This is what every ``--trace PATH`` CLI option goes through, so an
    ingested chunked trace is addressable exactly like a plain trace file.
    """
    path = Path(path)
    if path.is_dir():
        if is_chunked_dir(path):
            return load_chunked_trace(path)
        raise ValueError(
            f"{path} is a directory but not a chunked trace "
            f"(no {MANIFEST_NAME}); point --trace at a trace file or a "
            f"'repro ingest' output directory"
        )
    return load_trace(path)
