"""Wire protocol of the distributed sweep service.

Everything on the wire is a **frame**: one JSON object, UTF-8 encoded, on
one ``\\n``-terminated line.  Line-delimited JSON keeps the protocol
trivially debuggable (``nc`` into a coordinator and type frames by hand)
and means neither side ever needs a streaming parser -- a frame is a
``readline()`` and a ``json.loads``.

Sessions are strict request/response: the client (a worker or a
submitter) writes one frame and reads frames until it has the reply it
needs, so there is no multiplexing to get wrong.  The coordinator answers
every request with exactly one frame, except for a submitted job, where
it streams ``progress`` frames before the final ``job_done``.

Worker session::

    -> {"type": "hello", "role": "worker", "protocol": 1, "worker": "w1"}
    <- {"type": "welcome", "protocol": 1, "lease_timeout": 120.0,
        "renew": true}                        # "renew" advertises heartbeat
                                              # lease renewal; absent on older
                                              # coordinators, where workers
                                              # simply never send "renew"
    -> {"type": "lease"}                      # or {"type": "lease", "max_cells": 8}
                                              # an idle worker adds "hold": 1.0
                                              # (seconds, at most MAX_LEASE_HOLD)
                                              # and the coordinator answers when
                                              # work arrives, it shuts down or
                                              # the hold runs out
    <- {"type": "work", "item": {"cell": 7, "label": ..., "spec": ...,
        "profile": ..., "trace": "<fingerprint>", "trace_name": ...,
        "track_per_pc": false, "store_key": "..."}}
       | {"type": "work", "items": [{...}, ...]}  # batched grant: only in
                                              # reply to a "max_cells" lease;
                                              # all items share one trace
       | {"type": "wait", "delay": 0.25}      # nothing leasable right now
                                              # ("delay": 0 after a hold)
       | {"type": "shutdown"}                 # coordinator is closing
    -> {"type": "renew", "cells": [7, 8]}     # heartbeat while simulating:
    <- {"type": "renewed", "cells": [7, 8],   # extends the leases still owned
        "lost": []}                           # by this connection; "lost" ids
                                              # were requeued or completed and
                                              # must not be renewed again
    -> {"type": "fetch_trace", "fingerprint": "..."}
    <- {"type": "trace", "fingerprint": "...", "data": "<base64>"}
       | {"type": "trace", "fingerprint": "...", "manifest": {...}}
                                              # chunked trace: the reply
                                              # carries the RPCHUNK1 manifest
                                              # instead of "data"; the worker
                                              # then fetches chunks (additive
                                              # key -- a monolithic trace
                                              # never triggers it)
    -> {"type": "fetch_trace_chunk", "fingerprint": "...", "chunk": 3}
    <- {"type": "trace_chunk", "fingerprint": "...", "chunk": 3,
        "data": "<base64>"}                   # one RPTRACE1 chunk blob; the
                                              # worker verifies it against the
                                              # manifest's chunk fingerprint
    -> {"type": "result", "cell": 7, "result": {...}}   # result_to_dict form
    <- {"type": "ack", "cell": 7, "accepted": true}

Submit session::

    -> {"type": "submit", "protocol": 1, "track_per_pc": false,
        "specs": [{"label": ..., "spec": ..., "profile": ...}, ...],
        "traces": ["<base64>", ...],
        "cells": [["label", 0], ...]}         # optional subset
    <- {"type": "accepted", "job": 1, "total": 12, "done": 3}
    <- {"type": "progress", "job": 1, "done": 4, "total": 12,
        "requeued": 0, "retried": 0, "quarantined": 0}   # streamed; the
                                              # stat keys are additive in
                                              # protocol 1 (older clients
                                              # ignore unknown keys)
    <- {"type": "job_done", "job": 1,
        "cells": [{"label": ..., "index": 0, "result": {...}}, ...],
        "requeued": 0, "retried": 0, "quarantined": 1,
        "quarantined_cells": [{"label": ..., "index": 3, "error": "..."}]}
                                              # "quarantined_cells" only when
                                              # nonempty: cells abandoned after
                                              # exhausting their lease-loss
                                              # budget, with attributed errors

Both directions tolerate *additive* keys inside version-1 frames -- that
is how lease renewal and the fault-tolerance stats arrived without a
version bump: a worker only sends ``renew`` after seeing the ``welcome``
advertise it, and clients ignore stat keys they do not know.  The
observability layer rides the same rule: instrumented workers attach
``"timings"`` (a ``{phase: seconds}`` mapping) and ``"batch"`` (cells
sharing those walls) to ``result`` frames, and the coordinator treats
both as optional -- pre-instrumentation peers interoperate unchanged.
So does disk-pressure signalling: workers attach ``"low_disk"`` (bool)
to their ``hello`` and ``renew`` frames when their trace-spool headroom
is low (:mod:`repro.common.diskguard`), and the coordinator then stops
leasing them chunked-trace cells until the pressure clears; a frame
without the key is a pre-diskguard worker and is treated as having
headroom.  Long-polling is additive too: a ``lease`` with ``"hold"``
waits at the coordinator for up to that many seconds (capped at
:data:`MAX_LEASE_HOLD`) instead of being told to retry later; a
pre-``hold`` coordinator ignores the key and answers ``wait`` with its
usual delay, which the worker sleeps as before.

A malformed, oversized or unexpected frame gets a ``{"type": "error",
"message": ...}`` reply (best effort) and the connection is closed; any
cells the connection had leased are requeued.  The payload helpers here
(trace / size-profile / result codecs) are pure JSON -- the protocol
never unpickles anything, so a hostile peer can waste a connection but
not execute code.
"""

from __future__ import annotations

import base64
import json
import socket
from dataclasses import asdict
from typing import Any, BinaryIO, Dict, Optional

from repro.predictors.composites import SizeProfile
from repro.predictors.gehl import GEHLConfig
from repro.predictors.statistical_corrector import StatisticalCorrectorConfig
from repro.predictors.tage import TAGEConfig
from repro.trace.trace import Trace, trace_from_bytes, trace_to_bytes

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_LEASE_HOLD",
    "ProtocolError",
    "ConnectionClosed",
    "read_frame",
    "write_frame",
    "expect",
    "encode_trace",
    "decode_trace",
    "encode_chunk",
    "decode_chunk",
    "MAX_TRACE_PAYLOAD",
    "profile_to_payload",
    "profile_from_payload",
    "spec_entry",
]

#: Bump on incompatible frame-shape changes; ``hello``/``submit`` carry it
#: so mismatched peers fail with a clear error instead of confusion.
PROTOCOL_VERSION = 1

#: Upper bound on one frame line.  Traces travel base64-encoded inside
#: frames, so this must hold the largest trace plus JSON overhead; 64 MiB
#: is ~600x the default sweep workload and still a sane flood guard.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Longest a ``lease`` may wait at the coordinator for work (its optional
#: ``hold`` key, in seconds); bounds how long an idle worker's connection
#: is busy with one exchange.
MAX_LEASE_HOLD = 1.0


class ProtocolError(Exception):
    """A peer sent something that is not a valid frame for this state."""


class ConnectionClosed(ProtocolError):
    """The peer went away (clean EOF or a dead socket).

    Distinct from :class:`ProtocolError` junk so a worker can treat a
    coordinator that closed the connection as a normal shutdown signal.
    """


def write_frame(stream: BinaryIO, frame: Dict[str, Any]) -> None:
    """Serialize one frame to ``stream`` and flush it.

    Raises :class:`ConnectionClosed` when the peer is gone.
    """
    payload = json.dumps(frame, separators=(",", ":"), ensure_ascii=False)
    try:
        stream.write(payload.encode("utf-8") + b"\n")
        stream.flush()
    except (BrokenPipeError, ConnectionResetError) as error:
        raise ConnectionClosed(f"connection lost: {error}") from None


def read_frame(stream: BinaryIO) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF, :class:`ProtocolError` on junk.

    Junk covers unparseable bytes, a non-object payload, an overlong line
    and a line truncated by mid-frame connection loss.
    """
    try:
        line = stream.readline(MAX_FRAME_BYTES + 1)
    except (OSError, ValueError) as error:  # closed socket file
        raise ConnectionClosed(f"connection lost: {error}") from None
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    if not line.endswith(b"\n"):
        raise ProtocolError("truncated frame (connection lost mid-line)")
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"unparseable frame: {error}") from None
    if not isinstance(frame, dict) or not isinstance(frame.get("type"), str):
        raise ProtocolError("a frame must be a JSON object with a string 'type'")
    return frame


def expect(frame: Optional[Dict[str, Any]], *types: str) -> Dict[str, Any]:
    """Validate that ``frame`` exists and has one of the expected types.

    An ``error`` frame from the peer is surfaced with its message; EOF and
    unexpected types raise :class:`ProtocolError`.
    """
    if frame is None:
        raise ConnectionClosed("connection closed by peer")
    kind = frame["type"]
    if kind == "error" and "error" not in types:
        raise ProtocolError(f"peer reported: {frame.get('message', 'unknown error')}")
    if kind not in types:
        raise ProtocolError(f"expected {'/'.join(types)} frame, got {kind!r}")
    return frame


def connect(host: str, port: int, timeout: Optional[float] = None) -> socket.socket:
    """One TCP connection to a coordinator (Nagle off: frames are small)."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


# --------------------------------------------------------------------------- #
# Payload codecs (pure JSON -- never pickle on the wire)
# --------------------------------------------------------------------------- #


#: Ceiling on one base64 trace (or chunk) payload inside a frame, leaving
#: headroom for the frame's JSON envelope under :data:`MAX_FRAME_BYTES`.
MAX_TRACE_PAYLOAD = MAX_FRAME_BYTES - 4096


def encode_trace(trace: Trace) -> str:
    """Base64 text of the trace's compact binary form.

    A trace too large for one frame raises an actionable
    :class:`ProtocolError` up front -- naming the trace and its size --
    instead of letting the peer's frame cap reject the bytes later.  Big
    traces are not meant to travel monolithically at all: ingest them into
    the chunked layout (``repro ingest convert --chunk-branches ...``) and
    submit the :class:`~repro.trace.chunked.ChunkedTrace`, which ships
    per-chunk via ``fetch_trace_chunk`` frames.
    """
    data = base64.b64encode(trace_to_bytes(trace)).decode("ascii")
    if len(data) > MAX_TRACE_PAYLOAD:
        raise ProtocolError(
            f"trace {trace.name!r} ({len(trace)} records) encodes to "
            f"{len(data)} bytes, over the {MAX_FRAME_BYTES}-byte frame cap; "
            f"convert it to the chunked layout with 'repro ingest convert "
            f"--chunk-branches N' and submit the chunked directory instead "
            f"of a monolithic trace"
        )
    return data


def decode_trace(data: str) -> Trace:
    """Inverse of :func:`encode_trace`."""
    try:
        raw = base64.b64decode(data.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError, AttributeError) as error:
        raise ProtocolError(f"invalid trace payload: {error}") from None
    try:
        return trace_from_bytes(raw, source="trace payload")
    except (ValueError, KeyError, TypeError, EOFError) as error:
        raise ProtocolError(f"invalid trace payload: {error}") from None


def encode_chunk(data: bytes) -> str:
    """Base64 text of one chunk file's bytes (a complete RPTRACE1 blob).

    Chunk payloads obey the same frame-cap headroom as monolithic traces;
    the chunked writer's default sizing keeps chunks far below it, so this
    only trips on layouts written with an absurd ``--chunk-branches``.
    """
    payload = base64.b64encode(data).decode("ascii")
    if len(payload) > MAX_TRACE_PAYLOAD:
        raise ProtocolError(
            f"trace chunk encodes to {len(payload)} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte frame cap; re-ingest the trace with a "
            f"smaller --chunk-branches"
        )
    return payload


def decode_chunk(data: str) -> bytes:
    """Inverse of :func:`encode_chunk` (bytes only; the caller decodes)."""
    try:
        return base64.b64decode(data.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError, AttributeError) as error:
        raise ProtocolError(f"invalid trace chunk payload: {error}") from None


def profile_to_payload(profile: SizeProfile) -> Dict[str, Any]:
    """JSON-safe dict of a resolved :class:`SizeProfile`."""
    return asdict(profile)


def spec_entry(label: str, spec: Any, sizes: SizeProfile) -> Dict[str, Any]:
    """One ``submit`` frame spec entry: ``{"label", "spec", "profile"}``.

    ``spec`` is a resolved :class:`~repro.api.specs.PredictorSpec` and
    ``sizes`` the :class:`SizeProfile` its profile name resolved to.
    """
    return {"label": label, "spec": spec.to_dict(), "profile": profile_to_payload(sizes)}


def profile_from_payload(payload: Dict[str, Any]) -> SizeProfile:
    """Inverse of :func:`profile_to_payload`.

    Rebuilds the nested geometry dataclasses explicitly (``asdict``
    flattens them to plain dicts); a payload with unknown or missing
    fields raises :class:`ProtocolError`.
    """
    try:
        fields = dict(payload)
        return SizeProfile(
            tage=TAGEConfig(**fields.pop("tage")),
            corrector=StatisticalCorrectorConfig(**fields.pop("corrector")),
            gehl=GEHLConfig(**fields.pop("gehl")),
            **fields,
        )
    except (TypeError, ValueError, KeyError, AttributeError) as error:
        raise ProtocolError(f"invalid size-profile payload: {error}") from None
