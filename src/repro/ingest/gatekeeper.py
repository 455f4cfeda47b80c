"""Gatekeeper validation between trace readers and the trace writers.

Readers (:mod:`repro.ingest.readers`) parse external formats into
:class:`~repro.ingest.readers.EventBatch` column batches without judging
them; the gatekeeper is the single place ingest semantics are enforced, so
every reader gets the same policy surface:

``reject``
    Raise :class:`IngestError` on the first bad event, naming the source
    location and the offending content (the default -- an ingested trace
    should be exactly what the input said).

``repair``
    Fix what is unambiguously fixable (a not-taken unconditional branch is
    forced taken, a missing target becomes the fall-through ``pc + 1``, an
    out-of-range gap is clamped) and count the repairs; unfixable events
    still raise.

``skip``
    Drop bad events and count them; the report says how many and shows the
    first few attributions.

Sanity checks cover field ranges (the columnar storage holds signed 64-bit
values), kind codes, taken-flag encoding, and a monotonicity guard on
source attribution so a buggy reader cannot silently interleave streams.

One bulk pass per batch runs those checks over whole columns; a batch that
passes goes to the writer as it came.  Only in a batch that fails it is
each row rebuilt as a :class:`~repro.ingest.readers.RawEvent` and judged by
the per-event rules (:meth:`Gatekeeper._check`), which alone reject, repair
or skip.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.ingest.readers import EventBatch, RawEvent
from repro.trace.branch import (
    CONDITIONAL_CODE,
    KIND_FROM_CODE,
    KIND_TO_CODE,
    BranchRecord,
)

__all__ = [
    "IngestError",
    "Gatekeeper",
    "POLICIES",
]

POLICIES = ("reject", "repair", "skip")

#: Columnar storage is signed 64-bit (`array("q")`).
_MAX_FIELD = 2**63 - 1

#: How many bad-event attributions the report keeps verbatim.
_KEPT_ATTRIBUTIONS = 5

#: ``bytes.translate`` table: 1 for a non-conditional kind code, else 0.
_NON_CONDITIONAL = bytes(int(code != CONDITIONAL_CODE) for code in range(256))

#: Accepted rows of one batch: ``(pc, target, taken, kind, gap)`` in the
#: column order of :meth:`repro.trace.trace.Trace.columns`.
Columns = Tuple[array, array, array, array, array]


class IngestError(ValueError):
    """An input event failed validation (carries source attribution)."""

    def __init__(self, message: str, source: str = "", raw: str = "") -> None:
        detail = message
        if source:
            detail = f"{source}: {detail}"
        if raw:
            detail = f"{detail} (input: {raw[:120]!r})"
        super().__init__(detail)
        self.source = source
        self.raw = raw


def _clean_columns(batch: EventBatch, gaps) -> Optional[Columns]:
    """The batch's columns when every row passes the bulk check, else ``None``.

    A row passes when pc, target and gap lie in ``[0, 2**63 - 1]``, the kind
    code is known, the taken flag is 0 or 1 and a non-conditional branch is
    taken -- exactly the rows the per-event rules accept unchanged.
    """
    try:
        pc, target, gap = (array("q", column) for column in (batch.pc, batch.target, gaps))
        taken, kind = bytes(batch.taken), bytes(batch.kind)
    except (OverflowError, TypeError, ValueError):
        return None
    if min(batch.pc) < 0 or min(batch.target) < 0 or min(gaps) < 0:
        return None
    if max(taken) > 1 or max(kind) >= len(KIND_FROM_CODE):
        return None
    non_conditional = int.from_bytes(kind.translate(_NON_CONDITIONAL), "little")
    if non_conditional & ~int.from_bytes(taken, "little"):
        return None
    return pc, target, array("b", taken), array("b", kind), gap


class Gatekeeper:
    """Validate :class:`EventBatch` streams into trace columns.

    One instance handles one ingest run; the counters (``accepted``,
    ``repaired``, ``skipped``) and ``attributions`` feed the ingest
    report.
    """

    def __init__(
        self, policy: str = "reject", default_gap: int = 4
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown ingest policy {policy!r}; use one of "
                f"{', '.join(POLICIES)}"
            )
        if not 0 <= default_gap <= _MAX_FIELD:
            raise ValueError(
                f"default gap must be in [0, 2**63 - 1], got {default_gap}"
            )
        self.policy = policy
        self.default_gap = default_gap
        self.accepted = 0
        self.repaired = 0
        self.skipped = 0
        self.attributions: List[str] = []

    # ------------------------------------------------------------------ #

    def _problem(self, event: RawEvent, message: str) -> None:
        """Record (skip) or raise one unfixable problem, per policy."""
        if self.policy == "skip":
            self.skipped += 1
            if len(self.attributions) < _KEPT_ATTRIBUTIONS:
                where = event.source or f"event {self.accepted + self.skipped}"
                self.attributions.append(f"{where}: {message}")
            return
        raise IngestError(message, source=event.source, raw=event.raw)

    def _repair(self, event: RawEvent, message: str) -> bool:
        """Whether a fixable problem may be repaired (else treat as problem)."""
        if self.policy == "repair":
            self.repaired += 1
            if len(self.attributions) < _KEPT_ATTRIBUTIONS:
                where = event.source or f"event {self.accepted + self.skipped}"
                self.attributions.append(f"{where}: repaired: {message}")
            return True
        self._problem(event, message)
        return False

    def validate(self, batches: Iterable[EventBatch]) -> Iterator[Columns]:
        """Yield each batch's accepted rows as columns, applying the policy."""
        last_position = -1
        for batch in batches:
            positions = batch.position
            if not len(positions):
                continue
            gaps = batch.gap
            if None in gaps:
                default = self.default_gap
                gaps = [default if gap is None else gap for gap in gaps]
            in_order = positions[0] >= last_position and list(positions) == sorted(positions)
            columns = _clean_columns(batch, gaps) if in_order else None
            if columns is None:
                columns = self._judge_rows(batch, last_position)
            else:
                self.accepted += len(positions)
            last_position = positions[-1]
            if len(columns[0]):
                yield columns

    def _judge_rows(self, batch: EventBatch, last_position: int) -> Columns:
        """Columns of a batch that failed the bulk check, row by row.

        Every row goes through :meth:`_check` in source order.  Monotonic
        source order is a *reader* invariant, not an input-quality issue,
        so a decreasing position raises under every policy.
        """
        kept: List[tuple] = []
        for row, position in enumerate(batch.position):
            event = batch.event(row)
            if position < last_position:
                raise IngestError(
                    f"events out of source order ({event.source} after "
                    f"position {last_position})",
                    source=event.source,
                    raw=event.raw,
                )
            last_position = position
            record = self._check(event)
            if record is not None:
                self.accepted += 1
                kept.append((
                    record.pc, record.taken, record.target,
                    KIND_TO_CODE[record.kind], record.instruction_gap,
                ))
        pc, taken, target, kind, gap = zip(*kept) if kept else ((),) * 5
        return (
            array("q", pc), array("q", target), array("b", taken),
            array("b", kind), array("q", gap),
        )

    def _check(self, event: RawEvent) -> Optional[BranchRecord]:
        if event.pc < 0 or event.pc > _MAX_FIELD:
            self._problem(event, "malformed event (unparseable or pc out of range)")
            return None
        if not 0 <= event.kind_code < len(KIND_FROM_CODE):
            self._problem(event, f"unknown branch kind code {event.kind_code}")
            return None
        taken = event.taken
        if not isinstance(taken, bool):
            if taken in (0, 1):
                taken = bool(taken)
            else:
                if not self._repair(event, f"taken flag {taken!r} coerced to True"):
                    return None
                taken = True
        if event.kind_code != CONDITIONAL_CODE and not taken:
            if not self._repair(
                event, "non-conditional branch marked not-taken; forced taken"
            ):
                return None
            taken = True
        target = event.target
        if target is None:
            target = event.pc + 1
        elif target < 0 or target > _MAX_FIELD:
            if not self._repair(
                event, f"target {target} out of range; using fall-through"
            ):
                return None
            target = event.pc + 1
        if target > _MAX_FIELD:
            self._problem(event, f"fall-through target of pc {event.pc} out of range")
            return None
        gap = event.gap
        if gap is None:
            gap = self.default_gap
        elif gap < 0 or gap > _MAX_FIELD:
            if not self._repair(event, f"instruction gap {gap} clamped to 0"):
                return None
            gap = 0
        return BranchRecord(
            pc=event.pc,
            target=target,
            taken=taken,
            kind=KIND_FROM_CODE[event.kind_code],
            instruction_gap=gap,
        )
