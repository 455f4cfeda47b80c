"""In-memory span tracer built from class-level wrappers.

:class:`Tracer` replaces a method on its class (or a function on its module)
with a wrapper that records, per thread, how long each call took and how
much of that its nested wrapped calls took.  A layer's *self* time is the
sum of its calls' durations minus their children's, so nested layers never
count twice.  Calls are aggregated per layer (the per-branch layers make
millions of calls); calls of the layers named in ``keep_spans`` are also
kept as individual spans.  Nothing is written until the caller asks.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class _ThreadStats:
    """One thread's accumulators and its stack of open spans."""

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.stack: List[float] = []  # child seconds of each open span
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: List[Tuple[str, float, float, int]] = []


#: ``counter(counts, args, result)``: bumps ``counts`` after one call.
CountHook = Callable[[Counter, tuple, object], None]


class Tracer:
    """Wraps layer entry points; reports self time, calls and counts per layer."""

    def __init__(
        self, keep_spans: Iterable[str] = (), clock: Callable[[], float] = time.perf_counter
    ) -> None:
        """``clock`` times the spans: wall time by default; pass
        ``time.thread_time`` when several busy threads share the process,
        so a span never counts the time its thread waited for the GIL."""
        self.keep_spans = frozenset(keep_spans)
        self.clock = clock
        #: ``owner.attr (layer)`` of entry points absent from the program.
        self.missing: List[str] = []
        self._local = threading.local()
        self._threads: List[_ThreadStats] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- wrapping ---------------------------------------------------------- #

    def _stats(self) -> _ThreadStats:
        try:
            return self._local.stats
        except AttributeError:
            stats = self._local.stats = _ThreadStats(threading.current_thread().name)
            self._threads.append(stats)  # list.append is atomic under the GIL
            return stats

    def _original(self, owner, attr: str, layer: str):
        """``owner.attr``, or ``None`` (recorded in :attr:`missing`) when the
        program no longer has it, so the caller can fail the run by name."""
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            name = f"{getattr(owner, '__name__', owner)}.{attr} ({layer})"
            if name not in self.missing:
                self.missing.append(name)
        return original

    def _patch(self, owner, attr: str, wrapper) -> None:
        owned = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, wrapper)

    def span(
        self, owner, attr: str, layer: str, counter: Optional[CountHook] = None
    ) -> None:
        """Time every call of ``owner.attr`` as layer ``layer``.

        ``counter(counts, args, result)`` runs after the timed call.
        """
        original = self._original(owner, attr, layer)
        if original is None:
            return
        keep = layer in self.keep_spans
        stats_for = self._stats
        clock = self.clock

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stats = stats_for()
            stack = stats.stack
            start = clock()
            stack.append(0.0)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stats.self_s[layer] += duration - stack.pop()
                stats.total_s[layer] += duration
                stats.calls[layer] += 1
                if stack:
                    stack[-1] += duration
                if keep:
                    stats.spans.append((layer, start, end, len(stack)))
            if counter is not None:
                counter(stats.counts, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def hook(self, owner, attr: str, counter: CountHook, layer: str) -> None:
        """Count calls of ``owner.attr`` (feeding ``layer``) without timing them."""
        original = self._original(owner, attr, layer)
        if original is None:
            return
        stats_for = self._stats

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counter(stats_for().counts, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results ----------------------------------------------------------- #

    def _merged(self, field: str) -> Dict[str, float]:
        merged: Dict[str, float] = defaultdict(float)
        for stats in self._threads:
            for key, value in getattr(stats, field).items():
                merged[key] += value
        return merged

    def self_seconds(self) -> Dict[str, float]:
        return self._merged("self_s")

    def total_seconds(self) -> Dict[str, float]:
        return self._merged("total_s")

    def calls(self) -> Dict[str, float]:
        return self._merged("calls")

    def counts(self) -> Dict[str, float]:
        return self._merged("counts")

    def spans(self) -> List[dict]:
        """Every kept span, ordered by start time."""
        return sorted(
            (
                {"layer": layer, "start": start, "end": end, "depth": depth,
                 "thread": stats.thread}
                for stats in self._threads
                for layer, start, end, depth in stats.spans
            ),
            key=lambda span: span["start"],
        )
