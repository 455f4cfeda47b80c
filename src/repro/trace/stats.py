"""Descriptive statistics of branch traces.

These statistics are used by the workload generators' self-checks and by
the examples to characterise how "hard" a trace is before any predictor is
run on it: number of static branches, taken rate, fraction of backward
branches, average inner-loop trip count observed by the IMLI heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.trace.trace import Trace

__all__ = ["TraceStatistics", "compute_statistics"]


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics for one trace."""

    name: str
    total_branches: int
    conditional_branches: int
    instructions: int
    static_conditional_branches: int
    taken_rate: float
    backward_branch_fraction: float
    mean_inner_loop_trip_count: float


def compute_statistics(trace: Trace) -> TraceStatistics:
    """Compute :class:`TraceStatistics` for ``trace``.

    The mean inner-loop trip count is measured exactly the way the IMLI
    counter observes it: each time a backward conditional branch is not
    taken, the run of consecutive taken outcomes that preceded it is one
    completed inner loop execution.
    """
    conditional = 0
    taken = 0
    backward = 0
    static: Dict[int, int] = {}

    imli_count = 0
    completed_trip_counts = []

    for record in trace:
        if not record.is_conditional:
            continue
        conditional += 1
        taken += int(record.taken)
        static[record.pc] = static.get(record.pc, 0) + 1
        if record.is_backward:
            backward += 1
            if record.taken:
                imli_count += 1
            else:
                if imli_count:
                    completed_trip_counts.append(imli_count + 1)
                imli_count = 0

    mean_trip = (
        sum(completed_trip_counts) / len(completed_trip_counts)
        if completed_trip_counts
        else 0.0
    )
    return TraceStatistics(
        name=trace.name,
        total_branches=len(trace),
        conditional_branches=conditional,
        instructions=trace.instruction_count,
        static_conditional_branches=len(static),
        taken_rate=taken / conditional if conditional else 0.0,
        backward_branch_fraction=backward / conditional if conditional else 0.0,
        mean_inner_loop_trip_count=mean_trip,
    )
