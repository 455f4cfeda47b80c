"""Accuracy metrics and aggregation helpers.

The paper reports arithmetic-mean MPKI over each championship trace set and
relative MPKI reductions between configurations; these helpers compute both
from :class:`~repro.sim.engine.SimulationResult` objects.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.sim.result import SimulationResult

__all__ = [
    "average_mpki",
    "mpki_by_trace",
    "mpki_delta",
    "mpki_reduction_percent",
    "most_improved",
    "most_affected",
]


def average_mpki(results: Iterable[SimulationResult]) -> float:
    """Arithmetic mean MPKI over a collection of per-trace results."""
    results = list(results)
    if not results:
        raise ValueError("cannot average an empty result collection")
    return sum(result.mpki for result in results) / len(results)


def mpki_by_trace(results: Iterable[SimulationResult]) -> Dict[str, float]:
    """Map of trace name to MPKI."""
    return {result.trace_name: result.mpki for result in results}


def mpki_delta(
    baseline: Mapping[str, float], candidate: Mapping[str, float]
) -> Dict[str, float]:
    """Per-trace MPKI reduction (positive = candidate is better).

    Both mappings must cover the same trace names.
    """
    missing = set(baseline) ^ set(candidate)
    if missing:
        raise ValueError(f"baseline and candidate trace sets differ: {sorted(missing)}")
    return {name: baseline[name] - candidate[name] for name in baseline}


def mpki_reduction_percent(baseline_mpki: float, candidate_mpki: float) -> float:
    """Relative MPKI reduction in percent (positive = candidate is better)."""
    if baseline_mpki == 0:
        return 0.0
    return 100.0 * (baseline_mpki - candidate_mpki) / baseline_mpki


def most_improved(
    baseline: Mapping[str, float],
    candidate: Mapping[str, float],
    count: int,
) -> List[Tuple[str, float]]:
    """The ``count`` traces with the largest MPKI reduction, best first."""
    deltas = mpki_delta(baseline, candidate)
    ordered = sorted(deltas.items(), key=lambda item: item[1], reverse=True)
    return ordered[:count]


def most_affected(
    baseline: Mapping[str, float],
    candidates: Sequence[Mapping[str, float]],
    count: int,
) -> List[str]:
    """Trace names most affected (absolute MPKI change) by any candidate.

    Used to pick the "25 most affected benchmarks" of Figures 14 and 15.
    """
    impact: Dict[str, float] = {name: 0.0 for name in baseline}
    for candidate in candidates:
        for name, delta in mpki_delta(baseline, candidate).items():
            impact[name] = max(impact[name], abs(delta))
    ordered = sorted(impact.items(), key=lambda item: item[1], reverse=True)
    return [name for name, _ in ordered[:count]]
