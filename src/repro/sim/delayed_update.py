"""Delayed-update experiment for the IMLI outer-history table.

Section 4.3.2 of the paper argues that precise speculative management of
the IMLI history table is unnecessary: the authors simulate a configuration
where each branch's write into the IMLI history table only becomes visible
after the next 63 conditional branches (modelling a very large instruction
window) and observe virtually no accuracy loss (0.002 MPKI).

This module reproduces that experiment: it runs an IMLI-augmented
configuration with immediate updates and with a configurable update delay
applied to the IMLI outer-history structures, and reports the average MPKI
difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.predictors.composites import CompositeOptions
from repro.sim.metrics import average_mpki
from repro.sim.result import SimulationResult
from repro.sim.runner import SuiteRunner

__all__ = ["DelayedUpdateResult", "run_delayed_update_experiment"]


@dataclass(frozen=True)
class DelayedUpdateResult:
    """Average MPKI with immediate and delayed IMLI history updates."""

    base: str
    delay: int
    immediate_mpki: float
    delayed_mpki: float

    @property
    def mpki_loss(self) -> float:
        """Accuracy loss caused by the delayed update (positive = worse)."""
        return self.delayed_mpki - self.immediate_mpki


def run_delayed_update_experiment(
    runners: Mapping[str, SuiteRunner],
    base: str = "tage-gsc",
    delays: Sequence[int] = (63,),
) -> List[DelayedUpdateResult]:
    """Run the Section 4.3.2 delayed-update experiment.

    The immediate configuration and every delayed one differ only in
    their IMLI heads, so one :meth:`~repro.sim.runner.SuiteRunner.run_specs`
    call per runner runs them as one shared-core group per trace.  The
    cells are ordinary store and memo cells of the runners; the immediate
    one is the cell of ``{base}+imli``.

    Parameters
    ----------
    runners:
        Per-suite runners, as every experiment takes them; each runs its
        traces at its own profile, and the averages are over every
        runner's traces, in the mapping's order.
    base:
        Base predictor (``"tage-gsc"`` or ``"gehl"``).
    delays:
        Update delays (in conditional branches) to evaluate; the paper uses
        63.
    """
    from repro.api.specs import PredictorSpec

    for delay in delays:
        if delay <= 0:
            raise ValueError(f"delays must be positive, got {delay}")
    every_delay = (0, *delays)
    results: List[List[SimulationResult]] = [[] for _ in every_delay]
    for runner in runners.values():
        specs = [
            PredictorSpec(
                base=CompositeOptions(
                    base=base, imli_sic=True, imli_oh=True, oh_update_delay=delay
                ),
                profile=runner.profile,
                name=f"{base}+imli(delay={delay})",
            )
            for delay in every_delay
        ]
        runs = runner.run_specs(specs)
        for collected, spec in zip(results, specs):
            collected += runs[spec.label].results
    immediate = average_mpki(results[0])
    return [
        DelayedUpdateResult(
            base=base,
            delay=delay,
            immediate_mpki=immediate,
            delayed_mpki=average_mpki(collected),
        )
        for delay, collected in zip(delays, results[1:])
    ]


def summarize(results: Sequence[DelayedUpdateResult]) -> Dict[int, float]:
    """Map of delay to MPKI loss, for quick reporting."""
    return {result.delay: result.mpki_loss for result in results}
