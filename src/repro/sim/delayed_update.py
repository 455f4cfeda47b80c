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
from typing import Dict, List, Sequence

from repro.predictors.composites import CompositeOptions
from repro.sim.runner import SuiteRunner
from repro.trace.trace import Trace

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
    traces: Sequence[Trace],
    base: str = "tage-gsc",
    delays: Sequence[int] = (63,),
    profile: str = "default",
) -> List[DelayedUpdateResult]:
    """Run the Section 4.3.2 delayed-update experiment.

    The immediate configuration and every delayed one differ only in
    their IMLI heads, so one :meth:`~repro.sim.runner.SuiteRunner.run_specs`
    call runs them as one shared-core group per trace.

    Parameters
    ----------
    traces:
        Traces to evaluate on.
    base:
        Base predictor (``"tage-gsc"`` or ``"gehl"``).
    delays:
        Update delays (in conditional branches) to evaluate; the paper uses
        63.
    profile:
        Predictor size profile.
    """
    from repro.api.specs import PredictorSpec

    for delay in delays:
        if delay <= 0:
            raise ValueError(f"delays must be positive, got {delay}")
    specs = [
        PredictorSpec(
            base=CompositeOptions(
                base=base, imli_sic=True, imli_oh=True, oh_update_delay=delay
            ),
            profile=profile,
            name=f"{base}+imli(delay={delay})",
        )
        for delay in (0, *delays)
    ]
    runs = SuiteRunner(traces, profile=profile, store=False).run_specs(specs)
    immediate = runs[specs[0].label].average_mpki
    return [
        DelayedUpdateResult(
            base=base,
            delay=delay,
            immediate_mpki=immediate,
            delayed_mpki=runs[spec.label].average_mpki,
        )
        for delay, spec in zip(delays, specs[1:])
    ]


def summarize(results: Sequence[DelayedUpdateResult]) -> Dict[int, float]:
    """Map of delay to MPKI loss, for quick reporting."""
    return {result.delay: result.mpki_loss for result in results}
