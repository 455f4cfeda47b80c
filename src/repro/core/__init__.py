"""The paper's primary contribution: IMLI-based predictor components.

* :mod:`repro.core.imli` -- the Inner Most Loop Iteration counter itself.
* :mod:`repro.core.imli_sic` -- the IMLI-SIC (Same Iteration Correlation)
  prediction table.
* :mod:`repro.core.imli_oh` -- the IMLI-OH (Outer History) component: IMLI
  history table, PIPE vector (the trace-only :class:`OuterHistory`) and
  prediction table.
* :mod:`repro.core.component` -- the adder-tree component interface and the
  shared fetch-time state (histories, IMLI counter) these components plug
  into; the GEHL predictor and the TAGE-GSC statistical corrector in
  :mod:`repro.predictors` are built on the same interface.
* :mod:`repro.core.speculative` -- checkpoint-based speculative management
  of the IMLI state (the practicality argument of the paper).
"""

from repro.core.component import (
    CounterSelection,
    IndexedComponent,
    NeuralComponent,
    SharedState,
)
from repro.core.imli import IMLIState
from repro.core.imli_oh import IMLIOuterHistoryComponent, OuterHistory
from repro.core.imli_sic import IMLISameIterationComponent
from repro.core.speculative import (
    IMLICheckpoint,
    SpeculativeIMLITracker,
    checkpoint_cost_bits,
)

__all__ = [
    "CounterSelection",
    "IMLICheckpoint",
    "IMLIOuterHistoryComponent",
    "IMLISameIterationComponent",
    "IMLIState",
    "IndexedComponent",
    "NeuralComponent",
    "OuterHistory",
    "SharedState",
    "SpeculativeIMLITracker",
    "checkpoint_cost_bits",
]
