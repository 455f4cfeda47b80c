"""The adder tree shared by GEHL and the statistical corrector.

GEHL-style neural predictors compute the sum of small signed counters read
from several component tables and predict the sign of the sum.  Training
uses the classic threshold rule: the selected counters are moved toward the
outcome when the prediction was wrong *or* the magnitude of the sum was
below an (adaptively adjusted) confidence threshold.

The :class:`AdderTree` here owns the components, the summation and the
adaptive threshold; :class:`~repro.predictors.gehl.GEHLPredictor` and
:class:`~repro.predictors.statistical_corrector.StatisticalCorrector` are
thin layers on top of it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.component import CounterSelection, NeuralComponent, SharedState
from repro.trace.branch import BranchRecord

__all__ = ["AdderTree"]


class AdderTree:
    """Sums counters from a set of :class:`NeuralComponent` inputs.

    Parameters
    ----------
    components:
        The adder-tree inputs (global-history tables, bias tables, IMLI
        components, local-history tables ...).
    state:
        The owning predictor's shared state; every component is bound to
        it (:meth:`~repro.core.component.NeuralComponent.bind`).
    initial_threshold:
        Starting value of the adaptive training/confidence threshold.
    threshold_counter_bits:
        Width of the saturating counter that drives threshold adaptation
        (the ``TC`` counter of O-GEHL).
    """

    def __init__(
        self,
        components: Sequence[NeuralComponent],
        state: SharedState,
        initial_threshold: int = 8,
        threshold_counter_bits: int = 7,
    ) -> None:
        if not components:
            raise ValueError("an adder tree needs at least one component")
        if initial_threshold < 0:
            raise ValueError(
                f"initial threshold must be non-negative, got {initial_threshold}"
            )
        self.components: List[NeuralComponent] = list(components)
        for component in self.components:
            component.bind(state)
        # Components whose on_outcome hook actually does something; resolved
        # lazily (and re-resolved whenever the component list grows, since
        # callers may append components after construction).
        self._outcome_components: Optional[List[NeuralComponent]] = None
        self._outcome_scan_size = -1
        self.threshold = initial_threshold
        self._threshold_counter = 0
        self._threshold_counter_max = (1 << (threshold_counter_bits - 1)) - 1
        self._threshold_counter_min = -(1 << (threshold_counter_bits - 1))
        self._threshold_counter_bits = threshold_counter_bits

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #

    def compute(
        self, pc: int, state: SharedState
    ) -> Tuple[int, List[List[CounterSelection]]]:
        """Return ``(sum, per-component selections)`` for branch ``pc``.

        Each selected counter ``c`` contributes ``2*c + 1`` to the sum (the
        standard centring that makes a zero counter lean weakly taken), so
        the sign of the sum is the prediction and its magnitude the
        confidence.
        """
        total = 0
        all_selections: List[List[CounterSelection]] = []
        append = all_selections.append
        for component in self.components:
            selections, contribution = component.select_sum(pc, state)
            total += contribution
            append(selections)
        return total, all_selections

    def compute_with_shared(
        self,
        pc: int,
        state: SharedState,
        reads: Sequence[Tuple[Callable, int]],
        shared: Sequence,
    ) -> Tuple[int, List[List[CounterSelection]]]:
        """:meth:`compute` over indices a shared-core group hashed once.

        ``reads`` has one ``(read, slot)`` pair per component: ``read`` is
        the component's
        :meth:`~repro.core.component.IndexedComponent.select_sum_at` and
        ``shared[slot]`` its precomputed indices.
        """
        total = 0
        all_selections: List[List[CounterSelection]] = []
        append = all_selections.append
        for read, slot in reads:
            selections, contribution = read(shared[slot])
            total += contribution
            append(selections)
        return total, all_selections

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    def train(
        self,
        record: BranchRecord,
        total: int,
        all_selections: List[List[CounterSelection]],
        state: SharedState,
        force: bool = False,
    ) -> None:
        """Apply the threshold training rule for one resolved branch.

        ``force`` trains the counters regardless of the threshold test; the
        statistical corrector uses it when the *final* (post-correction)
        prediction was wrong even though the adder tree itself looked
        confident.
        """
        self.train_fields(
            record.pc, record.target, record.taken, total, all_selections, state, force
        )

    def train_fields(
        self,
        pc: int,
        target: int,
        taken: bool,
        total: int,
        all_selections: List[List[CounterSelection]],
        state: SharedState,
        force: bool = False,
    ) -> None:
        """Field-based form of :meth:`train` (the per-branch hot path)."""
        adder_prediction = total >= 0
        mispredicted = adder_prediction != taken
        if force or mispredicted or abs(total) <= self.threshold:
            for component, selections in zip(self.components, all_selections):
                component.train(pc, taken, selections, state)
            self._adapt_threshold(mispredicted, total)
        outcome_components = self._outcome_components
        if outcome_components is None or self._outcome_scan_size != len(self.components):
            outcome_components = self._scan_outcome_components()
        for component in outcome_components:
            component.on_outcome_fields(pc, target, taken, state)

    def _scan_outcome_components(self) -> List[NeuralComponent]:
        """Resolve which components need the per-branch outcome hook.

        A component that overrides the record-based ``on_outcome`` without
        overriding ``on_outcome_fields`` would be silently skipped on both
        call paths (the record path delegates to the field path), so that
        is rejected loudly here.
        """
        outcome_components = []
        base_fields_hook = NeuralComponent.on_outcome_fields
        base_record_hook = NeuralComponent.on_outcome
        for component in self.components:
            kind = type(component)
            if kind.on_outcome_fields is not base_fields_hook:
                outcome_components.append(component)
            elif kind.on_outcome is not base_record_hook:
                raise TypeError(
                    f"{kind.__name__} overrides on_outcome() but not "
                    "on_outcome_fields(); override on_outcome_fields() so the "
                    "hook runs on both the record and the columnar call paths"
                )
        self._outcome_components = outcome_components
        self._outcome_scan_size = len(self.components)
        return outcome_components

    def _adapt_threshold(self, mispredicted: bool, total: int) -> None:
        """O-GEHL style dynamic threshold fitting.

        Mispredictions push the threshold up (train more aggressively);
        correct-but-low-confidence predictions push it back down, keeping
        the number of threshold-triggered updates roughly balanced.
        """
        if mispredicted:
            self._threshold_counter += 1
            if self._threshold_counter >= self._threshold_counter_max:
                self._threshold_counter = 0
                self.threshold += 1
        elif abs(total) <= self.threshold:
            self._threshold_counter -= 1
            if self._threshold_counter <= self._threshold_counter_min:
                self._threshold_counter = 0
                if self.threshold > 0:
                    self.threshold -= 1

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def storage_bits(self) -> int:
        """Storage of every component plus the threshold machinery."""
        bits = sum(component.storage_bits() for component in self.components)
        # Adaptive threshold register and its adaptation counter.
        return bits + 8 + self._threshold_counter_bits

    def speculative_state_bits(self) -> int:
        """Per-checkpoint state required by the components."""
        return sum(component.speculative_state_bits() for component in self.components)

    def component_storage_breakdown(self) -> List[Tuple[str, int]]:
        """Per-component storage report ``[(name, bits), ...]``."""
        return [
            (component.name, component.storage_bits())
            for component in self.components
        ]
