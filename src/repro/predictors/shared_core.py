"""Shared-core execution of a batch of composite predictors.

Most sweep grids over the paper's configurations vary only corrector and
sidecar knobs (``oh_update_delay``, IMLI components, local-history tables,
loop/wormhole) around an identical TAGE or GEHL core.  The batched engine
already traverses the trace once per batch, but running every member's
full ``predict_update`` per branch would repeat the core -- on TAGE-class
grids ~98% of that work -- once per member.

This module executes such a batch with **one core step and N head steps
per branch**:

* every group shares one :class:`~repro.core.component.SharedState`: the
  global/path history, folded registers, IMLI count and every trace-only
  structure a head registers on it (local-history tables, IMLI-OH outer
  histories), each deduplicated by geometry and advanced once per branch;
* ``tage-gsc`` groups also share one
  :class:`~repro.predictors.tage.TAGEEngine`; each member becomes a head
  consisting of a fresh
  :class:`~repro.predictors.statistical_corrector.StatisticalCorrector`
  (with that member's extra components) plus its loop/wormhole sidecars;
* ``gehl`` groups have no learned core; each member's whole adder tree is
  its head;
* every component names its table indices with a hashable
  :meth:`~repro.core.component.IndexedComponent.index_key`, and the group
  hashes each distinct key once per branch (:func:`_plan_shared_indices`),
  so the heads only read and train counters.

Results are bit-identical to solo execution *by construction*, not by
tolerance:

* the shared state and the TAGE engine evolve as pure functions of the
  branch stream -- ``SharedState.update_conditional_fields`` and
  ``TAGEEngine.train_fields`` never read corrector or sidecar state, and
  the TAGE allocation RNG stream does not depend on the final prediction;
* every index input (PC, histories, folds, IMLI count, local and outer
  history, the TAGE prediction) is read from that state, so equal keys give
  equal indices;
* heads only *read* the shared state, which is frozen while the heads of
  one branch run, and write only their own tables;
* ``TAGEEngine.train_fields`` and ``StatisticalCorrector.train_fields``
  touch disjoint state, so running the N corrector trainings before the
  single TAGE training is the same as interleaving them per member;
* the loop/wormhole sidecars never touch the shared state at all (they
  consume only branch fields and their own tables).

Grouping is planned by :func:`plan_groups` from the
:class:`~repro.predictors.composites.SharedCoreInfo` attached by
:func:`repro.predictors.composites.build`.  Only *pristine* (never
stepped) predictors are grouped -- the group builds fresh cores and
heads, so a trained member's state would be silently discarded otherwise.
Group members' original instances are left untouched (and therefore
untrained) by design; the simulation results come from the group's own
cores and heads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.predictors.base import BranchPredictor
from repro.predictors.composites import (
    SharedCoreInfo,
    _MutableBranchView,
    _head_components,
    _imli_hashed_global,
    _sidecar_parts,
)
from repro.predictors.adder import AdderTree
from repro.predictors.components import BiasComponent, GlobalHistoryComponent
from repro.predictors.statistical_corrector import (
    CorrectorContext,
    StatisticalCorrector,
)
from repro.predictors.tage import TAGEEngine, TAGEPrediction
from repro.predictors.tage_gsc import TAGEGSCConfig
from repro.core.component import NeuralComponent, SharedState

__all__ = ["plan_groups", "is_pristine"]


def is_pristine(predictor: BranchPredictor) -> bool:
    """True when ``predictor`` has observably never stepped.

    Checked on the shared state of the main predictor: the global history
    length increments on every conditional update (until capacity) and the
    path history accumulates on every observed PC, so all-zero history
    state plus an unset TAGE prediction proves the instance has seen no
    branch.  Predictors without a shared state are never pristine for
    grouping purposes.
    """
    main = getattr(predictor, "main", predictor)
    state = getattr(main, "state", None)
    if state is None:
        return False
    try:
        return (
            state.global_history.length == 0
            and state.global_history.bits == 0
            and state.path_history.bits == 0
            and state.imli.count == 0
            and state.tage_prediction is None
        )
    except AttributeError:
        return False


class _Head:
    """One batch member's private (non-core) machinery over a shared state."""

    __slots__ = ("corrector", "adder", "scratch", "loop", "wormhole", "use_loop", "view")

    def __init__(self) -> None:
        self.corrector: Optional[StatisticalCorrector] = None
        self.adder: Optional[AdderTree] = None
        self.scratch = CorrectorContext()
        self.loop = None
        self.wormhole = None
        self.use_loop = False
        self.view = _MutableBranchView()


def _attach_sidecars(head: _Head, info: SharedCoreInfo) -> None:
    parts = _sidecar_parts(info.options, info.sizes)
    if parts is None:
        return
    head.loop, head.wormhole, head.use_loop = parts


def _sidecar_step(
    head: _Head, pc: int, target: int, taken: bool, gap: int,
    main_prediction: bool,
) -> bool:
    """Run a head's loop/wormhole sidecars; mirrors the solo fast path.

    Keeps the reference order (loop predict, wormhole predict, loop
    update, wormhole update) and the override policy of
    :class:`~repro.predictors.composites.SidecarPredictor`.
    """
    prediction = main_prediction
    view = head.view
    view.pc = pc
    view.target = target
    view.taken = taken
    view.instruction_gap = gap
    loop = head.loop
    wormhole = head.wormhole
    if loop is not None and head.use_loop:
        loop_prediction = loop.predict(view)
        if loop_prediction is not None:
            prediction = loop_prediction
    if wormhole is not None:
        wormhole_prediction = wormhole.predict(view)
        if wormhole_prediction is not None:
            prediction = wormhole_prediction
    if loop is not None:
        loop.update(view)
    if wormhole is not None:
        wormhole.update(view, main_mispredicted=main_prediction != taken)
    return prediction


def _plan_shared_indices(adders: Sequence[AdderTree]) -> Tuple[list, list]:
    """Plan the group's per-branch index hashing across its heads.

    Every head component is an
    :class:`~repro.core.component.IndexedComponent`; components with equal
    :meth:`~repro.core.component.IndexedComponent.index_key` over the
    group's shared state compute equal indices for every branch, so each
    distinct key is hashed once per branch.  Returns ``(index_fns,
    reads)``: ``index_fns[slot]`` is the ``compute_indices(pc, state)`` of
    one distinct key, and ``reads[h]`` is head ``h``'s ``(read, slot)``
    list for :meth:`AdderTree.compute_with_shared`.
    """
    index_fns = []
    slot_by_key: Dict[tuple, int] = {}
    reads = []
    for adder in adders:
        head_reads = []
        for component in adder.components:
            key = component.index_key()
            slot = slot_by_key.get(key)
            if slot is None:
                slot = slot_by_key[key] = len(index_fns)
                index_fns.append(component.compute_indices)
            head_reads.append((component.select_sum_at, slot))
        reads.append(head_reads)
    return index_fns, reads


class _TageGscGroup:
    """One shared TAGE core fanned into N statistical-corrector heads."""

    kind = "tage-gsc"

    def __init__(self, members: Sequence[Tuple[int, SharedCoreInfo]]) -> None:
        self.indices = [index for index, _ in members]
        self.counts = [0] * len(members)
        first = members[0][1]
        config = TAGEGSCConfig(tage=first.sizes.tage, corrector=first.sizes.corrector)
        history_capacity = max(
            config.history_capacity, config.tage.max_history + 1
        )
        self.state = SharedState(
            history_capacity=history_capacity,
            path_capacity=config.path_capacity,
            imli_counter_bits=config.imli_counter_bits,
        )
        self.tage = TAGEEngine(self.state, config.tage)
        num_tables = config.tage.num_tables
        self._tage_scratch = TAGEPrediction(
            indices=[0] * num_tables, tags=[0] * num_tables
        )
        self.heads: List[_Head] = []
        for _, info in members:
            head = _Head()
            head.corrector = StatisticalCorrector(
                self.state,
                info.sizes.corrector,
                extra_components=_head_components(info.options, info.sizes),
            )
            if info.options.imli_global_tables:
                head.corrector.adder.components.append(
                    _imli_hashed_global(info.options, info.sizes, self.state)
                )
            _attach_sidecars(head, info)
            self.heads.append(head)
        # Per-branch work is dominated by attribute chains and hashing, so
        # the head loop runs over prebound tuples, and every distinct table
        # index is hashed once per branch and fanned into the heads.
        self._index_fns, reads = _plan_shared_indices(
            [head.corrector.adder for head in self.heads]
        )
        self._head_steps = [
            (
                head.corrector.predict_into_shared,
                head.corrector.train_fields,
                head.scratch,
                head if (head.loop is not None or head.wormhole is not None) else None,
                head_reads,
            )
            for head, head_reads in zip(self.heads, reads)
        ]
        self._tage_predict = self.tage.predict_into
        self._tage_train = self.tage.train_fields
        self._state_update = self.state.update_conditional_fields

    def step_count(self, pc: int, target: int, taken: bool, gap: int) -> None:
        """Hot-lane step: run the branch, bump per-head mispredict counts."""
        state = self.state
        tage_ctx = self._tage_predict(pc, self._tage_scratch)
        tage_prediction = tage_ctx.prediction
        state.tage_prediction = tage_prediction
        shared = [fn(pc, state) for fn in self._index_fns]
        counts = self.counts
        slot = 0
        for predict_shared, train_fields, scratch, sidecar, reads in self._head_steps:
            sc_ctx = predict_shared(pc, tage_prediction, scratch, reads, shared)
            prediction = sc_ctx.final_prediction
            train_fields(pc, target, taken, sc_ctx)
            if sidecar is not None:
                prediction = _sidecar_step(sidecar, pc, target, taken, gap, prediction)
            counts[slot] += prediction != taken
            slot += 1
        self._tage_train(pc, taken, tage_ctx)
        self._state_update(pc, target, taken)

    def step_list(self, pc: int, target: int, taken: bool, gap: int) -> List[bool]:
        """General step: run the branch, return per-head final predictions."""
        state = self.state
        tage_ctx = self._tage_predict(pc, self._tage_scratch)
        tage_prediction = tage_ctx.prediction
        state.tage_prediction = tage_prediction
        shared = [fn(pc, state) for fn in self._index_fns]
        predictions: List[bool] = []
        for predict_shared, train_fields, scratch, sidecar, reads in self._head_steps:
            sc_ctx = predict_shared(pc, tage_prediction, scratch, reads, shared)
            prediction = sc_ctx.final_prediction
            train_fields(pc, target, taken, sc_ctx)
            if sidecar is not None:
                prediction = _sidecar_step(sidecar, pc, target, taken, gap, prediction)
            predictions.append(prediction)
        self._tage_train(pc, taken, tage_ctx)
        self._state_update(pc, target, taken)
        return predictions

    def observe(self, pc: int) -> None:
        """Non-conditional branch: advance the shared path history once."""
        self.state.observe_pc(pc)


class _GehlGroup:
    """One shared fetch state fanned into N GEHL adder-tree heads."""

    kind = "gehl"

    def __init__(self, members: Sequence[Tuple[int, SharedCoreInfo]]) -> None:
        self.indices = [index for index, _ in members]
        self.counts = [0] * len(members)
        gehl = members[0][1].sizes.gehl
        self.state = SharedState(
            history_capacity=gehl.history_capacity,
            path_capacity=gehl.path_capacity,
            imli_counter_bits=gehl.imli_counter_bits,
        )
        self.heads: List[_Head] = []
        for _, info in members:
            sizes = info.sizes.gehl
            components: List[NeuralComponent] = [
                BiasComponent(
                    entries=sizes.bias_entries,
                    counter_bits=sizes.counter_bits,
                    use_tage_prediction=False,
                ),
                GlobalHistoryComponent(
                    state=self.state,
                    history_lengths=sizes.history_lengths(),
                    entries=sizes.table_entries,
                    counter_bits=sizes.counter_bits,
                ),
            ]
            components.extend(_head_components(info.options, info.sizes))
            head = _Head()
            head.adder = AdderTree(
                components, initial_threshold=sizes.initial_threshold, state=self.state
            )
            if info.options.imli_global_tables:
                head.adder.components.append(
                    _imli_hashed_global(info.options, info.sizes, self.state)
                )
            _attach_sidecars(head, info)
            self.heads.append(head)
        self._index_fns, reads = _plan_shared_indices([head.adder for head in self.heads])
        self._head_steps = [
            (
                head.adder.compute_with_shared,
                head.adder.train_fields,
                head if (head.loop is not None or head.wormhole is not None) else None,
                head_reads,
            )
            for head, head_reads in zip(self.heads, reads)
        ]
        self._state_update = self.state.update_conditional_fields

    def step_count(self, pc: int, target: int, taken: bool, gap: int) -> None:
        """Hot-lane step: run the branch, bump per-head mispredict counts."""
        state = self.state
        shared = [fn(pc, state) for fn in self._index_fns]
        counts = self.counts
        slot = 0
        for compute_shared, train_fields, sidecar, reads in self._head_steps:
            total, selections = compute_shared(pc, state, reads, shared)
            train_fields(pc, target, taken, total, selections, state)
            prediction = total >= 0
            if sidecar is not None:
                prediction = _sidecar_step(sidecar, pc, target, taken, gap, prediction)
            counts[slot] += prediction != taken
            slot += 1
        self._state_update(pc, target, taken)

    def step_list(self, pc: int, target: int, taken: bool, gap: int) -> List[bool]:
        """General step: run the branch, return per-head final predictions."""
        state = self.state
        shared = [fn(pc, state) for fn in self._index_fns]
        predictions: List[bool] = []
        for compute_shared, train_fields, sidecar, reads in self._head_steps:
            total, selections = compute_shared(pc, state, reads, shared)
            train_fields(pc, target, taken, total, selections, state)
            prediction = total >= 0
            if sidecar is not None:
                prediction = _sidecar_step(sidecar, pc, target, taken, gap, prediction)
            predictions.append(prediction)
        self._state_update(pc, target, taken)
        return predictions

    def observe(self, pc: int) -> None:
        """Non-conditional branch: advance the shared path history once."""
        self.state.observe_pc(pc)


_GROUP_KINDS = {"tage-gsc": _TageGscGroup, "gehl": _GehlGroup}


def plan_groups(
    predictors: Sequence[BranchPredictor],
) -> Optional[Tuple[list, List[int]]]:
    """Partition a batch into shared-core groups and solo members.

    Returns ``(groups, solo_indices)`` where each group carries the batch
    ``indices`` of its members, or ``None`` when no group of at least two
    members forms (the engine then runs every member as a solo).

    A member joins a group only when it advertises a
    :class:`~repro.predictors.composites.SharedCoreInfo`, has never been
    stepped (:func:`is_pristine`) and shares its core key with at least
    one other member; everything else stays solo and is executed through
    its ordinary fast-path protocol.
    """
    by_key: Dict[tuple, List[Tuple[int, SharedCoreInfo]]] = {}
    solos: List[int] = []
    for index, predictor in enumerate(predictors):
        info = getattr(predictor, "shared_core", None)
        if (
            info is None
            or info.key[0] not in _GROUP_KINDS
            or not is_pristine(predictor)
        ):
            solos.append(index)
            continue
        by_key.setdefault(info.key, []).append((index, info))
    groups = []
    for key, members in by_key.items():
        if len(members) < 2:
            solos.extend(index for index, _ in members)
            continue
        groups.append(_GROUP_KINDS[key[0]](members))
    if not groups:
        return None
    solos.sort()
    return groups, solos
