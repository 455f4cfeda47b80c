"""Shared-core execution of composite predictors.

In the paper, IMLI-SIC and IMLI-OH are extra adder-tree inputs on TAGE-GSC
or GEHL (Sections 3.2 and 4), so every composite splits into a *core* (the
TAGE engine; nothing for GEHL) and a *head* (its adder tree plus its
loop/wormhole sidecars).  The engine runs every groupable composite
(:func:`is_groupable`) in a group planned by :func:`plan_groups`, with
**one trace-only pre-pass per sub-block, then one core step and N head
steps per branch**.  Two kinds of group form:

* a *fresh* group serves the pristine (:func:`is_pristine`) batch members
  that share a :class:`~repro.predictors.composites.SharedCoreInfo` core
  key: it builds a fresh shared state, one core and one head per member
  from that info, so sweep grids that vary only corrector and sidecar
  knobs (``oh_update_delay``, IMLI components, local-history tables,
  loop/wormhole) pay the core -- on TAGE-class grids ~98% of the work --
  once per branch.  The members' own instances are left untouched;
* a *group of one* serves every other groupable predictor (alone in its
  batch, trained, the only one with its key, or any with
  ``share_cores=False``): it adopts the instance's own state, TAGE engine,
  adder tree and sidecars, so it trains the predictor in place and a
  trained predictor continues from its current state.

Either way:

* the group's :class:`~repro.core.component.SharedState` holds the
  global/path history, folded registers, IMLI count and every trace-only
  structure a head registers on it (local-history tables, IMLI-OH outer
  histories), each deduplicated by geometry; ``_Group.prepare`` advances
  it over a whole sub-block of records at once
  (:meth:`~repro.core.component.SharedState.advance_block`);
* every component names its table indices with a hashable
  :meth:`~repro.core.component.IndexedComponent.index_key`; the pre-pass
  computes each distinct key's index columns once per sub-block
  (``index_columns``) and the TAGE core's index and tag columns, and
  lays the former out as one flat index vector per branch
  (:func:`_plan_heads`); every head is a list of counter rows that one
  kernel (:func:`_run_heads`) reads, decides on and trains inline, and
  the TAGE walk (``TAGEEngine.predict_at``) only compares tags.

Results are bit-identical to the record-based reference path *by
construction*, not by tolerance:

* the shared state and the TAGE engine evolve as pure functions of the
  branch stream -- ``SharedState.advance_block`` and
  ``TAGEEngine.train_fields`` never read corrector or sidecar state, and
  the TAGE allocation RNG stream does not depend on the final prediction;
  so the state's values before each branch can be computed ahead of the
  branch's prediction, and each column holds exactly those values; the
  pre-pass starts from the state's current values, so a trained
  predictor's group continues where its state stands;
* every index input (PC, histories, folds, IMLI count, local and outer
  history, the TAGE prediction) is read from that state, so equal keys give
  equal indices; the TAGE-bit bias index has a column per TAGE prediction,
  picked once the prediction is known;
* heads only *read* the columns and write only their own tables;
* the head kernel applies the decision and threshold-training rules of
  :class:`~repro.predictors.statistical_corrector.StatisticalCorrector`
  and :class:`~repro.predictors.adder.AdderTree` to the same counters in
  the same order, and keeps each head's threshold on its ``AdderTree``;
* TAGE training and head training touch disjoint state, so running the
  N head trainings before the single TAGE training is the same as
  interleaving them per member;
* the loop/wormhole sidecars never touch the shared state at all (they
  consume only branch fields and their own tables).
"""

from __future__ import annotations

from array import array
from inspect import unwrap
from struct import Struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.predictors.base import BranchPredictor
from repro.predictors.composites import (
    SharedCoreInfo,
    SidecarPredictor,
    _head_components,
    _imli_hashed_global,
    _sidecar_parts,
)
from repro.predictors.adder import AdderTree
from repro.predictors.gehl import GEHLPredictor, gehl_adder
from repro.predictors.statistical_corrector import StatisticalCorrector
from repro.predictors.tage import TAGEEngine, TAGEPrediction
from repro.predictors.tage_gsc import TAGEGSCConfig, TAGEGSCPredictor
from repro.core.component import IndexedComponent, NeuralComponent, SharedState
from repro.trace.branch import BranchKind

__all__ = ["plan_groups", "is_groupable", "is_pristine"]


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


class _MutableBranchView:
    """Reusable, mutable record-shaped view of one head's current branch.

    The loop and wormhole side predictors consume the record protocol
    (``pc``/``target``/``taken``/``is_conditional``/``is_backward``) but
    never retain the record, so one mutable instance per head's
    :class:`_Sidecars` replaces a fresh
    :class:`~repro.trace.branch.BranchRecord` allocation per branch.  Heads
    step only conditional branches, hence the constant ``is_conditional``.
    """

    __slots__ = ("pc", "target", "taken", "instruction_gap")

    is_conditional = True
    kind = BranchKind.CONDITIONAL

    def __init__(self) -> None:
        self.pc = 0
        self.target = 0
        self.taken = False
        self.instruction_gap = 0

    @property
    def is_backward(self) -> bool:
        return self.target < self.pc


class _Sidecars:
    """One head's loop/wormhole side predictors and their branch view."""

    __slots__ = ("loop", "wormhole", "use_loop", "view")

    def __init__(self, loop, wormhole, use_loop: bool) -> None:
        self.loop = loop
        self.wormhole = wormhole
        self.use_loop = use_loop
        self.view = _MutableBranchView()


def _sidecars_for(info: SharedCoreInfo) -> Optional[_Sidecars]:
    parts = _sidecar_parts(info.options, info.sizes)
    return None if parts is None else _Sidecars(*parts)


def _sidecar_step(
    sidecars: _Sidecars, pc: int, target: int, taken: bool, gap: int,
    main_prediction: bool,
) -> bool:
    """Run a head's loop/wormhole sidecars over its main prediction.

    Keeps the order of :class:`~repro.predictors.composites.SidecarPredictor`
    (loop predict, wormhole predict, loop update, wormhole update) and its
    override policy; the main predictor has already trained, which is safe
    because neither side predictor reads its state.
    """
    prediction = main_prediction
    view = sidecars.view
    view.pc = pc
    view.target = target
    view.taken = taken
    view.instruction_gap = gap
    loop = sidecars.loop
    wormhole = sidecars.wormhole
    if loop is not None and sidecars.use_loop:
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


#: Per-component hooks the head kernel replaces with its inline read and
#: train; a component overriding one would be silently mis-executed.  A
#: transparent wrapper around the inherited hook (``functools.wraps``, as a
#: profiler installs) still counts as the inherited hook.
_KERNEL_HOOKS = ("train", "on_outcome", "on_outcome_fields")


def _plan_heads(adders: Sequence[AdderTree]) -> Tuple[list, List[list]]:
    """Plan a group's flat per-branch index vector and every head's rows.

    Every head component is an
    :class:`~repro.core.component.IndexedComponent`; components with equal
    :meth:`~repro.core.component.IndexedComponent.index_key` over the
    group's shared state compute equal indices for every branch, so each
    distinct key is hashed once per branch and its indices are appended to
    one flat list.  Returns ``(index_fns, rows)``: ``index_fns`` are the
    bound ``compute_indices(pc, state)`` of one component per distinct key,
    in flat order (a group reads the same components' ``index_columns``
    through their ``__self__``), and
    ``rows[h]`` lists head ``h``'s counters, one ``(values, flat position,
    maximum, minimum)`` row per table of ``counter_tables``, in component
    and table order.

    Raises ``TypeError`` for a component that overrides a hook in
    :data:`_KERNEL_HOOKS` (the check mirrors
    :meth:`AdderTree._scan_outcome_components`).
    """
    index_fns = []
    offsets: Dict[tuple, int] = {}
    flat_size = 0
    rows = []
    for adder in adders:
        head_rows = []
        for component in adder.components:
            kind = type(component)
            for hook in _KERNEL_HOOKS:
                if unwrap(getattr(kind, hook)) is not getattr(NeuralComponent, hook):
                    raise TypeError(
                        f"{kind.__name__} overrides {hook}(), which the "
                        "shared-core head kernel does not call"
                    )
            key = component.index_key()
            offset = offsets.get(key)
            if offset is None:
                offset = offsets[key] = flat_size
                index_fns.append(component.compute_indices)
                flat_size += len(component.counter_tables)
            head_rows.extend(
                (table.values, position, table.maximum, table.minimum)
                for position, table in enumerate(component.counter_tables, offset)
            )
        rows.append(head_rows)
    return index_fns, rows


def _run_heads(
    heads: Sequence[tuple],
    flat: Sequence[int],
    pc: int,
    target: int,
    taken: bool,
    gap: int,
    tage_prediction: Optional[bool],
) -> List[bool]:
    """The head kernel: read, decide and train every head of one branch.

    Per head, ``(rows, n, adder, revert_margin, sidecars)``: the centred
    adder-tree sum ``2 * sum(values[flat[position]]) + n`` over its rows;
    the decision -- the sum's sign for ``gehl`` (``tage_prediction`` is
    ``None``), the corrector's revert-margin rule over ``tage_prediction``
    otherwise; the threshold training of the same rows, forced when the
    decision was wrong (as :meth:`StatisticalCorrector.train_fields` does;
    a ``gehl`` decision is wrong exactly when the sum's sign is) and
    followed by :meth:`AdderTree._adapt_threshold`; and finally the
    sidecars.  Returns each head's final prediction.
    """
    predictions = []
    append = predictions.append
    for rows, count, adder, revert_margin, sidecars in heads:
        total = 0
        for values, position, _, _ in rows:
            total += values[flat[position]]
        total = 2 * total + count
        magnitude = total if total >= 0 else -total
        adder_prediction = total >= 0
        mispredicted = adder_prediction != taken
        if tage_prediction is None or (
            adder_prediction != tage_prediction and magnitude >= revert_margin
        ):
            prediction = adder_prediction
        else:
            prediction = tage_prediction
        if prediction != taken or mispredicted or magnitude <= adder.threshold:
            if taken:
                for values, position, maximum, _ in rows:
                    index = flat[position]
                    value = values[index]
                    if value < maximum:
                        values[index] = value + 1
            else:
                for values, position, _, minimum in rows:
                    index = flat[position]
                    value = values[index]
                    if value > minimum:
                        values[index] = value - 1
            adder._adapt_threshold(mispredicted, total)
        if sidecars is not None:
            prediction = _sidecar_step(sidecars, pc, target, taken, gap, prediction)
        append(prediction)
    return predictions


class _Group:
    """One group's shared state (and TAGE core) fanned into flat heads.

    ``indices`` are the members' batch positions; ``heads`` holds one
    ``(adder, revert_margin, sidecars)`` per member, in member order, every
    adder bound to ``state`` (``revert_margin`` is ignored without a TAGE
    core, ``sidecars`` is a :class:`_Sidecars` or ``None``).  The engine
    calls :meth:`prepare` with each sub-block of records, then
    :meth:`step_count` or :meth:`step_list` once per conditional branch
    of it, in order.
    """

    kind = ""

    def __init__(
        self,
        indices: Sequence[int],
        state: SharedState,
        tage: Optional[TAGEEngine],
        heads: Sequence[Tuple[AdderTree, int, Optional[_Sidecars]]],
    ) -> None:
        self.indices = list(indices)
        self.counts = [0] * len(self.indices)
        self.state = state
        self.tage = tage
        if tage is not None:
            num_tables = tage.config.num_tables
            self._tage_scratch = TAGEPrediction(
                indices=[0] * num_tables, tags=[0] * num_tables
            )
        # Per-branch work is dominated by calls and attribute chains, so
        # every head is one row list read and trained inline by
        # _run_heads, over one flat vector of the distinct indices.
        index_fns, rows = _plan_heads([adder for adder, _, _ in heads])
        self._column_fns = [compute.__self__.index_columns for compute in index_fns]
        self._heads = [
            (head_rows, len(head_rows), adder, revert_margin, sidecars)
            for head_rows, (adder, revert_margin, sidecars) in zip(rows, heads)
        ]
        # The sub-block's flat vectors, branch-major in one array: branch
        # k's is entries [k * width, (k + 1) * width), unpacked per branch
        # into a tuple by _flat_vector.
        self._width = sum(len(compute.__self__.counter_tables) for compute in index_fns)
        self._flat_vector = Struct(f"{self._width}Q")
        self._flat = array("Q")
        self._tage_bit_columns: List[Tuple[int, array]] = []
        self._position = 0

    def prepare(self, block: tuple) -> None:
        """The trace-only pre-pass of one ``(pc, target, taken, kind, gap)``
        sub-block of records.

        Advances the shared state over the whole sub-block
        (:meth:`SharedState.advance_block`) and computes the TAGE core's
        columns and every distinct key's index columns from it, then lays
        the index columns out as one flat vector per branch.  A TAGE-bit
        column pair fills its flat slot from the not-taken column;
        :meth:`step_list` overwrites it when TAGE predicts taken.
        """
        columns = self.state.advance_block(*block[:4])
        if self.tage is not None:
            self.tage.prepare(columns)
        width = self._width
        flat = array("Q", bytes(8 * width * columns.n))
        self._tage_bit_columns = []
        slot = 0
        for index_columns in self._column_fns:
            for column in index_columns(columns):
                if isinstance(column, tuple):
                    column, taken_column = column
                    self._tage_bit_columns.append((slot, taken_column))
                flat[slot::width] = column
                slot += 1
        self._flat = flat
        self._position = 0

    def step_list(self, pc: int, target: int, taken: bool, gap: int) -> List[bool]:
        """Run one conditional branch; return per-head final predictions."""
        position = self._position
        self._position = position + 1
        vector = self._flat_vector
        tage = self.tage
        tage_prediction = None
        if tage is not None:
            tage_ctx = tage.predict_at(position, self._tage_scratch)
            tage_prediction = tage_ctx.prediction
            if tage_prediction:
                flat = self._flat
                start = position * self._width
                for slot, taken_column in self._tage_bit_columns:
                    flat[start + slot] = taken_column[position]
        predictions = _run_heads(
            self._heads,
            vector.unpack_from(self._flat, position * vector.size),
            pc, target, taken, gap, tage_prediction,
        )
        if tage is not None:
            tage.train_fields(pc, taken, tage_ctx)
        return predictions

    def step_count(self, pc: int, target: int, taken: bool, gap: int) -> None:
        """Hot-lane step: run the branch, bump per-head mispredict counts."""
        counts = self.counts
        slot = 0
        for prediction in self.step_list(pc, target, taken, gap):
            counts[slot] += prediction != taken
            slot += 1


class _TageGscGroup(_Group):
    """One TAGE core fanned into statistical-corrector heads."""

    kind = "tage-gsc"


class _GehlGroup(_Group):
    """One GEHL fetch state fanned into adder-tree heads."""

    kind = "gehl"


_GROUP_KINDS = {"tage-gsc": _TageGscGroup, "gehl": _GehlGroup}


def _own_parts(predictor: BranchPredictor) -> Optional[tuple]:
    """``(kind, state, tage, head)`` over ``predictor``'s own tables, or ``None``.

    ``None`` unless ``predictor`` is a :class:`TAGEGSCPredictor` or a
    :class:`GEHLPredictor`, bare or wrapped in a
    :class:`~repro.predictors.composites.SidecarPredictor`, and every
    component of its adder tree is an
    :class:`~repro.core.component.IndexedComponent`.  Types are matched
    exactly: a subclass may change what a step does.
    """
    main = predictor.main if type(predictor) is SidecarPredictor else predictor
    if type(main) is TAGEGSCPredictor:
        kind, tage = "tage-gsc", main.tage
        adder, revert_margin = main.corrector.adder, main.corrector.config.revert_margin
    elif type(main) is GEHLPredictor:
        kind, tage, adder, revert_margin = "gehl", None, main.adder, 0
    else:
        return None
    if not all(isinstance(component, IndexedComponent) for component in adder.components):
        return None
    sidecars = None
    if main is not predictor:
        sidecars = _Sidecars(
            predictor.loop_predictor, predictor.wormhole, predictor.use_loop_prediction
        )
    return kind, main.state, tage, (adder, revert_margin, sidecars)


def is_groupable(predictor: BranchPredictor) -> bool:
    """True when ``predictor`` can run as a group (see :func:`_own_parts`)."""
    return _own_parts(predictor) is not None


def _fresh_group(members: Sequence[Tuple[int, SharedCoreInfo]]) -> _Group:
    """A fresh shared state, core and heads for same-key members."""
    kind = members[0][1].key[0]
    sizes = members[0][1].sizes
    if kind == "tage-gsc":
        state = TAGEGSCConfig(tage=sizes.tage, corrector=sizes.corrector).new_state()
        tage = TAGEEngine(state, sizes.tage)
    else:
        state, tage = sizes.gehl.new_state(), None
    heads = []
    for _, info in members:
        extra_components = _head_components(info.options, info.sizes)
        if tage is not None:
            corrector = StatisticalCorrector(
                state, info.sizes.corrector, extra_components=extra_components
            )
            adder, revert_margin = corrector.adder, corrector.config.revert_margin
        else:
            adder, revert_margin = gehl_adder(info.sizes.gehl, state, extra_components), 0
        if info.options.imli_global_tables:
            adder.components.append(_imli_hashed_global(info.options, info.sizes, state))
        heads.append((adder, revert_margin, _sidecars_for(info)))
    return _GROUP_KINDS[kind]([index for index, _ in members], state, tage, heads)


def plan_groups(
    predictors: Sequence[BranchPredictor], share_cores: bool = True
) -> Tuple[List[_Group], List[int]]:
    """Partition a batch into groups and solo members.

    Returns ``(groups, solo_indices)``; each group carries the batch
    ``indices`` of its members.  Every groupable predictor
    (:func:`is_groupable`) joins a group: with ``share_cores``, pristine
    members (:func:`is_pristine`) whose
    :class:`~repro.predictors.composites.SharedCoreInfo` key matches
    another's share a fresh group; every other one is a group of one over
    its own tables.  Everything else stays solo and runs through its
    ``predict_update``/``observe_pc`` protocol.
    """
    groups: List[_Group] = []
    solos: List[int] = []
    by_key: Dict[tuple, List[Tuple[int, SharedCoreInfo, tuple]]] = {}
    for index, predictor in enumerate(predictors):
        parts = _own_parts(predictor)
        info = getattr(predictor, "shared_core", None)
        if parts is None:
            solos.append(index)
        elif share_cores and info is not None and is_pristine(predictor):
            by_key.setdefault(info.key, []).append((index, info, parts))
        else:
            groups.append(_adopt(index, parts))
    for members in by_key.values():
        if len(members) == 1:
            index, _, parts = members[0]
            groups.append(_adopt(index, parts))
        else:
            groups.append(_fresh_group([(index, info) for index, info, _ in members]))
    return groups, solos


def _adopt(index: int, parts: tuple) -> _Group:
    """A group of one over a predictor's own tables (:func:`_own_parts`)."""
    kind, state, tage, head = parts
    return _GROUP_KINDS[kind]([index], state, tage, [head])
