"""Shared-core execution of composite predictors.

In the paper, IMLI-SIC and IMLI-OH are extra adder-tree inputs on TAGE-GSC
or GEHL (Sections 3.2 and 4), so every composite splits into a *core* (the
TAGE engine; nothing for GEHL) and a *head* (its adder tree plus its
loop/wormhole sidecars).  The engine runs every groupable composite
(:func:`is_groupable`) in a group planned by :func:`plan_groups`; the
engine hands every group each column sub-block of the trace
(``_Group.run_block``), which runs it **block-major, in three stages**:
the trace-only pre-pass, the TAGE core over the whole sub-block, then
each head over the whole sub-block; it returns one prediction column per
member.  Two kinds of group form:

* a *fresh* group serves the pristine (:func:`is_pristine`) batch members
  that share a :class:`~repro.predictors.composites.SharedCoreInfo` core
  key: it builds a fresh shared state, one core and one head per member
  from that info, so sweep grids that vary only corrector and sidecar
  knobs (``oh_update_delay``, IMLI components, local-history tables,
  loop/wormhole) pay the core -- on TAGE-class grids ~98% of the work --
  once per branch.  Heads of equal state form a class that runs one
  kernel per sub-block until its members' index columns differ (say
  ``oh_update_delay`` variants while their outer histories agree; with
  IMLI-OH off, for good).  The members' own instances are left
  untouched;
* a *group of one* serves every other groupable predictor (alone in its
  batch, trained, the only one with its key, or any with
  ``share_cores=False``): it adopts the instance's own state, TAGE engine,
  adder tree and sidecars, so it trains the predictor in place and a
  trained predictor continues from its current state.

Either way:

* the group's :class:`~repro.core.component.SharedState` holds the
  global/path history, folded registers, IMLI count and every trace-only
  structure a head registers on it (local-history tables, IMLI-OH outer
  histories), each deduplicated by geometry; the pre-pass advances it
  over a whole sub-block of records at once
  (:meth:`~repro.core.component.SharedState.advance_block`), with one
  walk for the outer histories of every update delay of a geometry;
* every component names its table indices with a hashable
  :meth:`~repro.core.component.IndexedComponent.index_key`; the pre-pass
  computes each distinct key's index columns once per sub-block
  (``index_columns``, planned by :func:`_plan_heads`);
* the TAGE core runs over the whole sub-block
  (:meth:`~repro.predictors.tage.TAGEEngine.predict_train_block`) before
  any head index column, and leaves its prediction column on the block
  (``block.tage``), which the TAGE-bit bias index hashes like any other
  column;
* each head is one call of a kernel generated for its shape
  (:func:`head_kernel`), which reads, decides on and trains the head's
  counters over the whole sub-block; its sidecars follow, in branch
  order.

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
* the outer histories of one geometry hash a branch to the same cell and
  slot and write the same outcome whatever their update delay; only when
  a write lands differs, so one walk over per-delay bit masks leaves each
  of them where its own walk would;
* every index input (PC, histories, folds, IMLI count, local and outer
  history, the TAGE prediction) is read from that state or the block, so
  equal keys give equal indices; the TAGE prediction column depends on
  no head, so the head index columns can wait for it;
* heads only *read* the columns and the TAGE prediction column, and write
  only their own tables, so the TAGE core can predict and train the
  whole sub-block before any head starts, and each head can run the
  whole sub-block before the next;
* the head kernel applies the decision and threshold-training rules of
  :class:`~repro.predictors.statistical_corrector.StatisticalCorrector`
  and :class:`~repro.predictors.adder.AdderTree` to the same counters in
  the same order, and keeps each head's threshold on its ``AdderTree``;
* the loop/wormhole sidecars never touch the shared state at all (they
  consume only branch fields -- PC, the backward bit, the outcome --, the
  head's main prediction and their own tables);
* two heads with the same counter values and bounds, threshold state
  and revert margin, and no sidecars, that read equal index columns over
  a sub-block apply the same deterministic rules to the same inputs, so
  one of them computes both prediction columns and leaves the state
  both would reach; by induction over sub-blocks one head stands for its
  class until the columns differ, and a split first copies that state
  into the new part's head.  The heads that do not run, internal to
  their fresh group, are never read.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from inspect import unwrap
from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common import swar
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
from repro.predictors.tage import TAGEEngine
from repro.predictors.tage_gsc import TAGEGSCConfig, TAGEGSCPredictor
from repro.core.component import IndexedComponent, NeuralComponent, SharedState
from repro.trace.branch import CONDITIONAL_CODE

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


def _sidecar_step(
    sidecars: tuple, pc: int, backward: int, taken: int, main_prediction: int
) -> bool:
    """Run a head's ``(loop, wormhole, use_loop)`` sidecars over its main prediction.

    Keeps the order of :class:`~repro.predictors.composites.SidecarPredictor`
    (loop predict, wormhole predict, loop update, wormhole update) and its
    override policy; the main predictor has already trained, which is safe
    because neither side predictor reads its state.
    """
    loop, wormhole, use_loop = sidecars
    prediction = main_prediction
    if loop is not None and use_loop:
        loop_prediction = loop.predict(pc, backward)
        if loop_prediction is not None:
            prediction = loop_prediction
    if wormhole is not None:
        wormhole_prediction = wormhole.predict(pc, backward)
        if wormhole_prediction is not None:
            prediction = wormhole_prediction
    if loop is not None:
        loop.update(pc, backward, taken)
    if wormhole is not None:
        wormhole.update(pc, backward, taken, main_mispredicted=main_prediction != taken)
    return prediction


def _run_sidecars(sidecars: tuple, block, main_predictions: bytearray) -> bytearray:
    """A head's sidecars over a block's main predictions, in branch order.

    A loop predictor predicts and trains on backward branches only, so
    without a wormhole a forward branch keeps its main prediction and
    runs no sidecar step.
    """
    pcs, backwards, takens = block.pcs, block.backward, block.taken
    positions = range(block.n)
    if sidecars[1] is None:
        positions = compress(positions, backwards)
    predictions = bytearray(main_predictions)
    for position in positions:
        predictions[position] = _sidecar_step(
            sidecars, pcs[position], backwards[position], takens[position],
            main_predictions[position],
        )
    return predictions


#: Per-component hooks the head kernel replaces with its inline read and
#: train; a component overriding one would be silently mis-executed.  A
#: transparent wrapper around the inherited hook (``functools.wraps``, as a
#: profiler installs) still counts as the inherited hook.
_KERNEL_HOOKS = ("train", "on_outcome_fields")


def _plan_heads(adders: Sequence[AdderTree]) -> Tuple[list, List[list]]:
    """Plan a group's distinct index columns and every head's rows.

    Every head component is an
    :class:`~repro.core.component.IndexedComponent`; components with equal
    :meth:`~repro.core.component.IndexedComponent.index_key` over the
    group's shared state compute equal indices for every branch, so each
    distinct key's index columns are computed once per sub-block.
    Returns ``(components, rows)``: ``components`` holds one component
    per distinct key, whose ``index_columns`` lists its columns in order,
    one per table, all keys' columns concatenated into one flat list
    ("flat positions"); ``rows[h]`` lists head ``h``'s counters, one
    ``(flat position, counter table)`` row per table of
    ``counter_tables``, in component and table order.

    Raises ``TypeError`` for a component that overrides a hook in
    :data:`_KERNEL_HOOKS` (the check mirrors
    :meth:`AdderTree._scan_outcome_components`).
    """
    components = []
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
                components.append(component)
                flat_size += len(component.counter_tables)
            head_rows.extend(enumerate(component.counter_tables, offset))
        rows.append(head_rows)
    return components, rows


@lru_cache(maxsize=None)
def head_kernel(rows: int, corrector: bool) -> Callable:
    """The head kernel for heads of ``rows`` counters; generated per shape.

    ``kernel(columns, tables, takens, tage, adder, revert_margin)`` runs
    one head over every conditional branch of a sub-block and returns its
    predictions (``0``/``1`` bytes).  ``columns`` holds one index column
    per row and ``tables`` one ``(values, maximum, minimum)`` per row;
    ``takens`` holds the outcomes.  Per branch the kernel forms the
    centred adder-tree sum ``2 * sum(values[index]) + rows`` and decides:
    for a ``corrector`` head, by the revert-margin rule of
    :class:`~repro.predictors.statistical_corrector.StatisticalCorrector`
    over ``tage``, the TAGE prediction column; otherwise (a GEHL head,
    ``tage`` ignored) by the sum's sign.  It then trains the same
    counters by the threshold rule of
    :meth:`~repro.predictors.adder.AdderTree.train_fields` -- forced when
    the decision was wrong, as the corrector forces it -- and adapts the
    threshold as :meth:`~repro.predictors.adder.AdderTree._adapt_threshold`
    does, holding ``adder``'s threshold and threshold counter in locals
    and writing them back at the end.

    The rows are unrolled into straight-line code (compiled once per
    shape), so a branch costs no per-row loop, call or tuple unpacking.
    """
    row_range = range(rows)
    columns = "".join(f"c{row}, " for row in row_range)
    indices = "".join(f"i{row}, " for row in row_range)
    total = " + ".join(f"v{row}[i{row}]" for row in row_range)
    if corrector:
        loop = f"for {indices}taken, tage_prediction in zip({columns}takens, tage):"
        decide = [
            "if sign != tage_prediction and magnitude >= revert_margin:",
            "    prediction = sign",
            "else:",
            "    prediction = tage_prediction",
            "if prediction != taken or mispredicted or magnitude <= threshold:",
        ]
    else:
        loop = f"for {indices}taken in zip({columns}takens):"
        decide = ["prediction = sign", "if mispredicted or magnitude <= threshold:"]
    body = [
        f"total = 2 * ({total}) + {rows}",
        "if total >= 0:",
        "    magnitude = total",
        "    sign = 1",
        "else:",
        "    magnitude = -total",
        "    sign = 0",
        "mispredicted = sign != taken",
        *decide,
        "    if taken:",
        *(
            line
            for row in row_range
            for line in (
                f"        value = v{row}[i{row}]",
                f"        if value < hi{row}:",
                f"            v{row}[i{row}] = value + 1",
            )
        ),
        "    else:",
        *(
            line
            for row in row_range
            for line in (
                f"        value = v{row}[i{row}]",
                f"        if value > lo{row}:",
                f"            v{row}[i{row}] = value - 1",
            )
        ),
        "    if mispredicted:",
        "        counter += 1",
        "        if counter >= counter_max:",
        "            counter = 0",
        "            threshold += 1",
        "    elif magnitude <= threshold:",
        "        counter -= 1",
        "        if counter <= counter_min:",
        "            counter = 0",
        "            if threshold > 0:",
        "                threshold -= 1",
        "append(prediction)",
    ]
    source = "\n".join([
        "def kernel(columns, tables, takens, tage, adder, revert_margin):",
        f"    {columns}= columns",
        "    " + "".join(f"(v{row}, hi{row}, lo{row}), " for row in row_range) + "= tables",
        "    threshold = adder.threshold",
        "    counter = adder._threshold_counter",
        "    counter_max = adder._threshold_counter_max",
        "    counter_min = adder._threshold_counter_min",
        "    predictions = bytearray()",
        "    append = predictions.append",
        f"    {loop}",
        *(f"        {line}" for line in body),
        "    adder.threshold = threshold",
        "    adder._threshold_counter = counter",
        "    return predictions",
    ])
    namespace: dict = {}
    exec(compile(source, f"<head kernel {rows}{'c' if corrector else 'g'}>", "exec"), namespace)
    return namespace["kernel"]


def _head_state(head_rows: list, head: tuple) -> Optional[tuple]:
    """What a head's predictions depend on besides its index columns.

    Each row's counter bounds and current values (so also the row count),
    its adder's threshold, threshold counter and counter bounds, and its
    revert margin; not its column positions.  ``None`` for a head with
    sidecars, which always runs on its own.
    """
    adder, revert_margin, sidecars = head
    if sidecars is not None:
        return None
    return (
        [(table.maximum, table.minimum, table.values) for _, table in head_rows],
        adder.threshold,
        adder._threshold_counter,
        adder._threshold_counter_max,
        adder._threshold_counter_min,
        revert_margin,
    )


class _Group:
    """One group's shared state (and TAGE core) fanned into heads.

    ``indices`` are the members' batch positions; ``heads`` holds one
    ``(adder, revert_margin, sidecars)`` per member, in member order, every
    adder bound to ``state`` (``revert_margin`` is ignored without a TAGE
    core, ``sidecars`` a ``(loop, wormhole, use_loop)`` tuple or
    ``None``).  Members whose heads have equal state (:func:`_head_state`)
    form a *class*: only its first member's head runs, and every member
    gets its prediction column, while the columns of every member agree.  A sub-block on which they do
    not splits the class (:meth:`_split`) for good.  Only a fresh group
    has more than one head, and its heads are internal.  The engine calls
    :meth:`run_block` with each sub-block of records, in order, and gets
    one prediction column per member back.
    """

    kind = ""

    def __init__(
        self,
        indices: Sequence[int],
        state: SharedState,
        tage: Optional[TAGEEngine],
        heads: Sequence[Tuple[AdderTree, int, Optional[tuple]]],
    ) -> None:
        self.indices = list(indices)
        self.state = state
        self.tage = tage
        components, rows = _plan_heads([adder for adder, _, _ in heads])
        self._column_fns = [component.index_columns for component in components]
        corrector = tage is not None
        #: Per member: its kernel, column positions, tables, adder, revert
        #: margin and sidecars.
        self._heads = []
        states: list = []
        classes: List[List[int]] = []
        for head_rows, head in zip(rows, heads):
            state = _head_state(head_rows, head)
            if state is not None and state in states:
                classes[states.index(state)].append(len(self._heads))
            else:
                states.append(state)
                classes.append([len(self._heads)])
            adder, revert_margin, sidecars = head
            self._heads.append((
                head_kernel(len(head_rows), corrector),
                [position for position, _ in head_rows],
                [(table.values, table.maximum, table.minimum) for _, table in head_rows],
                adder,
                revert_margin,
                sidecars,
            ))
        #: ``(members, varying)`` per class: its members' positions in
        #: ``_heads``, the first one running for all, and the rows whose
        #: column positions differ among them.
        self._classes = [(members, self._varying(members)) for members in classes]

    def _varying(self, members: List[int]) -> List[int]:
        """The rows whose column positions differ among ``members``."""
        positions = [self._heads[member][1] for member in members]
        return [row for row, read in enumerate(zip(*positions)) if len(set(read)) > 1]

    def _split(self, flat: list) -> None:
        """Split every class whose members' columns differ on this sub-block.

        Members stay together while their columns at the ``varying`` rows
        are equal (arrays compare in C; the same object short-circuits).
        Each new part's first member takes a copy of the class's first
        member's counter values, threshold and threshold counter, which
        are where the class stands before this sub-block, and runs for
        its part from here on.
        """
        classes = []
        for members, varying in self._classes:
            if not varying:
                classes.append((members, varying))
                continue
            parts: List[Tuple[list, List[int]]] = []
            for member in members:
                positions = self._heads[member][1]
                key = [flat[positions[row]] for row in varying]
                for part_key, part in parts:
                    if part_key == key:
                        part.append(member)
                        break
                else:
                    parts.append((key, [member]))
            if len(parts) == 1:
                classes.append((members, varying))
                continue
            _, _, tables, adder, _, _ = self._heads[members[0]]
            for _, part in parts[1:]:
                _, _, copies, copy, _, _ = self._heads[part[0]]
                for (values, _, _), (target, _, _) in zip(tables, copies):
                    target[:] = values
                copy.threshold = adder.threshold
                copy._threshold_counter = adder._threshold_counter
            classes.extend((part, self._varying(part)) for _, part in parts)
        self._classes = classes

    def run_block(self, block: tuple) -> List[bytearray]:
        """Run one ``(pc, target, taken, kind, gap)`` sub-block of records.

        Three stages, each over the whole sub-block: the trace-only
        pre-pass (:meth:`SharedState.advance_block`); the TAGE core
        (:meth:`TAGEEngine.predict_train_block`), whose prediction column
        it leaves on the block as ``tage``, then every distinct key's
        index columns; and, once the classes are split on the columns
        (:meth:`_split`), each class's kernel (:func:`head_kernel`), then
        its sidecars.  Returns each member's prediction column, one entry
        per conditional record; the members of a class share its column.
        """
        columns = self.state.advance_block(*block[:4])
        tage_predictions = None
        if self.tage is not None:
            tage_predictions = self.tage.predict_train_block(columns)
            columns.tage = swar.pack_bytes(tage_predictions)
        flat = []
        for index_columns in self._column_fns:
            flat += index_columns(columns)
        self._split(flat)
        taken = columns.taken
        predictions: List[bytearray] = [None] * len(self._heads)
        for members, _ in self._classes:
            kernel, positions, tables, adder, revert_margin, sidecars = self._heads[members[0]]
            head = kernel(
                [flat[position] for position in positions], tables, taken,
                tage_predictions, adder, revert_margin,
            )
            if sidecars is not None:
                head = _run_sidecars(sidecars, columns, head)
            for member in members:
                predictions[member] = head
        return predictions

    def step_list(self, pc: int, target: int, taken: bool, gap: int) -> List[bool]:
        """Run one conditional branch; return per-head final predictions.

        A block of one record through :meth:`run_block`; the engine never
        calls it.
        """
        block = (array("q", [pc]), array("q", [target]), array("b", [taken]), _ONE_CONDITIONAL, None)
        return [bool(column[0]) for column in self.run_block(block)]

    def step_count(self, pc: int, target: int, taken: bool, gap: int) -> None:
        """Run one conditional branch (:meth:`step_list`, dropping its
        predictions); the engine never calls it."""
        self.step_list(pc, target, taken, gap)


#: The kind column of a one-record block of one conditional branch.
_ONE_CONDITIONAL = array("b", [CONDITIONAL_CODE])


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
        sidecars = (predictor.loop_predictor, predictor.wormhole, predictor.use_loop_prediction)
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
        heads.append((adder, revert_margin, _sidecar_parts(info.options, info.sizes)))
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
    its own tables.  Everything else stays solo and consumes whole
    sub-blocks through its own ``predict_update_block``.
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
