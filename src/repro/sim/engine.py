"""The trace-driven simulation engine.

Following the experimental framework of the paper (Section 3), predictors
are evaluated by replaying branch traces with immediate updates: for every
conditional branch the predictor is asked for a prediction and then
immediately trained with the resolved outcome; non-conditional branches are
passed to the predictor so path-history-like structures can observe them.

Accuracy is reported in MisPredictions per Kilo Instructions (MPKI), the
metric used throughout the paper.

Every replay goes through :func:`simulate_many` (:func:`simulate` is a
batch of one), which owns exactly four per-branch loops:

* the *reference* loop iterates :class:`~repro.trace.branch.BranchRecord`
  views and drives the classic ``predict()`` / ``update()`` protocol -- the
  oracle, sharing no code with the others;
* the column-block lane of a lone predictor with a
  ``predict_update_block`` (the bimodal baseline) and no warm-up or
  per-PC tracking;
* the grouped hot loop and the grouped general loop (warm-up / per-PC)
  iterate the trace's columnar storage.  Every TAGE-GSC/GEHL composite
  runs in a group (:mod:`repro.predictors.shared_core`): a shared-core
  group of pristine same-core members, or a group of one over a
  predictor's own tables; each group runs its trace-only pre-pass once
  per sub-block and steps once per conditional branch.  Other members
  that opt into the combined ``predict_update(pc, target, taken, kind,
  gap)`` / ``observe_pc(pc)`` protocol (see ``docs/PERFORMANCE.md``)
  step as solos.

All of them produce bit-identical results; the fast loops are picked
automatically whenever the predictor and the trace support them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.predictors.base import BranchPredictor
from repro.predictors.shared_core import is_groupable, plan_groups
from repro.trace.branch import CONDITIONAL_CODE
from repro.trace.trace import Trace

__all__ = [
    "ENGINE_VERSION",
    "SUB_BLOCK_RECORDS",
    "SimulationResult",
    "simulate",
    "simulate_many",
    "supports_fast_path",
]

#: Version of the simulation semantics.  Bump whenever a change alters the
#: numbers :func:`simulate` produces for an unchanged (predictor, trace)
#: pair -- the persistent result store (:mod:`repro.store`) folds this into
#: its cell keys, so bumping it retires every stored result at once.
#: Pure-speed changes that keep results bit-identical must NOT bump it.
ENGINE_VERSION = 1


@dataclass
class SimulationResult:
    """Outcome of simulating one predictor over one trace."""

    trace_name: str
    predictor_name: str
    conditional_branches: int
    mispredictions: int
    instructions: int
    storage_bits: int
    per_pc_mispredictions: Dict[int, int] = field(default_factory=dict)

    @property
    def mpki(self) -> float:
        """Mispredictions per kilo-instruction."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.mispredictions / self.instructions

    @property
    def misprediction_rate(self) -> float:
        """Fraction of conditional branches mispredicted."""
        if self.conditional_branches == 0:
            return 0.0
        return self.mispredictions / self.conditional_branches

    @property
    def accuracy(self) -> float:
        """Fraction of conditional branches predicted correctly."""
        return 1.0 - self.misprediction_rate

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.predictor_name} on {self.trace_name}: "
            f"{self.mpki:.3f} MPKI "
            f"({self.mispredictions}/{self.conditional_branches} mispredicted, "
            f"{self.storage_bits / 1024:.1f} Kbits)"
        )


def supports_fast_path(predictor: BranchPredictor, trace: Trace) -> bool:
    """``True`` when ``predictor`` and ``trace`` support the columnar fast path.

    A predictor qualifies when it can run as a group over its own tables
    (:func:`repro.predictors.shared_core.is_groupable`: a TAGE-GSC or GEHL
    composite, bare or in a ``SidecarPredictor``, whose adder components
    are all indexed) or opts into the combined ``predict_update`` /
    ``observe_pc`` protocol.  A trace qualifies either by exposing its
    columns directly (:meth:`~repro.trace.trace.Trace.columns`) or by
    streaming columnar blocks (``iter_chunks()``, the
    :class:`~repro.trace.chunked.ChunkedTrace` protocol).
    """
    return (
        is_groupable(predictor)
        or (
            getattr(predictor, "predict_update", None) is not None
            and getattr(predictor, "observe_pc", None) is not None
        )
    ) and (
        getattr(trace, "columns", None) is not None
        or getattr(trace, "iter_chunks", None) is not None
    )


#: Records per sub-block of :func:`_column_blocks`: the unit of a
#: shared-core group's trace-only pre-pass (``_Group.prepare``).  Big
#: enough to amortise the per-block column set-up, small enough to keep
#: the columns in cache and their memory flat.
SUB_BLOCK_RECORDS = 512


def _column_blocks(trace: Trace):
    """Yield ``(pc, target, taken, kind, gap)`` column sub-blocks of a trace.

    A monolithic :class:`Trace` yields its own columns, a chunked trace
    one set per chunk, each cut into sub-blocks of at most
    :data:`SUB_BLOCK_RECORDS` records (a block no longer than that is
    yielded as is -- zero copies).  The simulation state is carried
    across blocks by the callers, which makes block iteration
    bit-identical to a single flat traversal by construction: the
    per-branch step sequence is unchanged, and a group's pre-pass leaves
    its state where per-branch upkeep would.
    """
    chunks = getattr(trace, "iter_chunks", None)
    blocks = (
        (chunk.columns() for chunk in chunks()) if chunks is not None else (trace.columns(),)
    )
    size = SUB_BLOCK_RECORDS
    for columns in blocks:
        length = len(columns[0])
        if length <= size:
            yield columns
            continue
        for start in range(0, length, size):
            yield tuple(column[start:start + size] for column in columns)


def simulate(
    predictor: BranchPredictor,
    trace: Trace,
    warmup_fraction: float = 0.0,
    track_per_pc: bool = False,
    use_fast_path: Optional[bool] = None,
) -> SimulationResult:
    """Replay ``trace`` through ``predictor`` and measure its accuracy.

    A batch of one: ``simulate_many([predictor], ...)[0]``.

    Parameters
    ----------
    predictor:
        The predictor under test; it is trained in place.
    trace:
        The branch trace to replay.
    warmup_fraction:
        Fraction (0 to 1) of the trace's conditional branches whose
        mispredictions are excluded from the metric; the predictor is still
        trained during warm-up.  The paper's championship framework measures
        the full trace, so the default is 0.
    track_per_pc:
        Record per-static-branch misprediction counts (used by the analysis
        helpers to identify which branch classes a component fixes).
    use_fast_path:
        ``None`` (default) picks the columnar fast path automatically when
        the predictor supports it (:func:`supports_fast_path`); ``False`` forces
        the record-based reference path; ``True`` requires the fast path and
        raises :class:`ValueError` when it is unsupported.  Both paths
        produce bit-identical results.
    """
    return simulate_many(
        [predictor],
        trace,
        warmup_fraction=warmup_fraction,
        track_per_pc=track_per_pc,
        use_fast_path=use_fast_path,
    )[0]


def _simulate_records(
    predictor: BranchPredictor,
    trace: Trace,
    warmup_limit: int,
    track_per_pc: bool,
) -> tuple:
    """Reference path: record views and the predict()/update() protocol."""
    mispredictions = 0
    measured_conditional = 0
    measured_instructions = 0
    per_pc: Dict[int, int] = defaultdict(int)
    seen_conditional = 0

    for record in trace:
        if not record.is_conditional:
            predictor.observe_unconditional(record)
            if seen_conditional >= warmup_limit:
                measured_instructions += record.instruction_gap + 1
            continue
        prediction = predictor.predict(record)
        predictor.update(record, prediction)
        seen_conditional += 1
        if seen_conditional <= warmup_limit:
            continue
        measured_conditional += 1
        measured_instructions += record.instruction_gap + 1
        if prediction != record.taken:
            mispredictions += 1
            if track_per_pc:
                per_pc[record.pc] += 1

    return mispredictions, measured_conditional, measured_instructions, dict(per_pc)


def simulate_many(
    predictors: Sequence[BranchPredictor],
    trace: Trace,
    warmup_fraction: float = 0.0,
    track_per_pc: bool = False,
    use_fast_path: Optional[bool] = None,
    share_cores: Optional[bool] = None,
) -> List[SimulationResult]:
    """Replay ``trace`` through every predictor in one traversal.

    Bit-identical to replaying each predictor on its own -- the
    predictors are independent instances, so driving them all from one
    pass over the columns changes nothing about what each one observes --
    but the columnar decode, Python-level iteration and branch-kind
    dispatch are paid once per *trace* instead of once per *(predictor,
    trace)* cell.  This is the one execution primitive: :func:`simulate`
    is a batch of one, and the suite runner, the process-pool path and
    the distributed workers all group same-trace cells and drive them
    through here.

    On top of the shared traversal, every TAGE-GSC/GEHL composite runs as
    part of a group (:mod:`repro.predictors.shared_core`).  Pristine
    members that advertise the same shared-core key share one fresh core
    plus N light heads -- the dominant TAGE/GEHL core work is paid once per
    branch for the whole group -- and their original instances are left
    untouched.  Every other composite (alone, trained, the only one with
    its key) is a group of one over its own tables, so it is trained in
    place, and a trained predictor continues from its current state.

    Parameters match :func:`simulate` (``warmup_fraction`` and
    ``track_per_pc`` apply to every predictor in the batch).  With
    ``use_fast_path=None`` members without fast-path support
    (:func:`supports_fast_path`) replay the record-based reference loop
    one by one and the rest share the columnar traversal; ``True``
    requires the fast path for the whole batch, and ``False`` forces the
    reference loop throughout.  ``share_cores=None`` (default) shares
    cores between pristine same-core members; ``False`` runs every
    composite as a group of one, trained in place.  Every setting
    produces bit-identical results.
    """
    predictors = list(predictors)
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(
            f"warmup fraction must be in [0, 1), got {warmup_fraction}"
        )
    columnar = [
        index
        for index, predictor in enumerate(predictors)
        if use_fast_path is not False and supports_fast_path(predictor, trace)
    ]
    if use_fast_path and len(columnar) < len(predictors):
        missing = next(
            predictor.name
            for predictor in predictors
            if not supports_fast_path(predictor, trace)
        )
        raise ValueError(
            f"predictor {missing!r} does not support the fast-path "
            "protocol (a groupable composite, or predict_update / observe_pc)"
        )
    warmup_limit = int(trace.conditional_count * warmup_fraction)
    counts = [0] * len(predictors)
    per_pc_maps: List[Dict[int, int]] = [{} for _ in predictors]
    measured_conditional = trace.conditional_count
    measured_instructions = trace.instruction_count
    for index, predictor in enumerate(predictors):
        if index not in columnar:
            (
                counts[index], measured_conditional, measured_instructions,
                per_pc_maps[index],
            ) = _simulate_records(predictor, trace, warmup_limit, track_per_pc)
    if columnar:
        (
            member_counts, measured_conditional, measured_instructions,
            member_per_pc,
        ) = _simulate_columnar(
            [predictors[index] for index in columnar],
            trace, warmup_limit, track_per_pc, share_cores,
        )
        for slot, index in enumerate(columnar):
            counts[index] = member_counts[slot]
            per_pc_maps[index] = member_per_pc[slot]
    return [
        SimulationResult(
            trace_name=trace.name,
            predictor_name=predictor.name,
            conditional_branches=measured_conditional,
            mispredictions=counts[index],
            instructions=measured_instructions,
            storage_bits=predictor.storage_bits(),
            per_pc_mispredictions=per_pc_maps[index],
        )
        for index, predictor in enumerate(predictors)
    ]


def _simulate_columnar(
    members: Sequence[BranchPredictor],
    trace: Trace,
    warmup_limit: int,
    track_per_pc: bool,
    share_cores: Optional[bool],
) -> tuple:
    """Run the fast-path members over the trace's column blocks.

    Returns per-member misprediction counts, the measured totals and
    per-member per-PC maps, like :func:`_simulate_columns_grouped`.
    ``share_cores=False`` makes every composite a group of one.
    """
    if warmup_limit == 0 and not track_per_pc and len(members) == 1:
        block_step = getattr(members[0], "predict_update_block", None)
        if block_step is not None:
            # Column-block protocol: the predictor consumes whole column
            # blocks and returns its misprediction count, eliminating the
            # per-branch Python dispatch entirely (see
            # ``BimodalPredictor.predict_update_block``).
            count = sum(block_step(*block) for block in _column_blocks(trace))
            return [count], trace.conditional_count, trace.instruction_count, [{}]
    groups, solos = plan_groups(members, share_cores is not False)
    if warmup_limit == 0 and not track_per_pc:
        counts = _simulate_columns_grouped_fast(members, trace, groups, solos)
        return (
            counts, trace.conditional_count, trace.instruction_count,
            [{} for _ in members],
        )
    return _simulate_columns_grouped(
        members, trace, groups, solos, warmup_limit, track_per_pc
    )


def _simulate_columns_grouped_fast(
    predictors: Sequence[BranchPredictor],
    trace: Trace,
    groups: Sequence,
    solos: Sequence[int],
) -> List[int]:
    """Grouped hot loop: shared cores stepped once, heads fanned per branch.

    Each group's ``prepare`` runs the trace-only pre-pass of a sub-block
    (histories, folds and every index column); its ``step_count`` then
    runs the core once and every head once per conditional branch,
    bumping the group's internal per-head misprediction counters.  Solo
    predictors keep the flat combined-step protocol.  After the traversal
    the group counters are scattered back to batch positions.
    """
    solo_steps = [(index, predictors[index].predict_update) for index in solos]
    observes = [predictors[index].observe_pc for index in solos]
    group_steps = [group.step_count for group in groups]
    conditional_code = CONDITIONAL_CODE
    counts = [0] * len(predictors)
    for block in _column_blocks(trace):
        for group in groups:
            group.prepare(block)
        pcs, targets, takens, kinds, gaps = block
        for pc, target, taken, kind, gap in zip(pcs, targets, takens, kinds, gaps):
            if kind != conditional_code:
                for observe in observes:
                    observe(pc)
            else:
                for group_step in group_steps:
                    group_step(pc, target, taken, gap)
                for index, step in solo_steps:
                    if step(pc, target, taken, kind, gap) != taken:
                        counts[index] += 1
    for group in groups:
        for slot, index in enumerate(group.indices):
            counts[index] = group.counts[slot]
    return counts


def _simulate_columns_grouped(
    predictors: Sequence[BranchPredictor],
    trace: Trace,
    groups: Sequence,
    solos: Sequence[int],
    warmup_limit: int,
    track_per_pc: bool,
) -> tuple:
    """Grouped general loop: warm-up and/or per-PC bookkeeping.

    The warm-up window is a property of the trace position, so the
    ``seen_conditional`` counter -- and therefore the measured totals --
    are shared by every member, exactly as independent replays would each
    compute them; the counter survives block boundaries, so a window
    ending mid-chunk measures the same records as on the monolithic
    trace.  Groups run their pre-pass per sub-block as in the hot loop and
    return per-head predictions through ``step_list`` so the measurement
    logic stays per member.
    """
    solo_steps = [(index, predictors[index].predict_update) for index in solos]
    observes = [predictors[index].observe_pc for index in solos]
    group_list = [(group.indices, group.step_list) for group in groups]
    conditional_code = CONDITIONAL_CODE
    counts = [0] * len(predictors)
    per_pc_maps: List[Dict[int, int]] = [defaultdict(int) for _ in predictors]
    measured_conditional = 0
    measured_instructions = 0
    seen_conditional = 0
    for block in _column_blocks(trace):
        for group in groups:
            group.prepare(block)
        pcs, targets, takens, kinds, gaps = block
        for position in range(len(pcs)):
            pc = pcs[position]
            kind = kinds[position]
            if kind != conditional_code:
                for observe in observes:
                    observe(pc)
                if seen_conditional >= warmup_limit:
                    measured_instructions += gaps[position] + 1
                continue
            taken = takens[position]
            target = targets[position]
            gap = gaps[position]
            seen_conditional += 1
            if seen_conditional <= warmup_limit:
                for indices, step_list in group_list:
                    step_list(pc, target, taken, gap)
                for index, step in solo_steps:
                    step(pc, target, taken, kind, gap)
                continue
            measured_conditional += 1
            measured_instructions += gap + 1
            for indices, step_list in group_list:
                predictions = step_list(pc, target, taken, gap)
                for slot, index in enumerate(indices):
                    if predictions[slot] != taken:
                        counts[index] += 1
                        if track_per_pc:
                            per_pc_maps[index][pc] += 1
            for index, step in solo_steps:
                if step(pc, target, taken, kind, gap) != taken:
                    counts[index] += 1
                    if track_per_pc:
                        per_pc_maps[index][pc] += 1
    return (
        counts,
        measured_conditional,
        measured_instructions,
        [dict(per_pc) for per_pc in per_pc_maps],
    )
