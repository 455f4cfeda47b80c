"""The trace-driven simulation engine.

Following the experimental framework of the paper (Section 3), predictors
are evaluated by replaying branch traces with immediate updates: for every
conditional branch the predictor is asked for a prediction and then
immediately trained with the resolved outcome; non-conditional branches are
passed to the predictor so path-history-like structures can observe them.

Accuracy is reported in MisPredictions per Kilo Instructions (MPKI), the
metric used throughout the paper.

Every replay goes through :func:`simulate_many` (:func:`simulate` is a
batch of one), measures every conditional branch of the trace, and owns
exactly two loops:

* the *reference* loop iterates :class:`~repro.trace.branch.BranchRecord`
  views and drives the classic ``predict()`` / ``update()`` protocol -- the
  oracle, sharing no code with the other;
* the *block* loop hands each column sub-block of the trace to every
  fast-path member in turn.  Every TAGE-GSC/GEHL composite runs in a group
  (:mod:`repro.predictors.shared_core`): a shared-core group of pristine
  same-core members, or a group of one over a predictor's own tables;
  ``run_block`` runs the group's trace-only pre-pass over the sub-block
  and steps it once per conditional branch.  Any other member that
  offers ``predict_update_block(pcs, targets, takens, kinds, gaps,
  per_pc=None)`` (the bimodal baseline, standalone TAGE; see
  ``docs/ENGINE.md``) runs as a solo and consumes the sub-block itself.

Both produce bit-identical results; the block loop is picked
automatically whenever the predictor and the trace support it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.predictors.base import BranchPredictor
from repro.predictors.shared_core import is_groupable, plan_groups
from repro.sim.result import ENGINE_VERSION, SimulationResult
from repro.trace.trace import Trace

__all__ = [
    "ENGINE_VERSION",
    "SUB_BLOCK_RECORDS",
    "SimulationResult",
    "simulate",
    "simulate_many",
    "supports_fast_path",
]

def supports_fast_path(predictor: BranchPredictor, trace: Trace) -> bool:
    """``True`` when ``predictor`` and ``trace`` support the columnar fast path.

    A predictor qualifies when it can run as a group over its own tables
    (:func:`repro.predictors.shared_core.is_groupable`: a TAGE-GSC or GEHL
    composite, bare or in a ``SidecarPredictor``, whose adder components
    are all indexed) or consumes whole column sub-blocks through
    ``predict_update_block``.  A trace qualifies either by exposing its
    columns directly (:meth:`~repro.trace.trace.Trace.columns`) or by
    streaming columnar blocks (``iter_chunks()``, the
    :class:`~repro.trace.chunked.ChunkedTrace` protocol).
    """
    return (
        is_groupable(predictor)
        or getattr(predictor, "predict_update_block", None) is not None
    ) and (
        getattr(trace, "columns", None) is not None
        or getattr(trace, "iter_chunks", None) is not None
    )


#: Records per sub-block of :func:`_column_blocks`: the unit of the block
#: loop (``_Group.run_block``, ``predict_update_block``).  Big
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
    track_per_pc: bool = False,
    use_fast_path: Optional[bool] = None,
) -> SimulationResult:
    """Replay ``trace`` through ``predictor`` and measure its accuracy.

    A batch of one: ``simulate_many([predictor], ...)[0]``.  Every
    conditional branch of the trace is measured, as in the paper's
    championship framework.

    Parameters
    ----------
    predictor:
        The predictor under test; it is trained in place.
    trace:
        The branch trace to replay.
    track_per_pc:
        Record per-static-branch misprediction counts, keyed in the order
        of each branch's first misprediction.
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
        track_per_pc=track_per_pc,
        use_fast_path=use_fast_path,
    )[0]


def _simulate_records(
    predictor: BranchPredictor,
    trace: Trace,
    track_per_pc: bool,
) -> tuple:
    """Reference path: record views and the predict()/update() protocol.

    Counts its own conditional and instruction totals, because it is the
    oracle the columnar loops are checked against.
    """
    mispredictions = 0
    conditional = 0
    instructions = 0
    per_pc: Dict[int, int] = defaultdict(int)

    for record in trace:
        instructions += record.instruction_gap + 1
        if not record.is_conditional:
            predictor.observe_unconditional(record)
            continue
        prediction = predictor.predict(record)
        predictor.update(record, prediction)
        conditional += 1
        if prediction != record.taken:
            mispredictions += 1
            if track_per_pc:
                per_pc[record.pc] += 1

    return mispredictions, conditional, instructions, dict(per_pc)


def simulate_many(
    predictors: Sequence[BranchPredictor],
    trace: Trace,
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

    Parameters match :func:`simulate` (``track_per_pc`` applies to every
    predictor in the batch).  With ``use_fast_path=None`` members without
    fast-path support (:func:`supports_fast_path`) replay the record-based
    reference loop one by one and the rest share the columnar traversal;
    ``True`` requires the fast path for the whole batch, and ``False``
    forces the reference loop throughout.  ``share_cores=None`` (default)
    shares cores between pristine same-core members; ``False`` runs every
    composite as a group of one, trained in place.  Every setting
    produces bit-identical results.
    """
    predictors = list(predictors)
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
            "protocol (a groupable composite, or predict_update_block)"
        )
    counts = [0] * len(predictors)
    per_pc_maps: List[Dict[int, int]] = [{} for _ in predictors]
    conditional = trace.conditional_count
    instructions = trace.instruction_count
    for index, predictor in enumerate(predictors):
        if index not in columnar:
            (
                counts[index], conditional, instructions, per_pc_maps[index],
            ) = _simulate_records(predictor, trace, track_per_pc)
    if columnar:
        member_counts = _simulate_columnar(
            [predictors[index] for index in columnar],
            trace,
            [per_pc_maps[index] for index in columnar] if track_per_pc else None,
            share_cores,
        )
        for slot, index in enumerate(columnar):
            counts[index] = member_counts[slot]
    return [
        SimulationResult(
            trace_name=trace.name,
            predictor_name=predictor.name,
            conditional_branches=conditional,
            mispredictions=counts[index],
            instructions=instructions,
            storage_bits=predictor.storage_bits(),
            per_pc_mispredictions=per_pc_maps[index],
        )
        for index, predictor in enumerate(predictors)
    ]


def _simulate_columnar(
    predictors: Sequence[BranchPredictor],
    trace: Trace,
    per_pc_maps: Optional[Sequence[Dict[int, int]]],
    share_cores: Optional[bool],
) -> List[int]:
    """Run the fast-path members over the trace's column sub-blocks.

    Returns per-member misprediction counts.  ``per_pc_maps`` (one map
    per member, or ``None`` when per-PC counts are not tracked) is filled
    in place, each map keyed in first-misprediction order like the
    reference loop's.  ``share_cores=False`` makes every composite a
    group of one.

    Each sub-block goes to every group's ``run_block`` (the trace-only
    pre-pass, then one step per conditional branch, bumping the group's
    per-head counters and per-PC maps) and to every solo's
    ``predict_update_block``, which returns the sub-block's misprediction
    count.  Members are independent, so running them a sub-block at a
    time each is the same as interleaving them per branch.  After the
    traversal the group counters are scattered back to batch positions.
    """
    groups, solos = plan_groups(predictors, share_cores is not False)
    if per_pc_maps is not None:
        for group in groups:
            group.per_pc = [per_pc_maps[index] for index in group.indices]
    solo_steps = [
        (
            index,
            predictors[index].predict_update_block,
            None if per_pc_maps is None else per_pc_maps[index],
        )
        for index in solos
    ]
    counts = [0] * len(predictors)
    for block in _column_blocks(trace):
        for group in groups:
            group.run_block(block)
        for index, step, per_pc in solo_steps:
            counts[index] += step(*block, per_pc)
    for group in groups:
        for slot, index in enumerate(group.indices):
            counts[index] = group.counts[slot]
    return counts
