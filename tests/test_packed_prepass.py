"""The packed group pre-pass against its per-branch oracles.

The IMLI-OH outer histories of one geometry stay packed between
sub-blocks (one bit per history in byte masks, pending writes as the tail
of the walked branches); their per-history views are derived only when
read.  The IMLI-OH index columns of a sub-block's distinct reads and
other index columns are unpacked in batches, and a head without a
wormhole runs its loop sidecar on backward branches only.  Each is
checked here against the per-branch form it replaces:
``OuterHistory.advance``, ``mix_hash``, ``swar.unpack`` and the full
sidecar step.
"""

from __future__ import annotations

import gc
import random
from array import array
from operator import lt
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import swar
from repro.common.bits import mix_hash
from repro.core.component import BlockColumns, SharedState
from repro.core.imli_oh import IMLIOuterHistoryComponent, OuterHistory, _read_columns
from repro.predictors import shared_core
from repro.predictors.base import BranchPredictor
from repro.predictors.composites import SidecarPredictor
from repro.predictors.loop import LoopPredictor, LoopPredictorConfig
from repro.predictors.wormhole import WormholePredictor, WormholePredictorConfig
from repro.trace.branch import CONDITIONAL_CODE, KIND_FROM_CODE, BranchRecord


def _records(rng: random.Random, count: int) -> list:
    """Mixed-kind ``(pc, target, taken, kind)`` records, byte-granular PCs.

    Most PCs are small, so branches share slots; some are wide or
    negative (a PC column is signed).  About a quarter of the records are
    not conditional; about half of the conditional branches are backward,
    and most of those are taken, so the IMLI count climbs and resets; a
    few branch to themselves, which is not backward.
    """
    records = []
    for _ in range(count):
        wide = rng.randrange(1 << 40)
        pc = rng.choice([rng.randrange(1 << 12)] * 8 + [wide, -wide])
        if rng.random() < 0.25:
            kind = CONDITIONAL_CODE + rng.randrange(1, 4)
            records.append((pc, rng.randrange(1 << 12), True, kind))
        elif rng.random() < 0.5:
            target = pc - rng.randrange(64)
            records.append((pc, target, rng.random() < 0.85, CONDITIONAL_CODE))
        else:
            records.append((pc, pc + rng.randrange(1, 64), rng.random() < 0.6, CONDITIONAL_CODE))
    return records


def _columns(records: list) -> tuple:
    return tuple(array(code, column) for code, column in zip("qqbb", zip(*records)))


def _view(history: OuterHistory) -> tuple:
    return (list(history.history), list(history.pipe), list(history._pending), history._tick)


def _step(state: SharedState, histories: list, record: tuple, reads: list) -> None:
    """One record through the per-branch upkeep; appends each history's read."""
    pc, target, taken, kind = record
    if kind != CONDITIONAL_CODE:
        state.observe_pc(pc)
        return
    for history, (same, previous) in zip(histories, reads):
        slot = history.slot(pc)
        iterations = history.iterations_per_branch
        cell = slot * iterations + state.imli.count % iterations
        same.append(history.history[cell])
        previous.append(history.pipe[slot])
    state.update_conditional_fields(pc, target, taken)


def _register(state: SharedState, geometry: tuple, delays: list) -> list:
    return [
        state.trace_only(("outer", index), lambda delay=delay: OuterHistory(*geometry, delay))
        for index, delay in enumerate(delays)
    ]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 600),
    geometry=st.sampled_from([(4, 8), (16, 64), (1, 2), (2, 1)]),
    picks=st.lists(st.integers(0, 4), min_size=1, max_size=12),
    blocks=st.lists(st.tuples(st.integers(1, 600), st.booleans()), min_size=1, max_size=5),
)
def test_packed_walk_matches_per_branch_advance(seed, size, geometry, picks, blocks):
    # 1-12 histories (more than eight make two walks), delays 0, size - 1,
    # size, 600 and 1000, over sub-blocks of 1-600 mixed-kind records.
    # Every block's reads must match; the derived views are compared
    # after the blocks flagged True (which unpacks the walk, so the next
    # block packs a new one) and at the end (after packed continuation).
    delays = [[0, max(size - 1, 0), size, 600, 1000][pick] for pick in picks]
    rng = random.Random(seed)
    walked_state, stepped_state = SharedState(), SharedState()
    walked = _register(walked_state, geometry, delays)
    stepped = _register(stepped_state, geometry, delays)
    assert len(walked_state._trace_only) == len(delays)
    for length, inspect in blocks:
        records = _records(rng, length)
        block = walked_state.advance_block(*_columns(records))
        expected = [(bytearray(), bytearray()) for _ in delays]
        for record in records:
            _step(stepped_state, stepped, record, expected)
        assert [block.reads[history] for history in walked] == [
            (bytes(same), bytes(previous)) for same, previous in expected
        ]
        assert walked_state.imli.count == stepped_state.imli.count
        if inspect:
            assert [_view(history) for history in walked] == [_view(history) for history in stepped]
    assert [_view(history) for history in walked] == [_view(history) for history in stepped]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    delays=st.lists(st.sampled_from([0, 1, 3, 63, 700]), min_size=1, max_size=4, unique=True),
    operations=st.lists(
        st.one_of(
            st.tuples(st.just("block"), st.integers(1, 300)),
            st.tuples(st.just("step"), st.integers(1, 40)),
            st.tuples(st.sampled_from(["snapshot", "restore", "check"]), st.just(0)),
        ),
        min_size=1, max_size=10,
    ),
)
def test_walks_interleave_with_steps_and_pipe_restores(seed, delays, operations):
    # A trained group of one mixes per-branch steps (reference-path
    # replays), PIPE checkpoint restores and block walks on one state.
    rng = random.Random(seed)
    states = SharedState(), SharedState()
    components = [
        [IMLIOuterHistoryComponent(update_delay=delay) for delay in delays] for _ in states
    ]
    for state, parts in zip(states, components):
        for component in parts:
            component.bind(state)
    walked, stepped = ([component.outer for component in parts] for parts in components)
    snapshots = [None, None]
    for operation, length in operations:
        if operation == "snapshot":
            snapshots = [parts[0].snapshot_pipe() for parts in components]
        elif operation == "restore" and snapshots[0] is not None:
            for parts, snapshot in zip(components, snapshots):
                parts[0].restore_pipe(snapshot)
        elif operation == "check":
            assert [_view(history) for history in walked] == [_view(history) for history in stepped]
        elif operation in ("block", "step"):
            records = _records(rng, length)
            expected = [(bytearray(), bytearray()) for _ in delays]
            for record in records:
                _step(states[1], stepped, record, expected)
            if operation == "step":
                for record in records:
                    _step(states[0], walked, record, [([], []) for _ in delays])
                continue
            block = states[0].advance_block(*_columns(records))
            assert [block.reads[history] for history in walked] == [
                (bytes(same), bytes(previous)) for same, previous in expected
            ]
    assert [_view(history) for history in walked] == [_view(history) for history in stepped]


def test_packed_walks_form_no_reference_cycle():
    # A walk must not keep a finished group's histories alive until the
    # cyclic collector runs: members point to their walk, not back.
    gc.collect()
    gc.disable()
    try:
        state = SharedState()
        histories = _register(state, (16, 64), [0, 1, 63])
        state.advance_block(*_columns(_records(random.Random(3), 600)))
        assert histories[1].history is not None  # leaves the walk
        state.advance_block(*_columns(_records(random.Random(4), 600)))
        del state, histories
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 600),
    index_bits=st.integers(1, 16),
    outer=st.integers(1, 9),
)
def test_read_columns_match_mix_hash(seed, n, index_bits, outer):
    # Every outer history's column against the per-branch hash of its two
    # read bits, for one to nine distinct reads.
    rng = random.Random(seed)
    pcs = [rng.choice([rng.randrange(1 << 20), -rng.randrange(1, 1 << 40)]) for _ in range(n)]
    block = BlockColumns(n, swar.pack(pcs))
    histories = [OuterHistory(4, 8, delay) for delay in range(outer)]
    for history in histories:
        block.reads[history] = tuple(bytes(rng.randrange(2) for _ in range(n)) for _ in "sp")
    columns = _read_columns(block, (1 << index_bits) - 1)
    for history in histories:
        same, previous = block.reads[history]
        assert list(columns[(same, previous)]) == [
            mix_hash(pc, same_bit, 2 * previous_bit, width=index_bits)
            for pc, same_bit, previous_bit in zip(pcs, same, previous)
        ]


def _sidecars(wormhole: bool, use_loop: bool) -> tuple:
    """Fresh ``(loop, wormhole, use_loop)`` sidecars of a head."""
    loop = LoopPredictor(LoopPredictorConfig(entries=64))
    return loop, WormholePredictor(loop, WormholePredictorConfig()) if wormhole else None, use_loop


def _sidecar_state(loop, wormhole) -> tuple:
    loop = [
        (entry.tag, entry.trip_count, entry.current_count, entry.confidence, entry.valid)
        for entry in loop.entries
    ]
    if wormhole is None:
        return loop, None
    return loop, (
        [
            (pc, entry.history, entry.history_length, list(entry.counters), entry.usefulness)
            for pc, entry in wormhole.entries.items()
        ],
        wormhole._current_loop_pc,
    )


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), wormhole=st.booleans(), use_loop=st.booleans())
def test_run_sidecars_matches_the_full_step(wormhole_trace, seed, wormhole, use_loop):
    # With and without a wormhole, over a loop-nest trace whose loop
    # predictor grows confident: predictions and sidecar state after
    # every block equal the full per-branch step's.
    rng = random.Random(seed)
    pcs, targets, takens, _, _ = wormhole_trace.columns()
    run, full = _sidecars(wormhole, use_loop), _sidecars(wormhole, use_loop)
    overridden = 0
    for start in range(0, len(pcs), 512):
        block_pcs, block_targets = pcs[start:start + 512], targets[start:start + 512]
        block = SimpleNamespace(
            pcs=block_pcs, backward=bytes(map(lt, block_targets, block_pcs)),
            taken=bytes(takens[start:start + 512]), n=len(block_pcs),
        )
        main = bytearray(rng.random() < 0.8 for _ in range(block.n))
        expected = bytearray(
            shared_core._sidecar_step(full, pc, backward, taken, prediction)
            for pc, backward, taken, prediction in zip(block.pcs, block.backward, block.taken, main)
        )
        assert shared_core._run_sidecars(run, block, main) == expected
        assert _sidecar_state(*run[:2]) == _sidecar_state(*full[:2])
        overridden += sum(1 for got, was in zip(expected, main) if got != was)
    # Without a wormhole or a loop prediction in use, the sidecars only train.
    assert (overridden > 0) == (wormhole or use_loop)


class _Scripted(BranchPredictor):
    """A main predictor that predicts a given column and learns nothing."""

    def __init__(self, predictions) -> None:
        self.predictions = iter(predictions)

    def predict(self, record) -> bool:
        return bool(next(self.predictions))

    def update(self, record, prediction) -> None:
        pass

    def storage_bits(self) -> int:
        return 0


@st.composite
def _loop_nests(draw) -> list:
    """Mixed-kind ``(pc, target, taken, kind)`` records of a few loop nests.

    Each nest runs ``outer`` times an inner loop of ``trip`` iterations
    (a constant trip count, so the loop predictor grows confident), whose
    body holds one to three forward branches, each random, alternating
    or repeating the previous outer iteration's outcome of the iteration
    before (the wormhole's correlation); non-conditional records fall in
    between.  PCs are byte-granular.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    records = []
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.integers(1, 1 << 16))
        trip = draw(st.integers(2, 12))
        outer = draw(st.integers(1, 24))
        shapes = st.sampled_from(["random", "alternate", "diagonal"])
        body = draw(st.lists(shapes, min_size=1, max_size=3))
        rows = [[rng.random() < 0.5 for _ in range(trip)] for _ in body]
        for _ in range(outer):
            previous_rows, rows = rows, [[] for _ in body]
            for inner in range(trip):
                for offset, (shape, previous, row) in enumerate(zip(body, previous_rows, rows)):
                    pc = base + 3 * offset + 1
                    if shape == "random" or (shape == "diagonal" and not inner):
                        taken = rng.random() < 0.5
                    elif shape == "alternate":
                        taken = inner % 2 == 0
                    else:
                        taken = previous[inner - 1]
                    row.append(taken)
                    records.append((pc, pc + 40, taken, CONDITIONAL_CODE))
                    if rng.random() < 0.2:
                        kind = CONDITIONAL_CODE + rng.randrange(1, 4)
                        records.append((pc + 2, rng.randrange(1 << 16), True, kind))
                back = base + 3 * len(body) + 1
                records.append((back, base, inner < trip - 1, CONDITIONAL_CODE))
    return records


@settings(max_examples=8, deadline=None)
@given(
    records=_loop_nests(),
    seed=st.integers(0, 2**32 - 1),
    sub_block=st.sampled_from([5, 64, 512]),
)
def test_run_sidecars_matches_the_sidecar_predictor(records, seed, sub_block):
    # The block form of every sidecar shape -- loop only, wormhole only
    # (the loop predictor supplies trip counts) and both -- against
    # SidecarPredictor stepped record by record with its own instances:
    # predictions and every loop and wormhole entry after every block.
    rng = random.Random(seed)
    conditional = sum(1 for record in records if record[3] == CONDITIONAL_CODE)
    main = bytes(rng.random() < 0.8 for _ in range(conditional))
    for wormhole, use_loop in [(False, True), (True, False), (True, True)]:
        state = SharedState()
        run = _sidecars(wormhole, use_loop)
        loop, wormhole_predictor, _ = _sidecars(wormhole, use_loop)
        reference = SidecarPredictor(
            _Scripted(main), loop_predictor=loop, wormhole=wormhole_predictor,
            use_loop_prediction=use_loop,
        )
        done = 0
        for start in range(0, len(records), sub_block):
            chunk = records[start:start + sub_block]
            block = state.advance_block(*_columns(chunk))
            got = shared_core._run_sidecars(run, block, bytearray(main[done:done + block.n]))
            expected = bytearray()
            for pc, target, taken, kind in chunk:
                record = BranchRecord(pc, target, taken, KIND_FROM_CODE[kind])
                if not record.is_conditional:
                    reference.observe_unconditional(record)
                    continue
                prediction = reference.predict(record)
                reference.update(record, prediction)
                expected.append(prediction)
            assert got == expected, (wormhole, use_loop, start)
            assert _sidecar_state(*run[:2]) == _sidecar_state(loop, wormhole_predictor)
            done += block.n
