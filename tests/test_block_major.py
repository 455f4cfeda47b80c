"""The block-major group schedule, stage by stage.

A shared-core group runs each sub-block in three stages: the trace-only
pre-pass (with one IMLI-OH walk for every update delay of a geometry),
the TAGE core over the whole sub-block, then one generated kernel per
head.  The oracles here are the per-branch forms those stages replace:
``OuterHistory.advance`` one instance per delay, a sub-block of one
record, and the record-based reference path.
"""

from __future__ import annotations

import random
from array import array
from collections import deque
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_batch_engine as batch_tests
from repro.common import swar
from repro.core.component import BlockColumns
from repro.core.imli_oh import OuterHistory
from repro.predictors.composites import CompositeOptions, build
from repro.predictors.shared_core import head_kernel, is_pristine, plan_groups
from repro.sim import engine
from repro.sim.engine import SUB_BLOCK_RECORDS, simulate, simulate_many

#: Fixture of short mixed-kind traces with byte-granular PCs, monolithic
#: and chunked (97 records a chunk).
differential_traces = batch_tests.differential_traces


def _block(pcs, targets, takens, counts):
    """The :class:`BlockColumns` fields an outer-history walk reads."""
    block = BlockColumns(len(pcs), swar.pack(pcs))
    block.imli = swar.pack(counts)
    block.pcs, block.taken = pcs, bytes(takens)
    block.backward = bytes(map(lt, targets, pcs))
    return block


def _outer_state(history):
    return (list(history.history), list(history.pipe), list(history._pending), history._tick)


@settings(max_examples=60, deadline=None)
@given(
    extra=st.sets(st.integers(2, 3 * SUB_BLOCK_RECORDS), max_size=9),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 2 * SUB_BLOCK_RECORDS + 200),
    cuts=st.lists(st.floats(0, 1), max_size=6),
    warm_up=st.integers(0, 80),
)
def test_one_walk_matches_per_delay_advance(extra, seed, length, cuts, warm_up):
    # Delays 0 and 1, random others (some longer than a sub-block, and
    # sometimes more than the eight one walk holds), over random block
    # splits.  Each history may start mid-stream: a per-branch warm-up
    # leaves pending writes the walk must carry in.
    delays = sorted({0, SUB_BLOCK_RECORDS + 1} | extra)
    delays.insert(1, 1)
    rng = random.Random(seed)
    total = warm_up + length
    pcs = [rng.randrange(1 << 12) for _ in range(total)]
    targets = [rng.randrange(1 << 12) for _ in range(total)]
    takens = [rng.random() < 0.6 for _ in range(total)]
    counts = [rng.randrange(100) for _ in range(total)]
    oracle = [OuterHistory(4, 8, delay) for delay in delays]
    walked = [OuterHistory(4, 8, delay) for delay in delays]
    expected = [([], []) for _ in delays]
    for position in range(total):
        pc, count = pcs[position], counts[position]
        for history, (same, previous) in zip(oracle, expected):
            slot = history.slot(pc)
            if position >= warm_up:
                same.append(history.history[slot * 8 + count % 8])
                previous.append(history.pipe[slot])
            history.advance(pc, targets[position], takens[position], count)
        if position < warm_up:
            for history in walked:
                history.advance(pc, targets[position], takens[position], count)
    got = [([], []) for _ in delays]
    bounds = sorted({warm_up, total} | {warm_up + int(cut * length) for cut in cuts})
    for start, stop in zip(bounds, bounds[1:]):
        block = _block(pcs[start:stop], targets[start:stop], takens[start:stop], counts[start:stop])
        reads = OuterHistory.advance_together(walked, block)
        for (same, previous), (same_column, previous_column) in zip(got, reads):
            same += same_column
            previous += previous_column
    assert got == expected
    for history, twin in zip(walked, oracle):
        assert _outer_state(history) == _outer_state(twin), history.update_delay


@settings(max_examples=60, deadline=None)
@given(
    delays=st.sets(
        st.sampled_from([0, 1, 2, 3, 7, 63, 200, 511, 512, 513, 700, 1100]), min_size=1, max_size=9
    ),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 3 * SUB_BLOCK_RECORDS),
    cuts=st.lists(st.floats(0, 1), max_size=6),
    warm_up=st.integers(0, 80),
)
def test_generated_walk_matches_bit_mask_walk(delays, seed, length, cuts, warm_up):
    # Any delay set, over random sub-block cuts after a per-branch warm-up,
    # so pending writes are carried into blocks and across them.  The
    # walk's reads and every history's table, PIPE vector, pending writes
    # and tick must match the bit-mask walk's and per-branch advance's.
    delays = sorted(delays)
    rng = random.Random(seed)
    total = warm_up + length
    pcs = [rng.randrange(1 << 12) for _ in range(total)]
    targets = [rng.randrange(1 << 12) for _ in range(total)]
    takens = [rng.random() < 0.6 for _ in range(total)]
    counts = [rng.randrange(100) for _ in range(total)]
    walked, frozen, stepped = ([OuterHistory(4, 8, delay) for delay in delays] for _ in range(3))
    for position in range(warm_up):
        for history in walked + frozen + stepped:
            history.advance(pcs[position], targets[position], takens[position], counts[position])
    bounds = sorted({warm_up, total} | {warm_up + int(cut * length) for cut in cuts})
    for start, stop in zip(bounds, bounds[1:]):
        block = (
            pcs[start:stop], targets[start:stop],
            array("b", takens[start:stop]), array("Q", counts[start:stop]),
        )
        reads = OuterHistory.advance_together(walked, _block(*block))
        for first in range(0, len(delays), 8):
            expected = _bit_mask_walk(frozen[first:first + 8], *block)
            assert reads[first:first + 8] == expected
        for history, (same, previous) in zip(stepped, reads):
            for position in range(start, stop):
                pc, count = pcs[position], counts[position]
                slot = history.slot(pc)
                cell = slot * 8 + count % 8
                k = position - start
                assert (same[k], previous[k]) == (history.history[cell], history.pipe[slot])
                history.advance(pc, targets[position], takens[position], count)
        for history, twin, step in zip(walked, frozen, stepped):
            assert _outer_state(history) == _outer_state(twin) == _outer_state(step)


def test_head_kernel_is_generated_once_per_shape():
    assert head_kernel(3, True) is head_kernel(3, True)
    assert head_kernel(3, True) is not head_kernel(3, False)
    assert head_kernel(3, True) is not head_kernel(4, True)


class _Adder:
    """The threshold state the kernel reads and writes back."""

    def __init__(self, threshold):
        self.threshold = threshold
        self._threshold_counter = 0
        self._threshold_counter_max = 2
        self._threshold_counter_min = -2


def test_head_kernel_rules_by_hand():
    # Two rows over one-entry tables, so every branch reads index 0 of
    # each: the centred sum is 2 * (a + b) + 2.
    first, second = [1], [-1]
    tables = [(first, 3, -4), (second, 3, -4)]
    adder = _Adder(threshold=3)
    gehl = head_kernel(2, False)
    # Branch 1: sum 2 predicts taken but is not taken: both rows step
    # down, and the miss moves the threshold counter to 1.  Branch 2: sum
    # -2 misses a taken branch: both rows step up, the counter reaches 2,
    # resets, and the threshold rises to 4.  Branch 3: sum 2 is right but
    # not above the threshold: both rows step up, the counter drops to -1.
    predictions = gehl([[0, 0, 0], [0, 0, 0]], tables, bytes([0, 1, 1]), None, adder, 0)
    assert list(predictions) == [1, 0, 1]
    assert (first, second) == ([2], [0])
    assert (adder.threshold, adder._threshold_counter) == (4, -1)
    # A confident, right sum (2 * 5 + 2 = 12 > 4) trains nothing ...
    first[0], second[0] = 3, 2
    assert list(gehl([[0], [0]], tables, b"\x01", None, adder, 0)) == [1]
    assert (first, second, adder._threshold_counter) == ([3], [2], -1)
    # ... but a corrector head whose final prediction is wrong trains it
    # anyway: below the revert margin TAGE's "not taken" stands, misses,
    # and forces the step up (the first row saturates at 3).  Above the
    # margin the sum reverts TAGE.
    corrector = head_kernel(2, True)
    assert list(corrector([[0], [0]], tables, b"\x01", b"\x00", adder, 20)) == [0]
    assert (first, second, adder._threshold_counter) == ([3], [3], -1)
    assert list(corrector([[0], [0]], tables, b"\x01", b"\x00", adder, 10)) == [1]


#: Heads of the schedule differential: TAGE-bit bias tables (every
#: tage-gsc corrector), local history, loop and wormhole sidecars, and
#: outer histories of three delays.
SCHEDULE_HEADS = [
    dict(imli_sic=True, imli_oh=True, oh_update_delay=0, local=True, loop=True),
    dict(imli_oh=True, oh_update_delay=1, wormhole=True, imli_global_tables=1),
    dict(imli_oh=True, oh_update_delay=63, local=True, loop=True, wormhole=True),
]


def _schedule_grid():
    return [
        build(CompositeOptions(base=base, **head), "small")
        for base in ("tage-gsc", "gehl")
        for head in SCHEDULE_HEADS
    ]


@pytest.mark.parametrize("use_chunks", [False, True])
def test_one_record_sub_blocks_match_the_default_schedule(
    differential_traces, monkeypatch, use_chunks
):
    # Sub-blocks of one record run every stage once per branch, which is
    # the per-branch schedule; the default runs each stage over up to 512
    # records.  Both must give the same counts and per-PC maps, for a
    # tage-gsc and a gehl group of three heads each, and for a group of
    # one that trains a predictor in place and then continues on the
    # reference path.
    monolithic, chunked = differential_traces
    first, second = (chunked if use_chunks else monolithic)
    outcomes = []
    for size in (1, SUB_BLOCK_RECORDS):
        monkeypatch.setattr(engine, "SUB_BLOCK_RECORDS", size)
        predictors = _schedule_grid()
        groups, solos = plan_groups(predictors)
        assert sorted(len(group.indices) for group in groups) == [3, 3] and solos == []
        grouped = simulate_many(predictors, first, track_per_pc=True)
        lone = build(CompositeOptions(base="tage-gsc", **SCHEDULE_HEADS[2]), "small")
        trained = simulate(lone, first, track_per_pc=True)
        assert not is_pristine(lone)
        continued = simulate(lone, second, track_per_pc=True, use_fast_path=False)
        outcomes.append(grouped + [trained, continued])
    one_record, default = outcomes
    for result, expected in zip(one_record, default):
        batch_tests._assert_identical(result, expected)
        assert list(result.per_pc_mispredictions.items()) == list(
            expected.per_pc_mispredictions.items()
        )
    reference = [
        simulate(predictor, first, track_per_pc=True, use_fast_path=False)
        for predictor in _schedule_grid()
    ]
    for result, expected in zip(default, reference):
        batch_tests._assert_identical(result, expected)


#: ``_BIT_OF[i]`` translates a byte of history masks to history ``i``'s bit.
_BIT_OF = [bytes((value >> bit) & 1 for value in range(256)) for bit in range(8)]


def _bit_mask_walk(histories, pcs, targets, takens, imli_counts):
    """The bit-mask walk before its per-branch loop was generated (the oracle)."""
    first = histories[0]
    n = len(pcs)
    width = first.branch_index_bits
    slot_mask = first.branch_index_mask
    iterations = first.iterations_per_branch
    slots = [(pc ^ (pc >> width) ^ (pc >> (2 * width))) & slot_mask for pc in pcs]
    cells = [slot * iterations + count % iterations for slot, count in zip(slots, imli_counts)]
    # Per branch: its history write ``(cell, outcome)``, or None for a
    # backward branch (not recorded).
    records = [
        None if target < pc else (cell, 1 if taken else 0)
        for pc, target, taken, cell in zip(pcs, targets, takens, cells)
    ]
    # History i's writes land in bit i of the masks.  A pending write is
    # applied at the first position whose tick reaches its due tick,
    # after that branch's reads and before its PIPE staging, as in
    # advance(); delay 0 writes right after the staging.  So at
    # position k a history of delay d >= 1 applies the write of branch
    # k - d, looked up in ``writes`` (padded in front for k < d), and
    # the pending writes it carried into the block where they fall due.
    carried = [[] for _ in range(n)]
    lags = []
    zero_bits = 0
    cell_masks = 0
    pipe_masks = 0
    pendings = []
    for bit_index, history in enumerate(histories):
        bit = 1 << bit_index
        tick = history._tick
        pending: deque = deque()
        for entry in history._pending:
            cell, outcome, due = entry
            position = due - tick - 1
            if position >= n:
                pending.append(entry)
            else:
                carried[max(position, 0)].append((cell, 0xFF ^ bit, bit if outcome else 0))
        delay = history.update_delay
        if delay == 0:
            zero_bits |= bit
        else:
            if delay < n:
                lags.append((delay, bit, 0xFF ^ bit))
            pending.extend(
                (*records[position], tick + position + 1 + delay)
                for position in range(max(n - delay, 0), n)
                if records[position] is not None
            )
        pendings.append(pending)
        cell_masks |= int.from_bytes(bytes(history.history), "little") << bit_index
        pipe_masks |= int.from_bytes(bytes(history.pipe), "little") << bit_index
    padding = max((delay for delay, _, _ in lags), default=0)
    writes = [None] * padding + records
    lags = [(padding - delay, bit, keep) for delay, bit, keep in lags]
    hist = bytearray(cell_masks.to_bytes(len(first.history), "little"))
    pipe = bytearray(pipe_masks.to_bytes(len(first.pipe), "little"))
    zero_keep = 0xFF ^ zero_bits
    same = bytearray(n)
    previous = bytearray(n)
    position = 0
    for cell, slot, record, events in zip(cells, slots, records, carried):
        same[position] = hist[cell]
        previous[position] = pipe[slot]
        for written, keep, value in events:
            hist[written] = hist[written] & keep | value
        for offset, bit, keep in lags:
            write = writes[position + offset]
            if write is not None:
                written, outcome = write
                hist[written] = hist[written] | bit if outcome else hist[written] & keep
        position += 1
        if record is not None:
            pipe[slot] = value = hist[cell]
            if zero_bits:
                hist[cell] = value | zero_bits if record[1] else value & zero_keep
    reads = []
    for bit_index, (history, pending) in enumerate(zip(histories, pendings)):
        bit = _BIT_OF[bit_index]
        history.history[:] = hist.translate(bit)
        history.pipe[:] = pipe.translate(bit)
        history._writes = pending
        history._ticks += n
        reads.append((same.translate(bit), previous.translate(bit)))
    return reads
