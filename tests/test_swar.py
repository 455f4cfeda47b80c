"""Property tests of the bulk (SWAR) column producers against their oracles.

:mod:`repro.common.swar` computes splitmix hashes and folded-history
columns for a whole block of branches at once; the per-branch functions
(:func:`repro.common.bits.mix_hash` at ``width=64``,
:class:`~repro.common.history.FoldedHistory`, ``TAGEEngine._table_index``
/ ``_table_tag``) are the oracles.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import swar
from repro.common.bits import MIX_ROUND_KEY, mix_hash
from repro.core.component import SharedState
from repro.predictors.tage import TAGEConfig, TAGEEngine
from repro.trace.branch import CONDITIONAL_CODE

#: Fields that stress the 64-bit reduction: 0, all ones, wider than a
#: slot's field and negative (a PC column is signed).
FIELDS = st.one_of(
    st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**64 + 5, 2**70 + 3, -1, -(2**63)]),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(0, 2**80),
)


@settings(max_examples=60, deadline=None)
@given(arity=st.integers(1, 4), data=st.data())
def test_swar_splitmix_matches_mix_hash(arity, data):
    rows = data.draw(st.lists(st.tuples(*[FIELDS] * arity), min_size=1, max_size=40))
    lanes = swar.Lanes(len(rows))
    columns = [swar.pack([row[field] for row in rows]) for field in range(arity)]
    acc = swar.mix_round(lanes, lanes.of(MIX_ROUND_KEY), columns[0], 0)
    hashed = swar.unpack(swar.mix_tail(lanes, acc, *columns[1:]), len(rows))
    assert list(hashed) == [mix_hash(*row, width=64) for row in rows]


def test_pack_reduces_signed_columns_modulo_2_64():
    values = [-1, -(2**63), 0, 2**63 - 1]
    assert list(swar.unpack(swar.pack(array("q", values)), 4)) == [
        value % 2**64 for value in values
    ]


def _shapes():
    """``(length, width)`` with ``L < W``, ``L == W``, ``L`` a multiple of
    ``W`` and free draws, widths up to the slot limit; one to four lengths
    per width, so the folds of one width share its prefix XOR."""
    def lengths(width):
        length = st.one_of(
            st.integers(1, width),
            st.just(width),
            st.integers(1, 6).map(lambda multiple: multiple * width),
            st.integers(1, 300),
        )
        return st.lists(length, min_size=1, max_size=4, unique=True).map(
            lambda drawn: [(value, width) for value in drawn]
        )

    return st.integers(1, swar.FIELD_BITS).flatmap(lengths)


def _split(rng, count):
    """Cut ``range(count)`` at random points into consecutive blocks."""
    cuts = sorted(rng.sample(range(1, count), min(count - 1, rng.randrange(6))))
    return list(zip([0] + cuts, cuts + [count]))


@settings(max_examples=40, deadline=None)
@given(
    shapes=st.lists(_shapes(), min_size=1, max_size=3).map(
        lambda groups: [shape for group in groups for shape in group]
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_fold_columns_match_incremental_folds(shapes, seed):
    rng = random.Random(seed)
    count = rng.randrange(1, 700)
    outcomes = [rng.random() < 0.6 for _ in range(count)]
    block_state, step_state = SharedState(history_capacity=400), SharedState(history_capacity=400)
    pairs = [
        (block_state.new_folded_history(*shape), step_state.new_folded_history(*shape))
        for shape in shapes
    ]
    for start, stop in _split(rng, count):
        size = stop - start
        block = block_state.advance_block(
            array("q", [0] * size), array("q", [8] * size),
            array("b", outcomes[start:stop]), array("b", [CONDITIONAL_CODE] * size),
        )
        for position, taken in enumerate(outcomes[start:stop]):
            for block_fold, step_fold in pairs:
                column = block.folds[block_fold]
                assert (column >> (swar.SLOT_BITS * position)) & (2**64 - 1) == step_fold.fold
            step_state.update_conditional_fields(0, 8, taken)
        for block_fold, step_fold in pairs:
            assert block_fold.fold == step_fold.fold
        assert block_state.global_history.bits == step_state.global_history.bits
        assert block_state.global_history.length == step_state.global_history.length


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), index_bits=st.integers(6, 11))
def test_tage_columns_match_table_index_and_tag(seed, index_bits):
    rng = random.Random(seed)
    config = TAGEConfig(num_tables=6, table_entries=1 << index_bits, max_history=120)
    block_state, step_state = SharedState(history_capacity=256), SharedState(history_capacity=256)
    block_engine, step_engine = TAGEEngine(block_state, config), TAGEEngine(step_state, config)
    count = rng.randrange(1, 600)
    records = [
        (
            rng.choice([rng.randrange(1 << 20), -rng.randrange(1, 1 << 40)]),
            rng.randrange(1 << 20),
            rng.random() < 0.5,
            CONDITIONAL_CODE if rng.random() < 0.7 else CONDITIONAL_CODE + 1,
        )
        for _ in range(count)
    ]
    for start, stop in _split(rng, count):
        chunk = records[start:stop]
        block = block_state.advance_block(
            *(array(code, column) for code, column in zip("qqbb", zip(*chunk)))
        )
        indices, tags, base = block_engine.index_columns(block)
        position = 0
        for pc, target, taken, kind in chunk:
            if kind != CONDITIONAL_CODE:
                step_state.observe_pc(pc)
                continue
            for table in range(config.num_tables):
                assert indices[table][position] == step_engine._table_index(pc, table)
                assert tags[table][position] == step_engine._table_tag(pc, table)
            assert base[position] == step_engine._base_index(pc)
            step_state.update_conditional_fields(pc, target, taken)
            position += 1
        assert position == block.n


def test_fold_longer_than_history_capacity_rejected():
    state = SharedState(history_capacity=64)
    state.new_folded_history(64, 11)
    with pytest.raises(ValueError, match="capacity"):
        state.new_folded_history(65, 11)
    with pytest.raises(ValueError, match="bits"):
        state.new_folded_history(10, swar.FIELD_BITS + 1)
