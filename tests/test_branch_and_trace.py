"""Tests for the trace model: BranchRecord, Trace, serialisation, statistics."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.trace.branch import BranchKind, BranchRecord, conditional_branch
from repro.trace.stats import compute_statistics
from repro.trace.trace import Trace, load_trace, save_trace


class TestBranchRecord:
    def test_conditional_constructor(self):
        record = conditional_branch(pc=0x100, target=0x140, taken=True)
        assert record.is_conditional
        assert not record.is_backward
        assert record.kind is BranchKind.CONDITIONAL

    def test_backward_detection(self):
        record = conditional_branch(pc=0x200, target=0x100, taken=True)
        assert record.is_backward

    def test_unconditional_must_be_taken(self):
        with pytest.raises(ValueError):
            BranchRecord(pc=0x100, target=0x200, taken=False, kind=BranchKind.UNCONDITIONAL)

    def test_negative_pc_rejected(self):
        with pytest.raises(ValueError):
            conditional_branch(pc=-1, target=0, taken=True)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            conditional_branch(pc=1, target=2, taken=True, instruction_gap=-1)

    def test_kind_is_conditional_flag(self):
        assert BranchKind.CONDITIONAL.is_conditional
        assert not BranchKind.CALL.is_conditional
        assert not BranchKind.RETURN.is_conditional

    def test_records_are_immutable(self):
        record = conditional_branch(pc=0x100, target=0x140, taken=True)
        with pytest.raises(AttributeError):
            record.taken = False  # type: ignore[misc]


class TestTrace:
    def _simple_trace(self) -> Trace:
        trace = Trace(name="example", metadata={"seed": "1"})
        trace.append(conditional_branch(0x100, 0x140, True, instruction_gap=4))
        trace.append(conditional_branch(0x100, 0x140, False, instruction_gap=4))
        trace.append(BranchRecord(pc=0x180, target=0x200, taken=True, kind=BranchKind.CALL))
        trace.append(conditional_branch(0x200, 0x180, True, instruction_gap=4))
        return trace

    def test_lengths_and_counts(self):
        trace = self._simple_trace()
        assert len(trace) == 4
        assert trace.conditional_count == 3

    def test_instruction_count(self):
        trace = self._simple_trace()
        expected = sum(record.instruction_gap + 1 for record in trace)
        assert trace.instruction_count == expected

    def test_static_branches(self):
        static = self._simple_trace().static_branches()
        assert static[0x100] == 2
        assert static[0x200] == 1
        assert 0x180 not in static  # calls are not conditional

    def test_taken_rate(self):
        assert self._simple_trace().taken_rate() == pytest.approx(2 / 3)

    def test_slice(self):
        trace = self._simple_trace()
        part = trace.slice(1, 3)
        assert len(part) == 2
        assert part.name == trace.name

    def test_indexing_and_iteration(self):
        trace = self._simple_trace()
        assert trace[0].pc == 0x100
        assert [record.pc for record in trace][-1] == 0x200

    def test_extend(self):
        trace = Trace(name="x")
        trace.extend([conditional_branch(1, 2, True)] * 3)
        assert len(trace) == 3

    def test_empty_trace_taken_rate(self):
        assert Trace(name="empty").taken_rate() == 0.0


class TestTraceSerialisation:
    def test_roundtrip(self, tmp_path):
        trace = Trace(name="roundtrip", metadata={"kernel": "sic", "seed": "42"})
        trace.append(conditional_branch(0x100, 0x140, True))
        trace.append(BranchRecord(pc=0x180, target=0x100, taken=True, kind=BranchKind.UNCONDITIONAL))
        trace.append(conditional_branch(0x200, 0x100, False))
        path = tmp_path / "trace.txt"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert loaded.metadata == trace.metadata
        assert len(loaded) == len(trace)
        for original, restored in zip(trace, loaded):
            assert original == restored

    def test_load_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_trace(path)

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**20),
                st.integers(min_value=0, max_value=2**20),
                st.booleans(),
            ),
            max_size=30,
        )
    )
    def test_roundtrip_property(self, rows):
        import tempfile
        from pathlib import Path

        trace = Trace(name="prop")
        for pc, target, taken in rows:
            trace.append(conditional_branch(pc, target, taken))
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "prop.txt"
            save_trace(trace, path)
            assert [r.pc for r in load_trace(path)] == [r.pc for r in trace]


class TestTraceStatistics:
    def test_statistics_on_simple_loop(self, simple_loop_records):
        trace = Trace(name="loops", records=list(simple_loop_records))
        stats = compute_statistics(trace)
        assert stats.conditional_branches == 15
        assert stats.static_conditional_branches == 1
        assert stats.backward_branch_fraction == 1.0
        # Three loops of five iterations each.
        assert stats.mean_inner_loop_trip_count == pytest.approx(5.0)

    def test_statistics_fields_consistent(self, sic_trace):
        stats = compute_statistics(sic_trace)
        assert stats.total_branches == len(sic_trace)
        assert stats.conditional_branches <= stats.total_branches
        assert 0.0 <= stats.taken_rate <= 1.0
        assert stats.instructions == sic_trace.instruction_count

    def test_empty_trace(self):
        stats = compute_statistics(Trace(name="empty"))
        assert stats.conditional_branches == 0
        assert stats.taken_rate == 0.0
        assert stats.mean_inner_loop_trip_count == 0.0
