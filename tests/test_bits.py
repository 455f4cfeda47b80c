"""Unit and property-based tests for repro.common.bits."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.common.bits import (
    bit_at,
    fold_bits,
    hash_pc,
    is_power_of_two,
    log2_exact,
    mask,
    mix_hash,
    rotate_left,
)


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    def test_small_widths(self):
        assert mask(1) == 0b1
        assert mask(3) == 0b111
        assert mask(8) == 0xFF

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)

    @given(st.integers(min_value=0, max_value=256))
    def test_mask_is_all_ones(self, width):
        assert mask(width) == (1 << width) - 1


class TestRotateLeft:
    def test_identity_rotation(self):
        assert rotate_left(0b1011, 0, 4) == 0b1011

    def test_simple_rotation(self):
        assert rotate_left(0b0001, 1, 4) == 0b0010
        assert rotate_left(0b1000, 1, 4) == 0b0001

    def test_full_rotation_is_identity(self):
        assert rotate_left(0b1011, 4, 4) == 0b1011

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            rotate_left(1, 1, 0)

    @given(
        st.integers(min_value=0, max_value=2**16 - 1),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=1, max_value=16),
    )
    def test_rotation_preserves_popcount(self, value, amount, width):
        value &= mask(width)
        rotated = rotate_left(value, amount, width)
        assert bin(rotated).count("1") == bin(value).count("1")

    @given(
        st.integers(min_value=0, max_value=2**16 - 1),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=1, max_value=16),
    )
    def test_rotation_is_invertible(self, value, amount, width):
        value &= mask(width)
        rotated = rotate_left(value, amount, width)
        assert rotate_left(rotated, width - (amount % width), width) == value


class TestFoldBits:
    def test_zero_output_width(self):
        assert fold_bits(0b1111, 4, 0) == 0

    def test_fold_shorter_than_output(self):
        assert fold_bits(0b101, 3, 8) == 0b101

    def test_fold_exact_xor(self):
        # 0b1101_0110 folded to 4 bits = 0b1101 ^ 0b0110
        assert fold_bits(0b11010110, 8, 4) == (0b1101 ^ 0b0110)

    def test_fold_masks_input(self):
        assert fold_bits(0b111111, 3, 3) == 0b111

    def test_negative_output_width_rejected(self):
        with pytest.raises(ValueError):
            fold_bits(1, 4, -1)

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=16),
    )
    def test_fold_fits_in_output_width(self, value, input_width, output_width):
        assert 0 <= fold_bits(value, input_width, output_width) < (1 << output_width)

    @given(st.integers(min_value=1, max_value=16))
    def test_fold_of_zero_is_zero(self, output_width):
        assert fold_bits(0, 64, output_width) == 0


class TestHashPC:
    def test_fits_in_width(self):
        for pc in (0, 0x1234, 0xFFFF_FFFF, 123456789):
            assert 0 <= hash_pc(pc, 10) < 1024

    def test_distinct_for_nearby_pcs(self):
        values = {hash_pc(0x1000 + 64 * i, 10) for i in range(16)}
        assert len(values) > 8

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            hash_pc(0x1000, 0)

    @given(st.integers(min_value=0, max_value=2**48), st.integers(min_value=1, max_value=20))
    def test_hash_range_property(self, pc, width):
        assert 0 <= hash_pc(pc, width) < (1 << width)


class TestMixHash:
    def test_fits_in_width(self):
        assert 0 <= mix_hash(0x1234, 7, width=9) < 512

    def test_sensitive_to_every_field(self):
        base = mix_hash(0x1234, 5, 1, width=12)
        assert mix_hash(0x1234, 6, 1, width=12) != base or mix_hash(0x1234, 5, 2, width=12) != base

    def test_small_count_values_spread(self):
        indices = {mix_hash(0x8000, count, width=9) for count in range(64)}
        assert len(indices) > 48

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            mix_hash(1, 2, width=0)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=16),
    )
    def test_mix_hash_range_property(self, values, width):
        assert 0 <= mix_hash(*values, width=width) < (1 << width)

    @given(st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=5))
    def test_mix_hash_deterministic(self, values):
        assert mix_hash(*values, width=11) == mix_hash(*values, width=11)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=64),
    )
    def test_narrow_width_is_low_bits_of_full_hash(self, values, width):
        # Every table index is the low bits of one 64-bit hash, which is
        # what the block form (repro.common.swar) masks.
        assert mix_hash(*values, width=width) == mix_hash(*values, width=64) & mask(width)

    @pytest.mark.parametrize(
        "values, expected",
        [
            ((0x1234,), 0x052273FD2BE67D76),
            ((0x1234, 5), 0x2C9169378C0B2428),
            ((0x1234, 5, 1), 0xF1EA4FC767D5559B),
            ((0x1234, 5, 1, 2), 0x034FB906821D7CF7),
            ((2**64 - 1, 0, 7), 0x9139957EFECA95A3),
        ],
        ids=["one-field", "two-fields", "three-fields", "four-fields", "wide-field"],
    )
    def test_pinned_values(self, values, expected):
        # The goldens and every index depend on these exact bits.
        assert mix_hash(*values, width=64) == expected

    def test_field_order_and_count_matter(self):
        assert mix_hash(1, 2, width=64) != mix_hash(2, 1, width=64)
        assert mix_hash(0x1234, width=64) != mix_hash(0x1234, 0, width=64)


class TestBitAt:
    def test_extracts_bits(self):
        assert bit_at(0b1010, 0) == 0
        assert bit_at(0b1010, 1) == 1
        assert bit_at(0b1010, 3) == 1

    def test_rejects_negative_position(self):
        with pytest.raises(ValueError):
            bit_at(1, -1)


class TestPowersOfTwo:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(1024)
        assert not is_power_of_two(0)
        assert not is_power_of_two(3)
        assert not is_power_of_two(-4)

    def test_log2_exact(self):
        assert log2_exact(1) == 0
        assert log2_exact(512) == 9

    def test_log2_exact_rejects_non_powers(self):
        with pytest.raises(ValueError):
            log2_exact(12)

    @given(st.integers(min_value=0, max_value=30))
    def test_log2_roundtrip(self, exponent):
        assert log2_exact(1 << exponent) == exponent
