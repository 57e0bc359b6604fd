"""Tests for the multi-size circular shifter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.shifter import CircularShifter
from repro.errors import ArchitectureError


class TestRouting:
    def test_gather_semantics(self):
        shifter = CircularShifter(8)
        word = np.arange(8)
        routed = shifter.gather(word, shift=3, z=8)
        # lane r receives word[(r + 3) % 8]
        assert routed.tolist() == [3, 4, 5, 6, 7, 0, 1, 2]

    def test_scatter_inverts_gather(self):
        shifter = CircularShifter(96)
        word = np.arange(96)
        assert np.array_equal(
            shifter.scatter(shifter.gather(word, 41, 96), 41, 96), word
        )

    @given(
        st.integers(min_value=2, max_value=96),
        st.integers(min_value=0, max_value=95),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_all_sizes(self, z, shift):
        shift = shift % z
        shifter = CircularShifter(96)
        word = np.arange(z)
        assert np.array_equal(
            shifter.scatter(shifter.gather(word, shift, z), shift, z), word
        )

    def test_zero_shift_is_identity(self):
        shifter = CircularShifter(24)
        word = np.arange(24)
        assert np.array_equal(shifter.gather(word, 0, 24), word)

    def test_batch_routing(self):
        shifter = CircularShifter(8)
        words = np.arange(16).reshape(2, 8)
        routed = shifter.gather(words, 1, 8)
        assert routed.shape == (2, 8)
        assert routed[0, 0] == 1

    def test_matches_base_matrix_convention(self, tiny_code):
        """The shifter must realize H's connectivity exactly."""
        shifter = CircularShifter(tiny_code.z)
        h = tiny_code.H
        z = tiny_code.z
        block = tiny_code.base.nonzero_blocks()[0]
        column_values = np.arange(z)
        routed = shifter.gather(column_values, block.shift, z)
        for r in range(z):
            connected = np.nonzero(
                h[block.layer * z + r, block.column * z : (block.column + 1) * z]
            )[0]
            assert connected.size == 1
            assert routed[r] == connected[0]


class TestValidation:
    def test_z_too_large_raises(self):
        with pytest.raises(ArchitectureError):
            CircularShifter(8).gather(np.arange(9), 0, 9)

    def test_shift_out_of_range_raises(self):
        with pytest.raises(ArchitectureError):
            CircularShifter(8).gather(np.arange(8), 8, 8)

    def test_wrong_word_size_raises(self):
        with pytest.raises(ArchitectureError):
            CircularShifter(8).gather(np.arange(7), 0, 8)

    def test_bad_construction(self):
        with pytest.raises(ArchitectureError):
            CircularShifter(0)


class TestStructure:
    def test_stage_count(self):
        assert CircularShifter(96).stages == 7
        assert CircularShifter(64).stages == 6

    def test_mux_count_positive(self):
        assert CircularShifter(96).mux_count == 96 * 8

    def test_activity_counter(self):
        shifter = CircularShifter(8)
        shifter.gather(np.arange(8), 1, 8)
        shifter.scatter(np.arange(8), 1, 8)
        assert shifter.route_count == 2
        shifter.reset_counters()
        assert shifter.route_count == 0
