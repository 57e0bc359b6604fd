"""Tests for expanded QC-LDPC codes."""

import numpy as np
import pytest

from repro.codes import get_code
from repro.codes.base_matrix import BaseMatrix
from repro.codes.qc import QCLDPCCode


@pytest.fixture
def code():
    entries = np.array(
        [
            [1, 0, -1, 2, 0, -1],
            [-1, 2, 3, 0, 0, -1],
            [0, -1, 1, -1, 0, 0],
        ]
    )
    return QCLDPCCode(BaseMatrix(entries=entries, z=4, name="qc-test"))


class TestExpansion:
    def test_h_shape(self, code):
        assert code.H.shape == (12, 24)

    def test_h_row_weights_match_layer_degrees(self, code):
        row_weights = np.asarray(code.H.sum(axis=1)).ravel()
        for layer in range(code.base.j):
            expected = code.base.layer_degrees()[layer]
            block = row_weights[layer * 4 : (layer + 1) * 4]
            assert (block == expected).all()

    def test_each_block_is_permutation(self, code):
        h = code.H
        for block in code.base.nonzero_blocks():
            sub = h[
                block.layer * 4 : (block.layer + 1) * 4,
                block.column * 4 : (block.column + 1) * 4,
            ]
            expected = np.roll(np.eye(4, dtype=np.uint8), block.shift, axis=1)
            assert np.array_equal(sub, expected)

    def test_num_edges(self, code):
        assert code.num_edges == np.count_nonzero(code.H)

    def test_h_is_dense_read_only_uint8(self, code):
        assert isinstance(code.H, np.ndarray)
        assert code.H.dtype == np.uint8
        assert not code.H.flags.writeable
        assert code.H is code.H  # built once


@pytest.fixture(params=["qc-test", "802.16e:1/2:z24", "802.11n:1/2:z27"])
def any_code(request, code):
    return code if request.param == "qc-test" else get_code(request.param)


class TestShiftTable:
    def test_layer_indices_match_layer_tables(self, any_code):
        """The one table re-derives from the block list and shift rule."""
        z = any_code.z
        rows = np.arange(z)
        for layer, blocks in enumerate(any_code.layer_tables):
            expected = np.stack(
                [block.column * z + (rows + block.shift) % z for block in blocks]
            )
            assert np.array_equal(any_code.layer_indices[layer], expected)

    def test_layer_indices_int32_read_only(self, any_code):
        for layer, idx in enumerate(any_code.layer_indices):
            assert idx.dtype == np.int32
            assert idx.shape == (len(any_code.layer_tables[layer]), any_code.z)
            assert idx.flags.c_contiguous
            assert not idx.flags.writeable

    def test_layer_indices_distinct_within_layer(self, any_code):
        for idx in any_code.layer_indices:
            assert np.unique(idx).size == idx.size

    def test_edge_list_is_h(self, any_code):
        checks, variables = any_code.edge_list()
        edges = any_code.num_edges
        assert checks.size == variables.size == edges
        assert len(set(zip(checks.tolist(), variables.tolist()))) == edges
        assert (any_code.H[checks, variables] == 1).all()


class TestSyndrome:
    def test_zero_word_is_codeword(self, code):
        assert code.is_codeword(np.zeros(code.n, dtype=np.uint8))

    def test_single_one_is_not_codeword(self, code):
        word = np.zeros(code.n, dtype=np.uint8)
        word[0] = 1
        assert not code.is_codeword(word)

    def test_batch_syndrome_shape(self, code):
        words = np.zeros((5, code.n), dtype=np.uint8)
        assert code.syndrome(words).shape == (5, code.m)

    def test_batch_is_codeword(self, code):
        words = np.zeros((3, code.n), dtype=np.uint8)
        words[1, 0] = 1
        assert code.is_codeword(words).tolist() == [True, False, True]

    def test_wrong_length_raises(self, code):
        with pytest.raises(ValueError):
            code.syndrome(np.zeros(10, dtype=np.uint8))

    def test_syndrome_linear(self, code, ):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, code.n, dtype=np.uint8)
        b = rng.integers(0, 2, code.n, dtype=np.uint8)
        lhs = code.syndrome(a ^ b)
        rhs = code.syndrome(a) ^ code.syndrome(b)
        assert np.array_equal(lhs, rhs)


class TestViews:
    def test_layer_tables_cover_all_blocks(self, code):
        total = sum(len(t) for t in code.layer_tables)
        assert total == code.base.num_blocks

    def test_max_layer_degree(self, code):
        assert code.max_layer_degree == int(code.base.layer_degrees().max())

    def test_info_bit_indices(self, code):
        idx = code.info_bit_indices()
        assert idx[0] == 0 and idx[-1] == code.n_info - 1

    def test_structure_summary_keys(self, code):
        summary = code.structure_summary()
        for key in ("j", "k", "z", "rate", "nonzero_blocks", "edges"):
            assert key in summary

    def test_repr_mentions_name(self, code):
        assert "qc-test" in repr(code)
