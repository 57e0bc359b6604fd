"""Tests for the synthetic 4-cycle-free QC constructor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codes.base_matrix import ZERO_BLOCK
from repro.codes.construction import build_qc_base_matrix, count_base_four_cycles
from repro.codes.qc import QCLDPCCode
from repro.codes.validation import tanner_girth
from repro.errors import CodeConstructionError


class TestStructure:
    def test_dual_diagonal_parity(self):
        base = build_qc_base_matrix(j=4, k=8, z=16, name="t", seed=0)
        p0 = 8 - 4
        col = base.entries[:, p0]
        assert (col != ZERO_BLOCK).sum() == 3
        # top and bottom shifts equal, middle is zero
        rows = np.nonzero(col != ZERO_BLOCK)[0]
        assert col[rows[0]] == col[rows[2]]
        assert col[rows[1]] == 0
        for t in range(1, 4):
            stair = base.entries[:, p0 + t]
            assert np.nonzero(stair != ZERO_BLOCK)[0].tolist() == [t - 1, t]
            assert stair[t - 1] == 0 and stair[t] == 0

    def test_info_column_degree(self):
        base = build_qc_base_matrix(j=6, k=12, z=24, name="t", seed=1)
        degrees = base.column_degrees()[: 12 - 6]
        assert (degrees == 3).all()

    def test_deterministic_given_seed(self):
        a = build_qc_base_matrix(j=4, k=8, z=16, name="t", seed=5)
        b = build_qc_base_matrix(j=4, k=8, z=16, name="t", seed=5)
        assert np.array_equal(a.entries, b.entries)

    def test_different_seeds_differ(self):
        a = build_qc_base_matrix(j=4, k=8, z=16, name="t", seed=5)
        b = build_qc_base_matrix(j=4, k=8, z=16, name="t", seed=6)
        assert not np.array_equal(a.entries, b.entries)

    def test_marked_synthetic(self):
        base = build_qc_base_matrix(j=4, k=8, z=16, name="t", seed=0)
        assert base.synthetic


class TestFourCycleFreedom:
    @given(st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_no_base_four_cycles(self, seed):
        base = build_qc_base_matrix(j=4, k=10, z=12, name="t", seed=seed)
        assert count_base_four_cycles(base) == 0

    def test_expanded_girth_at_least_six(self):
        base = build_qc_base_matrix(j=3, k=6, z=8, name="t", seed=3)
        girth = tanner_girth(QCLDPCCode(base))
        assert girth >= 6

    def test_counter_detects_planted_cycle(self):
        # Two rows sharing two columns with shifts summing to 0 mod z.
        entries = np.array([[0, 0, 0], [0, 0, -1], [-1, 0, 0]])
        from repro.codes.base_matrix import BaseMatrix

        base = BaseMatrix(entries=entries, z=4, name="cyc")
        assert count_base_four_cycles(base) > 0


class TestValidation:
    def test_rejects_tiny_j(self):
        with pytest.raises(CodeConstructionError):
            build_qc_base_matrix(j=1, k=4, z=8, name="t")

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(CodeConstructionError):
            build_qc_base_matrix(j=4, k=4, z=8, name="t")

    def test_rejects_degree_one(self):
        with pytest.raises(CodeConstructionError):
            build_qc_base_matrix(j=4, k=8, z=8, name="t", info_column_degree=1)

    def test_degree_capped_at_j(self):
        base = build_qc_base_matrix(
            j=3, k=8, z=32, name="t", seed=0, info_column_degree=10
        )
        assert base.column_degrees()[:5].max() <= 3


class TestRegistryBytes:
    #: SHA-1 over every registry mode's name, shape and base-matrix
    #: entries, in ``list_modes()`` order, recorded before the 4-cycle
    #: guard became incremental: the guard must give the same answers,
    #: hence the same RNG draws and the same bytes, for every mode.
    DIGEST = "65be459728721917bfeec1cc39fa57befaa7aadd"

    def test_every_registry_base_matrix_is_pinned(self):
        import hashlib

        from repro.codes import list_modes
        from repro.codes.registry import base_matrix

        digest = hashlib.sha1()
        modes = list_modes()
        for descriptor in modes:
            base = base_matrix(descriptor.mode)
            digest.update(
                f"{descriptor.mode}|{base.name}|{base.z}|{base.entries.shape}".encode()
            )
            digest.update(
                np.ascontiguousarray(base.entries, dtype="<i8").tobytes()
            )
        assert len(modes) == 231
        assert digest.hexdigest() == self.DIGEST
