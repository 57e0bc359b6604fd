"""Tests for the compiled decode plan (gather/scatter schedule)."""

import numpy as np
import pytest

from repro.codes import get_code
from repro.codes.qc import QCLDPCCode
from repro.decoder import DecodePlan, resolve_layer_order
from repro.errors import DecoderConfigError


@pytest.fixture(scope="module", params=["802.16e:1/2:z24", "802.11n:1/2:z27"])
def code(request):
    return get_code(request.param)


class TestGatherIndices:
    def test_indices_are_the_codes_table(self, code):
        """The plan views the code's one shift table, in processing order.

        That table's derivation from ``layer_tables`` is tested in
        tests/test_codes_qc.py.
        """
        order = tuple(reversed(range(code.base.j)))
        plan = DecodePlan(code, order)
        for pos, layer in enumerate(order):
            table = code.layer_indices[layer]
            assert np.array_equal(plan.flat_indices[pos], table.reshape(-1))

    def test_indices_unique_within_layer(self, code):
        plan = DecodePlan(code)
        for flat in plan.flat_indices:
            assert len(np.unique(flat)) == flat.size

    def test_intp_dtype(self, code):
        # numpy indexes with intp tables without a per-call conversion.
        plan = DecodePlan(code)
        assert all(idx.dtype == np.intp for idx in plan.flat_indices)

    def test_validate_passes(self, code):
        DecodePlan(code).validate()

    def test_validate_rejects_repeated_index(self, code):
        # Backends write a layer back with one indexed assignment, which
        # needs every index of the layer to be distinct.
        twin = QCLDPCCode(code.base)
        tables = [list(blocks) for blocks in code.layer_tables]
        tables[0].append(tables[0][0])
        twin.layer_tables = tables
        with pytest.raises(DecoderConfigError, match="twice"):
            DecodePlan(twin).validate()


class TestLayout:
    def test_lambda_slices_partition(self, code):
        plan = DecodePlan(code)
        expected_start = 0
        for sl, degree in zip(plan.lambda_slices, plan.layer_degrees):
            assert sl.start == expected_start
            assert sl.stop - sl.start == degree
            expected_start = sl.stop
        assert expected_start == plan.total_blocks
        assert plan.total_blocks == code.base.num_blocks

    def test_degree_buckets_cover_all_layers(self, code):
        plan = DecodePlan(code)
        positions = sorted(
            pos for bucket in plan.degree_buckets.values() for pos in bucket
        )
        assert positions == list(range(plan.num_layers))
        for degree, bucket in plan.degree_buckets.items():
            for pos in bucket:
                assert plan.layer_degrees[pos] == degree


class TestLayerOrder:
    def test_custom_order_reorders_tables(self, code):
        order = tuple(reversed(range(code.base.j)))
        plan = DecodePlan(code, order)
        natural = DecodePlan(code)
        assert plan.layer_order == order
        assert np.array_equal(
            plan.flat_indices[0], natural.flat_indices[code.base.j - 1]
        )
        plan.validate()

    def test_invalid_order_raises(self, code):
        with pytest.raises(DecoderConfigError):
            DecodePlan(code, (0, 0, 1))

    def test_resolve_layer_order_natural(self, code):
        assert resolve_layer_order(code, None) == tuple(range(code.base.j))


class TestScratch:
    def test_scratch_reuses_buffer(self, code):
        plan = DecodePlan(code)
        a = plan.scratch("x", (4, 8), np.int32)
        b = plan.scratch("x", (4, 8), np.int32)
        assert np.shares_memory(a, b)
        assert a.shape == b.shape == (4, 8)

    def test_scratch_shrinking_batch_reuses_capacity(self, code):
        # The compaction pattern: the trailing (batch) dimension shrinks
        # monotonically within a decode; every request is served from the
        # first allocation as a contiguous prefix view.
        plan = DecodePlan(code)
        full = plan.scratch("x", (1, 6, 8 * 16), np.int32)
        for batch in (9, 4, 1):
            view = plan.scratch("x", (1, 6, 8 * batch), np.int32)
            assert view.shape == (1, 6, 8 * batch)
            assert view.flags.c_contiguous
            assert np.shares_memory(view, full)

    def test_scratch_grows_capacity(self, code):
        plan = DecodePlan(code)
        small = plan.scratch("x", (2, 8), np.int32)
        grown = plan.scratch("x", (32, 8), np.int32)
        assert grown.shape == (32, 8)
        assert not np.shares_memory(small, grown)

    def test_scratch_distinct_per_key_and_dtype(self, code):
        plan = DecodePlan(code)
        a = plan.scratch("x", (4, 8), np.int32)
        assert not np.shares_memory(plan.scratch("y", (4, 8), np.int32), a)
        assert not np.shares_memory(
            plan.scratch("x", (4, 8), np.float64), a
        )

    def test_scratch_capacity_is_flat(self, code):
        # Any shape within the capacity reuses the key's storage.
        plan = DecodePlan(code)
        a = plan.scratch("x", (4, 8), np.int32)
        b = plan.scratch("x", (3, 5, 2), np.int32)
        assert b.shape == (3, 5, 2)
        assert b.flags.c_contiguous
        assert np.shares_memory(a, b)
