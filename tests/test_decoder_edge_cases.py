"""Edge-case coverage for the compaction scatter path.

Every case runs across schedule × backend × compaction mode:

- ``(0, N)`` empty batches and single-frame decodes;
- batches where *every* frame early-terminates on iteration 1 (the
  scatter empties the working batch immediately);
- mixed batches (clean + noisy frames) that retire out of order — the
  scatter path must write each frame's outputs back to its original row,
  which is pinned by comparing against per-frame decodes;
- simulator budgets with ``batch_size > max_frames``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codes import QCLDPCCode
from repro.codes.base_matrix import BaseMatrix
from repro.decoder import (
    DecoderConfig,
    FloodingDecoder,
    LayeredDecoder,
    registered_backends,
)
from repro.fixedpoint import QFormat
from repro.runtime import SweepEngine
from tests.conftest import make_noisy_llrs

SCHEDULES = {"layered": LayeredDecoder, "flooding": FloodingDecoder}
BACKENDS = list(registered_backends())

#: The min-sum family + linear-approx: every kernel built on the fused
#: two-smallest reduction in the fast backend.
MINSUM_FAMILY = ("minsum", "normalized-minsum", "offset-minsum", "linear-approx")


@pytest.fixture(scope="module")
def degree2_code() -> QCLDPCCode:
    """A code whose second layer has check degree exactly 2.

    Degree 2 is the floor the kernels accept and the edge where the
    two-smallest reduction degenerates (the exclusive set of each edge
    is a single message) — linear-approx even special-cases it.
    """
    entries = np.array(
        [
            [0, 2, 1, 3, 0],
            [-1, 3, -1, -1, 1],
        ]
    )
    base = BaseMatrix(entries=entries, z=5, name="deg2_j2_k5_z5")
    code = QCLDPCCode(base)
    assert sorted(code.base.layer_degrees().tolist()) == [2, 5]
    return code


def _decoder(schedule, code, backend, compact, **kwargs):
    config = DecoderConfig(
        backend=backend, compact_frames=compact, **kwargs
    )
    return SCHEDULES[schedule](code, config)


@pytest.mark.parametrize("schedule", list(SCHEDULES))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("compact", [True, False], ids=["compact", "carry"])
class TestDecodeShapes:
    def test_empty_batch(self, small_code, schedule, backend, compact):
        for qformat in (None, QFormat(8, 2)):
            decoder = _decoder(
                schedule, small_code, backend, compact, qformat=qformat
            )
            result = decoder.decode(np.zeros((0, small_code.n)))
            assert result.batch_size == 0
            assert result.bits.shape == (0, small_code.n)
            assert result.iterations.shape == (0,)
            assert result.converged.shape == (0,)
            assert result.et_stopped.shape == (0,)

    def test_single_frame_keeps_batch_first_shape(
        self, small_code, small_encoder, schedule, backend, compact, rng
    ):
        _, codewords = small_encoder.random_codewords(1, rng)
        llr = 12.0 * (1.0 - 2.0 * codewords[0].astype(np.float64))
        decoder = _decoder(schedule, small_code, backend, compact)
        result = decoder.decode(llr)
        assert result.batch_size == 1
        assert bool(result.converged[0])
        assert result.bits.shape == (1, small_code.n)

    def test_all_frames_terminate_on_iteration_one(
        self, small_code, small_encoder, schedule, backend, compact, rng
    ):
        # Clean, high-confidence codeword LLRs: hard decisions are stable
        # from the channel and min |LLR| clears the threshold, so the
        # paper rule fires after the first iteration and the scatter
        # empties the entire working batch at once.
        _, codewords = small_encoder.random_codewords(5, rng)
        llr = 20.0 * (1.0 - 2.0 * codewords.astype(np.float64))
        decoder = _decoder(
            schedule, small_code, backend, compact,
            max_iterations=8, early_termination="paper",
        )
        result = decoder.decode(llr)
        assert np.array_equal(result.iterations, np.ones(5, dtype=np.int64))
        assert result.et_stopped.all()
        assert result.converged.all()

    def test_out_of_order_retirement_scatters_to_original_rows(
        self, small_code, small_encoder, schedule, backend, compact
    ):
        # Interleave clean frames (retire at iteration 1) with noisy ones
        # (retire later or never): batch results must equal per-frame
        # decodes row by row, which a misplaced scatter would break.
        _, clean_cw = small_encoder.random_codewords(3, np.random.default_rng(1))
        clean = 20.0 * (1.0 - 2.0 * clean_cw.astype(np.float64))
        _, _, noisy = make_noisy_llrs(small_code, small_encoder, 1.0, 3, 77)
        llr = np.empty((6, small_code.n))
        llr[0::2] = clean
        llr[1::2] = noisy
        decoder = _decoder(schedule, small_code, backend, compact)
        batch = decoder.decode(llr)
        assert batch.iterations.max() > batch.iterations.min()
        for i in range(6):
            single = decoder.decode(llr[i : i + 1])
            assert np.array_equal(single.bits[0], batch.bits[i]), f"row {i}"
            assert np.array_equal(single.llr[0], batch.llr[i]), f"row {i}"
            assert single.iterations[0] == batch.iterations[i], f"row {i}"
            assert single.et_stopped[0] == batch.et_stopped[i], f"row {i}"


@pytest.mark.parametrize("schedule", list(SCHEDULES))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("check_node", MINSUM_FAMILY)
class TestMinSumEdgeCases:
    """(0, N) batches and degree-2 check rows for the fused kernel family."""

    @pytest.mark.parametrize("qformat", [None, QFormat(8, 2)], ids=["float", "fixed"])
    def test_empty_batch(self, small_code, schedule, backend, check_node, qformat):
        decoder = SCHEDULES[schedule](
            small_code,
            DecoderConfig(backend=backend, check_node=check_node, qformat=qformat),
        )
        result = decoder.decode(np.zeros((0, small_code.n)))
        assert result.batch_size == 0
        assert result.bits.shape == (0, small_code.n)
        assert result.iterations.shape == (0,)

    @pytest.mark.parametrize("qformat", [None, QFormat(8, 2)], ids=["float", "fixed"])
    def test_degree2_rows_match_reference(
        self, degree2_code, schedule, backend, check_node, qformat
    ):
        rng = np.random.default_rng(515)
        llr = rng.normal(0.0, 4.0, size=(5, degree2_code.n))
        results = {}
        for name in ("reference", backend):
            config = DecoderConfig(
                backend=name,
                check_node=check_node,
                qformat=qformat,
                max_iterations=4,
            )
            results[name] = SCHEDULES[schedule](degree2_code, config).decode(llr)
        reference, other = results["reference"], results[backend]
        assert np.array_equal(reference.bits, other.bits)
        assert np.array_equal(reference.llr, other.llr)
        assert np.array_equal(reference.iterations, other.iterations)
        assert np.array_equal(reference.et_stopped, other.et_stopped)


class TestSimulatorBudgets:
    def test_engine_batch_size_larger_than_max_frames(self, small_code):
        engine = SweepEngine(small_code, seed=11)
        [point] = engine.run([3.0], max_frames=5, batch_size=50)
        assert point.frames == 5

    def test_single_frame_budget(self, small_code):
        point = SweepEngine(small_code, seed=12).run_point(
            3.0, max_frames=1, batch_size=1
        )
        assert point.frames == 1
        assert sum(point.iterations_hist.values()) == 1
