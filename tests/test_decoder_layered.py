"""Tests for the layered BP decoder (paper Algorithm 1)."""

import numpy as np
import pytest

from repro.decoder import DecoderConfig, LayeredDecoder
from repro.errors import DecoderConfigError
from repro.fixedpoint import QFormat
from tests.conftest import make_noisy_llrs


def clean_llrs(codewords, magnitude=8.0):
    return magnitude * (1.0 - 2.0 * np.asarray(codewords, dtype=np.float64))


class TestNoiseless:
    def test_decodes_clean_codewords(self, small_code, small_encoder, rng):
        info, codewords = small_encoder.random_codewords(5, rng)
        decoder = LayeredDecoder(small_code)
        result = decoder.decode(clean_llrs(codewords))
        assert result.convergence_rate == 1.0
        assert result.bit_errors(info) == 0
        assert np.array_equal(result.bits, codewords)

    def test_single_frame_input(self, small_code, small_encoder, rng):
        info, codewords = small_encoder.random_codewords(1, rng)
        result = LayeredDecoder(small_code).decode(clean_llrs(codewords[0]))
        assert result.batch_size == 1
        assert bool(result.converged[0])

    def test_et_stops_immediately_on_clean_input(self, small_code, small_encoder, rng):
        info, codewords = small_encoder.random_codewords(4, rng)
        result = LayeredDecoder(small_code).decode(clean_llrs(codewords))
        assert result.average_iterations == 1.0
        assert result.et_stopped.all()


class TestErrorCorrection:
    def test_corrects_flipped_bits(self, small_code, small_encoder, rng):
        info, codewords = small_encoder.random_codewords(3, rng)
        llr = clean_llrs(codewords, magnitude=4.0)
        # Flip 12 random positions per frame (weak wrong-sign LLRs).
        for frame in range(3):
            flips = rng.choice(small_code.n, 12, replace=False)
            llr[frame, flips] *= -0.5
        result = LayeredDecoder(small_code).decode(llr)
        assert result.bit_errors(info) == 0
        assert result.convergence_rate == 1.0

    def test_awgn_waterfall_sanity(self, small_code, small_encoder):
        # At 3 dB the N=576 code should decode nearly everything
        # (FER ~ 1-3 %; allow statistical headroom on 100 frames).
        info, _, llr = make_noisy_llrs(small_code, small_encoder, 3.0, 100, 77)
        result = LayeredDecoder(small_code).decode(llr)
        assert result.frame_errors(info) <= 6

    def test_low_snr_fails(self, small_code, small_encoder):
        # At -3 dB (beyond capacity) nothing should decode.
        info, _, llr = make_noisy_llrs(small_code, small_encoder, -3.0, 20, 78)
        result = LayeredDecoder(small_code).decode(llr)
        assert result.frame_errors(info) >= 18


class TestIterationAccounting:
    def test_harder_channels_need_more_iterations(
        self, small_code, small_encoder
    ):
        results = {}
        for ebn0 in (1.5, 4.0):
            info, _, llr = make_noisy_llrs(
                small_code, small_encoder, ebn0, 60, 79
            )
            results[ebn0] = LayeredDecoder(small_code).decode(llr)
        assert (
            results[1.5].average_iterations > results[4.0].average_iterations
        )

    def test_no_et_runs_all_iterations(self, small_code, small_encoder):
        info, _, llr = make_noisy_llrs(small_code, small_encoder, 2.0, 10, 80)
        config = DecoderConfig(early_termination="none", max_iterations=7)
        result = LayeredDecoder(small_code, config).decode(llr)
        assert (result.iterations == 7).all()
        assert not result.et_stopped.any()

    def test_iterations_bounded(self, small_code, small_encoder):
        info, _, llr = make_noisy_llrs(small_code, small_encoder, 0.0, 10, 81)
        result = LayeredDecoder(small_code).decode(llr)
        assert (result.iterations >= 1).all()
        assert (result.iterations <= 10).all()


class TestLayerOrder:
    def test_custom_order_still_decodes(self, small_code, small_encoder, rng):
        info, codewords = small_encoder.random_codewords(3, rng)
        order = tuple(reversed(range(small_code.base.j)))
        decoder = LayeredDecoder(small_code, DecoderConfig(layer_order=order))
        result = decoder.decode(clean_llrs(codewords))
        assert result.bit_errors(info) == 0

    def test_invalid_order_raises(self, small_code):
        with pytest.raises(DecoderConfigError):
            LayeredDecoder(
                small_code, DecoderConfig(layer_order=(0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
            )


class TestFixedPoint:
    def test_fixed_decodes_clean(self, small_code, small_encoder, rng):
        info, codewords = small_encoder.random_codewords(3, rng)
        config = DecoderConfig(qformat=QFormat(8, 2))
        result = LayeredDecoder(small_code, config).decode(clean_llrs(codewords))
        assert result.bit_errors(info) == 0

    def test_fixed_fb_close_to_float_awgn(self, small_code, small_encoder):
        info, _, llr = make_noisy_llrs(small_code, small_encoder, 3.0, 80, 82)
        float_result = LayeredDecoder(small_code).decode(llr)
        fixed = LayeredDecoder(
            small_code,
            DecoderConfig(qformat=QFormat(8, 2), bp_impl="forward-backward"),
        ).decode(llr)
        assert (
            fixed.frame_errors(info) <= float_result.frame_errors(info) + 4
        )

    def test_integer_input_treated_as_raw(self, small_code, small_encoder, rng):
        info, codewords = small_encoder.random_codewords(2, rng)
        config = DecoderConfig(qformat=QFormat(8, 2))
        raw = config.qformat.quantize(clean_llrs(codewords))
        result = LayeredDecoder(small_code, config).decode(raw)
        assert result.bit_errors(info) == 0

    def test_llr_output_in_llr_units(self, small_code, small_encoder, rng):
        info, codewords = small_encoder.random_codewords(1, rng)
        config = DecoderConfig(qformat=QFormat(8, 2))
        result = LayeredDecoder(small_code, config).decode(clean_llrs(codewords))
        # Dequantized output must be within the wider APP range.
        assert np.abs(result.llr).max() <= config.app_qformat.max_value + 1e-9


class TestInputValidation:
    def test_wrong_length_raises(self, small_code):
        with pytest.raises(ValueError):
            LayeredDecoder(small_code).decode(np.zeros(17))


class TestBatchConsistency:
    def test_batch_equals_single(self, small_code, small_encoder):
        info, _, llr = make_noisy_llrs(small_code, small_encoder, 2.0, 4, 84)
        decoder = LayeredDecoder(small_code)
        batch = decoder.decode(llr)
        for i in range(4):
            single = decoder.decode(llr[i])
            assert np.array_equal(single.bits[0], batch.bits[i])
            assert single.iterations[0] == batch.iterations[i]


class TestFrameMinorState:
    """The working state is frame-minor; every public shape stays (B, N)."""

    @pytest.mark.parametrize(
        "qformat", [None, QFormat(8, 2)], ids=["float", "q8.2"]
    )
    def test_state_layout_and_app_view(self, small_code, small_encoder, qformat):
        _, _, llr = make_noisy_llrs(small_code, small_encoder, 2.0, 5, 86)
        config = DecoderConfig(qformat=qformat, compact_frames=False)
        decoder = LayeredDecoder(small_code, config)
        state = decoder.begin_decode(llr)
        app, lam = state.arrays
        assert app.shape == (small_code.n, 5) and app.flags.c_contiguous
        assert lam.shape == (decoder.plan.total_blocks, small_code.z, 5)
        decoder.step(state, 1)
        view = state.app
        # A read-only transposed view of the live APP memory, no copy.
        assert view.shape == (5, small_code.n)
        assert np.shares_memory(view, state.arrays[0])
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 0
        assert np.array_equal(view, state.arrays[0].T)
        while not state.done:
            decoder.step(state, 1)
        result = decoder.finish(state)
        assert result.bits.flags.c_contiguous
        assert result.llr.flags.c_contiguous
        assert result.llr.dtype == np.float64
        assert np.array_equal(result.bits, decoder.decode(llr).bits)

    def test_app_view_of_an_empty_batch(self, small_code):
        state = LayeredDecoder(small_code).begin_decode(
            np.zeros((0, small_code.n))
        )
        assert state.done
        assert state.app.shape == (0, small_code.n)

    def test_compacted_app_view_tracks_live_frames(
        self, small_code, small_encoder
    ):
        _, _, llr = make_noisy_llrs(small_code, small_encoder, 4.0, 6, 87)
        decoder = LayeredDecoder(small_code)
        state = decoder.begin_decode(llr)
        decoder.step(state, 2)
        live = int((~state.done_mask).sum())
        assert state.app.shape == (live, small_code.n)
