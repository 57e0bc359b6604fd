"""Tests for DecoderConfig validation and DecodeResult accessors."""

import numpy as np
import pytest

from repro.codes import get_code
from repro.decoder import LayeredDecoder, registered_backends
from repro.decoder.api import MAX_APP_BITS, DecodeResult, DecoderConfig
from repro.errors import DecoderConfigError
from repro.fixedpoint.quantize import QFormat


class TestConfigValidation:
    def test_defaults_are_paper_settings(self):
        config = DecoderConfig()
        assert config.check_node == "bp"
        assert config.bp_impl == "sum-sub"
        assert config.max_iterations == 10
        assert config.early_termination == "paper"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"check_node": "magic"},
            {"bp_impl": "backward-only"},
            {"early_termination": "sometimes"},
            {"max_iterations": 0},
            {"et_threshold": -1.0},
            {"normalization": 0.0},
            {"normalization": 1.5},
            {"offset": -0.1},
            {"llr_clip": 0.0},
            {"app_extra_bits": -1},
            {"app_clip": 1.0, "llr_clip": 2.0},
            # Malformed types raise DecoderConfigError, never a bare
            # TypeError, and a float or bool count is never truncated.
            {"max_iterations": "10"},
            {"max_iterations": 2.5},
            {"max_iterations": True},
            {"llr_clip": None},
            {"llr_clip": "nan"},
            {"llr_clip": float("nan")},
            {"app_clip": float("nan")},
            {"offset": float("nan")},
            {"siso_guard_bits": "2"},
            {"layer_order": 5},
            {"layer_order": (1.0, 0.0)},
            {"qformat": (8, 2)},
            {"app_extra_bits": 60},
            {"qformat": QFormat(40, 2)},
            {"compact_frames": "yes"},
        ],
    )
    def test_invalid_settings_raise(self, kwargs):
        with pytest.raises(DecoderConfigError):
            DecoderConfig(**kwargs)

    def test_widest_app_word_decodes_on_every_backend(self):
        code = get_code("802.16e:1/2:z24")
        llr = 4.0 * np.random.default_rng(3).standard_normal((2, code.n))
        results = [
            LayeredDecoder(
                code,
                DecoderConfig(
                    backend=backend,
                    qformat=QFormat(8, 2),
                    app_extra_bits=MAX_APP_BITS - 8,
                    max_iterations=3,
                ),
            ).decode(llr)
            for backend in registered_backends()
        ]
        for other in results[1:]:
            assert np.array_equal(other.bits, results[0].bits)
            assert np.array_equal(other.llr, results[0].llr)
            assert np.array_equal(other.iterations, results[0].iterations)

    def test_one_bit_past_the_widest_app_word_is_rejected(self):
        DecoderConfig(qformat=QFormat(8, 2), app_extra_bits=MAX_APP_BITS - 8)
        with pytest.raises(DecoderConfigError, match="int32"):
            DecoderConfig(
                qformat=QFormat(8, 2), app_extra_bits=MAX_APP_BITS - 7
            )
        with pytest.raises(DecoderConfigError, match="int32"):
            DecoderConfig(qformat=QFormat(MAX_APP_BITS - 1, 2))

    def test_fixed_point_flag(self):
        assert not DecoderConfig().is_fixed_point
        assert DecoderConfig(qformat=QFormat(8, 2)).is_fixed_point

    def test_app_qformat_wider(self):
        config = DecoderConfig(qformat=QFormat(8, 2), app_extra_bits=2)
        assert config.app_qformat.total_bits == 10
        assert DecoderConfig().app_qformat is None

    def test_effective_app_clip_default(self):
        config = DecoderConfig(llr_clip=100.0, app_extra_bits=2)
        assert config.effective_app_clip == pytest.approx(400.0)

    def test_effective_app_clip_override(self):
        config = DecoderConfig(llr_clip=10.0, app_clip=15.0)
        assert config.effective_app_clip == pytest.approx(15.0)

    def test_replace(self):
        config = DecoderConfig().replace(max_iterations=5)
        assert config.max_iterations == 5
        assert config.check_node == "bp"


class TestDecodeResult:
    @pytest.fixture
    def result(self):
        bits = np.array([[0, 1, 0, 0], [1, 1, 0, 1]], dtype=np.uint8)
        return DecodeResult(
            bits=bits,
            llr=np.where(bits == 0, 5.0, -5.0),
            iterations=np.array([3, 10]),
            converged=np.array([True, False]),
            et_stopped=np.array([True, False]),
            n_info=2,
        )

    def test_info_bits(self, result):
        assert result.info_bits.shape == (2, 2)

    def test_average_iterations(self, result):
        assert result.average_iterations == pytest.approx(6.5)

    def test_convergence_rate(self, result):
        assert result.convergence_rate == pytest.approx(0.5)

    def test_bit_errors(self, result):
        reference = np.array([[0, 1], [0, 0]], dtype=np.uint8)
        assert result.bit_errors(reference) == 2

    def test_frame_errors(self, result):
        reference = np.array([[0, 1], [0, 0]], dtype=np.uint8)
        assert result.frame_errors(reference) == 1

    def test_bit_errors_shape_mismatch(self, result):
        with pytest.raises(ValueError):
            result.bit_errors(np.zeros((2, 3), dtype=np.uint8))
