"""Tests for the extension modules: Gallager-B and density evolution."""

import hashlib

import numpy as np
import pytest

from repro.analysis.density_evolution import (
    DegreeDistribution,
    _phi,
    _phi_inverse,
    de_converges,
    decoding_threshold_db,
)
from repro.codes import get_code, wimax_base_matrix
from repro.decoder import LayeredDecoder
from repro.decoder.bitflipping import GallagerBDecoder
from repro.encoder import make_encoder
from tests.conftest import make_noisy_llrs


class TestGallagerB:
    def test_decodes_clean_input(self, small_code, small_encoder, rng):
        info, codewords = small_encoder.random_codewords(5, rng)
        llr = 4.0 * (1.0 - 2.0 * codewords.astype(np.float64))
        result = GallagerBDecoder(small_code).decode(llr)
        assert result.bit_errors(info) == 0
        assert result.convergence_rate == 1.0

    def test_corrects_few_flips(self, small_code, small_encoder, rng):
        info, codewords = small_encoder.random_codewords(3, rng)
        llr = 4.0 * (1.0 - 2.0 * codewords.astype(np.float64))
        for frame in range(3):
            flips = rng.choice(small_code.n, 3, replace=False)
            llr[frame, flips] *= -1
        result = GallagerBDecoder(small_code).decode(llr)
        assert result.bit_errors(info) == 0

    def test_good_at_high_snr(self, small_code, small_encoder):
        info, _, llr = make_noisy_llrs(small_code, small_encoder, 8.0, 50, 31)
        result = GallagerBDecoder(small_code).decode(llr)
        assert result.frame_errors(info) <= 3

    def test_much_worse_than_bp(self, small_code, small_encoder):
        """Quantifies the soft-decoding gain the paper's BP provides."""
        info, _, llr = make_noisy_llrs(small_code, small_encoder, 3.5, 60, 32)
        hard = GallagerBDecoder(small_code).decode(llr)
        soft = LayeredDecoder(small_code).decode(llr)
        assert hard.frame_errors(info) > soft.frame_errors(info)

    def test_single_frame_and_validation(self, small_code):
        with pytest.raises(ValueError):
            GallagerBDecoder(small_code).decode(np.zeros(3))
        with pytest.raises(ValueError):
            GallagerBDecoder(small_code, max_iterations=0)
        with pytest.raises(ValueError):
            GallagerBDecoder(small_code, flip_threshold=0)

    def test_iterations_bounded(self, small_code, small_encoder):
        info, _, llr = make_noisy_llrs(small_code, small_encoder, 5.0, 20, 33)
        result = GallagerBDecoder(small_code, max_iterations=15).decode(llr)
        assert (result.iterations >= 1).all()
        assert (result.iterations <= 15).all()

    # Outputs of the sparse-matrix implementation this decoder replaced
    # (12 frames of 802.16e:1/2:z24, 30 rounds): ``bits`` is pinned by a
    # digest of the packed hard words.
    PINNED = {
        (6.0, 42, None): (
            [5, 10, 5, 4, 30, 5, 3, 7, 11, 14, 3, 3],
            [1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1],
            "1b47ca71075dd5ee",
        ),
        (6.0, 42, 3): (
            [2, 30, 3, 30, 4, 6, 5, 4, 3, 30, 30, 5],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "b070fb4f63e991fe",
        ),
        (7.0, 43, None): (
            [3, 2, 3, 1, 2, 3, 2, 5, 6, 6, 2, 3],
            [1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1],
            "0f85c86717d3a62e",
        ),
        (7.0, 43, 3): (
            [3, 2, 2, 3, 3, 2, 3, 1, 4, 3, 2, 3],
            [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
            "635a5898dcad7c11",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED, key=str))
    def test_outputs_pinned(self, small_code, small_encoder, case):
        ebn0, seed, threshold = case
        iterations, converged, digest = self.PINNED[case]
        _, _, llr = make_noisy_llrs(small_code, small_encoder, ebn0, 12, seed)
        result = GallagerBDecoder(small_code, flip_threshold=threshold).decode(llr)
        packed = np.packbits(result.bits, axis=1).tobytes()
        assert result.iterations.tolist() == iterations
        assert result.converged.astype(int).tolist() == converged
        assert hashlib.sha256(packed).hexdigest()[:16] == digest


class TestPhi:
    def test_phi_at_zero_is_one(self):
        assert _phi(np.array([0.0]))[0] == pytest.approx(1.0, abs=0.05)

    def test_phi_decreasing(self):
        mus = np.linspace(0.01, 50, 60)
        values = _phi(mus)
        assert (np.diff(values) <= 1e-12).all()

    @pytest.mark.parametrize("y", [0.9, 0.5, 0.1, 0.01, 1e-4])
    def test_inverse_roundtrip(self, y):
        mu = _phi_inverse(y)
        assert _phi(np.array([mu]))[0] == pytest.approx(y, rel=0.02)


class TestDegreeDistribution:
    def test_distributions_sum_to_one(self):
        dist = DegreeDistribution.from_base_matrix(wimax_base_matrix("1/2", 96))
        assert sum(dist.lambda_dist.values()) == pytest.approx(1.0)
        assert sum(dist.rho_dist.values()) == pytest.approx(1.0)

    def test_design_rate_matches_matrix(self):
        base = wimax_base_matrix("1/2", 96)
        dist = DegreeDistribution.from_base_matrix(base)
        assert dist.design_rate == pytest.approx(base.rate, abs=0.01)

    def test_high_rate_code(self):
        base = wimax_base_matrix("5/6", 96)
        dist = DegreeDistribution.from_base_matrix(base)
        assert dist.design_rate == pytest.approx(base.rate, abs=0.01)


class TestThresholds:
    def test_rate_half_threshold_band(self):
        threshold = decoding_threshold_db(wimax_base_matrix("1/2", 96))
        # GA is optimistic; the band covers GA (~0.4) through exact (~1.0).
        assert 0.1 < threshold < 1.6

    def test_high_rate_threshold_is_higher(self):
        low_rate = decoding_threshold_db(wimax_base_matrix("1/2", 96))
        high_rate = decoding_threshold_db(wimax_base_matrix("5/6", 96))
        assert high_rate > low_rate + 1.0

    def test_threshold_left_of_finite_length_waterfall(self, small_code):
        """DE threshold must lower-bound the measured waterfall."""
        threshold = decoding_threshold_db(small_code.base)
        # Our Monte-Carlo waterfall (FER ~1e-2) sits at ~2.5-3 dB for N=576.
        assert threshold < 2.0

    def test_de_converges_well_above_threshold(self):
        base = wimax_base_matrix("1/2", 96)
        dist = DegreeDistribution.from_base_matrix(base)
        assert de_converges(dist, 3.0, base.rate)
        assert not de_converges(dist, -0.5, base.rate)
