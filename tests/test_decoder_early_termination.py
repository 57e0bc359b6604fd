"""Tests for the early-termination monitors (paper §IV).

Monitors read frame-minor state, as the decoders keep it: APP LLRs are
``(N, B)`` and the paper rule's hard decisions ``(n_info, B)``.  The
cases below are written frame by frame and transposed on the way in.
"""

import numpy as np
import pytest

from repro.decoder.early_termination import (
    CombinedEarlyTermination,
    PaperEarlyTermination,
    SyndromeEarlyTermination,
    _column_any,
    make_early_termination,
)


def make_llr(bits, magnitude):
    """Frame-minor ``(N, B)`` LLRs of ``(B, N)`` bits."""
    bits = np.asarray(bits)
    return np.where(bits == 0, magnitude, -magnitude).astype(float).T


def frames(hard):
    """Frame-minor ``(n_info, B)`` hard decisions of ``(B, n_info)`` rows."""
    return np.array(hard, dtype=np.uint8).T


class TestPaperRule:
    def test_fires_when_stable_and_confident(self):
        initial = frames([[0, 1, 0]])
        monitor = PaperEarlyTermination(3, threshold=1.0, initial_hard=initial)
        llr = make_llr([[0, 1, 0, 1, 1]], 5.0)
        assert monitor.update(llr).tolist() == [True]

    def test_does_not_fire_on_changed_decisions(self):
        initial = frames([[0, 0, 0]])
        monitor = PaperEarlyTermination(3, threshold=1.0, initial_hard=initial)
        llr = make_llr([[0, 1, 0, 0, 0]], 5.0)  # bit 1 changed
        assert monitor.update(llr).tolist() == [False]
        # Next iteration with the same decisions: now stable.
        assert monitor.update(llr).tolist() == [True]

    def test_does_not_fire_below_threshold(self):
        initial = frames([[0, 1, 0]])
        monitor = PaperEarlyTermination(3, threshold=2.0, initial_hard=initial)
        llr = make_llr([[0, 1, 0, 1, 1]], 1.5)  # confident but < threshold
        assert monitor.update(llr).tolist() == [False]

    def test_only_info_bits_matter(self):
        initial = frames([[0, 1]])
        monitor = PaperEarlyTermination(2, threshold=1.0, initial_hard=initial)
        # Parity bits (beyond n_info=2) are weak/unstable — irrelevant.
        llr = np.array([[5.0, -5.0, 0.01, -0.01]]).T
        assert monitor.update(llr).tolist() == [True]

    def test_per_frame_masks(self):
        initial = frames([[0, 1], [0, 0]])
        monitor = PaperEarlyTermination(2, threshold=1.0, initial_hard=initial)
        llr = make_llr([[0, 1, 0], [1, 0, 0]], 5.0)
        assert monitor.update(llr).tolist() == [True, False]

    def test_compact(self):
        initial = np.zeros((2, 3), dtype=np.uint8)
        monitor = PaperEarlyTermination(2, threshold=1.0, initial_hard=initial)
        monitor.compact(np.array([True, False, True]))
        assert monitor._previous_hard.shape == (2, 2)

    def test_bad_initial_shape_raises(self):
        with pytest.raises(ValueError):
            PaperEarlyTermination(3, 1.0, np.zeros((2,), dtype=np.uint8))


class TestSyndromeRule:
    def test_fires_on_codeword(self, tiny_code, tiny_encoder, rng):
        monitor = SyndromeEarlyTermination(tiny_code)
        info, codewords = tiny_encoder.random_codewords(2, rng)
        llr = make_llr(codewords, 4.0)
        assert monitor.update(llr).tolist() == [True, True]

    def test_does_not_fire_on_non_codeword(self, tiny_code):
        monitor = SyndromeEarlyTermination(tiny_code)
        bits = np.zeros((1, tiny_code.n), dtype=np.uint8)
        bits[0, 0] = 1
        assert monitor.update(make_llr(bits, 4.0)).tolist() == [False]


class TestCombined:
    def test_or_semantics(self, tiny_code, tiny_encoder, rng):
        info, codewords = tiny_encoder.random_codewords(1, rng)
        llr = make_llr(codewords, 0.5)  # codeword but weak LLRs
        paper = PaperEarlyTermination(
            tiny_code.n_info, threshold=1.0,
            initial_hard=frames(codewords[:, : tiny_code.n_info]),
        )
        combined = CombinedEarlyTermination(
            paper, SyndromeEarlyTermination(tiny_code)
        )
        # Paper rule fails (weak), syndrome rule fires.
        assert combined.update(llr).tolist() == [True]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            CombinedEarlyTermination()


class TestFactory:
    def test_none(self, tiny_code):
        initial = np.zeros((tiny_code.n_info, 1), dtype=np.uint8)
        assert make_early_termination("none", tiny_code, 1.0, initial) is None

    @pytest.mark.parametrize(
        "mode,cls",
        [
            ("paper", PaperEarlyTermination),
            ("syndrome", SyndromeEarlyTermination),
            ("paper-or-syndrome", CombinedEarlyTermination),
        ],
    )
    def test_modes(self, mode, cls, tiny_code):
        initial = np.zeros((tiny_code.n_info, 1), dtype=np.uint8)
        assert isinstance(
            make_early_termination(mode, tiny_code, 1.0, initial), cls
        )

    def test_unknown_raises(self, tiny_code):
        initial = np.zeros((tiny_code.n_info, 1), dtype=np.uint8)
        with pytest.raises(ValueError):
            make_early_termination("never", tiny_code, 1.0, initial)


class TestColumnReduction:
    """The paper rule's one reduction over the info rows, folded."""

    @pytest.mark.parametrize(
        "rows, batch",
        [
            (1152, 1), (1152, 2), (972, 3), (1152, 32), (300, 5), (40, 64),
            (7, 300),
        ],
    )
    def test_column_any_matches_numpy(self, rows, batch):
        rng = np.random.default_rng(rows * batch)
        for density in (0.0, 0.001, 0.5):
            mask = rng.random((rows, batch)) < density
            # A lone set bit in the last row and the remainder rows.
            mask[-1, batch // 2] = density > 0
            assert np.array_equal(_column_any(mask), mask.any(axis=0))

    def test_paper_rule_per_frame_on_a_folded_batch(self):
        n_info, batch = 1152, 6
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, (batch, n_info + 100))
        llr = make_llr(bits, 5.0)
        llr[100, 1] = 0.5 * np.sign(llr[100, 1])   # weak info bit
        llr[n_info - 1, 3] *= -1                    # changed info bit
        llr[n_info + 50, 4] = 0.0                   # parity bits don't count
        initial = frames(bits[:, :n_info])
        monitor = PaperEarlyTermination(n_info, 1.0, initial)
        assert monitor.update(llr).tolist() == [
            True, False, True, False, True, True,
        ]
