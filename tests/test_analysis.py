"""Tests for the Monte-Carlo analysis harness.

BER/FER sweeps run through :class:`repro.runtime.SweepEngine`.
"""

import pytest

from repro.analysis.ber import SnrPoint
from repro.analysis.iterations import et_power_curve, profile_iterations
from repro.analysis.reporting import ascii_curve, ber_table, save_exhibit
from repro.arch.datapath import PAPER_CHIP
from repro.runtime import SweepEngine


class TestSweepEngine:
    def test_point_statistics_accumulate(self, small_code):
        engine = SweepEngine(small_code, seed=1)
        point = engine.run_point(2.0, max_frames=40, batch_size=20)
        assert point.frames == 40
        assert 0.0 <= point.ber <= 1.0
        assert 0.0 <= point.fer <= 1.0
        assert 1.0 <= point.average_iterations <= 10.0
        assert sum(point.iterations_hist.values()) == 40

    def test_deterministic_given_seed(self, small_code):
        a = SweepEngine(small_code, seed=3).run_point(
            2.0, max_frames=20, batch_size=20
        )
        b = SweepEngine(small_code, seed=3).run_point(
            2.0, max_frames=20, batch_size=20
        )
        assert a.to_dict() == b.to_dict()

    def test_ber_decreases_with_snr(self, small_code):
        engine = SweepEngine(small_code, seed=4)
        points = engine.run(
            [0.0, 3.5], max_frames=60, min_frame_errors=100, batch_size=30
        )
        assert points[0].ber > points[1].ber


class TestIterationProfile:
    def test_profile_monotone_decreasing(self, small_code):
        profile = profile_iterations(
            small_code, [1.0, 4.0], frames_per_point=40, seed=7
        )
        assert profile.average_iterations[0] > profile.average_iterations[1]

    def test_power_curve_shape(self, small_code):
        profile = profile_iterations(
            small_code, [1.0, 4.0], frames_per_point=30, seed=8
        )
        curve = et_power_curve(profile, PAPER_CHIP)
        assert len(curve.power_with_et_mw) == 2
        assert curve.power_with_et_mw[1] < curve.power_with_et_mw[0]
        assert all(
            w <= wo
            for w, wo in zip(curve.power_with_et_mw, curve.power_without_et_mw)
        )
        assert 0.0 < curve.max_saving_fraction < 1.0

    def test_as_rows(self, small_code):
        profile = profile_iterations(
            small_code, [2.0], frames_per_point=20, seed=9
        )
        rows = profile.as_rows()
        assert len(rows) == 1 and len(rows[0]) == 4


class TestReporting:
    def test_ber_table_contains_points(self):
        point = SnrPoint(ebn0_db=2.0, frames=10, bit_errors=5,
                         frame_errors=1, iterations_sum=30.0,
                         info_bits_per_frame=100)
        rendered = ber_table([point], title="t").render()
        assert "2" in rendered and "t" in rendered

    def test_ascii_curve_dimensions(self):
        plot = ascii_curve([0, 1, 2], [5, 3, 1], width=20, height=5)
        assert plot.count("|") >= 10

    def test_ascii_curve_validates(self):
        with pytest.raises(ValueError):
            ascii_curve([1], [1, 2])

    def test_save_exhibit_writes_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = save_exhibit("unit_test", "content")
        assert path.read_text() == "content\n"
