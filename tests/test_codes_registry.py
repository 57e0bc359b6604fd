"""Tests for the mode registry (the software mode ROM)."""

import pytest

from repro.codes.registry import (
    describe_mode,
    get_code,
    list_modes,
    standards_summary,
)
from repro.errors import UnknownCodeError


class TestCatalogue:
    def test_mode_count(self):
        # 4 rates x 3 z (11n) + 6 rates x 19 z (16e) + 3 (DMB-T)
        # + 2 base graphs x 51 lifting sizes (NR).
        assert len(list_modes()) == 12 + 114 + 3 + 102

    def test_filter_by_standard(self):
        assert len(list_modes("802.11n")) == 12
        assert len(list_modes("802.16e")) == 114
        assert len(list_modes("DMB-T")) == 3
        assert len(list_modes("NR")) == 102

    def test_descriptor_fields(self):
        descriptor = describe_mode("802.16e:1/2:z96")
        assert descriptor.standard == "802.16e"
        assert descriptor.rate == "1/2"
        assert descriptor.z == 96
        assert descriptor.n == 2304

    def test_unknown_mode_raises(self):
        with pytest.raises(UnknownCodeError):
            describe_mode("802.99x:1/2:z10")


class TestGetCode:
    def test_wimax_2304(self):
        code = get_code("802.16e:1/2:z96")
        assert code.n == 2304
        assert code.n_info == 1152

    def test_wifi_648(self):
        code = get_code("802.11n:1/2:z27")
        assert code.n == 648

    def test_dmbt(self):
        code = get_code("DMB-T:0.6:z127")
        assert code.n == 7493

    def test_caching_returns_same_object(self):
        assert get_code("802.16e:1/2:z24") is get_code("802.16e:1/2:z24")

    def test_unknown_raises(self):
        with pytest.raises(UnknownCodeError):
            get_code("nope")


class TestSummary:
    def test_summary_covers_four_standards(self):
        summary = standards_summary()
        assert {s["standard"] for s in summary} == {
            "802.11n",
            "802.16e",
            "DMB-T",
            "NR",
        }

    def test_nr_ranges(self):
        summary = {s["standard"]: s for s in standards_summary()}
        nr = summary["NR"]
        assert (nr["j_min"], nr["j_max"]) == (42, 46)
        assert nr["k"] == 68
        assert (nr["z_min"], nr["z_max"]) == (2, 384)
        assert nr["num_modes"] == 102

    def test_wimax_ranges_match_paper_table1(self):
        summary = {s["standard"]: s for s in standards_summary()}
        wimax = summary["802.16e"]
        assert (wimax["j_min"], wimax["j_max"]) == (4, 12)
        assert wimax["k"] == 24
        assert (wimax["z_min"], wimax["z_max"]) == (24, 96)

    def test_wifi_ranges_match_paper_table1(self):
        summary = {s["standard"]: s for s in standards_summary()}
        wifi = summary["802.11n"]
        assert (wifi["j_min"], wifi["j_max"]) == (4, 12)
        assert (wifi["z_min"], wifi["z_max"]) == (27, 81)
