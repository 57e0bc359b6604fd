"""Golden decode vectors: frozen reference-backend ground truth.

``tests/data/golden_*.npz`` (written by ``tests/data/make_golden.py``)
store channel LLR inputs *and* the reference backend's outputs for one
code per standard — WiMax N=576, WiFi N=648, DMB-T N=7493 (z=127) and
the NR base graphs BG1 N=1632 / BG2 N=1248 (z=24) — at two operating
points.  These tests decode the
stored inputs and diff against the stored outputs, so a kernel/backend/
schedule refactor is checked against ground truth that predates it —
no re-derivation, no "both sides drifted together" blind spot.

Contract per case:

- fixed point (Q8.2): bits, LLRs, iterations, ET flags **exactly** equal
  to the stored arrays — for the reference backend and every other
  registered backend (the cross-backend bit-identity contract);
- float: bits, iterations and ET flags exactly, LLRs to 1e-9 (the
  reference float kernel goes through libm transcendentals whose last
  ulp may differ between platforms);
- compaction on/off both reproduce the vectors (they are bit-identical
  paths).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.codes import get_code
from repro.decoder import DecoderConfig, LayeredDecoder, registered_backends
from repro.fixedpoint import QFormat

DATA_DIR = Path(__file__).resolve().parent / "data"
GOLDEN_FILES = sorted(DATA_DIR.glob("golden_*.npz"))

#: Float-LLR tolerance across libm implementations.
FLOAT_LLR_ATOL = 1e-9


def _load(path: Path) -> dict:
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


@pytest.fixture(scope="module", params=GOLDEN_FILES, ids=lambda p: p.stem)
def golden(request):
    return _load(request.param)


def test_golden_files_exist():
    assert len(GOLDEN_FILES) == 10, (
        "expected 10 golden vector files (WiMax, WiFi, DMB-T and the "
        "NR BG1/BG2 modes at two operating points each); regenerate "
        "with `PYTHONPATH=src python tests/data/make_golden.py`"
    )


class TestFixedPointGolden:
    @pytest.fixture(scope="class")
    def results(self, golden):
        code = get_code(str(golden["mode"]))
        out = {}
        for backend in registered_backends():
            for compact in (True, False):
                config = DecoderConfig(
                    backend=backend,
                    qformat=QFormat(8, 2),
                    compact_frames=compact,
                )
                out[(backend, compact)] = LayeredDecoder(code, config).decode(
                    golden["llr_in"]
                )
        return out

    def test_every_backend_matches_frozen_truth(self, golden, results):
        for (backend, compact), result in results.items():
            context = f"{backend}/compact={compact}"
            assert np.array_equal(result.bits, golden["fixed_bits"]), context
            assert np.array_equal(result.llr, golden["fixed_llr"]), context
            assert np.array_equal(
                result.iterations, golden["fixed_iterations"]
            ), context
            assert np.array_equal(
                result.et_stopped, golden["fixed_et_stopped"]
            ), context


class TestFloatGolden:
    def test_reference_matches_frozen_truth(self, golden):
        code = get_code(str(golden["mode"]))
        for compact in (True, False):
            config = DecoderConfig(backend="reference", compact_frames=compact)
            result = LayeredDecoder(code, config).decode(golden["llr_in"])
            assert np.array_equal(result.bits, golden["float_bits"])
            assert np.array_equal(result.iterations, golden["float_iterations"])
            assert np.array_equal(result.et_stopped, golden["float_et_stopped"])
            np.testing.assert_allclose(
                result.llr, golden["float_llr"], atol=FLOAT_LLR_ATOL
            )


class TestGoldenSanity:
    def test_high_snr_point_early_terminates(self):
        # The 3.5 dB vectors exist to pin ET behaviour: every frame, in
        # *both* datapaths, must stop before the 10-iteration budget.
        # The Q8.2 side is the PR 3 regression fence — the seed datapath
        # treated quantized-to-zero channel LLRs as absorbing erasures
        # and never converged or early-terminated (the vectors froze
        # ``fixed_iterations == 10``); with zero-broken quantization, a
        # zero-broken message port, and the guarded SISO fold the fixed
        # decoder now converges alongside float.
        for path in GOLDEN_FILES:
            golden = _load(path)
            if float(golden["ebn0_db"]) >= 3.5:
                assert golden["float_et_stopped"].all(), path.stem
                assert (golden["float_iterations"] < 10).all(), path.stem
                assert golden["fixed_et_stopped"].all(), path.stem
                assert (golden["fixed_iterations"] < 10).all(), path.stem

    def test_fixed_tracks_float_iterations_at_high_snr(self):
        # The guarded Q8.2 datapath converges at float-like speed: per
        # frame, within one iteration of the float decoder at 3.5 dB.
        for path in GOLDEN_FILES:
            golden = _load(path)
            if float(golden["ebn0_db"]) >= 3.5:
                delta = np.abs(
                    golden["fixed_iterations"].astype(np.int64)
                    - golden["float_iterations"].astype(np.int64)
                )
                assert (delta <= 1).all(), path.stem

    def test_vectors_decode_to_true_codewords_at_high_snr(self):
        # Both datapaths, not just float: the fixed decoder's hard
        # decisions must equal the transmitted information bits.
        for path in GOLDEN_FILES:
            golden = _load(path)
            if float(golden["ebn0_db"]) >= 3.5:
                n_info = golden["info_bits"].shape[1]
                assert np.array_equal(
                    golden["float_bits"][:, :n_info], golden["info_bits"]
                ), path.stem
                assert np.array_equal(
                    golden["fixed_bits"][:, :n_info], golden["info_bits"]
                ), path.stem
