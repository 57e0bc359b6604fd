"""The library needs numpy alone: scipy and networkx are never imported."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

import numpy as np

import repro
from repro.codes import QCLDPCCode, build_qc_base_matrix
from repro.codes.validation import validate_code
from repro.encoder.generic import GenericEncoder

config = repro.DecoderConfig(early_termination="paper-or-syndrome")
link = repro.open("802.16e:1/2:z24", config, ebn0=3.0, seed=1)
assert link.run_frames(4).result.batch_size == 4
assert "H" not in vars(link.code)  # decoding never builds the dense matrix

code = QCLDPCCode(build_qc_base_matrix(j=3, k=6, z=8, name="tiny", seed=7))
report = validate_code(code, expensive=True)
assert report.ok and report.rank == code.m and report.girth >= 6, report
info = np.random.default_rng(0).integers(0, 2, (3, code.n - code.m), dtype=np.uint8)
assert code.is_codeword(GenericEncoder(code).encode(info)).all()

loaded = sorted(name for name in ("scipy", "networkx") if name in sys.modules)
assert not loaded, loaded
print("numpy only")
"""


def test_library_runs_without_scipy_or_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC), env.get("PYTHONPATH")) if path
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "numpy only"
