"""Constants, configs and statistics shared by every workload."""

from __future__ import annotations

import hashlib
import json
import math
import resource
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import DecoderConfig, QFormat

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"
#: Span files and server logs; listed in the root .gitignore.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: The paper's 8-bit message datapath.
Q82 = QFormat(8, 2)

#: Sweep configs: library-default early termination (the paper rule).
WATERFALL_FIXED = DecoderConfig(backend="fast", qformat=Q82)
WATERFALL_FLOAT = DecoderConfig(backend="fast")

#: Serving configs: the service tier's early-termination rule.
SERVE_FIXED = DecoderConfig(
    backend="fast", qformat=Q82, early_termination="paper-or-syndrome"
)
SERVE_FLOAT = DecoderConfig(backend="fast", early_termination="paper-or-syndrome")

#: A timing needs this many samples beyond its tail percentile.
TAIL_SAMPLES = 10
#: Fresh processes per run whose set-up time is measured.
SETUP_SAMPLES = 3


@dataclass
class Run:
    """What one workload run hands back to run.py."""

    #: Every end-to-end metric's value.
    values: dict
    #: One problem list per operation; a non-empty list is a failure.
    problems: list
    #: False when the run itself went wrong (lost operations).
    correct: bool
    info: dict
    #: Median set-up figures of the run's fresh processes.
    setup: dict
    #: The timed phase, perf_counter_ns at start and end.
    window: tuple
    #: Extra inputs of spans.layer_metrics.
    layer_inputs: dict = field(default_factory=dict)


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for one sub-stream of the run seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def make_rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def tail_percentile(n: int) -> "float | None":
    """The highest percentile (0.1 steps) with >= TAIL_SAMPLES beyond it.

    ``None`` below 4 * TAIL_SAMPLES samples: that percentile would be no
    tail.  The benchmark passes the *guaranteed* sample count of a run,
    so every run of a workload reports the same percentile.
    """
    if n < 4 * TAIL_SAMPLES:
        return None
    return math.floor(1000.0 * (1.0 - TAIL_SAMPLES / n)) / 10.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(array: np.ndarray) -> str:
    """Content identity of one array (LLR rows, wire payloads)."""
    data = np.ascontiguousarray(array)
    return hashlib.blake2b(data.tobytes(), digest_size=8).hexdigest()


def row_fingerprints(llr: np.ndarray) -> list:
    rows = np.atleast_2d(np.asarray(llr))
    return [fingerprint(row) for row in rows]


def numpy_loop_ms() -> float:
    """Median time of a fixed plain-numpy loop: the host-speed yardstick.

    Touches nothing of the library.  A run whose figure is far above the
    README's reference ran on a slow or contended host.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 4096))
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = np.zeros(4096)
        for row in range(200):
            acc += np.abs(np.tanh(a[row % 64] * 0.5)).clip(0.0, 3.0)
        samples.append((time.perf_counter() - t0) * 1e3)
    return median(samples)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict, info: dict) -> None:
    """Print the info line, then the result line (always stdout's last)."""
    print(json.dumps({"info": info}, default=float), flush=True)
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def read_line(proc, timeout: float) -> str:
    """One stdout line of a child process, or an error after ``timeout``."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise TimeoutError("child process printed nothing in time")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"child process exited with {proc.wait()}")
    return line


def summarize_setup(samples: list) -> dict:
    return {
        key: median([s[key] for s in samples])
        for key in ("setup_s", "import_s", "plan_compile_ms")
    }


def measure_setup(workload: str) -> dict:
    """Spawn fresh processes; each sample runs from spawn to ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(RUN_PY), "--setup-probe", workload],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            report = json.loads(read_line(proc, 120.0))
            report["setup_s"] = time.perf_counter() - start
            proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        samples.append(report)
    return summarize_setup(samples)
