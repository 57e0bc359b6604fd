#!/usr/bin/env python
"""Parallel BER sweep with checkpoint/resume and compaction.

Demonstrates `Link.sweep` — the front door of the
`repro.runtime.SweepEngine`:

1. runs a small Eb/N0 sweep serially and on a 2-worker process pool and
   verifies the statistics are *identical* (deterministic per-chunk RNG
   streams + exact ordered reduction);
2. re-runs against the JSON checkpoint to show resume-without-decoding;
3. compares decode wall time with active-frame compaction on vs off at
   an SNR where the paper's early termination retires most frames —
   each compaction setting is its own one-knob `repro.open` session.

Usage::

    PYTHONPATH=src python examples/parallel_sweep.py [frames_per_point]
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import repro
from repro import DecoderConfig
from repro.analysis import ber_table

EBN0_POINTS = [1.0, 2.0, 3.0]


def main(frames: int = 400, seed: int = 11) -> None:
    config = DecoderConfig()
    link = repro.open("802.16e:1/2:z24", config, seed=seed)
    print(f"code: {link.code}\n")

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "sweep.json"
        budget = dict(
            max_frames=frames, min_frame_errors=frames // 4, batch_size=100
        )

        start = time.perf_counter()
        serial = link.sweep(EBN0_POINTS, **budget)
        serial_s = time.perf_counter() - start

        start = time.perf_counter()
        parallel = link.sweep(
            EBN0_POINTS, workers=2, checkpoint=checkpoint, **budget
        )
        parallel_s = time.perf_counter() - start

        identical = all(
            a.to_dict() == b.to_dict() for a, b in zip(serial, parallel)
        )
        print(ber_table(parallel, title=f"{frames} frames/point").render())
        print(
            f"\nserial {serial_s:.2f}s vs 2 workers {parallel_s:.2f}s — "
            f"statistics identical: {identical}"
        )

        # Resume: every chunk is already in the checkpoint, so this run
        # does no decoding at all.
        start = time.perf_counter()
        link.sweep(EBN0_POINTS, checkpoint=checkpoint, **budget)
        print(f"resume from checkpoint: {time.perf_counter() - start:.3f}s")

    # Compaction: same decode, working batch scattered vs carried.
    rng = np.random.default_rng(seed)
    _, _, llr = link.channel_frames(256, ebn0=3.5, rng=rng)
    print("\ncompaction at 3.5 dB (paper ET, 256 frames):")
    for compact in (False, True):
        session = repro.open(
            "802.16e:1/2:z24", config.replace(compact_frames=compact)
        )
        session.decode(llr[:4])  # warm up
        start = time.perf_counter()
        result = session.decode(llr)
        elapsed = time.perf_counter() - start
        label = "compacted" if compact else "carried  "
        print(
            f"  {label}: {256 / elapsed:7.0f} frames/s "
            f"(avg iterations {result.average_iterations:.2f})"
        )


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    main(n)
