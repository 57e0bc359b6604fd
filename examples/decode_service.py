#!/usr/bin/env python
"""Decode-service quickstart: submit, batch, await, observe.

Minimal tour of the serving bridge: every ``(mode, config)`` pair is a
`repro.open(...)` session, traffic comes from `Link.channel_frames`,
and `Link.submit` queues frames on one shared
:class:`~repro.service.DecodeService`:

1. open a Link per standard and datapath (float and Q8.2 fixed point)
   — all sessions share the process-level plan cache (the software
   mode ROM);
2. create the service once via the first link's ``serve()`` and submit
   per-client requests through every link — requests with equal
   ``(mode, config)`` batch together, others decode concurrently;
3. await the futures (per-client FIFO order is guaranteed);
4. read the metrics: frames/s, batch fill, latency quantiles, cache
   hits, mode switches.

Usage::

    python examples/decode_service.py
"""

import numpy as np

import repro
from repro import DecoderConfig, QFormat

MODES = ("802.16e:1/2:z24", "802.11n:1/2:z27")
FLOAT_CONFIG = DecoderConfig()
FIXED_CONFIG = DecoderConfig(qformat=QFormat(8, 2))


def main(seed: int = 42) -> None:
    rng = np.random.default_rng(seed)
    links = {
        (mode, config): repro.open(mode, config, ebn0=3.5)
        for mode in MODES
        for config in (FLOAT_CONFIG, FIXED_CONFIG)
    }

    first = next(iter(links.values()))
    with first.serve(
        max_batch=16,          # flush a (mode, config) group at 16 frames...
        max_wait=0.005,        # ...or 5 ms after its oldest request
        workers=2,
        warm_modes=MODES,      # compile plans/ROMs before traffic arrives
    ) as service:
        futures = []
        for client in ("alice", "bob", "carol"):
            for (mode, _), link in links.items():
                _, _, llr = link.channel_frames(3, rng=rng)
                futures.append(
                    (client, mode,
                     link.submit(llr, client=client, service=service))
                )

        for client, mode, future in futures:
            result = future.result(timeout=60)
            print(
                f"{client:6s} {mode:16s} -> {result.batch_size} frames, "
                f"avg {result.average_iterations:.1f} iters, "
                f"converged {result.convergence_rate:.0%}"
            )

        snapshot = service.metrics_snapshot()

    print(
        f"\n{snapshot['frames_decoded']} frames in "
        f"{snapshot['batches_dispatched']} batches "
        f"(mean fill {snapshot['mean_batch_frames']:.1f} frames, "
        f"{snapshot['flushes_size']} size / "
        f"{snapshot['flushes_deadline']} deadline / "
        f"{snapshot['flushes_drain']} drain flushes)"
    )
    print(
        f"latency p50/p99: {snapshot['latency_p50_ms']:.1f}/"
        f"{snapshot['latency_p99_ms']:.1f} ms, "
        f"throughput {snapshot['frames_per_second']:.0f} frames/s"
    )
    cache = snapshot["plan_cache"]
    print(
        f"plan cache: {cache['hits']} hits, {cache['misses']} misses, "
        f"{cache['size']}/{cache['maxsize']} records resident; "
        f"{snapshot['mode_switches']} mode switches"
    )


if __name__ == "__main__":
    main()
