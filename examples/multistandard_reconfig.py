#!/usr/bin/env python
"""The paper's headline scenario: one decoder, multiple 4G standards.

A mixed stream of frames — IEEE 802.16e (WiMax), IEEE 802.11n (WLAN)
and DMB-T, several block sizes, interleaved arrival order — is served
by one :class:`~repro.service.DecodeService`.  Mode switching is what
the paper means by *dynamic reconfigurability*: on the chip it is a
mode-ROM control-register update, here it is a :class:`PlanCache` hit
(the compiled gather tables and fixed-point ROMs of every mode stay
resident).  The service batches same-mode requests dynamically, so the
interleaved stream still decodes at batch throughput.

`repro.open_all` is the session view of the same story: one Link per
standard, all sharing the process-level plan cache, each generating its
own traffic (`channel_frames`) and submitting into the one service
(`submit(..., service=...)`).

The cycle-accurate chip model remains available through
``link.chip()`` / ``repro.arch.DecoderChip`` (see
``examples/architecture_explorer.py`` and ``examples/power_savings.py``);
this example is the *serving* view of the same reconfigurability story.

Usage::

    python examples/multistandard_reconfig.py
"""

import numpy as np

import repro
from repro import DecodeService, DecoderConfig
from repro.utils.tables import Table

#: (mode, Eb/N0 dB, frames) — the mixed-standard traffic pattern.
FRAME_STREAM = [
    ("802.16e:1/2:z96", 2.2, 4),   # WiMax N=2304 near the waterfall
    ("802.11n:1/2:z81", 2.2, 4),   # WLAN N=1944
    ("802.16e:1/2:z24", 3.0, 6),   # small WiMax N=576 (bank gating!)
    ("802.16e:5/6:z96", 5.0, 4),   # high-rate WiMax
    ("802.11n:1/2:z27", 3.0, 6),   # small WLAN N=648
    ("DMB-T:0.8:z127", 5.0, 2),    # DMB-T N=7493 (synthetic matrix)
]


def main(seed: int = 7) -> None:
    rng = np.random.default_rng(seed)
    config = DecoderConfig()

    # One Link per standard in the stream, all over one plan cache —
    # the software picture of the chip's resident mode-ROM record set.
    links = repro.open_all([mode for mode, *_ in FRAME_STREAM], config)

    # Pre-generate the noisy traffic per mode (encode -> BPSK -> AWGN).
    traffic = []  # (mode, ebn0, info_bits, llr_frames)
    for mode, ebn0, frames in FRAME_STREAM:
        info, _, llr = links[mode].channel_frames(frames, ebn0=ebn0, rng=rng)
        traffic.append((mode, ebn0, info, llr))

    table = Table(
        ["mode", "N", "Eb/N0", "frames", "avg iters", "ET rate", "ok"],
        title="Dynamic reconfiguration across 4G standards "
        "(one DecodeService, dynamic batching)",
    )

    with DecodeService(
        max_batch=16,
        max_wait=0.005,
        workers=2,
        # Threads decode from this cache, so the hits printed below are
        # the service's own (worker processes keep caches of their own).
        executor="thread",
        cache=repro.default_plan_cache(),
        default_config=config,
        warm_modes=[mode for mode, *_ in FRAME_STREAM],  # <- mode ROM warm
    ) as service:
        # Interleave submissions frame by frame across the stream — the
        # worst case for a per-frame reconfiguring decoder, routine for
        # the batching service.
        futures = {mode: [] for mode, *_ in FRAME_STREAM}
        frame_cursors = [0] * len(traffic)
        remaining = True
        while remaining:
            remaining = False
            for idx, (mode, _, _, llr) in enumerate(traffic):
                cursor = frame_cursors[idx]
                if cursor < llr.shape[0]:
                    futures[mode].append(
                        links[mode].submit(
                            llr[cursor], client=mode, service=service
                        )
                    )
                    frame_cursors[idx] = cursor + 1
                    remaining = True

        for mode, ebn0, info, llr in traffic:
            results = [f.result(timeout=60) for f in futures[mode]]
            bits = np.concatenate([r.info_bits for r in results])
            iters = np.concatenate([r.iterations for r in results])
            et = np.concatenate([r.et_stopped for r in results])
            ok = bool(np.array_equal(bits, info))
            table.add_row(
                [
                    mode, links[mode].code.n, f"{ebn0:.1f}", len(results),
                    f"{iters.mean():.1f}", f"{et.mean():.2f}",
                    "yes" if ok else "NO",
                ]
            )
        snapshot = service.metrics_snapshot()

    print(table.render())
    cache = snapshot["plan_cache"]
    print(
        f"\nservice: {snapshot['frames_decoded']} frames in "
        f"{snapshot['batches_dispatched']} batches "
        f"(mean fill {snapshot['mean_batch_frames']:.1f}), "
        f"{snapshot['mode_switches']} mode switches, "
        f"p50/p99 latency {snapshot['latency_p50_ms']:.1f}/"
        f"{snapshot['latency_p99_ms']:.1f} ms"
    )
    print(
        f"plan cache: {cache['hits']} hits / {cache['misses']} misses "
        f"({cache['size']} resident modes) — every mode switch after "
        f"warm-up is a cache hit, the software analogue of the paper's "
        f"mode-ROM control-register update"
    )


if __name__ == "__main__":
    main()
