#!/usr/bin/env python
"""Adaptive decode policies and power-aware serving.

A mixed-SNR storm — the paper's multi-user, multi-condition operating
regime — served two ways through :class:`~repro.service.DecodeService`:

1. **Static**: every request decoded with the paper's single Q8.2
   operating point (service-tier ``paper-or-syndrome`` early
   termination).
2. **Adaptive**: a :class:`~repro.service.DecodePolicy` reads each
   request's operating SNR (client-reported here; the service can also
   estimate it blind from LLR statistics) and picks the check-node
   algorithm, datapath and iteration budget per band — min-sum with a
   short budget where the channel is clean, the full BP float datapath
   where it is not.

Both passes print avg iterations and the energy-per-bit gauge derived
from the paper's power model, plus the per-rule selection counts.  The
example also *measures* the PR 3 re-corruption residual (frames whose
APP signs reached a true codeword but whose final output is not one)
under the service-tier rule — the count the adaptive layer exists to
keep at zero.

Usage::

    python examples/adaptive_serving.py              # demo
    python examples/adaptive_serving.py --check      # CI gate

``--check`` exits non-zero unless (a) the measured re-corrupted frame
count is zero, (b) the policy's avg iterations do not exceed the static
baseline's, and (c) the energy gauges appear in the Prometheus export.
"""

import argparse
import sys

import numpy as np

from repro import DecoderConfig, QFormat
from repro.channel import AWGNChannel, BPSKModulator, ChannelFrontend
from repro.codes import get_code
from repro.decoder import LayeredDecoder
from repro.encoder import make_encoder
from repro.service import DecodePolicy, DecodeService, prometheus_text

MODE = "802.16e:1/2:z24"
#: Eb/N0 bands of the storm; at rate 1/2 BPSK, channel SNR dB == Eb/N0
#: dB, so each band lands in a different default-policy rule.
BANDS = (1.0, 3.0, 6.0)
FRAMES_PER_REQUEST = 2
ENERGY_GAUGES = (
    "repro_energy_pj_total",
    "repro_energy_per_bit_pj",
    "repro_avg_iterations",
)


def make_storm(code, requests: int, seed: int):
    """Round-robin (snr_db, llr) requests across the SNR bands."""
    rng = np.random.default_rng(seed)
    encoder = make_encoder(code)
    per_band = max(1, requests // len(BANDS))
    by_band = []
    for ebn0 in BANDS:
        _, codewords = encoder.random_codewords(
            per_band * FRAMES_PER_REQUEST, rng
        )
        llr = ChannelFrontend(
            BPSKModulator(), AWGNChannel.from_ebn0(ebn0, code.rate, rng=rng)
        ).run(codewords)
        by_band.append([(ebn0, llr[i::per_band]) for i in range(per_band)])
    return [by_band[b][i] for i in range(per_band) for b in range(len(BANDS))]


def serve(storm, report_snr: bool, **service_kwargs):
    """Run the storm through one service; return its metrics snapshot."""
    with DecodeService(
        workers=2, max_wait=0.005, warm_modes=[MODE], **service_kwargs
    ) as service:
        futures = [
            service.submit(MODE, llr, snr_db=snr if report_snr else None)
            for snr, llr in storm
        ]
        for future in futures:
            future.result(timeout=120)
        return service.metrics_snapshot()


def measure_recorruption(code, config, llr) -> int:
    """Frames whose APP signs reached a codeword but whose output is
    not one — stepped one iteration at a time via the resumable state."""
    decoder = LayeredDecoder(code, config.replace(compact_frames=False))
    state = decoder.begin_decode(llr)
    ever_codeword = np.zeros(llr.shape[0], dtype=bool)
    live = ~state.done_mask
    while not state.done:
        decoder.step(state, 1)
        bits = (state.arrays[0] < 0).astype(np.uint8)
        ever_codeword |= live & np.asarray(code.is_codeword(bits))
        live = ~state.done_mask
    return int((ever_codeword & ~decoder.finish(state).converged).sum())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=24)
    parser.add_argument("--seed", type=int, default=20260807)
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate: zero re-corrupted frames, policy avg iters <= static, "
        "energy gauges exported",
    )
    args = parser.parse_args(argv)

    code = get_code(MODE)
    storm = make_storm(code, args.requests, args.seed)
    static_config = DecoderConfig(
        qformat=QFormat(8, 2), early_termination="paper-or-syndrome"
    )

    static = serve(storm, report_snr=False, default_config=static_config)
    policy = serve(storm, report_snr=True, policy=DecodePolicy())

    print(
        f"mixed-SNR storm: {len(storm)} requests x {FRAMES_PER_REQUEST} "
        f"frames, {MODE}, bands {list(BANDS)} dB Eb/N0\n"
    )
    print(f"{'':18s} {'avg iters':>10s} {'pJ/bit':>10s}")
    for label, snap in (("static Q8.2", static), ("adaptive policy", policy)):
        print(
            f"{label:18s} {snap['avg_iterations']:>10.2f} "
            f"{snap['energy_per_bit_pj']:>10.1f}"
        )
    rules = policy["policy"]["rules"]
    print("\nrule selections:")
    for name, stats in rules.items():
        if stats["selections"]:
            print(
                f"  {name:18s} {stats['selections']:3d} requests, "
                f"avg {stats['avg_iterations']:.2f} iters"
            )
    print(
        f"\niteration budget saved by the policy: "
        f"{policy['policy']['iteration_savings_pct']:.1f}%"
    )

    all_llrs = np.concatenate([llr for _, llr in storm])
    recorrupted = measure_recorruption(code, static_config, all_llrs)
    print(
        f"measured converged-then-corrupted frames under "
        f"paper-or-syndrome: {recorrupted}"
    )

    text = prometheus_text(policy)
    missing = [g for g in ENERGY_GAUGES if g not in text]
    print(
        "energy gauges in prometheus export: "
        + ("all present" if not missing else f"MISSING {missing}")
    )

    if args.check:
        failures = []
        if recorrupted != 0:
            failures.append(f"re-corrupted frames: {recorrupted} != 0")
        if policy["avg_iterations"] > static["avg_iterations"] + 1e-9:
            failures.append(
                f"policy avg iterations {policy['avg_iterations']:.3f} > "
                f"static {static['avg_iterations']:.3f}"
            )
        if missing:
            failures.append(f"gauges missing from prometheus text: {missing}")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("policy-smoke gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
