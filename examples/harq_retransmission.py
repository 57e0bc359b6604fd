#!/usr/bin/env python
"""IR-HARQ over a fading channel: retransmit, soft-combine, re-decode.

The 5G NR workload that makes decoding *stateful*: a transport block is
rate-matched (the first two systematic column blocks punctured, the
survivors read from a circular buffer at redundancy version rv0) and
sent over a Rayleigh block-fading channel.  Blocks that fail decode are
not thrown away — the receiver keeps the soft LLRs, the transmitter
sends a *different* redundancy version, and the decoder runs again over
the combined buffer.  Each retransmission both raises the SNR of
already-seen positions (chase combining) and fills in positions the
earlier versions never sent (incremental redundancy), so the FER digs
itself out retransmission by retransmission.

The script drives a batched :class:`repro.nr.HarqSession` end to end —
encode, rate-match, fade, combine, re-decode — and prints the per-rv
BER/FER trajectory with the session's masked operating-SNR estimate
(punctured positions never bias it).

Usage::

    python examples/harq_retransmission.py            # demo
    python examples/harq_retransmission.py --check    # CI gate

``--check`` exits non-zero unless rv0 alone leaves frame errors, the
FER trajectory is monotonically non-increasing, and the fully combined
buffer decodes every block.
"""

import argparse
import sys

import numpy as np

from repro import DecoderConfig
from repro.channel import BPSKModulator, ChannelFrontend, make_channel
from repro.codes import get_code
from repro.encoder import make_encoder
from repro.nr import HarqSession, NRRateMatcher

MODE = "NR:bg1:z8"
EBN0_DB = 4.0
BLOCKS = 48
RV_ORDER = (0, 2, 3, 1)  # the standard NR retransmission order
SEED = 7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless rv0 fails, FER is monotone, and the "
        "combined buffer decodes clean",
    )
    args = parser.parse_args(argv)

    code = get_code(MODE)
    matcher = NRRateMatcher(code)
    e = matcher.ncb // 2  # send half the circular buffer per rv
    rng = np.random.default_rng(SEED)
    encoder = make_encoder(code)
    payload = rng.integers(0, 2, (BLOCKS, matcher.n_payload), dtype=np.uint8)
    codewords = encoder.encode(matcher.place_fillers(payload))

    session = HarqSession(
        code,
        DecoderConfig(early_termination="paper-or-syndrome"),
    )
    print(
        f"{MODE} (N={code.n}, K={code.n_info}), {BLOCKS} transport blocks, "
        f"e={e} soft bits per transmission, Rayleigh block fading at "
        f"{EBN0_DB} dB Eb/N0\n"
    )
    print(f"{'rv':>4} {'est SNR':>8} {'BER':>9} {'FER':>7}")
    fers = []
    for rv in RV_ORDER:
        channel = make_channel(
            "rayleigh", EBN0_DB, matcher.n_payload / e, 1, rng=rng
        )
        llr = ChannelFrontend(BPSKModulator(), channel).run(
            matcher.rate_match(codewords, rv, e)
        )
        result = session.receive(llr, rv)
        decoded = matcher.extract_payload(result.bits[:, : code.n_info])
        errors = decoded != payload
        fer = float(errors.any(axis=1).mean())
        fers.append(fer)
        print(
            f"rv{rv:<2} {session.snr_db():>7.2f}  {errors.mean():>9.5f} "
            f"{fer:>7.3f}"
        )

    print(
        f"\n{int(round(fers[0] * BLOCKS))}/{BLOCKS} blocks failed at rv0; "
        f"{int(round(fers[-1] * BLOCKS))}/{BLOCKS} after combining all "
        f"{len(RV_ORDER)} redundancy versions."
    )

    if args.check:
        failures = []
        if fers[0] <= 0.0:
            failures.append("rv0 alone should leave frame errors")
        if any(a < b for a, b in zip(fers, fers[1:])):
            failures.append(f"FER trajectory not monotone: {fers}")
        if fers[-1] != 0.0:
            failures.append(
                f"combined buffer still has FER {fers[-1]:.3f}"
            )
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("check passed: rv0 fails, FER monotone, combined decodes clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
