#!/usr/bin/env python
"""Decode-server quickstart: the hardened service behind a socket.

Spins up the whole robust serving stack in one process:

1. a :class:`~repro.service.DecodeService` with every hardening knob
   on — bounded admission (``block`` backpressure), per-request
   deadlines, retry-with-backoff, supervised workers with a hang
   timeout, and a seeded :class:`~repro.runtime.FaultPlan` that crashes
   a worker and fails a batch decode mid-run (so the output shows the
   machinery actually working);
2. a :class:`~repro.server.DecodeServer` fronting it on a loopback TCP
   socket, speaking the framed binary protocol;
3. a handful of concurrent :class:`~repro.server.DecodeClient`
   sessions pipelining requests, one of which asks for an impossible
   deadline to show a typed :class:`~repro.errors.DeadlineExceeded`
   crossing the wire;
4. a Prometheus metrics scrape over the same connection, then a
   graceful drain.

Every result is bit-identical to a direct in-process decode — the
injected faults cost retries and latency, never correctness.

Usage::

    python examples/decode_server.py
"""

import asyncio

import numpy as np

from repro import DecoderConfig, FaultPlan, RetryPolicy
from repro.codes import get_code
from repro.decoder import LayeredDecoder
from repro.errors import DeadlineExceeded
from repro.server import DecodeClient, DecodeServer

MODES = ("802.16e:1/2:z24", "802.11n:1/2:z27")
CONFIG = DecoderConfig(early_termination="paper-or-syndrome")


async def run_client(name: str, address, payloads) -> int:
    """One connection, pipelined requests; returns #verified results."""
    verified = 0
    async with await DecodeClient.connect(*address) as client:
        results = await asyncio.gather(*[
            client.decode(mode, llr) for mode, llr, _ in payloads
        ])
        for (mode, _, expected), result in zip(payloads, results):
            assert np.array_equal(result.bits, expected.bits), mode
            verified += 1
        print(f"  {name}: {verified} results, all bit-identical to direct decode")
    return verified


async def main(seed: int = 42) -> None:
    rng = np.random.default_rng(seed)
    payloads = []
    for i in range(6):
        mode = MODES[i % 2]
        code = get_code(mode)
        llr = 4.0 * rng.standard_normal((2, code.n))
        expected = LayeredDecoder(code, CONFIG).decode(llr)
        payloads.append((mode, llr, expected))

    # A scripted storm: worker task #1 dies, batch decode #2 fails.
    # Retries absorb both; the metrics at the end prove they happened.
    plan = FaultPlan(seed=seed, worker_crash=[1], backend_error=[2])

    async with DecodeServer(
        default_config=CONFIG,
        max_batch=8,
        max_wait=0.002,
        workers=2,
        queue_limit=64,
        overload_policy="block",
        retry=RetryPolicy(attempts=4, backoff=0.002),
        hang_timeout=1.0,
        faults=plan,
    ) as server:
        print(f"decode server listening on {server.address[0]}:{server.port}")

        print("three concurrent clients, pipelined requests:")
        totals = await asyncio.gather(*[
            run_client(f"client-{i}", server.address, payloads)
            for i in range(3)
        ])

        async with await DecodeClient.connect(*server.address) as client:
            # A deadline the service cannot possibly meet: the error
            # arrives as the same DeadlineExceeded a local submit raises.
            try:
                await client.decode(MODES[0], payloads[0][1], timeout=1e-4)
                print("impossible deadline unexpectedly met?!")
            except DeadlineExceeded as exc:
                print(f"impossible deadline -> typed error over the wire: {exc}")

            metrics = await client.metrics_text()

        print(f"\n{sum(totals)} decodes verified; metrics scrape says:")
        for line in metrics.splitlines():
            if line.startswith(
                (
                    "repro_requests_completed",
                    "repro_requests_retried",
                    "repro_requests_timed_out",
                    "repro_worker_pool_crashes_detected",
                    "repro_worker_pool_respawns",
                    "repro_server_responses_sent",
                )
            ):
                print(f"  {line}")
    print("graceful drain complete")


if __name__ == "__main__":
    asyncio.run(main())
