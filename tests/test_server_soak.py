"""Chaos soak: many concurrent asyncio clients vs a fault-injected server.

The CI ``chaos-smoke`` job runs this file with tens of clients; the
default size keeps a local run to a few seconds.  Scale knobs:

- ``REPRO_SOAK_CLIENTS``  — concurrent connections (default 8)
- ``REPRO_SOAK_REQUESTS`` — pipelined requests per connection (default 6)
- ``REPRO_SOAK_SEED``     — fault-plan + payload seed (default 20260807)

The gate, per the hardening contract:

- **zero hung futures** — every decode call resolves inside the
  wall-clock budget (enforced with ``asyncio.wait_for``);
- **zero drops under ``block``** — backpressure means waiting, not
  losing: every request returns a *result*, bit-identical to a direct
  :class:`LayeredDecoder` decode, even while the plan crashes workers,
  stalls them past ``hang_timeout``, fails batch decodes and drops
  cache entries (retries absorb every injected transient);
- **graceful drain within budget** — ``server.close()`` with requests
  still in flight returns inside ``DRAIN_BUDGET`` seconds and leaves
  every in-flight call resolved (result or typed error, never a hang).

The plan deliberately omits ``corrupt_llr``: under concurrent
connections the submit-index order is nondeterministic, so corrupted
payloads cannot be recomputed for bit-identity checks — that contract
is covered single-threaded in ``tests/test_service_faults.py``.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np

from repro.codes import get_code
from repro.decoder import DecoderConfig, LayeredDecoder
from repro.errors import ProtocolError, ServiceError
from repro.runtime import FaultPlan
from repro.server import DecodeClient, DecodeServer
from repro.service import DecodeService, RetryPolicy

CLIENTS = int(os.environ.get("REPRO_SOAK_CLIENTS", "8"))
REQUESTS = int(os.environ.get("REPRO_SOAK_REQUESTS", "6"))
SEED = int(os.environ.get("REPRO_SOAK_SEED", "20260807"))

WIMAX = "802.16e:1/2:z24"
WIFI = "802.11n:1/2:z27"
CONFIG = DecoderConfig(backend="fast", early_termination="paper-or-syndrome")
SOAK_BUDGET = 120.0   # hard ceiling on the whole wave (hung == failed)
DRAIN_BUDGET = 15.0   # graceful close with requests still in flight


def _payload_pool():
    """A small pool of (mode, llr, expected) reused across clients."""
    rng = np.random.default_rng(SEED)
    pool = []
    for i in range(8):
        mode = WIMAX if i % 2 else WIFI
        code = get_code(mode)
        llr = 4.0 * rng.standard_normal((1 + i % 3, code.n))
        expected = LayeredDecoder(code, CONFIG).decode(llr)
        pool.append((mode, llr, expected))
    return pool


def _soak_plan() -> FaultPlan:
    return FaultPlan(
        seed=SEED,
        worker_crash=[2, 9, 17],
        worker_hang=[5, 13],
        backend_error=[3, 11, 19],
        cache_drop=[2, 6],
        hang_duration=1.0,
    )


def _soak_service(plan: FaultPlan) -> DecodeService:
    return DecodeService(
        max_batch=8,
        max_wait=0.002,
        workers=3,
        default_config=CONFIG,
        queue_limit=max(16, 2 * CLIENTS),
        overload_policy="block",
        retry=RetryPolicy(attempts=6, backoff=0.002),
        hang_timeout=0.25,
        faults=plan,
    )


async def _client_session(address, pool, offset: int):
    """One connection; pipelined requests; returns per-request outcomes."""
    async with await DecodeClient.connect(*address) as client:
        picks = [pool[(offset + i) % len(pool)] for i in range(REQUESTS)]
        results = await asyncio.gather(*[
            client.decode(mode, llr) for mode, llr, _ in picks
        ])
        return list(zip(picks, results))


def test_chaos_soak_no_drops_no_hangs_bit_identical():
    plan = _soak_plan()
    service = _soak_service(plan)
    pool = _payload_pool()

    async def _main():
        async with DecodeServer(service=service, max_inflight=4) as server:
            sessions = await asyncio.wait_for(
                asyncio.gather(*[
                    _client_session(server.address, pool, offset=c)
                    for c in range(CLIENTS)
                ]),
                SOAK_BUDGET,
            )
        return sessions

    t0 = time.monotonic()
    try:
        sessions = asyncio.run(_main())
    finally:
        service.close()
    elapsed = time.monotonic() - t0

    # Zero drops: every single request came back as a result ...
    total = 0
    for session in sessions:
        for (mode, llr, expected), result in session:
            total += 1
            # ... and a bit-identical one: the fault storm is invisible
            # to correctness, only to latency.
            assert np.array_equal(result.bits, expected.bits), mode
            assert np.array_equal(result.llr, expected.llr), mode
            assert np.array_equal(result.iterations, expected.iterations)
    assert total == CLIENTS * REQUESTS

    snap = service.metrics_snapshot()
    assert snap["requests_submitted"] == total
    assert snap["requests_completed"] == total
    assert snap["requests_failed"] == 0
    assert snap["requests_shed"] == 0
    assert snap["requests_timed_out"] == 0
    assert snap["batches_in_flight"] == 0  # no worker slot leaked
    # The storm actually happened; supervision counters prove it.
    injected = plan.injected()
    assert injected["worker_crash"] >= 1
    assert snap["worker_pool"]["crashes_detected"] == injected["worker_crash"]
    assert snap["worker_pool"]["hangs_detected"] == injected["worker_hang"]
    assert snap["requests_retried"] >= injected["backend_error"]
    assert elapsed < SOAK_BUDGET


def test_graceful_drain_under_load_within_budget():
    plan = FaultPlan(seed=SEED + 1, worker_hang=[1], hang_duration=0.8)
    service = DecodeService(
        max_batch=4, max_wait=0.002, workers=2,
        default_config=CONFIG,
        retry=RetryPolicy(attempts=3, backoff=0.002),
        hang_timeout=0.2, faults=plan,
    )
    mode, llr, expected = _payload_pool()[0]

    async def _main():
        server = await DecodeServer(service=service).start()
        client = await DecodeClient.connect(*server.address)
        pending = [
            asyncio.create_task(client.decode(mode, llr)) for _ in range(6)
        ]
        await asyncio.sleep(0.01)  # let them reach the service
        t0 = time.monotonic()
        await server.close()  # drain with decodes (and a hang) in flight
        drain = time.monotonic() - t0
        outcomes = await asyncio.gather(*pending, return_exceptions=True)
        await client.close()
        return drain, outcomes

    try:
        drain, outcomes = asyncio.run(_main())
    finally:
        service.close()

    assert drain < DRAIN_BUDGET
    for outcome in outcomes:
        # Resolved, one way or the other — a drain never strands a call.
        if isinstance(outcome, BaseException):
            assert isinstance(outcome, (ServiceError, ProtocolError))
        else:
            assert np.array_equal(outcome.bits, expected.bits)
