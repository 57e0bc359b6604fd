"""Deterministic stress test: the service's end-to-end serving contract.

``REPRO_SERVICE_CLIENTS`` submitter threads fire interleaved request
streams at one :class:`~repro.service.DecodeService` — mixed WiMax /
WiFi / DMB-T modes, float and Q8.2 fixed-point configs, 1–3 frames per
request — under deliberate flush-deadline pressure (tiny ``max_wait``,
small ``max_batch``, a plan cache smaller than the working set so
eviction/rebuild happens mid-traffic).  The asserted contract:

1. **No request is dropped**: every submitted future resolves with a
   result (never an exception) within the timeout.
2. **Bit-identity**: every response equals a direct
   :class:`~repro.decoder.LayeredDecoder` decode of the same frames
   with the same config — fields ``bits``/``llr``/``iterations``/
   ``et_stopped``/``converged`` exactly.  This holds *whatever* batch
   composition the racing dispatcher produced, because every kernel is
   elementwise along the batch axis.
3. **Per-client FIFO**: each client's futures resolve in submission
   order (observed through done-callbacks).
4. **No leaked worker slot**: with more workers than cores and a
   shortened interpreter switch interval, the dispatcher's in-flight
   batch count returns to zero once the service closes.

The workload derives from one seed (``REPRO_SERVICE_SEED``, pinned in
CI) so any failure reproduces; thread scheduling may vary, but the
contract is schedule-independent.  Size knobs come from the
environment so CI can run a reduced matrix:

- ``REPRO_SERVICE_SEED``     master seed (default 20260728)
- ``REPRO_SERVICE_CLIENTS``  submitter threads (default 5)
- ``REPRO_SERVICE_REQUESTS`` requests per client (default 8)
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict

import numpy as np
import pytest

from repro.channel import AWGNChannel, BPSKModulator, ChannelFrontend
from repro.codes import get_code
from repro.decoder import DecoderConfig, LayeredDecoder
from repro.encoder import make_encoder
from repro.fixedpoint import QFormat
from repro.service import DecodeService, PlanCache

SEED = int(os.environ.get("REPRO_SERVICE_SEED", "20260728"))
CLIENTS = int(os.environ.get("REPRO_SERVICE_CLIENTS", "5"))
REQUESTS_PER_CLIENT = int(os.environ.get("REPRO_SERVICE_REQUESTS", "8"))

#: Mixed-standard mode pool.  DMB-T (N=7493) is sampled with lower
#: weight: one heavy frame exercises the big-code path without
#: dominating the runtime.
MODES = ("802.16e:1/2:z24", "802.11n:1/2:z27", "DMB-T:0.8:z127")
MODE_WEIGHTS = (0.45, 0.45, 0.10)

CONFIGS = (
    DecoderConfig(backend="fast"),
    DecoderConfig(backend="fast", qformat=QFormat(8, 2)),
)

RESULT_TIMEOUT_S = 300.0


def _build_workload():
    """Per-client deterministic request lists: (mode, config index, llr)."""
    rng = np.random.default_rng(SEED)
    frontends = {}
    for mode in MODES:
        code = get_code(mode)
        frontends[mode] = (
            code,
            make_encoder(code),
            ChannelFrontend(
                BPSKModulator(),
                AWGNChannel.from_ebn0(3.5, code.rate, rng=rng),
            ),
        )
    workload = {}
    for client_index in range(CLIENTS):
        requests = []
        for _ in range(REQUESTS_PER_CLIENT):
            mode = str(rng.choice(MODES, p=MODE_WEIGHTS))
            code, encoder, frontend = frontends[mode]
            frames = 1 if mode.startswith("DMB-T") else int(rng.integers(1, 4))
            _, codewords = encoder.random_codewords(frames, rng)
            requests.append((mode, int(rng.integers(0, len(CONFIGS))),
                             frontend.run(codewords)))
        workload[f"client{client_index}"] = requests
    return workload


@pytest.fixture(scope="module")
def workload():
    return _build_workload()


@pytest.fixture(scope="module")
def direct_decoders():
    """Reference decoders, one per (mode, config) — shared, thread-safe."""
    return {
        (mode, ci): LayeredDecoder(get_code(mode), CONFIGS[ci])
        for mode in MODES
        for ci in range(len(CONFIGS))
    }


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_stress_mixed_standard_service(workload, direct_decoders, executor):
    completion_order = defaultdict(list)
    order_lock = threading.Lock()
    futures = {}  # client -> [future]
    submit_errors = []

    service = DecodeService(
        max_batch=6,        # small: size flushes fire constantly
        max_wait=0.002,     # tiny: deadline flushes race the submitters
        workers=4,
        executor=executor,
        # < working set (6 keys): evictions.  Only thread workers decode
        # from this cache; process workers keep caches of their own.
        cache=PlanCache(maxsize=4),
    )
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # preempt often: shake out lost updates
    try:
        barrier = threading.Barrier(CLIENTS)

        def record_completion(client: str, seq: int):
            with order_lock:
                completion_order[client].append(seq)

        def submitter(client: str):
            try:
                barrier.wait(timeout=30)
                client_futures = []
                for seq, (mode, ci, llr) in enumerate(workload[client]):
                    future = service.submit(
                        mode, llr, CONFIGS[ci], client=client
                    )
                    future.add_done_callback(
                        lambda _, c=client, s=seq: record_completion(c, s)
                    )
                    client_futures.append(future)
                futures[client] = client_futures
            except Exception as exc:  # pragma: no cover - failure path
                submit_errors.append((client, exc))

        threads = [
            threading.Thread(target=submitter, args=(client,), name=client)
            for client in workload
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=RESULT_TIMEOUT_S)
            # A silent join timeout would surface later as a confusing
            # KeyError on futures[client]; name the hang instead.
            assert not t.is_alive(), f"submitter {t.name} hung"
        assert not submit_errors, submit_errors

        # 1. No request dropped: every future resolves with a result.
        results = {
            client: [f.result(timeout=RESULT_TIMEOUT_S) for f in fs]
            for client, fs in futures.items()
        }
        snapshot = service.metrics_snapshot()
    finally:
        service.close()
        sys.setswitchinterval(switch_interval)

    assert service.metrics_snapshot()["batches_in_flight"] == 0
    total = CLIENTS * REQUESTS_PER_CLIENT
    assert sum(len(r) for r in results.values()) == total
    assert snapshot["requests_failed"] == 0
    assert snapshot["requests_completed"] == total
    assert snapshot["queue_depth_frames"] == 0

    # 2. Bit-identity with direct decode, request for request.
    for client, requests in workload.items():
        for seq, (mode, ci, llr) in enumerate(requests):
            served = results[client][seq]
            direct = direct_decoders[(mode, ci)].decode(llr)
            context = f"{client}/req{seq}/{mode}/config{ci}"
            assert np.array_equal(served.bits, direct.bits), context
            assert np.array_equal(served.llr, direct.llr), context
            assert np.array_equal(served.iterations, direct.iterations), context
            assert np.array_equal(served.et_stopped, direct.et_stopped), context
            assert np.array_equal(served.converged, direct.converged), context

    # 3. Per-client FIFO delivery order.
    for client in workload:
        order = completion_order[client]
        assert order == sorted(order), (
            f"{client} delivery order {order} violates FIFO"
        )
        assert len(order) == REQUESTS_PER_CLIENT

    # Under this pressure the batcher must have actually batched and
    # the cache must have actually evicted (the stress is real).
    assert snapshot["batches_dispatched"] <= total
    if executor == "thread":
        assert snapshot["plan_cache"]["evictions"] > 0
    else:
        assert snapshot["batches_offloaded"] == snapshot["batches_dispatched"]
    assert snapshot["flushes_deadline"] + snapshot["flushes_size"] > 0


def test_stress_workload_is_deterministic():
    """Same seed, same workload — the reproducibility the CI pin relies on."""
    a = _build_workload()
    b = _build_workload()
    assert list(a) == list(b)
    for client in a:
        for (mode_a, ci_a, llr_a), (mode_b, ci_b, llr_b) in zip(
            a[client], b[client]
        ):
            assert mode_a == mode_b
            assert ci_a == ci_b
            assert np.array_equal(llr_a, llr_b)
