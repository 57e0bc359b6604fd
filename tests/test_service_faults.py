"""Chaos suite: seeded fault plans against the hardened decode service.

The robustness contract under test (PR 6):

1. **Every future resolves** — with a result or a typed
   :class:`~repro.errors.ServiceError` — under every overload policy,
   with workers crashing, workers hanging, backend errors firing
   mid-batch, cache entries dropping mid-flight, and payloads being
   corrupted, all at scripted, seeded event indices.
2. **Per-client FIFO delivery survives retries** — a request replayed
   after a crash still resolves in submission order for its client.
3. **Metrics reconcile** — service counters against the runner's
   observed outcomes, and supervision/injection counters against
   exactly what the :class:`FaultPlan` says it injected.
4. **Bit-identity survives chaos** — every successful result equals a
   direct :class:`LayeredDecoder` decode of the payload the service
   actually saw (the corrupted payload is deterministically
   recomputable, so even garbage is *verifiable* garbage).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.codes import get_code
from repro.decoder import DecoderConfig, LayeredDecoder
from repro.errors import (
    DeadlineExceeded,
    ServiceClosedError,
    ServiceError,
    ServiceOverloaded,
)
from repro.runtime import FaultPlan
from repro.service import DecodeService, PlanCache, RetryPolicy

WIMAX = "802.16e:1/2:z24"
WIFI = "802.11n:1/2:z27"
CONFIG = DecoderConfig(backend="fast")
POLICIES = ("reject", "block", "shed-oldest")


def _llr(mode: str, frames: int, seed: int) -> np.ndarray:
    code = get_code(mode)
    rng = np.random.default_rng(seed)
    return 4.0 * rng.standard_normal((frames, code.n))


def _direct(mode: str, llr: np.ndarray):
    return LayeredDecoder(get_code(mode), CONFIG).decode(llr)


def _chaos_plan(seed: int) -> FaultPlan:
    """The pinned chaos script: every fault site, early indices so the
    injections land while work is still flowing."""
    return FaultPlan(
        seed=seed,
        worker_crash=[1, 6],
        worker_hang=[3],
        backend_error=[2, 8],
        corrupt_llr=[4, 9],
        cache_drop=[1, 3],
        hang_duration=0.6,
    )


def _chaos_service(
    policy: str, plan: FaultPlan, executor: str = "thread"
) -> DecodeService:
    return DecodeService(
        max_batch=4,
        max_wait=0.002,
        workers=2,
        cache=PlanCache(maxsize=8, default_config=CONFIG),
        default_config=CONFIG,
        queue_limit=64,
        overload_policy=policy,
        retry=RetryPolicy(attempts=4, backoff=0.002),
        hang_timeout=0.15,
        executor=executor,
        faults=plan,
    )


# ---------------------------------------------------------------------------
# The matrix: {chaos plan} x {reject, block, shed-oldest} x executor
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("executor", ("thread", "process"))
def test_chaos_matrix_every_future_resolves(policy, executor):
    plan = _chaos_plan(seed=20260807)
    svc = _chaos_service(policy, plan, executor=executor)
    # Single submitter thread => the plan's submit counter maps 1:1 to
    # submission order, so corrupted payloads are recomputable below.
    records = []  # (submit_index, mode, llr, client, future)
    rejected = 0
    try:
        for i in range(24):
            mode = WIMAX if i % 3 else WIFI
            llr = _llr(mode, 1 + i % 2, seed=1000 + i)
            client = f"client-{i % 4}"
            try:
                future = svc.submit(mode, llr, client=client)
            except ServiceOverloaded:
                assert policy == "reject"  # only reject raises at submit
                rejected += 1
                continue
            records.append((i, mode, llr, client, future))
    finally:
        svc.close()

    results = errors = shed = timed_out = 0
    for index, mode, llr, client, future in records:
        assert future.done(), "close() returned with an unresolved future"
        try:
            result = future.result(timeout=0)
        except ServiceOverloaded:
            shed += 1
            continue
        except DeadlineExceeded:
            timed_out += 1
            continue
        except ServiceError:
            errors += 1
            continue
        results += 1
        # Bit-identity through chaos: decode what the service saw.
        expected_llr = (
            plan.corrupted(llr, index) if index in plan.corrupt_llr else llr
        )
        expected = _direct(mode, expected_llr)
        assert np.array_equal(result.bits, expected.bits), (policy, index)
        assert np.array_equal(result.iterations, expected.iterations)

    snap = svc.metrics_snapshot()
    # Runner-observed outcomes reconcile exactly with the counters.
    assert snap["requests_submitted"] == len(records)
    assert snap["requests_completed"] == results
    assert snap["requests_failed"] == errors
    assert snap["requests_shed"] == shed
    assert snap["requests_timed_out"] == timed_out
    assert snap["requests_rejected"] == rejected
    assert snap["requests_cancelled"] == 0
    assert results + errors + shed + timed_out == len(records)
    # Every pool submission gave its worker slot back: a leaked slot
    # would have retired a worker for good.
    assert snap["batches_in_flight"] == 0
    if policy != "shed-oldest":
        assert shed == 0
    # Supervision counters reconcile with what the plan injected.
    injected = plan.injected()
    assert snap["worker_pool"]["crashes_detected"] == injected["worker_crash"]
    if executor == "thread":
        assert snap["worker_pool"]["hangs_detected"] == injected["worker_hang"]
    else:
        # A respawned process's cold plan compile can also trip the
        # tight hang clock, so injections bound detections from below.
        assert snap["worker_pool"]["hangs_detected"] >= injected["worker_hang"]
    assert snap["worker_pool"]["respawns"] == (
        snap["worker_pool"]["crashes_detected"]
        + snap["worker_pool"]["hangs_detected"]
    )
    # Concurrent workers can script a drop onto a just-emptied cache
    # (no eviction), so injections bound evictions from above.
    assert snap["plan_cache"]["evictions"] <= injected["cache_drop"]
    assert injected["corrupt_llr"] == sum(
        1 for index, *_ in records if index in plan.corrupt_llr
    )
    # Every injected transient (backend error / lost worker) either got
    # a retry or surfaced as a failed request.
    transients = (
        injected["backend_error"]
        + injected["worker_crash"]
        + injected["worker_hang"]
    )
    assert snap["requests_retried"] + errors >= transients - rejected


@pytest.mark.parametrize("policy", POLICIES)
def test_malformed_submissions_rejected_under_every_policy(policy):
    plan = _chaos_plan(seed=77)
    svc = _chaos_service(policy, plan)
    try:
        good = svc.submit(WIMAX, _llr(WIMAX, 1, seed=5))
        n = get_code(WIMAX).n
        with pytest.raises(ValueError, match="expects"):
            svc.submit(WIMAX, np.zeros((1, n - 1)))  # wrong width
        with pytest.raises(ValueError, match="expects"):
            svc.submit(WIMAX, np.zeros((1, 1, n)))  # wrong rank
        with pytest.raises(ValueError, match="dtype"):
            svc.submit(WIMAX, np.zeros((1, n), dtype=complex))
        with pytest.raises(ValueError, match="dtype"):
            svc.submit(WIMAX, np.zeros((1, n), dtype=bool))
        good.result(timeout=60)  # the well-formed neighbour is unharmed
    finally:
        svc.close()


def test_fifo_per_client_survives_retries():
    # Crashes and backend errors force retries of early requests; later
    # requests of the same client decode fine on the healthy worker —
    # and must still be DELIVERED after their struggling predecessors.
    plan = FaultPlan(
        seed=3, worker_crash=[0], backend_error=[1], hang_duration=0.0
    )
    delivered = []
    lock = threading.Lock()

    def recorder(tag):
        def _cb(_future):
            with lock:
                delivered.append(tag)
        return _cb

    svc = DecodeService(
        max_batch=2, max_wait=0.001, workers=2,
        default_config=CONFIG, faults=plan,
        retry=RetryPolicy(attempts=4, backoff=0.002),
    )
    try:
        futures = []
        for i in range(8):
            future = svc.submit(
                WIMAX, _llr(WIMAX, 1, seed=200 + i), client="one"
            )
            future.add_done_callback(recorder(i))
            futures.append(future)
        for future in futures:
            future.result(timeout=60)
    finally:
        svc.close()
    assert delivered == sorted(delivered), (
        f"per-client FIFO broken: delivery order {delivered}"
    )
    assert svc.metrics_snapshot()["requests_retried"] >= 1


def test_corrupted_payload_is_deterministic_garbage():
    # Corruption changes the answer but keeps it exactly recomputable:
    # served(corrupt(llr)) == direct(corrupt(llr)), != direct(llr).
    plan = FaultPlan(seed=11, corrupt_llr=[0])
    llr = _llr(WIMAX, 2, seed=42)
    with DecodeService(
        max_batch=4, max_wait=0.001, workers=1,
        default_config=CONFIG, faults=plan,
    ) as svc:
        served = svc.submit(WIMAX, llr).result(timeout=60)
    expected = _direct(WIMAX, plan.corrupted(llr, 0))
    clean = _direct(WIMAX, llr)
    assert np.array_equal(served.bits, expected.bits)
    assert np.array_equal(served.llr, expected.llr)
    assert not np.array_equal(served.llr, clean.llr)


def test_cache_drop_mid_flight_is_correctness_neutral():
    # workers=1 makes batch attempts sequential, so every scripted drop
    # lands on a freshly rebuilt entry: evictions == injected, exactly.
    plan = FaultPlan(seed=13, cache_drop=range(1, 6))
    cache = PlanCache(maxsize=4, default_config=CONFIG)
    llr = _llr(WIMAX, 2, seed=43)
    expected = _direct(WIMAX, llr)
    with DecodeService(  # threads decode from the service's cache
        max_batch=2, max_wait=0.001, workers=1, executor="thread",
        cache=cache, default_config=CONFIG, faults=plan,
    ) as svc:
        futures = [svc.submit(WIMAX, llr) for _ in range(6)]
        for future in futures:
            result = future.result(timeout=60)
            assert np.array_equal(result.bits, expected.bits)
            assert np.array_equal(result.llr, expected.llr)
    assert plan.injected()["cache_drop"] >= 1
    assert cache.evictions == plan.injected()["cache_drop"]


def test_retry_exhaustion_surfaces_the_transient_error():
    # Backend errors on every attempt: the retry budget runs out and
    # the ORIGINAL transient error reaches the client, typed.
    from repro.errors import InjectedFault

    plan = FaultPlan(seed=17, backend_error=range(0, 50))
    svc = DecodeService(
        max_batch=4, max_wait=0.001, workers=1,
        default_config=CONFIG, faults=plan,
        retry=RetryPolicy(attempts=2, backoff=0.001),
    )
    try:
        future = svc.submit(WIMAX, _llr(WIMAX, 1, seed=44))
        with pytest.raises(InjectedFault):
            future.result(timeout=60)
    finally:
        svc.close()
    snap = svc.metrics_snapshot()
    assert snap["requests_failed"] == 1
    assert snap["requests_retried"] == 2  # the full budget was spent


def test_retry_backoff_does_not_trip_the_hang_clock():
    # The backoff runs on a timer thread, never a pool worker: with a
    # hang_timeout *below* the backoff delay, a retry must still decode
    # cleanly.  (A worker sleeping through the backoff would be
    # declared hung, turning every backed-off retry into a spurious
    # WorkerCrashedError, an abandoned thread, and another retry.)
    plan = FaultPlan(seed=29, backend_error=[0])
    llr = _llr(WIMAX, 1, seed=45)
    expected = _direct(WIMAX, llr)
    svc = DecodeService(
        max_batch=4, max_wait=0.001, workers=1,
        default_config=CONFIG, faults=plan,
        retry=RetryPolicy(attempts=2, backoff=0.3, max_backoff=0.3),
        hang_timeout=0.15,
    )
    try:
        result = svc.submit(WIMAX, llr).result(timeout=60)
    finally:
        svc.close()
    assert np.array_equal(result.bits, expected.bits)
    snap = svc.metrics_snapshot()
    assert snap["requests_retried"] == 1  # one injected fault, one retry
    assert snap["requests_failed"] == 0
    assert snap["worker_pool"]["hangs_detected"] == 0


def test_failed_merged_batch_splits_so_batchmates_survive():
    # One batch decode fails (injected); with retries on, the batch is
    # split per-request — every member must still resolve with a
    # correct result (the fault was transient, retries absorb it).
    plan = FaultPlan(seed=19, backend_error=[0])
    payloads = [_llr(WIMAX, 1, seed=300 + i) for i in range(5)]
    expected = [_direct(WIMAX, llr) for llr in payloads]
    svc = DecodeService(
        max_batch=8, max_wait=0.05, workers=1,
        default_config=CONFIG, faults=plan,
        retry=RetryPolicy(attempts=3, backoff=0.1, max_backoff=0.1),
    )
    try:
        futures = [
            svc.submit(WIMAX, llr, client=f"c{i}")
            for i, llr in enumerate(payloads[:3])
        ]
        # The merged batch fails at ~50 ms and its retries fire at
        # ~150 ms; two arrivals of the same group land in between and
        # still wait in their bucket when the retries fire.
        time.sleep(0.13)
        futures += [
            svc.submit(WIMAX, llr, client=f"c{i}")
            for i, llr in enumerate(payloads[3:], start=3)
        ]
        for future, exp in zip(futures, expected):
            result = future.result(timeout=60)
            assert np.array_equal(result.bits, exp.bits)
    finally:
        svc.close()
    snap = svc.metrics_snapshot()
    # All three batch-mates were replayed individually.
    assert snap["requests_retried"] == 3
    assert snap["requests_failed"] == 0
    # ... and never merged back into bucket traffic: every decode
    # attempt is a dispatcher batch or a one-request retry, and every
    # frame left a bucket exactly once.
    assert plan.events()["batch"] == snap["batches_dispatched"] + 3
    assert round(snap["mean_batch_frames"] * snap["batches_dispatched"]) == 5


@pytest.mark.parametrize("executor", ("thread", "process"))
@pytest.mark.parametrize("scenario", ("retry-races-close", "resolved-before-retry"))
def test_worker_slot_released_on_paths_that_never_decode(scenario, executor):
    # Each pool submission holds one of the `workers` dispatch slots; a
    # path that drops a batch without decoding it must still give the
    # slot back, or the service loses a worker for good.
    llr = _llr(WIMAX, 1, seed=46)
    if scenario == "retry-races-close":
        # The drain's batch stalls its worker until supervision fails
        # it, after close() began the pool's shutdown: the retry's
        # pool.submit raises.
        plan = FaultPlan(seed=31, worker_hang=[0], hang_duration=1.0)
        svc = DecodeService(
            max_batch=4, max_wait=30.0, workers=1, default_config=CONFIG,
            faults=plan, retry=RetryPolicy(attempts=2, backoff=0.001),
            hang_timeout=0.1, executor=executor,
        )
        future = svc.submit(WIMAX, llr)
        svc.close()
        with pytest.raises(ServiceClosedError, match="awaited retry"):
            future.result(timeout=0)
        assert plan.injected()["worker_hang"] == 1
    else:
        # The first attempt fails in the service, before anything
        # reaches the pool; the request times out during the backoff,
        # so the retry that close() fires early finds no live request
        # and never decodes.
        plan = FaultPlan(seed=37, backend_error=[0])
        svc = DecodeService(
            max_batch=4, max_wait=0.001, workers=1, default_config=CONFIG,
            faults=plan,
            retry=RetryPolicy(attempts=2, backoff=5.0, max_backoff=5.0),
            executor=executor,
        )
        future = svc.submit(WIMAX, llr, timeout=0.2)
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=30)
        svc.close()
        assert plan.events()["batch"] == 1  # the retry never decoded
        assert plan.injected()["backend_error"] == 1
    snap = svc.metrics_snapshot()
    assert snap["requests_retried"] == 1
    assert snap["batches_in_flight"] == 0


def test_close_during_chaos_leaves_nothing_unresolved():
    # Close mid-storm: crashes, hangs and retries in flight.  Every
    # admitted future must be resolved when close() returns.
    plan = FaultPlan(
        seed=23,
        worker_crash=[0, 3],
        worker_hang=[2],
        backend_error=[1],
        hang_duration=1.0,
    )
    svc = DecodeService(
        max_batch=2, max_wait=0.001, workers=2,
        default_config=CONFIG, faults=plan,
        retry=RetryPolicy(attempts=2, backoff=0.002),
        hang_timeout=0.1,
    )
    futures = [
        svc.submit(WIMAX, _llr(WIMAX, 1, seed=400 + i), client=f"c{i % 2}")
        for i in range(10)
    ]
    svc.close()
    for future in futures:
        assert future.done()
        try:
            future.result(timeout=0)
        except ServiceError:
            pass  # typed failure is a legal outcome; hanging is not
