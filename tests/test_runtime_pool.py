"""The :class:`~repro.runtime.WorkerPool` contract, for both worker kinds.

One supervised pool runs thread and process workers, so every contract
test runs on both: every accepted future resolves — with the task's
result, its error, or :class:`~repro.errors.WorkerCrashedError` for a
lost worker — crashed and hung workers are replaced, a
:class:`~repro.runtime.FaultPlan` places its crashes and hangs by task
assignment order, and shutdown drains.  Properties only processes have
(shared-memory segments, on-demand forks, the shared pool, workers
dying with their parent) are in ``tests/test_runtime_procpool.py``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import WorkerCrashedError
from repro.runtime import FaultPlan, WorkerPool
from repro.service import PlanCache

TIMEOUT = 60


@pytest.fixture(params=["thread", "process"])
def kind(request) -> str:
    return request.param


class TestPoolContract:
    def test_round_trip(self, kind, rng):
        x = rng.standard_normal((4, 8))
        with WorkerPool(2, kind) as pool:
            assert pool.submit("ping").result(timeout=TIMEOUT) == "pong"
            meta = {"k": [1, 2, 3]}
            assert pool.submit("echo", meta).result(timeout=TIMEOUT) == meta
            payload, outputs = pool.submit(
                "scale", {"factor": 3.0},
                arrays={"x": x}, out_spec={"x": (x.shape, x.dtype)},
            ).result(timeout=TIMEOUT)
        assert payload is None
        assert np.allclose(outputs["x"], x * 3.0)

    def test_task_error_reaches_the_future_and_the_worker_serves_on(self, kind):
        with WorkerPool(1, kind) as pool:
            future = pool.submit("raise", {"message": "scripted failure"})
            with pytest.raises(ValueError, match="scripted failure"):
                future.result(timeout=TIMEOUT)
            # The ordinary error path is not a crash: the worker serves on.
            assert pool.submit("ping").result(timeout=TIMEOUT) == "pong"
            stats = pool.stats()
        assert stats["crashes_detected"] == 0
        assert stats["tasks_completed"] == 2

    def test_submit_after_shutdown_raises(self, kind):
        pool = WorkerPool(1, kind)
        pool.shutdown()
        assert pool.closed
        with pytest.raises(RuntimeError, match="shut-down"):
            pool.submit("ping")
        with pytest.raises(RuntimeError, match="shut-down"):
            pool.submit("scale", {}, arrays={"x": np.ones(4)})
        pool.shutdown()  # idempotent

    def test_shutdown_drains_queued_tasks(self, kind):
        pool = WorkerPool(1, kind)
        first = pool.submit("sleep", {"seconds": 0.2})
        queued = [pool.submit("echo", v) for v in range(5)]
        pool.shutdown()
        assert first.result(timeout=0) == "slept"
        assert [f.result(timeout=0) for f in queued] == list(range(5))

    def test_cancelled_while_queued_is_skipped(self, kind):
        pool = WorkerPool(1, kind)
        busy = pool.submit("sleep", {"seconds": 0.2})
        doomed = pool.submit("echo", "never")
        assert doomed.cancel()
        pool.shutdown()
        assert busy.result(timeout=0) == "slept"
        assert doomed.cancelled()
        assert pool.stats()["tasks_completed"] == 1

    def test_nondraining_shutdown_resolves_every_future(self, kind):
        pool = WorkerPool(1, kind)
        futures = [pool.submit("sleep", {"seconds": 0.4}) for _ in range(4)]
        pool.shutdown(wait=False)
        outcomes = []
        for future in futures:
            if future.cancelled():
                outcomes.append("cancelled")
                continue
            try:
                future.result(timeout=0)
                outcomes.append("ok")
            except WorkerCrashedError:
                outcomes.append("crashed")
        # Queued tasks were cancelled, the in-flight one failed (or
        # squeaked through): every future resolved one way or another.
        assert len(outcomes) == 4
        assert "cancelled" in outcomes
        assert pool.segment_names() == []

    def test_scripted_crash_fails_the_task_and_respawns(self, kind):
        plan = FaultPlan(worker_crash=[0])
        with WorkerPool(1, kind, faults=plan, supervise_interval=0.01) as pool:
            with pytest.raises(WorkerCrashedError, match="died"):
                pool.submit("ping").result(timeout=TIMEOUT)
            # The replacement worker serves the next task.
            assert pool.submit("ping").result(timeout=TIMEOUT) == "pong"
            stats = pool.stats()
        assert (stats["crashes_detected"], stats["respawns"]) == (1, 1)
        assert stats["processes_spawned"] == (2 if kind == "process" else 0)
        assert plan.injected()["worker_crash"] == 1

    def test_scripted_hang_past_hang_timeout_replaces_the_worker(self, kind):
        plan = FaultPlan(worker_hang=[0], hang_duration=2.0)
        with WorkerPool(
            1, kind, hang_timeout=0.1, faults=plan, supervise_interval=0.01
        ) as pool:
            t0 = time.monotonic()
            with pytest.raises(WorkerCrashedError, match="hang_timeout"):
                pool.submit("ping").result(timeout=TIMEOUT)
            # Failed by supervision (~hang_timeout), not by waiting out
            # the stall.
            assert time.monotonic() - t0 < 1.5
            assert pool.submit("ping").result(timeout=TIMEOUT) == "pong"
            stats = pool.stats()
        assert (stats["hangs_detected"], stats["respawns"]) == (1, 1)
        assert plan.injected()["worker_hang"] == 1

    def test_a_task_running_past_hang_timeout_is_failed(self, kind):
        with WorkerPool(1, kind, hang_timeout=0.2) as pool:
            future = pool.submit("sleep", {"seconds": 3.0})
            with pytest.raises(WorkerCrashedError, match="hang_timeout"):
                future.result(timeout=TIMEOUT)
            assert pool.submit("ping").result(timeout=TIMEOUT) == "pong"
            stats = pool.stats()
        assert (stats["hangs_detected"], stats["respawns"]) == (1, 1)

    def test_late_result_of_a_replaced_worker_is_discarded(self, kind):
        # A stalled thread wakes and reports; its late outcome must not
        # overwrite the supervisor's verdict.  (A stalled process was
        # terminated and never reports.)
        plan = FaultPlan(worker_hang=[0], hang_duration=0.3)
        with WorkerPool(
            1, kind, hang_timeout=0.05, faults=plan, supervise_interval=0.01
        ) as pool:
            stuck = pool.submit("echo", "late")
            with pytest.raises(WorkerCrashedError):
                stuck.result(timeout=TIMEOUT)
            time.sleep(0.5)  # let the stalled worker wake and try
            with pytest.raises(WorkerCrashedError):
                stuck.result(timeout=0)  # verdict unchanged
            assert pool.stats()["tasks_completed"] == 0

    def test_no_hang_detection_without_timeout(self, kind):
        plan = FaultPlan(worker_hang=[0], hang_duration=0.15)
        with WorkerPool(1, kind, faults=plan, supervise_interval=0.01) as pool:
            slow = pool.submit("echo", "worth-waiting")
            assert slow.result(timeout=TIMEOUT) == "worth-waiting"
            assert pool.stats()["hangs_detected"] == 0

    def test_crash_storm_drains_the_queue(self, kind):
        # Crashes in a row: replacements keep eating the queue, and the
        # plan's indices count tasks in assignment (= submission) order.
        plan = FaultPlan(worker_crash=[0, 2, 4])
        with WorkerPool(2, kind, faults=plan, supervise_interval=0.01) as pool:
            futures = [pool.submit("echo", v) for v in range(10)]
            crashed = []
            for v, future in enumerate(futures):
                try:
                    assert future.result(timeout=TIMEOUT) == v
                except WorkerCrashedError:
                    crashed.append(v)
        assert crashed == [0, 2, 4]
        assert pool.stats()["crashes_detected"] == 3

    def test_shutdown_completes_despite_a_hung_worker(self, kind):
        plan = FaultPlan(worker_hang=[0], hang_duration=5.0)
        pool = WorkerPool(
            1, kind, hang_timeout=0.05, faults=plan, supervise_interval=0.01
        )
        stuck = pool.submit("ping")
        t0 = time.monotonic()
        pool.shutdown()
        # Shutdown must not wait out the 5 s stall: supervision steps in.
        assert time.monotonic() - t0 < 3.0
        with pytest.raises(WorkerCrashedError):
            stuck.result(timeout=0)

    def test_concurrent_shutdowns_return_after_the_last_callback(self, kind):
        # Regression: a shutdown() that lost the race to a concurrent
        # one returned as soon as the last task left the in-flight
        # table — before its future resolved and its done-callbacks (a
        # service delivering the result) ran.  A slow callback holds
        # that window open.
        pool = WorkerPool(1, kind)
        delivered = threading.Event()

        def slow_delivery(_future):
            time.sleep(0.2)
            delivered.set()

        pool.submit("sleep", {"seconds": 0.05}).add_done_callback(slow_delivery)
        seen = []
        closers = [
            threading.Thread(
                target=lambda: (pool.shutdown(), seen.append(delivered.is_set()))
            )
            for _ in range(2)
        ]
        for closer in closers:
            closer.start()
        for closer in closers:
            closer.join(timeout=TIMEOUT)
        assert seen == [True, True]

    def test_stats_keys(self, kind):
        with WorkerPool(3, kind) as pool:
            stats = pool.stats()
        assert stats["workers"] == 3
        assert set(stats) == {
            "workers", "busy", "queued",
            "crashes_detected", "hangs_detected", "respawns",
            "processes_spawned", "tasks_completed", "worker_peak_rss_mb",
            "segments_created", "segments_unlinked",
            "segments_active", "segments_free",
        }


def test_constructor_validation():
    with pytest.raises(ValueError, match="workers"):
        WorkerPool(0, "thread")
    with pytest.raises(ValueError, match="hang_timeout"):
        WorkerPool(1, "process", hang_timeout=0.0)
    with pytest.raises(ValueError, match="kind"):
        WorkerPool(1, "greenlet")


def test_thread_workers_decode_from_the_pools_plan_cache(small_code, rng):
    cache = PlanCache(maxsize=4)
    meta = {"mode": "802.16e:1/2:z24", "config": cache.default_config}
    llr = 4.0 * rng.standard_normal((2, small_code.n))
    with WorkerPool(2, "thread", cache=cache) as pool:
        for _ in range(3):
            pool.submit("decode", meta, arrays={"llr": llr}).result(
                timeout=TIMEOUT
            )
    assert (cache.misses, cache.hits) == (1, 2)
