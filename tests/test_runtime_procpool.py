"""ProcessWorkerPool: shm transport, supervision, segment lifecycle.

The process-sharded executor (ROADMAP item 2a) carries the same
contract as the thread :class:`~repro.runtime.WorkerPool` — every
submitted future resolves, crashed and hung workers become
:class:`~repro.errors.WorkerCrashedError` plus a respawn — with two
properties only a process pool has to prove:

1. **Shared-memory segments never leak.**  Every segment the parent
   creates is unlinked by shutdown; a segment whose worker crashed
   mid-task is destroyed immediately and its name never reused; a
   subprocess run under ``-W error`` exits without resource-tracker
   leak complaints.
2. **The pool is persistent.**  ``shared_process_pool`` hands every
   caller the same live pool, and repeated sweeps through it spawn no
   new processes — the regression that made the seed-era parallel
   sweep slower than serial.

Workers fork on demand (none at construction, one more only while every
live worker is busy) and die with their parent.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.errors import WorkerCrashedError
from repro.runtime import FaultPlan, ProcessWorkerPool, parallel, shared_process_pool
from repro.runtime.parallel import cgroup_cpu_quota, usable_cores
from repro.runtime.procworker import (
    ALIGNMENT,
    WorkerState,
    decode_out_spec,
    plan_layout,
    read_arrays,
    run_task,
    write_arrays,
)

TIMEOUT = 60


# ---------------------------------------------------------------------------
# Wire format + task path, fully in-process (no child needed)
# ---------------------------------------------------------------------------
class TestShmLayout:
    def test_plan_layout_aligns_every_array(self):
        arrays = {
            "a": np.arange(7, dtype=np.float64),
            "b": np.arange(3, dtype=np.uint8),
        }
        out = {"c": ((5, 2), np.int64)}
        total, input_specs, output_specs = plan_layout(arrays, out)
        for _name, offset, _shape, _dtype in input_specs + output_specs:
            assert offset % ALIGNMENT == 0
        assert total >= ALIGNMENT
        name, offset, shape, dtype = output_specs[0]
        assert (name, shape, np.dtype(dtype)) == ("c", (5, 2), np.int64)

    def test_write_read_roundtrip_is_exact(self, rng):
        arrays = {
            "x": rng.standard_normal((4, 9)),
            "flags": rng.integers(0, 2, size=11).astype(np.bool_),
        }
        total, specs, _ = plan_layout(arrays, {})
        shm = shared_memory.SharedMemory(create=True, size=total)
        try:
            write_arrays(shm.buf, specs, arrays)
            back = read_arrays(shm.buf, specs)
            for name, array in arrays.items():
                assert back[name].dtype == array.dtype
                assert np.array_equal(back[name], array)
                # Private copies, not views into the segment.
                assert back[name].base is None
        finally:
            shm.close()
            shm.unlink()

    def test_decode_out_spec_matches_decode_result_fields(self):
        spec = decode_out_spec(3, 48)
        assert spec["bits"] == ((3, 48), np.uint8)
        assert spec["llr"] == ((3, 48), np.float64)
        assert spec["iterations"] == ((3,), np.int64)
        assert spec["converged"] == ((3,), np.bool_)
        assert spec["et_stopped"] == ((3,), np.bool_)

    def test_run_task_without_segment(self):
        state = WorkerState(cache_size=2)
        assert run_task(state, "ping", None, None) == "pong"
        meta = {"round": 7}
        assert run_task(state, "echo", meta, None) == meta

    def test_run_task_scale_through_a_real_segment(self, rng):
        state = WorkerState(cache_size=2)
        x = rng.standard_normal((6, 5))
        total, ispecs, ospecs = plan_layout({"x": x}, {"x": (x.shape, x.dtype)})
        shm = shared_memory.SharedMemory(create=True, size=total)
        try:
            write_arrays(shm.buf, ispecs, {"x": x})
            payload = run_task(
                state, "scale", {"factor": 3.0}, (shm.name, ispecs, ospecs)
            )
            assert payload is None
            out = read_arrays(shm.buf, ospecs)
            assert np.allclose(out["x"], x * 3.0)
        finally:
            shm.close()
            shm.unlink()

    def test_run_task_error_propagates(self):
        state = WorkerState(cache_size=2)
        with pytest.raises(ValueError, match="boom"):
            run_task(state, "raise", {"message": "boom"}, None)

    def test_run_task_rejects_arrays_without_segment(self, monkeypatch):
        from repro.runtime import procworker

        monkeypatch.setitem(
            procworker.TASKS, "badtask", lambda s, m, i: (None, {"y": np.ones(3)})
        )
        with pytest.raises(RuntimeError, match="without a segment"):
            run_task(WorkerState(cache_size=2), "badtask", None, None)


# ---------------------------------------------------------------------------
# Pool round trips
# ---------------------------------------------------------------------------
class TestProcessPoolBasics:
    def test_ping_and_echo_roundtrip(self):
        with ProcessWorkerPool(1) as pool:
            assert pool.submit("ping").result(timeout=TIMEOUT) == "pong"
            meta = {"k": [1, 2, 3]}
            assert pool.submit("echo", meta).result(timeout=TIMEOUT) == meta

    def test_task_error_reaches_the_future(self):
        with ProcessWorkerPool(1) as pool:
            future = pool.submit("raise", {"message": "scripted failure"})
            with pytest.raises(ValueError, match="scripted failure"):
                future.result(timeout=TIMEOUT)
            # The worker survived the task error.
            assert pool.submit("ping").result(timeout=TIMEOUT) == "pong"
            assert pool.stats()["crashes_detected"] == 0

    def test_arrays_travel_through_shared_memory(self, rng):
        x = rng.standard_normal((8, 16))
        with ProcessWorkerPool(2) as pool:
            futures = [
                pool.submit(
                    "scale",
                    {"factor": float(k)},
                    arrays={"x": x},
                    out_spec={"x": (x.shape, x.dtype)},
                )
                for k in range(1, 6)
            ]
            for k, future in enumerate(futures, start=1):
                payload, outputs = future.result(timeout=TIMEOUT)
                assert payload is None
                assert np.allclose(outputs["x"], x * k)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessWorkerPool(0)
        with pytest.raises(ValueError, match="hang_timeout"):
            ProcessWorkerPool(1, hang_timeout=0.0)

    def test_submit_after_shutdown_raises(self):
        pool = ProcessWorkerPool(1)
        pool.shutdown()
        assert pool.closed
        with pytest.raises(RuntimeError, match="shut-down"):
            pool.submit("ping")
        with pytest.raises(RuntimeError, match="shut-down"):
            pool.submit("scale", {}, arrays={"x": np.ones(4)})
        pool.shutdown()  # idempotent

    def test_dispatch_overhead_is_measured_once(self):
        with ProcessWorkerPool(1) as pool:
            first = pool.dispatch_overhead()
            assert first > 0.0
            assert pool.dispatch_overhead() == first

    def test_stats_account_for_completed_tasks(self):
        with ProcessWorkerPool(1) as pool:
            for _ in range(3):
                pool.submit("ping").result(timeout=TIMEOUT)
            stats = pool.stats()
            assert stats["workers"] == 1
            assert stats["tasks_completed"] == 3
            assert stats["processes_spawned"] == 1
            assert stats["crashes_detected"] == 0


# ---------------------------------------------------------------------------
# Workers fork on demand
# ---------------------------------------------------------------------------
def _running(pid: int) -> bool:
    """False once ``pid`` has exited (reaped or a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except OSError:
        return False


class TestOnDemandFork:
    def test_construction_forks_nothing(self):
        with ProcessWorkerPool(2) as pool:
            assert pool.processes_spawned == 0
            assert pool.pids() == []
            assert pool.stats()["worker_peak_rss_mb"] == 0.0

    def test_sequential_tasks_share_one_worker(self):
        with ProcessWorkerPool(2) as pool:
            for _ in range(4):
                assert pool.submit("ping").result(timeout=TIMEOUT) == "pong"
            assert pool.processes_spawned == 1

    def test_a_second_worker_forks_only_while_the_first_is_busy(self):
        with ProcessWorkerPool(2) as pool:
            busy = pool.submit("sleep", {"seconds": 0.5})
            assert pool.submit("ping").result(timeout=TIMEOUT) == "pong"
            assert pool.processes_spawned == 2
            assert busy.result(timeout=TIMEOUT) == "slept"
            # Never more than ``workers``, however many tasks queue.
            futures = [pool.submit("sleep", {"seconds": 0.05}) for _ in range(5)]
            for future in futures:
                assert future.result(timeout=TIMEOUT) == "slept"
            assert pool.processes_spawned == 2

    @pytest.mark.skipif(
        not Path("/proc/self/stat").is_file(), reason="needs procfs"
    )
    def test_a_task_queued_behind_a_dead_idle_worker_runs(self):
        # No supervisor polls here: the pass below is the only one.
        with ProcessWorkerPool(1, supervise_interval=3600.0) as pool:
            pool.submit("ping").result(timeout=TIMEOUT)
            [pid] = pool.pids()
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + TIMEOUT
            while _running(pid):
                assert time.monotonic() < deadline
                time.sleep(0.005)
            # The dead worker still fills the pool: the task queues.
            future = pool.submit("ping")
            assert pool.processes_spawned == 1
            pool.check_workers()  # reap, respawn, hand over the task
            assert future.result(timeout=TIMEOUT) == "pong"
            stats = pool.stats()
            assert stats["crashes_detected"] == 1
            assert stats["processes_spawned"] == 2

    def test_each_worker_reports_its_own_peak_rss(self):
        with ProcessWorkerPool(2) as pool:
            busy = pool.submit("sleep", {"seconds": 0.3})
            pool.submit("ping").result(timeout=TIMEOUT)
            busy.result(timeout=TIMEOUT)
            stats = pool.stats()
        assert stats["processes_spawned"] == 2
        assert stats["worker_peak_rss_mb"] > 0.0


# ---------------------------------------------------------------------------
# Supervision: crashes and hangs become typed errors plus respawns
# ---------------------------------------------------------------------------
class TestSupervision:
    def test_scripted_crash_fails_future_and_respawns(self):
        plan = FaultPlan(worker_crash=[0])
        with ProcessWorkerPool(1, faults=plan) as pool:
            future = pool.submit("ping")
            with pytest.raises(WorkerCrashedError, match="died"):
                future.result(timeout=TIMEOUT)
            # The replacement worker serves the next task.
            assert pool.submit("ping").result(timeout=TIMEOUT) == "pong"
            stats = pool.stats()
            assert stats["crashes_detected"] == 1
            assert stats["respawns"] == 1
            assert stats["processes_spawned"] == 2
        assert plan.injected()["worker_crash"] == 1

    def test_hung_worker_is_terminated_and_replaced(self):
        with ProcessWorkerPool(1, hang_timeout=0.2) as pool:
            future = pool.submit("sleep", {"seconds": 30.0})
            with pytest.raises(WorkerCrashedError, match="hang_timeout"):
                future.result(timeout=TIMEOUT)
            assert pool.submit("ping").result(timeout=TIMEOUT) == "pong"
            stats = pool.stats()
            assert stats["hangs_detected"] == 1
            assert stats["respawns"] == 1

    def test_scripted_hang_directive_trips_the_supervisor(self):
        plan = FaultPlan(worker_hang=[0], hang_duration=30.0)
        with ProcessWorkerPool(1, hang_timeout=0.2, faults=plan) as pool:
            future = pool.submit("ping")
            with pytest.raises(WorkerCrashedError, match="hang_timeout"):
                future.result(timeout=TIMEOUT)
            assert pool.submit("ping").result(timeout=TIMEOUT) == "pong"
        assert plan.injected()["worker_hang"] == 1

    def test_crash_mid_task_discards_the_segment(self, rng):
        plan = FaultPlan(worker_crash=[0])
        x = rng.standard_normal((4, 8))
        with ProcessWorkerPool(1, faults=plan) as pool:
            future = pool.submit(
                "scale", {"factor": 2.0},
                arrays={"x": x}, out_spec={"x": (x.shape, x.dtype)},
            )
            with pytest.raises(WorkerCrashedError):
                future.result(timeout=TIMEOUT)
            # The half-written segment was destroyed, never recycled.
            stats = pool.stats()
            assert stats["segments_unlinked"] == 1
            assert stats["segments_active"] == 0
            assert pool.segment_names() == []
            # A later task gets a fresh segment and clean data.
            _, outputs = pool.submit(
                "scale", {"factor": 2.0},
                arrays={"x": x}, out_spec={"x": (x.shape, x.dtype)},
            ).result(timeout=TIMEOUT)
            assert np.allclose(outputs["x"], x * 2.0)


# ---------------------------------------------------------------------------
# Segment lifecycle: recycled while open, all unlinked at shutdown
# ---------------------------------------------------------------------------
class TestSegmentLifecycle:
    def test_segments_are_recycled_not_regrown(self, rng):
        x = rng.standard_normal((4, 8))
        with ProcessWorkerPool(1) as pool:
            for _ in range(6):
                pool.submit(
                    "scale", {"factor": 1.5},
                    arrays={"x": x}, out_spec={"x": (x.shape, x.dtype)},
                ).result(timeout=TIMEOUT)
            stats = pool.stats()
            # Sequential same-size tasks reuse one free-listed segment.
            assert stats["segments_created"] == 1
            assert stats["segments_free"] == 1
            assert stats["segments_active"] == 0

    def test_shutdown_unlinks_every_segment(self, rng):
        x = rng.standard_normal((4, 8))
        pool = ProcessWorkerPool(2)
        futures = [
            pool.submit(
                "scale", {"factor": 2.0},
                arrays={"x": x}, out_spec={"x": (x.shape, x.dtype)},
            )
            for _ in range(5)
        ]
        for future in futures:
            future.result(timeout=TIMEOUT)
        created = pool.stats()["segments_created"]
        assert created >= 1
        pool.shutdown()
        stats = pool.stats()
        assert stats["segments_unlinked"] == created
        assert pool.segment_names() == []

    def test_nondraining_shutdown_resolves_and_cleans_up(self):
        pool = ProcessWorkerPool(1)
        futures = [
            pool.submit("sleep", {"seconds": 0.4}) for _ in range(4)
        ]
        pool.shutdown(wait=False)
        outcomes = []
        for future in futures:
            if future.cancelled():
                outcomes.append("cancelled")
                continue
            try:
                future.result(timeout=TIMEOUT)
                outcomes.append("ok")
            except WorkerCrashedError:
                outcomes.append("crashed")
        # Every future resolved one way or another; queued ones were
        # cancelled, the in-flight one failed (or squeaked through).
        assert len(outcomes) == 4
        assert "cancelled" in outcomes
        assert pool.segment_names() == []

    def test_no_resource_tracker_leaks_under_warnings_as_errors(self):
        """A pool-using interpreter exits clean with -W error.

        Covers both halves of the shm-lifecycle satellite: the
        resource tracker sees balanced register/unregister pairs (no
        "leaked shared_memory objects" complaint at exit) and the
        Python 3.12 fork-from-threaded-parent DeprecationWarning stays
        suppressed at the one sanctioned fork site.
        """
        script = (
            "import numpy as np\n"
            "from repro.runtime import ProcessWorkerPool\n"
            "x = np.arange(512, dtype=np.float64).reshape(8, 64)\n"
            "with ProcessWorkerPool(2) as pool:\n"
            "    futures = [\n"
            "        pool.submit('scale', {'factor': 2.0}, arrays={'x': x},\n"
            "                    out_spec={'x': (x.shape, x.dtype)})\n"
            "        for _ in range(6)\n"
            "    ]\n"
            "    for f in futures:\n"
            "        payload, out = f.result(timeout=60)\n"
            "        assert np.allclose(out['x'], x * 2.0)\n"
            "print('CLEAN-EXIT')\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "CLEAN-EXIT" in proc.stdout
        assert "leaked" not in proc.stderr
        assert "Warning" not in proc.stderr


# ---------------------------------------------------------------------------
# The shared persistent pool
# ---------------------------------------------------------------------------
class TestSharedPool:
    def test_same_worker_count_returns_same_pool(self):
        first = shared_process_pool(1)
        try:
            assert shared_process_pool(1) is first
            assert not first.closed
        finally:
            first.shutdown()

    def test_closed_shared_pool_is_replaced(self):
        first = shared_process_pool(1)
        first.shutdown()
        second = shared_process_pool(1)
        try:
            assert second is not first
            assert second.submit("ping").result(timeout=TIMEOUT) == "pong"
        finally:
            second.shutdown()

    def test_reuse_spawns_no_new_processes(self):
        pool = shared_process_pool(1)
        try:
            pool.submit("ping").result(timeout=TIMEOUT)
            spawned = pool.processes_spawned
            for _ in range(3):
                again = shared_process_pool(1)
                assert again is pool
                again.submit("ping").result(timeout=TIMEOUT)
            assert pool.processes_spawned == spawned
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# Usable cores: the affinity mask, capped by a cgroup CPU quota
# ---------------------------------------------------------------------------
def _cgroups(tmp_path, membership: str, files: dict) -> tuple:
    """A fake cgroup mount plus ``/proc/self/cgroup``; returns both paths."""
    root = tmp_path / "cgroup"
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    (tmp_path / "membership").write_text(membership)
    return str(root), str(tmp_path / "membership")


class TestUsableCores:
    def test_v2_quota_is_the_tightest_on_the_path_to_the_root(self, tmp_path):
        paths = _cgroups(tmp_path, "0::/pods/a\n", {
            "cpu.max": "max 100000\n",
            "pods/cpu.max": "150000 100000\n",
            "pods/a/cpu.max": "400000 100000\n",
            "other/cpu.max": "50000 100000\n",  # not an ancestor
        })
        assert cgroup_cpu_quota(*paths) == 1.5

    def test_v2_max_is_no_quota(self, tmp_path):
        paths = _cgroups(tmp_path, "0::/\n", {"cpu.max": "max 100000\n"})
        assert cgroup_cpu_quota(*paths) is None

    def test_v1_cfs_quota_of_the_cpu_hierarchy(self, tmp_path):
        membership = "5:memory:/m\n4:cpu,cpuacct:/\n0::/\n"
        files = {
            "cpu,cpuacct/cpu.cfs_quota_us": "100000\n",
            "cpu,cpuacct/cpu.cfs_period_us": "100000\n",
        }
        assert cgroup_cpu_quota(*_cgroups(tmp_path, membership, files)) == 1.0
        files["cpu,cpuacct/cpu.cfs_quota_us"] = "-1\n"
        assert cgroup_cpu_quota(*_cgroups(tmp_path, membership, files)) is None

    def test_no_cgroup_is_no_quota(self, tmp_path):
        assert cgroup_cpu_quota(str(tmp_path), str(tmp_path / "absent")) is None

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity"
    )
    def test_a_quota_caps_the_affinity_mask_rounded_down(self, monkeypatch):
        mask = len(os.sched_getaffinity(0))
        monkeypatch.setattr(parallel, "cgroup_cpu_quota", lambda: None)
        assert usable_cores() == mask
        monkeypatch.setattr(parallel, "cgroup_cpu_quota", lambda: 1.5)
        assert usable_cores() == 1
        monkeypatch.setattr(parallel, "cgroup_cpu_quota", lambda: 0.5)
        assert usable_cores() == 1  # never below one
        monkeypatch.setattr(parallel, "cgroup_cpu_quota", lambda: mask + 8.0)
        assert usable_cores() == mask
