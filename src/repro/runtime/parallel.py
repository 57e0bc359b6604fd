"""Supervised worker pools for the decode service and the sweep engine.

The Monte-Carlo machinery lives in :mod:`repro.runtime.engine`; this
module provides the executors under it and under the decode service.
:class:`WorkerPool` is a persistent named *supervised* thread pool: the
decode service's executor on a one-core host, or when asked for
threads.  Closures need no pickling, but threads share one interpreter
lock, which the per-layer Python between numpy kernels holds — two
decode threads measured slower than one on the service's batch sizes.

:class:`ProcessWorkerPool` carries the same supervised-executor
contract (futures, crash ⇒ :class:`~repro.errors.WorkerCrashedError`
plus respawn, hang detection, drain-on-shutdown) over *persistent
worker processes*, forked on demand: the decode service's default on
two or more cores, and the sweep engine's parallel path.  Workers keep
their own plan caches, bulk arrays travel through parent-owned
:mod:`multiprocessing.shared_memory` segments instead of pickle, and
:func:`shared_process_pool` keeps one pool per worker count alive for
the whole interpreter so pool startup is paid once, not per sweep.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import threading
import time
import warnings
from collections import deque
from collections.abc import Callable
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

from repro.errors import WorkerCrashedError
from repro.runtime.procworker import (
    plan_layout,
    read_arrays,
    worker_main,
    write_arrays,
)


@dataclass
class _Task:
    fn: Callable
    args: tuple
    kwargs: dict
    future: Future

    def describe(self) -> str:
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"{name}(...)"


@dataclass
class _Slot:
    """One worker thread's supervision state (guarded by the pool lock)."""

    thread: threading.Thread = None
    current: "_Task | None" = None
    started: "float | None" = None
    finished: bool = False    # clean loop exit (shutdown drain complete)
    abandoned: bool = False   # hung; replaced, must not take more work
    generation: int = field(default=0)


class WorkerPool:
    """A persistent, named, *supervised* thread pool with futures.

    A serving loop needs an executor that outlives any single batch —
    and, for a serving tier that must never hang a request, one that
    survives its own workers misbehaving.  Beyond the executor
    basics (``submit`` after :meth:`shutdown` raises ``RuntimeError``;
    :meth:`shutdown` drains by default; threads carry a recognizable
    name prefix), the pool runs a supervisor thread that:

    - detects a **crashed** worker (the thread died with a task still
      assigned — e.g. an exception escaping the task runner, which
      ``except Exception`` cannot catch), fails that task's future with
      :class:`~repro.errors.WorkerCrashedError`, and respawns a
      replacement thread;
    - detects a **hung** worker (a task running longer than
      ``hang_timeout`` seconds, when one is configured), fails its
      future the same way, *abandons* the stuck thread (Python cannot
      kill threads; the daemon thread is left to finish or not) and
      spawns a replacement so pool capacity is preserved.  A late
      result from an abandoned worker is discarded, never delivered.

    Either way no submitted future can hang on a lost worker, and the
    pool keeps its advertised parallelism — the serving analogue of the
    chip's pipeline never stalling on one bad lane.

    Parameters
    ----------
    workers:
        Worker thread count (>= 1).
    name:
        Thread name prefix for dumps and logs.
    hang_timeout:
        Seconds a single task may run before its worker is declared
        hung.  ``None`` (default) disables hang detection — only
        crashes are supervised.  Set it comfortably above the slowest
        legitimate task: a false positive costs an abandoned (but
        still-running, daemon) thread and a failed future.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan`; its
        ``on_worker_task`` hook runs as each task is dequeued, so chaos
        tests can crash or stall workers at scripted points.
    supervise_interval:
        Supervisor polling period, seconds.

    Usable as a context manager (drains on exit).
    """

    def __init__(
        self,
        workers: int,
        name: str = "repro-worker",
        hang_timeout: "float | None" = None,
        faults=None,
        supervise_interval: float = 0.02,
        clock=time.monotonic,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive (or None)")
        self.workers = int(workers)
        self.name = name
        self.hang_timeout = hang_timeout
        self._faults = faults
        self._clock = clock
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._tasks: "deque[_Task]" = deque()
        self._slots: list[_Slot] = []
        self._shutdown = False
        self._spawned = 0
        self.crashes_detected = 0
        self.hangs_detected = 0
        self.respawns = 0
        with self._lock:
            for _ in range(self.workers):
                self._spawn_slot()
        self._stop_supervisor = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise_loop,
            name=f"{name}-supervisor",
            daemon=True,
        )
        self._supervise_interval = float(supervise_interval)
        self._supervisor.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        """Schedule ``fn(*args, **kwargs)``; returns its future.

        The future resolves with the call's result or exception — or
        with :class:`~repro.errors.WorkerCrashedError` if the worker
        running it crashes or hangs past ``hang_timeout``.
        """
        future: Future = Future()
        with self._cond:
            if self._shutdown:
                raise RuntimeError("cannot submit to a shut-down WorkerPool")
            self._tasks.append(_Task(fn, args, kwargs, future))
            self._cond.notify()
        return future

    def stats(self) -> dict:
        """Supervision counters and current occupancy."""
        with self._lock:
            busy = sum(1 for s in self._slots if s.current is not None)
            return {
                "workers": self.workers,
                "busy": busy,
                "queued": len(self._tasks),
                "crashes_detected": self.crashes_detected,
                "hangs_detected": self.hangs_detected,
                "respawns": self.respawns,
            }

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _spawn_slot(self) -> _Slot:
        """Start one worker thread (caller holds the lock)."""
        slot = _Slot(generation=self._spawned)
        self._spawned += 1
        slot.thread = threading.Thread(
            target=self._worker_main,
            args=(slot,),
            name=f"{self.name}-{slot.generation}",
            daemon=True,
        )
        self._slots.append(slot)
        slot.thread.start()
        return slot

    def _worker_main(self, slot: _Slot) -> None:
        try:
            self._worker_loop(slot)
            slot.finished = True
        except BaseException:
            # A crash (injected WorkerKilled or anything else escaping
            # the loop): die silently with slot.finished False and
            # slot.current still assigned — the supervisor turns that
            # into a failed future and a respawn.  Printing a traceback
            # here would be noise: the failure is delivered where it
            # belongs, on the task's future.
            pass

    def _worker_loop(self, slot: _Slot) -> None:
        while True:
            with self._cond:
                slot.current = None
                slot.started = None
                self._cond.notify_all()  # wake shutdown/drain waiters
                while True:
                    if slot.abandoned:
                        return
                    if self._tasks:
                        break
                    if self._shutdown:
                        return
                    self._cond.wait()
                task = self._tasks.popleft()
                slot.current = task
                slot.started = self._clock()
            if self._faults is not None:
                # May raise WorkerKilled (escapes -> supervised crash)
                # or sleep (-> supervised hang).
                self._faults.on_worker_task()
            if task.future.done():
                # The supervisor already failed this future (it declared
                # this worker hung while the fault hook stalled above).
                continue
            try:
                if not task.future.set_running_or_notify_cancel():
                    continue  # cancelled while queued
            except (InvalidStateError, RuntimeError):
                # Same race, lost after the done() check: on a FINISHED
                # future set_running_or_notify_cancel raises a bare
                # RuntimeError, not InvalidStateError.
                continue
            try:
                result = task.fn(*task.args, **task.kwargs)
            except BaseException as exc:
                self._resolve(task, error=exc)
                if not isinstance(exc, Exception):
                    raise  # KeyboardInterrupt etc.: die like a crash
            else:
                self._resolve(task, result=result)

    @staticmethod
    def _resolve(task: _Task, result=None, error=None) -> None:
        try:
            if error is not None:
                task.future.set_exception(error)
            else:
                task.future.set_result(result)
        except InvalidStateError:
            # Already failed by the supervisor (hung-worker verdict, or
            # a crash raced with completion).  The late outcome is
            # discarded: the future's owner was already told.
            pass

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _supervise_loop(self) -> None:
        while not self._stop_supervisor.wait(self._supervise_interval):
            self.check_workers()
        # One final sweep so a crash during shutdown drain still fails
        # its future rather than leaking an unresolved one.
        self.check_workers()

    def check_workers(self) -> None:
        """One supervision pass: detect crashes/hangs, respawn, fail futures.

        Called periodically by the supervisor thread; public so tests
        and drain paths can force a deterministic sweep.
        """
        victims: list[tuple[_Task, str]] = []
        with self._cond:
            now = self._clock()
            for slot in list(self._slots):
                if slot.abandoned or slot.finished:
                    continue
                if not slot.thread.is_alive():
                    # Crashed: thread died without the clean-exit flag.
                    self._slots.remove(slot)
                    self.crashes_detected += 1
                    if slot.current is not None:
                        victims.append((
                            slot.current,
                            f"worker {slot.thread.name!r} crashed while "
                            f"running {slot.current.describe()}; the task "
                            "failed and the worker was respawned",
                        ))
                    if not self._shutdown or self._tasks:
                        self.respawns += 1
                        self._spawn_slot()
                    continue
                if (
                    self.hang_timeout is not None
                    and slot.current is not None
                    and now - slot.started > self.hang_timeout
                ):
                    # Hung: abandon the thread (cannot be killed), take
                    # its task, keep capacity with a replacement.
                    slot.abandoned = True
                    self._slots.remove(slot)
                    self.hangs_detected += 1
                    victims.append((
                        slot.current,
                        f"worker {slot.thread.name!r} exceeded "
                        f"hang_timeout={self.hang_timeout}s running "
                        f"{slot.current.describe()}; the task failed, the "
                        "stuck thread was abandoned and a replacement "
                        "worker was spawned",
                    ))
                    self.respawns += 1
                    self._spawn_slot()
            if victims:
                self._cond.notify_all()
        for task, message in victims:
            self._resolve(task, error=WorkerCrashedError(message))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; by default block until in-flight work ends.

        Draining tolerates misbehaving workers: crashed workers are
        respawned while queued tasks remain, and (with ``hang_timeout``
        set) hung workers are abandoned — so shutdown completes and
        every accepted future resolves even under injected chaos.
        """
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()
        if wait:
            while True:
                self.check_workers()
                with self._cond:
                    live = [
                        s for s in self._slots
                        if not (s.abandoned or s.finished)
                        and s.thread.is_alive()
                    ]
                    drained = not self._tasks and all(
                        s.current is None for s in live
                    )
                if drained and not live:
                    break
                if drained and live:
                    for slot in live:
                        slot.thread.join(timeout=self._supervise_interval)
                else:
                    time.sleep(self._supervise_interval)
        self._stop_supervisor.set()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)


# ---------------------------------------------------------------------------
# Process pool: shared-memory arena
# ---------------------------------------------------------------------------
#: Held across every worker fork and every segment create or unlink, of
#: every pool in the process.  The latter take the resource tracker's
#: lock, and a worker forked while another thread held it would
#: deadlock on its first segment attach.  Taken inside a pool's lock.
_TRACKER_LOCK = threading.Lock()


def _bucket_size(nbytes: int) -> int:
    """Segment size class: next power of two, at least one page."""
    return max(4096, 1 << max(0, int(nbytes) - 1).bit_length())


class _ShmArena:
    """Parent-owned pool of shared-memory segments, recycled by size class.

    The parent creates every segment and is the only unlinker, so the
    lifetime story has exactly three ends: a completed task's segment
    returns to the free list (:meth:`release`), a crashed/hung worker's
    segment is destroyed immediately (:meth:`discard` — a killed
    child's mapping dies with it, and never reusing the name means a
    half-written segment can't leak into a later task), and
    :meth:`close_all` destroys everything at pool shutdown.  Workers
    only ever attach and close; they never create or unlink, so the
    resource tracker sees perfectly balanced register/unregister pairs
    in one process.  Not thread-safe: callers hold the pool lock.
    """

    def __init__(self) -> None:
        self._free: dict[int, list[shared_memory.SharedMemory]] = {}
        self._active: dict[str, shared_memory.SharedMemory] = {}
        self.segments_created = 0
        self.segments_unlinked = 0

    def acquire(self, nbytes: int) -> shared_memory.SharedMemory:
        size = _bucket_size(nbytes)
        stack = self._free.get(size)
        if stack:
            segment = stack.pop()
        else:
            with _TRACKER_LOCK:
                segment = shared_memory.SharedMemory(create=True, size=size)
            self.segments_created += 1
        self._active[segment.name] = segment
        return segment

    def release(self, segment: shared_memory.SharedMemory) -> None:
        if self._active.pop(segment.name, None) is None:
            return  # already discarded (crash verdict won the race)
        self._free.setdefault(_bucket_size(segment.size), []).append(segment)

    def discard(self, segment: shared_memory.SharedMemory) -> None:
        if self._active.pop(segment.name, None) is None:
            return
        self._destroy(segment)

    def _destroy(self, segment: shared_memory.SharedMemory) -> None:
        segment.close()
        try:
            with _TRACKER_LOCK:
                segment.unlink()
        except FileNotFoundError:  # pragma: no cover — external cleanup
            pass
        self.segments_unlinked += 1

    def close_all(self) -> None:
        for segment in list(self._active.values()):
            self._destroy(segment)
        self._active.clear()
        for stack in self._free.values():
            for segment in stack:
                self._destroy(segment)
        self._free.clear()

    def stats(self) -> dict:
        return {
            "segments_created": self.segments_created,
            "segments_unlinked": self.segments_unlinked,
            "segments_active": len(self._active),
            "segments_free": sum(len(s) for s in self._free.values()),
        }

    def names(self) -> list[str]:
        """Every live segment name (leak tests)."""
        return sorted(
            list(self._active)
            + [s.name for stack in self._free.values() for s in stack]
        )


# ---------------------------------------------------------------------------
# Process pool: parent-side task / slot records
# ---------------------------------------------------------------------------
@dataclass
class _ProcTask:
    task_id: int
    kind: str
    meta: bytes  # pickled once, in submit
    segment: "shared_memory.SharedMemory | None"
    input_specs: list
    output_specs: list
    future: Future

    def shm_spec(self):
        if self.segment is None:
            return None
        return (self.segment.name, self.input_specs, self.output_specs)

    def describe(self) -> str:
        return f"{self.kind}(#{self.task_id})"


@dataclass
class _ProcSlot:
    """One worker process's supervision state (guarded by the pool lock)."""

    generation: int
    proc: object = None
    tasks: object = None  # parent's end of the worker's task pipe
    current: "_ProcTask | None" = None
    started: "float | None" = None
    stopping: bool = False  # sentinel sent; clean exit expected


def _cpu_max(directory: Path) -> "float | None":
    """cgroup v2 ``cpu.max`` (``"<quota> <period>"`` or ``"max …"``)."""
    quota, period = (directory / "cpu.max").read_text().split()[:2]
    return None if quota == "max" else int(quota) / int(period)


def _cfs_quota(directory: Path) -> "float | None":
    """cgroup v1 ``cpu.cfs_quota_us`` / ``cpu.cfs_period_us`` (-1: none)."""
    quota = int((directory / "cpu.cfs_quota_us").read_text())
    period = int((directory / "cpu.cfs_period_us").read_text())
    return None if quota < 0 else quota / period


def cgroup_cpu_quota(
    root: str = "/sys/fs/cgroup", membership: str = "/proc/self/cgroup"
) -> "float | None":
    """The CPUs' worth of time this process's cgroups allow per period,
    or ``None`` when no quota applies (or there is no cgroup to read).

    Reads the cgroup v2 ``cpu.max`` or the v1 CFS quota of the process's
    own cgroup and of each ancestor up to the mount (a container usually
    sees its own cgroup as the root), and returns the tightest.
    """
    try:
        lines = Path(membership).read_text().splitlines()
    except OSError:
        return None
    quotas = []
    for line in lines:
        _hierarchy, controllers, path = line.split(":", 2)
        if not controllers:
            base, read = Path(root), _cpu_max
        elif "cpu" in controllers.split(","):
            base, read = Path(root) / controllers, _cfs_quota
        else:
            continue
        own = base / path.strip("/")
        for directory in (own, *own.parents):
            try:
                quota = read(directory)
            except (OSError, ValueError):
                quota = None
            if quota is not None:
                quotas.append(quota)
            if directory == base:
                break
    return min(quotas, default=None)


def usable_cores() -> int:
    """CPUs this process can keep busy, at least 1: its affinity mask
    (where the platform has one), capped by the cgroup CPU quota
    (:func:`cgroup_cpu_quota`) rounded down to whole CPUs."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — no affinity API
        cores = os.cpu_count() or 1
    quota = cgroup_cpu_quota()
    if quota is not None:
        cores = min(cores, int(quota))
    return max(1, cores)


def _default_start_method() -> str:
    method = os.environ.get("REPRO_PROCESS_START_METHOD", "").strip()
    if method:
        return method
    # fork: ~20 ms per worker and children inherit imported modules;
    # spawn costs seconds of re-import per worker.  Overridable via the
    # env var above for platforms (or future Pythons) where forking a
    # threaded parent is unacceptable.
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"  # pragma: no cover — non-POSIX fallback


class ProcessWorkerPool:
    """Persistent supervised *process* pool with shared-memory transport.

    The process-sharded execution layer (ROADMAP item 2a): the same
    executor contract as :class:`WorkerPool` — futures, ``submit`` after
    :meth:`shutdown` raises, drain-on-shutdown, a supervisor that turns
    a dead worker into :class:`~repro.errors.WorkerCrashedError` plus a
    respawn — but with workers that own a whole interpreter each, so
    pure-Python decode bookkeeping scales past the GIL.  Differences
    from the thread pool, all forced by the process boundary:

    - **Task vocabulary, not callables.**  Closures don't pickle;
      work is named (``"decode"``, ``"sweep_chunks"``, …) against the
      registry in :mod:`repro.runtime.procworker` and parameterized by
      a small picklable descriptor.
    - **Shared-memory transport.**  Bulk arrays move through a
      parent-owned segment arena (:class:`_ShmArena`); the task pipes
      and the result queue carry descriptors only.  A task with arrays
      resolves to ``(payload, outputs)``; without, to ``payload`` alone.
    - **Per-worker caches.**  Each worker builds its own
      :class:`~repro.service.PlanCache` (``cache_size`` entries), the
      software analogue of the paper's per-SISO message memories — no
      cross-process locking, plans compiled once per worker.
    - **Hangs are killable.**  A worker stuck past ``hang_timeout`` is
      ``terminate()``d (threads can only be abandoned), its task fails
      with :class:`~repro.errors.WorkerCrashedError`, and a fresh
      worker takes the slot.
    - **Scripted chaos travels with the task.**  ``faults`` directives
      (:meth:`~repro.runtime.faults.FaultPlan.worker_directive`) are
      evaluated parent-side at assignment — keeping event counters
      deterministic — and executed child-side *before* the task runs,
      mirroring the thread pool's dequeue-time hook.
    - **Workers fork on demand.**  Construction forks nothing; a task
      forks one more worker only when every live worker is busy and
      fewer than ``workers`` exist.  A pool that never gets a task
      costs no process, and each worker is forked from the parent as it
      is at that moment, inheriting the expanded codes and fixed-point
      ROMs the parent has built by then (the module-level caches; plan
      caches are per worker).
    - **Workers die with their parent.**  An idle worker waits on its
      task pipe and the parent's sentinel together, and exits once the
      parent is gone, however it died (see
      :func:`~repro.runtime.procworker.worker_main`).  Each result
      carries the worker's own peak RSS, exported by :meth:`stats`.
    """

    def __init__(
        self,
        workers: int,
        name: str = "repro-procpool",
        hang_timeout: "float | None" = None,
        faults=None,
        supervise_interval: float = 0.02,
        cache_size: int = 16,
        clock=time.monotonic,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive (or None)")
        self.workers = int(workers)
        self.name = name
        self.hang_timeout = hang_timeout
        self._faults = faults
        self._clock = clock
        self._cache_size = int(cache_size)
        self._ctx = multiprocessing.get_context(_default_start_method())
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._arena = _ShmArena()
        self._tasks: "deque[_ProcTask]" = deque()
        self._slots: list[_ProcSlot] = []
        self._inflight: dict[int, tuple[_ProcTask, _ProcSlot]] = {}
        self._result_q = self._ctx.SimpleQueue()
        self._shutdown = False
        self._closed = False
        self._spawned = 0
        self._next_task_id = 0
        self.crashes_detected = 0
        self.hangs_detected = 0
        self.respawns = 0
        self.tasks_completed = 0
        self._worker_peak_rss_mb = 0.0
        self._stop_supervisor = threading.Event()
        self._supervise_interval = float(supervise_interval)
        self._collector = threading.Thread(
            target=self._collector_loop,
            name=f"{name}-collector",
            daemon=True,
        )
        self._collector.start()
        self._supervisor = threading.Thread(
            target=self._supervise_loop,
            name=f"{name}-supervisor",
            daemon=True,
        )
        self._supervisor.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        meta=None,
        arrays: "dict | None" = None,
        out_spec: "dict | None" = None,
    ) -> Future:
        """Schedule one named task; returns its future.

        ``arrays`` (name → ndarray) are copied into a shared-memory
        segment before dispatch; ``out_spec`` (name → (shape, dtype))
        declares arrays the worker will write back.  With either set,
        the future resolves to ``(payload, outputs)`` where ``outputs``
        maps each declared name to a private copy of the worker's
        output; otherwise it resolves to the payload alone.  A crashed
        or hung worker fails the future with
        :class:`~repro.errors.WorkerCrashedError`, exactly like
        :class:`WorkerPool`.  ``meta`` is pickled here, before anything
        is claimed, so one that does not pickle raises to the caller
        and the pool keeps serving.
        """
        meta = pickle.dumps(meta, pickle.HIGHEST_PROTOCOL)
        segment = None
        input_specs: list = []
        output_specs: list = []
        if arrays or out_spec:
            nbytes, input_specs, output_specs = plan_layout(
                arrays or {}, out_spec or {}
            )
            with self._cond:
                if self._shutdown:
                    raise RuntimeError(
                        "cannot submit to a shut-down ProcessWorkerPool"
                    )
                segment = self._arena.acquire(nbytes)
            if arrays:
                write_arrays(segment.buf, input_specs, arrays)
        future: Future = Future()
        with self._cond:
            if self._shutdown:
                if segment is not None:
                    self._arena.release(segment)
                raise RuntimeError(
                    "cannot submit to a shut-down ProcessWorkerPool"
                )
            task = _ProcTask(
                task_id=self._next_task_id,
                kind=kind,
                meta=meta,
                segment=segment,
                input_specs=input_specs,
                output_specs=output_specs,
                future=future,
            )
            self._next_task_id += 1
            self._tasks.append(task)
            self._assign_locked()
        return future

    def stats(self) -> dict:
        """Supervision counters, occupancy, segment accounting, and
        ``worker_peak_rss_mb``: the largest peak RSS any worker has
        reported with a result."""
        with self._lock:
            busy = sum(1 for s in self._slots if s.current is not None)
            out = {
                "workers": self.workers,
                "busy": busy,
                "queued": len(self._tasks),
                "crashes_detected": self.crashes_detected,
                "hangs_detected": self.hangs_detected,
                "respawns": self.respawns,
                "processes_spawned": self._spawned,
                "tasks_completed": self.tasks_completed,
                "worker_peak_rss_mb": self._worker_peak_rss_mb,
            }
            out.update(self._arena.stats())
            return out

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def processes_spawned(self) -> int:
        """Total workers ever started (regression guard for pool reuse)."""
        return self._spawned

    def pids(self) -> list[int]:
        """PIDs of the current worker processes."""
        with self._lock:
            return [s.proc.pid for s in self._slots if s.proc is not None]

    def segment_names(self) -> list[str]:
        """Names of all live shared-memory segments (leak tests)."""
        with self._lock:
            return self._arena.names()

    # ------------------------------------------------------------------
    # Parent-side dispatch
    # ------------------------------------------------------------------
    def _spawn_slot_locked(self) -> _ProcSlot:
        # Synthetic code construction draws from numpy.random, which
        # numpy imports lazily.  Import it before forking, so that a
        # child never imports a module another parent thread may have
        # half imported (its module lock would never be released).
        import numpy.random  # noqa: F401

        slot = _ProcSlot(generation=self._spawned)
        self._spawned += 1
        reader, slot.tasks = self._ctx.Pipe(duplex=False)
        slot.proc = self._ctx.Process(
            target=worker_main,
            args=(slot.generation, reader, self._result_q, self._cache_size),
            name=f"{self.name}-{slot.generation}",
            daemon=True,
        )
        with _TRACKER_LOCK, warnings.catch_warnings():
            # Start the tracker from the parent *before* the first fork:
            # otherwise the first child to touch shared memory spawns
            # its own tracker, which then warns about "leaked" segments
            # it never sees unlinked.
            resource_tracker.ensure_running()
            # Python 3.12+ deprecation-warns on fork-from-a-threaded
            # parent.  This is the one sanctioned fork site, reached
            # from whichever thread dispatches (or the supervisor, to
            # respawn), and a child needs no lock another parent thread
            # can hold: it uses its own pipe, the result queue's
            # cross-process lock, a fresh PlanCache, the lock-free code
            # and fold-ROM caches, and the resource tracker (see
            # _TRACKER_LOCK); its task paths import nothing that is not
            # imported by now.  CI runs with DeprecationWarning promoted
            # to errors.
            warnings.simplefilter("ignore", DeprecationWarning)
            slot.proc.start()
        reader.close()  # the child's end; the parent only writes
        self._slots.append(slot)
        return slot

    def _idle_slot_locked(self) -> "_ProcSlot | None":
        """A live worker with no task, forking one if every live worker
        is busy and the pool is below ``workers``; else ``None``."""
        for slot in self._slots:
            if slot.current is None and not slot.stopping and slot.proc.is_alive():
                return slot
        # Dead workers count until the supervisor reaps (and respawns)
        # them, so a crash never makes the pool over-fork.
        if sum(1 for s in self._slots if not s.stopping) < self.workers:
            return self._spawn_slot_locked()
        return None

    def _assign_locked(self) -> None:
        """Pair queued tasks with idle workers (caller holds the lock)."""
        while self._tasks:
            slot = self._idle_slot_locked()
            if slot is None:
                return
            task = self._tasks.popleft()
            if not task.future.set_running_or_notify_cancel():
                if task.segment is not None:
                    self._arena.release(task.segment)
                continue  # cancelled while queued
            directive = None
            if self._faults is not None:
                directive = self._faults.worker_directive()
            slot.current = task
            slot.started = self._clock()
            self._inflight[task.task_id] = (task, slot)
            try:
                slot.tasks.send((
                    task.task_id, task.kind, task.meta,
                    task.shm_spec(), directive,
                ))
            except OSError:
                pass  # the worker just died: the supervisor fails the task

    def _collector_loop(self) -> None:
        while True:
            item = self._result_q.get()
            if item is None:
                return
            _worker_id, task_id, status, payload, peak_rss = item
            resolution = None
            with self._cond:
                self._worker_peak_rss_mb = max(self._worker_peak_rss_mb, peak_rss)
                entry = self._inflight.pop(task_id, None)
                if entry is None:
                    # Task already adjudicated (hang verdict delivered,
                    # segment discarded) — the late message is dropped.
                    continue
                task, slot = entry
                if slot.current is task:
                    slot.current = None
                    slot.started = None
                self.tasks_completed += 1
                if status == "ok":
                    outputs = None
                    if task.segment is not None and task.output_specs:
                        outputs = read_arrays(
                            task.segment.buf, task.output_specs
                        )
                    result = (
                        (payload, outputs)
                        if (task.input_specs or task.output_specs)
                        else payload
                    )
                    resolution = (task.future, result, None)
                else:
                    resolution = (task.future, None, payload)
                if task.segment is not None:
                    self._arena.release(task.segment)
                self._assign_locked()
                self._cond.notify_all()
            # Resolve outside the lock: done-callbacks may re-enter
            # submit() (service retries do).
            future, result, error = resolution
            try:
                if error is not None:
                    future.set_exception(error)
                else:
                    future.set_result(result)
            except InvalidStateError:
                pass  # supervisor verdict won the race

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _supervise_loop(self) -> None:
        while not self._stop_supervisor.wait(self._supervise_interval):
            self.check_workers()
        self.check_workers()

    def check_workers(self) -> None:
        """One supervision pass: reap dead workers, kill hung ones.

        A dead worker with a task fails that task's future with
        :class:`~repro.errors.WorkerCrashedError` and *discards* the
        task's shared-memory segment (never reused: a crash mid-decode
        may have left it half-written).  Capacity is restored by a
        respawn unless the pool is draining an empty queue.
        """
        victims: list[tuple[Future, WorkerCrashedError]] = []
        doomed: list[_ProcSlot] = []
        with self._cond:
            now = self._clock()
            for slot in list(self._slots):
                alive = slot.proc.is_alive()
                if slot.stopping:
                    if not alive:
                        self._slots.remove(slot)  # clean sentinel exit
                    continue
                if not alive:
                    self._slots.remove(slot)
                    self.crashes_detected += 1
                    task = slot.current
                    slot.current = None
                    if task is not None:
                        self._inflight.pop(task.task_id, None)
                        if task.segment is not None:
                            self._arena.discard(task.segment)
                        victims.append((
                            task.future,
                            WorkerCrashedError(
                                f"worker {slot.proc.name!r} (pid "
                                f"{slot.proc.pid}) died while running "
                                f"{task.describe()}; the task failed and "
                                "the worker was respawned"
                            ),
                        ))
                    if not self._shutdown or self._tasks:
                        self.respawns += 1
                        self._spawn_slot_locked()
                    continue
                if (
                    self.hang_timeout is not None
                    and slot.current is not None
                    and now - slot.started > self.hang_timeout
                ):
                    task = slot.current
                    slot.current = None
                    self._slots.remove(slot)
                    self.hangs_detected += 1
                    self._inflight.pop(task.task_id, None)
                    if task.segment is not None:
                        self._arena.discard(task.segment)
                    victims.append((
                        task.future,
                        WorkerCrashedError(
                            f"worker {slot.proc.name!r} (pid "
                            f"{slot.proc.pid}) exceeded hang_timeout="
                            f"{self.hang_timeout}s running "
                            f"{task.describe()}; the task failed, the "
                            "stuck process was terminated and a "
                            "replacement worker was spawned"
                        ),
                    ))
                    doomed.append(slot)
                    self.respawns += 1
                    self._spawn_slot_locked()
            # Replacements take queued work at once, including a task
            # that queued behind a worker which died idle.
            self._assign_locked()
            if victims:
                self._cond.notify_all()
        for slot in doomed:
            slot.proc.terminate()
            slot.proc.join(timeout=1.0)
            if slot.proc.is_alive():  # pragma: no cover — SIGTERM ignored
                slot.proc.kill()
                slot.proc.join(timeout=1.0)
        for future, error in victims:
            try:
                future.set_exception(error)
            except InvalidStateError:  # pragma: no cover — resolve race
                pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work, stop workers, destroy every segment.

        With ``wait`` (default) the pool first drains: queued and
        in-flight tasks run to completion, crashed workers are respawned
        while work remains, hung workers are killed — every accepted
        future resolves.  With ``wait=False`` queued tasks are cancelled
        and in-flight tasks fail with
        :class:`~repro.errors.WorkerCrashedError`.  Idempotent.
        """
        with self._cond:
            already_closed = self._closed
            self._shutdown = True
        if already_closed:
            return
        if wait:
            while True:
                self.check_workers()
                with self._cond:
                    if not self._tasks and not self._inflight:
                        break
                time.sleep(self._supervise_interval)
        with self._cond:
            if self._closed:
                return  # lost a concurrent-shutdown race
            self._closed = True
            abandoned: list[tuple[Future, "WorkerCrashedError | None"]] = []
            while self._tasks:
                task = self._tasks.popleft()
                if task.segment is not None:
                    self._arena.release(task.segment)
                abandoned.append((task.future, None))
            for task, _slot in self._inflight.values():
                if task.segment is not None:
                    self._arena.discard(task.segment)
                abandoned.append((
                    task.future,
                    WorkerCrashedError(
                        f"{task.describe()} was in flight when the pool "
                        "shut down without draining"
                    ),
                ))
            self._inflight.clear()
            slots = list(self._slots)
            for slot in slots:
                if not slot.stopping and slot.current is None:
                    slot.stopping = True
                    try:
                        slot.tasks.send(None)
                    except (OSError, ValueError):  # pragma: no cover
                        pass
        for future, error in abandoned:
            try:
                if error is None:
                    future.cancel()
                else:
                    future.set_exception(error)
            except InvalidStateError:  # pragma: no cover — resolve race
                pass
        for slot in slots:
            if slot.stopping:
                slot.proc.join(timeout=2.0)
            if slot.proc.is_alive():
                # Busy or unresponsive (only possible when not draining,
                # or hung): its future is already failed, kill it.
                slot.proc.terminate()
                slot.proc.join(timeout=1.0)
            if slot.proc.is_alive():  # pragma: no cover — SIGTERM ignored
                slot.proc.kill()
                slot.proc.join(timeout=1.0)
            slot.tasks.close()
        self._stop_supervisor.set()
        self._result_q.put(None)
        self._collector.join(timeout=2.0)
        with self._cond:
            self._slots.clear()
            self._arena.close_all()

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)


# ---------------------------------------------------------------------------
# Shared pools: one persistent ProcessWorkerPool per worker count
# ---------------------------------------------------------------------------
_SHARED_POOLS: dict[int, ProcessWorkerPool] = {}
_SHARED_POOLS_LOCK = threading.Lock()


def shared_process_pool(workers: int, cache_size: int = 16) -> ProcessWorkerPool:
    """The interpreter-wide persistent pool for ``workers`` processes.

    A sweep must not pay pool startup and child imports on every call: the first caller creates the pool, every
    later caller (and every later sweep) reuses it, and an atexit hook
    tears all shared pools down — unlinking their segments — at
    interpreter exit.  Callers must *not* shut the returned pool down;
    a pool found closed (e.g. by an explicit teardown in tests) is
    transparently replaced.
    """
    with _SHARED_POOLS_LOCK:
        pool = _SHARED_POOLS.get(workers)
        if pool is not None and pool.closed:
            pool = None
        if pool is None:
            pool = ProcessWorkerPool(
                workers, name=f"repro-shared{workers}", cache_size=cache_size
            )
            _SHARED_POOLS[workers] = pool
        return pool


def shutdown_shared_pools() -> None:
    """Tear down every shared pool (atexit hook; also usable in tests)."""
    with _SHARED_POOLS_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False)


atexit.register(shutdown_shared_pools)
