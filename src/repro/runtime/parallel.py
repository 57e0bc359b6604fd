"""One supervised worker pool for the decode service and the sweep engine.

:class:`WorkerPool` runs named tasks — the
:data:`~repro.runtime.procworker.TASKS` vocabulary (``"decode"``,
``"sweep_chunks"``, …), each a small descriptor plus optional arrays —
on workers of one of two kinds:

- ``"process"`` workers are persistent processes, forked on demand,
  each a whole interpreter, so the per-layer Python of a decode escapes
  the interpreter lock.  Bulk arrays travel through parent-owned
  :mod:`multiprocessing.shared_memory` segments, and each worker keeps
  its own plan cache.  They are the decode service's default on two or
  more cores and the sweep engine's parallel path;
  :func:`shared_process_pool` keeps one pool per worker count alive
  for the whole interpreter, so pool startup is paid once.
- ``"thread"`` workers take each task in process and decode from the
  :class:`~repro.service.PlanCache` the pool is given.  Threads share
  one interpreter lock, which the per-layer Python between numpy
  kernels holds — two decode threads measured slower than one on the
  service's batch sizes — so they serve one-core hosts.

A kind differs only in how a worker starts, how it receives a task (an
in-process hand-off, or a pipe plus a shared-memory segment) and how it
is stopped (abandoned, or terminated).  Everything else is written
once: the queue, assignment to an idle worker, completion, crash and
hang supervision with respawn, drain, and :meth:`WorkerPool.stats`.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import queue
import threading
import time
import warnings
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

from repro.errors import WorkerCrashedError
from repro.runtime.procworker import (
    TASKS,
    WorkerState,
    plan_layout,
    read_arrays,
    scripted_crash,
    worker_main,
    write_arrays,
)

_SHUT_DOWN = "cannot submit to a shut-down WorkerPool"

# ---------------------------------------------------------------------------
# Shared-memory arena (process workers)
# ---------------------------------------------------------------------------
#: Held across every worker fork and every segment create or unlink, of
#: every pool in the process.  The latter take the resource tracker's
#: lock, and a worker forked while another thread held it would
#: deadlock on its first segment attach.
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
    :meth:`close_all` destroys everything at pool shutdown, after which
    :meth:`acquire` refuses.  Workers only ever attach and close; they
    never create or unlink, so the resource tracker sees perfectly
    balanced register/unregister pairs in one process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._closed = False
        self._free: dict[int, list[shared_memory.SharedMemory]] = {}
        self._active: dict[str, shared_memory.SharedMemory] = {}
        self.segments_created = 0
        self.segments_unlinked = 0

    def acquire(self, nbytes: int) -> shared_memory.SharedMemory:
        size = _bucket_size(nbytes)
        with self._lock:
            if self._closed:
                raise RuntimeError(_SHUT_DOWN)
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
        with self._lock:
            if self._active.pop(segment.name, None) is None:
                return  # already discarded (crash verdict won the race)
            self._free.setdefault(_bucket_size(segment.size), []).append(segment)

    def discard(self, segment: shared_memory.SharedMemory) -> None:
        with self._lock:
            if self._active.pop(segment.name, None) is not None:
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
        with self._lock:
            self._closed = True
            for segment in self._active.values():
                self._destroy(segment)
            self._active.clear()
            for stack in self._free.values():
                for segment in stack:
                    self._destroy(segment)
            self._free.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "segments_created": self.segments_created,
                "segments_unlinked": self.segments_unlinked,
                "segments_active": len(self._active),
                "segments_free": sum(len(s) for s in self._free.values()),
            }

    def names(self) -> list[str]:
        """Every live segment name (leak tests)."""
        with self._lock:
            return sorted(
                list(self._active)
                + [s.name for stack in self._free.values() for s in stack]
            )


# ---------------------------------------------------------------------------
# The two worker kinds
# ---------------------------------------------------------------------------
class _ThreadWorker:
    """A worker thread.  A task is handed over in process and runs
    against the pool's plan cache; a hung thread cannot be killed, so it
    is abandoned and leaves at its next hand-off."""

    pid = None

    def __init__(self, pool: "WorkerPool", name: str):
        self.name = name
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._serve,
            args=(WorkerState(pool._cache), pool._finish),
            name=name,
            daemon=True,
        )
        self._thread.start()

    @staticmethod
    def pack(arena: _ShmArena, meta, arrays, out_spec) -> tuple:
        """``(meta, inputs, segment, output_specs)``: the arrays as given."""
        return meta, arrays or {}, None, []

    def _serve(self, state: WorkerState, finish) -> None:
        while (item := self._inbox.get()) is not None:
            task_id, kind, meta, arrays, directive = item
            if scripted_crash(directive):
                return  # die holding the task, as a crashed thread does
            try:
                payload, outputs = TASKS[kind](state, meta, arrays)
            except Exception as exc:  # delivered to the future
                finish(task_id, "error", exc)
            else:
                finish(task_id, "ok", payload, outputs)

    def send(self, item) -> None:
        self._inbox.put(item)

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def join(self, timeout: float) -> None:
        self._thread.join(timeout)

    def kill(self) -> None:
        self._inbox.put(None)  # leaves once its current task ends

    def close(self) -> None:
        pass

    def describe(self) -> str:
        return f"worker thread {self.name!r}"


class _ProcessWorker:
    """A forked worker process.  A task goes down its pipe with its
    arrays in a shared-memory segment, and its result comes back through
    the pool's result queue; a hung process is terminated."""

    def __init__(self, pool: "WorkerPool", name: str):
        # Synthetic code construction draws from numpy.random, which
        # numpy imports lazily.  Import it before forking, so that a
        # child never imports a module another parent thread may have
        # half imported (its module lock would never be released).
        import numpy.random  # noqa: F401

        self.name = name
        reader, self._conn = pool._ctx.Pipe(duplex=False)
        self._proc = pool._ctx.Process(
            target=worker_main,
            args=(reader, pool._results),
            name=name,
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
            self._proc.start()
        reader.close()  # the child's end; the parent only writes
        self.pid = self._proc.pid

    @staticmethod
    def pack(arena: _ShmArena, meta, arrays, out_spec) -> tuple:
        """``(meta, inputs, segment, output_specs)``: ``meta`` pickled
        once, and the arrays copied into a segment laid out for them and
        for the declared outputs; the pipe carries only the layout."""
        meta = pickle.dumps(meta, pickle.HIGHEST_PROTOCOL)
        if not (arrays or out_spec):
            return meta, None, None, []
        nbytes, input_specs, output_specs = plan_layout(
            arrays or {}, out_spec or {}
        )
        segment = arena.acquire(nbytes)
        if arrays:
            write_arrays(segment.buf, input_specs, arrays)
        inputs = (segment.name, input_specs, output_specs)
        return meta, inputs, segment, output_specs

    def send(self, item) -> None:
        try:
            self._conn.send(item)
        except (OSError, ValueError):
            pass  # the worker just died: supervision fails its task

    def is_alive(self) -> bool:
        return self._proc.is_alive()

    def join(self, timeout: float) -> None:
        self._proc.join(timeout)

    def kill(self) -> None:
        self._proc.terminate()
        self._proc.join(timeout=1.0)
        if self._proc.is_alive():  # pragma: no cover — SIGTERM ignored
            self._proc.kill()
            self._proc.join(timeout=1.0)

    def close(self) -> None:
        self._conn.close()

    def describe(self) -> str:
        return f"worker process {self.name!r} (pid {self.pid})"


_WORKER_KINDS = {"thread": _ThreadWorker, "process": _ProcessWorker}


@dataclass
class _Task:
    task_id: int
    kind: str
    meta: object  # pickled once, in submit, for a process worker
    inputs: object  # the arrays, or their segment layout
    segment: "shared_memory.SharedMemory | None"
    output_specs: list
    with_arrays: bool  # resolves to (payload, outputs)
    future: Future

    def describe(self) -> str:
        return f"{self.kind}(#{self.task_id})"


@dataclass
class _Slot:
    """One worker's supervision state (guarded by the pool lock)."""

    worker: "_ThreadWorker | _ProcessWorker"
    current: "_Task | None" = None
    started: "float | None" = None


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------
class WorkerPool:
    """A persistent, *supervised* pool of thread or process workers.

    A serving loop needs an executor that outlives any single batch —
    and, for a serving tier that must never hang a request, one that
    survives its own workers misbehaving.  :meth:`submit` returns a
    future; after :meth:`shutdown` it raises ``RuntimeError``.  A
    supervisor thread:

    - detects a **crashed** worker (it died with a task assigned),
      fails that task's future with
      :class:`~repro.errors.WorkerCrashedError` and starts a
      replacement;
    - detects a **hung** worker (a task running longer than
      ``hang_timeout``), fails its future the same way, terminates the
      process or abandons the thread (Python cannot kill threads) and
      starts a replacement.  A late result from a replaced worker is
      discarded, never delivered.

    Either way no submitted future can hang on a lost worker, and the
    pool keeps its advertised parallelism — the serving analogue of the
    chip's pipeline never stalling on one bad lane.

    Workers start on demand: construction starts none, and a task
    starts one more only when every live worker is busy and fewer than
    ``workers`` exist.  A process worker is forked from the parent as
    it is at that moment, inheriting the expanded codes and fixed-point
    ROMs built by then; it exits with its parent, however the parent
    dies (see :func:`~repro.runtime.procworker.worker_main`), and each
    of its results carries its peak RSS, exported by :meth:`stats`.

    Parameters
    ----------
    workers:
        Worker count (>= 1).
    kind:
        ``"thread"`` or ``"process"`` (see the module docstring).
    name:
        Worker name prefix for dumps and logs.
    hang_timeout:
        Seconds a single task may run before its worker is declared
        hung.  ``None`` (default) disables hang detection — only
        crashes are supervised.  Set it comfortably above the slowest
        legitimate task.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan`.  Its
        :meth:`~repro.runtime.faults.FaultPlan.worker_directive` is
        evaluated as each task is assigned, so ``worker_crash`` and
        ``worker_hang`` indices count tasks in assignment order, and
        the worker dies or stalls before running the task.
    supervise_interval:
        Supervisor polling period, seconds.
    cache:
        The :class:`~repro.service.PlanCache` thread workers decode
        from.  Without one, each worker builds its own, as every process
        worker does.

    Usable as a context manager (drains on exit).
    """

    def __init__(
        self,
        workers: int,
        kind: str,
        *,
        name: str = "repro-worker",
        hang_timeout: "float | None" = None,
        faults=None,
        supervise_interval: float = 0.02,
        cache=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if kind not in _WORKER_KINDS:
            raise ValueError(f"kind must be 'thread' or 'process', got {kind!r}")
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive (or None)")
        self.workers = int(workers)
        self.kind = kind
        self.name = name
        self.hang_timeout = hang_timeout
        self._faults = faults
        self._cache = cache
        self._worker_class = _WORKER_KINDS[kind]
        self._supervise_interval = float(supervise_interval)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._arena = _ShmArena()
        self._tasks: "deque[_Task]" = deque()
        self._slots: list[_Slot] = []
        self._inflight: dict[int, tuple[_Task, _Slot]] = {}
        self._task_ids = itertools.count()
        #: accepted futures not yet resolved, done-callbacks included
        self._unresolved = 0
        self._shutdown = False
        self._closed = False
        self._stopped = threading.Event()
        self._spawned = 0
        self.crashes_detected = 0
        self.hangs_detected = 0
        self.respawns = 0
        self.tasks_completed = 0
        self._worker_peak_rss_mb = 0.0
        self._stop_supervisor = threading.Event()
        self._collector = None
        if kind == "process":
            # fork: ~20 ms per worker, and children inherit the imported
            # modules; spawn costs seconds of re-import per worker.
            methods = multiprocessing.get_all_start_methods()
            self._ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            self._results = self._ctx.SimpleQueue()
            self._collector = threading.Thread(
                target=self._collect, name=f"{name}-collector", daemon=True
            )
            self._collector.start()
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name=f"{name}-supervisor", daemon=True
        )
        self._supervisor.start()

    # ------------------------------------------------------------------
    # Submission and assignment
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        meta=None,
        arrays: "dict | None" = None,
        out_spec: "dict | None" = None,
    ) -> Future:
        """Schedule one named task; returns its future.

        ``arrays`` (name → ndarray) are the task's inputs; ``out_spec``
        (name → (shape, dtype)) declares the arrays it returns.  With
        either set, the future resolves to ``(payload, outputs)``, where
        ``outputs`` maps each output name to an array of the caller's
        own; otherwise it resolves to the payload alone.  A crashed or
        hung worker fails the future with
        :class:`~repro.errors.WorkerCrashedError`.  For a process worker
        ``meta`` is pickled here, before anything is claimed, so one
        that does not pickle raises to the caller and the pool keeps
        serving.
        """
        meta, inputs, segment, output_specs = self._worker_class.pack(
            self._arena, meta, arrays, out_spec
        )
        future: Future = Future()
        with self._cond:
            if self._shutdown:
                if segment is not None:
                    self._arena.release(segment)
                raise RuntimeError(_SHUT_DOWN)
            self._tasks.append(_Task(
                task_id=next(self._task_ids),
                kind=kind,
                meta=meta,
                inputs=inputs,
                segment=segment,
                output_specs=output_specs,
                with_arrays=bool(arrays or out_spec),
                future=future,
            ))
            self._unresolved += 1
            self._assign_locked()
        return future

    def _spawn_locked(self) -> _Slot:
        slot = _Slot(self._worker_class(self, f"{self.name}-{self._spawned}"))
        self._spawned += 1
        self._slots.append(slot)
        return slot

    def _idle_slot_locked(self) -> "_Slot | None":
        """A live worker with no task, starting one if every live worker
        is busy and the pool is below ``workers``; else ``None``."""
        for slot in self._slots:
            if slot.current is None and slot.worker.is_alive():
                return slot
        # Dead workers count until the supervisor reaps (and respawns)
        # them, so a crash never makes the pool over-start.
        if len(self._slots) < self.workers:
            return self._spawn_locked()
        return None

    def _assign_locked(self) -> None:
        """Pair queued tasks with idle workers (caller holds the lock)."""
        while self._tasks:
            slot = self._idle_slot_locked()
            if slot is None:
                return
            task = self._tasks.popleft()
            if not task.future.set_running_or_notify_cancel():
                # Cancelled while queued: already resolved by its owner.
                if task.segment is not None:
                    self._arena.release(task.segment)
                self._unresolved -= 1
                self._cond.notify_all()
                continue
            directive = None
            if self._faults is not None:
                directive = self._faults.worker_directive()
            slot.current = task
            slot.started = time.monotonic()
            self._inflight[task.task_id] = (task, slot)
            slot.worker.send(
                (task.task_id, task.kind, task.meta, task.inputs, directive)
            )

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        """Process workers' results, in arrival order (collector thread)."""
        while (item := self._results.get()) is not None:
            task_id, status, payload, peak_rss = item
            self._finish(task_id, status, payload, peak_rss=peak_rss)

    def _finish(
        self, task_id: int, status: str, payload, outputs=None, peak_rss=0.0
    ) -> None:
        """One worker's report on one task: resolve it, and hand the
        freed worker the next queued task."""
        with self._cond:
            self._worker_peak_rss_mb = max(self._worker_peak_rss_mb, peak_rss)
            entry = self._inflight.pop(task_id, None)
            if entry is None:
                # Adjudicated already (hang verdict, or a shutdown that
                # did not drain): the late report is dropped.
                return
            task, slot = entry
            slot.current = slot.started = None
            self.tasks_completed += 1
            if task.segment is not None:
                if status == "ok" and task.output_specs:
                    outputs = read_arrays(task.segment.buf, task.output_specs)
                self._arena.release(task.segment)
            self._assign_locked()
        if status != "ok":
            self._resolve([(task.future.set_exception, payload)])
        elif task.with_arrays:
            self._resolve([(task.future.set_result, (payload, outputs))])
        else:
            self._resolve([(task.future.set_result, payload)])

    def _resolve(self, outcomes: list) -> None:
        """Apply ``(setter, *args)`` outcomes to futures, outside the
        lock (done-callbacks may re-enter :meth:`submit`), then count
        them resolved: :meth:`shutdown` returns only after every
        done-callback has run."""
        for setter, *args in outcomes:
            try:
                setter(*args)
            except InvalidStateError:  # pragma: no cover — owner resolved it
                pass
        with self._cond:
            self._unresolved -= len(outcomes)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _supervise_loop(self) -> None:
        while not self._stop_supervisor.wait(self._supervise_interval):
            self.check_workers()

    def _retire_locked(self, slot: _Slot, why: str) -> list:
        """Drop ``slot`` and fail its task, if any, with a
        :class:`WorkerCrashedError` saying ``why``; returns the outcomes
        for :meth:`_resolve`.  The task's segment is destroyed, never
        reused: a lost worker may have half written it."""
        self._slots.remove(slot)
        task, slot.current = slot.current, None
        if task is None:
            return []
        del self._inflight[task.task_id]
        if task.segment is not None:
            self._arena.discard(task.segment)
        error = WorkerCrashedError(
            f"{slot.worker.describe()} {why.format(task=task.describe())}"
        )
        return [(task.future.set_exception, error)]

    def check_workers(self) -> None:
        """One supervision pass: reap dead workers, replace hung ones.

        Called periodically by the supervisor thread; public so tests
        and drain paths can force a deterministic sweep.  A crashed
        worker is replaced unless the pool is draining an empty queue.
        """
        outcomes: list = []
        hung: list[_Slot] = []
        with self._cond:
            now = time.monotonic()
            for slot in list(self._slots):
                if not slot.worker.is_alive():
                    self.crashes_detected += 1
                    outcomes += self._retire_locked(
                        slot,
                        "died while running {task}; the task failed and "
                        "the worker was respawned",
                    )
                    if not self._shutdown or self._tasks:
                        self.respawns += 1
                        self._spawn_locked()
                elif (
                    self.hang_timeout is not None
                    and slot.current is not None
                    and now - slot.started > self.hang_timeout
                ):
                    self.hangs_detected += 1
                    outcomes += self._retire_locked(
                        slot,
                        f"exceeded hang_timeout={self.hang_timeout}s "
                        "running {task}; the task failed, the stuck worker "
                        "was stopped and a replacement was spawned",
                    )
                    hung.append(slot)
                    self.respawns += 1
                    self._spawn_locked()
            # Replacements take queued work at once, including a task
            # that queued behind a worker which died idle.
            self._assign_locked()
        for slot in hung:
            slot.worker.kill()
        if outcomes:
            self._resolve(outcomes)

    # ------------------------------------------------------------------
    # Lifecycle and introspection
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work, resolve every accepted future, stop the
        workers and destroy every segment.

        With ``wait`` (default) the pool first drains: queued and
        in-flight tasks run to completion, crashed workers are replaced
        while work remains, and hung ones (with ``hang_timeout`` set)
        are replaced too, so every accepted future resolves even under
        injected chaos.  With ``wait=False`` queued tasks are cancelled
        and in-flight ones fail with
        :class:`~repro.errors.WorkerCrashedError`.  Every caller,
        concurrent ones included, returns only once the last future has
        resolved and its done-callbacks have run.  Idempotent.
        """
        outcomes: list = []
        busy: list[_Slot] = []
        with self._cond:
            self._shutdown = True
            if not wait:
                while self._tasks:
                    task = self._tasks.popleft()
                    if task.segment is not None:
                        self._arena.release(task.segment)
                    outcomes.append((task.future.cancel,))
                busy = [s for s in self._slots if s.current is not None]
                for slot in busy:
                    outcomes += self._retire_locked(
                        slot,
                        "was running {task} when the pool shut down "
                        "without draining",
                    )
        for slot in busy:
            slot.worker.kill()
        if outcomes:
            self._resolve(outcomes)
        while True:
            self.check_workers()
            with self._cond:
                if not self._unresolved:
                    break
                self._cond.wait(self._supervise_interval)
        with self._cond:
            closer, self._closed = not self._closed, True
            slots, self._slots = self._slots, []
        if closer:
            self._stop(slots)
        self._stopped.wait()

    def _stop(self, slots: list) -> None:
        """Stop the (idle) workers, the helper threads and the arena."""
        for slot in slots:
            slot.worker.send(None)
        for slot in slots:
            slot.worker.join(2.0)
            if slot.worker.is_alive():  # pragma: no cover — unresponsive
                slot.worker.kill()
            slot.worker.close()
        self._stop_supervisor.set()
        if self._collector is not None:
            self._results.put(None)
            self._collector.join(timeout=2.0)
        self._arena.close_all()
        self._stopped.set()

    def stats(self) -> dict:
        """Supervision counters, occupancy, segment accounting, and
        ``worker_peak_rss_mb``: the largest peak RSS any process worker
        has reported with a result."""
        with self._lock:
            return {
                "workers": self.workers,
                "busy": sum(1 for s in self._slots if s.current is not None),
                "queued": len(self._tasks),
                "crashes_detected": self.crashes_detected,
                "hangs_detected": self.hangs_detected,
                "respawns": self.respawns,
                "processes_spawned": self.processes_spawned,
                "tasks_completed": self.tasks_completed,
                "worker_peak_rss_mb": self._worker_peak_rss_mb,
                **self._arena.stats(),
            }

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def processes_spawned(self) -> int:
        """Worker processes ever forked (regression guard for pool
        reuse); a thread pool forks none."""
        return self._spawned if self.kind == "process" else 0

    def pids(self) -> list[int]:
        """PIDs of the current worker processes."""
        with self._lock:
            return [s.worker.pid for s in self._slots if s.worker.pid is not None]

    def segment_names(self) -> list[str]:
        """Names of all live shared-memory segments (leak tests)."""
        return self._arena.names()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)


# ---------------------------------------------------------------------------
# Usable cores: the affinity mask, capped by a cgroup CPU quota
# ---------------------------------------------------------------------------
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


# ---------------------------------------------------------------------------
# Shared pools: one persistent process pool per worker count
# ---------------------------------------------------------------------------
_SHARED_POOLS: dict[int, WorkerPool] = {}
_SHARED_POOLS_LOCK = threading.Lock()


def shared_process_pool(workers: int) -> WorkerPool:
    """The interpreter-wide persistent process pool for ``workers``
    workers.

    A sweep must not pay pool startup and child imports on every call:
    the first caller creates the pool, every later caller (and every
    later sweep) reuses it, and an atexit hook tears all shared pools
    down — unlinking their segments — at interpreter exit.  Callers
    must *not* shut the returned pool down; a pool found closed (e.g.
    by an explicit teardown in tests) is transparently replaced.
    """
    with _SHARED_POOLS_LOCK:
        pool = _SHARED_POOLS.get(workers)
        if pool is None or pool.closed:
            pool = WorkerPool(workers, "process", name=f"repro-shared{workers}")
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
