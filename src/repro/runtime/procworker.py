"""The task vocabulary of :class:`~repro.runtime.parallel.WorkerPool`,
and a process worker's side of the pool.

Both worker kinds run the same named tasks (:data:`TASKS`) against a
per-worker :class:`WorkerState`.  A thread worker decodes through the
:class:`~repro.service.PlanCache` its pool was given and receives its
arrays in process.  A process worker is a long-lived child that loops
over a private task pipe and exits when its parent does: everything
*large* — LLR frames in, decode result arrays out — travels through
:mod:`multiprocessing.shared_memory` segments owned by the parent (see
``_ShmArena`` in :mod:`repro.runtime.parallel`), the pipe carries only
small pickled descriptors, and everything *expensive to build* —
compiled decode plans, fixed-point ROM tables, encoder eliminations —
lives in the worker's own caches, with no cross-process locking: the
software analogue of the paper's partially-parallel SISO units each
holding their own message memory.

Task functions all share one signature::

    func(state, meta, inputs) -> (payload, outputs)

``meta`` is the small descriptor, ``inputs`` is a dict of numpy arrays,
``payload`` is a small picklable result, and ``outputs`` is a dict of
arrays (a process worker writes them back into the segment at
parent-declared offsets).  The registry is deliberately tiny and
explicit (no arbitrary callables cross the process boundary — closures
cannot, and a fixed vocabulary keeps the wire format auditable).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import resource
import stat
import time
from multiprocessing import connection, shared_memory

import numpy as np

#: Segment offsets are aligned so every array view starts on a cache
#: line; keeps child reads/writes from straddling neighbours.
ALIGNMENT = 64

#: Exit code of a scripted process-worker crash (``FaultPlan``
#: directive).  The parent's supervisor does not read it — a dead
#: process is a dead process — but it makes chaos-test post-mortems
#: unambiguous.
CRASH_EXIT_CODE = 71

#: Seconds an idle worker waits between checks that its parent lives.
PARENT_POLL_S = 1.0


def _aligned(nbytes: int) -> int:
    return (nbytes + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def plan_layout(arrays: dict, out_spec: dict) -> tuple[int, list, list]:
    """Lay input arrays and declared outputs out in one segment.

    Returns ``(total_bytes, input_specs, output_specs)`` where each spec
    is ``(name, offset, shape, dtype_str)``.  The parent writes inputs
    before dispatch; the child writes outputs before acknowledging; both
    sides build views from the same specs, so the layout *is* the wire
    format.
    """
    offset = 0
    input_specs = []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        input_specs.append((name, offset, array.shape, array.dtype.str))
        offset = _aligned(offset + array.nbytes)
    output_specs = []
    for name, (shape, dtype) in out_spec.items():
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        output_specs.append((name, offset, tuple(shape), dt.str))
        offset = _aligned(offset + nbytes)
    return max(offset, ALIGNMENT), input_specs, output_specs


def write_arrays(buf, specs: list, arrays: dict) -> None:
    """Copy ``arrays`` into a segment buffer at their declared offsets."""
    for name, offset, shape, dtype in specs:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=offset)
        view[...] = np.asarray(arrays[name], dtype=np.dtype(dtype)).reshape(shape)


def read_arrays(buf, specs: list) -> dict:
    """Copy arrays out of a segment buffer (private copies, not views)."""
    out = {}
    for name, offset, shape, dtype in specs:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=offset)
        out[name] = view.copy()
    return out


def decode_out_spec(batch: int, n: int) -> dict:
    """Shared-memory output layout of one batch decode.

    Matches :class:`~repro.decoder.api.DecodeResult` field for field;
    the parent reassembles the result object from these arrays plus the
    small ``n_info`` payload.
    """
    return {
        "bits": ((batch, n), np.uint8),
        "llr": ((batch, n), np.float64),
        "iterations": ((batch,), np.int64),
        "converged": ((batch,), np.bool_),
        "et_stopped": ((batch,), np.bool_),
    }


class WorkerState:
    """One worker's caches: a PlanCache for decode tasks (the pool's own
    for thread workers, else a fresh one), one slot for sweeps."""

    def __init__(self, cache=None):
        if cache is None:
            # Imported here, not at module top: sweep-only workers never
            # pay for the service layer, and the parent imports this
            # module before forking (fork shares the imported pages).
            from repro.service.cache import PlanCache

            cache = PlanCache(maxsize=16)
        self.cache = cache
        self.sweep_cache: dict = {}


# ---------------------------------------------------------------------------
# Task functions
# ---------------------------------------------------------------------------
def _task_ping(state, meta, inputs):
    """No-op round trip (pool plumbing tests)."""
    return "pong", {}


def _task_echo(state, meta, inputs):
    """Returns its descriptor (pool plumbing tests)."""
    return meta, {}


def _task_raise(state, meta, inputs):
    """Raises a ValueError (error-propagation tests)."""
    raise ValueError(meta.get("message", "injected task error"))


def _task_sleep(state, meta, inputs):
    """Sleeps ``meta['seconds']`` (hang-supervision tests)."""
    time.sleep(float(meta.get("seconds", 0.0)))
    return "slept", {}


def _task_scale(state, meta, inputs):
    """Multiplies every input array by ``meta['factor']`` (shm tests)."""
    factor = meta.get("factor", 2.0)
    return None, {name: array * factor for name, array in inputs.items()}


def _task_decode(state, meta, inputs):
    """One batch decode through the worker's PlanCache."""
    if meta.get("cache_drop"):
        # A FaultPlan ``cache_drop`` verdict, drawn by the service for
        # this batch attempt: evict the LRU entry before the lookup.
        state.cache.drop_oldest()
    entry = state.cache.get(meta["mode"], meta["config"])
    result = entry.decoder.decode(inputs["llr"])
    outputs = {
        "bits": result.bits,
        "llr": result.llr,
        "iterations": result.iterations,
        "converged": result.converged,
        "et_stopped": result.et_stopped,
    }
    return {"n_info": result.n_info}, outputs


def _task_sweep_chunks(state, meta, inputs):
    """Run a group of Monte-Carlo sweep chunks, one deterministic stream
    per chunk (see :mod:`repro.runtime.engine`); returns per-chunk
    statistics so the parent can reduce in exact serial chunk order."""
    from repro.encoder import make_encoder
    from repro.runtime.engine import SCHEDULES, decode_chunk

    key = meta["cache_key"]
    cached = state.sweep_cache.get(key)
    if cached is None:
        decoder_cls = SCHEDULES[meta["schedule"]]
        decoder = decoder_cls(meta["code"], meta["config"])
        encoder = make_encoder(meta["code"])
        state.sweep_cache.clear()
        state.sweep_cache[key] = cached = (decoder, encoder)
    decoder, encoder = cached
    results = []
    for chunk_index, frames in meta["chunks"]:
        point = decode_chunk(
            decoder,
            encoder,
            meta["modulator"],
            meta["seed"],
            meta["ebn0_db"],
            chunk_index,
            frames,
            meta["batch_size"],
            channel=meta.get("channel", "awgn"),
        )
        results.append((chunk_index, point.to_dict()))
    return results, {}


TASKS = {
    "ping": _task_ping,
    "echo": _task_echo,
    "raise": _task_raise,
    "sleep": _task_sleep,
    "scale": _task_scale,
    "decode": _task_decode,
    "sweep_chunks": _task_sweep_chunks,
}


# ---------------------------------------------------------------------------
# Worker main loop
# ---------------------------------------------------------------------------
def run_task(state: WorkerState, kind: str, meta, shm_spec) -> object:
    """Execute one process-worker task against ``state``; returns the
    queue payload.

    Split from :func:`worker_main` so the task path (segment attach,
    input copy, dispatch, output write-back) is unit-testable in
    process — the loop around it is the only part that needs a real
    child.
    """
    func = TASKS[kind]
    if shm_spec is None:
        payload, outputs = func(state, meta, {})
        if outputs:
            raise RuntimeError(f"task {kind!r} produced arrays without a segment")
        return payload
    segment_name, input_specs, output_specs = shm_spec
    shm = shared_memory.SharedMemory(name=segment_name)
    try:
        inputs = read_arrays(shm.buf, input_specs)
        payload, outputs = func(state, meta, inputs)
        write_arrays(shm.buf, output_specs, outputs)
    finally:
        # Attach-per-task: the parent owns (and eventually unlinks) the
        # segment; the worker never keeps a mapping across tasks, so
        # retiring or growing segments needs no cross-process protocol.
        shm.close()
    return payload


def scripted_crash(directive) -> bool:
    """Carry out a FaultPlan worker directive ahead of its task: sleep
    out a scripted hang, and say whether the worker is to die instead."""
    if directive is None:
        return False
    if "hang" in directive:
        time.sleep(float(directive["hang"]))
    return "crash" in directive


def peak_rss_mb() -> float:
    """This process's peak resident set, MB (Linux reports KiB).

    A forked worker's peak starts from its resident set at the fork, so
    it measures the worker alone, shared copy-on-write pages included.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _next_task(tasks, parent_sentinel: int, parent_pid: int):
    """Block for the next task; ``None`` once the parent is gone.

    The parent's sentinel reads ready when its end of the pipe closes,
    which a parent killed by a signal does too.  Siblings forked later
    inherit that end, so the wait also wakes every
    :data:`PARENT_POLL_S` to compare ``getppid()``: a reparented worker
    has lost its parent even while a sibling holds the pipe open.
    """
    while True:
        ready = connection.wait([tasks, parent_sentinel], timeout=PARENT_POLL_S)
        if tasks in ready:
            return tasks.recv()
        if ready or os.getppid() != parent_pid:
            return None


def _drop_inherited_sockets() -> None:
    """Point every inherited socket descriptor (stdio aside) at the
    null device.

    A forked worker holds a copy of each descriptor its parent had open
    at the fork: in a :class:`~repro.server.DecodeServer`, the listening
    socket and the client connections of that moment.  While a copy
    lives, the parent's close sends no FIN and a closed listener keeps
    completing handshakes into a backlog nobody serves.  The worker's
    own descriptors (task pipe, result queue, parent sentinel, resource
    tracker) are pipes.  ``dup2`` rather than ``close``: an inherited
    socket object the worker later garbage-collects then closes the
    null device, not whatever the worker has opened under that number.
    """
    try:
        names = os.listdir("/proc/self/fd")
    except OSError:
        try:
            names = os.listdir("/dev/fd")
        except OSError:  # pragma: no cover — no descriptor listing
            return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for name in names:
            fd = int(name)
            if fd <= 2 or fd == null:
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd, inheritable=False)
            except OSError:
                continue  # closed since the listing (the listing's own)
    finally:
        os.close(null)


def worker_main(tasks, results) -> None:
    """Process worker entry point: loop until the ``None`` sentinel
    arrives or the parent dies."""
    _drop_inherited_sockets()
    parent = multiprocessing.parent_process()
    state = WorkerState()
    while (item := _next_task(tasks, parent.sentinel, parent.pid)) is not None:
        task_id, kind, meta, shm_spec, directive = item
        if scripted_crash(directive):
            os._exit(CRASH_EXIT_CODE)
        try:
            # The parent pickled ``meta`` once, in submit.
            payload = run_task(state, kind, pickle.loads(meta), shm_spec)
        except Exception as exc:  # delivered to the future
            try:
                results.put((task_id, "error", exc, peak_rss_mb()))
            except Exception:
                # Unpicklable exception: degrade to its repr rather
                # than dying (which would turn a task error into a
                # spurious worker crash).
                results.put((
                    task_id, "error",
                    RuntimeError(f"worker task failed: {exc!r}"),
                    peak_rss_mb(),
                ))
        else:
            results.put((task_id, "ok", payload, peak_rss_mb()))


__all__ = [
    "ALIGNMENT",
    "CRASH_EXIT_CODE",
    "TASKS",
    "WorkerState",
    "decode_out_spec",
    "plan_layout",
    "read_arrays",
    "run_task",
    "scripted_crash",
    "worker_main",
    "write_arrays",
]
