"""Execution runtime: parallel sweep sharding, checkpointing, pooling.

The decoding core (:mod:`repro.decoder`) stays sequential per call —
one compiled plan, one working batch — but its compiled plans are
thread-shareable (working buffers are thread-local).  Scaling happens
here:

- :class:`SweepEngine` shards (point, chunk) work items across a process
  pool with deterministic per-chunk RNG streams and exact ordered
  reduction — a parallel sweep reproduces the serial one bit for bit;
- :class:`SweepCheckpoint` persists finished chunks as JSON for
  resume-after-interrupt;
- :class:`WorkerPool` is the persistent named *supervised* thread pool
  the decode service (:mod:`repro.service`) dispatches batches onto —
  it detects crashed and hung workers, fails their futures with a typed
  error and respawns replacements;
- :class:`ProcessWorkerPool` is its process-sharded sibling (ROADMAP
  item 2a): persistent supervised worker processes with per-worker plan
  caches and shared-memory array transport; :func:`shared_process_pool`
  keeps one alive per worker count for the whole interpreter;
- :class:`FaultPlan` scripts deterministic fault injection (payload
  corruption, worker crash/stall, backend errors, cache drops) for the
  chaos tests.
"""

from repro.runtime.checkpoint import SweepCheckpoint, chunk_key
from repro.runtime.engine import (
    SCHEDULES,
    SweepEngine,
    chunk_rng,
    chunk_seed_sequence,
    decode_chunk,
    plan_chunks,
    point_key,
)
from repro.runtime.faults import FAULT_SITES, FaultPlan, WorkerKilled
from repro.runtime.parallel import (
    ProcessWorkerPool,
    WorkerPool,
    shared_process_pool,
    shutdown_shared_pools,
)

__all__ = [
    "FAULT_SITES",
    "FaultPlan",
    "ProcessWorkerPool",
    "SCHEDULES",
    "SweepCheckpoint",
    "SweepEngine",
    "WorkerKilled",
    "WorkerPool",
    "chunk_key",
    "chunk_rng",
    "chunk_seed_sequence",
    "decode_chunk",
    "plan_chunks",
    "point_key",
    "shared_process_pool",
    "shutdown_shared_pools",
]
