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
- :class:`WorkerPool` is the one persistent *supervised* pool under
  the decode service (:mod:`repro.service`) and the sweep engine: its
  workers are threads or forked processes, and either kind runs the
  same named tasks.  It detects crashed and hung workers, fails their
  futures with a typed error and respawns replacements.  Process
  workers keep their own plan caches and take arrays through shared
  memory; :func:`shared_process_pool` keeps one process pool alive per
  worker count for the whole interpreter;
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
from repro.runtime.faults import FAULT_SITES, FaultPlan
from repro.runtime.parallel import (
    WorkerPool,
    shared_process_pool,
    shutdown_shared_pools,
)

__all__ = [
    "FAULT_SITES",
    "FaultPlan",
    "SCHEDULES",
    "SweepCheckpoint",
    "SweepEngine",
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
