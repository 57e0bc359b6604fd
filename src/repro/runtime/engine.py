"""Parallel Monte-Carlo sweep engine.

The Fig. 9/Table 3 exhibits and every BER waterfall are Monte-Carlo
sweeps: (code, decoder config, Eb/N0 grid, frame budget).  The seed
harness walked the grid serially on one core.  This module shards that
work into **chunks** — ``(Eb/N0 point, chunk index, frame count)`` work
items — and executes them either in-process or across the persistent
process :class:`~repro.runtime.parallel.WorkerPool` shared by all
sweeps in the interpreter, with three invariants that make the
parallelism invisible in the results:

1. **Deterministic child streams.**  Every chunk draws from
   ``np.random.SeedSequence(seed, spawn_key=(point_key, chunk))`` where
   ``point_key`` is the Eb/N0 value's own 64-bit pattern.  Chunk streams
   are therefore independent by SeedSequence's spawning guarantees, a
   chunk's data does not depend on which worker runs it or when, and a
   point's statistics do not depend on its position in the sweep list.
2. **Exact reduction.**  Chunk statistics combine through
   :meth:`~repro.analysis.ber.SnrPoint.merge` (integer sums plus one
   float total) *in chunk order*, so a parallel run reproduces the
   serial run bit for bit.  The early-stop budget (``min_frame_errors``)
   is applied at chunk granularity during the reduction: chunk ``c``
   counts iff the merged statistics of chunks ``0..c-1`` are still under
   budget — exactly the serial semantics.  Parallel workers may compute
   a few chunks beyond the stop speculatively; those results are simply
   not merged.
3. **Checkpoint/resume.**  With ``checkpoint_path`` set, every finished
   chunk is persisted as JSON (see
   :class:`~repro.runtime.checkpoint.SweepCheckpoint`); an interrupted
   sweep resumes from the completed chunks, and a finished checkpoint
   replays with zero decoding work.

On top of those, ``workers >= 2`` is a *request*, not a command: the
engine first decodes one calibration chunk serially (its statistics are
merged, nothing is wasted), then estimates the remaining work from it
and hands that, the task count and the usable cores to
:func:`executor_verdict`.  The verdict is a pure function of those
numbers and two documented constants (:data:`TASK_OVERHEAD_S`,
:data:`PARALLEL_MARGIN_S`), so it probes nothing; the process path is
taken only when parallelism pays, otherwise the sweep silently runs
serial.  The verdict lands in :attr:`SweepEngine.last_decision`;
``force_parallel=True`` bypasses the gate for tests that must exercise
the pool.  Chunks keep their budget-granularity size regardless (the
chunk partition *is* the RNG stream partition); amortization instead
comes from grouping consecutive chunks of one point into tasks of
roughly ``target_task_s`` seconds, each returning per-chunk statistics
so the ordered reduction is untouched.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from repro.analysis.ber import SnrPoint
from repro.channel.fading import CHANNELS, make_channel
from repro.channel.llr import ChannelFrontend
from repro.channel.modulation import BPSKModulator
from repro.codes.qc import QCLDPCCode
from repro.decoder.api import DecoderConfig
from repro.decoder.flooding import FloodingDecoder
from repro.decoder.layered import LayeredDecoder
from repro.encoder import make_encoder
from repro.errors import SimulationError
from repro.runtime.checkpoint import SweepCheckpoint, chunk_key
from repro.runtime.parallel import shared_process_pool, usable_cores

#: Decode schedules the engine can build in a worker process.
SCHEDULES = {"layered": LayeredDecoder, "flooding": FloodingDecoder}

#: Chunk results buffered between checkpoint writes.  Each flush
#: rewrites the whole JSON file, so flushing per chunk would make long
#: checkpointed sweeps quadratic in serialization; batching keeps the
#: cost linear while bounding work lost to a crash to this many chunks.
CHECKPOINT_FLUSH_EVERY = 16

#: Seconds one pool task costs on top of its decode work: the descriptor
#: pickle, the task-pipe and result-queue hops and the wake-ups between
#: them.  A no-op ``ping`` round trip through a warm pool measured
#: 0.06–0.15 ms on a 2-vCPU VM; this is the top of that range.
TASK_OVERHEAD_S = 0.15e-3

#: Seconds of margin for what the per-task cost leaves out: result
#: pickling, the per-chunk merge and one cold plan compile per worker.
PARALLEL_MARGIN_S = 0.05


# ---------------------------------------------------------------------------
# Deterministic chunk streams
# ---------------------------------------------------------------------------
def point_key(ebn0_db: float) -> int:
    """Order-independent integer identity of one Eb/N0 operating point.

    The float's own 64-bit pattern: exact, collision-free, and stable
    whether the point is simulated alone, first, or last in a sweep.
    """
    return int(np.float64(ebn0_db).view(np.uint64))


def chunk_seed_sequence(
    seed: int, ebn0_db: float, chunk_index: int
) -> np.random.SeedSequence:
    """The :class:`~numpy.random.SeedSequence` of one work item.

    Replaces the seed harness's ad-hoc float-bit/modulo seed mixing:
    spawn keys give provably independent streams for every
    ``(seed, point, chunk)`` triple, which is what makes speculative
    parallel execution statistically safe.
    """
    if chunk_index < 0:
        raise ValueError("chunk_index must be non-negative")
    return np.random.SeedSequence(
        seed, spawn_key=(point_key(ebn0_db), chunk_index)
    )


def chunk_rng(seed: int, ebn0_db: float, chunk_index: int) -> np.random.Generator:
    """A fresh generator on the chunk's independent stream."""
    return np.random.default_rng(chunk_seed_sequence(seed, ebn0_db, chunk_index))


def plan_chunks(max_frames: int, chunk_frames: int) -> list[int]:
    """Split a frame budget into chunk sizes (last chunk may be short)."""
    if max_frames < 1 or chunk_frames < 1:
        raise SimulationError("max_frames and chunk_frames must be >= 1")
    full, rest = divmod(max_frames, chunk_frames)
    return [chunk_frames] * full + ([rest] if rest else [])


# ---------------------------------------------------------------------------
# Chunk execution
# ---------------------------------------------------------------------------
def decode_chunk(
    decoder,
    encoder,
    modulator,
    seed: int,
    ebn0_db: float,
    chunk_index: int,
    frames: int,
    batch_size: int,
    channel: str = "awgn",
) -> SnrPoint:
    """Simulate one chunk: encode → modulate → channel → decode → count.

    Runs exactly ``frames`` frames in batches of ``batch_size`` on the
    chunk's own RNG stream; the error budget is *not* consulted here
    (that happens in the ordered reduction, see module docstring).
    ``channel`` names a :data:`repro.channel.fading.CHANNELS` factory
    (``"awgn"`` default, ``"rayleigh"`` block fading); the channel draws
    from the chunk's own stream, so fading realizations are as
    deterministic per ``(seed, point, chunk)`` as the noise.
    """
    code = decoder.code
    rng = chunk_rng(seed, ebn0_db, chunk_index)
    chan = make_channel(
        channel, ebn0_db, code.rate, modulator.bits_per_symbol, rng=rng
    )
    frontend = ChannelFrontend(modulator, chan)
    point = SnrPoint(ebn0_db=ebn0_db, info_bits_per_frame=code.n_info)
    done = 0
    while done < frames:
        batch = min(batch_size, frames - done)
        info, codewords = encoder.random_codewords(batch, rng)
        result = decoder.decode(frontend.run(codewords))
        done += batch

        point.frames += batch
        point.bit_errors += result.bit_errors(info)
        point.frame_errors += result.frame_errors(info)
        point.iterations_sum += float(np.sum(result.iterations))
        point.converged_frames += int(np.count_nonzero(result.converged))
        point.et_frames += int(np.count_nonzero(result.et_stopped))
        values, counts = np.unique(result.iterations, return_counts=True)
        for v, c in zip(values, counts):
            point.iterations_hist[int(v)] = (
                point.iterations_hist.get(int(v), 0) + int(c)
            )
    return point


def executor_verdict(work_s: float, tasks: int, cores: int) -> tuple[str, str]:
    """``(executor, reason)`` for a sweep with ``work_s`` seconds of
    serial decode work left in ``tasks`` pool tasks, on ``cores``
    usable cores.

    ``"process"`` only when the parallel savings, ``work_s·(1 − 1/cores)``,
    beat the dispatch cost, ``TASK_OVERHEAD_S·tasks + PARALLEL_MARGIN_S``;
    else ``"serial"``.  A pure function of the calibration numbers, so
    a loaded host can slow the calibration but never flip the verdict
    for given numbers.
    """
    if cores < 2:
        return "serial", (
            f"only {cores} usable core(s); process parallelism cannot "
            "beat serial"
        )
    overhead_s = TASK_OVERHEAD_S * tasks + PARALLEL_MARGIN_S
    savings_s = work_s * (1.0 - 1.0 / cores)
    if savings_s > overhead_s:
        return "process", (
            f"estimated parallel savings {savings_s:.3f}s > "
            f"overhead {overhead_s:.3f}s"
        )
    return "serial", (
        f"estimated parallel savings {savings_s:.3f}s <= "
        f"overhead {overhead_s:.3f}s"
    )


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
class SweepEngine:
    """Sharded Monte-Carlo sweep executor (see module docstring).

    Parameters
    ----------
    code:
        The LDPC code under test.
    config:
        Decoder configuration (paper defaults if omitted).
    schedule:
        ``"layered"`` (default) or ``"flooding"``.
    modulator:
        Defaults to BPSK.
    channel:
        Channel model by name: ``"awgn"`` (default) or ``"rayleigh"``
        (per-frame block fading, see
        :class:`~repro.channel.fading.RayleighBlockFadingChannel`).
        Fading realizations ride the per-chunk RNG streams, so results
        stay independent of ``workers``.
    seed:
        Master seed; chunk streams derive from it via
        :func:`chunk_seed_sequence`.
    workers:
        ``0``/``1`` executes chunks in-process (serial); ``>= 2``
        *requests* the shared persistent process pool of that size —
        :func:`executor_verdict` may still choose serial when
        parallelism cannot pay, and never counts more workers than
        :func:`~repro.runtime.parallel.usable_cores`.  The results are
        identical either way; the verdict is recorded in
        :attr:`last_decision`.
    chunk_frames:
        Frames per work item; defaults to the ``batch_size`` of each run,
        which makes the serial engine check the error budget with the
        same granularity as the seed harness did.  The chunk partition
        also fixes the per-chunk RNG streams, so it is *never* resized
        behind the caller's back — per-task overhead is amortized by
        grouping chunks into tasks instead (``target_task_s``).
    checkpoint_path:
        Optional JSON checkpoint file (see
        :class:`~repro.runtime.checkpoint.SweepCheckpoint`).
    decoder, encoder:
        Optional prebuilt decoder/encoder for in-process execution —
        used by :meth:`repro.link.Link.sweep` so repeated serial calls
        reuse one compiled plan and one encoder elimination.  Ignored
        by pool workers (they build and cache their own).
    target_task_s:
        Aimed-for seconds of decode work per pool task; the engine
        packs ``round(target_task_s / measured_chunk_seconds)``
        consecutive chunks of one point into each ``sweep_chunks``
        task.  Statistics stay per-chunk, so this affects scheduling
        only, never results.
    force_parallel:
        Take the process path whenever there is work to run, skipping
        :func:`executor_verdict` — for tests that must exercise the
        pool even where it cannot win.
    pool:
        Optional explicit process :class:`~repro.runtime.parallel.WorkerPool`;
        defaults to :func:`~repro.runtime.parallel.shared_process_pool`
        for the requested worker count, reused across every sweep in
        the interpreter.

    Examples
    --------
    >>> from repro.codes import get_code
    >>> engine = SweepEngine(get_code("802.16e:1/2:z24"), seed=1)
    >>> [point] = engine.run([2.0], max_frames=20, batch_size=20)
    >>> point.frames
    20
    """

    def __init__(
        self,
        code: QCLDPCCode,
        config: DecoderConfig | None = None,
        schedule: str = "layered",
        modulator=None,
        channel: str = "awgn",
        seed: int = 0,
        workers: int = 0,
        chunk_frames: int | None = None,
        checkpoint_path=None,
        decoder=None,
        encoder=None,
        target_task_s: float = 0.05,
        force_parallel: bool = False,
        pool=None,
    ):
        if schedule not in SCHEDULES:
            raise SimulationError(
                f"unknown schedule {schedule!r}; valid: {tuple(SCHEDULES)}"
            )
        if channel not in CHANNELS:
            raise SimulationError(
                f"unknown channel {channel!r}; valid: {tuple(CHANNELS)}"
            )
        if workers < 0:
            raise SimulationError("workers must be non-negative")
        if chunk_frames is not None and chunk_frames < 1:
            raise SimulationError("chunk_frames must be >= 1")
        if target_task_s <= 0:
            raise SimulationError("target_task_s must be positive")
        self.code = code
        self.config = config if config is not None else DecoderConfig()
        self.schedule = schedule
        self.modulator = modulator if modulator is not None else BPSKModulator()
        self.channel = channel
        self.seed = seed
        self.workers = workers
        self.chunk_frames = chunk_frames
        self.checkpoint_path = checkpoint_path
        self.target_task_s = float(target_task_s)
        self.force_parallel = bool(force_parallel)
        #: Executor verdict of the most recent :meth:`run` — executor
        #: chosen, reason, calibration measurements, task sizing.
        self.last_decision: "dict | None" = None
        self._pool = pool
        self._decoder = decoder
        self._encoder = encoder
        # Structural identity of (code, config, schedule): worker-side
        # plan caching and the checkpoint fingerprint both key on it.
        digest = hashlib.sha1()
        digest.update(code.base.entries.tobytes())
        digest.update(str(code.z).encode())
        digest.update(repr(self.config).encode())
        digest.update(schedule.encode())
        digest.update(type(self.modulator).__name__.encode())
        digest.update(channel.encode())
        self._cache_key = digest.hexdigest()

    # ------------------------------------------------------------------
    # Serial execution helpers
    # ------------------------------------------------------------------
    def _serial_decoder(self):
        if self._decoder is None:
            self._decoder = SCHEDULES[self.schedule](self.code, self.config)
        return self._decoder

    def _serial_encoder(self):
        if self._encoder is None:
            self._encoder = make_encoder(self.code)
        return self._encoder

    def _group_payload(self, ebn0_db, chunks, batch_size) -> dict:
        """Descriptor of one ``sweep_chunks`` pool task.

        ``chunks`` is ``[(chunk_index, frames), ...]`` — consecutive
        chunks of one point, each run on its own RNG stream and
        returned individually so the parent merges in chunk order.
        """
        return {
            "cache_key": self._cache_key,
            "code": self.code,
            "config": self.config,
            "schedule": self.schedule,
            "modulator": self.modulator,
            "channel": self.channel,
            "seed": self.seed,
            "ebn0_db": ebn0_db,
            "chunks": list(chunks),
            "batch_size": batch_size,
        }

    def _make_checkpoint(
        self, max_frames, min_frame_errors, batch_size, chunk_frames
    ) -> SweepCheckpoint | None:
        if self.checkpoint_path is None:
            return None
        fingerprint = {
            "seed": self.seed,
            "schedule": self.schedule,
            "channel": self.channel,
            "code": self._cache_key,
            "code_name": self.code.name,
            "config": repr(self.config),
            "max_frames": max_frames,
            "min_frame_errors": min_frame_errors,
            "batch_size": batch_size,
            "chunk_frames": chunk_frames,
        }
        return SweepCheckpoint(self.checkpoint_path, fingerprint)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run_point(
        self,
        ebn0_db: float,
        max_frames: int = 1000,
        min_frame_errors: int = 50,
        batch_size: int = 100,
    ) -> SnrPoint:
        """Simulate one operating point (see :meth:`run`)."""
        return self.run(
            [ebn0_db],
            max_frames=max_frames,
            min_frame_errors=min_frame_errors,
            batch_size=batch_size,
        )[0]

    def run(
        self,
        ebn0_list,
        max_frames: int = 1000,
        min_frame_errors: int = 50,
        batch_size: int = 100,
    ) -> list[SnrPoint]:
        """Simulate a list of Eb/N0 points.

        Each point stops after ``min_frame_errors`` frame errors (checked
        at chunk granularity, in chunk order) or ``max_frames`` frames,
        whichever comes first.  Statistics are independent of ``workers``
        and of the point's position in ``ebn0_list``.
        """
        # Reset up front, not only on success: if validation, planning
        # or the run itself raises, a stale verdict from the previous
        # run must not survive to describe this one.
        self.last_decision = None
        if max_frames < 1 or batch_size < 1:
            raise SimulationError("max_frames and batch_size must be >= 1")
        points = [float(ebn0) for ebn0 in ebn0_list]
        chunk_frames = (
            self.chunk_frames if self.chunk_frames is not None else batch_size
        )
        sizes = plan_chunks(max_frames, chunk_frames)
        checkpoint = self._make_checkpoint(
            max_frames, min_frame_errors, batch_size, chunk_frames
        )
        precomputed: dict = {}
        if self.workers >= 2 or self.force_parallel:
            decision, precomputed = self._plan_execution(
                checkpoint, points, sizes, batch_size,
                max_frames, min_frame_errors,
            )
        else:
            decision = {"executor": "serial", "reason": "workers < 2",
                        "requested_workers": self.workers}
        self.last_decision = decision
        if decision["executor"] == "process":
            pool = self._pool
            if pool is None or getattr(pool, "closed", False):
                pool = shared_process_pool(decision["requested_workers"])
            return self._run_parallel(
                pool, checkpoint, points, sizes, batch_size,
                max_frames, min_frame_errors,
                decision["chunks_per_task"], precomputed,
            )
        return [
            self._run_point_serial(
                checkpoint, ebn0, sizes, batch_size,
                max_frames, min_frame_errors, precomputed,
            )
            for ebn0 in points
        ]

    def _empty_point(self, ebn0: float) -> SnrPoint:
        return SnrPoint(ebn0_db=ebn0, info_bits_per_frame=self.code.n_info)

    def _store(self, checkpoint, key: str, chunk: SnrPoint, unflushed: int) -> int:
        """Buffered checkpoint write; returns the new unflushed count."""
        checkpoint.store(key, chunk, flush=False)
        unflushed += 1
        if unflushed >= CHECKPOINT_FLUSH_EVERY:
            checkpoint.flush()
            unflushed = 0
        return unflushed

    @staticmethod
    def _budget_hit(merged, max_frames: int, min_frame_errors: int) -> bool:
        return (
            merged.frames >= max_frames
            or merged.frame_errors >= min_frame_errors
        )

    # ------------------------------------------------------------------
    # Executor choice: calibrate, then take parallelism only if it pays
    # ------------------------------------------------------------------
    def _plan_execution(
        self, checkpoint, points, sizes, batch_size,
        max_frames, min_frame_errors,
    ) -> tuple[dict, dict]:
        """Measure one chunk serially, then pick the executor.

        Returns ``(decision, precomputed)`` where ``precomputed`` maps
        ``(point_key, chunk_index)`` to the calibration chunk's
        statistics — merged later by whichever path runs, so the
        measurement is never wasted work.  The remaining-work scan
        replays checkpointed chunks through the budget check, so a
        point whose error budget is already proven hit contributes no
        work (and a fully budget-complete checkpoint skips calibration
        entirely — resume stays decode-free).  Past the first *missing*
        chunk of a point the budget state is unknowable without
        decoding, so the estimate assumes the rest of that point's
        frame budget runs; that only ever biases the gate *toward*
        parallel, and the floor stays "never slower than serial"
        because a sweep short enough to overestimate is also short
        enough that the shared pool's per-task overhead is all that's
        at stake.
        """
        requested = max(2, self.workers)
        decision = {
            "executor": "serial",
            "reason": "",
            "requested_workers": requested,
            "effective_workers": min(requested, usable_cores()),
            "chunks_per_task": 1,
            "calibration_s": None,
            "frames_per_s": None,
            "estimated_work_s": 0.0,
        }
        probe = None
        remaining_frames = 0
        remaining_chunks = 0
        for ebn0 in points:
            merged = self._empty_point(ebn0)
            for c, frames_c in enumerate(sizes):
                if merged is not None and self._budget_hit(
                    merged, max_frames, min_frame_errors
                ):
                    break  # point proven complete by checkpointed chunks
                chunk = (
                    checkpoint.get(chunk_key(ebn0, c))
                    if checkpoint is not None else None
                )
                if chunk is not None:
                    if merged is not None:
                        merged = merged.merge(chunk)
                    continue
                if probe is None:
                    probe = (ebn0, c, frames_c)
                remaining_frames += frames_c
                remaining_chunks += 1
                # Budget state past a missing chunk is unknowable
                # without decoding: count the rest of the point.
                merged = None
        if probe is None:
            decision["reason"] = "checkpoint already complete"
            return decision, {}
        ebn0_p, c_p, frames_p = probe
        t0 = time.perf_counter()
        chunk = decode_chunk(
            self._serial_decoder(), self._serial_encoder(), self.modulator,
            self.seed, ebn0_p, c_p, frames_p, batch_size,
            channel=self.channel,
        )
        elapsed = max(time.perf_counter() - t0, 1e-9)
        if checkpoint is not None:
            checkpoint.store(chunk_key(ebn0_p, c_p), chunk, flush=True)
        precomputed = {(point_key(ebn0_p), c_p): chunk}
        rate = frames_p / elapsed
        chunk_seconds = sizes[0] / rate
        chunks_per_task = max(1, round(self.target_task_s / chunk_seconds))
        estimated_work_s = (remaining_frames - frames_p) / rate
        decision.update(
            calibration_s=elapsed,
            frames_per_s=rate,
            chunks_per_task=chunks_per_task,
            estimated_work_s=estimated_work_s,
        )
        if self.force_parallel:
            decision.update(executor="process", reason="force_parallel")
            return decision, precomputed
        executor, reason = executor_verdict(
            estimated_work_s,
            -(-remaining_chunks // chunks_per_task),
            decision["effective_workers"],
        )
        decision.update(executor=executor, reason=reason)
        return decision, precomputed

    # ------------------------------------------------------------------
    # Serial execution: plain ordered loop
    # ------------------------------------------------------------------
    def _run_point_serial(
        self, checkpoint, ebn0, sizes, batch_size, max_frames,
        min_frame_errors, precomputed=None,
    ) -> SnrPoint:
        merged = self._empty_point(ebn0)
        unflushed = 0
        try:
            for c, frames_c in enumerate(sizes):
                if self._budget_hit(merged, max_frames, min_frame_errors):
                    break
                chunk = (
                    precomputed.get((point_key(ebn0), c))
                    if precomputed else None
                )
                if chunk is None:
                    key = chunk_key(ebn0, c)
                    chunk = (
                        checkpoint.get(key) if checkpoint is not None else None
                    )
                    if chunk is None:
                        chunk = decode_chunk(
                            self._serial_decoder(), self._serial_encoder(),
                            self.modulator, self.seed, ebn0, c, frames_c,
                            batch_size, channel=self.channel,
                        )
                        if checkpoint is not None:
                            unflushed = self._store(
                                checkpoint, key, chunk, unflushed
                            )
                merged = merged.merge(chunk)
        finally:
            if checkpoint is not None and unflushed:
                checkpoint.flush()
        return merged

    # ------------------------------------------------------------------
    # Parallel execution: the shared persistent pool, chunk groups,
    # speculative submission ahead of the ordered merge frontier
    # ------------------------------------------------------------------
    def _run_parallel(
        self, pool, checkpoint, points, sizes, batch_size,
        max_frames, min_frame_errors, chunks_per_task, precomputed,
    ) -> list[SnrPoint]:
        # One flattened group list across all points keeps the pool
        # saturated through point boundaries (points are independent, so
        # point i+1's groups can run while point i's merge drains).  A
        # group is up to `chunks_per_task` consecutive chunks of one
        # point — big enough to amortize dispatch, returned per-chunk so
        # the ordered merge (and its budget stop) is exactly serial.
        # The lookahead window bounds speculative work: an early budget
        # stop wastes at most `window` groups, and `finished` points are
        # skipped by later submissions.
        num_chunks = len(sizes)
        starts = list(range(0, num_chunks, chunks_per_task))
        groups = [(ebn0, start) for ebn0 in points for start in starts]
        window = 2 * max(2, self.workers)
        futures: dict[tuple, object] = {}
        ready: dict[tuple, SnrPoint] = {}
        finished: set[float] = set()
        cursor = 0
        unflushed = 0

        def group_chunks(ebn0_t: float, start: int) -> list[tuple[int, int]]:
            chunks = []
            for c in range(start, min(start + chunks_per_task, num_chunks)):
                if (point_key(ebn0_t), c) in precomputed:
                    continue
                if (ebn0_t, c) in ready:
                    continue
                if (
                    checkpoint is not None
                    and checkpoint.get(chunk_key(ebn0_t, c)) is not None
                ):
                    continue
                chunks.append((c, sizes[c]))
            return chunks

        def submit_through(index: int) -> None:
            nonlocal cursor
            end = min(len(groups), index + 1 + window)
            while cursor < end:
                ebn0_t, start_t = groups[cursor]
                cursor += 1
                if ebn0_t in finished or (ebn0_t, start_t) in futures:
                    continue
                chunks = group_chunks(ebn0_t, start_t)
                if not chunks:
                    continue
                futures[(ebn0_t, start_t)] = pool.submit(
                    "sweep_chunks",
                    self._group_payload(ebn0_t, chunks, batch_size),
                )

        def collect(future, ebn0_t: float) -> None:
            for c_done, chunk_dict in future.result():
                ready[(ebn0_t, c_done)] = SnrPoint.from_dict(chunk_dict)

        results = []
        try:
            for pi, ebn0 in enumerate(points):
                merged = self._empty_point(ebn0)
                for c, frames_c in enumerate(sizes):
                    if self._budget_hit(merged, max_frames, min_frame_errors):
                        break
                    submit_through(pi * len(starts) + c // chunks_per_task)
                    chunk = precomputed.get((point_key(ebn0), c))
                    if chunk is None:
                        key = chunk_key(ebn0, c)
                        chunk = (
                            checkpoint.get(key)
                            if checkpoint is not None else None
                        )
                        if chunk is None:
                            chunk = ready.pop((ebn0, c), None)
                            if chunk is None:
                                start = (c // chunks_per_task) * chunks_per_task
                                future = futures.pop((ebn0, start), None)
                                if future is None:
                                    # Only reachable when the same Eb/N0
                                    # value appears twice in one sweep
                                    # (the first occurrence consumed the
                                    # group's future).
                                    future = pool.submit(
                                        "sweep_chunks",
                                        self._group_payload(
                                            ebn0, [(c, frames_c)], batch_size
                                        ),
                                    )
                                collect(future, ebn0)
                                chunk = ready.pop((ebn0, c))
                            if checkpoint is not None:
                                unflushed = self._store(
                                    checkpoint, key, chunk, unflushed
                                )
                    merged = merged.merge(chunk)
                finished.add(ebn0)
                results.append(merged)
        finally:
            for future in futures.values():
                future.cancel()
            if checkpoint is not None and unflushed:
                checkpoint.flush()
        return results
