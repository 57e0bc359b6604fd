"""Dynamic-batching multi-standard decode service.

The chip's operating condition is a continuous stream of frames from
many users across *mixed* standards: WiMax, WLAN and DMB-T traffic
multiplexed through one datapath, with the mode ROM re-targeting the
controller per frame class.  :class:`DecodeService` models exactly that
serving problem in software:

- clients :meth:`~DecodeService.submit` per-request LLR batches tagged
  with a registry mode and a :class:`~repro.decoder.DecoderConfig`;
- a dispatcher groups pending requests by ``(mode,
  config.cache_key())``; a group falls due when it reaches
  ``max_batch`` frames (**size trigger**) or its oldest request has
  waited ``max_wait`` seconds (**deadline trigger**) — the standard
  dynamic-batching contract (cf. the NoC-based flexible decoder of
  Condo & Masera and multi-stream GPU LDPC decoders, which win the same
  way: batch independent frames per code to amortize per-code setup);
- dispatch is **work-conserving**: a due group leaves as soon as a
  worker is free, earliest-due first, and no sooner — while every
  worker is busy it keeps waiting in its bucket, where later arrivals
  of the same group join it, so a loaded service decodes big batches
  instead of queueing one-frame batches behind its workers;
- dispatched batches decode on supervised worker processes, one per
  usable core and forked on demand (one thread on a one-core host),
  through decoders cached per worker in a
  :class:`~repro.service.PlanCache`, so a mode switch is a cache hit;
- every request resolves a future with its own
  :class:`~repro.decoder.DecodeResult` slice, delivered in **per-client
  FIFO order** (request *k* of a client never resolves before request
  *k-1*, whatever batches they landed in).

The chip keeps its pipeline alive across mode switches by design; the
service keeps its futures alive across *failures* by design — the
robustness contract (PR 6):

- **No future ever hangs silently.**  Every admitted request resolves
  with a result or a typed :class:`~repro.errors.ServiceError`:
  :class:`~repro.errors.DeadlineExceeded` (per-request ``timeout=``),
  :class:`~repro.errors.ServiceOverloaded` (admission control),
  :class:`~repro.errors.WorkerCrashedError` (a lost worker, once
  retries are exhausted), or :class:`~repro.errors.ServiceClosedError`
  (the close-drain safety net).  ``submit`` after :meth:`close` raises
  :class:`~repro.errors.ServiceClosedError` synchronously, and the
  close-vs-submit race is deterministic: a submit either raises it or
  its future is guaranteed drain delivery.
- **Bounded admission.**  ``queue_limit`` caps queued frames with an
  explicit ``overload_policy`` (``reject`` / ``block`` / ``shed-oldest``,
  see :class:`~repro.service.admission.AdmissionPolicy`) and
  ``client_quota`` caps any one client's outstanding requests.
- **Transient failures retry.**  A :class:`~repro.service.RetryPolicy`
  replays retryable decode failures with exponential backoff, splitting
  merged batches so one poisoned request cannot fail its batch-mates.
- **Chaos is first-class.**  A seeded
  :class:`~repro.runtime.faults.FaultPlan` (``faults=``) can corrupt
  payloads, crash/stall workers, and fail batch decodes at scripted
  event indices; ``tests/test_service_faults.py`` reconciles the
  service metrics against the plan's injection counts.

Correctness rests on a property the backend contract already pins
(``tests/test_backend_properties.py``): every kernel, monitor and the
compaction bookkeeping are elementwise along the batch axis, so a
dynamically merged batch decodes frame-for-frame identically to each
request decoded alone.  The service stress test
(``tests/test_service_stress.py``) asserts that end to end.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.arch.datapath import DMBT_CHIP, PAPER_CHIP
from repro.channel.snr_estimate import estimate_snr
from repro.codes.qc import QCLDPCCode
from repro.codes.registry import describe_mode, get_code
from repro.decoder.api import DecodeResult, DecoderConfig
from repro.errors import (
    DeadlineExceeded,
    ServiceClosedError,
    ServiceOverloaded,
)
from repro.power.model import PowerModel
from repro.runtime.parallel import WorkerPool, usable_cores
from repro.runtime.procworker import decode_out_spec
from repro.service.admission import AdmissionPolicy, RetryPolicy
from repro.service.cache import PlanCache
from repro.service.metrics import ServiceMetrics, prometheus_text
from repro.service.policy import DecodePolicy, service_default_config


@dataclass(eq=False)  # identity semantics: hashable, remove() by `is`
class _Request:
    """One queued decode request (internal)."""

    client: str
    seq: int
    mode: "str | QCLDPCCode"
    config: DecoderConfig
    llr: np.ndarray  # (B, N)
    frames: int
    future: Future
    submitted: float  # monotonic clock at submit
    key: tuple = None
    deadline: "float | None" = None
    dispatched: bool = False  # left the admission queue (guarded by _cond)
    resolved: bool = False    # outcome claimed (guarded by _delivery_lock)
    rule: "str | None" = None  # decode-policy rule that picked the config
    budget: int = 0  # per-frame iteration budget of the pre-policy config


@dataclass
class _Bucket:
    """Pending requests of one batch group, with a running frame count.

    The dispatcher polls every group on every wakeup; keeping ``frames``
    incrementally maintained makes that poll O(groups), not O(pending
    requests).  ``min_deadline`` is maintained as a running minimum on
    append only: after a mid-queue removal (shed or expiry) it may be
    stale-early, which at worst flushes the remaining batch a little
    sooner than strictly necessary — never later than a live deadline.
    """

    requests: deque = field(default_factory=deque)
    frames: int = 0
    min_deadline: "float | None" = None

    def append(self, request: _Request) -> None:
        self.requests.append(request)
        self.frames += request.frames
        if request.deadline is not None:
            if self.min_deadline is None or request.deadline < self.min_deadline:
                self.min_deadline = request.deadline

    def popleft(self) -> _Request:
        request = self.requests.popleft()
        self.frames -= request.frames
        return request

    def remove(self, request: _Request) -> bool:
        """Drop one queued request (shed / expired); False if absent."""
        try:
            self.requests.remove(request)
        except ValueError:
            return False
        self.frames -= request.frames
        return True


class DecodeService:
    """Batching decode front-end over the cached multi-standard decoders.

    Parameters
    ----------
    max_batch:
        Frame budget per dispatched batch.  A group is due as soon as
        its pending frames reach this (requests are never split; one
        request larger than ``max_batch`` dispatches alone, oversized).
    max_wait:
        The earliest time, in seconds after its oldest request arrived,
        that a group may leave short of ``max_batch`` frames; it then
        goes as soon as a worker is free — at once on an idle service,
        which is what makes batching safe for sparse traffic.  The
        clock is anchored to the *oldest* pending request, so tail
        arrivals can never push an earlier request's dispatch out; and
        a request with a tight per-request ``timeout`` pulls its
        group's due time forward (to a full ``max_wait`` before that
        deadline), so batching can never consume a request's whole
        deadline budget.
    workers:
        Decode worker processes (or threads), and the bound on batches
        in flight: the dispatcher hands a batch to the pool only while
        fewer than ``workers`` are decoding, and a freed worker takes
        the group that fell due first.  Batches of *different* groups
        decode concurrently; within a group, dispatch order is
        preserved.  ``None`` (default) resolves once, at construction:
        one process per usable core (the CPUs in this process's
        affinity mask, capped by its cgroup CPU quota), or one thread.
        Decode threads share one interpreter lock: two decoded the
        serving mixes' batch sizes at 0.52–0.75× the speed of one on
        two cores, and on one core one thread beat two in 7 of 8
        paired serving-mix runs.
    cache:
        The :class:`PlanCache` to serve decoders from (default: a fresh
        cache of 32 records).  Thread workers decode from it.  Process
        workers decode from plan caches of their own, so under the
        process executor it serves no decode; what it builds before a
        worker forks — expanded codes and fixed-point ROMs — the worker
        inherits.
    default_config:
        Config for requests that do not carry one.  When omitted, the
        cache's default is adopted with its early-termination rule
        upgraded from the library default ``"paper"`` to the service
        tier's ``"paper-or-syndrome"`` (see
        :func:`~repro.service.policy.service_default_config`) — the
        PR 3 re-corruption residual fix.  An explicitly passed
        ``default_config`` is used verbatim.
    warm_modes:
        Modes (registry strings, codes, or a
        :class:`~repro.arch.mode_rom.ModeROM`) to compile eagerly at
        construction so the first request of each mode is already a
        cache hit.  Under the process executor the workers fork after
        this warm-up, so they inherit its codes and ROMs and compile
        only their own plans (~1 ms per mode).
    queue_limit / overload_policy / client_quota:
        Admission control — see
        :class:`~repro.service.admission.AdmissionPolicy`.  Defaults
        keep the pre-hardening behaviour (unbounded queue, no quotas).
    default_timeout:
        Per-request deadline (seconds) applied when ``submit`` is not
        given an explicit ``timeout``.  ``None`` = no deadline.
    retry:
        A :class:`~repro.service.admission.RetryPolicy` for transient
        decode failures (``None`` disables retries).
    hang_timeout:
        Worker supervision bound, seconds: a batch decode running
        longer than this fails its requests with
        :class:`~repro.errors.WorkerCrashedError` (retried if a retry
        policy allows) and the stuck worker is replaced.  Also bounds
        :meth:`close` against a hung worker.  ``None`` disables hang
        detection (crashed workers are still supervised).
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan`.  The service
        corrupts payloads at submit and draws the ``cache_drop`` and
        ``backend_error`` verdicts once per batch attempt, as it
        dispatches; the worker pool draws the crash/stall directive as
        it assigns each task, and the worker carries it out — the same
        scripted placement and the same recovery under either executor.
    executor:
        ``"auto"`` (default) resolves once, at construction: two or
        more usable cores decode on processes, one core on threads.
        Either way batches go to one supervised
        :class:`~repro.runtime.WorkerPool` as ``"decode"`` tasks, by
        one dispatch path.  ``"process"`` workers fork on demand at
        dispatch, each owns its own plan cache, LLR frames and result
        arrays travel through shared-memory segments, and the per-layer
        Python escapes the interpreter lock (a worker round trip costs
        ~0.15 ms; the cheapest batch of the serving mixes decodes in
        ~2 ms).  ``"thread"`` workers decode from the service's
        :class:`PlanCache`; on one core one thread beats both two
        threads and a worker process.  Deadlines, admission, retries,
        per-client FIFO and fault injection behave identically; results
        are bit-identical.  Prefer registry-string modes with the
        process executor (code *objects* re-pickle per batch and defeat
        the per-worker plan cache).  An explicit ``executor`` or
        ``workers`` is never rewritten; the resolved pair is
        :attr:`executor` / :attr:`workers` and appears under
        ``metrics_snapshot()["worker_pool"]``.
    policy:
        Optional :class:`~repro.service.DecodePolicy`: every request's
        decode config is then selected per its operating-SNR estimate
        (client-supplied ``snr_db=`` at :meth:`submit`, else estimated
        blind from the LLR magnitudes).  Requests batch by the
        *selected* config, so the policy also shapes batching.
        Selection counts and measured iteration savings appear under
        ``metrics_snapshot()["policy"]``.

    Use as a context manager, or call :meth:`close` — it drains pending
    requests (every submitted future resolves) before shutting the
    workers down.
    """

    def __init__(
        self,
        max_batch: int = 64,
        max_wait: float = 0.01,
        workers: "int | None" = None,
        cache: PlanCache | None = None,
        default_config: DecoderConfig | None = None,
        warm_modes=None,
        clock=time.monotonic,
        queue_limit: "int | None" = None,
        overload_policy: str = "reject",
        client_quota: "int | None" = None,
        default_timeout: "float | None" = None,
        retry: "RetryPolicy | None" = None,
        hang_timeout: "float | None" = None,
        faults=None,
        executor: str = "auto",
        policy: "DecodePolicy | None" = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        if default_timeout is not None and default_timeout <= 0:
            raise ValueError("default_timeout must be positive (or None)")
        if executor not in ("auto", "thread", "process"):
            raise ValueError(
                "executor must be 'auto', 'thread' or 'process', got "
                f"{executor!r}"
            )
        cores = usable_cores()
        if executor == "auto":
            executor = "process" if cores >= 2 else "thread"
        self.executor = executor
        if workers is None:
            workers = cores if executor == "process" else 1
        self.workers = int(workers)
        self.decode_policy = policy
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.policy = AdmissionPolicy(
            queue_limit=queue_limit,
            overload=overload_policy,
            client_quota=client_quota,
        )
        self.retry = retry
        self.default_timeout = default_timeout
        self.cache = cache if cache is not None else PlanCache()
        if default_config is not None:
            self.default_config = default_config
        else:
            # Service-tier ET default: a *defaulted* config upgrades
            # "paper" to "paper-or-syndrome" (the PR 3 re-corruption
            # fix); an explicit default_config passes through verbatim.
            self.default_config = service_default_config(
                self.cache.default_config
            )
        self.metrics = ServiceMetrics(clock=clock)
        self._clock = clock
        self._faults = faults
        self._pool = WorkerPool(
            self.workers,
            executor,
            name="repro-decode",
            hang_timeout=hang_timeout,
            faults=faults,
            cache=self.cache,
        )
        self._cond = threading.Condition()
        #: group key -> _Bucket; insertion order ~ first pending.
        self._buckets: "OrderedDict[tuple, _Bucket]" = OrderedDict()
        #: admitted-but-unresolved frames — queued *or* decoding
        #: (admission-control view; guarded by _cond).
        self._admitted_frames = 0
        #: pool submissions not yet finished: dispatcher batches and
        #: retries (guarded by _cond).  The dispatcher hands out work
        #: only while this is below ``workers``; every submission
        #: releases it exactly once.
        self._in_flight = 0
        #: min-heap of (deadline, tiebreak, request) for every admitted
        #: request with a timeout; the dispatcher reaps it (guarded by
        #: _cond).  Entries for already-resolved requests are skipped
        #: lazily on pop.
        self._timed: list = []
        self._tick = itertools.count()
        self._closing = False
        # Per-client FIFO delivery state, all guarded by _delivery_lock
        # (submit takes it briefly *inside* _cond; _deliver never takes
        # _cond, so the lock order _cond -> _delivery_lock is acyclic):
        # seq counter, next seq to resolve, finished-but-held results,
        # and a per-client "someone is firing" flag that serializes
        # future resolution so delivery order cannot be inverted by a
        # preempted worker.  Fully drained clients are pruned, so the
        # maps track *active* clients, not everyone ever seen.
        self._client_seq: dict[str, int] = {}
        self._next_deliverable: dict[str, int] = {}
        self._held: dict[str, dict[int, tuple]] = {}
        self._firing: set[str] = set()
        #: unresolved outstanding requests per client (quota accounting).
        self._outstanding: dict[str, int] = {}
        #: every admitted, not-yet-resolved request — the close() safety
        #: net walks this so nothing can leak unresolved.
        self._live: set[_Request] = set()
        self._delivery_lock = threading.Lock()
        #: pending retry backoffs: token -> (Timer, group, attempt).
        #: Guarded by _retry_lock; timers run off-pool so a backoff
        #: never occupies a decode worker or trips its hang clock.
        self._retry_timers: dict = {}
        self._retry_lock = threading.Lock()
        self._last_batch_key: tuple | None = None
        #: mode key -> (pJ per frame-iteration, n_info) for the energy
        #: accounting; benign to race (idempotent rebuild under the GIL).
        self._energy_profiles: dict = {}
        if warm_modes is not None:
            self.cache.warm(warm_modes, (self.default_config,))
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatch", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(
        self,
        mode: "str | QCLDPCCode",
        llr: np.ndarray,
        config: DecoderConfig | None = None,
        client: str = "default",
        timeout: "float | None" = None,
        snr_db: "float | None" = None,
    ) -> Future:
        """Queue one decode request; returns a future of its result.

        Parameters
        ----------
        mode:
            Registry mode string (validated immediately against the
            catalogue) or an expanded code object.
        llr:
            ``(N,)`` or ``(B, N)`` channel LLRs for that mode — same
            conventions as :meth:`LayeredDecoder.decode`, including
            integer inputs as raw fixed-point values.  The array is
            copied; the caller may reuse its buffer.
        config:
            Decoder settings (default: the service default).  Requests
            whose ``(mode, config.cache_key())`` match are batched
            together.
        client:
            Client identity for FIFO ordering and quotas: this client's
            futures resolve in submission order.
        timeout:
            Per-request deadline, seconds (default: the service's
            ``default_timeout``).  The future is guaranteed to resolve
            by then — with the result if it is ready, else with
            :class:`~repro.errors.DeadlineExceeded` (delivery still
            honours per-client FIFO, so a timed-out request resolves
            after its predecessors).  Under the ``block`` overload
            policy the deadline also bounds the time spent blocked
            waiting for queue space.
        snr_db:
            Client-supplied operating-SNR estimate (dB) for the decode
            policy.  Ignored unless the service was constructed with
            ``policy=``; when the policy is on and this is ``None``,
            the SNR is estimated blind from the LLR magnitudes
            (if ``policy.estimate``).

        Raises
        ------
        UnknownCodeError
            Unknown mode string (raised here, not in the worker).
        ServiceClosedError
            The service is closed or closing (also under ``block`` when
            the service closes mid-wait).
        ServiceOverloaded
            Admission queue full under the ``reject`` policy, or the
            client exceeded its quota of outstanding requests.
        DeadlineExceeded
            Under ``block``: the deadline expired while waiting for
            queue space (the request was never admitted).
        ValueError
            LLR shape mismatch or non-positive ``timeout``.
        """
        config = config if config is not None else self.default_config
        timeout = timeout if timeout is not None else self.default_timeout
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if isinstance(mode, str):
            n = describe_mode(mode).n
        else:
            n = mode.n
        frames_in = np.array(llr, copy=True)
        if frames_in.ndim == 1:
            frames_in = frames_in[None, :]
        if frames_in.ndim != 2 or frames_in.shape[1] != n:
            raise ValueError(
                f"mode {self.cache.mode_key(mode)!r} expects (B, {n}) LLRs; "
                f"got {np.asarray(llr).shape}"
            )
        if frames_in.dtype.kind not in ("f", "i", "u"):
            raise ValueError(
                f"LLR dtype must be a real float or integer type, got "
                f"{frames_in.dtype} (bool/complex/object payloads are "
                "malformed, not decodable)"
            )
        if self._faults is not None:
            # Chaos hook: scripted submits get a deterministically
            # corrupted payload (our private copy, never the caller's).
            frames_in = self._faults.corrupt(frames_in)
        # The dtype *kind* is part of the batch key: integer inputs are
        # raw fixed-point values, floats are LLR units (the decoder
        # switches interpretation on dtype), and np.concatenate of a
        # mixed group would silently promote the raw integers to float
        # LLRs — a wrong decode, not an error.  Same kind, different
        # width (int16/int32, float32/float64) is safe: promotion
        # preserves the values and the decoder normalizes.
        is_raw = bool(np.issubdtype(frames_in.dtype, np.integer))
        rule = None
        budget = int(config.max_iterations)
        if self.decode_policy is not None:
            snr = snr_db
            if snr is None and self.decode_policy.estimate:
                snr = self._estimate_snr(frames_in, config, is_raw)
            # Raw integer payloads are only meaningful under the
            # qformat the client encoded them with — datapath overrides
            # are dropped for them (see DecodePolicy.select).
            rule, config = self.decode_policy.select(
                snr, config, allow_datapath=not is_raw
            )
        key = self.cache.key(mode, config) + (is_raw,)
        frames = int(frames_in.shape[0])
        future: Future = Future()
        shed_victims: list[_Request] = []
        with self._cond:
            if self._closing:
                raise ServiceClosedError(
                    "DecodeService is closed; create a new service or use "
                    "Link.serve() (which replaces a closed service "
                    "transparently)"
                )
            deadline = (
                self._clock() + timeout if timeout is not None else None
            )
            with self._delivery_lock:
                outstanding = self._outstanding.get(client, 0)
            if self.policy.over_quota(outstanding):
                self.metrics.record_rejected(quota=True)
                raise ServiceOverloaded(
                    f"client {client!r} has {outstanding} outstanding "
                    f"requests (quota {self.policy.client_quota}); wait for "
                    "some to resolve before submitting more"
                )
            if self.policy.over_queue(self._admitted_frames, frames):
                if self.policy.overload == "reject":
                    self.metrics.record_rejected()
                    raise ServiceOverloaded(
                        f"admission queue full ({self._admitted_frames} "
                        f"frames in flight, limit {self.policy.queue_limit}); "
                        "retry later, or construct the service with "
                        "overload_policy='block' or 'shed-oldest'"
                    )
                if self.policy.overload == "block":
                    self.metrics.record_blocked()
                    while self.policy.over_queue(self._admitted_frames, frames):
                        if self._closing:
                            raise ServiceClosedError(
                                "DecodeService closed while blocked waiting "
                                "for queue space"
                            )
                        if deadline is not None:
                            remaining = deadline - self._clock()
                            if remaining <= 0:
                                self.metrics.record_timeout()
                                raise DeadlineExceeded(
                                    f"deadline ({timeout}s) expired while "
                                    "blocked waiting for admission queue "
                                    "space"
                                )
                            self._cond.wait(timeout=remaining)
                        else:
                            self._cond.wait()
                else:  # shed-oldest
                    shed_victims = self._shed_for(frames)
            with self._delivery_lock:
                seq = self._client_seq.get(client, 0)
                self._client_seq[client] = seq + 1
                # Re-read: under the block policy other submits of this
                # client may have resolved (or landed) while we waited.
                self._outstanding[client] = (
                    self._outstanding.get(client, 0) + 1
                )
            request = _Request(
                client=client,
                seq=seq,
                mode=mode,
                config=config,
                llr=frames_in,
                frames=frames,
                future=future,
                submitted=self._clock(),
                key=key,
                deadline=deadline,
                rule=rule,
                budget=budget,
            )
            with self._delivery_lock:
                self._live.add(request)
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = _Bucket()
            bucket.append(request)
            self._admitted_frames += frames
            if deadline is not None:
                heapq.heappush(
                    self._timed, (deadline, next(self._tick), request)
                )
            # Inside the lock, before the dispatcher can possibly pop
            # the request: record_dispatch must never observe a frame
            # it has not seen submitted (queue depth would go negative).
            self.metrics.record_submit(frames)
            self._cond.notify_all()
        for victim in shed_victims:
            self._deliver(
                victim,
                "shed",
                ServiceOverloaded(
                    f"request shed by a newer arrival under the "
                    f"'shed-oldest' policy (queue_limit="
                    f"{self.policy.queue_limit} frames)"
                ),
            )
        return future

    def _estimate_snr(self, frames_in, config, is_raw) -> "float | None":
        """Blind per-request SNR estimate for the decode policy.

        Integer payloads are dequantized under the config they will
        decode with (raw fixed-point values under a fixed-point config,
        plain LLR units otherwise — mirroring ``prepare_channel_llrs``).
        """
        if frames_in.size == 0:
            return None  # nothing to measure; only the ET default applies
        if not is_raw:
            return estimate_snr(frames_in).snr_db
        if config.is_fixed_point:
            return estimate_snr(frames_in, qformat=config.qformat).snr_db
        return estimate_snr(frames_in.astype(np.float64)).snr_db

    def _shed_for(self, frames: int) -> "list[_Request]":
        """Evict oldest queued requests until ``frames`` fit (lock held).

        Victims are removed from their buckets and from the queue
        accounting here (exclusively — only one thread can remove a
        given request); their futures are failed by the caller *after*
        releasing ``_cond`` (future callbacks run arbitrary client
        code).
        """
        victims: list[_Request] = []
        # Victims' admission shares are only released in _deliver, after
        # _cond is dropped — so account for frames already freed here,
        # or every overload would evict the whole queue, not just
        # enough to fit the newcomer.
        freed = 0
        while self.policy.over_queue(self._admitted_frames - freed, frames):
            oldest: _Request | None = None
            oldest_key = None
            for key, bucket in self._buckets.items():
                head = bucket.requests[0]
                if oldest is None or head.submitted < oldest.submitted:
                    oldest, oldest_key = head, key
            if oldest is None:
                # Nothing left to shed: the pressure is all in-flight
                # (or the request is oversized against an empty queue).
                # Freshest-data-wins never drops the *new* data, so
                # admit — the transient overshoot drains with the
                # in-flight work.
                break
            self._remove_queued(oldest_key, oldest)
            # The victim's admission share frees when _deliver claims it
            # (the caller does so right after releasing _cond).
            freed += oldest.frames
            victims.append(oldest)
        return victims

    def _remove_queued(self, key: tuple, request: _Request) -> bool:
        """Un-queue one request (lock held); False if already gone."""
        bucket = self._buckets.get(key)
        if bucket is None or not bucket.remove(request):
            return False
        if not bucket.requests:
            del self._buckets[key]
        self.metrics.record_unqueued(request.frames)
        return True

    def metrics_snapshot(self) -> dict:
        """Service metrics plus plan-cache and worker-pool statistics.

        ``worker_pool`` carries the resolved ``executor`` and
        ``workers`` and the pool's :meth:`~repro.runtime.WorkerPool.stats`
        — ``tasks_completed`` (batch decodes a worker reported back,
        results and errors alike), the supervision counters and, from
        process workers, ``worker_peak_rss_mb``: the largest peak RSS
        any worker has reported, which the parent's RSS does not
        include.

        ``batches_in_flight`` counts pool submissions not yet finished
        (at most ``workers``, plus retries); it reads 0 on an idle or
        closed service.  With a decode policy configured, per-rule
        selection counts and measured iteration savings nest under
        ``"policy"``; the section is absent otherwise, so plain
        deployments export no dead zeros.
        """
        snapshot = self.metrics.snapshot()
        with self._cond:
            snapshot["batches_in_flight"] = self._in_flight
        snapshot["plan_cache"] = self.cache.stats()
        snapshot["worker_pool"] = dict(executor=self.executor, **self._pool.stats())
        if self.decode_policy is not None:
            snapshot["policy"] = self.metrics.policy_snapshot()
        return snapshot

    def metrics_text(self) -> str:
        """The full metrics snapshot as Prometheus exposition text."""
        return prometheus_text(self.metrics_snapshot())

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun; submissions will be refused."""
        with self._cond:
            return self._closing

    def close(self) -> None:
        """Drain pending requests, resolve every future, stop the workers.

        Safe to call repeatedly and from multiple threads: *every*
        caller blocks until the drain has finished (join and shutdown
        are idempotent), so no caller can observe unresolved futures
        after its close() returns.  Blocked submitters (``block``
        policy) are woken and raise
        :class:`~repro.errors.ServiceClosedError`.  The drain tolerates
        chaos: crashed workers respawn to finish the queue, hung
        workers (with ``hang_timeout`` set) are replaced, and any
        request that still has no outcome when the pool is down — which
        only a lost worker can cause — is failed with
        :class:`~repro.errors.ServiceClosedError` rather than leaked.
        """
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        self._dispatcher.join()
        # Retries parked on backoff timers re-dispatch immediately: the
        # pool drain below replays them on healthy workers rather than
        # sleeping through (or worse, past) its own shutdown.
        self._flush_retries()
        self._pool.shutdown(wait=True)
        # Safety net: no admitted request may outlive close() without an
        # outcome.  With healthy workers this finds nothing (the drain
        # flush resolved everything); after worker loss it is what turns
        # "hung silently" into a typed, actionable error.
        with self._delivery_lock:
            leftovers = list(self._live)
        for request in leftovers:
            self._deliver(
                request,
                "closed",
                ServiceClosedError(
                    "service closed before this request resolved (its "
                    "worker was lost during drain); create a new service "
                    "or use Link.serve() and resubmit"
                ),
            )

    def __enter__(self) -> "DecodeService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _take_batch(self, key: tuple) -> "list[_Request] | None":
        """Pop up to ``max_batch`` frames of whole requests from a bucket."""
        bucket = self._buckets.get(key)
        if bucket is None or not bucket.requests:
            return None
        taken: list[_Request] = []
        frames = 0
        requests = bucket.requests
        while requests and (
            not taken or frames + requests[0].frames <= self.max_batch
        ):
            request = bucket.popleft()
            request.dispatched = True
            taken.append(request)
            frames += request.frames
        if not requests:
            del self._buckets[key]
        return taken

    def _flush_at(self, bucket: _Bucket) -> float:
        """When a group falls due short of ``max_batch`` frames.

        A request with a deadline tighter than the group's ``max_wait``
        window pulls the whole group forward — a full ``max_wait``
        *before* that deadline (leaving at the deadline itself would
        lose the race against the reaper), so batching can never eat a
        request's whole deadline budget.
        """
        flush_at = bucket.requests[0].submitted + self.max_wait
        if bucket.min_deadline is not None:
            flush_at = min(flush_at, bucket.min_deadline - self.max_wait)
        return flush_at

    def _take_due(self, now: float, batches: list) -> "float | None":
        """Fill the free worker slots with due batches (lock held).

        Due groups leave earliest ``flush_at`` first.  Returns the
        seconds until the next group falls due while a slot is still
        free, else ``None``: a finishing batch wakes the dispatcher
        itself.
        """
        while self._in_flight < self._pool.workers:
            due_key = due_at = None
            for key, bucket in self._buckets.items():
                flush_at = self._flush_at(bucket)
                if (bucket.frames >= self.max_batch or flush_at <= now) and (
                    due_at is None or flush_at < due_at
                ):
                    due_key, due_at = key, flush_at
            if due_key is not None:
                full = self._buckets[due_key].frames >= self.max_batch
                taken = self._take_batch(due_key)
                batches.append((due_key, taken, "size" if full else "deadline"))
            else:
                return min(
                    (self._flush_at(b) - now for b in self._buckets.values()),
                    default=None,
                )
            self._in_flight += 1
        return None

    def _dispatch_loop(self) -> None:
        while True:
            batches: list[tuple[tuple, list, str]] = []
            expired: list[_Request] = []
            with self._cond:
                while True:
                    now = self._clock()
                    draining = self._closing
                    # Reap expired per-request deadlines.  Queued
                    # victims leave their bucket here (exclusive
                    # removal); in-flight victims just get their future
                    # failed — the worker's late outcome is discarded by
                    # the resolved guard.
                    while self._timed and self._timed[0][0] <= now:
                        _, _, timed_out = heapq.heappop(self._timed)
                        if timed_out.resolved:
                            continue
                        if not timed_out.dispatched:
                            self._remove_queued(timed_out.key, timed_out)
                        expired.append(timed_out)
                    nearest: float | None = (
                        self._timed[0][0] - now if self._timed else None
                    )
                    if draining:
                        # The drain stays eager: everything goes to the
                        # pool at once, whose supervisor then respawns
                        # crashed workers while tasks remain queued.
                        for key in list(self._buckets):
                            while taken := self._take_batch(key):
                                batches.append((key, taken, "drain"))
                        self._in_flight += len(batches)
                    else:
                        wake = self._take_due(now, batches)
                        if wake is not None and (
                            nearest is None or wake < nearest
                        ):
                            nearest = wake
                    if batches or expired:
                        # Frames left the queue: blocked submitters may
                        # now fit.
                        self._cond.notify_all()
                        break
                    if draining:
                        return
                    self._cond.wait(timeout=nearest)
            for request in expired:
                self._deliver(
                    request,
                    "timeout",
                    DeadlineExceeded(
                        f"request deadline expired after "
                        f"{self._clock() - request.submitted:.3f}s "
                        "(queued or in flight); increase timeout= or "
                        "reduce service load"
                    ),
                )
            for key, requests, trigger in batches:
                frames = sum(r.frames for r in requests)
                self.metrics.record_dispatch(frames, trigger)
                # A batch whose group differs from the previous dispatch
                # is the software analogue of a mode-ROM reconfiguration.
                if self._last_batch_key is not None and key != self._last_batch_key:
                    self.metrics.record_mode_switch()
                self._last_batch_key = key
                self._dispatch_batch(requests, attempt=1)

    def _release_slot(self) -> None:
        """A pool submission finished, or never reached the pool."""
        with self._cond:
            self._in_flight -= 1
            self._cond.notify_all()

    def _redispatch(self, group: "list[_Request]", attempt: int) -> None:
        """Send a retry group straight to the pool, holding a slot.

        A retry keeps its per-request split — it never rejoins a bucket
        to merge with fresh arrivals — and does not wait for a free
        worker, but it counts as in flight, so fresh batches wait for it.
        """
        with self._cond:
            self._in_flight += 1
        self._dispatch_batch(group, attempt)

    def _dispatch_batch(self, requests: "list[_Request]", attempt: int) -> None:
        """Hand a batch to the pool as one ``"decode"`` task.

        The fault hooks fire here, once per attempt and in the same
        order under either executor: the ``cache_drop`` verdict rides
        the task to the worker's decode, and a ``backend_error`` fails
        the attempt before it reaches the pool.  The caller holds a
        worker slot for the batch: every path out of here either
        releases it or leaves that to :meth:`_complete_batch`.
        """
        live = [r for r in requests if not r.resolved]
        if not live:
            self._release_slot()
            return
        first = live[0]
        try:
            cache_drop = False
            if self._faults is not None:
                cache_drop = self._faults.on_cache_get()
                self._faults.on_batch_decode()
            if len(live) == 1:
                merged = first.llr
            else:
                merged = np.concatenate([r.llr for r in live], axis=0)
            meta = {
                "mode": first.mode,
                "config": first.config,
                "cache_drop": cache_drop,
            }
            out_spec = decode_out_spec(*merged.shape)
        except BaseException as exc:  # retried or delivered, never swallowed
            self._release_slot()
            self._retry_or_fail(live, attempt, exc)
            return
        try:
            batch_future = self._pool.submit(
                "decode", meta, arrays={"llr": merged}, out_spec=out_spec
            )
        except RuntimeError:
            # Pool already shut down (a retry raced close()): the drain
            # safety net would catch these, but failing them here keeps
            # the error specific.
            self._release_slot()
            for request in live:
                self._deliver(
                    request,
                    "closed",
                    ServiceClosedError(
                        "service closed while this request awaited retry"
                    ),
                )
            return
        batch_future.add_done_callback(
            lambda f, reqs=live, n=attempt: self._complete_batch(f, reqs, n)
        )

    def _complete_batch(self, batch_future, requests, attempt) -> None:
        """Free the batch's worker slot, then deliver each request its
        slice of the decode — or retry or fail the batch on an error.

        Runs once per batch future, on the worker thread or the process
        pool's collector.  Errors — the decode's own exceptions and
        :class:`~repro.errors.WorkerCrashedError` from supervision — go
        through the retry adjudication.
        """
        self._release_slot()
        exc = batch_future.exception()
        if exc is not None:
            self._retry_or_fail(requests, attempt, exc)
            return
        payload, outputs = batch_future.result()
        result = DecodeResult(n_info=payload["n_info"], **outputs)
        offset = 0
        for request in requests:
            sliced = result.slice(offset, offset + request.frames)
            offset += request.frames
            self._deliver(request, "result", sliced)

    def _retry_or_fail(self, requests, attempt, exc) -> None:
        """Schedule a retry for transient failures, or deliver the error,
        to every request of a failed attempt that is still unresolved."""
        pending = [r for r in requests if not r.resolved]
        if not pending:
            return
        retryable = (
            self.retry is not None
            and self.retry.is_retryable(exc)
            and attempt <= self.retry.attempts
        )
        if retryable:
            delay = self.retry.delay(attempt)
            groups = (
                [[r] for r in pending] if len(pending) > 1 else [pending]
            )
            for group in groups:
                for _ in group:
                    self.metrics.record_retry()
                self._schedule_retry(group, attempt + 1, delay)
        else:
            for request in pending:
                self._deliver(request, "error", exc)

    def _schedule_retry(self, group, attempt, delay) -> None:
        """Re-dispatch ``group`` after its backoff, off the worker pool.

        The backoff runs on a timer thread, never a pool worker: a
        sleeping worker would both occupy one of the few decode slots
        and count its nap toward the pool's hang clock, so any
        ``hang_timeout`` at or below the retry policy's ``max_backoff``
        would falsely declare every backed-off retry hung (spurious
        :class:`WorkerCrashedError`, an abandoned thread, and another
        retry — a livelock, not a policy).  :meth:`close` fires pending
        timers early (:meth:`_flush_retries`) so the drain replays
        retries on the still-healthy pool instead of sleeping through
        its own shutdown.
        """
        with self._cond:
            closing = self._closing
        if delay <= 0 or closing:
            # While closing, the backoff is pointless latency: dispatch
            # now so the pool drain (or its RuntimeError -> typed
            # ServiceClosedError path) resolves the requests.
            self._redispatch(group, attempt)
            return
        token = object()
        timer = threading.Timer(delay, self._fire_retry, (token,))
        timer.daemon = True
        with self._retry_lock:
            self._retry_timers[token] = (timer, group, attempt)
        timer.start()

    def _fire_retry(self, token) -> None:
        with self._retry_lock:
            entry = self._retry_timers.pop(token, None)
        if entry is None:
            return  # the close() drain already fired this retry early
        _, group, attempt = entry
        self._redispatch(group, attempt)

    def _flush_retries(self) -> None:
        """Fire every pending retry timer now (the close() drain)."""
        while True:
            with self._retry_lock:
                if not self._retry_timers:
                    return
                token, (timer, group, attempt) = self._retry_timers.popitem()
            timer.cancel()
            self._redispatch(group, attempt)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _energy_profile(self, mode) -> tuple:
        """``(pJ per frame-iteration, n_info)`` for one mode, cached.

        Each executed iteration is priced at the paper chip's active
        power over the §III-E cycle count (``E / r`` cycles per
        iteration), with lanes gated to the code's ``z`` — the DMB-T
        datapath variant when the code exceeds the paper chip, exactly
        as ``Link.datapath_params`` selects.
        """
        key = self.cache.mode_key(mode)
        profile = self._energy_profiles.get(key)
        if profile is None:
            code = get_code(mode) if isinstance(mode, str) else mode
            params = PAPER_CHIP if PAPER_CHIP.supports_code(code) else DMBT_CHIP
            lanes = min(code.z, params.z_max)
            power_mw = PowerModel(params).active_power_mw(lanes).total_mw
            seconds_per_iteration = (
                code.base.num_blocks
                / params.messages_per_cycle
                / (params.fclk_mhz * 1e6)
            )
            # mW * s = 1e-3 J -> 1e9 pJ.
            profile = (power_mw * seconds_per_iteration * 1e9, code.n_info)
            self._energy_profiles[key] = profile
        return profile

    def _record_outcome(self, request: _Request, result) -> None:
        """Iteration and energy accounting for one delivered result."""
        frames = int(result.iterations.shape[0])
        iterations = int(result.iterations.sum())
        pj_per_iteration, n_info = self._energy_profile(request.mode)
        self.metrics.record_decode_outcome(
            frames=frames,
            info_bits=frames * n_info,
            iterations=iterations,
            budget=frames * request.budget,
            energy_pj=iterations * pj_per_iteration,
            rule=request.rule,
        )

    def _deliver(self, request: _Request, kind: str, payload) -> bool:
        """Resolve one request's outcome, exactly once, in FIFO order.

        ``kind`` is one of ``result`` / ``error`` / ``shed`` /
        ``timeout`` / ``closed``; the matching metrics counter is
        bumped if and only if this call wins the request's outcome (the
        ``resolved`` claim), so a timeout racing a late worker result
        is counted — and delivered — exactly once.

        A finished request whose predecessor (same client) is still in
        flight is *held*; resolving it now would break the FIFO
        guarantee.  Delivery per client is serialized through the
        ``_firing`` flag: exactly one thread drains a client's held
        results (in sequence, outside the lock so future callbacks
        cannot deadlock against it), and any result that lands while it
        drains is picked up by the same loop — so two workers finishing
        out of order can never invert the resolution order, even if the
        earlier finisher is preempted between bookkeeping and firing.
        """
        client = request.client
        with self._delivery_lock:
            if request.resolved:
                return False  # outcome already claimed by another path
            request.resolved = True
            self._live.discard(request)
            remaining = self._outstanding.get(client, 1) - 1
            if remaining > 0:
                self._outstanding[client] = remaining
            else:
                self._outstanding.pop(client, None)
            held = self._held.setdefault(client, {})
            held[request.seq] = (request, kind, payload)
            firing = client in self._firing
            if not firing:
                self._firing.add(client)
        # Won the claim: free this request's admission share and wake
        # blocked submitters.  Done here — by the claimer, exactly once,
        # holding no other lock — because taking _cond inside
        # _delivery_lock would invert the submit path's lock order.
        with self._cond:
            self._admitted_frames -= request.frames
            self._cond.notify_all()
        if firing:
            return True  # the draining thread will deliver this too
        while True:
            with self._delivery_lock:
                held = self._held[client]
                next_seq = self._next_deliverable.get(client, 0)
                item = held.pop(next_seq, None)
                if item is None:
                    self._firing.discard(client)
                    # Fully drained client (nothing held, everything
                    # submitted has been delivered): prune its state so
                    # ephemeral client ids cannot leak memory across a
                    # long-lived service.  A later submit under the same
                    # name simply starts a fresh seq 0 stream.
                    if not held and next_seq == self._client_seq.get(client, 0):
                        del self._held[client]
                        self._next_deliverable.pop(client, None)
                        self._client_seq.pop(client, None)
                    return True
                self._next_deliverable[client] = next_seq + 1
            ready, ready_kind, ready_payload = item
            # A client may have cancel()ed its still-pending future;
            # resolving it would raise InvalidStateError and wedge the
            # drain loop (and with it the whole client).  Claiming the
            # future first makes the race one-sided: after this call a
            # late cancel() is a no-op, and a won cancel is skipped
            # (the frames were decoded with their batch regardless).
            if not ready.future.set_running_or_notify_cancel():
                self.metrics.record_cancelled()
                continue
            latency = self._clock() - ready.submitted
            if ready_kind == "result":
                self.metrics.record_completion(ready.frames, latency)
                self._record_outcome(ready, ready_payload)
                ready.future.set_result(ready_payload)
            else:
                if ready_kind == "shed":
                    self.metrics.record_shed()
                elif ready_kind == "timeout":
                    self.metrics.record_timeout()
                else:  # error / closed
                    self.metrics.record_failure()
                ready.future.set_exception(ready_payload)


__all__ = ["DecodeService", "DecodeResult"]
