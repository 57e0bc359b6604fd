"""Deterministic fault injection for the serving stack.

The chip keeps its pipeline alive across mode switches *by design*; the
software serving tier earns the same property only if its failure paths
are exercised as routinely as its happy path.  This module makes chaos
first-class and reproducible: a :class:`FaultPlan` names, ahead of
time, exactly which events misbehave — the k-th task assigned to a
worker crashes the worker, the k-th batch decode raises a backend
error, the k-th submitted payload is corrupted, the k-th batch decode
drops a plan-cache entry mid-flight — and counts every injection it
performs so a test can reconcile service metrics against the plan.

Sites are keyed by **per-site event counters**, not wall-clock or RNG
draws, so the *number* of injections is deterministic for a given
workload however threads interleave (the k-th event at a site is
well-defined even when its content races).  With a single worker the
content is deterministic too.  The only randomness — the noise used to
corrupt LLR payloads — is seeded per ``(seed, event index)``, so a test
can recompute the exact corrupted array with :meth:`FaultPlan.corrupted`
and still assert bit-identity against a direct decode.

Wiring: pass ``faults=plan`` to :class:`~repro.service.DecodeService`.
The service corrupts payloads at submit and draws the ``cache_drop``
and ``backend_error`` verdicts once per batch attempt; the drop rides
the decode task to the worker, which evicts from the plan cache it
decodes from.  The service forwards the plan to its
:class:`~repro.runtime.WorkerPool`, which draws a
:meth:`~FaultPlan.worker_directive` as it assigns each task; a worker
of either kind carries the directive out before running the task.  A
``None`` plan is free: every hook site guards with ``if self._faults
is not None``.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import InjectedFault

#: Sites a plan can inject at, and the event counter each consumes.
#: ``worker_crash`` and ``worker_hang`` share the ``worker`` counter:
#: both index the stream of tasks assigned to pool workers.
FAULT_SITES = ("worker_crash", "worker_hang", "backend_error",
               "corrupt_llr", "cache_drop")


def _as_indices(spec) -> frozenset:
    """Normalize an index spec (int, iterable, range) to a frozenset."""
    if spec is None:
        return frozenset()
    if isinstance(spec, int):
        return frozenset((spec,))
    return frozenset(int(i) for i in spec)


class FaultPlan:
    """A seeded, pre-scripted set of faults for one chaos run.

    Parameters
    ----------
    seed:
        Seeds the corruption noise only (all *placement* is by explicit
        event index, below).
    worker_crash:
        Worker-task indices (0-based, in assignment order across the
        pool) at which the assigned worker dies before running the
        task.
    worker_hang:
        Worker-task indices at which the worker sleeps
        ``hang_duration`` seconds before running the task — long enough
        to trip a supervisor ``hang_timeout`` set below it.
    backend_error:
        Batch-decode attempt indices at which the decode raises
        :class:`~repro.errors.InjectedFault` (the canonical *transient*
        error: retry policies retry it by default).
    corrupt_llr:
        Submit indices whose LLR payload is replaced by a seeded
        corruption (sign flips + heavy noise) of itself.  The decode
        still runs; the output is garbage but *deterministic* garbage —
        recompute it with :meth:`corrupted`.
    cache_drop:
        Batch-decode attempt indices at which the worker evicts the
        least-recently-used entry of its plan cache before the lookup
        (a rebuild mid-flight; correctness-neutral by the cache's own
        contract).
    hang_duration:
        Sleep applied at ``worker_hang`` sites, seconds.

    All index specs accept an int, any iterable of ints, or a
    ``range``.  The plan is reusable only within one run: it carries
    monotonic event counters.  Call :meth:`reset` (or build a fresh
    plan) between runs.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        worker_crash=(),
        worker_hang=(),
        backend_error=(),
        corrupt_llr=(),
        cache_drop=(),
        hang_duration: float = 0.25,
    ):
        self.seed = int(seed)
        self.worker_crash = _as_indices(worker_crash)
        self.worker_hang = _as_indices(worker_hang)
        self.backend_error = _as_indices(backend_error)
        self.corrupt_llr = _as_indices(corrupt_llr)
        self.cache_drop = _as_indices(cache_drop)
        self.hang_duration = float(hang_duration)
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._injected: dict[str, int] = {site: 0 for site in FAULT_SITES}

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _next(self, counter: str) -> int:
        with self._lock:
            index = self._counters.get(counter, 0)
            self._counters[counter] = index + 1
            return index

    def _record(self, site: str) -> None:
        with self._lock:
            self._injected[site] += 1

    def injected(self) -> dict:
        """Counts of faults actually injected so far, by site."""
        with self._lock:
            return dict(self._injected)

    def events(self) -> dict:
        """Raw event-counter values (how many times each site was hit)."""
        with self._lock:
            return dict(self._counters)

    def reset(self) -> None:
        """Zero the event counters and injection tallies for a new run."""
        with self._lock:
            self._counters.clear()
            self._injected = {site: 0 for site in FAULT_SITES}

    def __repr__(self) -> str:
        active = {
            site: sorted(getattr(self, site))
            for site in FAULT_SITES
            if getattr(self, site)
        }
        return f"FaultPlan(seed={self.seed}, {active})"

    # ------------------------------------------------------------------
    # Hook sites
    # ------------------------------------------------------------------
    def worker_directive(self) -> "dict | None":
        """The scripted action, if any, for the next worker task.

        Consumes the shared ``worker`` event counter and *describes*
        the fault instead of performing it: ``{"crash": True}`` at
        ``worker_crash`` indices, ``{"hang": hang_duration}`` at
        ``worker_hang`` indices, ``None`` otherwise.
        :class:`~repro.runtime.parallel.WorkerPool` calls this at task
        assignment — keeping placement counters in the parent however
        workers race — and hands the directive to the worker with the
        task; the worker dies or sleeps *before* running it.
        """
        index = self._next("worker")
        if index in self.worker_crash:
            self._record("worker_crash")
            return {"crash": True, "index": index}
        if index in self.worker_hang:
            self._record("worker_hang")
            return {"hang": self.hang_duration, "index": index}
        return None

    def on_batch_decode(self) -> None:
        """DecodeService hook: called before each batch decode attempt.

        Raises :class:`~repro.errors.InjectedFault` at ``backend_error``
        indices — a transient error the retry policy should absorb.
        """
        index = self._next("batch")
        if index in self.backend_error:
            self._record("backend_error")
            raise InjectedFault(
                f"injected backend error at batch decode #{index}"
            )

    def corrupt(self, llr: np.ndarray) -> np.ndarray:
        """DecodeService hook: maybe corrupt one submitted payload.

        Returns ``llr`` untouched for non-selected submits; for
        ``corrupt_llr`` indices returns :meth:`corrupted` of it.  The
        caller passes its private copy — corruption happens in place of
        the clean payload, never in the client's buffer.
        """
        index = self._next("submit")
        if index not in self.corrupt_llr:
            return llr
        self._record("corrupt_llr")
        return self.corrupted(llr, index)

    def corrupted(self, llr: np.ndarray, index: int) -> np.ndarray:
        """The deterministic corruption applied at submit ``index``.

        Pure function of ``(plan seed, index, llr)`` so chaos tests can
        recompute exactly what the decoder saw and compare its served
        output bit-for-bit against a direct decode of the same garbage.
        Sign flips plus heavy additive noise, cast back to the payload's
        dtype (integer payloads stay raw fixed-point integers).
        """
        rng = np.random.default_rng((self.seed, int(index)))
        flips = rng.random(llr.shape) < 0.3
        noise = rng.standard_normal(llr.shape) * 8.0
        corrupted = np.where(flips, -llr, llr) + noise
        if np.issubdtype(llr.dtype, np.integer):
            corrupted = np.clip(np.rint(corrupted), -127, 127)
        return corrupted.astype(llr.dtype)

    def on_cache_get(self) -> bool:
        """DecodeService hook, once per batch decode attempt: True when
        the decode should drop its plan cache's LRU entry before the
        lookup."""
        index = self._next("cache")
        if index in self.cache_drop:
            self._record("cache_drop")
            return True
        return False


__all__ = ["FAULT_SITES", "FaultPlan"]
