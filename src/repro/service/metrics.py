"""Operational metrics for the decode service.

The paper sells the chip on *sustained* figures — 1 Gbps at 10
iterations, mode switches that cost one control-register write — so the
software service tracks the same class of numbers: frames per second,
per-request latency quantiles, dynamic-batch fill, queue depth, and the
mode-ROM analogues (plan-cache hits/misses and mode-switch counts).

:class:`ServiceMetrics` is the mutable, lock-protected accumulator the
service updates on its hot path; :meth:`ServiceMetrics.snapshot`
produces a plain dict of derived figures for logging, benchmarks and
tests.
"""

from __future__ import annotations

import threading
import time

import numpy as np

#: Cap on retained per-request latencies.  A serving process outlives
#: any fixed sample budget; once full, new samples overwrite the oldest
#: (ring buffer), so the quantiles track the *recent* distribution
#: instead of growing without bound.
LATENCY_WINDOW = 65536


class ServiceMetrics:
    """Thread-safe counters and latency window for one service instance.

    All ``record_*`` methods are cheap (a lock, a few adds) and are
    called from the submit path, the dispatcher and the workers; the
    derived statistics (quantiles, rates) are only computed in
    :meth:`snapshot`.
    """

    def __init__(self, clock=time.perf_counter):
        self._lock = threading.Lock()
        self._clock = clock
        self._started = clock()
        self.requests_submitted = 0
        self.requests_completed = 0
        self.requests_failed = 0
        self.requests_cancelled = 0
        self.requests_rejected = 0
        self.requests_quota_rejected = 0
        self.requests_shed = 0
        self.requests_timed_out = 0
        self.requests_retried = 0
        self.submits_blocked = 0
        self.frames_submitted = 0
        self.frames_decoded = 0
        self.batches_dispatched = 0
        self.batch_frames_total = 0
        self.max_batch_frames = 0
        self.flushes_size = 0
        self.flushes_deadline = 0
        self.flushes_drain = 0
        self.mode_switches = 0
        self.queue_depth_frames = 0
        self.peak_queue_depth_frames = 0
        # -- power-aware serving ----------------------------------------
        self.energy_pj_total = 0.0
        self.info_bits_decoded = 0
        self.iterations_executed = 0
        self.iteration_budget_total = 0
        self._energy_frames = 0
        #: rule name -> [selections, frames, iterations, budget]
        self._policy_rules: dict[str, list] = {}
        self._latencies = np.zeros(LATENCY_WINDOW, dtype=np.float64)
        self._latency_count = 0  # total ever recorded (ring position)

    # ------------------------------------------------------------------
    # Hot-path recorders
    # ------------------------------------------------------------------
    def record_submit(self, frames: int) -> None:
        with self._lock:
            self.requests_submitted += 1
            self.frames_submitted += frames
            self.queue_depth_frames += frames
            self.peak_queue_depth_frames = max(
                self.peak_queue_depth_frames, self.queue_depth_frames
            )

    def record_dispatch(self, frames: int, trigger: str) -> None:
        """A batch left the queue.  ``trigger``: size | deadline | drain."""
        with self._lock:
            self.batches_dispatched += 1
            self.batch_frames_total += frames
            self.max_batch_frames = max(self.max_batch_frames, frames)
            self.queue_depth_frames -= frames
            if trigger == "size":
                self.flushes_size += 1
            elif trigger == "deadline":
                self.flushes_deadline += 1
            else:
                self.flushes_drain += 1

    def record_mode_switch(self) -> None:
        with self._lock:
            self.mode_switches += 1

    def record_completion(self, frames: int, latency_s: float) -> None:
        with self._lock:
            self.requests_completed += 1
            self.frames_decoded += frames
            self._latencies[self._latency_count % LATENCY_WINDOW] = latency_s
            self._latency_count += 1

    def record_failure(self) -> None:
        with self._lock:
            self.requests_failed += 1

    def record_cancelled(self) -> None:
        """Client cancelled its future before delivery; nothing resolved."""
        with self._lock:
            self.requests_cancelled += 1

    # -- robustness counters (PR 6) ------------------------------------
    def record_rejected(self, quota: bool = False) -> None:
        """Admission control refused a submit (full queue or quota)."""
        with self._lock:
            if quota:
                self.requests_quota_rejected += 1
            else:
                self.requests_rejected += 1

    def record_blocked(self) -> None:
        """A submit had to wait for queue space under the block policy."""
        with self._lock:
            self.submits_blocked += 1

    def record_shed(self) -> None:
        """A queued request was evicted under the shed-oldest policy."""
        with self._lock:
            self.requests_shed += 1

    def record_timeout(self) -> None:
        """A request's deadline expired before its result."""
        with self._lock:
            self.requests_timed_out += 1

    def record_retry(self) -> None:
        """One retry attempt was dispatched for a transient failure."""
        with self._lock:
            self.requests_retried += 1

    def record_unqueued(self, frames: int) -> None:
        """Frames left the queue without being dispatched (shed/expired)."""
        with self._lock:
            self.queue_depth_frames -= frames

    # -- power-aware serving --------------------------------------------
    def record_decode_outcome(
        self,
        frames: int,
        info_bits: int,
        iterations: int,
        budget: int,
        energy_pj: float,
        rule: str | None = None,
    ) -> None:
        """Account one delivered request's decode work and energy.

        ``iterations`` is the summed per-frame iteration count,
        ``budget`` the summed per-frame ``max_iterations`` the request
        *would* have burned without early termination — their ratio is
        the measured iteration saving.  ``rule`` attributes the work to
        the policy rule that selected the config (None when no rule
        fired).
        """
        with self._lock:
            self.energy_pj_total += energy_pj
            self.info_bits_decoded += info_bits
            self.iterations_executed += iterations
            self.iteration_budget_total += budget
            self._energy_frames += frames
            if rule is not None:
                stats = self._policy_rules.setdefault(rule, [0, 0, 0, 0])
                stats[0] += 1
                stats[1] += frames
                stats[2] += iterations
                stats[3] += budget

    def policy_snapshot(self) -> dict:
        """Per-rule selection counts and measured iteration savings."""
        with self._lock:
            rules = {}
            for name, (selections, frames, iterations, budget) in sorted(
                self._policy_rules.items()
            ):
                rules[name] = {
                    "selections": selections,
                    "frames_total": frames,
                    "iterations_total": iterations,
                    "budget_total": budget,
                    "avg_iterations": iterations / frames if frames else 0.0,
                }
            return {
                "rules": rules,
                "avg_iterations": (
                    self.iterations_executed / self._energy_frames
                    if self._energy_frames
                    else 0.0
                ),
                "iteration_savings_pct": (
                    100.0
                    * (1.0 - self.iterations_executed
                       / self.iteration_budget_total)
                    if self.iteration_budget_total
                    else 0.0
                ),
            }

    # ------------------------------------------------------------------
    # Derived view
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Current counters plus derived rates and latency quantiles."""
        with self._lock:
            elapsed = max(self._clock() - self._started, 1e-12)
            filled = min(self._latency_count, LATENCY_WINDOW)
            window = self._latencies[:filled]
            if filled:
                # Plain floats: snapshots end up in json.dumps (bench
                # output), which rejects numpy scalars.
                p50, p99 = (
                    float(q) for q in np.percentile(window, [50, 99])
                )
                mean = float(window.mean())
            else:
                p50 = p99 = mean = 0.0
            batches = self.batches_dispatched
            return {
                "uptime_s": elapsed,
                "requests_submitted": self.requests_submitted,
                "requests_completed": self.requests_completed,
                "requests_failed": self.requests_failed,
                "requests_cancelled": self.requests_cancelled,
                "requests_rejected": self.requests_rejected,
                "requests_quota_rejected": self.requests_quota_rejected,
                "requests_shed": self.requests_shed,
                "requests_timed_out": self.requests_timed_out,
                "requests_retried": self.requests_retried,
                "submits_blocked": self.submits_blocked,
                "frames_submitted": self.frames_submitted,
                "frames_decoded": self.frames_decoded,
                "frames_per_second": self.frames_decoded / elapsed,
                "batches_dispatched": batches,
                "mean_batch_frames": (
                    self.batch_frames_total / batches if batches else 0.0
                ),
                "max_batch_frames": self.max_batch_frames,
                "flushes_size": self.flushes_size,
                "flushes_deadline": self.flushes_deadline,
                "flushes_drain": self.flushes_drain,
                "mode_switches": self.mode_switches,
                "queue_depth_frames": self.queue_depth_frames,
                "peak_queue_depth_frames": self.peak_queue_depth_frames,
                "latency_p50_ms": p50 * 1e3,
                "latency_p99_ms": p99 * 1e3,
                "latency_mean_ms": mean * 1e3,
                "energy_pj_total": self.energy_pj_total,
                "info_bits_decoded": self.info_bits_decoded,
                "energy_per_bit_pj": (
                    self.energy_pj_total / self.info_bits_decoded
                    if self.info_bits_decoded
                    else 0.0
                ),
                "iterations_executed": self.iterations_executed,
                "iteration_budget_total": self.iteration_budget_total,
                "avg_iterations": (
                    self.iterations_executed / self._energy_frames
                    if self._energy_frames
                    else 0.0
                ),
            }

    def prometheus_text(self, extra: dict | None = None, prefix: str = "repro") -> str:
        """This accumulator's snapshot as Prometheus exposition text.

        ``extra`` merges additional nested sections into the snapshot
        before rendering — how the service attaches plan-cache and
        worker-pool statistics without this class knowing about either.
        """
        snapshot = self.snapshot()
        if extra:
            snapshot.update(extra)
        return prometheus_text(snapshot, prefix=prefix)


#: Snapshot keys that are monotonically non-decreasing totals; everything
#: else (depths, rates, quantiles) is a point-in-time gauge.  Prometheus
#: semantics care: counters may be rate()d, gauges may not.
_COUNTER_KEYS = frozenset({
    "requests_submitted", "requests_completed", "requests_failed",
    "requests_cancelled", "requests_rejected", "requests_quota_rejected",
    "requests_shed", "requests_timed_out", "requests_retried",
    "submits_blocked", "frames_submitted", "frames_decoded",
    "batches_dispatched", "flushes_size",
    "flushes_deadline", "flushes_drain", "mode_switches", "hits", "misses",
    "evictions", "crashes_detected", "hangs_detected", "respawns",
    "processes_spawned", "tasks_completed", "segments_created",
    "segments_unlinked",
    # Power-aware serving + adaptive policies (PR 9).  The derived
    # ratios (energy_per_bit_pj, avg_iterations, iteration_savings_pct)
    # are gauges and intentionally absent here.
    "energy_pj_total", "info_bits_decoded", "iterations_executed",
    "iteration_budget_total", "selections", "frames_total",
    "iterations_total", "budget_total",
})


def prometheus_text(snapshot: dict, prefix: str = "repro") -> str:
    """Render a metrics snapshot as Prometheus exposition text.

    Accepts the (possibly nested) dict shape of
    ``DecodeService.metrics_snapshot()``: scalar values become
    ``<prefix>_<key>`` samples, nested dicts (``plan_cache``,
    ``worker_pool``) flatten to ``<prefix>_<group>_<key>``, and a text
    value becomes ``<name>{<key>="<text>"} 1``.  Each sample
    carries a ``# TYPE`` line (``counter`` for monotone totals,
    ``gauge`` otherwise), which is all a Prometheus scraper needs — no
    client library involved.
    """
    lines: list[str] = []

    def emit(name: str, key: str, value) -> None:
        if isinstance(value, dict):
            for sub_key, sub_value in value.items():
                emit(f"{name}_{sub_key}", sub_key, sub_value)
            return
        metric = name.replace(".", "_").replace("-", "_")
        if isinstance(value, str):
            # A setting (e.g. the resolved executor): an info-style
            # gauge that carries the text as a label.
            label = value.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f'{metric}{{{key}="{label}"}} 1')
            return
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return  # odd values have no exposition form
        kind = "counter" if key in _COUNTER_KEYS else "gauge"
        lines.append(f"# TYPE {metric} {kind}")
        lines.append(f"{metric} {value}")

    for key, value in snapshot.items():
        emit(f"{prefix}_{key}", key, value)
    return "\n".join(lines) + "\n"
