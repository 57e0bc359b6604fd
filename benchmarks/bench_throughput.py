#!/usr/bin/env python
"""End-to-end decoder throughput benchmark across backends.

Measures decoded *information* throughput (Mbps) of the layered decoder
for the WiMax N=2304 and WiFi N=1944 modes, per registered backend, in
both the float datapath and the paper's fixed-point Q8.2 datapath, and
writes the results to ``BENCH_decoder.json`` at the repo root so the
perf trajectory is tracked from PR to PR.

Also verifies, on every run, that the fixed-point outputs of every
backend are bit-identical to the ``reference`` backend (hard bits, raw
LLRs and iteration counts) — the correctness contract of the fast
kernels — and records the float/fixed speedup ratios.

A **min-sum** section measures the fused min-sum kernels (PR 3): the
WiMax N=2304 workload decoded with ``normalized-minsum`` per backend, in
both datapaths, with the same fixed-point bit-identity assertion; the
``--check-minsum-speedup X`` flag gates CI on the fused fast kernels
beating the reference by ``X``×.

Two further scenarios ride along and land in the same JSON:

- **compaction** — frames/sec of the fast backend with active-frame
  compaction on vs off, at operating points where the paper's early
  termination actually fires.  Both datapaths now run at 3.5 dB: the
  PR 3 fix (zero-broken quantization/message port + guarded SISO fold)
  lets the Q8.2 datapath converge and early-terminate alongside float,
  where the seed-era datapath needed ~7 dB.  Asserts the two modes are
  bit-identical and records the speedup.
- **parallel_sweep** — a small Eb/N0 sweep through the serial
  :class:`~repro.runtime.SweepEngine`, forced 2- and 4-worker process
  pools (the scaling trajectory) and the auto break-even gate; asserts
  every row's statistics match serial exactly and records wall times,
  speedups and the gate's verdict (``--check-parallel-sweep-speedup X``
  gates CI on the auto row never losing to serial).
- **service_executors** — the mixed-standard service workload decoded
  through ``executor="thread"`` vs ``executor="process"`` at equal
  worker counts; asserts bit-identity and records the speedup plus the
  process pool's shared-memory segment lifecycle counters.
- **service** — the mixed-standard dynamic-batching scenario: N
  single-frame requests round-robining three modes across two
  standards, decoded one-frame-at-a-time (prebuilt per-mode decoders)
  vs through :class:`~repro.service.DecodeService`; asserts per-request
  bit-identity and records frames/s, the speedup, batch fill, mode
  switches and latency quantiles (``--check-service-speedup X`` gates
  CI on the batching win).
- **policy** — adaptive decode policies (ROADMAP item 5) on a
  mixed-SNR storm: the same traffic served by one static Q8.2 config
  and by a policy-enabled service that picks check-node/datapath/
  iteration budget per reported SNR band.  Records avg iterations and
  energy-per-bit on both sides, per-rule selection counts, and the
  *measured* converged-then-corrupted frame count of the service-tier
  ``paper-or-syndrome`` rule (gated at zero — the PR 3 residual stays
  retired); asserts per-request bit-identity against direct decodes
  under each rule's config.
- **harq** — IR-HARQ sessions on a 5G NR BG1 mode: rate-matched
  transmissions at rv0→2→3→1 soft-combined and re-decoded over AWGN and
  per-frame Rayleigh block fading, recording decoded frames/s and the
  per-retransmission BER/FER trajectory; fails the run unless FER
  improves monotonically with each redundancy version on both channels.
- **server** — the same workload through the asyncio socket front door
  (:class:`~repro.server.DecodeServer` + one pipelined
  :class:`~repro.server.DecodeClient`) vs the in-process service:
  frames/s and client-observed p99 on both paths, so the framed-
  protocol transport cost is tracked from PR to PR; asserts socket
  results stay bit-identical to direct decodes.

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py            # full
    PYTHONPATH=src python benchmarks/bench_throughput.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_throughput.py --check-speedup 5

``--check-speedup X`` exits non-zero unless the fast backend beats the
reference by at least ``X``× on the WiMax N=2304 fixed-point workload.
Frame count scales with ``--frames`` / ``REPRO_BENCH_FRAMES``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import Table
from repro.channel import AWGNChannel, BPSKModulator, ChannelFrontend
from repro.codes import get_code
from repro.decoder import DecoderConfig, LayeredDecoder, registered_backends
from repro.encoder import make_encoder
from repro.fixedpoint import QFormat
from repro.runtime import SweepEngine

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_decoder.json"

#: (mode string, short label) benchmark workloads.
WORKLOADS = (
    ("802.16e:1/2:z96", "wimax_n2304"),
    ("802.11n:1/2:z81", "wifi_n1944"),
)

EBN0_DB = 3.5
SEED = 7


def make_workload(mode: str, frames: int):
    """Deterministic noisy LLR batch (encode → BPSK → AWGN → LLR)."""
    code = get_code(mode)
    rng = np.random.default_rng(SEED)
    encoder = make_encoder(code)
    _, codewords = encoder.random_codewords(frames, rng)
    frontend = ChannelFrontend(
        BPSKModulator(), AWGNChannel.from_ebn0(EBN0_DB, code.rate, rng=rng)
    )
    return code, frontend.run(codewords)


def time_decoder(decoder, llr, repeats: int) -> tuple[float, object]:
    """Best-of-N wall time for one full batch decode."""
    decoder.decode(llr[: min(4, llr.shape[0])])  # warm caches / ROMs
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = decoder.decode(llr)
        best = min(best, time.perf_counter() - start)
    return best, result


def run_benchmark(frames: int, repeats: int) -> dict:
    backends = registered_backends()
    results: dict = {
        "benchmark": "bench_throughput",
        "ebn0_db": EBN0_DB,
        "frames": frames,
        "repeats": repeats,
        "max_iterations": 10,
        "early_termination": "paper",
        "backends": list(backends),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {},
    }
    for mode, label in WORKLOADS:
        code, llr = make_workload(mode, frames)
        entry: dict = {"mode": mode, "n": code.n, "k": code.n_info}
        reference_fixed = None
        for backend in backends:
            for datapath, qformat in (("float", None), ("fixed", QFormat(8, 2))):
                config = DecoderConfig(
                    backend=backend,
                    qformat=qformat,
                    max_iterations=10,
                    early_termination="paper",
                )
                seconds, result = time_decoder(
                    LayeredDecoder(code, config), llr, repeats
                )
                mbps = frames * code.n_info / seconds / 1e6
                entry[f"{backend}_{datapath}_ms"] = round(seconds * 1e3, 3)
                entry[f"{backend}_{datapath}_mbps"] = round(mbps, 3)
                if datapath == "fixed":
                    if backend == "reference":
                        reference_fixed = result
                    else:
                        identical = (
                            np.array_equal(reference_fixed.bits, result.bits)
                            and np.array_equal(reference_fixed.llr, result.llr)
                            and np.array_equal(
                                reference_fixed.iterations, result.iterations
                            )
                        )
                        entry[f"{backend}_fixed_bit_identical"] = bool(identical)
        for backend in backends:
            if backend == "reference":
                continue
            for datapath in ("float", "fixed"):
                entry[f"{backend}_{datapath}_speedup"] = round(
                    entry[f"reference_{datapath}_ms"]
                    / entry[f"{backend}_{datapath}_ms"],
                    2,
                )
        results["workloads"][label] = entry
    return results


#: Min-sum benchmark: the throughput-class algorithm of the comparison
#: chips, on the biggest standard workload.
MINSUM_MODE = "802.16e:1/2:z96"
MINSUM_CHECK_NODE = "normalized-minsum"


def run_minsum_benchmark(frames: int, repeats: int) -> dict:
    """Fused min-sum throughput per backend (float + Q8.2), WiMax N=2304."""
    backends = registered_backends()
    code, llr = make_workload(MINSUM_MODE, frames)
    entry: dict = {
        "mode": MINSUM_MODE,
        "check_node": MINSUM_CHECK_NODE,
        "n": code.n,
        "k": code.n_info,
    }
    reference_fixed = None
    for backend in backends:
        for datapath, qformat in (("float", None), ("fixed", QFormat(8, 2))):
            config = DecoderConfig(
                backend=backend,
                check_node=MINSUM_CHECK_NODE,
                qformat=qformat,
                max_iterations=10,
                early_termination="paper",
            )
            seconds, result = time_decoder(
                LayeredDecoder(code, config), llr, repeats
            )
            mbps = frames * code.n_info / seconds / 1e6
            entry[f"{backend}_{datapath}_ms"] = round(seconds * 1e3, 3)
            entry[f"{backend}_{datapath}_mbps"] = round(mbps, 3)
            entry[f"{backend}_{datapath}_fps"] = round(frames / seconds, 1)
            if datapath == "fixed":
                if backend == "reference":
                    reference_fixed = result
                else:
                    identical = (
                        np.array_equal(reference_fixed.bits, result.bits)
                        and np.array_equal(reference_fixed.llr, result.llr)
                        and np.array_equal(
                            reference_fixed.iterations, result.iterations
                        )
                    )
                    entry[f"{backend}_fixed_bit_identical"] = bool(identical)
    for backend in backends:
        if backend == "reference":
            continue
        for datapath in ("float", "fixed"):
            entry[f"{backend}_{datapath}_speedup"] = round(
                entry[f"reference_{datapath}_ms"]
                / entry[f"{backend}_{datapath}_ms"],
                2,
            )
    return entry


#: Compaction scenarios: (mode, label, Eb/N0 dB, qformat) — operating
#: points chosen so early termination retires most frames well before
#: the 10-iteration budget (that tail is what compaction reclaims).
COMPACTION_SCENARIOS = (
    ("802.16e:1/2:z96", "float_wimax_n2304_3.5dB", 3.5, None),
    ("802.16e:1/2:z24", "fixed_wimax_n576_3.5dB", 3.5, QFormat(8, 2)),
)


def run_compaction_benchmark(frames: int, repeats: int) -> dict:
    """Frames/sec with the working batch compacted vs carried through."""
    scenarios: dict = {}
    for mode, label, ebn0_db, qformat in COMPACTION_SCENARIOS:
        code = get_code(mode)
        rng = np.random.default_rng(SEED)
        encoder = make_encoder(code)
        _, codewords = encoder.random_codewords(frames, rng)
        llr = ChannelFrontend(
            BPSKModulator(), AWGNChannel.from_ebn0(ebn0_db, code.rate, rng=rng)
        ).run(codewords)
        entry: dict = {"mode": mode, "ebn0_db": ebn0_db, "frames": frames}
        outputs = {}
        for compact in (True, False):
            config = DecoderConfig(
                backend="fast",
                qformat=qformat,
                max_iterations=10,
                early_termination="paper",
                compact_frames=compact,
            )
            seconds, result = time_decoder(
                LayeredDecoder(code, config), llr, repeats
            )
            key = "compacted" if compact else "carried"
            entry[f"{key}_ms"] = round(seconds * 1e3, 3)
            entry[f"{key}_fps"] = round(frames / seconds, 1)
            outputs[key] = result
        entry["average_iterations"] = round(
            outputs["compacted"].average_iterations, 3
        )
        entry["et_rate"] = round(
            float(np.mean(outputs["compacted"].et_stopped)), 3
        )
        entry["compaction_speedup"] = round(
            entry["carried_ms"] / entry["compacted_ms"], 2
        )
        entry["bit_identical"] = bool(
            np.array_equal(outputs["compacted"].bits, outputs["carried"].bits)
            and np.array_equal(
                outputs["compacted"].llr, outputs["carried"].llr
            )
            and np.array_equal(
                outputs["compacted"].iterations, outputs["carried"].iterations
            )
        )
        scenarios[label] = entry
    return scenarios


#: Mixed-standard service workload: three modes, two standards, round-
#: robin single-frame requests — the paper's operating condition (many
#: users, mixed standards, one datapath).
SERVICE_MODES = ("802.16e:1/2:z24", "802.11n:1/2:z27", "802.16e:1/2:z96")
SERVICE_MAX_BATCH = 32
SERVICE_MAX_WAIT = 0.02


def run_service_benchmark(requests: int, repeats: int = 1) -> dict:
    """Dynamic-batching service vs one-frame-at-a-time direct decode.

    Each request carries ONE frame of one mode (round-robin over
    ``SERVICE_MODES``): the unbatched baseline decodes them serially
    through prebuilt per-mode decoders (plan/ROM costs amortized — the
    baseline is *not* handicapped with per-request construction), while
    the service merges them into up to ``SERVICE_MAX_BATCH``-frame
    batches per mode.  The speedup is therefore pure batch-axis
    vectorization + pipelined workers, and the outputs are asserted
    bit-identical request for request.  Both sides are timed best-of-
    ``repeats`` (like every other scenario here) so one scheduler stall
    on a noisy runner cannot skew the CI speedup gate either way.
    """
    from repro.service import DecodeService, PlanCache

    requests -= requests % len(SERVICE_MODES)
    requests = max(requests, len(SERVICE_MODES))
    config = DecoderConfig(backend="fast")
    workload = []  # (mode, llr_frame) per request
    for mode in SERVICE_MODES:
        code, llr = make_workload(mode, requests // len(SERVICE_MODES))
        for i in range(llr.shape[0]):
            workload.append((mode, llr[i]))
    # Interleave modes: consecutive requests alternate standards, so
    # batching has to regroup them (the realistic arrival order).
    per_mode = requests // len(SERVICE_MODES)
    interleaved = [
        workload[m * per_mode + i]
        for i in range(per_mode)
        for m in range(len(SERVICE_MODES))
    ]

    decoders = {
        mode: LayeredDecoder(get_code(mode), config) for mode in SERVICE_MODES
    }
    unbatched_s = float("inf")
    direct = None
    for _ in range(repeats):
        start = time.perf_counter()
        attempt = [decoders[mode].decode(frame) for mode, frame in interleaved]
        unbatched_s = min(unbatched_s, time.perf_counter() - start)
        direct = attempt

    service_s = float("inf")
    served = None
    snapshot = None
    for _ in range(repeats):
        cache = PlanCache(default_config=config)
        with DecodeService(
            max_batch=SERVICE_MAX_BATCH,
            max_wait=SERVICE_MAX_WAIT,
            workers=2,
            # Threads, as this gate has always measured: it times
            # batching against one-frame decode, not the executor, and
            # only a thread worker decodes from the caller's cache.
            executor="thread",
            cache=cache,
            # Explicit: the baseline decodes with paper ET, so the
            # service must too (a defaulted config would be upgraded to
            # the service-tier paper-or-syndrome rule and the
            # bit-identity gate would compare different ET rules).
            default_config=config,
            warm_modes=SERVICE_MODES,
        ) as service:
            start = time.perf_counter()
            futures = [
                service.submit(mode, frame, client=f"user{i % 8}")
                for i, (mode, frame) in enumerate(interleaved)
            ]
            attempt = [f.result(timeout=120) for f in futures]
            elapsed = time.perf_counter() - start
            if elapsed < service_s:
                service_s = elapsed
                snapshot = service.metrics_snapshot()
            served = attempt

    identical = all(
        np.array_equal(a.bits, b.bits)
        and np.array_equal(a.llr, b.llr)
        and np.array_equal(a.iterations, b.iterations)
        and np.array_equal(a.et_stopped, b.et_stopped)
        for a, b in zip(direct, served)
    )
    return {
        "modes": list(SERVICE_MODES),
        "requests": requests,
        "frames_per_request": 1,
        "max_batch": SERVICE_MAX_BATCH,
        "max_wait_s": SERVICE_MAX_WAIT,
        "workers": 2,
        "unbatched_s": round(unbatched_s, 3),
        "unbatched_fps": round(requests / unbatched_s, 1),
        "service_s": round(service_s, 3),
        "service_fps": round(requests / service_s, 1),
        "service_speedup": round(unbatched_s / service_s, 2),
        "bit_identical": bool(identical),
        "batches_dispatched": snapshot["batches_dispatched"],
        "mean_batch_frames": round(snapshot["mean_batch_frames"], 2),
        "mode_switches": snapshot["mode_switches"],
        "latency_p50_ms": round(snapshot["latency_p50_ms"], 3),
        "latency_p99_ms": round(snapshot["latency_p99_ms"], 3),
        "plan_cache": snapshot["plan_cache"],
    }


def run_server_benchmark(requests: int, repeats: int = 1) -> dict:
    """Socket front door vs in-process service: frames/s and p99.

    The same single-frame mixed-standard workload as the ``service``
    scenario travels two paths built on identical service knobs: (a)
    in-process ``DecodeService.submit`` futures, (b) a loopback
    :class:`~repro.server.DecodeServer` with one pipelined
    :class:`~repro.server.DecodeClient` connection — so the delta is
    pure transport (framing, JSON headers, asyncio, TCP), not batching.
    Client-side per-request latency (send to response) gives the socket
    p99; the in-process p99 comes from the service's own metrics.
    Results are asserted bit-identical to direct per-mode decodes.
    """
    import asyncio

    from repro.server import DecodeClient, DecodeServer
    from repro.service import DecodeService

    requests -= requests % len(SERVICE_MODES)
    requests = max(requests, len(SERVICE_MODES))
    config = DecoderConfig(backend="fast")
    per_mode = requests // len(SERVICE_MODES)
    workload = []
    for mode in SERVICE_MODES:
        code, llr = make_workload(mode, per_mode)
        for i in range(llr.shape[0]):
            workload.append((mode, llr[i]))
    interleaved = [
        workload[m * per_mode + i]
        for i in range(per_mode)
        for m in range(len(SERVICE_MODES))
    ]
    decoders = {
        mode: LayeredDecoder(get_code(mode), config) for mode in SERVICE_MODES
    }
    direct = [decoders[mode].decode(frame) for mode, frame in interleaved]

    def service_kwargs():
        return dict(
            max_batch=SERVICE_MAX_BATCH,
            max_wait=SERVICE_MAX_WAIT,
            workers=2,
            executor="thread",  # measures the wire, not the executor
            default_config=config,
            warm_modes=SERVICE_MODES,
        )

    inproc_s = float("inf")
    inproc_p99 = None
    inproc_results = None
    for _ in range(repeats):
        with DecodeService(**service_kwargs()) as service:
            start = time.perf_counter()
            futures = [
                service.submit(mode, frame, client=f"user{i % 8}")
                for i, (mode, frame) in enumerate(interleaved)
            ]
            attempt = [f.result(timeout=120) for f in futures]
            elapsed = time.perf_counter() - start
            if elapsed < inproc_s:
                inproc_s = elapsed
                inproc_p99 = service.metrics_snapshot()["latency_p99_ms"]
            inproc_results = attempt

    async def socket_pass():
        service = DecodeService(**service_kwargs())
        try:
            async with DecodeServer(service=service) as server:
                async with await DecodeClient.connect(*server.address) as client:
                    latencies = []

                    async def one(mode, frame):
                        t0 = time.perf_counter()
                        result = await client.decode(mode, frame)
                        latencies.append(time.perf_counter() - t0)
                        return result

                    start = time.perf_counter()
                    attempt = await asyncio.gather(*[
                        one(mode, frame) for mode, frame in interleaved
                    ])
                    elapsed = time.perf_counter() - start
                    return elapsed, latencies, attempt
        finally:
            service.close()

    socket_s = float("inf")
    socket_p99 = None
    socket_results = None
    for _ in range(repeats):
        elapsed, latencies, attempt = asyncio.run(socket_pass())
        if elapsed < socket_s:
            socket_s = elapsed
            socket_p99 = float(np.percentile(latencies, 99) * 1000.0)
        socket_results = attempt

    identical = all(
        np.array_equal(a.bits, b.bits)
        and np.array_equal(a.llr, b.llr)
        and np.array_equal(a.iterations, b.iterations)
        for served in (inproc_results, socket_results)
        for a, b in zip(direct, served)
    )
    return {
        "modes": list(SERVICE_MODES),
        "requests": requests,
        "frames_per_request": 1,
        "connections": 1,
        "inproc_s": round(inproc_s, 3),
        "inproc_fps": round(requests / inproc_s, 1),
        "inproc_p99_ms": round(inproc_p99, 3),
        "socket_s": round(socket_s, 3),
        "socket_fps": round(requests / socket_s, 1),
        "socket_p99_ms": round(socket_p99, 3),
        "socket_overhead": round(socket_s / inproc_s, 2),
        "bit_identical": bool(identical),
    }


#: Parallel-sweep rows: row key -> SweepEngine kwargs.  The forced rows
#: exercise the pool even where it cannot win (scaling trajectory); the
#: ``auto`` row is the one users get — its break-even gate must make it
#: at least as fast as serial, which is what the CI gate checks.
PARALLEL_SWEEP_ROWS = (
    ("serial", dict(workers=0)),
    ("parallel2", dict(workers=2, force_parallel=True)),
    ("parallel4", dict(workers=4, force_parallel=True)),
    ("auto", dict(workers=4)),
)


def run_parallel_sweep_benchmark(frames: int) -> dict:
    """SweepEngine worker-count scaling plus the auto break-even verdict.

    Serial baseline, forced 2- and 4-worker process-pool rows (the
    scaling trajectory, honest even on boxes where forking loses), and
    an ``auto`` row where the engine's measured break-even gate picks
    the executor itself.  All rows must produce bit-identical
    statistics; the ``auto`` row must not be slower than serial (the
    regression this benchmark exists to catch — the seed-era harness
    spawned a fresh pool per sweep and lost to serial every time).
    """
    code = get_code("802.16e:1/2:z24")
    ebn0 = [2.0, 3.0]
    budget = dict(
        max_frames=frames, min_frame_errors=frames + 1, batch_size=50
    )
    config = DecoderConfig(backend="fast")
    timings: dict = {
        "mode": code.name,
        "ebn0_db": ebn0,
        "frames_per_point": frames,
    }
    points = {}
    for key, kwargs in PARALLEL_SWEEP_ROWS:
        engine = SweepEngine(code, config, seed=SEED, **kwargs)
        start = time.perf_counter()
        points[key] = engine.run(ebn0, **budget)
        seconds = time.perf_counter() - start
        timings[f"{key}_s"] = round(seconds, 3)
        timings[f"{key}_fps"] = round(len(ebn0) * frames / seconds, 1)
        decision = engine.last_decision or {}
        timings[f"{key}_executor"] = decision.get("executor")
        if key == "auto":
            timings["auto_reason"] = decision.get("reason")
            timings["break_even"] = {
                "effective_workers": decision.get("effective_workers"),
                "chunks_per_task": decision.get("chunks_per_task"),
                "calibration_s": _round_opt(decision.get("calibration_s"), 4),
                "frames_per_s": _round_opt(decision.get("frames_per_s"), 1),
                "estimated_work_s": _round_opt(
                    decision.get("estimated_work_s"), 4
                ),
                "estimated_overhead_s": _round_opt(
                    decision.get("estimated_overhead_s"), 4
                ),
            }
    serial_dicts = [p.to_dict() for p in points["serial"]]
    for key, _ in PARALLEL_SWEEP_ROWS[1:]:
        timings[f"{key}_speedup"] = round(
            timings["serial_s"] / timings[f"{key}_s"], 2
        )
    timings["statistics_identical"] = bool(
        all(
            [p.to_dict() for p in points[key]] == serial_dicts
            for key, _ in PARALLEL_SWEEP_ROWS[1:]
        )
    )
    return timings


def _round_opt(value, digits: int):
    return None if value is None else round(value, digits)


#: Worker count for the thread-vs-process executor comparison — the
#: acceptance point where process sharding should pull ahead of the
#: GIL-bound thread pool (on multi-core hosts; single-core boxes record
#: the honest loss).
SERVICE_EXECUTOR_WORKERS = 4
SERVICE_EXECUTOR_FRAMES_PER_REQUEST = 4


def run_service_executor_benchmark(requests: int, repeats: int = 1) -> dict:
    """Thread vs process executor on the mixed-standard service workload.

    The same service knobs on both sides — only ``executor`` differs —
    with ``SERVICE_EXECUTOR_WORKERS`` workers and multi-frame requests
    (heavier batches amortize the shared-memory hop).  Outputs are
    asserted bit-identical executor for executor; the speedup and the
    process pool's own counters (batches offloaded, segments created /
    unlinked) land in the JSON so the shm lifecycle is tracked too.
    """
    from repro.service import DecodeService

    requests -= requests % len(SERVICE_MODES)
    requests = max(requests, len(SERVICE_MODES))
    config = DecoderConfig(backend="fast")
    per_mode = requests // len(SERVICE_MODES)
    frames_per_request = SERVICE_EXECUTOR_FRAMES_PER_REQUEST
    workload = []
    for mode in SERVICE_MODES:
        code, llr = make_workload(mode, per_mode * frames_per_request)
        for i in range(per_mode):
            workload.append(
                (mode, llr[i * frames_per_request:(i + 1) * frames_per_request])
            )
    interleaved = [
        workload[m * per_mode + i]
        for i in range(per_mode)
        for m in range(len(SERVICE_MODES))
    ]

    entry: dict = {
        "modes": list(SERVICE_MODES),
        "requests": requests,
        "frames_per_request": frames_per_request,
        "max_batch": SERVICE_MAX_BATCH,
        "max_wait_s": SERVICE_MAX_WAIT,
        "workers": SERVICE_EXECUTOR_WORKERS,
    }
    outputs: dict = {}
    for executor in ("thread", "process"):
        best_s = float("inf")
        kept = None
        snapshot = None
        for _ in range(repeats):
            with DecodeService(
                max_batch=SERVICE_MAX_BATCH,
                max_wait=SERVICE_MAX_WAIT,
                workers=SERVICE_EXECUTOR_WORKERS,
                executor=executor,
                default_config=config,
                warm_modes=SERVICE_MODES,
            ) as service:
                start = time.perf_counter()
                futures = [
                    service.submit(mode, frames, client=f"user{i % 8}")
                    for i, (mode, frames) in enumerate(interleaved)
                ]
                attempt = [f.result(timeout=240) for f in futures]
                elapsed = time.perf_counter() - start
                if elapsed < best_s:
                    best_s = elapsed
                    snapshot = service.metrics_snapshot()
                kept = attempt
            # Post-close pool counters: every segment ever created must
            # be unlinked by shutdown (the shm-lifecycle contract).
            final_pool = service.metrics_snapshot()["worker_pool"]
        outputs[executor] = kept
        total_frames = requests * frames_per_request
        entry[f"{executor}_s"] = round(best_s, 3)
        entry[f"{executor}_fps"] = round(total_frames / best_s, 1)
        entry[f"{executor}_p99_ms"] = round(snapshot["latency_p99_ms"], 3)
        if executor == "process":
            entry["batches_offloaded"] = snapshot["batches_offloaded"]
            entry["segments_created"] = final_pool.get("segments_created")
            entry["segments_unlinked"] = final_pool.get("segments_unlinked")
    entry["process_speedup"] = round(entry["thread_s"] / entry["process_s"], 2)
    entry["bit_identical"] = bool(
        all(
            np.array_equal(a.bits, b.bits)
            and np.array_equal(a.llr, b.llr)
            and np.array_equal(a.iterations, b.iterations)
            and np.array_equal(a.et_stopped, b.et_stopped)
            for a, b in zip(outputs["thread"], outputs["process"])
        )
    )
    return entry


#: Mixed-SNR policy storm: Eb/N0 bands cycled round-robin.  At rate 1/2
#: BPSK the channel SNR in dB equals Eb/N0 in dB, so the bands land one
#: request in each of the default policy's three rules.
POLICY_MODE = "802.16e:1/2:z24"
POLICY_EBN0_BANDS = (1.0, 3.0, 6.0)
POLICY_FRAMES_PER_REQUEST = 2


def _measure_recorruption(code, config, llr) -> int:
    """Converged-then-corrupted frames of one decode, measured.

    Steps the resumable decoder one iteration at a time (uncompacted —
    bit-identical per the property suite) and counts frames whose APP
    signs formed a true codeword while live but whose final output is
    not one.  Under the service-tier ``paper-or-syndrome`` rule this
    must be zero by construction; the benchmark measures it anyway.
    """
    decoder = LayeredDecoder(code, config.replace(compact_frames=False))
    state = decoder.begin_decode(llr)
    ever_codeword = np.zeros(llr.shape[0], dtype=bool)
    live = ~state.done_mask
    while not state.done:
        decoder.step(state, 1)
        bits = (state.arrays[0] < 0).astype(np.uint8)
        ever_codeword |= live & np.asarray(code.is_codeword(bits))
        live = ~state.done_mask
    result = decoder.finish(state)
    return int((ever_codeword & ~result.converged).sum())


def run_policy_benchmark(requests: int, repeats: int = 1) -> dict:
    """Adaptive decode policy vs one static config on mixed-SNR traffic.

    The storm cycles ``POLICY_EBN0_BANDS`` round-robin, two frames per
    request.  The static side serves everything with the paper's single
    Q8.2 operating point (service-tier ET); the policy side reports the
    operating SNR per request and lets :class:`~repro.service.policy.
    DecodePolicy` pick the check-node algorithm, datapath and iteration
    budget per band.  Records avg iterations and energy-per-bit on both
    sides (the measured adaptive saving), per-rule selection counts,
    the measured converged-then-corrupted count of the static config
    (must be zero — the PR 3 residual stays retired), and asserts every
    policy-served request bit-identical to a direct decode under the
    rule's config.

    Both sides run ``backend="fast"``, so their fps compare policies,
    not kernels.
    """
    from repro.service import (
        DecodePolicy,
        DecodeService,
        prometheus_text,
    )

    code = get_code(POLICY_MODE)
    bands = len(POLICY_EBN0_BANDS)
    requests -= requests % bands
    requests = max(requests, bands)
    per_band = requests // bands
    rng = np.random.default_rng(SEED)
    encoder = make_encoder(code)
    by_band = []
    for ebn0 in POLICY_EBN0_BANDS:
        _, codewords = encoder.random_codewords(
            per_band * POLICY_FRAMES_PER_REQUEST, rng
        )
        llr = ChannelFrontend(
            BPSKModulator(), AWGNChannel.from_ebn0(ebn0, code.rate, rng=rng)
        ).run(codewords)
        by_band.append(
            [
                (ebn0, llr[i::per_band])
                for i in range(per_band)
            ]
        )
    storm = [by_band[b][i] for i in range(per_band) for b in range(bands)]

    static_config = DecoderConfig(
        backend="fast",
        qformat=QFormat(8, 2),
        early_termination="paper-or-syndrome",
    )
    entry: dict = {
        "mode": POLICY_MODE,
        "requests": requests,
        "frames_per_request": POLICY_FRAMES_PER_REQUEST,
        "ebn0_bands": list(POLICY_EBN0_BANDS),
    }

    static_s = float("inf")
    static_snapshot = None
    for _ in range(repeats):
        with DecodeService(
            max_batch=SERVICE_MAX_BATCH,
            max_wait=SERVICE_MAX_WAIT,
            workers=2,
            executor="thread",  # measures the policy, not the executor
            default_config=static_config,
            warm_modes=[POLICY_MODE],
        ) as service:
            start = time.perf_counter()
            futures = [
                service.submit(POLICY_MODE, llr) for _, llr in storm
            ]
            for future in futures:
                future.result(timeout=120)
            elapsed = time.perf_counter() - start
            if elapsed < static_s:
                static_s = elapsed
                static_snapshot = service.metrics_snapshot()

    policy = DecodePolicy()
    policy_s = float("inf")
    policy_snapshot = None
    policy_results = None
    policy_default = None
    gauges_exported = False
    for _ in range(repeats):
        with DecodeService(
            max_batch=SERVICE_MAX_BATCH,
            max_wait=SERVICE_MAX_WAIT,
            workers=2,
            executor="thread",  # as the static baseline above
            default_config=DecoderConfig(
                backend="fast", early_termination="paper-or-syndrome"
            ),
            policy=policy,
            warm_modes=[POLICY_MODE],
        ) as service:
            policy_default = service.default_config
            start = time.perf_counter()
            futures = [
                service.submit(POLICY_MODE, llr, snr_db=snr)
                for snr, llr in storm
            ]
            attempt = [f.result(timeout=120) for f in futures]
            elapsed = time.perf_counter() - start
            snapshot = service.metrics_snapshot()
            if elapsed < policy_s:
                policy_s = elapsed
                policy_snapshot = snapshot
            policy_results = attempt
            text = prometheus_text(snapshot)
            gauges_exported = all(
                gauge in text
                for gauge in (
                    "repro_energy_pj_total",
                    "repro_energy_per_bit_pj",
                    "repro_avg_iterations",
                    "repro_policy_iteration_savings_pct",
                )
            )

    identical = True
    for (snr, llr), served in zip(storm, policy_results):
        _, expected_cfg = policy.select(snr, policy_default)
        direct = LayeredDecoder(code, expected_cfg).decode(llr)
        identical = identical and bool(
            np.array_equal(direct.bits, served.bits)
            and np.array_equal(direct.llr, served.llr)
            and np.array_equal(direct.iterations, served.iterations)
            and np.array_equal(direct.et_stopped, served.et_stopped)
        )

    total_frames = requests * POLICY_FRAMES_PER_REQUEST
    entry["static_s"] = round(static_s, 3)
    entry["static_fps"] = round(total_frames / static_s, 1)
    entry["static_avg_iterations"] = round(
        static_snapshot["avg_iterations"], 3
    )
    entry["static_energy_per_bit_pj"] = round(
        static_snapshot["energy_per_bit_pj"], 3
    )
    entry["policy_s"] = round(policy_s, 3)
    entry["policy_fps"] = round(total_frames / policy_s, 1)
    entry["policy_avg_iterations"] = round(
        policy_snapshot["avg_iterations"], 3
    )
    entry["policy_energy_per_bit_pj"] = round(
        policy_snapshot["energy_per_bit_pj"], 3
    )
    entry["iteration_reduction_pct"] = round(
        100.0
        * (1.0 - entry["policy_avg_iterations"]
           / entry["static_avg_iterations"]),
        1,
    )
    entry["budget_savings_pct"] = round(
        policy_snapshot["policy"]["iteration_savings_pct"], 1
    )
    entry["rule_selections"] = {
        name: stats["selections"]
        for name, stats in policy_snapshot["policy"]["rules"].items()
    }
    entry["recorrupted_frames"] = _measure_recorruption(
        code,
        static_config,
        np.concatenate([llr for _, llr in storm]),
    )
    entry["energy_gauges_exported"] = bool(gauges_exported)
    entry["bit_identical"] = bool(identical)
    return entry


#: IR-HARQ scenario: a 5G NR BG1 mode, rate-matched to half the
#: circular buffer, retransmitted through the standard rv order.  One
#: operating point per channel, each chosen so rv0 alone fails for a
#: visible fraction of blocks and combining digs the FER out — AWGN
#: shows the chase+IR gain cliff, per-frame Rayleigh block fading shows
#: the gradual per-retransmission trajectory HARQ exists for.
HARQ_MODE = "NR:bg1:z8"
HARQ_RV_ORDER = (0, 2, 3, 1)
HARQ_CHANNELS = (("awgn", 1.0), ("rayleigh", 4.0))


def run_harq_benchmark(frames: int, repeats: int = 1) -> dict:
    """IR-HARQ sessions on an NR BG1 mode over AWGN and Rayleigh fading.

    ``frames`` transport blocks ride one batched
    :class:`~repro.nr.HarqSession`: each redundancy version is
    rate-matched, sent through the channel, soft-combined, and the
    *combined* buffer re-decoded — recording BER/FER after every
    retransmission (the per-rv trajectory) plus decoded frames/s over
    the whole HARQ round.  The FER trajectory must be monotonically
    non-increasing rv-to-rv on both channels; ``main`` fails the run
    otherwise.
    """
    from repro.channel import make_channel
    from repro.nr import HarqSession, NRRateMatcher

    code = get_code(HARQ_MODE)
    matcher = NRRateMatcher(code)
    e = matcher.ncb // 2
    encoder = make_encoder(code)
    config = DecoderConfig(
        backend="fast", early_termination="paper-or-syndrome"
    )
    entry: dict = {
        "mode": HARQ_MODE,
        "n": code.n,
        "k": code.n_info,
        "e_per_transmission": e,
        "rv_order": list(HARQ_RV_ORDER),
        "frames": frames,
        "channels": {},
    }
    for channel_name, ebn0_db in HARQ_CHANNELS:
        best_s = float("inf")
        kept = None
        for _ in range(repeats):
            rng = np.random.default_rng(SEED)
            payload = rng.integers(
                0, 2, (frames, matcher.n_payload), dtype=np.uint8
            )
            codewords = encoder.encode(matcher.place_fillers(payload))
            session = HarqSession(code, config)
            # Per-transmission Eb accounting: payload bits per sent bit.
            tx_rate = matcher.n_payload / e
            trajectory = []
            decode_s = 0.0
            for rv in HARQ_RV_ORDER:
                frontend = ChannelFrontend(
                    BPSKModulator(),
                    make_channel(channel_name, ebn0_db, tx_rate, 1, rng=rng),
                )
                llr = frontend.run(matcher.rate_match(codewords, rv, e))
                start = time.perf_counter()
                result = session.receive(llr, rv)
                decode_s += time.perf_counter() - start
                decoded = matcher.extract_payload(
                    result.bits[:, : code.n_info]
                )
                bit_errors = decoded != payload
                trajectory.append(
                    {
                        "rv": rv,
                        "ber": round(float(bit_errors.mean()), 6),
                        "fer": round(float(bit_errors.any(axis=1).mean()), 6),
                        "snr_db_estimate": round(session.snr_db(), 3),
                        "avg_iterations": round(
                            float(result.iterations.mean()), 3
                        ),
                    }
                )
            if decode_s < best_s:
                best_s = decode_s
                kept = trajectory
        fers = [point["fer"] for point in kept]
        entry["channels"][channel_name] = {
            "ebn0_db": ebn0_db,
            "trajectory": kept,
            "decode_s": round(best_s, 3),
            "fps": round(frames * len(HARQ_RV_ORDER) / best_s, 1),
            "fer_monotone": bool(
                all(a >= b for a, b in zip(fers, fers[1:]))
            ),
            "fer_improved": bool(fers[-1] < fers[0]),
        }
    return entry


def summarize(results: dict) -> str:
    table = Table(
        ["workload", "backend", "float Mbps", "fixed Mbps",
         "float x", "fixed x", "fixed bit-identical"],
        title=f"Decoder throughput ({results['frames']} frames, "
        f"{results['ebn0_db']} dB, paper ET)",
    )
    for label, entry in results["workloads"].items():
        for backend in results["backends"]:
            table.add_row(
                [
                    label,
                    backend,
                    f"{entry[f'{backend}_float_mbps']:.2f}",
                    f"{entry[f'{backend}_fixed_mbps']:.2f}",
                    str(entry.get(f"{backend}_float_speedup", "-")),
                    str(entry.get(f"{backend}_fixed_speedup", "-")),
                    str(entry.get(f"{backend}_fixed_bit_identical", "-")),
                ]
            )
    rendered = table.render()

    minsum = results.get("minsum")
    if minsum:
        mtable = Table(
            ["backend", "float Mbps", "fixed Mbps", "float x", "fixed x",
             "fixed bit-identical"],
            title=(
                f"Min-sum ({minsum['check_node']}, {minsum['mode']}, "
                f"N={minsum['n']})"
            ),
        )
        for backend in results["backends"]:
            mtable.add_row(
                [
                    backend,
                    f"{minsum[f'{backend}_float_mbps']:.2f}",
                    f"{minsum[f'{backend}_fixed_mbps']:.2f}",
                    str(minsum.get(f"{backend}_float_speedup", "-")),
                    str(minsum.get(f"{backend}_fixed_speedup", "-")),
                    str(minsum.get(f"{backend}_fixed_bit_identical", "-")),
                ]
            )
        rendered += "\n" + mtable.render()

    compaction = results.get("compaction")
    if compaction:
        ctable = Table(
            ["scenario", "avg iters", "ET rate", "carried fps",
             "compacted fps", "speedup", "bit-identical"],
            title="Active-frame compaction (fast backend, paper ET)",
        )
        for label, entry in compaction.items():
            ctable.add_row(
                [
                    label,
                    f"{entry['average_iterations']:.2f}",
                    f"{entry['et_rate']:.2f}",
                    f"{entry['carried_fps']:.0f}",
                    f"{entry['compacted_fps']:.0f}",
                    f"{entry['compaction_speedup']:.2f}x",
                    str(entry["bit_identical"]),
                ]
            )
        rendered += "\n" + ctable.render()
    sweep = results.get("parallel_sweep")
    if sweep:
        rendered += (
            f"\nparallel sweep ({sweep['frames_per_point']} frames/point, "
            f"{len(sweep['ebn0_db'])} points): serial {sweep['serial_s']}s, "
            f"forced 2w {sweep['parallel2_s']}s "
            f"({sweep['parallel2_speedup']}x), forced 4w "
            f"{sweep['parallel4_s']}s ({sweep['parallel4_speedup']}x), "
            f"auto {sweep['auto_s']}s ({sweep['auto_speedup']}x via "
            f"{sweep['auto_executor']}), statistics identical: "
            f"{sweep['statistics_identical']}"
            f"\n  break-even: {sweep['auto_reason']}"
        )
    executors = results.get("service_executors")
    if executors:
        rendered += (
            f"\nservice executors ({executors['requests']} requests x "
            f"{executors['frames_per_request']} frames, "
            f"{executors['workers']} workers): thread "
            f"{executors['thread_fps']} fps p99 "
            f"{executors['thread_p99_ms']} ms, process "
            f"{executors['process_fps']} fps p99 "
            f"{executors['process_p99_ms']} ms "
            f"({executors['process_speedup']}x), "
            f"{executors['batches_offloaded']} batches offloaded, "
            f"segments {executors['segments_created']} created / "
            f"{executors['segments_unlinked']} unlinked, bit-identical: "
            f"{executors['bit_identical']}"
        )
    service = results.get("service")
    if service:
        rendered += (
            f"\ndecode service ({service['requests']} single-frame requests, "
            f"{len(service['modes'])} modes): unbatched "
            f"{service['unbatched_fps']} fps, service "
            f"{service['service_fps']} fps ({service['service_speedup']}x), "
            f"mean batch {service['mean_batch_frames']} frames, "
            f"{service['mode_switches']} mode switches, p50/p99 "
            f"{service['latency_p50_ms']}/{service['latency_p99_ms']} ms, "
            f"bit-identical: {service['bit_identical']}"
        )
    policy = results.get("policy")
    if policy:
        selections = ", ".join(
            f"{name}={count}"
            for name, count in sorted(policy["rule_selections"].items())
        )
        rendered += (
            f"\nadaptive policy ({policy['requests']} requests x "
            f"{policy['frames_per_request']} frames, bands "
            f"{policy['ebn0_bands']} dB): static "
            f"{policy['static_avg_iterations']} avg iters / "
            f"{policy['static_energy_per_bit_pj']} pJ/bit, policy "
            f"{policy['policy_avg_iterations']} avg iters / "
            f"{policy['policy_energy_per_bit_pj']} pJ/bit "
            f"({policy['iteration_reduction_pct']}% fewer iterations, "
            f"{policy['budget_savings_pct']}% under budget), rules "
            f"[{selections}], re-corrupted frames "
            f"{policy['recorrupted_frames']}, bit-identical: "
            f"{policy['bit_identical']}"
        )
    harq = results.get("harq")
    if harq:
        htable = Table(
            ["channel", "Eb/N0", "rv trajectory (FER)", "fps",
             "monotone", "improved"],
            title=(
                f"IR-HARQ ({harq['mode']}, N={harq['n']}, "
                f"{harq['frames']} blocks, e={harq['e_per_transmission']})"
            ),
        )
        for name, chan in harq["channels"].items():
            fer_path = " -> ".join(
                f"rv{p['rv']}:{p['fer']:.3f}" for p in chan["trajectory"]
            )
            htable.add_row(
                [
                    name,
                    f"{chan['ebn0_db']:.1f} dB",
                    fer_path,
                    f"{chan['fps']:.0f}",
                    str(chan["fer_monotone"]),
                    str(chan["fer_improved"]),
                ]
            )
        rendered += "\n" + htable.render()
    server = results.get("server")
    if server:
        rendered += (
            f"\ndecode server ({server['requests']} single-frame requests, "
            f"1 pipelined connection): in-process {server['inproc_fps']} fps "
            f"p99 {server['inproc_p99_ms']} ms, socket "
            f"{server['socket_fps']} fps p99 {server['socket_p99_ms']} ms "
            f"({server['socket_overhead']}x wall-clock), bit-identical: "
            f"{server['bit_identical']}"
        )
    return rendered


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--frames",
        type=int,
        default=int(os.environ.get("REPRO_BENCH_FRAMES", 256)),
        help="frames per workload batch (default: REPRO_BENCH_FRAMES or 256)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run for CI: 16 frames, 1 repeat, still checks bit-identity",
    )
    parser.add_argument(
        "--check-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless fast beats reference by X x on WiMax fixed-point",
    )
    parser.add_argument(
        "--check-minsum-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless fast beats reference by X x on the fixed-point "
        "min-sum workload",
    )
    parser.add_argument(
        "--check-service-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless the dynamic-batching service beats one-frame-"
        "at-a-time decode by X x on the mixed-standard workload",
    )
    parser.add_argument(
        "--check-parallel-sweep-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless the auto-gated parallel sweep achieves at "
        "least X x the serial sweep (the break-even gate's 'never "
        "slower than serial' contract; use ~0.9 to absorb timing noise)",
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT_PATH, help="JSON output path"
    )
    args = parser.parse_args(argv)

    frames = 16 if args.smoke else args.frames
    repeats = 1 if args.smoke else args.repeats
    results = run_benchmark(frames, repeats)
    results["minsum"] = run_minsum_benchmark(frames, repeats)
    results["compaction"] = run_compaction_benchmark(frames, repeats)
    results["parallel_sweep"] = run_parallel_sweep_benchmark(
        50 if args.smoke else 200
    )
    results["service"] = run_service_benchmark(
        48 if args.smoke else max(frames, 192), repeats=repeats
    )
    results["service_executors"] = run_service_executor_benchmark(
        12 if args.smoke else 48, repeats=repeats
    )
    results["server"] = run_server_benchmark(
        24 if args.smoke else 96, repeats=repeats
    )
    results["policy"] = run_policy_benchmark(
        12 if args.smoke else 48, repeats=repeats
    )
    results["harq"] = run_harq_benchmark(
        24 if args.smoke else 96, repeats=repeats
    )
    print(summarize(results))

    failures = []
    for label, entry in results["workloads"].items():
        for key, value in entry.items():
            if key.endswith("_bit_identical") and value is not True:
                failures.append(f"{label}: {key} = {value}")
    for key, value in results["minsum"].items():
        if key.endswith("_bit_identical") and value is not True:
            failures.append(f"minsum: {key} = {value}")
    for label, entry in results["compaction"].items():
        if entry["bit_identical"] is not True:
            failures.append(f"compaction/{label}: outputs differ")
    if results["parallel_sweep"]["statistics_identical"] is not True:
        failures.append("parallel_sweep: serial != parallel statistics")
    if results["service"]["bit_identical"] is not True:
        failures.append("service: batched results != direct decode")
    if results["service_executors"]["bit_identical"] is not True:
        failures.append("service_executors: process results != thread results")
    if results["server"]["bit_identical"] is not True:
        failures.append("server: socket results != direct decode")
    if results["policy"]["bit_identical"] is not True:
        failures.append("policy: served results != per-rule direct decode")
    if results["policy"]["recorrupted_frames"] != 0:
        failures.append(
            "policy: measured re-corrupted frames = "
            f"{results['policy']['recorrupted_frames']} (expected 0)"
        )
    if results["policy"]["energy_gauges_exported"] is not True:
        failures.append("policy: energy gauges missing from prometheus text")
    for channel_name, chan in results["harq"]["channels"].items():
        if chan["fer_monotone"] is not True:
            failures.append(
                f"harq/{channel_name}: FER trajectory not monotone "
                f"{[p['fer'] for p in chan['trajectory']]}"
            )
        if chan["fer_improved"] is not True:
            failures.append(
                f"harq/{channel_name}: combining did not improve FER"
            )
    if args.check_parallel_sweep_speedup is not None:
        speedup = results["parallel_sweep"]["auto_speedup"]
        if speedup < args.check_parallel_sweep_speedup:
            failures.append(
                f"auto parallel sweep speedup {speedup}x < required "
                f"{args.check_parallel_sweep_speedup}x "
                f"(executor={results['parallel_sweep']['auto_executor']})"
            )
        else:
            print(
                f"parallel sweep speedup check passed: auto {speedup}x >= "
                f"{args.check_parallel_sweep_speedup}x via "
                f"{results['parallel_sweep']['auto_executor']}"
            )
    if args.check_service_speedup is not None:
        speedup = results["service"]["service_speedup"]
        if speedup < args.check_service_speedup:
            failures.append(
                f"service speedup {speedup}x < required "
                f"{args.check_service_speedup}x"
            )
        else:
            print(
                f"service speedup check passed: {speedup}x >= "
                f"{args.check_service_speedup}x"
            )
    if args.check_speedup is not None:
        speedup = results["workloads"]["wimax_n2304"]["fast_fixed_speedup"]
        if speedup < args.check_speedup:
            failures.append(
                f"wimax_n2304 fast fixed speedup {speedup}x < "
                f"required {args.check_speedup}x"
            )
        else:
            print(
                f"speedup check passed: fast fixed {speedup}x >= "
                f"{args.check_speedup}x"
            )
    if args.check_minsum_speedup is not None:
        speedup = results["minsum"]["fast_fixed_speedup"]
        if speedup < args.check_minsum_speedup:
            failures.append(
                f"minsum fast fixed speedup {speedup}x < "
                f"required {args.check_minsum_speedup}x"
            )
        else:
            print(
                f"minsum speedup check passed: fast fixed {speedup}x >= "
                f"{args.check_minsum_speedup}x"
            )

    args.output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"[results written to {args.output}]")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
