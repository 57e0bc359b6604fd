"""``inproc_mix`` and ``wire_mix``: closed-loop serving of one traffic mix.

``inproc_mix`` keeps WINDOW requests outstanding on one
``DecodeService`` from one thread; single frames go through
``DecodeService.submit`` and NR blocks through ``HarqManager.submit``.
``wire_mix`` sends the same requests with ``DecodeClient.decode`` over
two loopback connections to a ``DecodeServer`` in a process of its own.
Every service knob stays at its library default.
"""

from __future__ import annotations

import asyncio
import json
import queue
import signal
import socket
import subprocess
import sys
import time

import numpy as np

from repro import DecodeClient, DecodeServer, DecodeService, HarqManager, LayeredDecoder
from repro.codes import get_code

from perfbench import traffic
from perfbench.checks import (
    Outcome,
    ParityCheck,
    check_converged,
    check_transmitted,
    differences,
    replay_harq,
)
from perfbench.common import (
    ROOT,
    RUN_PY,
    SERVE_FIXED,
    Run,
    fingerprint,
    measure_setup,
    median,
    peak_rss_mb,
    percentile,
    read_line,
    summarize_setup,
    tail_percentile,
)
from perfbench.spans import Patches, Recorder, install, load

#: Nominal seconds one round of the mix takes on a shared 2-vCPU VM; a
#: run does round(--seconds / ROUND_SECONDS) rounds, a fixed amount of
#: work for a given --seconds, the same in both mixes.
ROUND_SECONDS = 0.45
#: A request unanswered this long fails, and the run stops waiting.
STALL_S = 60.0
#: Decode-server starts per wire_mix run; the last one serves.
SERVER_STARTS = 3
#: Frames per direct decode call in the checks.
DIRECT_BATCH = 64

now_ns = time.perf_counter_ns


def rounds_for(seconds: float) -> int:
    return max(2, round(seconds / ROUND_SECONDS))


def warm(service) -> float:
    """Compile every plan of the mix into the service's cache, then serve
    one request of each (mode, config) so lazy set-up is paid here.

    Returns the mean plan build time per (mode, config), ms.
    """
    pairs = [(mode, config) for mode in traffic.MODES for config in traffic.CONFIGS.values()]
    pairs.append((traffic.NR_MODE, SERVE_FIXED))
    builds = []
    for mode, config in pairs:
        t0 = time.perf_counter()
        entry = service.cache.get(mode, config)
        builds.append(time.perf_counter() - t0)
        service.submit(mode, np.ones((1, entry.code.n)), config=config).result()
    return 1e3 * float(np.mean(builds))


def prepare_inproc() -> tuple:
    """The in-process serving stack, ready for its first request."""
    service = DecodeService()
    compile_ms = warm(service)
    harq = HarqManager(service, traffic.NR_MODE, config=SERVE_FIXED)
    return service, harq, compile_ms


# ---------------------------------------------------------------------------
# Load generators
# ---------------------------------------------------------------------------
def run_inproc_loop(service, harq, schedule) -> None:
    """Closed loop from this thread: WINDOW requests stay outstanding."""
    done: queue.SimpleQueue = queue.SimpleQueue()

    def resolved(request, future):
        request.end = now_ns()
        request.error = future.exception()
        if request.error is None:
            request.outcome = future.result()
        done.put(request)

    def send(request):
        client = f"conn-{request.conn}"
        request.start = now_ns()
        try:
            if request.single is not None:
                single = request.single
                future = service.submit(
                    single.mode, single.llr, config=single.config, client=client
                )
            else:
                block = request.block
                future = harq.submit(
                    block.soft[request.tx], request.rv, client=client, process=block.uid
                )
        except Exception as exc:  # refused: counted as a failed operation
            request.end = now_ns()
            request.error = exc
            done.put(request)
            return
        future.add_done_callback(lambda f, r=request: resolved(r, f))

    inflight = 0
    while True:
        while inflight < traffic.WINDOW:
            request = schedule.next()
            if request is None:
                break
            send(request)
            inflight += 1
        if inflight == 0:
            return
        try:
            request = done.get(timeout=STALL_S)
        except queue.Empty:
            return
        inflight -= 1
        if request.error is None:
            request.outcome = Outcome.of(request.outcome)
        if schedule.complete(request):
            harq.release(f"conn-{request.conn}", request.block.uid)


async def run_wire_loop(port: int, schedule, trace: bool) -> None:
    """The same closed loop over CONNECTIONS pipelined connections."""
    clients = [
        await DecodeClient.connect("127.0.0.1", port)
        for _ in range(traffic.CONNECTIONS)
    ]

    async def send(request):
        client = clients[request.conn]
        if request.single is not None:
            single = request.single
            mode, payload, config, harq = single.mode, single.llr, single.config, None
        else:
            block = request.block
            mode, payload, config = traffic.NR_MODE, block.soft[request.tx], SERVE_FIXED
            harq = {"process": block.uid, "rv": request.rv}
        if trace:
            request.wire = fingerprint(payload)
        request.start = now_ns()
        try:
            result = await client.decode(mode, payload, config=config, harq=harq)
            request.end = now_ns()
            request.outcome = Outcome.of(result)
        except Exception as exc:  # refused or lost: a failed operation
            request.end = now_ns()
            request.error = exc
        return request

    try:
        pending: set = set()
        while True:
            while len(pending) < traffic.WINDOW:
                request = schedule.next()
                if request is None:
                    break
                pending.add(asyncio.create_task(send(request)))
            if not pending:
                return
            finished, pending = await asyncio.wait(
                pending, timeout=STALL_S, return_when=asyncio.FIRST_COMPLETED
            )
            if not finished:
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
                return
            for task in finished:
                schedule.complete(task.result())
    finally:
        for client in clients:
            await client.close()


# ---------------------------------------------------------------------------
# The decode server process
# ---------------------------------------------------------------------------
def serve(import_s: float, trace: bool, spans_path: str) -> int:
    """Body of ``run.py --serve``: a DecodeServer with default settings."""
    server = DecodeServer()
    compile_ms = warm(server.service)
    recorder, patches = (Recorder() if trace else None), Patches()
    if recorder is not None:
        install(recorder, patches, rows=True)

    async def main():
        await server.start()
        print(
            json.dumps(
                {
                    "port": server.port,
                    "import_s": import_s,
                    "plan_compile_ms": compile_ms,
                    "max_batch": server.service.max_batch,
                }
            ),
            flush=True,
        )
        await server.serve_forever()

    asyncio.run(main())
    patches.restore()
    if recorder is not None:
        recorder.dump(spans_path)
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


class ServerProcess:
    """A decode server child; ``setup_s`` runs from spawn to first accept."""

    def __init__(self, trace: bool, spans_path: str):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(RUN_PY), "--serve", "--trace", str(int(trace)),
             "--spans", spans_path],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.ready = json.loads(read_line(self.proc, 120.0))
            self.port = int(self.ready["port"])
            with socket.create_connection(("127.0.0.1", self.port), timeout=30.0):
                self.setup_s = time.perf_counter() - start
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def stop(self) -> dict:
        """Graceful drain (SIGTERM); returns the server's final report."""
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=60.0)
        lines = [line for line in out.splitlines() if line.strip()]
        return json.loads(lines[-1]) if lines else {}

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------
def run_inproc(seed: int, seconds: float, recorder: "Recorder | None") -> Run:
    """One inproc_mix run, traced into ``recorder`` when one is given."""
    setup = measure_setup("inproc_mix")
    rounds = rounds_for(seconds)
    service, harq, _ = prepare_inproc()
    patches = Patches()
    if recorder is not None:
        install(recorder, patches, rows=True)
    schedule = traffic.Schedule(traffic.make_rounds(seed, rounds))
    window = [now_ns()]
    try:
        run_inproc_loop(service, harq, schedule)
    finally:
        window.append(now_ns())
        service.close()
        patches.restore()
    return finish(schedule, rounds, window, setup, peak_rss_mb(), service.max_batch, [])


def run_wire(seed: int, seconds: float, recorder: "Recorder | None", server_spans) -> Run:
    """One wire_mix run against a decode server started SERVER_STARTS
    times; set-up is timed on every start and the last one serves.
    With a ``recorder`` both sides are traced; the server writes its
    spans to ``server_spans``."""
    traced = recorder is not None
    rounds = rounds_for(seconds)
    servers = []
    patches = Patches()
    try:
        for start in range(SERVER_STARTS):
            last = start == SERVER_STARTS - 1
            servers.append(ServerProcess(traced and last, str(server_spans)))
            if not last:
                servers[-1].stop()
        server = servers[-1]
        setup = summarize_setup([dict(s.ready, setup_s=s.setup_s) for s in servers])
        if traced:
            install(recorder, patches, rows=False)
        schedule = traffic.Schedule(traffic.make_rounds(seed, rounds))
        window = [now_ns()]
        try:
            asyncio.run(run_wire_loop(server.port, schedule, traced))
        finally:
            window.append(now_ns())
            patches.restore()
        rss = server.stop()["peak_rss_mb"]
    finally:
        for proc in servers:
            proc.kill()
    spans = load(server_spans) if traced else []
    return finish(schedule, rounds, window, setup, rss, server.ready["max_batch"], spans)


def finish(schedule, rounds, window, setup, rss, max_batch, server_spans) -> Run:
    """Check a finished mix and assemble its figures."""
    problems, check_info = check_mix(schedule)
    values, info = mix_metrics(schedule, (window[1] - window[0]) * 1e-9, rounds)
    values.update(peak_rss_mb=rss, setup_s=setup["setup_s"])
    info.update(check_info)
    requests = [
        (["mix.request", r.start, r.end, None, r.uid, {"wire": r.wire}],
         r.block.uid if r.block is not None else None)
        for r in schedule.requests
    ]
    return Run(
        values=values,
        problems=[problems[r.uid] for r in schedule.requests],
        correct=all(r.end for r in schedule.requests),
        info=info,
        setup=setup,
        window=tuple(window),
        layer_inputs={"max_batch": max_batch, "requests": requests, "server_spans": server_spans},
    )


# ---------------------------------------------------------------------------
# Checks, ceiling and metrics
# ---------------------------------------------------------------------------
def check_mix(schedule) -> tuple:
    """Check every served result; returns (problems per request uid, info).

    Single frames are re-decoded directly, batched per mode, by a
    LayeredDecoder of the same config (the batch differs from the
    service's, so this also shows a frame's result does not depend on
    its batch); HARQ decodes are replayed in fresh HarqSessions.
    """
    problems = {r.uid: [] for r in schedule.requests}
    parity = {mode: ParityCheck.for_code(get_code(mode)) for mode in traffic.MODES + (traffic.NR_MODE,)}
    for request in schedule.requests:
        if request.error is not None:
            problems[request.uid].append(f"raised {type(request.error).__name__}: {request.error}")
            continue
        if request.outcome is None:
            problems[request.uid].append(f"no answer within {STALL_S} s")
            continue
        if request.single is not None:
            single = request.single
            problems[request.uid] += check_transmitted(parity[single.mode], single.info, single.codeword)
            problems[request.uid] += check_converged(parity[single.mode], request.outcome)
        else:
            problems[request.uid] += check_converged(parity[traffic.NR_MODE], request.outcome)

    direct_s = 0.0
    direct_bits = 0
    groups: dict = {}
    for request in schedule.requests:
        if request.single is not None and request.outcome is not None:
            groups.setdefault((request.single.mode, request.single.datapath), []).append(request)
    for (mode, datapath), members in groups.items():
        code = get_code(mode)
        decoder = LayeredDecoder(code, traffic.CONFIGS[datapath])
        for start in range(0, len(members), DIRECT_BATCH):
            chunk = members[start:start + DIRECT_BATCH]
            llr = np.concatenate([r.single.llr for r in chunk])
            t0 = time.perf_counter()
            result = decoder.decode(llr)
            direct_s += time.perf_counter() - t0
            direct_bits += code.n_info * len(chunk)
            for row, request in enumerate(chunk):
                problems[request.uid] += differences(
                    request.outcome, Outcome.of(result, row, row + 1),
                    f"request {request.uid} vs direct decode",
                )

    nr_code = get_code(traffic.NR_MODE)
    blocks = list({id(r.block): r.block for r in schedule.requests if r.block is not None}.values())
    answered = [b for b in blocks if all(r.outcome is not None for r in b.sent)]
    replayed = replay_harq(
        nr_code, SERVE_FIXED, LayeredDecoder(nr_code, SERVE_FIXED), traffic.RV_ORDER,
        [(b.soft, [r.outcome for r in b.sent]) for b in answered],
    )
    for block, found in zip(answered, replayed):
        for request, problems_tx in zip(block.sent, found):
            problems[request.uid] += problems_tx
    for block in blocks:
        found = check_transmitted(parity[traffic.NR_MODE], block.info, block.codeword)
        for request in block.sent:
            problems[request.uid] += found
    info = {
        "direct_mbps": direct_bits / direct_s / 1e6 if direct_s else 0.0,
        "blocks": len(blocks),
        "blocks_delivered": sum(b.delivered for b in blocks),
    }
    return problems, info


def mix_metrics(schedule, elapsed_s: float, rounds: int) -> tuple:
    """End-to-end metrics of one mix run, plus facts for the info line."""
    fixed_bits = float_bits = 0
    latencies = []
    k = {mode: get_code(mode).n_info for mode in traffic.MODES + (traffic.NR_MODE,)}
    frame_errors = 0
    for request in schedule.requests:
        if request.outcome is None:
            continue
        latencies.append((request.end - request.start) * 1e-6)
        if request.single is not None:
            single = request.single
            bits = k[single.mode]
            if single.datapath == "fixed":
                fixed_bits += bits
            else:
                float_bits += bits
            frame_errors += int(not np.array_equal(request.outcome.bits[:, :bits], single.info))
        else:
            fixed_bits += k[traffic.NR_MODE]
    guaranteed = rounds * traffic.requests_per_round()
    tail_q = tail_percentile(guaranteed)
    values = {
        "fixed_mbps": fixed_bits / elapsed_s / 1e6,
        "float_mbps": float_bits / elapsed_s / 1e6,
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": percentile(latencies, tail_q),
    }
    info = {
        "requests": len(schedule.requests),
        "tail_percentile": tail_q,
        "tail_n_guaranteed": guaranteed,
        "single_frame_errors": frame_errors,
        "elapsed_s": elapsed_s,
    }
    return values, info
