"""DecodeService with ``executor="process"``: parity with thread workers.

The process executor must be a drop-in: bit-identical results, the same
per-client FIFO delivery, the same deadline and retry semantics, the
same typed errors — with batches crossing the process boundary through
shared memory and every segment unlinked by close.  The full chaos
matrix lives in ``test_service_faults.py``/``test_backend_properties``;
this file covers the executor-specific service plumbing.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.codes import get_code
from repro.decoder import DecoderConfig, LayeredDecoder
from repro.errors import DeadlineExceeded, ServiceClosedError
from repro.runtime import FaultPlan, parallel
from repro.runtime.parallel import usable_cores
from repro.service import DecodeService, RetryPolicy

WIMAX = "802.16e:1/2:z24"
WIFI = "802.11n:1/2:z27"
CONFIG = DecoderConfig(backend="fast")
TIMEOUT = 120
ROOT = Path(__file__).resolve().parents[1]


def _llr(mode: str, frames: int, seed: int) -> np.ndarray:
    code = get_code(mode)
    rng = np.random.default_rng(seed)
    return 4.0 * rng.standard_normal((frames, code.n))


def _direct(mode: str, llr: np.ndarray):
    return LayeredDecoder(get_code(mode), CONFIG).decode(llr)


def _service(**kwargs) -> DecodeService:
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("max_wait", 0.003)
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("default_config", CONFIG)
    kwargs.setdefault("executor", "process")
    return DecodeService(**kwargs)


class TestProcessExecutorBasics:
    def test_executor_name_is_validated(self):
        with pytest.raises(ValueError, match="executor"):
            DecodeService(executor="greenlet")

    def test_single_request_matches_direct_decode(self):
        llr = _llr(WIMAX, 3, seed=0)
        with _service() as service:
            result = service.submit(WIMAX, llr).result(timeout=TIMEOUT)
        expected = _direct(WIMAX, llr)
        assert np.array_equal(result.bits, expected.bits)
        assert np.array_equal(result.llr, expected.llr)
        assert np.array_equal(result.iterations, expected.iterations)
        assert np.array_equal(result.et_stopped, expected.et_stopped)
        assert result.n_info == expected.n_info

    def test_mixed_modes_and_sizes_bit_identical_to_thread(self):
        workload = [
            (WIMAX, _llr(WIMAX, 1 + (i % 3), seed=i)) for i in range(6)
        ] + [
            (WIFI, _llr(WIFI, 1 + (i % 2), seed=100 + i)) for i in range(6)
        ]
        outputs = {}
        for executor in ("thread", "process"):
            with _service(executor=executor) as service:
                futures = [
                    service.submit(mode, llr, client=f"c{i % 3}")
                    for i, (mode, llr) in enumerate(workload)
                ]
                outputs[executor] = [
                    f.result(timeout=TIMEOUT) for f in futures
                ]
        for a, b in zip(outputs["thread"], outputs["process"]):
            assert np.array_equal(a.bits, b.bits)
            assert np.array_equal(a.llr, b.llr)
            assert np.array_equal(a.iterations, b.iterations)
            assert np.array_equal(a.converged, b.converged)
            assert a.n_info == b.n_info

    def test_batches_cross_the_process_boundary(self):
        with _service() as service:
            futures = [
                service.submit(WIMAX, _llr(WIMAX, 2, seed=i))
                for i in range(4)
            ]
            for future in futures:
                future.result(timeout=TIMEOUT)
            snapshot = service.metrics_snapshot()
        pool = snapshot["worker_pool"]
        assert pool["executor"] == "process"
        assert pool["tasks_completed"] >= 1
        assert pool["tasks_completed"] == snapshot["batches_dispatched"]
        # Workers fork on demand: at least one decoded, never more
        # than the pool's two.
        assert 1 <= pool["processes_spawned"] <= 2
        assert pool["segments_created"] >= 1

    def test_segments_all_unlinked_after_close(self):
        service = _service()
        futures = [
            service.submit(WIMAX, _llr(WIMAX, 2, seed=i)) for i in range(5)
        ]
        for future in futures:
            future.result(timeout=TIMEOUT)
        service.close()
        pool = service.metrics_snapshot()["worker_pool"]
        assert pool["segments_active"] == 0
        assert pool["segments_free"] == 0
        assert pool["segments_unlinked"] == pool["segments_created"]

    def test_per_client_fifo_delivery(self):
        resolved: list[int] = []
        with _service(max_batch=4, max_wait=0.001) as service:
            futures = []
            for i in range(10):
                future = service.submit(
                    WIMAX, _llr(WIMAX, 1, seed=i), client="fifo"
                )
                future.add_done_callback(
                    lambda f, i=i: resolved.append(i)
                )
                futures.append(future)
            for future in futures:
                future.result(timeout=TIMEOUT)
        assert resolved == sorted(resolved)

    def test_submit_after_close_raises(self):
        service = _service()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(WIMAX, _llr(WIMAX, 1, seed=0))


class TestProcessExecutorDeadlines:
    def test_deadline_expires_with_workers_occupied(self):
        # Both workers busy on long named tasks: the tight deadline
        # must fail the future crisply, exactly like the thread pool.
        with _service(workers=2, max_batch=64, max_wait=0.001) as service:
            blockers = [
                service._pool.submit("sleep", {"seconds": 2.0})
                for _ in range(2)
            ]
            future = service.submit(
                WIMAX, _llr(WIMAX, 1, seed=0), timeout=0.15
            )
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=TIMEOUT)
            assert service.metrics_snapshot()["requests_timed_out"] == 1
            for blocker in blockers:
                blocker.result(timeout=TIMEOUT)

    def test_tight_deadline_pulls_flush_forward(self):
        # timeout < max_wait: the dispatcher must flush early and the
        # process round trip still beats the deadline.
        llr = _llr(WIMAX, 2, seed=1)
        expected = _direct(WIMAX, llr)
        with _service(max_batch=10_000, max_wait=10.0) as service:
            result = service.submit(WIMAX, llr, timeout=5.0).result(
                timeout=TIMEOUT
            )
        assert np.array_equal(result.bits, expected.bits)


class TestProcessExecutorRecovery:
    def test_worker_crash_is_retried_to_success(self):
        plan = FaultPlan(worker_crash=[0])
        llr = _llr(WIMAX, 2, seed=3)
        with _service(
            workers=2,
            retry=RetryPolicy(attempts=3, backoff=0.002),
            faults=plan,
        ) as service:
            result = service.submit(WIMAX, llr).result(timeout=TIMEOUT)
            snapshot = service.metrics_snapshot()
        expected = _direct(WIMAX, llr)
        assert np.array_equal(result.bits, expected.bits)
        assert np.array_equal(result.llr, expected.llr)
        assert snapshot["requests_retried"] >= 1
        assert snapshot["requests_failed"] == 0
        assert snapshot["worker_pool"]["crashes_detected"] == 1
        assert plan.injected()["worker_crash"] == 1

    def test_cache_drop_directive_is_forwarded(self):
        # cache_drop rides the task descriptor into the worker's own
        # PlanCache; the decode stays correct (drop is correctness-
        # neutral by the cache contract).
        plan = FaultPlan(cache_drop=[0, 1])
        llr = _llr(WIMAX, 2, seed=4)
        with _service(faults=plan) as service:
            result = service.submit(WIMAX, llr).result(timeout=TIMEOUT)
        expected = _direct(WIMAX, llr)
        assert np.array_equal(result.bits, expected.bits)
        assert plan.injected()["cache_drop"] >= 1


class TestProcessExecutorFrontDoors:
    def test_server_round_trip_with_process_executor(self):
        """server's **service_kwargs carries executor= to DecodeService."""
        from repro.server import DecodeClient, DecodeServer

        llr = _llr(WIMAX, 2, seed=5)
        expected = _direct(WIMAX, llr)

        async def roundtrip():
            async with DecodeServer(
                max_batch=8,
                max_wait=0.003,
                workers=2,
                default_config=CONFIG,
                executor="process",
            ) as server:
                assert server.service.executor == "process"
                async with await DecodeClient.connect(
                    *server.address
                ) as client:
                    return await client.decode(WIMAX, llr)

        result = asyncio.run(roundtrip())
        assert np.array_equal(result.bits, expected.bits)
        assert np.array_equal(result.llr, expected.llr)
        assert np.array_equal(result.iterations, expected.iterations)

    def test_link_serve_with_process_executor(self):
        from repro.link import Link

        llr = _llr(WIMAX, 2, seed=6)
        expected = _direct(WIMAX, llr)
        with Link(WIMAX, CONFIG) as session:
            service = session.serve(
                max_batch=8, max_wait=0.003, workers=2, executor="process"
            )
            assert service.executor == "process"
            result = service.submit(WIMAX, llr).result(timeout=TIMEOUT)
        assert np.array_equal(result.bits, expected.bits)
        assert np.array_equal(result.llr, expected.llr)

    # A worker forked while the server has sockets open inherits them;
    # until it lets go, closing a socket in the server sends no FIN and
    # a closed listener keeps completing handshakes.
    @staticmethod
    def _spawned(service) -> int:
        return service.metrics_snapshot()["worker_pool"]["processes_spawned"]

    def test_connection_open_at_a_fork_gets_eof_after_a_garbage_frame(self):
        from repro.server import DecodeServer, protocol

        async def scenario():
            async with DecodeServer(
                max_wait=0.001, workers=2, default_config=CONFIG,
                executor="process",
            ) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                while server.stats["connections_opened"] == 0:
                    await asyncio.sleep(0.001)
                assert self._spawned(server.service) == 0
                await asyncio.wrap_future(
                    server.service.submit(WIMAX, _llr(WIMAX, 1, seed=7))
                )
                assert self._spawned(server.service) == 1
                writer.write(b"not a frame " * 8)
                await writer.drain()
                # The server answers with one ERROR frame and hangs up.
                reply = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                await writer.wait_closed()
                return reply

        async def parse(data):
            stream = asyncio.StreamReader()
            stream.feed_data(data)
            stream.feed_eof()
            return await protocol.read_frame(stream)

        ftype, _, _ = asyncio.run(parse(asyncio.run(scenario())))
        assert ftype == protocol.FrameType.ERROR

    def test_drain_timeout_fails_waiters_and_frees_the_port_on_a_hung_worker(self):
        # The process twin of tests/test_server.py's wedged-worker drain
        # test, on a borrowed service: the only worker forks for the
        # request, while its connection and the listener are open, then
        # stalls in the child past the drain timeout.
        from repro.errors import ProtocolError
        from repro.server import DecodeClient, DecodeServer

        service = _service(
            workers=1, max_wait=0.001,
            faults=FaultPlan(worker_hang=[0], hang_duration=3.0),
        )

        async def scenario():
            server = await DecodeServer(
                service=service, drain_timeout=0.3
            ).start(handle_signals=False)
            address = server.address
            client = await DecodeClient.connect(*address)
            pending = asyncio.create_task(
                client.decode(WIMAX, _llr(WIMAX, 1, seed=8))
            )
            deadline = time.monotonic() + TIMEOUT
            while self._spawned(service) == 0:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.002)
            t0 = time.monotonic()
            await asyncio.wait_for(server.close(), timeout=10)
            elapsed = time.monotonic() - t0
            with pytest.raises(ProtocolError):
                await asyncio.wait_for(pending, timeout=1.5)
            await client.close()
            with pytest.raises(ConnectionRefusedError):
                await asyncio.open_connection(*address)
            return elapsed

        try:
            elapsed = asyncio.run(scenario())
        finally:
            service.close()
        assert elapsed < 2.0  # bounded by drain_timeout, not the worker


# ---------------------------------------------------------------------------
# The default: processes on two or more cores, one thread on one core
# ---------------------------------------------------------------------------
#: In a fresh interpreter, optionally pinned to the CPUs in argv[1],
#: builds one service per keyword set in argv[2] and prints how each
#: resolved.
RESOLVE = """
import json, os, sys
cpus = json.loads(sys.argv[1])
if cpus:
    os.sched_setaffinity(0, cpus)
from repro.service import DecodeService
resolved = []
for kwargs in json.loads(sys.argv[2]):
    with DecodeService(**kwargs) as service:
        pool = service.metrics_snapshot()["worker_pool"]
        assert (pool["executor"], pool["workers"]) == (
            service.executor, service.workers)
        resolved.append([service.executor, service.workers,
                         pool["processes_spawned"]])
print(json.dumps(resolved))
"""


def _python(script: str, *args: str, **popen) -> "subprocess.Popen":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(ROOT / "src"), env.get("PYTHONPATH")) if path
    )
    return subprocess.Popen(
        [sys.executable, "-c", script, *args], env=env, text=True, **popen
    )


def _resolve(cpus: list, *kwarg_sets: dict) -> list:
    proc = _python(
        RESOLVE, json.dumps(cpus), json.dumps(kwarg_sets),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out, err = proc.communicate(timeout=TIMEOUT)
    assert proc.returncode == 0, err
    return [tuple(entry) for entry in json.loads(out)]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity"
)
class TestExecutorDefault:
    def test_one_core_resolves_to_one_thread(self):
        cpu = min(os.sched_getaffinity(0))
        assert _resolve([cpu], {}, {"executor": "process"}, {"workers": 3}) == [
            ("thread", 1, 0),
            ("process", 1, 0),  # explicit settings come back as given
            ("thread", 3, 0),
        ]

    def test_a_one_cpu_quota_resolves_to_one_thread(self, monkeypatch):
        # A container limited to one CPU may see many in its affinity
        # mask; there processes lost to one thread.
        monkeypatch.setattr(parallel, "cgroup_cpu_quota", lambda: 1.0)
        with DecodeService() as service:
            assert (service.executor, service.workers) == ("thread", 1)

    def test_two_or_more_cores_resolve_to_one_process_per_core(self):
        cores = usable_cores()
        if cores < 2:
            pytest.skip("needs two usable cores")
        assert _resolve([], {}, {"executor": "thread"}, {"workers": 1}) == [
            ("process", cores, 0),  # never decoded, never forked
            ("thread", 1, 0),  # threads: one, whatever the cores
            ("process", 1, 0),
        ]


class TestOnDemandWorkers:
    @staticmethod
    def _spawned(service) -> int:
        return service.metrics_snapshot()["worker_pool"]["processes_spawned"]

    def test_a_service_that_never_decodes_forks_nothing(self):
        with _service() as service:
            assert self._spawned(service) == 0
        with DecodeService() as default:
            if default.executor == "process":
                assert self._spawned(default) == 0

    def test_second_worker_forks_only_when_a_batch_falls_due_while_busy(self):
        # Worker task #2 stalls 0.5 s in the child before decoding.
        plan = FaultPlan(worker_hang=[2], hang_duration=0.5)
        with _service(faults=plan, max_wait=0.001) as service:
            for seed in range(2):
                service.submit(WIMAX, _llr(WIMAX, 1, seed=seed)).result(
                    timeout=TIMEOUT
                )
            assert self._spawned(service) == 1  # one at a time: one worker
            slow = service.submit(WIMAX, _llr(WIMAX, 1, seed=2))
            deadline = time.monotonic() + 30
            while service.metrics_snapshot()["batches_in_flight"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.002)
            assert self._spawned(service) == 1
            # Another client, so FIFO delivery does not hold it back.
            fast = service.submit(WIFI, _llr(WIFI, 1, seed=3), client="b")
            assert fast.result(timeout=TIMEOUT).batch_size == 1
            assert not slow.done()  # the first worker is still stalled
            assert self._spawned(service) == 2
            slow.result(timeout=TIMEOUT)

    def test_worker_memory_is_exported(self):
        with _service() as service:
            service.submit(WIMAX, _llr(WIMAX, 1, seed=5)).result(timeout=TIMEOUT)
            pool = service.metrics_snapshot()["worker_pool"]
            text = service.metrics_text()
        assert pool["worker_peak_rss_mb"] > 0.0
        assert 'repro_worker_pool_executor{executor="process"} 1' in text
        assert "repro_worker_pool_workers 2" in text
        assert "repro_worker_pool_worker_peak_rss_mb " in text


# ---------------------------------------------------------------------------
# Workers die with their parent
# ---------------------------------------------------------------------------
def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover — no procfs
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def _children(pid: int) -> list:
    """Live child pids of ``pid``, read from procfs ([] without one)."""
    found = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] not in ("Z", "X"):
            found.append(int(entry.name))
    return found


def _cmdline(pid: int) -> str:
    try:
        return (Path("/proc") / str(pid) / "cmdline").read_text().replace("\0", " ")
    except OSError:
        return ""


def _wait_gone(pids, seconds: float) -> list:
    deadline = time.monotonic() + seconds
    while True:
        left = [pid for pid in pids if _alive(pid)]
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.02)


#: Owns a two-worker process service, decodes once on each worker,
#: prints the worker pids and waits to be killed.
OWNER = """
import time
import numpy as np
from repro.codes import get_code
from repro.service import DecodeService
service = DecodeService(executor="process", workers=2, max_wait=0.001)
busy = service._pool.submit("sleep", {"seconds": 0.3})
llr = np.full((1, get_code("802.16e:1/2:z24").n), 4.0)
service.submit("802.16e:1/2:z24", llr).result(timeout=60)
busy.result(timeout=60)
print(" ".join(map(str, service._pool.pids())), flush=True)
time.sleep(600)
"""


class TestWorkersDieWithTheirParent:
    def test_sigkilled_owner_leaves_no_worker(self):
        owner = _python(OWNER, stdout=subprocess.PIPE)
        try:
            pids = [int(pid) for pid in owner.stdout.readline().split()]
            assert len(pids) == 2 and all(_alive(pid) for pid in pids)
            owner.kill()
            owner.wait(timeout=TIMEOUT)
            assert _wait_gone(pids, 5.0) == []
        finally:
            if owner.poll() is None:
                owner.kill()
                owner.wait()
            owner.stdout.close()

    @pytest.mark.skipif(
        not (ROOT / "perfbench" / "run.py").is_file()
        or not Path("/proc/self/stat").is_file(),
        reason="needs perfbench and procfs",
    )
    @pytest.mark.parametrize("when", ["first_worker", "first_accept"])
    def test_terminated_server_leaves_nothing_behind(self, when):
        # perfbench's wire_mix stops its first servers right after their
        # first accept, which start() covers: the server drains and
        # exits 0.  "first_worker" signals mid-warm-up instead, as soon
        # as the server has forked a decode worker and before it has an
        # event loop, so the default action kills it; its workers must
        # still exit.  Either way communicate() returns only once every
        # holder of the server's stdout, its workers included, has
        # exited.
        if when == "first_worker" and usable_cores() < 2:
            # One core decodes on one thread: no worker is ever forked.
            pytest.skip("needs two usable cores")
        server = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--serve"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            if when == "first_worker":
                deadline = time.monotonic() + TIMEOUT
                while not any(
                    "--serve" in _cmdline(pid) for pid in _children(server.pid)
                ):
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
                children = _children(server.pid)
                server.send_signal(signal.SIGTERM)
            else:
                # Signal at once, from a socket made beforehand: anything
                # slower (a child scan, a name lookup) gives the server
                # time to reach serve_forever().
                client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                port = json.loads(server.stdout.readline())["port"]
                with client:
                    client.connect(("127.0.0.1", port))
                    server.send_signal(signal.SIGTERM)
                children = []
            _, err = server.communicate(timeout=5)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        if when == "first_worker":
            assert server.returncode == -signal.SIGTERM
        else:
            assert server.returncode == 0, err
            assert "leaked" not in err  # the drain unlinked every segment
        assert _wait_gone(children, 5.0) == []
