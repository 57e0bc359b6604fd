"""Asyncio decode server — the network front door of the serving tier.

:class:`DecodeServer` listens on a TCP socket, speaks the framed
protocol of :mod:`repro.server.protocol`, and forwards well-formed
requests into a :class:`~repro.service.DecodeService` — so every
hardening property of the service (deadlines, admission control,
supervised workers, no-hung-futures) holds identically for remote
clients, plus the transport-level ones that only exist at a socket:

- **Malformed frames are rejected, not crashed on.**  A well-framed bad
  request (unknown mode, wrong shape, invalid config) gets a typed
  ERROR frame and the connection lives on; an unframeable byte stream
  (bad magic, truncated frame) gets a final stream-level ERROR and the
  connection is closed, because a byte stream cannot be resynced past
  half a frame.
- **Per-connection backpressure.**  At most ``max_inflight`` requests
  per connection may be awaiting decode; beyond that the server simply
  stops reading the socket, so TCP flow control pushes back on the
  client — the remote analogue of the service's bounded admission.
- **Stateful IR-HARQ decode.**  A request carrying the protocol's
  ``harq`` extension (see :func:`repro.server.protocol.parse_harq`)
  delivers one rate-matched NR (re)transmission instead of a mother
  codeword: the server soft-combines it into a per-connection
  :class:`~repro.nr.HarqSession` keyed ``(mode, process id)`` and
  decodes the *combined* buffer through the service, handing the
  decode policy an SNR estimated over transmitted positions only.
  Soft buffers are purged when the connection closes — HARQ state is
  connection-scoped, like TCP sequence numbers.
- **Graceful drain.**  :meth:`close` (and SIGTERM/SIGINT, from
  :meth:`start` on, under :meth:`serve_forever`) stops accepting
  connections and new requests, waits up to ``drain_timeout`` for
  in-flight decodes to resolve and their responses to flush, then
  tears down — matching ``DecodeService.close()``'s
  every-future-resolves contract on the wire.

Responses are written in *completion* order, tagged with the client's
request id — pipelined requests on one connection do not head-of-line
block each other beyond what per-client FIFO delivery already
guarantees.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading

import numpy as np

from repro.codes.registry import get_code
from repro.errors import HarqError, ProtocolError, ServiceClosedError
from repro.nr.harq import HarqSession
from repro.server import protocol
from repro.service.metrics import prometheus_text
from repro.service.service import DecodeService


class DecodeServer:
    """Serve a :class:`DecodeService` over a framed TCP protocol.

    Parameters
    ----------
    service:
        The service to front.  ``None`` builds one from
        ``service_kwargs`` (and then owns it: :meth:`close` closes it).
        A passed-in service is *not* closed — its owner decides.
    host / port:
        Listen address.  ``port=0`` (default) picks a free port;
        :attr:`port` reports the bound one — the pattern every test and
        example should use.
    max_inflight:
        Per-connection cap on requests awaiting decode before the
        server stops reading that socket (TCP backpressure).
    drain_timeout:
        Seconds :meth:`close` waits for in-flight requests to finish
        before abandoning the drain (their connections are closed; the
        underlying service close still resolves every future).
    service_kwargs:
        Forwarded to :class:`DecodeService` when ``service`` is None —
        ``queue_limit=...``, ``overload_policy=...``, ``retry=...``,
        ``faults=...``, ``policy=...`` (adaptive decode policies) and
        friends all apply; a service built here also inherits the
        service-tier ``"paper-or-syndrome"`` early-termination default.
    """

    def __init__(
        self,
        service: DecodeService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 32,
        drain_timeout: float = 10.0,
        **service_kwargs,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self._owns_service = service is None
        self.service = (
            service if service is not None else DecodeService(**service_kwargs)
        )
        self._host = host
        self._requested_port = port
        self.max_inflight = int(max_inflight)
        self.drain_timeout = float(drain_timeout)
        self._server: asyncio.AbstractServer | None = None
        self._stopping = False
        self._stop: asyncio.Event | None = None  # set by SIGTERM/SIGINT
        self._signals: list[signal.Signals] = []
        self._conn_count = 0
        self._connections: set[asyncio.Task] = set()
        self._inflight: set[asyncio.Task] = set()
        # Transport-level counters (the service keeps its own); guarded
        # by the event loop (single-threaded mutation).
        self.stats = {
            "connections_opened": 0,
            "connections_closed": 0,
            "requests_received": 0,
            "responses_sent": 0,
            "errors_sent": 0,
            "malformed_frames": 0,
            "metrics_scrapes": 0,
            "harq_requests": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, handle_signals: bool = True) -> "DecodeServer":
        """Bind and start accepting connections; returns self.

        With ``handle_signals`` (the default, main-thread only), SIGTERM
        and SIGINT from here on request the graceful drain that
        :meth:`serve_forever` runs: a signal that lands between the bind
        and ``serve_forever()`` makes it drain at once instead of
        killing the process.  :meth:`close` removes the handlers.  Pass
        ``False`` when nothing will run ``serve_forever()``: the
        handlers only wake it.
        """
        if self._server is not None:
            raise RuntimeError("DecodeServer is already started")
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._requested_port
        )
        if handle_signals:
            self._install_signal_handlers()
        return self

    def _install_signal_handlers(self) -> None:
        main = threading.current_thread() is threading.main_thread()
        if self._signals or not main:
            return
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._stop.set)
            except (NotImplementedError, RuntimeError):
                continue
            self._signals.append(sig)

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("DecodeServer is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self._host, self.port)

    async def close(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, tear down."""
        if self._stopping:
            return
        self._stopping = True
        # A second signal during the drain takes the default action.
        loop = asyncio.get_running_loop()
        for sig in self._signals:
            loop.remove_signal_handler(sig)
        self._signals.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Let in-flight decodes resolve and their responses flush.
        pending = [t for t in self._inflight if not t.done()]
        if pending:
            _, laggards = await asyncio.wait(
                pending, timeout=self.drain_timeout
            )
            # drain_timeout is a promise: requests still stuck after it
            # (a hung worker, an unbounded service future) are abandoned
            # here — cancelling the serve tasks unsticks the connection
            # handlers' finally blocks, and closing the connections
            # below fails the remote waiters instead of hanging them.
            for task in laggards:
                task.cancel()
            if laggards:
                await asyncio.gather(*laggards, return_exceptions=True)
        # Connection handlers are blocked reading their sockets; cancel
        # them (their finally blocks close the writers).
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._owns_service:
            # service.close() blocks on the drain; keep it off the loop.
            await asyncio.get_running_loop().run_in_executor(
                None, self.service.close
            )

    async def serve_forever(self, handle_signals: bool = True) -> None:
        """Run until SIGTERM/SIGINT (when handled) or :meth:`close`.

        With ``handle_signals`` (the default, main-thread only) SIGTERM
        and SIGINT trigger the same graceful drain as :meth:`close` —
        in-flight requests finish, then the process exits cleanly.  The
        handlers are installed by :meth:`start`, or here if the server
        was started without them.
        """
        if self._server is None:
            await self.start(handle_signals)
        elif handle_signals:
            self._install_signal_handlers()
        stopper = asyncio.create_task(self._stop.wait())
        closed = asyncio.create_task(self._server.wait_closed())
        done, pending = await asyncio.wait(
            {stopper, closed}, return_when=asyncio.FIRST_COMPLETED
        )
        for task in pending:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        await self.close()

    async def __aenter__(self) -> "DecodeServer":
        # No signal handlers: a block that never runs serve_forever()
        # keeps the default SIGTERM/SIGINT behaviour.
        if self._server is None:
            await self.start(handle_signals=False)
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """Service + transport metrics as Prometheus exposition text."""
        return self.service.metrics_text() + prometheus_text(
            {"server": dict(self.stats)}
        )

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _on_connection(self, reader, writer) -> None:
        # start_server awaits its callback if it is a coroutine — which
        # would serialize connections; spawn a tracked task instead.
        self._conn_count += 1
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer, self._conn_count),
            name=f"repro-conn-{self._conn_count}",
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle_connection(self, reader, writer, conn_id: int) -> None:
        self.stats["connections_opened"] += 1
        write_lock = asyncio.Lock()
        gate = asyncio.Semaphore(self.max_inflight)
        conn_tasks: set[asyncio.Task] = set()
        # Per-connection IR-HARQ soft buffers, keyed (mode, process id);
        # dies with the connection (cleared in the finally below).
        harq_state: dict = {}
        try:
            while True:
                try:
                    frame = await protocol.read_frame(reader)
                except ProtocolError as exc:
                    # Unframeable stream: report once, hang up.
                    self.stats["malformed_frames"] += 1
                    await self._send(
                        writer, write_lock, protocol.encode_error(None, exc)
                    )
                    break
                if frame is None:
                    break  # clean client close
                ftype, header, payload = frame
                if ftype == protocol.FrameType.METRICS_REQUEST:
                    self.stats["metrics_scrapes"] += 1
                    request_id = header.get("id", 0)
                    await self._send(
                        writer,
                        write_lock,
                        protocol.encode_metrics_response(
                            request_id if isinstance(request_id, int) else 0,
                            self.metrics_text(),
                        ),
                    )
                    continue
                if ftype != protocol.FrameType.REQUEST:
                    self.stats["malformed_frames"] += 1
                    await self._send(
                        writer,
                        write_lock,
                        protocol.encode_error(
                            None,
                            ProtocolError(
                                f"unexpected frame type {ftype.name} from a "
                                "client"
                            ),
                        ),
                    )
                    break
                # Backpressure: do not read request N+max_inflight until
                # one in-flight request resolves.  The socket fills, TCP
                # pushes back, the client feels it.
                await gate.acquire()
                task = asyncio.get_running_loop().create_task(
                    self._serve_request(
                        writer, write_lock, gate, conn_id, header, payload,
                        harq_state,
                    )
                )
                conn_tasks.add(task)
                self._inflight.add(task)
                task.add_done_callback(conn_tasks.discard)
                task.add_done_callback(self._inflight.discard)
        except (asyncio.CancelledError, ConnectionResetError):
            pass  # server close() cancels us / client vanished
        finally:
            harq_state.clear()
            if conn_tasks:
                await asyncio.gather(*conn_tasks, return_exceptions=True)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            self.stats["connections_closed"] += 1

    async def _serve_request(
        self, writer, write_lock, gate, conn_id, header, payload, harq_state
    ) -> None:
        request_id = None
        try:
            self.stats["requests_received"] += 1
            try:
                request_id, mode, llr, config, timeout = protocol.parse_request(
                    header, payload
                )
                harq = protocol.parse_harq(header)
            except Exception as exc:
                self.stats["malformed_frames"] += 1
                await self._send(
                    writer, write_lock, protocol.encode_error(
                        header.get("id") if isinstance(header.get("id"), int)
                        else None,
                        exc,
                    )
                )
                return
            if self._stopping:
                await self._send(
                    writer,
                    write_lock,
                    protocol.encode_error(
                        request_id,
                        ServiceClosedError("decode server is draining"),
                    ),
                )
                return
            snr_db = None
            if harq is not None:
                # Combine synchronously on the loop: requests of one
                # connection enter their synchronous prefix in arrival
                # order, so retransmissions of a process accumulate in
                # the order the client sent them.
                try:
                    llr, snr_db = self._harq_combine(
                        harq_state, harq, mode, llr, config
                    )
                except Exception as exc:
                    await self._send(
                        writer, write_lock,
                        protocol.encode_error(request_id, exc),
                    )
                    return
                self.stats["harq_requests"] += 1
            loop = asyncio.get_running_loop()
            client = f"conn-{conn_id}"
            try:
                # submit() may block (the "block" overload policy, or a
                # contended admission lock) — keep it off the event loop.
                service_future = await loop.run_in_executor(
                    None,
                    lambda: self.service.submit(
                        mode, llr, config=config, client=client,
                        timeout=timeout, snr_db=snr_db,
                    ),
                )
                result = await asyncio.wrap_future(service_future)
            except Exception as exc:
                await self._send(
                    writer, write_lock, protocol.encode_error(request_id, exc)
                )
                return
            await self._send(
                writer, write_lock, protocol.encode_result(request_id, result)
            )
            self.stats["responses_sent"] += 1
        except (asyncio.CancelledError, ConnectionResetError):
            pass  # connection torn down under us; service still resolves
        except Exception as exc:
            # No-hung-futures holds for the *unexpected* too: anything
            # escaping the paths above (e.g. encode_result refusing a
            # response payload over MAX_PAYLOAD_BYTES — result bytes
            # run ~9x a float32 request's) must still answer the
            # client, whose decode() deliberately has no local timer.
            with contextlib.suppress(Exception):
                await self._send(
                    writer, write_lock, protocol.encode_error(request_id, exc)
                )
        finally:
            gate.release()

    def _harq_combine(self, harq_state, harq, mode, llr, config):
        """Soft-combine one HARQ transmission; returns (decoder LLRs, SNR).

        The per-connection session for ``(mode, process)`` is created on
        the process's first transmission (fixing its ``n_filler``); each
        call accumulates the ``(B, e)`` float soft bits at the request's
        redundancy version and returns the combined mother buffer
        conditioned for the request config's datapath, plus the masked
        operating-SNR estimate for the decode policy.
        """
        if not np.issubdtype(llr.dtype, np.floating):
            raise HarqError(
                f"HARQ soft bits must be float LLRs (combining precedes "
                f"quantization), got dtype {llr.dtype}"
            )
        key = (mode, harq["process"])
        session = harq_state.get(key)
        if session is None:
            code = get_code(mode) if isinstance(mode, str) else mode
            session = HarqSession(
                code,
                config if config is not None else self.service.default_config,
                n_filler=harq["n_filler"],
            )
            harq_state[key] = session
        else:
            if harq["n_filler"] != session.matcher.n_filler:
                raise HarqError(
                    f"harq process {harq['process']} was opened with "
                    f"n_filler={session.matcher.n_filler}; a retransmission "
                    f"cannot change it to {harq['n_filler']}"
                )
            if config is not None:
                session.config = config
        session.push(llr, harq["rv"])
        return session.decoder_llrs(), session.snr_db()

    async def _send(self, writer, write_lock, frame: bytes) -> None:
        if frame[3:4] == bytes([int(protocol.FrameType.ERROR)]):
            self.stats["errors_sent"] += 1
        async with write_lock:
            writer.write(frame)
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                await writer.drain()


__all__ = ["DecodeServer"]
