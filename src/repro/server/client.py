"""Async client for the decode server's framed protocol.

:class:`DecodeClient` multiplexes any number of concurrent
:meth:`~DecodeClient.decode` calls over one connection: each request
carries a client-assigned id, a background reader task matches
responses back to their awaiting coroutine, and server-side errors are
re-raised as the *same* exception classes a local
:class:`~repro.service.DecodeService` would raise
(:class:`~repro.errors.DeadlineExceeded`,
:class:`~repro.errors.ServiceOverloaded`, ...) — remote and in-process
serving are exception-compatible by construction.

If the connection dies, every pending call fails with
:class:`~repro.errors.ProtocolError` naming the cause; nothing hangs —
the wire inherits the service's no-hung-futures contract.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools

import numpy as np

from repro.decoder.api import DecodeResult, DecoderConfig
from repro.errors import ProtocolError
from repro.server import protocol


class DecodeClient:
    """One connection to a :class:`~repro.server.DecodeServer`.

    Build with :meth:`connect` (or ``async with DecodeClient.connect(...)``
    via the returned instance's context manager)::

        client = await DecodeClient.connect("127.0.0.1", port)
        result = await client.decode("802.16e:1/2:z96", llr, timeout=0.5)
        await client.close()

    All coroutine methods are safe to call concurrently from one event
    loop; requests pipeline on the single connection and resolve
    independently.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count()
        self._pending: dict[int, asyncio.Future] = {}
        self._write_lock = asyncio.Lock()
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(), name="repro-client-reader"
        )

    @classmethod
    async def connect(cls, host: str, port: int) -> "DecodeClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def decode(
        self,
        mode: str,
        llr: np.ndarray,
        config: DecoderConfig | None = None,
        timeout: "float | None" = None,
        harq: "dict | None" = None,
    ) -> DecodeResult:
        """Decode one LLR batch remotely; mirrors ``DecodeService.submit``.

        ``timeout`` is the *server-side* per-request deadline — the
        server guarantees a response (result or
        :class:`~repro.errors.DeadlineExceeded`) for it, so no extra
        client-side timer is needed while the connection is healthy.

        ``harq={"process": p, "rv": r}`` (optionally ``"n_filler"``)
        sends ``llr`` as one NR IR-HARQ (re)transmission — ``(B, e)``
        rate-matched float soft bits rather than a mother codeword.
        The server soft-combines it into this connection's buffer for
        process ``p`` and returns the decode of the *combined* buffer;
        the buffer dies with the connection.
        """
        frame_id, waiter = self._register()
        frame = protocol.encode_request(
            frame_id, mode, llr, config=config, timeout=timeout, harq=harq
        )
        await self._send(frame, frame_id)
        payload = await waiter
        _, result = protocol.parse_result(*payload)
        return result

    async def metrics_text(self) -> str:
        """Scrape the server's Prometheus metrics text."""
        frame_id, waiter = self._register()
        await self._send(protocol.encode_metrics_request(frame_id), frame_id)
        _, payload = await waiter
        return payload.decode("utf-8")

    def _register(self) -> tuple[int, asyncio.Future]:
        if self._closed:
            raise ProtocolError("DecodeClient is closed")
        frame_id = next(self._ids)
        waiter = asyncio.get_running_loop().create_future()
        self._pending[frame_id] = waiter
        return frame_id, waiter

    async def _send(self, frame: bytes, frame_id: int) -> None:
        try:
            async with self._write_lock:
                self._writer.write(frame)
                await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError) as exc:
            self._pending.pop(frame_id, None)
            raise ProtocolError(f"connection lost while sending: {exc}") from None

    # ------------------------------------------------------------------
    # Response demultiplexing
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        failure: BaseException = ProtocolError(
            "connection closed by the server"
        )
        try:
            while True:
                frame = await protocol.read_frame(self._reader)
                if frame is None:
                    break
                ftype, header, payload = frame
                if ftype == protocol.FrameType.ERROR:
                    request_id, exc = protocol.parse_error(header)
                    if request_id is None:
                        # Stream-level error: the server is about to
                        # hang up on us; everything pending fails.
                        failure = exc
                        break
                    self._resolve(request_id, error=exc)
                elif ftype == protocol.FrameType.RESPONSE:
                    self._resolve(header.get("id"), value=(header, payload))
                elif ftype == protocol.FrameType.METRICS_RESPONSE:
                    self._resolve(header.get("id"), value=(header, payload))
                else:
                    failure = ProtocolError(
                        f"server sent unexpected frame type {ftype.name}"
                    )
                    break
        except ProtocolError as exc:
            failure = exc
        except (ConnectionResetError, asyncio.CancelledError) as exc:
            failure = ProtocolError(f"connection lost: {exc!r}")
        finally:
            self._fail_all(failure)

    def _resolve(self, request_id, value=None, error=None) -> None:
        waiter = self._pending.pop(request_id, None)
        if waiter is None or waiter.done():
            return  # unknown id / caller gave up: drop silently
        if error is not None:
            waiter.set_exception(error)
        else:
            waiter.set_result(value)

    def _fail_all(self, exc: BaseException) -> None:
        self._closed = True
        pending, self._pending = self._pending, {}
        for waiter in pending.values():
            if not waiter.done():
                waiter.set_exception(exc)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Close the connection; pending calls fail rather than hang."""
        self._closed = True
        # Also after the server hung up first: the read loop then marked
        # the client closed, but the socket is still open.
        if not self._writer.is_closing():
            self._writer.close()
            with contextlib.suppress(Exception):
                await self._writer.wait_closed()
        if not self._reader_task.done():
            self._reader_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._reader_task

    async def __aenter__(self) -> "DecodeClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


__all__ = ["DecodeClient"]
