"""Wire protocol and asyncio decode-server tests.

Protocol framing/validation is tested as pure functions; server and
client behaviour runs real sockets on a loopback listener inside
``asyncio.run`` (the repo does not assume pytest-asyncio).
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.codes import get_code
from repro.decoder import DecoderConfig, LayeredDecoder
from repro.errors import (
    DeadlineExceeded,
    DecoderConfigError,
    ProtocolError,
    ServiceClosedError,
    ServiceError,
    UnknownCodeError,
)
from repro.server import DecodeClient, DecodeServer
from repro.server import protocol
from repro.service import DecodeService

WIMAX = "802.16e:1/2:z24"
CONFIG = DecoderConfig(backend="fast")


def _llr(frames: int, seed: int, mode: str = WIMAX) -> np.ndarray:
    code = get_code(mode)
    rng = np.random.default_rng(seed)
    return 4.0 * rng.standard_normal((frames, code.n))


def _reader_for(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


async def _read_one(data: bytes):
    return await protocol.read_frame(_reader_for(data))


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
class TestFraming:
    def test_frame_roundtrip(self):
        frame = protocol.encode_frame(
            protocol.FrameType.REQUEST, {"id": 7}, b"\x01\x02"
        )
        ftype, header, payload = asyncio.run(_read_one(frame))
        assert ftype == protocol.FrameType.REQUEST
        assert header == {"id": 7}
        assert payload == b"\x01\x02"

    def test_clean_eof_returns_none(self):
        assert asyncio.run(_read_one(b"")) is None

    def test_eof_mid_prelude(self):
        with pytest.raises(ProtocolError, match="mid-prelude"):
            asyncio.run(_read_one(b"RD\x01"))

    def test_eof_mid_body(self):
        frame = protocol.encode_frame(protocol.FrameType.REQUEST, {"id": 1})
        with pytest.raises(ProtocolError, match="mid-frame"):
            asyncio.run(_read_one(frame[:-2]))

    def test_bad_magic(self):
        frame = protocol.encode_frame(protocol.FrameType.REQUEST, {})
        with pytest.raises(ProtocolError, match="magic"):
            asyncio.run(_read_one(b"XX" + frame[2:]))

    def test_bad_version(self):
        frame = bytearray(
            protocol.encode_frame(protocol.FrameType.REQUEST, {})
        )
        frame[2] = 99
        with pytest.raises(ProtocolError, match="version 99"):
            asyncio.run(_read_one(bytes(frame)))

    def test_unknown_frame_type(self):
        frame = bytearray(
            protocol.encode_frame(protocol.FrameType.REQUEST, {})
        )
        frame[3] = 250
        with pytest.raises(ProtocolError, match="frame type 250"):
            asyncio.run(_read_one(bytes(frame)))

    def test_hostile_declared_lengths_rejected_before_allocation(self):
        bad_header = protocol.PRELUDE.pack(
            protocol.MAGIC, protocol.VERSION, 1,
            protocol.MAX_HEADER_BYTES + 1, 0,
        )
        with pytest.raises(ProtocolError, match="header length"):
            asyncio.run(_read_one(bad_header))
        bad_payload = protocol.PRELUDE.pack(
            protocol.MAGIC, protocol.VERSION, 1,
            0, protocol.MAX_PAYLOAD_BYTES + 1,
        )
        with pytest.raises(ProtocolError, match="payload length"):
            asyncio.run(_read_one(bad_payload))

    def test_header_must_be_json_object(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            protocol.decode_header(b"\xff\xfe{")
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_header(b"[1,2]")


# ---------------------------------------------------------------------------
# Request validation
# ---------------------------------------------------------------------------
class TestRequestParsing:
    def _header(self, llr, **over):
        header = {
            "id": 1,
            "mode": WIMAX,
            "config": None,
            "dtype": llr.dtype.str,
            "shape": list(llr.shape),
            "timeout": None,
        }
        header.update(over)
        return header

    def test_roundtrip_preserves_payload_and_config(self):
        llr = _llr(2, seed=0)
        frame = protocol.encode_request(5, WIMAX, llr, config=CONFIG, timeout=1.5)
        ftype, header, payload = asyncio.run(_read_one(frame))
        assert ftype == protocol.FrameType.REQUEST
        rid, mode, parsed, config, timeout = protocol.parse_request(
            header, payload
        )
        assert (rid, mode, timeout) == (5, WIMAX, 1.5)
        assert np.array_equal(parsed, llr)
        assert config == CONFIG

    def test_1d_llr_promoted_to_one_frame(self):
        llr = _llr(1, seed=1)[0]
        frame = protocol.encode_request(0, WIMAX, llr)
        _, header, payload = asyncio.run(_read_one(frame))
        _, _, parsed, _, _ = protocol.parse_request(header, payload)
        assert parsed.shape == (1, llr.size)

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("id", None, "'id'"),
            ("id", -1, "id must be >= 0"),
            ("id", True, "'id'"),
            ("mode", 7, "'mode'"),
            ("dtype", "complex128", "not a valid LLR"),
            ("dtype", "float128", "not a valid LLR"),
            ("dtype", "U8", "not a valid LLR"),
            ("dtype", "no-such-dtype", "unparseable"),
            ("dtype", 12, "dtype must be a string"),
            ("shape", [2], "shape"),
            ("shape", [2, -4], "shape"),
            ("shape", "2x4", "shape"),
            ("shape", [True, 4], "shape"),
            ("config", "fast", "config"),
            ("timeout", 0, "timeout must be positive"),
            ("timeout", "soon", "timeout must be a number"),
            ("timeout", True, "timeout must be a number"),
        ],
    )
    def test_malformed_header_fields(self, field, value, match):
        llr = _llr(1, seed=2)
        header = self._header(llr, **{field: value})
        with pytest.raises(ProtocolError, match=match):
            protocol.parse_request(header, llr.tobytes())

    def test_payload_size_must_match_geometry(self):
        llr = _llr(2, seed=3)
        header = self._header(llr)
        with pytest.raises(ProtocolError, match="payload is"):
            protocol.parse_request(header, llr.tobytes()[:-8])

    @pytest.mark.parametrize(
        "config,match",
        [
            ({"not_a_config_field": 1}, "unknown"),
            ({"shards": 2}, "unknown"),
            ({"fast_exact": True}, "unknown"),
            ({"track_history": True}, "unknown"),
            ({"max_iterations": "10"}, "max_iterations"),
            ({"max_iterations": 2.5}, "max_iterations"),
            ({"max_iterations": True}, "max_iterations"),
            ({"llr_clip": None}, "llr_clip"),
            ({"llr_clip": "nan"}, "llr_clip"),
            ({"siso_guard_bits": "2"}, "siso_guard_bits"),
            ({"layer_order": 5}, "layer_order"),
            ({"qformat": [1]}, "qformat"),
            ({"app_extra_bits": 60}, "app_extra_bits"),
            ({"qformat": ["QFormat", 40, 2]}, "int32"),
        ],
    )
    def test_bad_config_dict_is_config_error_not_protocol_error(
        self, config, match
    ):
        # Well-framed but semantically invalid config: per-request
        # failure, not a stream poisoner.
        llr = _llr(1, seed=4)
        header = self._header(llr, config=config)
        with pytest.raises(DecoderConfigError, match=match):
            protocol.parse_request(header, llr.tobytes())


# ---------------------------------------------------------------------------
# Result and error frames
# ---------------------------------------------------------------------------
class TestResultAndErrorFrames:
    def test_result_roundtrip_is_lossless(self, small_code):
        llr = _llr(3, seed=5)
        direct = LayeredDecoder(get_code(WIMAX), CONFIG).decode(llr)
        _, header, payload = asyncio.run(
            _read_one(protocol.encode_result(9, direct))
        )
        rid, result = protocol.parse_result(header, payload)
        assert rid == 9
        assert np.array_equal(result.bits, direct.bits)
        assert np.array_equal(result.llr, direct.llr)
        assert np.array_equal(result.iterations, direct.iterations)
        assert np.array_equal(result.converged, direct.converged)
        assert np.array_equal(result.et_stopped, direct.et_stopped)
        assert result.n_info == direct.n_info

    def test_result_payload_geometry_checked(self):
        llr = _llr(1, seed=6)
        direct = LayeredDecoder(get_code(WIMAX), CONFIG).decode(llr)
        _, header, payload = asyncio.run(
            _read_one(protocol.encode_result(0, direct))
        )
        with pytest.raises(ProtocolError, match="geometry"):
            protocol.parse_result(header, payload[:-1])

    @pytest.mark.parametrize("name,cls", sorted(protocol.WIRE_ERRORS.items()))
    def test_every_wire_error_roundtrips_by_class(self, name, cls):
        _, header, _ = asyncio.run(
            _read_one(protocol.encode_error(3, cls("boom")))
        )
        rid, exc = protocol.parse_error(header)
        assert rid == 3
        assert type(exc) is cls
        assert "boom" in str(exc)

    def test_unknown_error_name_degrades_to_service_error(self):
        _, header, _ = asyncio.run(
            _read_one(protocol.encode_error(None, ZeroDivisionError("why")))
        )
        rid, exc = protocol.parse_error(header)
        assert rid is None
        assert type(exc) is ServiceError
        assert "ZeroDivisionError" in str(exc) and "why" in str(exc)


# ---------------------------------------------------------------------------
# Server integration (real sockets, loopback)
# ---------------------------------------------------------------------------
def _serve(coro_fn, **server_kwargs):
    """Run ``coro_fn(server)`` against a started loopback server."""
    server_kwargs.setdefault("default_config", CONFIG)

    async def _main():
        async with DecodeServer(**server_kwargs) as server:
            return await coro_fn(server)

    return asyncio.run(_main())


class TestDecodeServer:
    def test_roundtrip_is_bit_identical_to_direct_decode(self):
        llr = _llr(4, seed=10)
        direct = LayeredDecoder(get_code(WIMAX), CONFIG).decode(llr)

        async def scenario(server):
            async with await DecodeClient.connect(*server.address) as client:
                return await client.decode(WIMAX, llr, config=CONFIG)

        result = _serve(scenario)
        assert np.array_equal(result.bits, direct.bits)
        assert np.array_equal(result.llr, direct.llr)
        assert np.array_equal(result.iterations, direct.iterations)

    def test_pipelined_and_concurrent_clients(self):
        payloads = [_llr(1 + i % 3, seed=20 + i) for i in range(9)]
        direct = [
            LayeredDecoder(get_code(WIMAX), CONFIG).decode(llr)
            for llr in payloads
        ]

        async def scenario(server):
            clients = [
                await DecodeClient.connect(*server.address) for _ in range(3)
            ]
            try:
                results = await asyncio.gather(*[
                    clients[i % 3].decode(WIMAX, llr)
                    for i, llr in enumerate(payloads)
                ])
            finally:
                for client in clients:
                    await client.close()
            return results

        results = _serve(scenario)
        for result, expected in zip(results, direct):
            assert np.array_equal(result.bits, expected.bits)

    def test_uint_llr_batch_decodes_over_the_wire(self):
        # Unsigned integers are raw fixed-point payloads in process
        # (DecodeService.submit admits kind 'u'); the wire must agree,
        # or a batch that decodes locally is rejected remotely and the
        # advertised remote/in-process parity breaks.
        code = get_code(WIMAX)
        rng = np.random.default_rng(40)
        raw = rng.integers(0, 32, size=(2, code.n), dtype=np.uint8)
        direct = LayeredDecoder(code, CONFIG).decode(raw)

        async def scenario(server):
            async with await DecodeClient.connect(*server.address) as client:
                return await client.decode(WIMAX, raw, config=CONFIG)

        result = _serve(scenario)
        assert np.array_equal(result.bits, direct.bits)
        assert np.array_equal(result.iterations, direct.iterations)

    def test_oversized_result_payload_still_answers_the_client(
        self, monkeypatch
    ):
        # A RESPONSE payload runs ~9x a float32 request's bytes (8-byte
        # LLRs plus bits per bit); a request can therefore fit the
        # frame cap while its result does not.  encode_result raising
        # must still produce an ERROR frame — the client's decode()
        # deliberately has no local timer, so a swallowed exception
        # here would hang its waiter forever.
        llr = _llr(1, seed=41).astype(np.float32)
        monkeypatch.setattr(
            protocol, "MAX_PAYLOAD_BYTES", llr.nbytes + 512
        )

        async def scenario(server):
            async with await DecodeClient.connect(*server.address) as client:
                with pytest.raises(ProtocolError, match="payload too large"):
                    await asyncio.wait_for(client.decode(WIMAX, llr), 30)

        _serve(scenario)

    def test_garbage_bytes_get_stream_error_and_disconnect(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 16)
            await writer.drain()
            frame = await protocol.read_frame(reader)
            assert frame is not None
            ftype, header, _ = frame
            assert ftype == protocol.FrameType.ERROR
            rid, exc = protocol.parse_error(header)
            assert rid is None
            assert isinstance(exc, ProtocolError)
            assert await reader.read() == b""  # server hung up
            writer.close()
            await writer.wait_closed()
            return server.stats["malformed_frames"]

        assert _serve(scenario) == 1

    def test_well_framed_bad_request_keeps_connection_alive(self):
        llr = _llr(1, seed=30)

        async def scenario(server):
            async with await DecodeClient.connect(*server.address) as client:
                with pytest.raises(UnknownCodeError):
                    await client.decode("no-such-standard:1/2:z9", llr)
                with pytest.raises((ValueError, ServiceError)):
                    await client.decode(WIMAX, llr[:, :-3])  # wrong width
                result = await client.decode(WIMAX, llr)  # still serving
            return result

        direct = LayeredDecoder(get_code(WIMAX), CONFIG).decode(llr)
        assert np.array_equal(_serve(scenario).bits, direct.bits)

    @pytest.mark.parametrize("field", ["shards", "fast_exact", "track_history"])
    def test_config_with_deleted_field_gets_typed_config_error(self, field):
        llr = _llr(1, seed=31)
        header = {
            "id": 7,
            "mode": WIMAX,
            "config": {**CONFIG.to_dict(), field: 2},
            "dtype": llr.dtype.str,
            "shape": list(llr.shape),
            "timeout": None,
        }
        frame = protocol.encode_frame(
            protocol.FrameType.REQUEST, header, llr.tobytes()
        )

        async def scenario(server):
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(frame)
            await writer.drain()
            ftype, reply, _ = await protocol.read_frame(reader)
            writer.close()
            await writer.wait_closed()
            assert ftype == protocol.FrameType.ERROR
            return protocol.parse_error(reply)

        request_id, exc = _serve(scenario)
        assert request_id == 7
        assert isinstance(exc, DecoderConfigError)
        assert field in str(exc)

    def test_deadline_crosses_the_wire_as_deadline_exceeded(self):
        service = DecodeService(  # a thread worker, wedged by gate.wait
            max_batch=4, max_wait=0.001, workers=1, executor="thread",
            default_config=CONFIG,
        )
        gate = threading.Event()

        async def scenario(server):
            service._pool.submit(gate.wait)  # wedge the only worker
            try:
                async with await DecodeClient.connect(*server.address) as client:
                    with pytest.raises(DeadlineExceeded):
                        await client.decode(WIMAX, _llr(1, seed=31), timeout=0.05)
            finally:
                gate.set()

        try:
            _serve(scenario, service=service)
        finally:
            service.close()

    def test_metrics_scrape_over_the_wire(self):
        llr = _llr(1, seed=32)

        async def scenario(server):
            async with await DecodeClient.connect(*server.address) as client:
                await client.decode(WIMAX, llr)
                return await client.metrics_text()

        text = _serve(scenario)
        assert "# TYPE repro_requests_completed counter" in text
        assert "repro_requests_completed 1" in text
        assert "repro_server_responses_sent 1" in text
        assert "repro_server_connections_opened 1" in text

    def test_graceful_drain_finishes_inflight_requests(self):
        llr = _llr(2, seed=33)
        direct = LayeredDecoder(get_code(WIMAX), CONFIG).decode(llr)

        async def _main():
            server = await DecodeServer(default_config=CONFIG).start()
            client = await DecodeClient.connect(*server.address)
            pending = asyncio.create_task(client.decode(WIMAX, llr))
            await asyncio.sleep(0.01)  # let the request reach the service
            await server.close()  # drain: the in-flight decode completes
            result = await pending
            await client.close()
            return result

        result = asyncio.run(_main())
        assert np.array_equal(result.bits, direct.bits)

    def test_start_handles_sigterm_until_close_and_async_with_does_not(self):
        before = signal.getsignal(signal.SIGTERM)

        async def _main():
            server = await DecodeServer(default_config=CONFIG).start()
            during = signal.getsignal(signal.SIGTERM)
            await server.close()
            after = signal.getsignal(signal.SIGTERM)
            async with DecodeServer(default_config=CONFIG):
                embedded = signal.getsignal(signal.SIGTERM)
            return during, after, embedded

        during, after, embedded = asyncio.run(_main())
        assert during is not before
        assert after is signal.SIG_DFL
        assert embedded is after

    def test_sigterm_before_serve_forever_drains(self):
        # The signal lands between start() and serve_forever(), as when
        # a supervisor stops a server right after its first accept.
        async def _main():
            server = await DecodeServer(default_config=CONFIG).start()
            assert signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.sleep(0)  # the loop runs the handler
            await asyncio.wait_for(server.serve_forever(), timeout=30)
            return server

        server = asyncio.run(_main())
        assert server.service.closed
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL

    def test_close_abandons_drain_after_timeout_with_hung_worker(self):
        # drain_timeout is a hard bound, even when a wedged worker (no
        # hang_timeout, no request deadline) means the service future
        # will never resolve: close() must abandon the laggard request
        # and fail the remote waiter via the closing connection, not
        # block forever on it.
        service = DecodeService(  # a thread worker, wedged by gate.wait
            max_batch=4, max_wait=0.001, workers=1, executor="thread",
            default_config=CONFIG,
        )
        gate = threading.Event()

        async def _main():
            server = await DecodeServer(
                service=service, drain_timeout=0.3
            ).start()
            service._pool.submit(gate.wait)  # wedge the only worker
            client = await DecodeClient.connect(*server.address)
            pending = asyncio.create_task(
                client.decode(WIMAX, _llr(1, seed=42))
            )
            await asyncio.sleep(0.05)  # let the request reach the service
            t0 = time.monotonic()
            await asyncio.wait_for(server.close(), timeout=10)
            elapsed = time.monotonic() - t0
            with pytest.raises(ProtocolError):
                await pending
            await client.close()
            return elapsed

        try:
            elapsed = asyncio.run(_main())
        finally:
            gate.set()
            service.close()
        assert elapsed < 5  # bounded by drain_timeout, not the worker

    def test_closed_client_fails_pending_instead_of_hanging(self):
        service = DecodeService(  # a thread worker, wedged by gate.wait
            max_batch=4, max_wait=0.001, workers=1, executor="thread",
            default_config=CONFIG,
        )
        gate = threading.Event()

        async def scenario(server):
            service._pool.submit(gate.wait)
            client = await DecodeClient.connect(*server.address)
            pending = asyncio.create_task(
                client.decode(WIMAX, _llr(1, seed=34))
            )
            await asyncio.sleep(0.01)
            await client.close()
            with pytest.raises(ProtocolError):
                await pending
            with pytest.raises(ProtocolError, match="closed"):
                await client.decode(WIMAX, _llr(1, seed=35))
            gate.set()

        try:
            _serve(scenario, service=service)
        finally:
            service.close()

    def test_server_validates_max_inflight(self):
        with pytest.raises(ValueError):
            DecodeServer(max_inflight=0)

    def test_borrowed_service_is_not_closed_by_server(self):
        service = DecodeService(
            max_batch=4, max_wait=0.001, workers=1, default_config=CONFIG
        )
        try:

            async def scenario(server):
                async with await DecodeClient.connect(*server.address) as client:
                    await client.decode(WIMAX, _llr(1, seed=36))

            _serve(scenario, service=service)
            assert not service.closed  # owner decides, not the server
            service.submit(WIMAX, _llr(1, seed=37)).result(timeout=60)
        finally:
            service.close()
