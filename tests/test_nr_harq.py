"""IR-HARQ session, manager, and wire tests.

The invariant everything here leans on: a HARQ re-decode after
combining is *exactly* a fresh decode of the combined soft buffer —
sessions add state, never decoder behaviour.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.channel import BPSKModulator, ChannelFrontend, make_channel
from repro.codes import get_code
from repro.decoder import DecoderConfig, LayeredDecoder
from repro.encoder import make_encoder
from repro.errors import HarqError, ProtocolError
from repro.fixedpoint import QFormat
from repro.nr import HarqManager, HarqSession, NRRateMatcher
from repro.server import DecodeClient, DecodeServer
from repro.service import DecodeService
from repro.service.policy import DecodePolicy

MODE = "NR:bg2:z6"  # n = 312: small enough for wire tests, real IR structure
CONFIG = DecoderConfig(backend="fast")


def _matcher() -> NRRateMatcher:
    return NRRateMatcher(get_code(MODE))


def _transmission(matcher, rv, e, ebn0_db, noise_seed, data_seed=1, batch=3):
    """One rate-matched BPSK/AWGN transmission of a fixed payload batch.

    Same ``data_seed`` → same transport block across calls, so pushing
    several calls with different ``rv``/``noise_seed`` models genuine
    retransmissions of one block.
    """
    code = matcher.code
    encoder = make_encoder(code)
    rng = np.random.default_rng(data_seed)
    payload = rng.integers(0, 2, (batch, matcher.n_payload), dtype=np.uint8)
    codewords = encoder.encode(matcher.place_fillers(payload))
    tx_bits = matcher.rate_match(codewords, rv, e)
    rate = code.n_info / code.n
    sigma = float(np.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))))
    noise_rng = np.random.default_rng(noise_seed)
    symbols = 1.0 - 2.0 * tx_bits.astype(np.float64)
    received = symbols + sigma * noise_rng.standard_normal(tx_bits.shape)
    llr = 2.0 * received / sigma**2
    return llr, payload


class TestSession:
    def test_combine_is_derate_sum(self):
        matcher = _matcher()
        session = HarqSession(matcher.code, CONFIG)
        e = matcher.ncb // 2
        llr0, _ = _transmission(matcher, 0, e, 2.0, noise_seed=10)
        llr2, _ = _transmission(matcher, 2, e, 2.0, noise_seed=11)
        session.push(llr0, 0).push(llr2, 2)
        expected = matcher.derate_match(llr0, 0)
        expected = matcher.derate_match(llr2, 2, out=expected)
        assert np.allclose(session.combined(), expected)
        assert session.transmissions == 2
        assert session.rv_history == [(0, e), (2, e)]

    def test_transmitted_mask_accumulates(self):
        matcher = _matcher()
        session = HarqSession(matcher.code, CONFIG)
        e = matcher.ncb // 3
        llr0, _ = _transmission(matcher, 0, e, 2.0, noise_seed=12)
        session.push(llr0, 0)
        first = session.transmitted
        assert first.sum() == e
        llr2, _ = _transmission(matcher, 2, e, 2.0, noise_seed=13)
        session.push(llr2, 2)
        second = session.transmitted
        assert second.sum() > first.sum()
        assert (second | first).sum() == second.sum()  # monotone OR

    def test_empty_session_is_typed(self):
        session = HarqSession(get_code(MODE), CONFIG)
        for call in (session.combined, session.decoder_llrs, session.snr_db,
                     session.decode):
            with pytest.raises(HarqError):
                call()

    def test_batch_mismatch_is_typed(self):
        matcher = _matcher()
        session = HarqSession(matcher.code, CONFIG)
        e = matcher.ncb // 2
        llr0, _ = _transmission(matcher, 0, e, 2.0, noise_seed=14, batch=3)
        session.push(llr0, 0)
        llr1, _ = _transmission(matcher, 1, e, 2.0, noise_seed=15, batch=2)
        with pytest.raises(HarqError):
            session.push(llr1, 1)

    def test_redecode_equals_fresh_decode_of_combined_buffer(self):
        """The central HARQ property, float and fixed datapaths."""
        for config in (CONFIG, DecoderConfig(backend="fast",
                                             qformat=QFormat(8, 2))):
            matcher = _matcher()
            session = HarqSession(matcher.code, config)
            e = matcher.ncb * 2 // 3
            for rv, seed in ((0, 20), (2, 21), (3, 22)):
                llr, _ = _transmission(matcher, rv, e, 1.0, noise_seed=seed)
                session.push(llr, rv)
            redecode = session.decode()
            fresh_llrs = matcher.decoder_llrs(
                session.combined(), session.transmitted,
                qformat=config.qformat,
            )
            fresh = LayeredDecoder(matcher.code, config).decode(fresh_llrs)
            assert np.array_equal(redecode.bits, fresh.bits)
            assert np.array_equal(redecode.iterations, fresh.iterations)

    def test_snr_estimate_grows_with_combining(self):
        matcher = _matcher()
        session = HarqSession(matcher.code, CONFIG)
        e = matcher.ncb // 2
        estimates = []
        for seed, rv in ((30, 0), (31, 0), (32, 0)):  # chase combining
            llr, _ = _transmission(matcher, rv, e, 2.0, noise_seed=seed)
            session.push(llr, rv)
            estimates.append(session.snr_db())
        assert estimates[0] < estimates[1] < estimates[2]

    def test_combining_recovers_low_snr_block(self):
        """rv0 alone fails; accumulating redundancy versions succeeds."""
        matcher = _matcher()
        session = HarqSession(matcher.code, DecoderConfig(
            backend="fast", max_iterations=30
        ))
        e = matcher.ncb // 2
        ebn0 = 0.0
        llr, payload = _transmission(matcher, 0, e, ebn0, noise_seed=40)
        first = session.receive(llr, 0)
        errors_first = int(
            (matcher.extract_payload(first.bits[:, : matcher.code.n_info])
             != payload).sum()
        )
        assert errors_first > 0
        last = first
        for rv, seed in ((2, 41), (3, 42), (1, 43)):
            llr, _ = _transmission(matcher, rv, e, ebn0, noise_seed=seed)
            last = session.receive(llr, rv)
        errors_last = int(
            (matcher.extract_payload(last.bits[:, : matcher.code.n_info])
             != payload).sum()
        )
        assert errors_last == 0
        assert last.converged.all()

    def test_reset_flushes(self):
        matcher = _matcher()
        session = HarqSession(matcher.code, CONFIG)
        llr, _ = _transmission(matcher, 0, 64, 2.0, noise_seed=50)
        session.push(llr, 0)
        session.reset()
        assert session.transmissions == 0
        assert session.batch_size == 0
        assert not session.transmitted.any()
        with pytest.raises(HarqError):
            session.combined()


class TestTrajectory:
    """IR-HARQ on an NR BG1 mode, 24 blocks rate-matched to half the
    circular buffer and sent at rv 0, 2, 3, 1: rv0 alone leaves frame
    errors, and each combined re-decode leaves no more than the last."""

    @pytest.mark.parametrize(
        "channel, ebn0_db", [("awgn", 1.0), ("rayleigh", 4.0)]
    )
    def test_fer_falls_with_every_redundancy_version(self, channel, ebn0_db):
        code = get_code("NR:bg1:z8")
        matcher = NRRateMatcher(code)
        e = matcher.ncb // 2
        rng = np.random.default_rng(7)
        payload = rng.integers(0, 2, (24, matcher.n_payload), dtype=np.uint8)
        codewords = make_encoder(code).encode(matcher.place_fillers(payload))
        session = HarqSession(
            code, DecoderConfig(early_termination="paper-or-syndrome")
        )
        fers = []
        for rv in (0, 2, 3, 1):
            frontend = ChannelFrontend(
                BPSKModulator(),
                make_channel(channel, ebn0_db, matcher.n_payload / e, 1, rng=rng),
            )
            result = session.receive(
                frontend.run(matcher.rate_match(codewords, rv, e)), rv
            )
            decoded = matcher.extract_payload(result.bits[:, : code.n_info])
            fers.append(float((decoded != payload).any(axis=1).mean()))
        assert fers[0] > 0.0, fers
        assert all(a >= b for a, b in zip(fers, fers[1:])), fers
        assert fers[-1] < fers[0], fers


class TestManager:
    def test_sessions_are_keyed_and_isolated(self):
        with DecodeService(workers=1, default_config=CONFIG) as service:
            manager = HarqManager(service, MODE)
            a = manager.session("alice", 0)
            b = manager.session("alice", 1)
            c = manager.session("bob", 0)
            assert a is manager.session("alice", 0)
            assert len({id(a), id(b), id(c)}) == 3
            assert manager.active_processes == 3
            manager.release("alice", 1)
            assert manager.active_processes == 2
            assert manager.release_client("alice") == 1
            assert manager.active_processes == 1

    def test_submit_matches_local_session(self):
        matcher = _matcher()
        e = matcher.ncb // 2
        local = HarqSession(matcher.code, CONFIG)
        with DecodeService(workers=2, default_config=CONFIG) as service:
            manager = HarqManager(service, MODE)
            results = []
            for rv, seed in ((0, 60), (2, 61)):
                llr, _ = _transmission(matcher, rv, e, 1.5, noise_seed=seed)
                local.push(llr, rv)
                results.append(manager.submit(llr, rv).result(timeout=30))
            expected = local.decode()
            assert np.array_equal(results[-1].bits, expected.bits)
            assert np.array_equal(results[-1].iterations, expected.iterations)

    def test_works_under_decode_policy(self):
        """The stateful workload composes with SNR-driven policies."""
        matcher = _matcher()
        e = matcher.ncb // 2
        with DecodeService(
            workers=2, max_wait=0.002, policy=DecodePolicy()
        ) as service:
            manager = HarqManager(service, MODE)
            llr, _ = _transmission(matcher, 0, e, 3.0, noise_seed=70)
            first = manager.submit(llr, 0).result(timeout=30)
            llr2, _ = _transmission(matcher, 2, e, 3.0, noise_seed=71)
            second = manager.submit(llr2, 2).result(timeout=30)
            assert second.bits.shape == first.bits.shape
            snap = service.metrics_snapshot()
            assert snap["policy"] is not None


# ---------------------------------------------------------------------------
# Wire: stateful HARQ decode over the asyncio server
# ---------------------------------------------------------------------------
def _serve(coro_fn, **server_kwargs):
    server_kwargs.setdefault("default_config", CONFIG)

    async def _main():
        async with DecodeServer(**server_kwargs) as server:
            return await coro_fn(server)

    return asyncio.run(_main())


class TestWire:
    def test_harq_requests_combine_across_the_wire(self):
        matcher = _matcher()
        e = matcher.ncb // 2
        local = HarqSession(matcher.code, CONFIG)
        transmissions = []
        for rv, seed in ((0, 90), (2, 91)):
            llr, _ = _transmission(matcher, rv, e, 1.5, noise_seed=seed)
            local.push(llr, rv)
            transmissions.append((rv, llr))

        async def scenario(server):
            async with await DecodeClient.connect(*server.address) as client:
                results = []
                for rv, llr in transmissions:
                    results.append(await client.decode(
                        MODE, llr, harq={"process": 0, "rv": rv}
                    ))
                return results, dict(server.stats)

        results, stats = _serve(scenario)
        expected = local.decode()
        assert np.array_equal(results[-1].bits, expected.bits)
        assert np.array_equal(results[-1].iterations, expected.iterations)
        assert stats["harq_requests"] == 2

    def test_integer_harq_payload_is_typed(self):
        llr = np.ones((1, 64), dtype=np.int32)

        async def scenario(server):
            async with await DecodeClient.connect(*server.address) as client:
                with pytest.raises(HarqError):
                    await client.decode(
                        MODE, llr, harq={"process": 0, "rv": 0}
                    )

        _serve(scenario)

    def test_n_filler_change_mid_process_is_typed(self):
        matcher = _matcher()
        llr, _ = _transmission(matcher, 0, 64, 2.0, noise_seed=92)

        async def scenario(server):
            async with await DecodeClient.connect(*server.address) as client:
                await client.decode(
                    MODE, llr, harq={"process": 3, "rv": 0, "n_filler": 0}
                )
                with pytest.raises(HarqError):
                    await client.decode(
                        MODE, llr, harq={"process": 3, "rv": 2, "n_filler": 4}
                    )

        _serve(scenario)

    def test_malformed_harq_extension_is_protocol_error(self):
        matcher = _matcher()
        llr, _ = _transmission(matcher, 0, 64, 2.0, noise_seed=93)

        async def scenario(server):
            async with await DecodeClient.connect(*server.address) as client:
                with pytest.raises(ProtocolError):
                    await client.decode(
                        MODE, llr, harq={"process": 0, "rv": 9}
                    )
                with pytest.raises(ProtocolError):
                    await client.decode(
                        MODE, llr, harq={"process": 0, "rv": 0, "x": 1}
                    )

        _serve(scenario)

    def test_disconnect_purges_soft_buffers(self):
        """A reconnecting client starts from an empty process buffer."""
        matcher = _matcher()
        e = matcher.ncb // 2
        llr, _ = _transmission(matcher, 0, e, 1.5, noise_seed=94)
        fresh = HarqSession(matcher.code, CONFIG).receive(llr, 0)

        async def scenario(server):
            async with await DecodeClient.connect(*server.address) as client:
                await client.decode(MODE, llr, harq={"process": 0, "rv": 0})
            # New connection, same process id: no leftover combining.
            async with await DecodeClient.connect(*server.address) as client:
                return await client.decode(
                    MODE, llr, harq={"process": 0, "rv": 0}
                )

        again = _serve(scenario)
        assert np.array_equal(again.bits, fresh.bits)
        assert np.array_equal(again.iterations, fresh.iterations)


class TestLinkIntegration:
    def test_link_harq_uses_link_decoder(self):
        import repro

        link = repro.open(MODE, CONFIG, ebn0=2.0)
        session = link.harq()
        assert session.code is link.code
        matcher = session.matcher
        llr, _ = _transmission(matcher, 0, matcher.ncb // 2, 2.0,
                               noise_seed=95)
        result = session.receive(llr, 0)
        assert result.bits.shape == (3, link.code.n)

    def test_link_harq_manager_round_trip(self):
        import repro

        link = repro.open(MODE, CONFIG, ebn0=2.0)
        manager = link.harq_manager()
        try:
            matcher = manager.matcher
            llr, _ = _transmission(matcher, 0, matcher.ncb // 2, 2.0,
                                   noise_seed=96)
            result = manager.submit(llr, 0).result(timeout=30)
            assert result.bits.shape == (3, link.code.n)
        finally:
            link.close()
