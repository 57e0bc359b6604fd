"""Tests for the unified ``repro.open`` / ``Link`` session API.

Three contracts are pinned here:

1. **Bit-identity with the hand-assembled chain** — for every registry
   standard and both datapaths, ``Link.run_frames`` must reproduce the
   pre-redesign ``get_code -> make_encoder -> ChannelFrontend ->
   LayeredDecoder`` chain frame for frame (the api_redesign acceptance
   cell);
2. **One sweep engine** — ``Link.sweep`` must equal a directly-driven
   :class:`~repro.runtime.SweepEngine` bit for bit;
3. **Wire format** — ``DecoderConfig.to_dict``/``from_dict`` must
   round-trip every field (including ``QFormat``, ``layer_order`` and
   non-finite floats) through strict JSON with the cache identity
   preserved.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import repro
from repro import DecoderConfig, LayeredDecoder, QFormat, get_code, make_encoder
from repro.channel import AWGNChannel, BPSKModulator, ChannelFrontend
from repro.decoder import FloodingDecoder
from repro.errors import DecoderConfigError, LinkError, UnknownCodeError
from repro.link import Link, default_plan_cache, open_all, reset_default_plan_cache
from repro.runtime import SweepEngine
from repro.service import PlanCache

#: One representative mode per registry standard (smallest of each, so
#: the full matrix stays fast; DMB-T is the N=7493 synthetic matrix).
STANDARD_MODES = (
    "802.16e:1/2:z24",
    "802.11n:1/2:z27",
    "DMB-T:0.6:z127",
)

DATAPATHS = (
    pytest.param(None, id="float"),
    pytest.param(QFormat(8, 2), id="q8.2"),
)


def manual_chain_result(mode, config, ebn0_db, frames, seed):
    """The pre-redesign five-step chain, verbatim."""
    code = get_code(mode)
    encoder = make_encoder(code)
    rng = np.random.default_rng(seed)
    info, codewords = encoder.random_codewords(frames, rng)
    frontend = ChannelFrontend(
        BPSKModulator(), AWGNChannel.from_ebn0(ebn0_db, code.rate, rng=rng)
    )
    llr = frontend.run(codewords)
    return info, LayeredDecoder(code, config).decode(llr)


class TestLinkDecodeBitIdentity:
    @pytest.mark.parametrize("qformat", DATAPATHS)
    @pytest.mark.parametrize("mode", STANDARD_MODES)
    def test_run_frames_matches_manual_chain(self, mode, qformat):
        config = DecoderConfig(qformat=qformat)
        frames = 2 if "DMB-T" in mode else 6
        ebn0 = 3.0
        link = repro.open(mode, config, ebn0=ebn0, seed=1234)
        outcome = link.run_frames(frames)
        info, reference = manual_chain_result(mode, config, ebn0, frames, 1234)
        assert np.array_equal(outcome.info, info)
        assert np.array_equal(outcome.result.bits, reference.bits)
        assert np.array_equal(outcome.result.llr, reference.llr)
        assert np.array_equal(outcome.result.iterations, reference.iterations)
        assert np.array_equal(outcome.result.et_stopped, reference.et_stopped)
        assert outcome.bit_errors == reference.bit_errors(info)
        assert outcome.frame_errors == reference.frame_errors(info)

    def test_quantized_frontend_equals_decoder_port_quantizer(self):
        """Frontend-quantized ints and float inputs decode identically."""
        config = DecoderConfig(qformat=QFormat(8, 2))
        link = repro.open("802.16e:1/2:z24", config, ebn0=3.0, seed=7)
        _, codewords, llr_int = link.channel_frames(4, rng=11)
        # Same seed, same stream — only the output quantization differs.
        _, codewords2, llr_float = link.channel_frames(
            4, rng=11, quantized=False
        )
        assert np.array_equal(codewords, codewords2)
        assert np.issubdtype(llr_int.dtype, np.integer)
        a = link.decode(llr_int)
        b = link.decode(llr_float)
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.llr, b.llr)
        assert np.array_equal(a.iterations, b.iterations)

    def test_flooding_schedule(self, small_code):
        link = repro.open("802.16e:1/2:z24", schedule="flooding", seed=3)
        _, _, llr = link.channel_frames(4, ebn0=3.0)
        direct = FloodingDecoder(small_code, DecoderConfig()).decode(llr)
        result = link.decode(llr)
        assert np.array_equal(result.bits, direct.bits)
        assert np.array_equal(result.iterations, direct.iterations)


class TestLinkSweepUnified:
    def test_sweep_equals_engine_bit_for_bit(self, small_code):
        config = DecoderConfig(backend="fast")
        link = repro.open("802.16e:1/2:z24", config, seed=21)
        via_link = link.sweep([1.0, 2.5], max_frames=40, batch_size=20)
        direct = SweepEngine(small_code, config, seed=21).run(
            [1.0, 2.5], max_frames=40, batch_size=20
        )
        assert [p.to_dict() for p in via_link] == [p.to_dict() for p in direct]

    def test_sweep_workers_identical(self, small_code):
        link = repro.open("802.16e:1/2:z24", seed=22)
        budget = dict(max_frames=40, batch_size=20)
        serial = link.sweep([2.0], **budget)
        parallel = link.sweep([2.0], workers=2, **budget)
        assert [p.to_dict() for p in serial] == [p.to_dict() for p in parallel]

    def test_parallel_engine_skips_parent_compiles(self):
        """workers>=2 must not force plan/encoder builds the parent
        process would never use."""
        link = repro.open(
            "802.16e:1/2:z24",
            DecoderConfig(max_iterations=6),
            cache=PlanCache(maxsize=2),
            seed=24,
        )
        engine = link.engine(workers=2)
        assert engine._decoder is None  # nothing compiled in the parent
        assert engine._encoder is None
        assert len(link.cache) == 0
        serial_engine = link.engine()
        assert serial_engine._decoder is link.decoder  # serial reuses

    def test_sweep_checkpoint_resume(self, tmp_path):
        link = repro.open("802.16e:1/2:z24", seed=23)
        path = tmp_path / "sweep.json"
        budget = dict(max_frames=30, batch_size=10)
        first = link.sweep([2.0, 3.0], checkpoint=path, **budget)
        assert path.exists()
        resumed = link.sweep([2.0, 3.0], checkpoint=path, **budget)
        assert [p.to_dict() for p in first] == [p.to_dict() for p in resumed]


class TestConfigWireFormat:
    def test_round_trips_every_field(self):
        config = DecoderConfig(
            check_node="normalized-minsum",
            bp_impl="forward-backward",
            max_iterations=7,
            early_termination="paper-or-syndrome",
            et_threshold=1.5,
            qformat=QFormat(10, 3),
            normalization=0.8,
            offset=0.25,
            layer_order=(2, 0, 1),
            llr_clip=128.0,
            app_extra_bits=3,
            siso_guard_bits=1,
            app_clip=float("inf"),
            compact_frames=False,
            backend="reference",
        )
        wire = json.dumps(config.to_dict())  # must be strict-JSON safe
        restored = DecoderConfig.from_dict(json.loads(wire))
        assert restored == config
        assert restored.cache_key() == config.cache_key()
        assert restored.stable_hash() == config.stable_hash()
        assert isinstance(restored.qformat, QFormat)
        assert restored.layer_order == (2, 0, 1)
        assert restored.app_clip == float("inf")

    def test_to_dict_covers_every_field(self):
        config = DecoderConfig()
        assert set(config.to_dict()) == {
            f.name for f in dataclasses.fields(DecoderConfig)
        }

    def test_default_config_round_trip(self):
        config = DecoderConfig()
        assert DecoderConfig.from_dict(config.to_dict()) == config

    def test_partial_dict_uses_defaults(self):
        restored = DecoderConfig.from_dict({"max_iterations": 5})
        assert restored == DecoderConfig(max_iterations=5)

    # Deleted knobs are refused, not decoded as if they were absent:
    # there is one decode path.
    @pytest.mark.parametrize(
        "data",
        [
            {"max_iters": 5},
            {"shards": 2},
            {"fast_exact": True},
            {"track_history": True},
        ],
    )
    def test_unknown_field_rejected(self, data):
        with pytest.raises(DecoderConfigError, match=next(iter(data))):
            DecoderConfig.from_dict(data)

    def test_nonfinite_cache_keys_equal(self):
        a = DecoderConfig(app_clip=float("inf"))
        b = DecoderConfig(app_clip=float("inf"))
        assert a.cache_key() == b.cache_key()
        assert "inf" in repr(a.cache_key())  # canonical string, not float

    def test_qformat_equality_after_round_trip_keys_cache(self):
        config = DecoderConfig(qformat=QFormat(8, 2))
        restored = DecoderConfig.from_dict(config.to_dict())
        cache = PlanCache(maxsize=4)
        entry_a = cache.get("802.16e:1/2:z24", config)
        entry_b = cache.get("802.16e:1/2:z24", restored)
        assert entry_a is entry_b  # same cache record, no rebuild


class TestLinkSessionMechanics:
    def test_unknown_mode_fails_fast(self):
        with pytest.raises(UnknownCodeError):
            repro.open("802.16e:9/9:z1")

    def test_unknown_schedule_rejected(self):
        with pytest.raises(LinkError):
            repro.open("802.16e:1/2:z24", schedule="diagonal")

    def test_missing_ebn0_raises(self):
        link = repro.open("802.16e:1/2:z24")
        with pytest.raises(LinkError):
            link.run_frames(2)

    def test_call_ebn0_overrides_default(self):
        link = repro.open("802.16e:1/2:z24", ebn0=1.0, seed=5)
        outcome = link.run_frames(2, ebn0=4.0)
        assert outcome.ebn0_db == 4.0

    def test_links_share_process_cache(self):
        config = DecoderConfig(max_iterations=9)
        a = repro.open("802.16e:1/2:z24", config)
        b = repro.open("802.16e:1/2:z24", config)
        assert a.decoder is b.decoder
        assert a.plan is b.plan

    def test_explicit_cache_isolates(self):
        config = DecoderConfig(max_iterations=8)
        shared = repro.open("802.16e:1/2:z24", config)
        isolated = repro.open(
            "802.16e:1/2:z24", config, cache=PlanCache(maxsize=2)
        )
        assert shared.decoder is not isolated.decoder

    def test_open_accepts_code_object(self, tiny_code):
        link = repro.open(tiny_code, ebn0=3.0, seed=2)
        outcome = link.run_frames(3)
        assert outcome.result.batch_size == 3
        assert link.code is tiny_code

    def test_open_all_shares_cache_and_orders_keys(self):
        modes = ["802.16e:1/2:z24", "802.11n:1/2:z27"]
        links = open_all(modes, ebn0=2.0)
        assert list(links) == modes
        assert all(link.cache is default_plan_cache() for link in links.values())

    def test_open_all_rejects_colliding_names(self, tiny_code):
        from repro.codes import QCLDPCCode

        twin = QCLDPCCode(tiny_code.base)  # distinct object, same name
        with pytest.raises(LinkError):
            open_all([tiny_code, twin])
        with pytest.raises(LinkError):
            open_all(["802.16e:1/2:z24", "802.16e:1/2:z24"])

    def test_encode_transmit_decode_stages(self):
        link = repro.open("802.16e:1/2:z24", ebn0=3.0, seed=6)
        info, codewords = link.random_codewords(3)
        assert np.array_equal(link.encode(info), codewords)
        llr = link.transmit(codewords)
        result = link.decode(llr)
        assert result.batch_size == 3

    def test_linkresult_ber_fer_consistent(self):
        link = repro.open("802.16e:1/2:z24", ebn0=0.0, seed=8)
        outcome = link.run_frames(20)
        assert outcome.batch_size == 20
        assert outcome.ber == outcome.bit_errors / outcome.info.size
        assert outcome.fer == outcome.frame_errors / 20
        assert 0.0 <= outcome.ber <= 1.0

    def test_repr_mentions_mode_and_datapath(self):
        link = repro.open("802.16e:1/2:z24", DecoderConfig(qformat=QFormat(8, 2)))
        assert "802.16e:1/2:z24" in repr(link)
        assert "fixed" in repr(link)


class TestLinkServiceBridge:
    def test_submit_matches_direct_decode(self):
        config = DecoderConfig(backend="fast")
        link = repro.open("802.16e:1/2:z24", config, ebn0=3.0, seed=31)
        try:
            _, _, llr = link.channel_frames(5)
            direct = link.decode(llr)
            future = link.submit(llr)
            served = future.result(timeout=60)
            assert np.array_equal(served.bits, direct.bits)
            assert np.array_equal(served.llr, direct.llr)
            assert np.array_equal(served.iterations, direct.iterations)
        finally:
            link.close()

    def test_serve_rejects_reconfiguration(self):
        link = repro.open("802.16e:1/2:z24")
        try:
            link.serve(max_batch=8)
            with pytest.raises(LinkError):
                link.serve(max_batch=16)
            assert link.serve() is link.serve()  # bare call returns it
        finally:
            link.close()

    def test_shared_service_across_links(self):
        links = open_all(
            ["802.16e:1/2:z24", "802.11n:1/2:z27"], ebn0=3.0, seed=32
        )
        first = next(iter(links.values()))
        service = first.serve(max_batch=8, max_wait=0.002)
        try:
            futures = {}
            expected = {}
            for mode, link in links.items():
                _, _, llr = link.channel_frames(3)
                expected[mode] = link.decode(llr)
                futures[mode] = link.submit(llr, client=mode, service=service)
            for mode, future in futures.items():
                served = future.result(timeout=60)
                assert np.array_equal(served.bits, expected[mode].bits)
        finally:
            first.close()

    def test_close_then_reopen_service(self):
        link = repro.open("802.16e:1/2:z24", ebn0=3.0, seed=33)
        first = link.serve(max_batch=4)
        link.close()
        second = link.serve(max_batch=4)
        try:
            assert second is not first
        finally:
            link.close()

    def test_concurrent_first_serve_builds_one_service(self):
        """Racing first use must not leak an orphaned DecodeService."""
        import threading

        link = repro.open("802.16e:1/2:z24", ebn0=3.0, seed=36)
        got = []
        barrier = threading.Barrier(6)

        def grab():
            barrier.wait()
            got.append(link.serve())

        threads = [threading.Thread(target=grab) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            assert len(got) == 6
            assert all(s is got[0] for s in got)
        finally:
            link.close()

    def test_concurrent_decoder_access_single_build(self):
        import threading

        link = repro.open(
            "802.16e:1/2:z24",
            DecoderConfig(max_iterations=4),
            cache=PlanCache(maxsize=2),
        )
        got = []
        barrier = threading.Barrier(6)

        def grab():
            barrier.wait()
            got.append((link.decoder, link.plan))

        threads = [threading.Thread(target=grab) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        decoders = {id(d) for d, _ in got}
        plans = {id(p) for _, p in got}
        assert len(decoders) == 1 and len(plans) == 1
        assert all(p is not None for _, p in got)

    def test_externally_closed_service_is_replaced(self):
        """The documented 'with link.serve(...)' pattern must not leave
        the link holding a dead service."""
        link = repro.open("802.16e:1/2:z24", ebn0=3.0, seed=34)
        try:
            with link.serve(max_batch=4) as first:
                pass  # context exit closes the service externally
            assert first.closed
            _, _, llr = link.channel_frames(2)
            served = link.submit(llr).result(timeout=60)  # fresh service
            assert served.batch_size == 2
            assert link.serve() is not first
        finally:
            link.close()

    def test_serve_warms_the_service_cache(self):
        """serve(cache=...) must warm the cache the service reads."""
        own = PlanCache(maxsize=4)
        link = repro.open("802.16e:1/2:z24", ebn0=3.0, seed=35)
        try:
            service = link.serve(cache=own)
            assert service.cache is own
            # The serving config (ET-upgraded default) is resident.
            assert len(own) == 1
            stats = own.stats()
            entry = own.get(link.mode, link.serving_config)
            assert own.stats()["hits"] == stats["hits"] + 1
            assert entry.code.n == link.code.n
        finally:
            link.close()


class TestLinkChipAndPower:
    def test_chip_configured_for_mode(self):
        link = repro.open("802.16e:1/2:z24")
        chip = link.chip()
        assert chip.active_lanes == link.code.z
        assert chip.entry.code.n == link.code.n

    def test_chip_decodes_frame(self):
        config = DecoderConfig(qformat=QFormat(8, 2), layer_order=None)
        link = repro.open("802.16e:1/2:z24", config, ebn0=3.0, seed=41)
        chip = link.chip()
        _, _, llr = link.channel_frames(1, quantized=False)
        result = chip.decode(llr[0], max_iterations=3)
        assert result.bits.shape == (link.code.n,)
        assert result.cycles > 0

    def test_dmbt_selects_wide_datapath(self):
        from repro.arch.datapath import DMBT_CHIP, PAPER_CHIP

        wimax = repro.open("802.16e:1/2:z24")
        dmbt = repro.open("DMB-T:0.6:z127")
        assert wimax.datapath_params() is PAPER_CHIP
        assert dmbt.datapath_params() is DMBT_CHIP
        assert dmbt.chip().active_lanes == dmbt.code.z

    def test_power_model_same_datapath(self):
        link = repro.open("802.16e:1/2:z24")
        model = link.power()
        gated = model.power_vs_block_size(link.code.z)
        full = model.peak_power_mw()
        assert 0 < gated < full


class TestSharedCacheLifecycle:
    def test_reset_default_plan_cache(self):
        before = default_plan_cache()
        repro.open("802.16e:1/2:z24").decoder
        after = reset_default_plan_cache()
        assert after is default_plan_cache()
        assert after is not before
        assert len(after) == 0

    def test_encoder_cache_shared_across_links(self, small_code):
        from repro.encoder import encoder_cache_info

        before = encoder_cache_info()
        a = repro.open("802.16e:1/2:z24")
        b = repro.open("802.16e:1/2:z24")
        assert a.encoder is b.encoder
        after = encoder_cache_info()
        assert after["hits"] > before["hits"]

    def test_make_encoder_uncached_builds_fresh(self, small_code):
        cached = make_encoder(small_code)
        fresh = make_encoder(small_code, cached=False)
        assert fresh is not cached
        assert type(fresh) is type(cached)
