"""Unit tests for the decode service stack.

Covers the pieces individually — config cache keys, result slicing,
plan sharing/compatibility, :class:`PlanCache` LRU behaviour, service
batching triggers, FIFO delivery, error paths and metrics — while
``tests/test_service_stress.py`` exercises the whole stack under
concurrent mixed-standard load.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.arch import PAPER_CHIP
from repro.arch.mode_rom import ModeROM
from repro.codes import code_cache_info, get_code
from repro.decoder import DecodePlan, DecoderConfig, LayeredDecoder
from repro.decoder.flooding import FloodingDecoder
from repro.errors import (
    DeadlineExceeded,
    DecoderConfigError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloaded,
    UnknownCodeError,
)
from repro.fixedpoint import QFormat
from repro.runtime import FaultPlan
from repro.service import DecodeService, PlanCache
from tests.conftest import make_noisy_llrs

WIMAX = "802.16e:1/2:z24"
WIFI = "802.11n:1/2:z27"

FLOAT_CONFIG = DecoderConfig(backend="fast")
FIXED_CONFIG = DecoderConfig(backend="fast", qformat=QFormat(8, 2))


def _llr(mode: str, frames: int, seed: int) -> np.ndarray:
    code = get_code(mode)
    rng = np.random.default_rng(seed)
    return 4.0 * rng.standard_normal((frames, code.n))


def _assert_identical(a, b, context=""):
    __tracebackhide__ = True
    assert np.array_equal(a.bits, b.bits), f"{context}: bits"
    assert np.array_equal(a.llr, b.llr), f"{context}: llr"
    assert np.array_equal(a.iterations, b.iterations), f"{context}: iterations"
    assert np.array_equal(a.et_stopped, b.et_stopped), f"{context}: et"
    assert np.array_equal(a.converged, b.converged), f"{context}: converged"


# ---------------------------------------------------------------------------
# DecoderConfig.cache_key / stable_hash
# ---------------------------------------------------------------------------
class TestConfigCacheKey:
    def test_equal_configs_equal_keys(self):
        assert DecoderConfig().cache_key() == DecoderConfig().cache_key()
        assert DecoderConfig().stable_hash() == DecoderConfig().stable_hash()

    def test_every_field_is_represented(self):
        import dataclasses

        names = {name for name, _ in DecoderConfig().cache_key()}
        assert names == {f.name for f in dataclasses.fields(DecoderConfig)}

    def test_differing_fields_change_key(self):
        base = DecoderConfig()
        for changed in (
            base.replace(check_node="minsum"),
            base.replace(qformat=QFormat(8, 2)),
            base.replace(max_iterations=5),
            base.replace(layer_order=None),  # same -> equal, guard below
        ):
            if changed == base:
                assert changed.cache_key() == base.cache_key()
            else:
                assert changed.cache_key() != base.cache_key()
                assert changed.stable_hash() != base.stable_hash()

    def test_qformat_key_is_primitive(self):
        key = dict(FIXED_CONFIG.cache_key())["qformat"]
        assert key == ("QFormat", 8, 2)
        hash(FIXED_CONFIG.cache_key())  # hashable throughout

    def test_list_layer_order_yields_hashable_key(self, small_code):
        # The type hint says tuple, but a list constructs and decodes
        # fine everywhere else — the cache key must canonicalize it,
        # and to the SAME key as the tuple form (they batch together).
        order = list(reversed(range(small_code.base.j)))
        as_list = FLOAT_CONFIG.replace(layer_order=order)
        as_tuple = FLOAT_CONFIG.replace(layer_order=tuple(order))
        hash(as_list.cache_key())
        assert as_list.cache_key() == as_tuple.cache_key()
        entry = PlanCache().get(small_code, as_list)
        assert entry.plan.layer_order == tuple(order)

    def test_list_layer_order_config_is_hashable_and_round_trips(self):
        as_list = DecoderConfig(layer_order=[1, 0])
        as_tuple = DecoderConfig(layer_order=(1, 0))
        assert as_list.layer_order == (1, 0)
        assert hash(as_list) == hash(as_tuple)
        assert as_tuple in {as_list}
        assert DecoderConfig.from_dict(as_list.to_dict()) == as_list
        assert as_list.to_dict()["layer_order"] == [1, 0]
        # Pinned: the key is the one a list canonicalized to before.
        assert dict(as_list.cache_key())["layer_order"] == (1, 0)
        assert as_list.stable_hash() == "7b6c01625db72910"

    def test_stable_hash_is_hex_and_process_stable(self):
        digest = FIXED_CONFIG.stable_hash()
        assert len(digest) == 16
        int(digest, 16)
        # Pinned value: the digest must not depend on interpreter hash
        # randomization (that is its reason to exist).
        assert digest == DecoderConfig(
            backend="fast", qformat=QFormat(8, 2)
        ).stable_hash()


# ---------------------------------------------------------------------------
# DecodeResult.slice
# ---------------------------------------------------------------------------
class TestResultSlice:
    def test_slice_matches_separate_decode(self, small_code):
        decoder = LayeredDecoder(small_code, FLOAT_CONFIG)
        llr = _llr(WIMAX, 5, seed=1)
        merged = decoder.decode(llr)
        part = merged.slice(1, 4)
        direct = decoder.decode(llr[1:4])
        _assert_identical(part, direct, "slice vs direct")
        assert part.n_info == merged.n_info

    def test_slice_copies(self, small_code):
        decoder = LayeredDecoder(small_code, FLOAT_CONFIG)
        merged = decoder.decode(_llr(WIMAX, 3, seed=2))
        part = merged.slice(0, 2)
        # A copy, not a view: a client holding a one-frame slice must
        # not pin the whole merged batch's arrays in memory.
        assert not np.shares_memory(part.bits, merged.bits)
        assert not np.shares_memory(part.llr, merged.llr)

    def test_empty_slice(self, small_code):
        merged = LayeredDecoder(small_code, FLOAT_CONFIG).decode(
            _llr(WIMAX, 2, seed=3)
        )
        assert merged.slice(1, 1).batch_size == 0


# ---------------------------------------------------------------------------
# Plan sharing / compatibility
# ---------------------------------------------------------------------------
class TestPlanSharing:
    def test_prebuilt_plan_decodes_identically(self, small_code):
        plan = DecodePlan(small_code)
        llr = _llr(WIMAX, 4, seed=4)
        shared = LayeredDecoder(small_code, FLOAT_CONFIG, plan=plan).decode(llr)
        fresh = LayeredDecoder(small_code, FLOAT_CONFIG).decode(llr)
        _assert_identical(shared, fresh, "shared plan")

    def test_wrong_code_plan_rejected(self, small_code, wifi_code):
        plan = DecodePlan(wifi_code)
        with pytest.raises(DecoderConfigError, match="compiled for code"):
            LayeredDecoder(small_code, FLOAT_CONFIG, plan=plan)

    def test_wrong_layer_order_plan_rejected(self, small_code):
        order = tuple(reversed(range(small_code.base.j)))
        plan = DecodePlan(small_code, order)
        with pytest.raises(DecoderConfigError, match="layer order"):
            LayeredDecoder(small_code, FLOAT_CONFIG, plan=plan)
        with pytest.raises(DecoderConfigError, match="layer order"):
            FloodingDecoder(small_code, FLOAT_CONFIG, plan=plan)

    def test_same_named_structurally_different_plan_rejected(self):
        # Name equality is not code identity: a plan compiled for a
        # same-named but structurally different code must be refused.
        from repro.codes import QCLDPCCode, build_qc_base_matrix

        a = QCLDPCCode(build_qc_base_matrix(j=3, k=6, z=8, name="twin", seed=1))
        b = QCLDPCCode(build_qc_base_matrix(j=3, k=6, z=8, name="twin", seed=2))
        with pytest.raises(DecoderConfigError, match="structurally"):
            LayeredDecoder(b, FLOAT_CONFIG, plan=DecodePlan(a))

    def test_flooding_accepts_natural_plan(self, small_code):
        plan = DecodePlan(small_code)
        llr = _llr(WIMAX, 2, seed=5)
        shared = FloodingDecoder(small_code, FLOAT_CONFIG, plan=plan).decode(llr)
        fresh = FloodingDecoder(small_code, FLOAT_CONFIG).decode(llr)
        _assert_identical(shared, fresh, "flooding shared plan")

    def test_one_plan_many_threads(self, small_code):
        """Thread-local scratch: concurrent decodes through ONE decoder."""
        decoder = LayeredDecoder(small_code, FLOAT_CONFIG)
        llr = _llr(WIMAX, 6, seed=6)
        expected = decoder.decode(llr)
        results = [None] * 8
        errors = []

        def worker(i):
            try:
                results[i] = decoder.decode(llr)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i, result in enumerate(results):
            _assert_identical(result, expected, f"thread {i}")


# ---------------------------------------------------------------------------
# PlanCache
# ---------------------------------------------------------------------------
class TestPlanCache:
    def test_hit_miss_counters(self):
        cache = PlanCache(maxsize=4, default_config=FLOAT_CONFIG)
        first = cache.get(WIMAX)
        again = cache.get(WIMAX)
        assert again is first
        assert again.uses == 1
        assert cache.stats() == {
            "size": 1, "maxsize": 4, "hits": 1, "misses": 1, "evictions": 0
        }

    def test_distinct_configs_distinct_entries(self):
        cache = PlanCache(maxsize=4)
        a = cache.get(WIMAX, FLOAT_CONFIG)
        b = cache.get(WIMAX, FIXED_CONFIG)
        assert a is not b
        assert len(cache) == 2

    def test_lru_eviction_order(self):
        cache = PlanCache(maxsize=2, default_config=FLOAT_CONFIG)
        cache.get(WIMAX)
        cache.get(WIFI)
        cache.get(WIMAX)           # refresh WIMAX; WIFI is now LRU
        cache.get("802.16e:1/2:z96")
        assert cache.stats()["evictions"] == 1
        assert (WIMAX, FLOAT_CONFIG.cache_key()) in cache
        assert (WIFI, FLOAT_CONFIG.cache_key()) not in cache

    def test_rebuild_after_eviction_decodes_identically(self, small_code):
        cache = PlanCache(maxsize=1, default_config=FLOAT_CONFIG)
        llr = _llr(WIMAX, 3, seed=7)
        before = cache.get(WIMAX).decoder.decode(llr)
        cache.get(WIFI)  # evicts WIMAX
        after = cache.get(WIMAX).decoder.decode(llr)
        _assert_identical(before, after, "rebuilt entry")

    def test_accepts_code_objects(self, tiny_code):
        cache = PlanCache()
        entry = cache.get(tiny_code, FLOAT_CONFIG)
        assert entry.mode.startswith(f"code:{tiny_code.name}@")
        assert cache.get(tiny_code, FLOAT_CONFIG) is entry

    def test_same_named_distinct_codes_do_not_collide(self):
        # Synthetic codes default to name="unnamed"; identity keying
        # must keep two structurally different codes apart (a shared
        # entry would decode against the wrong parity structure).
        from repro.codes import QCLDPCCode, build_qc_base_matrix

        a = QCLDPCCode(build_qc_base_matrix(j=3, k=6, z=8, name="twin", seed=1))
        b = QCLDPCCode(build_qc_base_matrix(j=3, k=6, z=8, name="twin", seed=2))
        assert a.name == b.name  # the trap this test pins
        cache = PlanCache()
        entry_a = cache.get(a, FLOAT_CONFIG)
        entry_b = cache.get(b, FLOAT_CONFIG)
        assert entry_a is not entry_b
        assert entry_a.code is a and entry_b.code is b

    def test_unknown_mode_raises(self):
        with pytest.raises(UnknownCodeError):
            PlanCache().get("802.99x:9/9:z1")

    def test_warm_from_mode_list(self):
        cache = PlanCache(default_config=FLOAT_CONFIG)
        built = cache.warm([WIMAX, WIFI], (FLOAT_CONFIG, FIXED_CONFIG))
        assert built == 4
        assert cache.warm([WIMAX]) == 0  # already resident

    def test_warm_from_mode_rom(self):
        rom = ModeROM(PAPER_CHIP)
        rom.lookup(WIMAX)
        rom.lookup(WIFI)
        cache = PlanCache(default_config=FLOAT_CONFIG)
        assert cache.warm(rom) == 2
        assert (WIMAX, FLOAT_CONFIG.cache_key()) in cache

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_plan_respects_config_layer_order(self, small_code):
        order = tuple(reversed(range(small_code.base.j)))
        config = FLOAT_CONFIG.replace(layer_order=order)
        entry = PlanCache().get(small_code, config)
        assert entry.plan.layer_order == order


# ---------------------------------------------------------------------------
# ModeROM.decode_plan
# ---------------------------------------------------------------------------
class TestModeROMDecodePlan:
    def test_plan_matches_rom_layer_order_and_is_cached(self):
        rom = ModeROM(PAPER_CHIP)
        plan = rom.decode_plan(WIMAX)
        assert plan.layer_order == rom.lookup(WIMAX).layer_order
        assert rom.decode_plan(WIMAX) is plan

    def test_plan_decodes_identically_to_fresh(self):
        rom = ModeROM(PAPER_CHIP)
        entry = rom.lookup(WIMAX)
        config = FLOAT_CONFIG.replace(layer_order=entry.layer_order)
        llr = _llr(WIMAX, 2, seed=8)
        shared = LayeredDecoder(
            entry.code, config, plan=rom.decode_plan(WIMAX)
        ).decode(llr)
        fresh = LayeredDecoder(entry.code, config).decode(llr)
        _assert_identical(shared, fresh, "mode ROM plan")


# ---------------------------------------------------------------------------
# DecodeService
# ---------------------------------------------------------------------------
class TestDecodeService:
    def test_single_request_matches_direct_decode(self, small_code):
        llr = _llr(WIMAX, 3, seed=10)
        with DecodeService(default_config=FLOAT_CONFIG, max_wait=0.001) as svc:
            result = svc.submit(WIMAX, llr).result(timeout=60)
        direct = LayeredDecoder(small_code, FLOAT_CONFIG).decode(llr)
        _assert_identical(result, direct, "single request")

    def test_one_dim_input_yields_one_frame(self):
        llr = _llr(WIMAX, 1, seed=11)[0]
        with DecodeService(default_config=FLOAT_CONFIG, max_wait=0.001) as svc:
            result = svc.submit(WIMAX, llr).result(timeout=60)
        assert result.batch_size == 1

    def test_empty_request_resolves_empty(self, small_code):
        with DecodeService(default_config=FLOAT_CONFIG, max_wait=0.001) as svc:
            result = svc.submit(
                WIMAX, np.zeros((0, small_code.n))
            ).result(timeout=60)
        assert result.batch_size == 0

    def test_size_trigger_batches_requests(self, small_code):
        llr = _llr(WIMAX, 8, seed=12)
        # max_wait is generous: only the size trigger can flush the
        # first 4 single-frame requests into one batch.
        with DecodeService(
            max_batch=4, max_wait=30.0, default_config=FLOAT_CONFIG
        ) as svc:
            futures = [svc.submit(WIMAX, llr[i]) for i in range(8)]
            for future in futures:
                future.result(timeout=60)
            snapshot = svc.metrics_snapshot()
        assert snapshot["flushes_size"] >= 1
        assert snapshot["max_batch_frames"] == 4
        direct = LayeredDecoder(small_code, FLOAT_CONFIG).decode(llr)
        for i, future in enumerate(futures):
            _assert_identical(
                future.result(), direct.slice(i, i + 1), f"req {i}"
            )

    def test_deadline_trigger_flushes_partial_batch(self):
        llr = _llr(WIMAX, 1, seed=13)
        with DecodeService(
            max_batch=1024, max_wait=0.002, default_config=FLOAT_CONFIG
        ) as svc:
            svc.submit(WIMAX, llr).result(timeout=60)
            snapshot = svc.metrics_snapshot()
        assert snapshot["flushes_deadline"] >= 1

    def test_due_requests_wait_in_their_bucket_while_workers_are_busy(
        self, small_code
    ):
        # Regression: the first task stalls the only worker for 0.4 s
        # (no hang_timeout, so nothing intervenes).  Eight single frames
        # of one group arrive meanwhile, each past max_wait on its own.
        # They must wait in their bucket and leave as ONE batch when the
        # worker frees, not queue behind it as eight one-frame batches.
        plan = FaultPlan(seed=1, worker_hang=[0], hang_duration=0.4)
        payloads = [_llr(WIMAX, 1, seed=40 + i) for i in range(9)]
        with DecodeService(
            workers=1, max_wait=0.001, default_config=FLOAT_CONFIG,
            faults=plan,
        ) as svc:
            futures = [svc.submit(WIMAX, payloads[0])]
            time.sleep(0.02)  # the first batch reaches the stalled worker
            for llr in payloads[1:]:
                futures.append(svc.submit(WIMAX, llr))
                time.sleep(0.01)
            served = [future.result(timeout=60) for future in futures]
            snapshot = svc.metrics_snapshot()
        assert plan.injected()["worker_hang"] == 1
        assert snapshot["batches_dispatched"] == 2
        assert snapshot["max_batch_frames"] == 8
        direct = LayeredDecoder(small_code, FLOAT_CONFIG)
        for i, (result, llr) in enumerate(zip(served, payloads)):
            _assert_identical(result, direct.decode(llr), f"req {i}")

    def test_distinct_configs_never_share_a_batch(self):
        llr = _llr(WIMAX, 1, seed=14)
        with DecodeService(
            max_batch=64, max_wait=0.002, default_config=FLOAT_CONFIG
        ) as svc:
            a = svc.submit(WIMAX, llr, FLOAT_CONFIG)
            b = svc.submit(WIMAX, llr, FIXED_CONFIG)
            a.result(timeout=60)
            b.result(timeout=60)
            snapshot = svc.metrics_snapshot()
        assert snapshot["batches_dispatched"] == 2

    def test_per_client_fifo_order(self):
        # Request 0: a heavy batch (N=2304); request 1: one tiny frame.
        # Even if the tiny batch decodes first, client delivery must
        # stay in submission order.
        heavy = _llr("802.16e:1/2:z96", 8, seed=15)
        light = _llr(WIMAX, 1, seed=16)
        order = []
        with DecodeService(
            max_batch=8, max_wait=0.001, workers=2,
            default_config=FLOAT_CONFIG,
        ) as svc:
            f0 = svc.submit("802.16e:1/2:z96", heavy, client="c")
            f1 = svc.submit(WIMAX, light, client="c")
            f0.add_done_callback(lambda _: order.append(0))
            f1.add_done_callback(lambda _: order.append(1))
            f0.result(timeout=60)
            f1.result(timeout=60)
        assert order == [0, 1]

    def test_close_drains_pending_requests(self):
        llr = _llr(WIMAX, 2, seed=17)
        svc = DecodeService(
            max_batch=1024, max_wait=60.0, default_config=FLOAT_CONFIG
        )
        future = svc.submit(WIMAX, llr)
        svc.close()  # no trigger fired yet: close must drain, not drop
        assert future.result(timeout=60).batch_size == 2
        assert svc.metrics_snapshot()["flushes_drain"] >= 1
        assert svc.metrics_snapshot()["queue_depth_frames"] == 0

    def test_close_resolves_in_flight_batches(self, small_code):
        # close() right after the submits: most batches are already on
        # the workers, not pending.  Each still resolves, exactly as a
        # direct decode.
        config = FLOAT_CONFIG.replace(max_iterations=10)
        payloads = [_llr(WIMAX, 4, seed=50 + i) for i in range(6)]
        svc = DecodeService(workers=2, max_wait=0.001, default_config=config)
        futures = [svc.submit(WIMAX, llr) for llr in payloads]
        svc.close()
        direct = LayeredDecoder(small_code, config)
        for i, (future, llr) in enumerate(zip(futures, payloads)):
            _assert_identical(
                future.result(timeout=60), direct.decode(llr), f"req {i}"
            )

    def test_mixed_difficulty_batch_matches_separate_decodes(
        self, small_code, small_encoder
    ):
        # One batch holds frames that converge in a few iterations and
        # frames that run to the budget.  Each request gets exactly what
        # it gets decoded alone: frames that stop early leave the batch
        # without changing the others.
        config = FLOAT_CONFIG.replace(max_iterations=10)
        hard = _llr(WIMAX, 3, seed=52)  # noise only: runs to the budget
        _, _, easy = make_noisy_llrs(small_code, small_encoder, 7.0, 2, 53)
        # Only the size trigger can flush, once both requests are in.
        with DecodeService(
            max_batch=5, max_wait=30.0, workers=1, default_config=config
        ) as svc:
            f_hard = svc.submit(WIMAX, hard)
            f_easy = svc.submit(WIMAX, easy)
            r_hard = f_hard.result(timeout=60)
            r_easy = f_easy.result(timeout=60)
            snapshot = svc.metrics_snapshot()
        assert snapshot["batches_dispatched"] == 1
        assert snapshot["max_batch_frames"] == 5
        direct = LayeredDecoder(small_code, config)
        _assert_identical(r_hard, direct.decode(hard), "hard request")
        _assert_identical(r_easy, direct.decode(easy), "easy request")
        assert r_easy.iterations.max() < r_hard.iterations.min()

    def test_concurrent_close_both_block_until_drained(self):
        llr = _llr(WIMAX, 2, seed=36)
        svc = DecodeService(
            max_batch=1024, max_wait=60.0, default_config=FLOAT_CONFIG
        )
        future = svc.submit(WIMAX, llr)
        results = []
        closers = [
            threading.Thread(
                target=lambda: (svc.close(), results.append(future.done()))
            )
            for _ in range(2)
        ]
        for t in closers:
            t.start()
        for t in closers:
            t.join(timeout=120)
        # Whichever thread lost the closing race must STILL have seen
        # the drain complete before its close() returned.
        assert results == [True, True]
        assert future.result(timeout=1).batch_size == 2

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_close_from_a_done_callback_raises_then_owner_drains(
        self, executor
    ):
        # A request future's done-callback runs inside the delivery of
        # its outcome, on a thread the drain waits for: close() there
        # must fail at once with a typed error, not wait on itself, and
        # must leave the service for its owner to close.
        svc = DecodeService(
            workers=1, executor=executor, max_wait=0.001,
            default_config=FLOAT_CONFIG,
        )
        seen = []
        called = threading.Event()

        def close_from_callback(_future):
            start = time.monotonic()
            try:
                svc.close()
            except Exception as exc:  # recorded for the assertions
                seen.append((exc, time.monotonic() - start))
            called.set()

        future = svc.submit(WIMAX, _llr(WIMAX, 1, seed=37))
        future.add_done_callback(close_from_callback)
        assert called.wait(timeout=60)
        assert future.result(timeout=1).batch_size == 1
        [(error, elapsed)] = seen
        assert isinstance(error, ServiceError)
        assert "another thread" in str(error)
        assert elapsed < 1.0
        assert not svc.closed
        later = svc.submit(WIMAX, _llr(WIMAX, 1, seed=38))
        closer = threading.Thread(target=svc.close)
        closer.start()
        closer.join(timeout=60)
        assert not closer.is_alive()
        assert svc.closed
        assert later.result(timeout=1).batch_size == 1

    def test_close_from_a_timeout_callback_raises(self, gate):
        # Expired deadlines are delivered on the dispatcher thread,
        # which close() joins.
        svc = DecodeService(
            workers=1, executor="thread", max_batch=1, max_wait=0.001,
            default_config=FLOAT_CONFIG,
        )
        seen = []
        called = threading.Event()

        def close_from_callback(_future):
            try:
                svc.close()
            except Exception as exc:  # recorded for the assertions
                seen.append(exc)
            called.set()

        blocker = svc._pool.submit("gate")  # occupy the only worker
        try:
            late = svc.submit(WIMAX, _llr(WIMAX, 1, seed=39), timeout=0.05)
            late.add_done_callback(close_from_callback)
            assert called.wait(timeout=60)
        finally:
            gate.set()
        blocker.result(timeout=60)
        assert isinstance(late.exception(timeout=1), DeadlineExceeded)
        [error] = seen
        assert isinstance(error, ServiceError)
        svc.close()
        assert svc.closed

    def test_submit_after_close_raises(self):
        svc = DecodeService(default_config=FLOAT_CONFIG)
        svc.close()
        # The dedicated type, which is also a ValueError for callers of
        # the pre-hardening contract, with an actionable message.
        with pytest.raises(ServiceClosedError, match="Link.serve"):
            svc.submit(WIMAX, _llr(WIMAX, 1, seed=18))
        with pytest.raises(ValueError, match="closed"):
            svc.submit(WIMAX, _llr(WIMAX, 1, seed=18))
        svc.close()  # idempotent

    def test_close_vs_submit_race_is_deterministic(self):
        # Whatever the interleaving: submit either raises
        # ServiceClosedError or returns a future that RESOLVES (drain
        # delivery) — never a hung future, never a third outcome.
        for round_ in range(4):
            svc = DecodeService(
                max_batch=4, max_wait=0.001, workers=2,
                default_config=FLOAT_CONFIG,
            )
            futures, raised = [], []
            barrier = threading.Barrier(3)

            def submitter(seed):
                barrier.wait()
                for i in range(10):
                    try:
                        futures.append(
                            svc.submit(WIMAX, _llr(WIMAX, 1, seed=seed + i))
                        )
                    except ServiceClosedError:
                        raised.append(i)
                        return

            threads = [
                threading.Thread(target=submitter, args=(100 * k,))
                for k in range(2)
            ]
            for t in threads:
                t.start()
            barrier.wait()
            svc.close()
            for t in threads:
                t.join()
            for f in futures:
                f.result(timeout=30)  # admitted => delivered

    def test_unknown_mode_raises_at_submit(self):
        with DecodeService(default_config=FLOAT_CONFIG) as svc:
            with pytest.raises(UnknownCodeError):
                svc.submit("802.99x:1/2:z9", np.zeros(10))

    def test_shape_mismatch_raises_at_submit(self):
        with DecodeService(default_config=FLOAT_CONFIG) as svc:
            with pytest.raises(ValueError, match="expects"):
                svc.submit(WIMAX, np.zeros((2, 100)))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DecodeService(max_batch=0)
        with pytest.raises(ValueError):
            DecodeService(max_wait=-1.0)
        # Each batch decodes in one shot: there is no slicing knob.
        with pytest.raises(TypeError, match="iteration_slice"):
            DecodeService(iteration_slice=2)

    def test_warm_modes_make_first_requests_hits(self):
        with DecodeService(  # threads decode from the warmed cache
            default_config=FLOAT_CONFIG, max_wait=0.001, executor="thread",
            warm_modes=[WIMAX, WIFI],
        ) as svc:
            svc.submit(WIMAX, _llr(WIMAX, 1, seed=19)).result(timeout=60)
            svc.submit(WIFI, _llr(WIFI, 1, seed=20)).result(timeout=60)
            stats = svc.metrics_snapshot()["plan_cache"]
        assert stats["misses"] == 2  # the warm builds only
        assert stats["hits"] == 2    # both requests hit

    def test_metrics_snapshot_shape(self):
        with DecodeService(default_config=FLOAT_CONFIG, max_wait=0.001) as svc:
            svc.submit(WIMAX, _llr(WIMAX, 2, seed=21)).result(timeout=60)
            snapshot = svc.metrics_snapshot()
        for key in (
            "requests_submitted", "requests_completed", "frames_decoded",
            "frames_per_second", "batches_dispatched", "mean_batch_frames",
            "latency_p50_ms", "latency_p99_ms", "mode_switches",
            "queue_depth_frames", "batches_in_flight", "plan_cache",
        ):
            assert key in snapshot, key
        assert snapshot["requests_completed"] == 1
        assert snapshot["frames_decoded"] == 2
        assert snapshot["latency_p99_ms"] >= snapshot["latency_p50_ms"] >= 0

    def test_cancelled_future_does_not_wedge_batch_or_client(self):
        # A client cancelling its pending future must not break
        # delivery of sibling requests in the same batch, nor wedge the
        # client's later requests (the _firing flag must be released).
        llr = _llr(WIMAX, 1, seed=34)
        with DecodeService(
            max_batch=64, max_wait=0.05, workers=1,
            default_config=FLOAT_CONFIG,
        ) as svc:
            doomed = svc.submit(WIMAX, llr, client="a")
            sibling = svc.submit(WIMAX, llr, client="b")
            assert doomed.cancel()  # still pending: cancel wins
            assert sibling.result(timeout=60).batch_size == 1
            follow_up = svc.submit(WIMAX, llr, client="a")
            assert follow_up.result(timeout=60).batch_size == 1
            snapshot = svc.metrics_snapshot()
        assert snapshot["requests_cancelled"] == 1
        assert snapshot["requests_completed"] == 2

    def test_decode_error_propagates_to_the_request(self):
        # Poison the cached decoder so the worker fails after dispatch:
        # the future must carry the exception (never hang or drop) and
        # the failure must be counted.
        cache = PlanCache(default_config=FLOAT_CONFIG)
        entry = cache.get(WIMAX, FLOAT_CONFIG)

        def boom(llr):
            raise RuntimeError("injected decode failure")

        entry.decoder.decode = boom
        with DecodeService(  # threads decode from the poisoned cache
            cache=cache, default_config=FLOAT_CONFIG, max_wait=0.001,
            executor="thread",
        ) as svc:
            future = svc.submit(WIMAX, _llr(WIMAX, 1, seed=30))
            with pytest.raises(RuntimeError, match="injected"):
                future.result(timeout=60)
            snapshot = svc.metrics_snapshot()
        assert snapshot["requests_failed"] == 1
        assert snapshot["requests_completed"] == 0

    def test_submit_with_code_object(self, tiny_code):
        llr = 4.0 * np.random.default_rng(31).standard_normal((2, tiny_code.n))
        with DecodeService(default_config=FLOAT_CONFIG, max_wait=0.001) as svc:
            served = svc.submit(tiny_code, llr).result(timeout=60)
        direct = LayeredDecoder(tiny_code, FLOAT_CONFIG).decode(llr)
        _assert_identical(served, direct, "code-object mode")

    def test_raw_and_float_requests_never_share_a_batch(self, small_code):
        # Integer inputs are raw datapath values, floats are LLR units;
        # concatenating them would promote the raws to float and decode
        # them wrongly.  The dtype kind is part of the batch key.
        rng = np.random.default_rng(33)
        raw = np.clip(
            (rng.standard_normal((2, small_code.n)) * 8).astype(np.int64),
            -127, 127,
        )
        llr = 4.0 * rng.standard_normal((2, small_code.n))
        with DecodeService(
            max_batch=64, max_wait=0.01, default_config=FIXED_CONFIG
        ) as svc:
            raw_future = svc.submit(WIMAX, raw)
            llr_future = svc.submit(WIMAX, llr)
            raw_result = raw_future.result(timeout=60)
            llr_result = llr_future.result(timeout=60)
            snapshot = svc.metrics_snapshot()
        assert snapshot["batches_dispatched"] == 2
        direct = LayeredDecoder(small_code, FIXED_CONFIG)
        _assert_identical(raw_result, direct.decode(raw), "raw partition")
        _assert_identical(llr_result, direct.decode(llr), "float partition")

    def test_integer_llrs_reach_fixed_decoder_raw(self, small_code):
        raw = np.clip(
            (np.random.default_rng(22).standard_normal((2, small_code.n))
             * 8).astype(np.int64),
            -127, 127,
        )
        with DecodeService(default_config=FIXED_CONFIG, max_wait=0.001) as svc:
            served = svc.submit(WIMAX, raw).result(timeout=60)
        direct = LayeredDecoder(small_code, FIXED_CONFIG).decode(raw)
        _assert_identical(served, direct, "raw integer input")


# ---------------------------------------------------------------------------
# Registry cache observability
# ---------------------------------------------------------------------------
def test_code_cache_info_reports_catalogue():
    get_code(WIMAX)
    info = code_cache_info()
    assert info["catalogue"] > 50
    assert info["size"] >= 1
    assert info["hits"] >= 0 and info["misses"] >= 1


# ---------------------------------------------------------------------------
# Hardening: deadlines, admission control, quotas (PR 6)
# ---------------------------------------------------------------------------
class TestDeadlines:
    def test_default_timeout_applies_and_expires(self, small_code, gate):
        # max_wait is huge and nothing else arrives, so without a
        # deadline the request would sit queued ~forever; the service
        # default_timeout must fail it crisply instead.  (The tight
        # deadline also pulls the flush forward, but with workers=0
        # decode capacity... workers>=1 -- so block the only worker.)
        import time as _time

        with DecodeService(
            max_batch=64, max_wait=30.0, workers=1, executor="thread",
            default_config=FLOAT_CONFIG, default_timeout=0.15,
        ) as svc:
            svc._pool.submit("gate")  # occupy the only worker thread
            future = svc.submit(WIMAX, _llr(WIMAX, 1, seed=50))
            t0 = _time.monotonic()
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=10)
            assert _time.monotonic() - t0 < 5.0
            gate.set()
        assert svc.metrics_snapshot()["requests_timed_out"] == 1

    def test_explicit_timeout_overrides_default(self, gate):
        with DecodeService(
            max_batch=4, max_wait=0.001, workers=2, executor="thread",
            default_config=FLOAT_CONFIG, default_timeout=0.001,
        ) as svc:
            svc._pool.submit("gate")  # wedge both worker threads
            svc._pool.submit("gate")
            future = svc.submit(WIMAX, _llr(WIMAX, 1, seed=51), timeout=60.0)
            gate.set()
            future.result(timeout=30)  # generous explicit deadline: result

    def test_nonpositive_timeout_rejected(self):
        with DecodeService(default_config=FLOAT_CONFIG) as svc:
            with pytest.raises(ValueError, match="timeout"):
                svc.submit(WIMAX, _llr(WIMAX, 1, seed=52), timeout=0.0)

    def test_tail_arrivals_cannot_extend_oldest_wait(self, small_code):
        # Regression (PR 6 satellite): the flush clock anchors to the
        # OLDEST pending request.  A stream of tail requests, each
        # arriving just under max_wait after the previous one, must not
        # push the oldest request past its own deadline.
        import time as _time

        llr = _llr(WIMAX, 1, seed=53)
        direct = LayeredDecoder(small_code, FLOAT_CONFIG).decode(llr)
        with DecodeService(
            max_batch=10_000, max_wait=0.15, workers=2,
            default_config=FLOAT_CONFIG,
        ) as svc:
            oldest = svc.submit(WIMAX, llr, timeout=1.5)
            t0 = _time.monotonic()
            while _time.monotonic() - t0 < 0.6 and not oldest.done():
                svc.submit(WIMAX, _llr(WIMAX, 1, seed=54), timeout=5.0)
                _time.sleep(0.05)  # well under max_wait: keeps re-arming
            result = oldest.result(timeout=5)  # result, NOT DeadlineExceeded
            _assert_identical(result, direct, "oldest under tail pressure")
            assert _time.monotonic() - t0 < 1.2

    def test_tight_deadline_pulls_flush_forward(self, small_code):
        # timeout < max_wait: waiting the full batching window would
        # guarantee a timeout, so the group must flush early instead.
        llr = _llr(WIMAX, 2, seed=55)
        direct = LayeredDecoder(small_code, FLOAT_CONFIG).decode(llr)
        with DecodeService(
            max_batch=10_000, max_wait=10.0, workers=1,
            default_config=FLOAT_CONFIG,
        ) as svc:
            future = svc.submit(WIMAX, llr, timeout=0.8)
            _assert_identical(
                future.result(timeout=5), direct, "tight-deadline flush"
            )


class TestAdmissionControl:
    @staticmethod
    def _stalled_service(**kwargs):
        """A service whose (large max_wait) queue holds requests."""
        kwargs.setdefault("max_batch", 10_000)
        kwargs.setdefault("max_wait", 30.0)
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("default_config", FLOAT_CONFIG)
        return DecodeService(**kwargs)

    def test_reject_policy_raises_when_full(self):
        svc = self._stalled_service(queue_limit=2, overload_policy="reject")
        try:
            queued = svc.submit(WIMAX, _llr(WIMAX, 2, seed=60))
            with pytest.raises(ServiceOverloaded, match="admission queue full"):
                svc.submit(WIMAX, _llr(WIMAX, 1, seed=61))
            assert svc.metrics_snapshot()["requests_rejected"] == 1
        finally:
            svc.close()  # drain: the admitted request still resolves
        queued.result(timeout=0)

    def test_oversized_request_admitted_against_empty_queue(self):
        with self._stalled_service(
            queue_limit=2, overload_policy="reject", max_wait=0.001
        ) as svc:
            # 4 frames > limit 2, but the queue is empty: legal, alone.
            future = svc.submit(WIMAX, _llr(WIMAX, 4, seed=62))
            assert future.result(timeout=30).bits.shape[0] == 4

    def test_shed_oldest_evicts_queued_head(self):
        svc = self._stalled_service(
            queue_limit=2, overload_policy="shed-oldest"
        )
        try:
            old = svc.submit(WIMAX, _llr(WIMAX, 2, seed=63))
            new = svc.submit(WIMAX, _llr(WIMAX, 2, seed=64))
            with pytest.raises(ServiceOverloaded, match="shed"):
                old.result(timeout=10)
        finally:
            svc.close()
        new.result(timeout=0)  # the newer request survived and resolved
        snap = svc.metrics_snapshot()
        assert snap["requests_shed"] == 1
        assert snap["requests_completed"] == 1

    def test_shed_oldest_sheds_only_enough_to_fit(self):
        # Regression: shedding must account for the frames it has
        # already freed within one overload event (victims' admission
        # shares are only released later, in _deliver) — evict the
        # *minimum* number of oldest requests, never the whole queue.
        svc = self._stalled_service(
            queue_limit=4, overload_policy="shed-oldest"
        )
        try:
            victims = [
                svc.submit(WIMAX, _llr(WIMAX, 1, seed=90 + i))
                for i in range(2)
            ]
            survivors = [
                svc.submit(WIMAX, _llr(WIMAX, 1, seed=92 + i))
                for i in range(2)
            ]
            # 2 incoming frames against 4 queued (limit 4): exactly the
            # two oldest must go; the other two queued requests stay.
            newcomer = svc.submit(WIMAX, _llr(WIMAX, 2, seed=95))
            for victim in victims:
                with pytest.raises(ServiceOverloaded, match="shed"):
                    victim.result(timeout=10)
            assert not any(f.done() for f in survivors)
        finally:
            svc.close()
        for future in survivors + [newcomer]:
            future.result(timeout=0)  # survived the shed, decoded on drain
        snap = svc.metrics_snapshot()
        assert snap["requests_shed"] == 2
        assert snap["requests_completed"] == 3

    def test_block_policy_waits_for_space(self, small_code):
        import time as _time

        llr = _llr(WIMAX, 2, seed=65)
        direct = LayeredDecoder(small_code, FLOAT_CONFIG).decode(llr)
        with DecodeService(
            max_batch=2, max_wait=0.001, workers=1, queue_limit=2,
            overload_policy="block", default_config=FLOAT_CONFIG,
        ) as svc:
            first = svc.submit(WIMAX, _llr(WIMAX, 2, seed=66))
            # The second submit must block until the first resolves,
            # then be admitted and decoded -- no error, no drop.
            second = svc.submit(WIMAX, llr)
            assert first.done()  # space only frees at resolution
            _assert_identical(second.result(timeout=30), direct, "blocked")
        assert svc.metrics_snapshot()["submits_blocked"] == 1

    def test_block_policy_honours_deadline(self):
        svc = self._stalled_service(queue_limit=2, overload_policy="block")
        try:
            queued = svc.submit(WIMAX, _llr(WIMAX, 2, seed=67))
            with pytest.raises(DeadlineExceeded, match="blocked"):
                svc.submit(WIMAX, _llr(WIMAX, 1, seed=68), timeout=0.1)
        finally:
            svc.close()
        queued.result(timeout=0)

    def test_block_policy_wakes_on_close(self):
        svc = self._stalled_service(queue_limit=2, overload_policy="block")
        queued = svc.submit(WIMAX, _llr(WIMAX, 2, seed=69))
        outcome = []

        def blocked_submit():
            try:
                outcome.append(svc.submit(WIMAX, _llr(WIMAX, 1, seed=70)))
            except ServiceClosedError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=blocked_submit)
        thread.start()
        deadline = threading.Event()
        deadline.wait(0.1)  # let the submitter reach the wait
        svc.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert isinstance(outcome[0], ServiceClosedError)
        queued.result(timeout=0)

    def test_client_quota_rejects_only_the_hog(self):
        svc = self._stalled_service(client_quota=2)
        futures = [
            svc.submit(WIMAX, _llr(WIMAX, 1, seed=71 + i), client="hog")
            for i in range(2)
        ]
        try:
            with pytest.raises(ServiceOverloaded, match="quota"):
                svc.submit(WIMAX, _llr(WIMAX, 1, seed=73), client="hog")
            # Another client is unaffected by the hog's quota breach.
            futures.append(
                svc.submit(WIMAX, _llr(WIMAX, 1, seed=74), client="polite")
            )
            assert svc.metrics_snapshot()["requests_quota_rejected"] == 1
        finally:
            svc.close()
        for future in futures:
            future.result(timeout=0)

    def test_quota_frees_as_requests_resolve(self):
        with DecodeService(
            max_batch=4, max_wait=0.001, workers=2,
            default_config=FLOAT_CONFIG, client_quota=1,
        ) as svc:
            for i in range(3):  # sequential: each resolves, freeing quota
                svc.submit(
                    WIMAX, _llr(WIMAX, 1, seed=80 + i), client="serial"
                ).result(timeout=30)

    def test_invalid_policy_configuration(self):
        with pytest.raises(ValueError, match="overload policy"):
            DecodeService(overload_policy="panic")
        with pytest.raises(ValueError, match="queue_limit"):
            DecodeService(queue_limit=0)
        with pytest.raises(ValueError, match="client_quota"):
            DecodeService(client_quota=-1)


class TestMetricsText:
    def test_prometheus_exposition(self):
        with DecodeService(
            max_batch=4, max_wait=0.001, default_config=FLOAT_CONFIG
        ) as svc:
            svc.submit(WIMAX, _llr(WIMAX, 2, seed=90)).result(timeout=30)
            text = svc.metrics_text()
        assert "# TYPE repro_requests_completed counter" in text
        assert "repro_requests_completed 1" in text
        assert "# TYPE repro_queue_depth_frames gauge" in text
        assert "# TYPE repro_batches_in_flight gauge" in text
        # Nested groups flatten with their prefix.
        assert "repro_plan_cache_misses" in text
        assert "repro_worker_pool_respawns" in text
        # Non-numeric snapshot values are skipped, not mangled.
        assert "maxsize" in text  # numeric nested value IS exported
        assert text.endswith("\n")
