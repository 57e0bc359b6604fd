"""Unit tests for the fault-injection subsystem.

:class:`FaultPlan` placement/determinism contracts and the decode
task's ``cache_drop`` site.  Worker supervision under scripted crashes
and hangs is the pool contract (``tests/test_runtime_pool.py``); the
integrated chaos matrix (plans driving a whole :class:`DecodeService`)
lives in ``tests/test_service_faults.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InjectedFault
from repro.runtime import FaultPlan
from repro.runtime.procworker import TASKS, WorkerState
from repro.service import PlanCache


# ---------------------------------------------------------------------------
# FaultPlan mechanics
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_index_specs_normalize(self):
        assert FaultPlan(worker_crash=3).worker_crash == frozenset({3})
        assert FaultPlan(worker_crash=[1, 2]).worker_crash == frozenset({1, 2})
        assert FaultPlan(worker_crash=range(2)).worker_crash == frozenset({0, 1})
        assert FaultPlan().worker_crash == frozenset()

    def test_worker_site_counts_and_records(self):
        plan = FaultPlan(worker_crash=[1], worker_hang=[2], hang_duration=0.5)
        assert plan.worker_directive() is None  # 0: clean
        assert plan.worker_directive() == {"crash": True, "index": 1}
        assert plan.worker_directive() == {"hang": 0.5, "index": 2}
        assert plan.injected()["worker_crash"] == 1
        assert plan.injected()["worker_hang"] == 1
        assert plan.events()["worker"] == 3

    def test_batch_site(self):
        plan = FaultPlan(backend_error=[0, 2])
        with pytest.raises(InjectedFault, match="batch decode #0"):
            plan.on_batch_decode()
        plan.on_batch_decode()
        with pytest.raises(InjectedFault):
            plan.on_batch_decode()
        assert plan.injected()["backend_error"] == 2

    def test_cache_site(self):
        plan = FaultPlan(cache_drop=[1])
        assert plan.on_cache_get() is False
        assert plan.on_cache_get() is True
        assert plan.injected()["cache_drop"] == 1

    def test_corruption_is_deterministic_and_recomputable(self):
        plan = FaultPlan(seed=42, corrupt_llr=[1])
        llr = np.linspace(-6, 6, 24).reshape(2, 12)
        clean = plan.corrupt(llr)  # submit 0: untouched
        assert clean is llr
        dirty = plan.corrupt(llr)  # submit 1: corrupted
        assert not np.array_equal(dirty, llr)
        # Pure recomputation: same (seed, index) -> identical bytes.
        assert np.array_equal(dirty, plan.corrupted(llr, 1))
        assert np.array_equal(
            dirty, FaultPlan(seed=42, corrupt_llr=[1]).corrupted(llr, 1)
        )
        # Different seed or index -> different corruption.
        assert not np.array_equal(
            dirty, FaultPlan(seed=43).corrupted(llr, 1)
        )
        assert not np.array_equal(dirty, plan.corrupted(llr, 2))

    def test_corruption_preserves_integer_dtype_and_range(self):
        plan = FaultPlan(seed=7, corrupt_llr=[0])
        raw = np.clip(
            (np.random.default_rng(0).standard_normal((3, 16)) * 30),
            -127, 127,
        ).astype(np.int8)
        dirty = plan.corrupt(raw)
        assert dirty.dtype == np.int8
        assert dirty.min() >= -127 and dirty.max() <= 127

    def test_reset_zeroes_counters(self):
        plan = FaultPlan(backend_error=[0])
        with pytest.raises(InjectedFault):
            plan.on_batch_decode()
        plan.reset()
        assert plan.events() == {}
        assert sum(plan.injected().values()) == 0
        with pytest.raises(InjectedFault):
            plan.on_batch_decode()  # index 0 fires again after reset

    def test_repr_names_active_sites(self):
        text = repr(FaultPlan(seed=3, worker_crash=[5]))
        assert "worker_crash" in text and "5" in text


# ---------------------------------------------------------------------------
# The cache_drop site: the decode task evicts before its lookup
# ---------------------------------------------------------------------------
def _decode_task(cache, code, llr, plan):
    """One ``"decode"`` task as a worker runs it, with the service's
    once-per-attempt ``cache_drop`` verdict drawn from ``plan``."""
    meta = {
        "mode": code,
        "config": cache.default_config,
        "cache_drop": plan.on_cache_get(),
    }
    return TASKS["decode"](WorkerState(cache), meta, {"llr": llr})


class TestCacheDrop:
    def test_drop_oldest_on_scripted_attempt(self, tiny_code, rng):
        plan = FaultPlan(cache_drop=[1])
        cache = PlanCache(maxsize=4)
        llr = rng.standard_normal((1, tiny_code.n))
        _decode_task(cache, tiny_code, llr, plan)  # attempt 0: builds
        assert len(cache) == 1
        _decode_task(cache, tiny_code, llr, plan)  # 1: drops LRU first
        assert cache.evictions == 1
        assert cache.misses == 2    # the drop forced a second build
        assert len(cache) == 1
        assert plan.injected()["cache_drop"] == 1

    def test_drop_oldest_empty_cache(self):
        assert PlanCache().drop_oldest() is False

    def test_dropped_entry_decodes_identically(self, tiny_code, rng):
        # The cache's correctness contract under chaos: eviction
        # mid-flight only ever costs a rebuild, never a wrong decode.
        plan = FaultPlan(cache_drop=[1])
        cache = PlanCache(maxsize=4)
        llr = 4.0 * rng.standard_normal((3, tiny_code.n))
        before = _decode_task(cache, tiny_code, llr, plan)[1]
        after = _decode_task(cache, tiny_code, llr, plan)[1]  # rebuilt
        assert cache.evictions == 1
        for name in ("bits", "llr", "iterations", "converged", "et_stopped"):
            assert np.array_equal(before[name], after[name]), name
