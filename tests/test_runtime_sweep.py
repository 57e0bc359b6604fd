"""Tests for the parallel sweep engine, chunk RNG streams and checkpoints.

The headline contract: a parallel sweep (``workers >= 2``, process pool,
speculative chunk execution) produces **exactly** the same
:class:`~repro.analysis.ber.SnrPoint` statistics as the serial engine,
which in turn backs :meth:`repro.link.Link.sweep`.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.ber import SnrPoint
from repro.decoder import DecoderConfig, LayeredDecoder
from repro.encoder import make_encoder
from repro.errors import SimulationError
from repro.runtime import (
    SweepEngine,
    chunk_key,
    chunk_rng,
    chunk_seed_sequence,
    plan_chunks,
    point_key,
)
from repro.runtime.checkpoint import SweepCheckpoint

EBN0 = [1.5, 3.0]
BUDGET = dict(max_frames=60, min_frame_errors=8, batch_size=20)


def _dicts(points):
    return [p.to_dict() for p in points]


class TestChunkStreams:
    def test_spawn_keys_distinct_per_point_and_chunk(self):
        seen = set()
        for ebn0 in (-2.0, 0.0, 1.5, 3.0):
            for chunk in range(3):
                state = chunk_seed_sequence(7, ebn0, chunk)
                key = (tuple(state.spawn_key), state.entropy)
                assert key not in seen
                seen.add(key)

    def test_point_key_is_exact_bit_pattern(self):
        assert point_key(1.5) != point_key(1.5 + 2**-50)
        assert point_key(-1.0) != point_key(1.0)
        assert point_key(2.0) == point_key(2.0)

    def test_streams_differ_across_seed_point_chunk(self):
        base = chunk_rng(0, 1.5, 0).integers(0, 2**63, size=8)
        for seed, ebn0, chunk in ((1, 1.5, 0), (0, 2.5, 0), (0, 1.5, 1)):
            other = chunk_rng(seed, ebn0, chunk).integers(0, 2**63, size=8)
            assert not np.array_equal(base, other)

    def test_streams_reproducible(self):
        a = chunk_rng(3, 2.0, 4).standard_normal(16)
        b = chunk_rng(3, 2.0, 4).standard_normal(16)
        assert np.array_equal(a, b)


class TestPlanChunks:
    def test_even_split(self):
        assert plan_chunks(100, 25) == [25, 25, 25, 25]

    def test_remainder_chunk(self):
        assert plan_chunks(55, 20) == [20, 20, 15]

    def test_budget_smaller_than_chunk(self):
        assert plan_chunks(5, 50) == [5]

    def test_invalid(self):
        with pytest.raises(SimulationError):
            plan_chunks(0, 10)


class TestSnrPointMerge:
    def _point(self, **kw):
        base = dict(
            ebn0_db=2.0, frames=10, bit_errors=5, frame_errors=2,
            iterations_sum=30.0, iterations_hist={1: 4, 3: 6},
            converged_frames=8, et_frames=7, info_bits_per_frame=100,
        )
        base.update(kw)
        return SnrPoint(**base)

    def test_counters_sum(self):
        merged = self._point().merge(
            self._point(frames=4, bit_errors=1, frame_errors=1,
                        iterations_sum=12.0, iterations_hist={3: 1, 5: 3},
                        converged_frames=2, et_frames=1)
        )
        assert merged.frames == 14
        assert merged.bit_errors == 6
        assert merged.frame_errors == 3
        assert merged.iterations_sum == 42.0
        assert merged.iterations_hist == {1: 4, 3: 7, 5: 3}
        assert merged.converged_frames == 10
        assert merged.et_frames == 8

    def test_identity_element(self):
        empty = SnrPoint(ebn0_db=2.0, info_bits_per_frame=100)
        point = self._point()
        assert empty.merge(point).to_dict() == point.to_dict()

    def test_mismatched_point_raises(self):
        with pytest.raises(ValueError):
            self._point().merge(self._point(ebn0_db=3.0))

    def test_mismatched_code_raises(self):
        with pytest.raises(ValueError):
            self._point().merge(self._point(info_bits_per_frame=64))

    def test_dict_roundtrip(self):
        point = self._point()
        assert SnrPoint.from_dict(point.to_dict()).to_dict() == point.to_dict()
        assert SnrPoint.from_dict(
            json.loads(json.dumps(point.to_dict()))
        ).to_dict() == point.to_dict()


class TestSerialParallelEquivalence:
    def test_parallel_reproduces_serial_exactly(self, small_code):
        serial = SweepEngine(small_code, seed=9).run(EBN0, **BUDGET)
        parallel = SweepEngine(small_code, seed=9, workers=2).run(EBN0, **BUDGET)
        assert _dicts(serial) == _dicts(parallel)

    def test_prebuilt_decoder_workers_identical(self, small_code):
        # A caller-supplied decoder and encoder (what Link.sweep passes)
        # serve the serial path; pool workers build their own.
        prebuilt = dict(
            decoder=LayeredDecoder(small_code),
            encoder=make_encoder(small_code),
        )
        serial = SweepEngine(small_code, seed=9, **prebuilt).run(EBN0, **BUDGET)
        parallel = SweepEngine(
            small_code, seed=9, workers=2, **prebuilt
        ).run(EBN0, **BUDGET)
        assert _dicts(serial) == _dicts(parallel)

    def test_point_statistics_independent_of_sweep_order(self, small_code):
        forward = SweepEngine(small_code, seed=9).run(EBN0, **BUDGET)
        backward = SweepEngine(small_code, seed=9).run(EBN0[::-1], **BUDGET)
        assert _dicts(forward) == _dicts(backward[::-1])

    def test_flooding_schedule_equivalence(self, small_code):
        serial = SweepEngine(small_code, schedule="flooding", seed=4).run(
            [3.0], max_frames=20, batch_size=10
        )
        parallel = SweepEngine(
            small_code, schedule="flooding", seed=4, workers=2
        ).run([3.0], max_frames=20, batch_size=10)
        assert _dicts(serial) == _dicts(parallel)

    def test_error_budget_stops_at_chunk_granularity(self, small_code):
        # At -2 dB every frame errors, so the budget is hit after the
        # first chunk — serial and parallel must agree on where to stop.
        serial = SweepEngine(small_code, seed=2).run(
            [-2.0], max_frames=500, min_frame_errors=10, batch_size=10
        )
        parallel = SweepEngine(small_code, seed=2, workers=2).run(
            [-2.0], max_frames=500, min_frame_errors=10, batch_size=10
        )
        assert _dicts(serial) == _dicts(parallel)
        assert serial[0].frames < 500
        assert serial[0].frame_errors >= 10

    def test_chunk_frames_override(self, small_code):
        # Coarser chunks change the RNG partition (documented), but
        # serial/parallel equivalence must hold for any chunking.
        kw = dict(max_frames=40, min_frame_errors=100, batch_size=10)
        serial = SweepEngine(small_code, seed=5, chunk_frames=20).run([2.0], **kw)
        parallel = SweepEngine(
            small_code, seed=5, chunk_frames=20, workers=2
        ).run([2.0], **kw)
        assert _dicts(serial) == _dicts(parallel)
        assert serial[0].frames == 40


class TestCheckpoint:
    def _run(self, code, path, **engine_kw):
        return SweepEngine(
            code, seed=9, checkpoint_path=path, **engine_kw
        ).run(EBN0, **BUDGET)

    def test_resume_replays_without_decoding(self, small_code, tmp_path, monkeypatch):
        path = tmp_path / "sweep.json"
        first = self._run(small_code, path)
        assert path.exists()

        import repro.runtime.engine as engine_mod

        def explode(*args, **kwargs):
            raise AssertionError("resume must not decode completed chunks")

        monkeypatch.setattr(engine_mod, "decode_chunk", explode)
        resumed = self._run(small_code, path)
        assert _dicts(first) == _dicts(resumed)

    def test_checkpoint_extends_to_new_points(self, small_code, tmp_path):
        path = tmp_path / "sweep.json"
        self._run(small_code, path)
        extended = SweepEngine(small_code, seed=9, checkpoint_path=path).run(
            [1.5, 2.0, 3.0], **BUDGET
        )
        fresh = SweepEngine(small_code, seed=9).run([1.5, 2.0, 3.0], **BUDGET)
        assert _dicts(extended) == _dicts(fresh)

    def test_parallel_run_writes_checkpoint(self, small_code, tmp_path):
        path = tmp_path / "sweep.json"
        self._run(small_code, path, workers=2)
        data = json.loads(path.read_text())
        assert data["version"] == 1
        assert data["chunks"]

    def test_fingerprint_mismatch_raises(self, small_code, tmp_path):
        path = tmp_path / "sweep.json"
        self._run(small_code, path)
        with pytest.raises(SimulationError, match="different sweep"):
            SweepEngine(small_code, seed=10, checkpoint_path=path).run(
                EBN0, **BUDGET
            )

    def test_checkpoint_of_another_config_field_set_raises(
        self, small_code, tmp_path
    ):
        # A checkpoint written while DecoderConfig carried a field it has
        # since lost (here the deleted ``fast_exact``, last in its repr)
        # is refused, not resumed as if the sweeps were the same.
        path = tmp_path / "sweep.json"
        self._run(small_code, path)
        data = json.loads(path.read_text())
        config = data["fingerprint"]["config"]
        assert config.startswith("DecoderConfig(") and config.endswith(")")
        data["fingerprint"]["config"] = config[:-1] + ", fast_exact=False)"
        path.write_text(json.dumps(data))
        with pytest.raises(SimulationError, match="different sweep"):
            self._run(small_code, path)

    def test_corrupt_checkpoint_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SimulationError, match="unreadable"):
            SweepCheckpoint(path, {"seed": 0})

    def test_truncated_checkpoint_surfaces_actionable_error(
        self, small_code, tmp_path
    ):
        # A checkpoint cut off mid-write (non-atomic copy, full disk,
        # kill -9 of a tool that bypassed the atomic writer) must die
        # with a clean SimulationError that says what to do — not a
        # JSONDecodeError traceback.
        path = tmp_path / "sweep.json"
        self._run(small_code, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(SimulationError, match="delete it"):
            self._run(small_code, path)

    def test_garbled_binary_checkpoint_raises_clean_error(self, tmp_path):
        # Non-UTF-8 bytes at the path (say, a stray .npz) used to escape
        # as UnicodeDecodeError; they must be wrapped like any other
        # unreadable file.
        path = tmp_path / "sweep.json"
        path.write_bytes(b"\x80\x81\xfe\x00PK\x03\x04garbage")
        with pytest.raises(SimulationError, match="unreadable"):
            SweepCheckpoint(path, {"seed": 0})

    def test_valid_json_wrong_shape_raises(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text('["this", "is", "not", "a", "checkpoint"]\n')
        with pytest.raises(SimulationError, match="expected an object"):
            SweepCheckpoint(path, {"seed": 0})
        path.write_text(
            '{"version": 1, "fingerprint": {"seed": 0}, "chunks": [1, 2]}\n'
        )
        with pytest.raises(SimulationError, match="'chunks'"):
            SweepCheckpoint(path, {"seed": 0})

    def test_malformed_chunk_record_raises(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "fingerprint": {"seed": 0},
                    "chunks": {"e1.5:c0": {"bogus": 1}},
                }
            )
        )
        with pytest.raises(SimulationError, match="malformed"):
            SweepCheckpoint(path, {"seed": 0})

    def test_fresh_run_recovers_after_corruption(self, small_code, tmp_path):
        # The documented remedy must actually work: delete the corrupt
        # file, re-run, get statistics identical to a never-corrupted
        # sweep (chunks recompute deterministically).
        path = tmp_path / "sweep.json"
        clean = self._run(small_code, path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(SimulationError):
            self._run(small_code, path)
        path.unlink()
        recovered = self._run(small_code, path)
        assert _dicts(recovered) == _dicts(clean)

    def test_chunk_key_format(self):
        assert chunk_key(1.5, 2) == "e1.5:c2"
        assert chunk_key(1.5, 2) != chunk_key(1.5, 3)
        assert chunk_key(1.25, 0) != chunk_key(1.5, 0)


class TestEngineValidation:
    def test_unknown_schedule(self, small_code):
        with pytest.raises(SimulationError):
            SweepEngine(small_code, schedule="diagonal")

    def test_invalid_budgets(self, small_code):
        engine = SweepEngine(small_code)
        with pytest.raises(SimulationError):
            engine.run([1.0], max_frames=0)
        with pytest.raises(SimulationError):
            engine.run([1.0], batch_size=0)
        with pytest.raises(SimulationError):
            SweepEngine(small_code, chunk_frames=0)


class TestExecutorGate:
    """The break-even gate and the forced process path (ROADMAP 2a)."""

    def _pool(self):
        from repro.runtime import ProcessWorkerPool

        return ProcessWorkerPool(2)

    def test_serial_engine_records_trivial_decision(self, small_code):
        engine = SweepEngine(small_code, seed=9)
        engine.run(EBN0, **BUDGET)
        assert engine.last_decision["executor"] == "serial"
        assert engine.last_decision["reason"] == "workers < 2"

    def test_last_decision_resets_each_run(self, small_code):
        engine = SweepEngine(small_code, DecoderConfig(max_iterations=2))
        assert engine.last_decision is None
        engine.run([4.0], max_frames=4, min_frame_errors=100, batch_size=2)
        assert engine.last_decision is not None
        with pytest.raises(SimulationError):
            engine.run([4.0], max_frames=0)
        # A failed run must not leave the previous run's verdict behind.
        assert engine.last_decision is None

    def test_auto_gate_always_records_a_verdict(self, small_code):
        engine = SweepEngine(small_code, seed=9, workers=2)
        engine.run(EBN0, **BUDGET)
        decision = engine.last_decision
        assert decision["executor"] in ("serial", "process")
        assert decision["reason"]
        assert decision["requested_workers"] == 2
        assert decision["calibration_s"] > 0.0
        assert decision["frames_per_s"] > 0.0

    def test_break_even_threshold_forces_serial(self, small_code, monkeypatch):
        # Pretend the box has cores (the core-count gate would otherwise
        # preempt the threshold on single-CPU runners): an absurd
        # threshold still picks serial, with exact statistics.
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        engine = SweepEngine(
            small_code, seed=9, workers=2, break_even_s=1e9
        )
        gated = engine.run(EBN0, **BUDGET)
        assert engine.last_decision["executor"] == "serial"
        assert "break_even_s" in engine.last_decision["reason"]
        serial = SweepEngine(small_code, seed=9).run(EBN0, **BUDGET)
        assert _dicts(gated) == _dicts(serial)

    def test_break_even_zero_takes_the_process_path(
        self, small_code, monkeypatch
    ):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        serial = SweepEngine(small_code, seed=9).run(EBN0, **BUDGET)
        with self._pool() as pool:
            engine = SweepEngine(
                small_code, seed=9, workers=2, break_even_s=0.0, pool=pool
            )
            taken = engine.run(EBN0, **BUDGET)
            assert engine.last_decision["executor"] == "process"
        assert _dicts(taken) == _dicts(serial)

    def test_single_core_box_falls_back_to_serial(
        self, small_code, monkeypatch
    ):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        engine = SweepEngine(small_code, seed=9, workers=4)
        engine.run(EBN0, **BUDGET)
        assert engine.last_decision["executor"] == "serial"
        assert "usable core" in engine.last_decision["reason"]

    def test_forced_process_is_bit_identical_to_serial(self, small_code):
        serial = SweepEngine(small_code, seed=9).run(EBN0, **BUDGET)
        with self._pool() as pool:
            engine = SweepEngine(
                small_code, seed=9, workers=2, force_parallel=True, pool=pool
            )
            forced = engine.run(EBN0, **BUDGET)
            assert engine.last_decision["executor"] == "process"
            assert engine.last_decision["reason"] == "force_parallel"
            assert _dicts(forced) == _dicts(serial)

    def test_chunk_grouping_preserves_statistics(self, small_code):
        # A huge target task size packs every chunk of a point into one
        # task; per-chunk streams and the ordered merge keep results
        # exactly serial.
        serial = SweepEngine(small_code, seed=9).run(EBN0, **BUDGET)
        with self._pool() as pool:
            engine = SweepEngine(
                small_code, seed=9, workers=2, force_parallel=True,
                pool=pool, target_task_s=30.0,
            )
            grouped = engine.run(EBN0, **BUDGET)
            assert engine.last_decision["chunks_per_task"] > 1
            assert _dicts(grouped) == _dicts(serial)

    def test_forced_process_early_budget_stop(self, small_code):
        kw = dict(max_frames=500, min_frame_errors=10, batch_size=10)
        serial = SweepEngine(small_code, seed=2).run([-2.0], **kw)
        with self._pool() as pool:
            forced = SweepEngine(
                small_code, seed=2, workers=2, force_parallel=True, pool=pool
            ).run([-2.0], **kw)
        assert _dicts(forced) == _dicts(serial)
        assert forced[0].frames < 500

    def test_duplicate_points_in_one_sweep(self, small_code):
        serial = SweepEngine(small_code, seed=9).run([3.0, 3.0], **BUDGET)
        with self._pool() as pool:
            forced = SweepEngine(
                small_code, seed=9, workers=2, force_parallel=True, pool=pool
            ).run([3.0, 3.0], **BUDGET)
        assert _dicts(forced) == _dicts(serial)
        assert _dicts([serial[0]]) == _dicts([serial[1]])

    def test_two_sweeps_spawn_no_new_processes(self, small_code):
        # THE regression this PR fixes: the seed engine built a fresh
        # ProcessPoolExecutor per sweep, so every sweep paid
        # worker startup + imports and lost to serial.
        with self._pool() as pool:
            engine = SweepEngine(
                small_code, seed=9, workers=2, force_parallel=True, pool=pool
            )
            first = engine.run(EBN0, **BUDGET)
            spawned = pool.processes_spawned
            second = engine.run(EBN0, **BUDGET)
            assert pool.processes_spawned == spawned
            assert _dicts(first) == _dicts(second)

    def test_checkpointed_forced_process_resumes_without_decoding(
        self, small_code, tmp_path, monkeypatch
    ):
        path = tmp_path / "sweep.json"
        with self._pool() as pool:
            first = SweepEngine(
                small_code, seed=9, workers=2, force_parallel=True,
                pool=pool, checkpoint_path=path,
            ).run(EBN0, **BUDGET)

            import repro.runtime.engine as engine_mod

            def explode(*args, **kwargs):
                raise AssertionError("resume must not decode completed chunks")

            monkeypatch.setattr(engine_mod, "decode_chunk", explode)
            engine = SweepEngine(
                small_code, seed=9, workers=2, force_parallel=True,
                pool=pool, checkpoint_path=path,
            )
            resumed = engine.run(EBN0, **BUDGET)
            assert engine.last_decision["reason"] == "checkpoint already complete"
        assert _dicts(first) == _dicts(resumed)

    def test_gate_parameter_validation(self, small_code):
        with pytest.raises(SimulationError):
            SweepEngine(small_code, target_task_s=0.0)
        with pytest.raises(SimulationError):
            SweepEngine(small_code, break_even_s=-1.0)


class TestFadingSweeps:
    def test_rayleigh_sweep_runs_and_degrades(self, small_code):
        """Same budget, same Eb/N0: Rayleigh block fading must not beat
        AWGN (per-frame deep fades kill whole codewords)."""
        budget = dict(max_frames=200, min_frame_errors=50, batch_size=50)
        awgn = SweepEngine(small_code, seed=5).run([3.0], **budget)
        faded = SweepEngine(small_code, seed=5, channel="rayleigh").run(
            [3.0], **budget
        )
        assert faded[0].fer >= awgn[0].fer

    def test_rayleigh_sweep_deterministic(self, small_code):
        budget = dict(max_frames=40, min_frame_errors=8, batch_size=20)
        a = SweepEngine(small_code, seed=6, channel="rayleigh").run(
            EBN0, **budget
        )
        b = SweepEngine(small_code, seed=6, channel="rayleigh").run(
            EBN0, **budget
        )
        assert _dicts(a) == _dicts(b)

    def test_unknown_channel_is_typed(self, small_code):
        with pytest.raises(SimulationError):
            SweepEngine(small_code, channel="underwater")

    def test_parallel_fading_sweep_matches_serial(self, small_code):
        budget = dict(max_frames=60, min_frame_errors=8, batch_size=20)
        serial = SweepEngine(small_code, seed=7, channel="rayleigh").run(
            EBN0, **budget
        )
        parallel = SweepEngine(
            small_code, seed=7, channel="rayleigh", workers=2,
            force_parallel=True,
        ).run(EBN0, **budget)
        assert _dicts(serial) == _dicts(parallel)
