"""Backend registry + cross-backend equivalence tests.

Contracts verified here:

- fixed-point outputs (hard bits, raw LLRs, iteration counts) are
  **bit-identical** across ``reference`` and ``fast`` on every
  registered standard;
- the fast float32 Φ-domain kernel (exclusive prefix/suffix Φ-sums, no
  cancelling subtraction) matches the reference kernel per call on the
  operating range |λ| <= 20 to atol 1e-4 in the decision region
  (|Λ| <= 5) and 1e-3 relative overall (measured ~2e-7; headroom for
  platform libm differences) — and gives the reference's hard decisions
  and iteration counts end to end, on both schedules and every
  registered standard, on the test workloads.  At *saturated* checks
  (messages railed at the clip) the implementations intentionally
  differ: the reference's ⊟ pole rails the weakest-edge extrinsic to
  the clip, while the Φ form caps it near 88, its representable
  float32 Φ ceiling; signs always agree;
- non-BP check-node variants delegate to the identical reference
  kernels;
- every entry of the fast backend's compiled fixed-point ⊞/⊟ fold ROMs
  equals the reference arithmetic, and one read-only ROM set is shared
  by every decoder of a datapath;
- every kernel slot the fast backend fuses decodes on its own fused
  kernel: a lost one would fall back to the reference kernel bit for
  bit, so no output comparison could tell;
- on the full-size 802.16e and 802.11n modes, 10 iterations with paper
  ET, Q8.2 BP and min-sum agree across backends bit for bit, and
  compaction is invisible in both datapaths;
- the fast float Φ kernel equals its cumsum formulation bit for bit at
  every degree from 2 to 20;
- the frame-minor layer update of a batch equals the same frames
  updated one at a time, and the fast layer update equals the
  reference one from arbitrary state;
- the fast backend holds fixed-point state in int16 exactly when the
  APP word has at most 15 bits (int32 from 16), on ``intp`` ROM row
  bases; its layer update matches the reference on railed 15- and
  16-bit APP words, and on layers where many messages are exactly zero;
- registry selection: ``fast`` by default whatever the environment
  says, ``reference`` by name, unknown-name errors.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.codes import get_code
from repro.decoder import (
    BPSumSubKernel,
    DecodePlan,
    DecoderConfig,
    FloodingDecoder,
    LayeredDecoder,
    registered_backends,
)
from repro.decoder.backends import fast as fast_module
from repro.decoder.backends import make_backend
from repro.decoder.backends.base import KERNEL_TABLE
from repro.decoder.backends.fast import PHI_POLE_F32, FastBackend, fold_roms
from repro.decoder.backends.reference import ReferenceBackend
from repro.encoder import make_encoder
from repro.errors import DecoderConfigError
from repro.fixedpoint import QFormat
from repro.fixedpoint.boxplus import (
    FixedBoxOps,
    make_guard_tables,
    phi_transform,
)
from tests.conftest import make_noisy_llrs

#: One small mode per supported standard (DMB-T has a single z).
STANDARD_MODES = ["802.16e:1/2:z24", "802.11n:1/2:z27", "DMB-T:0.4:z127"]

#: Full-size modes of two standards (N = 2304 and 1944).  At 3.5 dB the
#: paper's early termination retires every frame in 3–4 of 10 iterations.
FULL_SIZE_MODES = ["802.16e:1/2:z96", "802.11n:1/2:z81"]

#: The fast backend's own kernel for each KERNEL_TABLE slot it fuses
#: (forward-backward BP runs the shared reference kernels).
FUSED_KERNELS = {
    "bp_sumsub_fixed": FastBackend._bp_sumsub_fixed_rom,
    "bp_sumsub_float": FastBackend._bp_sumsub_phi,
    "minsum_fixed": FastBackend._minsum_fixed,
    "minsum_float": FastBackend._minsum_float,
    "linear_approx_fixed": FastBackend._linear_approx_fixed,
    "linear_approx_float": FastBackend._linear_approx_float,
}

#: Documented float tolerances of the fast Φ kernel per call, on the
#: operating range |λ| <= 20 (see module docstring).
ATOL_FAST_F32_DECISION = 1e-4
RTOL_FAST_F32 = 1e-3


def decode_pair(code, llr, config_kwargs, backends=("reference", "fast")):
    results = []
    for backend in backends:
        config = DecoderConfig(backend=backend, **config_kwargs)
        results.append(LayeredDecoder(code, config).decode(llr))
    return results


#: Run in a fresh interpreter, with one front door's decode spliced in
#: at ``# door``: it decodes a default config on ``fast`` and never
#: builds a ``reference`` backend, although the environment names it.
DEFAULT_IS_FAST = """
import numpy as np

import repro
from repro.codes import get_code
from repro.decoder import DecoderConfig, FloodingDecoder, LayeredDecoder
from repro.decoder.backends import FastBackend, ReferenceBackend
from repro.runtime import SweepEngine
from repro.service import DecodePolicy, DecodeService

built = []
for backend in (FastBackend, ReferenceBackend):
    def init(self, plan, config, original=backend.__init__):
        built.append(self.name)
        original(self, plan, config)
    backend.__init__ = init

MODE = "802.16e:1/2:z24"
code = get_code(MODE)
llr = np.full((2, code.n), 4.0)
assert DecoderConfig().backend == "fast"
# door
assert built and set(built) == {"fast"}, built
print("fast by default")
"""

#: Each front door's decode of a default config, one fresh interpreter
#: apiece so a failure names the door.
FRONT_DOORS = {
    "layered": (
        "assert LayeredDecoder(code).decode(llr).convergence_rate == 1.0"
    ),
    "flooding": (
        "assert FloodingDecoder(code).decode(llr).convergence_rate == 1.0"
    ),
    "open": (
        "link = repro.open(MODE, ebn0=3.0, seed=1)\n"
        "assert link.run_frames(2).result.batch_size == 2"
    ),
    "sweep": (
        "SweepEngine(code, seed=1).run([3.0], max_frames=4, batch_size=4)"
    ),
    # Threads: the backend spy above sees the parent's builds only.
    "service": (
        "with DecodeService(workers=1, executor='thread') as service:\n"
        "    served = service.submit(MODE, llr).result(timeout=60)\n"
        "    assert served.batch_size == 2"
    ),
    # The low, mid and high rules of the default policy.
    "policy": (
        "with DecodeService(workers=1, executor='thread',\n"
        "                   policy=DecodePolicy()) as service:\n"
        "    for snr_db in (0.0, 3.0, 6.0):\n"
        "        service.submit(MODE, llr, snr_db=snr_db).result(timeout=60)\n"
        "    rules = service.metrics_snapshot()['policy']['rules']\n"
        "    assert len(rules) == 3, rules"
    ),
}


class TestRegistry:
    def test_registry_is_reference_and_fast(self):
        assert registered_backends() == ("reference", "fast")

    @pytest.mark.parametrize("door", list(FRONT_DOORS))
    def test_default_is_fast_whatever_the_environment_says(self, door):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, REPRO_DECODER_BACKEND="reference")
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (str(src), env.get("PYTHONPATH")) if path
        )
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                DEFAULT_IS_FAST.replace("# door", FRONT_DOORS[door]),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "fast by default"

    def test_explicit_name_beats_env(self, small_code, monkeypatch):
        # The oracle runs when a config names it, whatever a stale
        # environment variable says.
        monkeypatch.setenv("REPRO_DECODER_BACKEND", "fast")
        for decoder in (LayeredDecoder, FloodingDecoder):
            built = decoder(small_code, DecoderConfig(backend="reference"))
            assert isinstance(built.backend, ReferenceBackend)

    # No fallback and no environment lookup: "auto" and "numba" get the
    # same typed error as any other name outside the registry.
    @pytest.mark.parametrize("name", ["gpu", "numba", "auto"])
    def test_unknown_backend_raises_at_decoder_construction(
        self, small_code, name
    ):
        with pytest.raises(
            DecoderConfigError,
            match=r"unknown decoder backend .*'reference', 'fast'",
        ):
            LayeredDecoder(small_code, DecoderConfig(backend=name))

    def test_unknown_backend_raises(self, small_code):
        # The registry lookup itself, and the flooding schedule's way to
        # it, refuse a name outside the registry just the same.
        config = DecoderConfig(backend="auto")
        unknown = "unknown decoder backend"
        with pytest.raises(DecoderConfigError, match=unknown):
            make_backend(DecodePlan(small_code), config)
        with pytest.raises(DecoderConfigError, match=unknown):
            FloodingDecoder(small_code, config)

    def test_decoder_uses_selected_backend(self, small_code):
        ref = LayeredDecoder(small_code, DecoderConfig(backend="reference"))
        fast = LayeredDecoder(small_code, DecoderConfig(backend="fast"))
        assert isinstance(ref.backend, ReferenceBackend)
        assert isinstance(fast.backend, FastBackend)


class TestConfigValidation:
    """Unknown algorithm strings die at DecoderConfig construction with
    DecoderConfigError on every backend path — never a KeyError or a
    silent fallback deep inside kernel selection."""

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_unknown_check_node_fails_at_construction(self, backend):
        with pytest.raises(DecoderConfigError, match="check_node"):
            DecoderConfig(backend=backend, check_node="min-sum")  # typo

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_unknown_bp_impl_fails_at_construction(self, backend):
        with pytest.raises(DecoderConfigError, match="bp_impl"):
            DecoderConfig(backend=backend, bp_impl="sumsub")  # typo

    def test_kernel_slot_guards_unvalidated_configs(self):
        # A config smuggled past __post_init__ (object.__setattr__ on the
        # frozen dataclass) still raises DecoderConfigError, not KeyError,
        # when a backend asks the kernel table for it.
        from repro.decoder import kernel_slot

        config = DecoderConfig()
        object.__setattr__(config, "check_node", "bogus")
        with pytest.raises(DecoderConfigError, match="no check-node kernel"):
            kernel_slot(config)

    def test_kernel_table_covers_every_valid_combination(self):
        from repro.decoder import CHECK_NODE_ALGORITHMS, kernel_slot
        from repro.decoder.backends.fast import FastBackend
        from repro.decoder.plan import DecodePlan

        code = get_code("802.16e:1/2:z24")
        for check_node in CHECK_NODE_ALGORITHMS:
            for bp_impl in ("sum-sub", "forward-backward"):
                for qformat in (None, QFormat(8, 2)):
                    config = DecoderConfig(
                        check_node=check_node, bp_impl=bp_impl, qformat=qformat
                    )
                    assert kernel_slot(config)
                    # and the fast backend can actually build the kernel
                    assert FastBackend(DecodePlan(code), config)._kernel

    def test_invalid_guard_bits_rejected(self):
        with pytest.raises(DecoderConfigError, match="siso_guard_bits"):
            DecoderConfig(siso_guard_bits=-1)
        with pytest.raises(DecoderConfigError, match="siso_guard_bits"):
            DecoderConfig(siso_guard_bits=9)


@pytest.mark.parametrize("mode", STANDARD_MODES)
class TestFixedPointBitExact:
    def _workload(self, mode, frames=8, seed=303):
        code = get_code(mode)
        encoder = make_encoder(code)
        _, _, llr = make_noisy_llrs(code, encoder, 3.0, frames, seed)
        return code, llr

    def _assert_identical(self, a, b):
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.llr, b.llr)
        assert np.array_equal(a.iterations, b.iterations)
        assert np.array_equal(a.et_stopped, b.et_stopped)

    def test_layered_bit_identical(self, mode):
        code, llr = self._workload(mode)
        ref, fast = decode_pair(
            code, llr, dict(qformat=QFormat(8, 2), max_iterations=4)
        )
        self._assert_identical(ref, fast)

    def test_layered_bit_identical_large_batch(self, mode):
        # Compaction shrinks the frame-minor batch column by column as
        # frames converge.
        code, llr = self._workload(mode, frames=16)
        ref, fast = decode_pair(
            code, llr, dict(qformat=QFormat(8, 2), max_iterations=4)
        )
        self._assert_identical(ref, fast)

    def test_layered_bit_identical_wide_format(self, mode):
        # Q12.4 exceeds PAIR_TABLE_MAX_BITS: exercises the flat-table fold.
        code, llr = self._workload(mode, frames=4)
        ref, fast = decode_pair(
            code, llr, dict(qformat=QFormat(12, 4), max_iterations=3)
        )
        self._assert_identical(ref, fast)

    def test_flooding_bit_identical(self, mode):
        code, llr = self._workload(mode, frames=4)
        results = []
        for backend in ("reference", "fast"):
            config = DecoderConfig(
                backend=backend, qformat=QFormat(8, 2), max_iterations=3
            )
            results.append(FloodingDecoder(code, config).decode(llr))
        self._assert_identical(*results)


class TestFullSizeWorkloads:
    def _workload(self, mode, frames=32):
        code = get_code(mode)
        _, _, llr = make_noisy_llrs(code, make_encoder(code), 3.5, frames, 7)
        return code, llr

    @pytest.mark.parametrize("check_node", ["bp", "normalized-minsum"])
    @pytest.mark.parametrize("mode", FULL_SIZE_MODES)
    def test_fixed_point_backends_bit_identical(self, mode, check_node):
        code, llr = self._workload(mode)
        ref, fast = decode_pair(
            code, llr,
            dict(check_node=check_node, qformat=QFormat(8, 2),
                 max_iterations=10, early_termination="paper"),
        )
        assert ref.et_stopped.all()
        for field in ("bits", "llr", "iterations", "et_stopped"):
            assert np.array_equal(getattr(ref, field), getattr(fast, field))

    @pytest.mark.parametrize(
        "mode, qformat",
        [("802.16e:1/2:z96", None), ("802.16e:1/2:z24", QFormat(8, 2))],
        ids=["float-z96", "q8.2-z24"],
    )
    def test_compaction_is_invisible(self, mode, qformat):
        code, llr = self._workload(mode)
        compacted, carried = (
            LayeredDecoder(
                code,
                DecoderConfig(qformat=qformat, max_iterations=10,
                              early_termination="paper",
                              compact_frames=compact),
            ).decode(llr)
            for compact in (True, False)
        )
        assert compacted.et_stopped.mean() > 0.9
        for field in ("bits", "llr", "iterations", "et_stopped"):
            assert np.array_equal(
                getattr(compacted, field), getattr(carried, field)
            )


class TestFusedKernels:
    """Each slot the fast backend fuses decodes on its own kernel.

    Losing one would fall back to the reference kernel, bit for bit,
    so the cross-backend checks cannot see it; only the speed would
    drop.  This checks which kernel the backend built.
    """

    @pytest.mark.parametrize(
        "key, guard_bits",
        [
            pytest.param(key, 2, id=f"{slot}-{key[0]}")
            for key, slot in sorted(KERNEL_TABLE.items(), key=str)
            if slot in FUSED_KERNELS
        ]
        + [pytest.param(("bp", "sum-sub", True), 0, id="bp_sumsub_fixed-guard0")],
    )
    def test_fast_backend_runs_its_fused_kernel(
        self, small_code, key, guard_bits
    ):
        check_node, bp_impl, fixed = key
        config = DecoderConfig(
            backend="fast",
            check_node=check_node,
            bp_impl=bp_impl or "sum-sub",
            qformat=QFormat(8, 2) if fixed else None,
            siso_guard_bits=guard_bits,
        )
        kernel = FastBackend(DecodePlan(small_code), config)._kernel
        fused = FUSED_KERNELS[KERNEL_TABLE[key]]
        assert getattr(kernel, "__func__", kernel) is fused


class TestStateWidth:
    """The fast backend holds fixed-point state at its native width.

    int16 exactly when the APP word (``qformat.total_bits +
    app_extra_bits``) has at most 15 bits, int32 from 16 bits, and the
    reference oracle always int32.  Too wide a pick changes no output,
    only the speed, so no output comparison can see it; this checks the
    pick itself, and the ``intp`` row bases the ROM fold steps on.
    """

    @pytest.mark.parametrize(
        "qformat, app_extra_bits, dtype",
        [
            (QFormat(8, 2), 2, np.int16),
            (QFormat(8, 2), 7, np.int16),
            (QFormat(8, 2), 8, np.int32),
            (QFormat(6, 2), 9, np.int16),
            (QFormat(6, 2), 10, np.int32),
            (QFormat(12, 3), 3, np.int16),
            (QFormat(12, 3), 4, np.int32),
        ],
        ids=lambda v: str(v) if not isinstance(v, type) else v.__name__,
    )
    def test_work_dtype_follows_app_width(
        self, small_code, qformat, app_extra_bits, dtype
    ):
        config = DecoderConfig(
            backend="fast", qformat=qformat, app_extra_bits=app_extra_bits
        )
        plan = DecodePlan(small_code)
        assert FastBackend(plan, config).work_dtype is dtype
        reference = ReferenceBackend(plan, config.replace(backend="reference"))
        assert reference.work_dtype is np.int32
        state = LayeredDecoder(small_code, config, plan).begin_decode(
            np.ones((2, small_code.n))
        )
        assert [a.dtype for a in state.arrays] == [np.dtype(dtype)] * 2

    @pytest.mark.parametrize("guard_bits", range(5))
    def test_q82_rom_row_bases_are_intp(self, guard_bits):
        roms = fold_roms(QFormat(8, 2), guard_bits)
        assert roms.first.dtype == roms.rows.dtype == np.intp
        assert roms.minus.dtype == np.int16


class TestFloatEquivalence:
    def test_fast_f32_kernel_atol(self, rng):
        config = DecoderConfig(backend="fast")
        backend = FastBackend(DecodePlan(get_code("802.16e:1/2:z24")), config)
        reference = BPSumSubKernel(config.llr_clip)
        for degree in (2, 3, 7, 20):
            lam = rng.uniform(-20, 20, size=(4, degree, 24))
            out = backend._kernel(lam.astype(np.float32))
            assert out.dtype == np.float32
            expected = reference(lam)
            delta = np.abs(expected - out.astype(np.float64))
            decision_region = np.abs(expected) <= 5.0
            if decision_region.any():
                assert delta[decision_region].max() < ATOL_FAST_F32_DECISION
            assert (delta / (1.0 + np.abs(expected))).max() < RTOL_FAST_F32
            assert np.array_equal(np.sign(expected), np.sign(out))

    def test_fast_decodes_clean_exactly(self, small_code, small_encoder, rng):
        info, codewords = small_encoder.random_codewords(5, rng)
        llr = 8.0 * (1.0 - 2.0 * codewords.astype(np.float64))
        result = LayeredDecoder(
            small_code, DecoderConfig(backend="fast")
        ).decode(llr)
        assert result.bit_errors(info) == 0
        assert result.convergence_rate == 1.0

    def test_fast_tracks_reference_decisions(self, small_code, small_encoder):
        info, _, llr = make_noisy_llrs(small_code, small_encoder, 3.0, 60, 404)
        ref, fast = decode_pair(small_code, llr, dict())
        agreement = np.mean(ref.bits == fast.bits)
        assert agreement > 0.999
        assert abs(ref.frame_errors(info) - fast.frame_errors(info)) <= 2

    # The decoder contract of the float32 Φ path that ships: the same
    # hard decisions and iteration counts as the reference, here at
    # 2 dB, where frames still fail.
    @pytest.mark.parametrize("mode", STANDARD_MODES)
    @pytest.mark.parametrize(
        "decoder",
        [LayeredDecoder, FloodingDecoder],
        ids=["layered", "flooding"],
    )
    def test_fast_f32_matches_reference_decisions(self, decoder, mode):
        code = get_code(mode)
        _, _, llr = make_noisy_llrs(code, make_encoder(code), 2.0, 16, 405)
        ref, fast = (
            decoder(code, DecoderConfig(backend=backend)).decode(llr)
            for backend in ("reference", "fast")
        )
        assert np.array_equal(ref.bits, fast.bits)
        assert np.array_equal(ref.iterations, fast.iterations)

    def test_zero_message_erasure_matches_reference(self, rng):
        # sign(0) = 0 propagates through the reference ⊞/⊟ recursion: one
        # exactly-zero message zeroes the whole check.  The Φ kernels
        # reproduce that.
        code = get_code("802.16e:1/2:z24")
        reference = BPSumSubKernel(256.0)
        backend = FastBackend(DecodePlan(code), DecoderConfig(backend="fast"))
        lam = rng.uniform(-10, 10, size=(3, 5, 8))
        lam[0, 2, 4] = 0.0
        lam[2, :, 1] = 0.0
        out = backend._kernel(lam.astype(backend.work_dtype))
        expected = reference(lam)
        assert np.array_equal(out[0, :, 4], np.zeros(5))
        assert np.array_equal(out[2, :, 1], np.zeros(5))
        assert np.array_equal(
            np.sign(expected), np.sign(out.astype(np.float64))
        )

    def test_float_llr_output_is_float64(self, small_code, small_encoder):
        _, _, llr = make_noisy_llrs(small_code, small_encoder, 3.0, 3, 406)
        result = LayeredDecoder(
            small_code, DecoderConfig(backend="fast")
        ).decode(llr)
        assert result.llr.dtype == np.float64

    @pytest.mark.parametrize(
        "check_node",
        ["minsum", "normalized-minsum", "offset-minsum", "linear-approx"],
    )
    def test_non_bp_kernels_identical(
        self, small_code, small_encoder, check_node
    ):
        # The fused fast kernels (two-smallest reduction instead of the
        # reference argsort) are *exactly* equal in float, not just close.
        _, _, llr = make_noisy_llrs(small_code, small_encoder, 3.0, 10, 407)
        ref, fast = decode_pair(
            small_code, llr, dict(check_node=check_node, max_iterations=4)
        )
        assert np.array_equal(ref.bits, fast.bits)
        assert np.array_equal(ref.llr, fast.llr)
        assert np.array_equal(ref.iterations, fast.iterations)

    def test_forward_backward_identical(self, small_code, small_encoder):
        _, _, llr = make_noisy_llrs(small_code, small_encoder, 3.0, 6, 408)
        ref, fast = decode_pair(
            small_code, llr, dict(bp_impl="forward-backward", max_iterations=3)
        )
        assert np.array_equal(ref.bits, fast.bits)


def random_state(code, plan, config, batch, rng, work_dtype):
    """Arbitrary frame-minor ``(N, B)`` APP and ``(blocks, z, B)`` Λ state.

    Railed APP words and zero messages are the corners decodes rarely
    reach; frame 0 gets the railed APP words (against railed Λ in fixed
    point) and frame 1 (when there is one) the zero messages.
    """
    shape = (plan.total_blocks, plan.z, batch)
    if config.is_fixed_point:
        app_max = config.app_qformat.max_int
        msg_max = config.qformat.max_int
        app = rng.integers(-app_max, app_max + 1, (code.n, batch))
        lam = rng.integers(-msg_max, msg_max + 1, shape)
        # Frame 0: APP words railed at both signs against Λ railed at
        # both signs, so ``L - Λ`` reaches ±(app_max + msg_max).
        app[::3, 0] = app_max
        app[1::3, 0] = -app_max
        lam[..., 0] = np.where(rng.random(shape[:2]) < 0.5, msg_max, -msg_max)
        lam[:, ::2, 1:2] = 0
    else:
        app = rng.normal(0.0, 8.0, (code.n, batch))
        lam = rng.normal(0.0, 3.0, shape)
        app[::3, 0] = config.effective_app_clip
    return app.astype(work_dtype), lam.astype(work_dtype)


class TestFrameMinorLayerUpdate:
    """A frame-minor ``(N, B)`` batch update is B independent updates.

    The layer update is one ``take`` of a ``(d·z, B)`` block and one
    indexed write-back at every batch size, and the kernels see the
    block as ``(1, d, z·B)``: a batch of B frames must equal the same
    frames updated one at a time, layer after layer, exactly.
    """

    @pytest.mark.parametrize("batch", [1, 2, 9, 33])
    @pytest.mark.parametrize(
        "config_kwargs",
        [
            dict(qformat=QFormat(8, 2)),
            dict(qformat=QFormat(8, 2), siso_guard_bits=0),
            dict(qformat=QFormat(8, 2), check_node="normalized-minsum"),
            dict(),
            dict(check_node="minsum"),
        ],
        ids=["bp-q82", "bp-q82-guard0", "nms-q82", "bp-float", "ms-float"],
    )
    def test_batch_equals_single_frames(
        self, small_code, rng, config_kwargs, batch
    ):
        plan = DecodePlan(small_code)
        config = DecoderConfig(backend="fast", **config_kwargs)
        backend = FastBackend(plan, config)
        app, lam = random_state(
            small_code, plan, config, batch, rng, backend.work_dtype
        )
        frames = [
            (app[:, [b]].copy(), lam[..., [b]].copy()) for b in range(batch)
        ]
        for pos in range(plan.num_layers):
            backend.update_layer(app, lam, pos)
            for frame_app, frame_lam in frames:
                backend.update_layer(frame_app, frame_lam, pos)
        assert np.array_equal(app, np.hstack([f[0] for f in frames]))
        assert np.array_equal(lam, np.concatenate([f[1] for f in frames], -1))


class TestLayerUpdateMatchesReference:
    """The fast layer update equals the reference one from *arbitrary*
    frame-minor APP/Λ state, layer by layer, for every kernel slot it
    compiles.

    Decodes only reach the states a channel drives them to; random
    states (railed APP words, saturated Λ memories, zero messages) hit
    the saturation and zero-breaking corners directly.  The 15- and
    16-bit APP cases sit on either side of the fast backend's int16 /
    int32 state boundary: int16 arithmetic wraps without a warning, so
    a state too narrow for its railed words shows only here, as a
    mismatch.  The float BP sum-subtract slot is left out: its
    Φ-domain evaluation is checked to a tolerance per call
    (:class:`TestFloatEquivalence`), not exactly.
    """

    @pytest.mark.parametrize(
        "config_kwargs",
        [
            dict(qformat=QFormat(8, 2), siso_guard_bits=0),
            dict(qformat=QFormat(8, 2), siso_guard_bits=2),
            dict(qformat=QFormat(12, 3), siso_guard_bits=0),
            dict(qformat=QFormat(12, 3), siso_guard_bits=2),
            dict(qformat=QFormat(8, 2), app_extra_bits=7),
            dict(qformat=QFormat(8, 2), app_extra_bits=8),
            dict(qformat=QFormat(8, 2), app_extra_bits=7,
                 check_node="linear-approx"),
            dict(qformat=QFormat(8, 2), bp_impl="forward-backward"),
            dict(qformat=QFormat(8, 2), check_node="minsum"),
            dict(qformat=QFormat(8, 2), check_node="normalized-minsum"),
            dict(qformat=QFormat(8, 2), check_node="offset-minsum"),
            dict(qformat=QFormat(8, 2), check_node="offset-minsum",
                 offset=1e4),
            dict(qformat=QFormat(8, 2), check_node="linear-approx"),
            dict(bp_impl="forward-backward"),
            dict(check_node="minsum"),
            dict(check_node="normalized-minsum"),
            dict(check_node="offset-minsum"),
            dict(check_node="linear-approx"),
        ],
        ids=[
            "bp-q82-guard0-rom", "bp-q82-guard2-rom",
            "bp-q12.3-guard0-flat", "bp-q12.3-guard2-table",
            "bp-q82-app15-int16", "bp-q82-app16-int32", "linear-q82-app15",
            "fwdbwd-q82", "ms-q82", "nms-q82", "oms-q82",
            "oms-q82-offset-past-int16", "linear-q82",
            "fwdbwd-float", "ms-float", "nms-float", "oms-float",
            "linear-float",
        ],
    )
    def test_fast_layer_update_matches_reference(
        self, tiny_code, rng, config_kwargs
    ):
        plan = DecodePlan(tiny_code)
        config = DecoderConfig(**config_kwargs)
        reference = ReferenceBackend(plan, config.replace(backend="reference"))
        fast = FastBackend(plan, config.replace(backend="fast"))
        app, lam = random_state(tiny_code, plan, config, 3, rng, np.float64)
        app_ref = app.astype(reference.work_dtype)
        lam_ref = lam.astype(reference.work_dtype)
        app_fast = app.astype(fast.work_dtype)
        lam_fast = lam.astype(fast.work_dtype)
        for pos in range(plan.num_layers):
            reference.update_layer(app_ref, lam_ref, pos)
            fast.update_layer(app_fast, lam_fast, pos)
            assert np.array_equal(app_ref, app_fast), f"APP after layer {pos}"
            assert np.array_equal(lam_ref, lam_fast), f"Λ after layer {pos}"


class TestZeroMessages:
    """The fast zero-break equals the reference's on zero-heavy layers.

    A message is exactly zero when an APP word equals its stored Λ.
    Before each layer update, a quarter of the layer's APP words are
    set equal to their Λ, with Λ negative, zero and positive among
    them: each zero must become ``±1`` with the sign of its Λ, ``+1``
    at Λ = 0, in the batch shapes decodes run (one frame, 32 frames).
    """

    @pytest.mark.parametrize("batch", [1, 32])
    def test_zero_heavy_layer_update_matches_reference(
        self, tiny_code, rng, batch
    ):
        plan = DecodePlan(tiny_code)
        config = DecoderConfig(qformat=QFormat(8, 2))
        reference = ReferenceBackend(plan, config.replace(backend="reference"))
        fast = FastBackend(plan, config.replace(backend="fast"))
        app, lam = random_state(tiny_code, plan, config, batch, rng, np.int64)
        lam.reshape(-1)[::5] = 0
        app_ref = app.astype(reference.work_dtype)
        lam_ref = lam.astype(reference.work_dtype)
        app_fast = app.astype(fast.work_dtype)
        lam_fast = lam.astype(fast.work_dtype)
        for pos in range(plan.num_layers):
            flat = plan.flat_indices[pos]
            stored = lam_ref[plan.lambda_slices[pos]].reshape(flat.size, -1)
            equal = rng.random(stored.shape) < 0.25
            for sign in (-1, 0, 1):
                equal.flat[np.flatnonzero(np.sign(stored) == sign)[0]] = True
            for state in (app_ref, app_fast):
                state[flat] = np.where(equal, stored, state[flat])
            assert (app_ref[flat] == stored).mean() >= 0.1
            reference.update_layer(app_ref, lam_ref, pos)
            fast.update_layer(app_fast, lam_fast, pos)
            assert np.array_equal(app_ref, app_fast), f"APP after layer {pos}"
            assert np.array_equal(lam_ref, lam_fast), f"Λ after layer {pos}"


def phi_kernel_cumsum_oracle(lam, msg_clip):
    """The float Φ kernel in its earlier cumsum formulation.

    The exclusive Φ-sums come from ``np.cumsum`` along the degree axis,
    forward and reversed, and the extrinsic sign from ``np.where`` —
    the reference formulation the row-walking kernel must reproduce
    bit for bit.
    """
    phi = phi_transform(np.abs(lam), PHI_POLE_F32)
    forward = np.cumsum(phi, axis=1)
    backward = np.cumsum(phi[:, ::-1, :], axis=1)
    extrinsic = np.empty_like(phi)
    extrinsic[:, 0, :] = 0.0
    extrinsic[:, 1:, :] = forward[:, :-1, :]
    extrinsic[:, :-1, :] += backward[:, ::-1, :][:, 1:, :]
    magnitude = phi_transform(extrinsic, PHI_POLE_F32)
    negative = lam < 0
    flip = negative ^ (negative.sum(axis=1, keepdims=True) & 1).astype(bool)
    out = np.where(flip, -magnitude, magnitude)
    out.clip(-msg_clip, msg_clip, out=out)
    erased = (lam == 0).any(axis=1, keepdims=True)
    out[np.broadcast_to(erased, out.shape)] = 0
    return out


class TestPhiKernelExact:
    """The fast float Φ kernel equals its cumsum formulation exactly.

    The float goldens pin the reference backend, and the property
    harness checks fast float BP only for decision agreement, so this
    is what pins the fast float path's outputs: the same float32 sums
    in the same order, at every degree the registry's codes use (4 to
    18) and the running sums' edge cases (2 and 3).  Blocks hold exact
    zeros (erasures), values below the Φ pole, and fully saturated
    checks; outputs are compared as bytes, so -0.0 and +0.0 differ.
    """

    @pytest.mark.parametrize("degree", range(2, 21))
    def test_matches_cumsum_formulation(self, degree):
        config = DecoderConfig(backend="fast")
        backend = FastBackend(DecodePlan(get_code("802.16e:1/2:z24")), config)
        rng = np.random.default_rng(1000 + degree)
        width = 96 * 5
        lam = rng.normal(0.0, 6.0, (1, degree, width)).astype(np.float32)
        lam[0, :, : width // 8] = np.float32(config.llr_clip)
        lam[0, :, width // 8 : width // 4] = -np.float32(config.llr_clip)
        lam[0, rng.integers(0, degree, 16), rng.integers(0, width, 16)] = 0.0
        lam[0, rng.integers(0, degree, 16), rng.integers(0, width, 16)] = (
            np.float32(PHI_POLE_F32) / 4
        )
        lam[0, rng.integers(0, degree, 16), rng.integers(0, width, 16)] = 1e-30
        out = backend._kernel(lam)
        expected = phi_kernel_cumsum_oracle(lam, config.llr_clip)
        assert out.dtype == expected.dtype == np.float32
        assert out.tobytes() == expected.tobytes()


class TestFoldROMs:
    """Every entry of the compiled fixed-point ⊞/⊟ fold ROMs, replayed.

    The property harness samples messages, so it can miss a ROM entry;
    this replays all of them (~259k at guard 2, ~1.04M at guard 4)
    through the reference arithmetic.  Addresses are ``row base +
    message offset``, and ⊞ entries hold the next row base.
    """

    QFORMAT = QFormat(8, 2)

    @pytest.mark.parametrize("guard_bits", range(5))
    def test_every_entry_matches_reference_arithmetic(self, guard_bits):
        roms = fold_roms(self.QFORMAT, guard_bits)
        assert roms is not None  # all five guard settings compile at Q8.2
        m = self.QFORMAT.max_int
        width = 2 * m + 1
        messages = np.arange(-m, m + 1, dtype=np.int64)
        if guard_bits:
            tables = make_guard_tables(self.QFORMAT, guard_bits)
            bias = tables.state_max
            states = np.arange(-bias, bias + 1, dtype=np.int64)[:, None]
            guarded = messages * tables.factor
            seeded = guarded
            plus = tables.combine(states, guarded[None, :], tables.f)
            minus = tables.round_message(
                tables.combine(states, guarded[None, :], tables.g)
            )
        else:
            ops = FixedBoxOps(self.QFORMAT)
            bias = m
            states = messages[:, None]
            seeded = messages
            plus = ops.boxplus(states, messages[None, :])
            minus = ops.boxminus(states, messages[None, :])
        shape = (states.size, width)
        assert roms.first.shape == (width,)
        assert roms.rows.shape == roms.minus.shape == (states.size * width,)
        for bases in (roms.first, roms.rows):
            assert not (bases % width).any()
        np.testing.assert_array_equal(roms.first // width - bias, seeded)
        np.testing.assert_array_equal(
            roms.rows.reshape(shape) // width - bias, plus
        )
        np.testing.assert_array_equal(roms.minus.reshape(shape), minus)

    def test_roms_are_shared_and_read_only(self, small_code):
        config = DecoderConfig(backend="fast", qformat=self.QFORMAT)
        first = FastBackend(DecodePlan(small_code), config)._roms
        second = FastBackend(
            DecodePlan(get_code("802.11n:1/2:z27")), config
        )._roms
        other = FastBackend(
            DecodePlan(small_code), config.replace(siso_guard_bits=3)
        )._roms
        for name in ("first", "rows", "minus"):
            array = getattr(first, name)
            assert getattr(second, name) is array
            assert not array.flags.writeable
            assert getattr(other, name) is not array

    def test_racing_first_builds_share_one_set(self, monkeypatch):
        # Threads that miss the cache together may each build, but every
        # one must get the set that was published first.
        monkeypatch.setattr(fast_module, "_FOLD_ROM_CACHE", {})
        threads_n = 6
        barrier = threading.Barrier(threads_n)
        results = []

        def build():
            barrier.wait(timeout=10)
            results.append(fold_roms(self.QFORMAT, 1))

        threads = [threading.Thread(target=build) for _ in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == threads_n
        assert all(roms is results[0] for roms in results)


class TestEdgeCases:
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    @pytest.mark.parametrize("qformat", [None, QFormat(8, 2)])
    def test_empty_batch_layered(self, small_code, backend, qformat):
        config = DecoderConfig(backend=backend, qformat=qformat)
        result = LayeredDecoder(small_code, config).decode(
            np.zeros((0, small_code.n))
        )
        assert result.batch_size == 0
        assert result.bits.shape == (0, small_code.n)
        assert result.iterations.shape == (0,)
        assert result.converged.shape == (0,)
        assert result.info_bits.shape == (0, small_code.n_info)

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_empty_batch_flooding(self, small_code, backend):
        result = FloodingDecoder(
            small_code, DecoderConfig(backend=backend)
        ).decode(np.zeros((0, small_code.n)))
        assert result.batch_size == 0

    def test_single_frame_fast(self, small_code, small_encoder, rng):
        info, codewords = small_encoder.random_codewords(1, rng)
        llr = 8.0 * (1.0 - 2.0 * codewords[0].astype(np.float64))
        result = LayeredDecoder(
            small_code, DecoderConfig(backend="fast")
        ).decode(llr)
        assert result.batch_size == 1
        assert bool(result.converged[0])

    def test_batch_equals_single_fast(self, small_code, small_encoder):
        _, _, llr = make_noisy_llrs(small_code, small_encoder, 2.0, 4, 409)
        decoder = LayeredDecoder(small_code, DecoderConfig(backend="fast"))
        batch = decoder.decode(llr)
        for i in range(4):
            single = decoder.decode(llr[i])
            assert np.array_equal(single.bits[0], batch.bits[i])
            assert single.iterations[0] == batch.iterations[i]


class TestSweepEngineIntegration:
    def test_engine_decodes_on_the_configured_backend(self, small_code):
        from repro.runtime import SweepEngine

        decoder = LayeredDecoder(small_code, DecoderConfig(backend="fast"))
        assert isinstance(decoder.backend, FastBackend)
        engine = SweepEngine(
            small_code, decoder.config, seed=1, decoder=decoder
        )
        point = engine.run_point(3.0, max_frames=20, batch_size=10)
        assert point.frames == 20

    def test_fast_and_reference_statistics_close(self, small_code):
        from repro.runtime import SweepEngine

        points = {}
        for backend in ("reference", "fast"):
            engine = SweepEngine(
                small_code, DecoderConfig(backend=backend), seed=5
            )
            points[backend] = engine.run_point(
                3.0, max_frames=40, batch_size=20
            )
        delta = abs(
            points["reference"].frame_errors - points["fast"].frame_errors
        )
        assert delta <= 3
