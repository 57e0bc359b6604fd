"""Two-phase (flooding) BP decoder — the scheduling baseline.

Layered BP (paper ref [6]) converges roughly twice as fast as flooding
because each layer immediately consumes the APP updates of the previous
layers within the same iteration.  This module implements the classic
flooding schedule over the same QC structure and check-node backends so
the convergence-speed ablation isolates *scheduling only*.

Message state: check-to-variable messages ``Λ`` per non-zero block; the
variable-to-check messages are formed as ``L_total - Λ`` where ``L_total``
is the frozen APP of the previous iteration (standard APP-based flooding
formulation).  The check-node arithmetic goes through the same compiled
:class:`~repro.decoder.plan.DecodePlan` + backend pair as the layered
decoder (``fast`` by default, ``reference`` when the config names it).
"""

from __future__ import annotations

import numpy as np

from repro.codes.qc import QCLDPCCode
from repro.decoder.api import DecodeResult, DecoderConfig
from repro.decoder.backends import make_backend
from repro.decoder.backends.base import break_zero_messages
from repro.decoder.layered import frame_minor_llrs
from repro.decoder.plan import DecodePlan, check_plan_compatible
from repro.decoder.state import DecodeState, advance, assemble_result


class FloodingDecoder:
    """Flooding-schedule BP decoder (same backend interface as layered).

    Parameters
    ----------
    code:
        The expanded code.
    config:
        Decoder settings.  ``layer_order`` is irrelevant under flooding
        and ignored.
    plan:
        Optional prebuilt natural-order plan (see
        :class:`~repro.decoder.layered.LayeredDecoder`); flooding always
        processes in natural order, so a reordered plan is rejected.
    """

    def __init__(
        self,
        code: QCLDPCCode,
        config: DecoderConfig | None = None,
        plan: DecodePlan | None = None,
    ):
        self.code = code
        self.config = config if config is not None else DecoderConfig()
        if plan is None:
            plan = DecodePlan(code)  # natural order; flooding has no layers
        else:
            check_plan_compatible(plan, code, None)
        self.plan = plan
        self.backend = make_backend(self.plan, self.config)

    def begin_decode(self, channel_llr: np.ndarray) -> DecodeState:
        """Condition the input and build a resumable decode handle.

        Same contract as :meth:`LayeredDecoder.begin_decode
        <repro.decoder.layered.LayeredDecoder.begin_decode>`, and the
        same conditioning and frame-minor ``(N, B)`` state.
        """
        channel = frame_minor_llrs(
            self.config, self.code.n, self.backend.work_dtype, channel_llr
        )
        batch = channel.shape[1]
        if batch == 0:
            return DecodeState.empty(
                DecodeResult.empty(self.code.n, self.code.n_info)
            )
        lam = np.zeros(
            (self.plan.total_blocks, self.code.z, batch), dtype=channel.dtype
        )
        return DecodeState.start(
            self.code, self.config, (channel.copy(), lam, channel)
        )

    def _iterate_once(self, state: DecodeState) -> None:
        """One flooding iteration: check phase, then variable phase."""
        config = self.config
        plan = self.plan
        l_total, lam, channel = state.arrays
        # Check phase: all layers from the frozen APP of last
        # iteration.  Layers sharing a check degree have identically
        # shaped messages, and every kernel is elementwise along its
        # last axis, so each degree bucket is evaluated in one kernel
        # call on the layers' (1, d, z·B) blocks side by side
        # (bit-identical to per-layer calls, far fewer Python-level
        # kernel invocations).
        new_lambda = np.empty_like(lam)
        for degree, positions in plan.degree_buckets.items():
            shape = (1, degree, -1)
            gathered = []
            for pos in positions:
                app = l_total[plan.flat_indices[pos]].reshape(shape)
                stored = lam[plan.lambda_slices[pos]].reshape(shape)
                if config.is_fixed_point:
                    # v->c messages pass through the narrow message
                    # port (zero-broken, like the layered path).
                    lam_vc = config.qformat.saturate(
                        app.astype(np.int64) - stored
                    )
                    break_zero_messages(lam_vc, stored)
                    gathered.append(lam_vc)
                else:
                    gathered.append(
                        np.clip(
                            app - stored, -config.llr_clip, config.llr_clip
                        )
                    )
            stacked = (
                np.concatenate(gathered, axis=2)
                if len(gathered) > 1
                else gathered[0]
            )
            checked = self.backend.compute_check(stacked, positions[0])
            width = stacked.shape[2] // len(positions)
            for i, pos in enumerate(positions):
                block = new_lambda[plan.lambda_slices[pos]]
                part = checked[0, :, i * width : (i + 1) * width]
                block[...] = part.reshape(block.shape)
        lam = new_lambda

        # Variable phase: APP = channel + sum of check messages, held in
        # the wider APP accumulator format (and stored back in the
        # backend's working dtype).
        accumulator = channel.astype(
            np.int64 if config.is_fixed_point else self.backend.work_dtype,
            copy=True,
        )
        for pos, flat in enumerate(plan.flat_indices):
            accumulator[flat] += lam[plan.lambda_slices[pos]].reshape(
                flat.size, -1
            )
        if config.is_fixed_point:
            l_total = config.app_qformat.saturate(accumulator).astype(
                channel.dtype, copy=False
            )
        else:
            l_total = np.clip(
                accumulator,
                -config.effective_app_clip,
                config.effective_app_clip,
            )
        state.arrays = (l_total, lam, channel)

    def step(
        self, state: DecodeState, max_new_iterations: int | None = None
    ) -> DecodeState:
        """Run up to ``max_new_iterations`` full iterations (all if None)."""
        return advance(state, self.config, self._iterate_once,
                       max_new_iterations)

    def finish(self, state: DecodeState) -> DecodeResult:
        """The :class:`DecodeResult` of a completed state."""
        return assemble_result(self.code, self.config, state)

    def decode(self, channel_llr: np.ndarray) -> DecodeResult:
        """Decode ``(N,)`` or ``(B, N)`` channel LLRs (see LayeredDecoder)."""
        return self.finish(self.step(self.begin_decode(channel_llr)))
