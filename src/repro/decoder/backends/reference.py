"""The original (pre-plan) decoder arithmetic — the numerical ground truth.

This backend executes the straightforward numpy form of every datapath —
per-edge sequential ⊞/⊟ recursions through :mod:`repro.decoder.siso`
kernels, int64 intermediates with explicit Q-format saturation — so
every other backend is validated against it (bit-identical in fixed
point, within documented tolerance in float).

Two deliberate departures from the seed implementation, shared by every
backend (see :mod:`repro.decoder.backends.base`), fix the PR 3 Q8.2
non-convergence bug:

- fixed-point v→c messages are *zero-broken* at the message port
  (:func:`~repro.decoder.backends.base.break_zero_messages`);
- the fixed BP sum-subtract kernel carries
  ``DecoderConfig.siso_guard_bits`` extra fractional bits internally
  (:class:`~repro.decoder.siso.GuardedFixedBPSumSubKernel`).
"""

from __future__ import annotations

import numpy as np

from repro.decoder.backends.base import DecoderBackend, break_zero_messages


class ReferenceBackend(DecoderBackend):
    """Ground-truth backend wrapping the original SISO kernels."""

    name = "reference"

    def __init__(self, plan, config):
        super().__init__(plan, config)
        self.kernel = self._select_kernel()

    def update_layer(self, l_messages, lambdas, layer_pos):
        config = self.config
        flat = self.plan.flat_indices[layer_pos]
        sl = self.plan.lambda_slices[layer_pos]
        memory = lambdas[sl]  # (d, z, B)
        shape = (1, memory.shape[0], -1)
        gathered = l_messages[flat].reshape(shape)  # (1, d, z·B), APP format
        stored = memory.reshape(shape)
        if config.is_fixed_point:
            # λ enters the SISO through the narrow message port; the APP
            # write-back uses the wider accumulator format.
            lam_new = config.qformat.saturate(
                gathered.astype(np.int64) - stored
            )
            break_zero_messages(lam_new, stored)
            lambda_new = self.kernel(lam_new)
            updated = config.app_qformat.saturate(
                lam_new.astype(np.int64) + lambda_new
            )
        else:
            lam_new = np.clip(
                gathered - stored,
                -config.llr_clip,
                config.llr_clip,
            )
            lambda_new = self.kernel(lam_new)
            updated = np.clip(
                lam_new + lambda_new,
                -config.effective_app_clip,
                config.effective_app_clip,
            )
        l_messages[flat] = updated.reshape(flat.size, -1)
        lambdas[sl] = lambda_new.reshape(memory.shape)

    def compute_check(self, lam_vc, layer_pos):
        return self.kernel(lam_vc)
