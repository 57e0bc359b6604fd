"""Layered belief-propagation decoder (paper Algorithm 1).

One full iteration processes the ``j`` layers in sequence; for each layer:

1. **Read**:   gather the APP messages ``L_n`` of the participating block
   columns through the cyclic-shift routing (the circular shifter of
   Fig. 7) and the layer's stored check messages ``Λ_mn``;
2. **Decode**: ``λ_mn = L_n - Λ_mn``; new ``Λ_mn`` from the check-node
   kernel (the z parallel SISO decoders); ``L_n' = λ_mn + Λ_mn'``;
3. **Write back** the updated ``L`` and ``Λ``.

The code structure is compiled once into a
:class:`~repro.decoder.plan.DecodePlan` (flat gather/scatter tables —
the software analogue of the chip's shift/address ROMs) and the
per-layer arithmetic is delegated to a backend
(:mod:`repro.decoder.backends`): the fused ``fast`` kernels by default,
or the ``reference`` oracle when ``DecoderConfig(backend=...)`` names
it.  Both backends are vectorized across the batch *and* the ``z``
parallel check rows of each layer — the same data parallelism the
hardware exploits with its ``z`` SISO cores.

The working state is frame-minor: ``begin_decode`` conditions the
``(B, N)`` input once and transposes it into a C-contiguous ``(N, B)``
APP memory, with Λ as ``(total_blocks, z, B)``, so every gather index
moves a contiguous run of ``B`` words (the chip moves one rotated
memory word per block column).  ``finish`` transposes the latched
outputs back; every public shape stays ``(B, N)``.

Float and fixed-point datapaths share this module; the difference is the
dtype, the kernel, and saturating vs clipped arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.codes.qc import QCLDPCCode
from repro.decoder.api import DecodeResult, DecoderConfig
from repro.decoder.backends import make_backend
from repro.decoder.plan import DecodePlan, check_plan_compatible
from repro.decoder.state import DecodeState, advance, assemble_result


def prepare_channel_llrs(
    config: DecoderConfig, n: int, channel_llr: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Normalize channel input to a ``(B, N)`` array in datapath units.

    Input conditioning is quantization with zero-breaking in fixed
    point and clipping in float; both schedules condition through here.
    Returns the working array and whether the input was a single
    ``(N,)`` frame.
    """
    llr = np.asarray(channel_llr)
    single = llr.ndim == 1
    if single:
        llr = llr[None, :]
    if llr.ndim != 2 or llr.shape[1] != n:
        raise ValueError(
            f"channel LLRs must be (B, {n}); got {llr.shape}"
        )
    if config.is_fixed_point:
        # Channel LLRs enter through the 8-bit message port but live in
        # the wider APP memory thereafter.  Floats are quantized with
        # zero-breaking (an exactly-zero raw LLR is an absorbing
        # erasure under the sum-subtract SISO — the PR 3 bug);
        # integer inputs are the caller's explicit raw datapath
        # values and pass through saturation only.
        if np.issubdtype(llr.dtype, np.integer):
            working = config.qformat.saturate(llr.astype(np.int64))
        else:
            working = config.qformat.quantize_nonzero(llr)
    else:
        working = np.clip(
            llr.astype(np.float64), -config.llr_clip, config.llr_clip
        )
    return working, single


def frame_minor_llrs(
    config: DecoderConfig, n: int, dtype, channel_llr: np.ndarray
) -> np.ndarray:
    """Conditioned channel LLRs as a C-contiguous frame-minor ``(N, B)``.

    :func:`prepare_channel_llrs`, then the decode state's one transpose
    (and cast to the backend's working ``dtype``) in a single copy.
    """
    working, _ = prepare_channel_llrs(config, n, channel_llr)
    return np.ascontiguousarray(working.T, dtype=dtype)


class LayeredDecoder:
    """Block-serial layered BP decoder for one QC-LDPC code.

    Parameters
    ----------
    code:
        The expanded code.
    config:
        Decoder settings; defaults to the paper's configuration (full BP,
        sum-subtract check node, 10 iterations, paper early termination).
    plan:
        Optional prebuilt :class:`~repro.decoder.plan.DecodePlan` for
        this code and the config's ``layer_order`` — the sharing hook
        for :class:`~repro.service.PlanCache` (compiled plans are
        immutable and thread-shareable; see :meth:`DecodePlan.scratch`).
        Built fresh when omitted.  A plan for a different code or layer
        order raises :class:`~repro.errors.DecoderConfigError`.

    Examples
    --------
    >>> from repro.codes import get_code
    >>> from repro.decoder import LayeredDecoder, DecoderConfig
    >>> code = get_code("802.16e:1/2:z24")
    >>> decoder = LayeredDecoder(code, DecoderConfig(max_iterations=5))
    >>> import numpy as np
    >>> result = decoder.decode(10.0 * (1 - 2 * np.zeros(code.n)))
    >>> bool(result.converged[0])
    True
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
            plan = DecodePlan(code, self.config.layer_order)
        else:
            check_plan_compatible(plan, code, self.config.layer_order)
        self.plan = plan
        self.backend = make_backend(self.plan, self.config)

    # ------------------------------------------------------------------
    # Main decode loop (resumable: begin_decode / step / finish)
    # ------------------------------------------------------------------
    def begin_decode(self, channel_llr: np.ndarray) -> DecodeState:
        """Condition the input and build a resumable decode handle.

        No iterations run yet; drive the handle with :meth:`step` and
        collect the result with :meth:`finish`.  ``decode()`` is exactly
        begin + step-to-completion + finish, so sliced decodes are
        bit-identical to one-shot ones by construction.
        """
        app = frame_minor_llrs(
            self.config, self.code.n, self.backend.work_dtype, channel_llr
        )
        if app.shape[1] == 0:
            return DecodeState.empty(
                DecodeResult.empty(self.code.n, self.code.n_info)
            )
        lam = np.zeros(
            (self.plan.total_blocks, self.code.z, app.shape[1]),
            dtype=app.dtype,
        )
        return DecodeState.start(self.code, self.config, (app, lam))

    def _iterate_once(self, state: DecodeState) -> None:
        """One full iteration of layer updates over the working arrays."""
        app, lam = state.arrays
        for layer_pos in range(self.plan.num_layers):
            self.backend.update_layer(app, lam, layer_pos)

    def step(
        self, state: DecodeState, max_new_iterations: int | None = None
    ) -> DecodeState:
        """Run up to ``max_new_iterations`` full iterations (all if None).

        Converged frames retire through the
        :class:`~repro.decoder.compaction.ActiveFrameSet` seam exactly
        as in a one-shot decode; ``state.done`` reports completion.
        """
        return advance(state, self.config, self._iterate_once,
                       max_new_iterations)

    def finish(self, state: DecodeState) -> DecodeResult:
        """The :class:`DecodeResult` of a completed state."""
        return assemble_result(self.code, self.config, state)

    def decode(self, channel_llr: np.ndarray) -> DecodeResult:
        """Decode one frame or a batch of frames.

        Parameters
        ----------
        channel_llr:
            ``(N,)`` or ``(B, N)`` channel LLRs.  Floats are quantized
            automatically when the decoder is fixed-point; integer inputs
            are interpreted as raw datapath values.  A ``(0, N)`` batch
            returns an empty :class:`DecodeResult`.

        Returns
        -------
        DecodeResult
            Final LLRs are always reported in LLR units.  Single-frame
            inputs keep batch-first shapes (index ``[0]``).
        """
        return self.finish(self.step(self.begin_decode(channel_llr)))
