"""Backend interface: how decoders execute a compiled plan.

A backend owns the arithmetic of one decode schedule step; the decoders
(:class:`~repro.decoder.layered.LayeredDecoder`,
:class:`~repro.decoder.flooding.FloodingDecoder`) own the iteration and
early-termination logic.  The split matches the hardware: the SISO array
plus shifter (backend) versus the control sequencer (decoder).

Every backend implements two entry points against a
:class:`~repro.decoder.plan.DecodePlan`:

- :meth:`update_layer` — one in-place layered sub-iteration
  (gather, ``λ = L - Λ``, check kernel, ``L' = λ + Λ'`` scatter);
- :meth:`compute_check` — the bare check-node kernel on already-formed
  variable-to-check messages (the flooding check phase).

**Batch contract.** The leading (batch) dimension is owned by the
decoder and *shrinks between calls* under active-frame compaction
(``DecoderConfig(compact_frames=True)``, the default): frames whose
early-termination rule fired are scattered out of the working arrays
after each full iteration.  Backends must therefore size every kernel
invocation from the arrays they are handed — never cache the batch size
at construction — and must be elementwise along the batch axis, so that
removing a row cannot perturb any surviving row's arithmetic (this is
what makes compacted and uncompacted decodes bit-identical).  Per-call
working buffers should come from :meth:`DecodePlan.scratch`, whose
leading dimension is a capacity: shrinking batches reuse one allocation.

**Kernel selection.** Which check-node kernel implementation a backend
runs is routed through :data:`KERNEL_TABLE`: the configuration maps to
a kernel *slot name* and the backend instantiates its own
implementation of that slot via a ``_make_<slot>`` method, falling back
to the shared reference kernels (:func:`make_checknode_kernel`) for any
slot it does not specialize.  This replaces per-backend ``if`` chains
and guarantees an unknown algorithm dies with
:class:`~repro.errors.DecoderConfigError` rather than a silent
fallback.

**Fixed-point message port.** In fixed point, every v→c message ``λ``
is formed as a saturating ``L - Λ`` and then *zero-broken*: an exactly
zero result is replaced by ``±1`` raw with the sign of the (equal)
operands.  A true zero is an erasure, and erasures are absorbing under
the sum-subtract check node (``sign(0)`` annihilates the ⊞ recursion;
``0 ⊟ 0`` cannot recover the excluded combine) — the PR 3
non-convergence bug.  All backends and both schedules share
:func:`break_zero_messages` so the datapath stays bit-identical across
them.
"""

from __future__ import annotations

import numpy as np

from repro.decoder.api import DecoderConfig
from repro.decoder.plan import DecodePlan
from repro.decoder.siso import make_checknode_kernel
from repro.errors import DecoderConfigError

#: ``(check_node, bp_impl or None, is_fixed_point)`` → kernel slot name.
#: The slot is resolved against the backend instance (``_make_<slot>``),
#: with the shared reference kernel as the universal fallback.
KERNEL_TABLE: dict[tuple[str, str | None, bool], str] = {
    ("bp", "sum-sub", True): "bp_sumsub_fixed",
    ("bp", "sum-sub", False): "bp_sumsub_float",
    ("bp", "forward-backward", True): "bp_fwdbwd_fixed",
    ("bp", "forward-backward", False): "bp_fwdbwd_float",
    ("minsum", None, True): "minsum_fixed",
    ("minsum", None, False): "minsum_float",
    ("normalized-minsum", None, True): "minsum_fixed",
    ("normalized-minsum", None, False): "minsum_float",
    ("offset-minsum", None, True): "minsum_fixed",
    ("offset-minsum", None, False): "minsum_float",
    ("linear-approx", None, True): "linear_approx_fixed",
    ("linear-approx", None, False): "linear_approx_float",
}


def kernel_slot(config: DecoderConfig) -> str:
    """The :data:`KERNEL_TABLE` slot a configuration resolves to.

    Raises
    ------
    DecoderConfigError
        For an algorithm/realization pair the table does not know —
        the guard that keeps an unvalidated config from dying deep in a
        backend with a bare ``KeyError``.
    """
    key = (
        config.check_node,
        config.bp_impl if config.check_node == "bp" else None,
        config.is_fixed_point,
    )
    try:
        return KERNEL_TABLE[key]
    except KeyError:
        raise DecoderConfigError(
            f"no check-node kernel for check_node={config.check_node!r}, "
            f"bp_impl={config.bp_impl!r} "
            f"({'fixed' if config.is_fixed_point else 'float'} datapath); "
            f"known combinations: {sorted(KERNEL_TABLE)}"
        ) from None


def break_zero_messages(messages: np.ndarray, lam_memory: np.ndarray) -> None:
    """Replace exactly-zero v→c messages with ``±1`` raw, in place.

    ``messages`` is the saturating ``L - Λ`` of one layer; a zero entry
    implies ``L == Λ`` exactly (zero survives no saturation), so the
    sign of the stored check message — passed as ``lam_memory``, the
    cheaper operand to index — equals the sign of the APP and is used
    as the broken sign (``+1`` when both are zero).  See the module
    docstring for why zeros must not reach the check kernels.
    """
    zero = messages == 0
    if zero.any():
        messages[zero] = np.where(lam_memory[zero] < 0, -1, 1)


class DecoderBackend:
    """Abstract backend bound to one (plan, config) pair."""

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(self, plan: DecodePlan, config: DecoderConfig):
        self.plan = plan
        self.config = config
        #: dtype the decoders allocate working state (APP / Λ memories)
        #: in; backends may override (e.g. float32 for bandwidth).
        self.work_dtype = np.int32 if config.is_fixed_point else np.float64

    def _select_kernel(self):
        """Instantiate this backend's kernel for the configured slot."""
        slot = kernel_slot(self.config)
        factory = getattr(self, f"_make_{slot}", None)
        if factory is None:
            return make_checknode_kernel(self.config)
        return factory()

    def update_layer(
        self, l_messages: np.ndarray, lambdas: np.ndarray, layer_pos: int
    ) -> None:
        """One layered sub-iteration, in place.

        Parameters
        ----------
        l_messages:
            ``(B, N)`` APP memory (raw integers in fixed-point mode).
        lambdas:
            ``(B, total_blocks, z)`` packed check-message memory.
        layer_pos:
            Position in the plan's processing order.
        """
        raise NotImplementedError

    def compute_check(self, lam_vc: np.ndarray, layer_pos: int) -> np.ndarray:
        """Check messages ``Λ`` for given v→c messages ``(B, d_l, z)``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(plan={self.plan!r})"
