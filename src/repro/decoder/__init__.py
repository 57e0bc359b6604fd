"""Functional LDPC decoders: layered BP (the paper), flooding, baselines.

Public surface:

- :class:`DecoderConfig`, :class:`DecodeResult` — configuration/result types;
- :class:`LayeredDecoder` — paper Algorithm 1 (float or fixed point);
- :class:`FloodingDecoder` — two-phase scheduling baseline;
- :class:`DecodePlan` — compiled gather/scatter schedule (shift-ROM analogue);
- the backend registry in :mod:`repro.decoder.backends`: the fused
  ``fast`` kernels by default, the ``reference`` oracle by name
  (``DecoderConfig(backend="reference")``);
- check-node kernels in :mod:`repro.decoder.siso` (BP sum-sub /
  forward-backward, min-sum family, linear approximation);
- early-termination monitors in :mod:`repro.decoder.early_termination`.
"""

from repro.decoder.api import (
    BP_IMPLEMENTATIONS,
    CHECK_NODE_ALGORITHMS,
    ET_MODES,
    DecodeResult,
    DecoderConfig,
)
from repro.decoder.backends import (
    DecoderBackend,
    FastBackend,
    ReferenceBackend,
    make_backend,
    registered_backends,
)
from repro.decoder.bitflipping import GallagerBDecoder
from repro.decoder.compaction import ActiveFrameSet
from repro.decoder.early_termination import (
    CombinedEarlyTermination,
    PaperEarlyTermination,
    SyndromeEarlyTermination,
    make_early_termination,
    make_monitor,
)
from repro.decoder.flooding import FloodingDecoder
from repro.decoder.layered import LayeredDecoder, prepare_channel_llrs
from repro.decoder.plan import DecodePlan, resolve_layer_order
from repro.decoder.state import DecodeState
from repro.decoder.backends.base import KERNEL_TABLE, kernel_slot
from repro.decoder.siso import (
    BPForwardBackwardKernel,
    BPSumSubKernel,
    FixedBPForwardBackwardKernel,
    FixedBPSumSubKernel,
    GuardedFixedBPSumSubKernel,
    LinearApproxKernel,
    MinSumKernel,
    make_checknode_kernel,
)

__all__ = [
    "ActiveFrameSet",
    "BP_IMPLEMENTATIONS",
    "BPForwardBackwardKernel",
    "BPSumSubKernel",
    "CHECK_NODE_ALGORITHMS",
    "CombinedEarlyTermination",
    "DecodePlan",
    "DecodeResult",
    "DecodeState",
    "DecoderBackend",
    "DecoderConfig",
    "ET_MODES",
    "FastBackend",
    "FixedBPForwardBackwardKernel",
    "FixedBPSumSubKernel",
    "FloodingDecoder",
    "GallagerBDecoder",
    "GuardedFixedBPSumSubKernel",
    "KERNEL_TABLE",
    "kernel_slot",
    "LayeredDecoder",
    "LinearApproxKernel",
    "MinSumKernel",
    "PaperEarlyTermination",
    "ReferenceBackend",
    "SyndromeEarlyTermination",
    "make_backend",
    "make_checknode_kernel",
    "make_early_termination",
    "make_monitor",
    "prepare_channel_llrs",
    "registered_backends",
    "resolve_layer_order",
]
