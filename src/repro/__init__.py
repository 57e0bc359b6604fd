"""repro — reproduction of Sun & Cavallaro, "A Low-Power 1-Gbps
Reconfigurable LDPC Decoder Design for Multiple 4G Wireless Standards"
(SOCC 2008).

The front door is :func:`repro.open`: like the chip's one mode-ROM
register update, one call retargets the whole stack.  It returns a
:class:`~repro.link.Link` session owning the full chain for one
``(mode, DecoderConfig)`` pair — code, encoder, modulator/AWGN
frontend, and the compiled decode plan + decoder pulled through a
shared process-level :class:`~repro.service.PlanCache`:

Quickstart::

    import repro

    link = repro.open("802.16e:1/2:z96", ebn0=2.0)   # WiMax N=2304
    outcome = link.run_frames(100)                   # TX -> AWGN -> decode
    print(outcome.ber, outcome.result.average_iterations)

    points = link.sweep([1.0, 2.0, 3.0], workers=4)  # parallel waterfall
    future = link.submit(outcome.channel_llr)        # dynamic-batch serving
    chip = link.chip()                               # cycle-accurate model

``repro.open_all(modes)`` opens several standards at once over one plan
cache — the software analogue of the chip's resident mode ROM.

Underneath, the library keeps its layers (all still importable
directly):

- **codes / encoder / channel** — QC-LDPC codes for 802.11n / 802.16e /
  DMB-T, linear-time encoding and an AWGN transmit chain;
- **decoder / fixedpoint** — the paper's layered belief-propagation
  decoder (Algorithm 1) in float and 8-bit fixed point, plus the
  min-sum / linear-approximation baselines and early termination;
- **arch** — a cycle-accurate model of the reconfigurable chip (SISO
  units, circular shifter, memory banks, pipeline stalls, mode ROM);
- **power / analysis / experiments** — calibrated area/power models and
  the harnesses regenerating every table and figure of the paper;
- **runtime / service** — the scaling layer: the unified
  :class:`~repro.runtime.SweepEngine` (parallel Monte-Carlo sharding
  with checkpoint/resume — ``Link.sweep`` runs through it), and the
  dynamic-batching multi-standard decode service backed by the plan
  cache (the software mode ROM) — hardened with per-request deadlines,
  bounded admission, supervised workers and deterministic fault
  injection (:class:`~repro.runtime.FaultPlan`);
- **server** — the asyncio network front door
  (:class:`~repro.server.DecodeServer` / ``DecodeClient``) speaking a
  framed binary protocol over the same service.
"""

from repro.arch import DecoderChip, PAPER_CHIP, DatapathParams
from repro.codes import (
    BaseMatrix,
    QCLDPCCode,
    get_code,
    list_modes,
    standards_summary,
)
from repro.decoder import (
    DecodeResult,
    DecoderConfig,
    FloodingDecoder,
    LayeredDecoder,
)
from repro.encoder import GenericEncoder, SystematicQCEncoder, make_encoder
from repro.fixedpoint import QFormat
from repro.link import (
    Link,
    LinkResult,
    default_plan_cache,
    open_all,
    open_link,
)
from repro.nr import HarqManager, HarqSession, NRRateMatcher
from repro.power import PowerModel, chip_area_breakdown
from repro.runtime import FaultPlan, SweepEngine
from repro.server import DecodeClient, DecodeServer
from repro.channel import estimate_snr, estimate_snr_db
from repro.service import (
    AdmissionPolicy,
    DecodePolicy,
    DecodeService,
    PlanCache,
    PolicyRule,
    RetryPolicy,
)

#: The one-call session entry point (see :mod:`repro.link`).
open = open_link

__version__ = "1.1.0"

__all__ = [
    "AdmissionPolicy",
    "BaseMatrix",
    "DatapathParams",
    "DecodeClient",
    "DecodePolicy",
    "DecodeResult",
    "DecodeServer",
    "DecodeService",
    "DecoderChip",
    "DecoderConfig",
    "FaultPlan",
    "FloodingDecoder",
    "GenericEncoder",
    "HarqManager",
    "HarqSession",
    "LayeredDecoder",
    "Link",
    "LinkResult",
    "NRRateMatcher",
    "PAPER_CHIP",
    "PlanCache",
    "PolicyRule",
    "PowerModel",
    "QCLDPCCode",
    "QFormat",
    "RetryPolicy",
    "SweepEngine",
    "SystematicQCEncoder",
    "__version__",
    "chip_area_breakdown",
    "default_plan_cache",
    "estimate_snr",
    "estimate_snr_db",
    "get_code",
    "list_modes",
    "make_encoder",
    "open",
    "open_all",
    "open_link",
    "standards_summary",
]
