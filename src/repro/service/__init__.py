"""Multi-standard decode serving: dynamic batching over cached plans.

The paper's chip serves mixed 802.16e / 802.11n / DMB-T traffic through
one datapath, switching modes via a ROM record read.  This package is
the production-software analogue of that operating condition:

- :class:`PlanCache` — LRU of compiled decode state (plans, fixed-point
  ROM tables, decoders) keyed by ``(mode, DecoderConfig.cache_key())``;
  a mode switch is a cache hit, like the chip's control-register update;
- :class:`DecodeService` — accepts per-client requests, batches them
  dynamically by ``(mode, config)`` under ``max_batch``/``max_wait``,
  decodes on a supervised pool of worker processes (one thread on a
  one-core host), and resolves per-request futures in per-client FIFO
  order — with per-request deadlines, bounded admission
  (:class:`AdmissionPolicy`), transient-failure retries
  (:class:`RetryPolicy`) and a no-hung-futures guarantee;
- :class:`ServiceMetrics` — frames/s, latency quantiles, batch fill,
  queue depth, cache and mode-switch counters plus the robustness
  counters (rejected / shed / timed-out / retried) and the
  power-aware serving gauges (energy per bit, iteration savings),
  exportable as Prometheus text via :func:`prometheus_text`;
- :class:`DecodePolicy` / :class:`PolicyRule` — adaptive per-request
  config selection from an operating-SNR estimate, including the
  service-tier ``"paper-or-syndrome"`` early-termination default
  (:data:`SERVICE_EARLY_TERMINATION`, applied to defaulted configs via
  :func:`service_default_config`).

See ``examples/decode_service.py`` for a quickstart,
``tests/test_service_stress.py`` for the bit-identity stress contract
and ``tests/test_service_faults.py`` for the chaos matrix.  The
network-facing front door lives in :mod:`repro.server`.
"""

from repro.service.admission import (
    OVERLOAD_POLICIES,
    AdmissionPolicy,
    RetryPolicy,
)
from repro.service.cache import CacheEntry, PlanCache
from repro.service.metrics import ServiceMetrics, prometheus_text
from repro.service.policy import (
    DEFAULT_RULES,
    SERVICE_EARLY_TERMINATION,
    DecodePolicy,
    PolicyRule,
    service_default_config,
)
from repro.service.service import DecodeService

__all__ = [
    "AdmissionPolicy",
    "CacheEntry",
    "DEFAULT_RULES",
    "DecodePolicy",
    "DecodeService",
    "OVERLOAD_POLICIES",
    "PlanCache",
    "PolicyRule",
    "RetryPolicy",
    "SERVICE_EARLY_TERMINATION",
    "ServiceMetrics",
    "prometheus_text",
    "service_default_config",
]
