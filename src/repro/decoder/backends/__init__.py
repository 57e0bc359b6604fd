"""Decoder backend registry.

A backend executes one compiled :class:`~repro.decoder.plan.DecodePlan`
(see :mod:`repro.decoder.backends.base`).  Two ship in-tree:

- ``"fast"`` (the default) — fused flat-index numpy kernels;
  bit-identical to the reference in fixed point, Φ-domain float32 BP in
  float.
- ``"reference"`` — the seed implementation's arithmetic, verbatim; the
  numerical oracle the fast kernels are checked against.

``DecoderConfig(backend=...)`` names the backend; any other name raises
:class:`~repro.errors.DecoderConfigError` at decoder construction.
"""

from __future__ import annotations

from repro.decoder.backends.base import DecoderBackend
from repro.decoder.backends.fast import FastBackend
from repro.decoder.backends.reference import ReferenceBackend
from repro.errors import DecoderConfigError

_REGISTRY: dict[str, type[DecoderBackend]] = {
    "reference": ReferenceBackend,
    "fast": FastBackend,
}


def registered_backends() -> tuple[str, ...]:
    """Every backend name ``DecoderConfig(backend=...)`` may select."""
    return tuple(_REGISTRY)


def make_backend(plan, config) -> DecoderBackend:
    """Instantiate the backend named by ``config.backend``."""
    backend = _REGISTRY.get(config.backend)
    if backend is None:
        raise DecoderConfigError(
            f"unknown decoder backend {config.backend!r}; "
            f"registered: {registered_backends()}"
        )
    return backend(plan, config)


__all__ = [
    "DecoderBackend",
    "FastBackend",
    "ReferenceBackend",
    "make_backend",
    "registered_backends",
]
