"""Decoder backend registry.

A backend executes one compiled :class:`~repro.decoder.plan.DecodePlan`
(see :mod:`repro.decoder.backends.base`).  Two ship in-tree:

- ``"reference"`` — the seed implementation's arithmetic, verbatim; the
  numerical ground truth.
- ``"fast"`` — fused flat-index numpy kernels; bit-identical to the
  reference in fixed point, LUT-approximate (or optionally exact) in
  float.

Selection: ``DecoderConfig(backend=...)`` names a backend directly; the
default ``"auto"`` honours the ``REPRO_DECODER_BACKEND`` environment
variable and otherwise picks ``"reference"`` (so existing numerics are
unchanged unless a caller opts in).  Any other name raises
:class:`~repro.errors.DecoderConfigError`.
"""

from __future__ import annotations

import os

from repro.decoder.backends.base import DecoderBackend
from repro.decoder.backends.fast import FastBackend
from repro.decoder.backends.reference import ReferenceBackend
from repro.errors import DecoderConfigError

#: Environment variable consulted by ``backend="auto"``.
ENV_BACKEND = "REPRO_DECODER_BACKEND"

#: Backend chosen by ``"auto"`` when the environment does not override.
DEFAULT_BACKEND = "reference"

_REGISTRY: dict[str, type[DecoderBackend]] = {
    "reference": ReferenceBackend,
    "fast": FastBackend,
}


def registered_backends() -> tuple[str, ...]:
    """Every backend name ``DecoderConfig(backend=...)`` may select."""
    return tuple(_REGISTRY)


def resolve_backend_name(name: str | None = None) -> str:
    """Map a configured backend name to the one that will actually run.

    ``None``/``"auto"`` consults :data:`ENV_BACKEND`, then falls back to
    :data:`DEFAULT_BACKEND`; an unknown name raises.
    """
    requested = name if name is not None else "auto"
    if requested == "auto":
        requested = os.environ.get(ENV_BACKEND, "").strip() or DEFAULT_BACKEND
    if requested not in _REGISTRY:
        raise DecoderConfigError(
            f"unknown decoder backend {requested!r}; "
            f"registered: {registered_backends()}"
        )
    return requested


def make_backend(plan, config) -> DecoderBackend:
    """Instantiate the backend selected by ``config.backend``."""
    name = resolve_backend_name(getattr(config, "backend", None))
    return _REGISTRY[name](plan, config)


__all__ = [
    "DEFAULT_BACKEND",
    "DecoderBackend",
    "ENV_BACKEND",
    "FastBackend",
    "ReferenceBackend",
    "make_backend",
    "registered_backends",
    "resolve_backend_name",
]
