"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  Errors are deliberately fine-grained: a decoder
misconfiguration is a different failure mode from a malformed parity-check
matrix, and callers (e.g. the benchmark harness) react differently to each.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class CodeError(ReproError):
    """Base class for code-definition failures (construction and lookup).

    One ``except CodeError`` covers everything that can go wrong between
    a mode string and a usable expanded code: malformed mode syntax,
    unknown catalogue entries, and construction/validation failures.
    """


class CodeConstructionError(CodeError):
    """A parity-check matrix could not be built or failed validation.

    Raised when a base matrix has out-of-range shift values, when a
    synthetic construction cannot satisfy its girth constraint within the
    retry budget, or when an expanded matrix is structurally inconsistent.
    """


class UnknownCodeError(CodeError, KeyError):
    """A registry lookup referenced a code mode that does not exist."""


class ModeParseError(CodeError, ValueError):
    """A mode string is syntactically or parametrically malformed.

    Raised for recognisable-but-wrong mode strings — e.g. ``"NR:bg1:z17"``
    (17 is not one of the 3GPP lifting sizes) or ``"NR:bg3:z16"`` — where
    the message names the valid parameters.  Also a :class:`ValueError`
    (it is an invalid argument, not a missing key), so it is deliberately
    *not* a :class:`KeyError`: callers formatting user input get a typed,
    self-explanatory error instead of a bare mapping miss.
    """


class EncodingError(ReproError):
    """Encoding failed (e.g. rank-deficient H with no usable null space)."""


class RateMatchError(ReproError, ValueError):
    """NR rate matching was configured or driven inconsistently.

    Examples: a non-NR code handed to
    :class:`repro.nr.NRRateMatcher`, a redundancy version outside
    ``0..3``, more filler bits than the systematic part can hold, or a
    soft-bit block whose length disagrees with the transmission it
    claims to de-rate-match.
    """


class HarqError(ReproError, ValueError):
    """An IR-HARQ session or manager was used inconsistently.

    Examples: combining a retransmission whose batch size disagrees
    with the soft buffer, or decoding a session that has not received
    any transmission yet.
    """


class DecoderConfigError(ReproError, ValueError):
    """A :class:`repro.decoder.api.DecoderConfig` contains invalid settings."""


class QuantizationError(ReproError, ValueError):
    """A fixed-point format is invalid (e.g. more fraction than total bits)."""


class ArchitectureError(ReproError):
    """The cycle-accurate architecture model was driven into an illegal state.

    Examples: issuing a read to a deactivated memory bank, exceeding the
    configured parallelism ``z_max``, or scheduling two writes to the same
    single-port memory in one cycle.
    """


class MemoryPortConflictError(ArchitectureError):
    """Two simultaneous accesses hit the same memory port in one cycle."""


class ReconfigurationError(ArchitectureError):
    """The decoder chip was asked to switch to an unsupported mode."""


class SimulationError(ReproError):
    """A Monte-Carlo simulation was configured inconsistently."""


class LinkError(ReproError, ValueError):
    """A :class:`repro.link.Link` session was used inconsistently.

    Examples: transmitting without an Eb/N0 operating point (neither the
    session default nor the call argument is set), an unknown decode
    schedule, or reconfiguring a session's already-running service.
    """


class ServiceError(ReproError):
    """Base class for decode-service failures.

    Everything the serving tier (:mod:`repro.service`,
    :mod:`repro.server`) can deliver through a request future derives
    from here, so a client needs exactly one ``except ServiceError`` to
    handle every service-side outcome that is not a decode result.
    """


class DeadlineExceeded(ServiceError, TimeoutError):
    """A request's per-request deadline expired before its result.

    Delivered through the request's future (never raised into the
    service loops): the request either waited in the admission queue
    past its deadline or was dispatched to a worker that did not finish
    in time.  Also a :class:`TimeoutError`, so generic timeout handling
    catches it.
    """


class ServiceOverloaded(ServiceError):
    """Admission control refused or shed a request.

    Raised synchronously by ``submit`` under the ``reject`` policy (full
    queue) or a per-client quota breach; delivered through the future of
    a victim request under the ``shed-oldest`` policy.
    """


class ServiceClosedError(ServiceError, ValueError):
    """``submit`` was called on a service that is closed or closing.

    Create a new :class:`~repro.service.DecodeService` (or use
    ``Link.serve()``, which transparently replaces a closed service).
    Also a :class:`ValueError` for backward compatibility with callers
    that caught the pre-hardening error.
    """


class WorkerCrashedError(ServiceError):
    """A worker thread or process died or hung while holding in-flight work.

    The supervised :class:`~repro.runtime.WorkerPool` delivers this to
    the futures of the work the lost worker held; the pool itself
    respawns the worker and keeps serving.
    """


class ProtocolError(ServiceError):
    """A malformed frame arrived on the decode-server wire protocol.

    Examples: bad magic bytes, an oversized or truncated header, JSON
    that does not parse, a payload whose byte length disagrees with the
    declared shape/dtype, or an unknown frame type.
    """


class InjectedFault(ReproError):
    """An error deliberately raised by a :class:`repro.runtime.faults.FaultPlan`.

    Chaos tests treat this as the canonical *transient* backend error:
    the service retry policy retries it by default.
    """
