"""Decoder configuration and result types.

:class:`DecoderConfig` captures every knob the paper (and its ablations)
exposes: the check-node algorithm (full BP vs the min-sum family vs the
linear approximation of ref [4]), the hardware-faithful *sum-subtract*
check-node realization vs the numerically gentler forward-backward one,
the fixed-point datapath format, the scheduling, and the early-termination
rule of §IV.

:class:`DecodeResult` is a batch-first container: every per-frame quantity
is an array over the batch dimension.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

from repro.errors import DecoderConfigError, QuantizationError
from repro.fixedpoint.quantize import QFormat

#: Valid check-node algorithm names.
CHECK_NODE_ALGORITHMS = (
    "bp",
    "minsum",
    "normalized-minsum",
    "offset-minsum",
    "linear-approx",
)

#: Valid BP check-node realizations.
BP_IMPLEMENTATIONS = ("sum-sub", "forward-backward")

#: Valid early-termination rules.
ET_MODES = ("none", "paper", "syndrome", "paper-or-syndrome")

#: Widest fixed-point APP word (``qformat.total_bits + app_extra_bits``)
#: every backend can decode: both hold their state in int32, and a
#: layer update forms ``L - Λ`` before saturating it, which needs one
#: bit of headroom over the APP word.
MAX_APP_BITS = 31


def _require_int(name: str, value, low: int, high: int | None = None) -> None:
    """Raise unless ``value`` is an int (not a bool) in ``[low, high]``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DecoderConfigError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise DecoderConfigError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise DecoderConfigError(f"{name} must be in {low}..{high}, got {value}")


def _require_number(name: str, value) -> None:
    """Raise unless ``value`` is a real number other than NaN."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or math.isnan(value)
    ):
        raise DecoderConfigError(f"{name} must be a number, got {value!r}")


def _qformat_from_dict(value) -> QFormat:
    """Parse the ``["QFormat", total_bits, frac_bits]`` wire form.

    The bare ``[total_bits, frac_bits]`` pair is accepted too.
    """
    parts = list(value) if isinstance(value, (list, tuple)) else None
    if parts and len(parts) == 3 and parts[0] == "QFormat":
        parts = parts[1:]
    if (
        parts is None
        or len(parts) != 2
        or any(isinstance(p, bool) or not isinstance(p, int) for p in parts)
    ):
        raise DecoderConfigError(
            f'qformat must be ["QFormat", total_bits, frac_bits] or null, '
            f"got {value!r}"
        )
    try:
        return QFormat(*parts)
    except QuantizationError as exc:
        raise DecoderConfigError(f"qformat {value!r}: {exc}") from None


def _canonical_value(value):
    """Primitive, hashable, JSON-expressible identity of one field value.

    Shared by :meth:`DecoderConfig.cache_key` and
    :meth:`DecoderConfig.to_dict` so the cache identity and the wire
    format can never disagree.  Non-finite floats are canonicalized to
    the strings ``"inf"`` / ``"-inf"`` / ``"nan"``: two configs built
    with e.g. ``app_clip=float("inf")`` must produce equal keys (NaN
    would otherwise compare unequal to itself inside the key tuple),
    and strict JSON has no literal for any of the three.
    """
    if isinstance(value, QFormat):
        return ("QFormat", value.total_bits, value.frac_bits)
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    return value


@dataclass(frozen=True)
class DecoderConfig:
    """Immutable decoder settings.

    Parameters
    ----------
    check_node:
        ``"bp"`` (the paper's algorithm), ``"minsum"``,
        ``"normalized-minsum"``, ``"offset-minsum"`` (baseline of [3]) or
        ``"linear-approx"`` (baseline of [4]).
    bp_impl:
        For ``check_node="bp"``: ``"sum-sub"`` reproduces the hardware
        (one ⊞ recursion then per-edge ⊟, Eq. 1); ``"forward-backward"``
        is the textbook exclusive combine.  Ignored otherwise.
    max_iterations:
        Full LBP iterations ``I`` (the paper uses 10).
    early_termination:
        ``"paper"`` = the two-condition rule of §IV; ``"syndrome"`` = stop
        on zero syndrome; ``"paper-or-syndrome"`` = either; ``"none"``.
    et_threshold:
        Minimum info-bit |LLR| (in LLR units) for the paper rule's second
        condition.
    qformat:
        ``None`` for a floating-point decoder, or a
        :class:`~repro.fixedpoint.quantize.QFormat` for the integer
        datapath with 3-bit LUT corrections.
    normalization:
        Scale factor for ``"normalized-minsum"``.
    offset:
        Offset (LLR units) for ``"offset-minsum"``.
    layer_order:
        Optional processing permutation of the layers (paper §III-C:
        shuffling layers avoids pipeline stalls; it also changes the
        serial update order, which this functional model honours).
    llr_clip:
        Saturation magnitude of the *extrinsic message* datapath.  The
        float default (256) is intentionally generous: once messages rail
        against a tight clip, layered decoding suffers a *saturation
        contagion* (a single wrong-sign saturated extrinsic can cancel a
        saturated APP because ``λ = L - Λ`` is capped), which degrades
        frames that keep iterating past convergence.  The fixed-point
        datapath reproduces the hardware behaviour (tight saturation)
        deliberately; pair it with early termination as the chip does.
        See ``benchmarks/bench_ablation_quantization.py``.
    app_extra_bits:
        Extra integer bits of the APP (L) memory over the message format
        (fixed-point mode).  APP accumulators wider than the extrinsic
        messages are essential in layered decoding: if ``L`` and ``Λ``
        saturate at the same magnitude, ``λ = L - Λ`` collapses to zero at
        convergence and the sum-subtract SISO destroys the decision.  Every
        practical chip (including this paper's 8-bit message datapath)
        keeps the APP wider; the default is 2 bits.  The APP word,
        ``qformat.total_bits + app_extra_bits``, may not exceed
        :data:`MAX_APP_BITS`.
    siso_guard_bits:
        Extra *fractional* bits the fixed-point BP sum-subtract SISO
        carries internally through its ⊞ recursion and ⊟ inversion
        (messages stay in ``qformat`` at the ports).  The ⊟ step
        recovers each extrinsic by inverting the full ⊞ fold, which is
        ill-conditioned at the weakest edge; at the message format's own
        resolution the inversion noise costs the Q8.2 datapath ~0.5 dB
        and lets converged frames be re-corrupted (the PR 3
        non-convergence bug).  The default of 2 guard bits brings
        fixed-point BER within the paper's ~0.1 dB of the float curve.
        ``0`` restores the seed-era single-resolution fold (the
        quantization-ablation baseline).  Ignored by float
        configurations and by non-(BP sum-sub) check nodes.
    app_clip:
        Float-mode APP saturation; ``None`` selects
        ``llr_clip * 2^app_extra_bits`` to mirror the fixed datapath.
    compact_frames:
        Active-frame compaction (default on): frames that early-terminate
        are scattered out of the working batch each iteration, so the
        per-iteration kernel cost tracks the number of *surviving* frames
        (the average-iteration economics of paper §IV) instead of the
        batch size.  ``False`` keeps retired frames in the working batch
        until every frame has stopped — the carry-through baseline the
        compaction speedup is measured against.  Because every kernel is
        elementwise along the batch axis, the two modes are bit-identical
        in all outputs (asserted by ``tests/test_backend_properties.py``);
        only the work per iteration differs.
    backend:
        Which execution backend runs the compiled decode plan (see
        :mod:`repro.decoder.backends`): ``"fast"`` (the default; fused
        kernels for every algorithm: ROM/table ⊞/⊟ folds and
        two-smallest min-sum reductions in fixed point — bit-identical
        to the reference — and single-pass float32 Φ-domain BP and fused
        min-sum kernels in float) or ``"reference"`` (the plain numpy
        arithmetic, the oracle the fast kernels are checked against).
        Any other name raises :class:`~repro.errors.DecoderConfigError`
        at decoder construction.

        The fast float BP sum-subtract kernel evaluates the check node
        in the Φ ("tanh rule") domain with exclusive prefix/suffix
        Φ-sums, in float32 for memory bandwidth: it matches the
        reference to ~2e-7 relative per call on the operating range.
        Φ underflows beyond |λ| ≈ 88, so extrinsics of fully saturated
        checks cap near 88 LLR, where the reference's ⊟ pole rails the
        weakest-edge extrinsic to the clip instead (the tanh rule is
        algebraically identical to the ⊞-fold/⊟ recursion; the rail is
        the recursion's cancellation artifact).  Hard decisions track
        the reference; iterated LLR *magnitudes* on frames that keep
        iterating past convergence can drift (chaotic amplification of
        last-bit differences), which is why the guarantee is stated per
        kernel call.
    """

    check_node: str = "bp"
    bp_impl: str = "sum-sub"
    max_iterations: int = 10
    early_termination: str = "paper"
    et_threshold: float = 1.0
    qformat: QFormat | None = None
    normalization: float = 0.75
    offset: float = 0.5
    layer_order: tuple[int, ...] | None = None
    llr_clip: float = 256.0
    app_extra_bits: int = 2
    siso_guard_bits: int = 2
    app_clip: float | None = None
    compact_frames: bool = True
    backend: str = "fast"

    def __post_init__(self):
        if not isinstance(self.backend, str) or not self.backend:
            raise DecoderConfigError("backend must be a non-empty string")
        if self.check_node not in CHECK_NODE_ALGORITHMS:
            raise DecoderConfigError(
                f"check_node={self.check_node!r}; valid: {CHECK_NODE_ALGORITHMS}"
            )
        if self.bp_impl not in BP_IMPLEMENTATIONS:
            raise DecoderConfigError(
                f"bp_impl={self.bp_impl!r}; valid: {BP_IMPLEMENTATIONS}"
            )
        if self.early_termination not in ET_MODES:
            raise DecoderConfigError(
                f"early_termination={self.early_termination!r}; valid: {ET_MODES}"
            )
        _require_int("max_iterations", self.max_iterations, 1)
        _require_int("siso_guard_bits", self.siso_guard_bits, 0, 4)
        _require_int("app_extra_bits", self.app_extra_bits, 0, MAX_APP_BITS)
        for name in ("et_threshold", "normalization", "offset", "llr_clip"):
            _require_number(name, getattr(self, name))
        if self.app_clip is not None:
            _require_number("app_clip", self.app_clip)
        if not isinstance(self.compact_frames, (bool, np.bool_)):
            raise DecoderConfigError(
                f"compact_frames must be a bool, got {self.compact_frames!r}"
            )
        if self.qformat is not None:
            if not isinstance(self.qformat, QFormat):
                raise DecoderConfigError(
                    f"qformat must be a QFormat or None, got {self.qformat!r}"
                )
            app_bits = self.qformat.total_bits + self.app_extra_bits
            if app_bits > MAX_APP_BITS:
                raise DecoderConfigError(
                    f"APP word of {self.qformat.total_bits} + "
                    f"{self.app_extra_bits} = {app_bits} bits exceeds the "
                    f"{MAX_APP_BITS}-bit limit of the int32 datapath"
                )
        if self.layer_order is not None:
            if not isinstance(self.layer_order, (list, tuple)):
                raise DecoderConfigError(
                    f"layer_order must be a sequence of layer indices or "
                    f"None, got {self.layer_order!r}"
                )
            for layer in self.layer_order:
                _require_int("layer_order entry", layer, 0)
            # A list would leave the frozen config unhashable.
            object.__setattr__(self, "layer_order", tuple(self.layer_order))
        if self.et_threshold < 0:
            raise DecoderConfigError("et_threshold must be non-negative")
        if not 0 < self.normalization <= 1:
            raise DecoderConfigError("normalization must be in (0, 1]")
        if self.offset < 0:
            raise DecoderConfigError("offset must be non-negative")
        if self.llr_clip <= 0:
            raise DecoderConfigError("llr_clip must be positive")
        if self.app_clip is not None and self.app_clip < self.llr_clip:
            raise DecoderConfigError("app_clip must be >= llr_clip")

    @property
    def is_fixed_point(self) -> bool:
        """True when the integer datapath is active."""
        return self.qformat is not None

    @property
    def app_qformat(self) -> QFormat | None:
        """The (wider) APP memory format in fixed-point mode."""
        if self.qformat is None:
            return None
        return self.qformat.widen(self.app_extra_bits)

    @property
    def effective_app_clip(self) -> float:
        """Float-mode APP saturation magnitude."""
        if self.app_clip is not None:
            return self.app_clip
        return self.llr_clip * (1 << self.app_extra_bits)

    def replace(self, **changes) -> "DecoderConfig":
        """Functional update (dataclasses.replace wrapper)."""
        return dataclasses.replace(self, **changes)

    def cache_key(self) -> tuple:
        """A canonical, hashable identity of every configuration field.

        This is the cache key of :class:`~repro.service.PlanCache` and
        the batching key of :class:`~repro.service.DecodeService`: two
        configs with equal ``cache_key()`` decode bit-identically, so
        their requests may share one compiled plan, one set of
        fixed-point ROM tables, and one working batch.  Unlike
        ``hash(config)`` the key contains only primitives (no salted
        ``str``/``float`` hashing surprises across processes,
        non-finite floats canonicalized to strings) and round-trips
        through ``repr`` losslessly.
        """
        return tuple(
            (field.name, _canonical_value(getattr(self, field.name)))
            for field in dataclasses.fields(self)
        )

    def stable_hash(self) -> str:
        """A short process-stable digest of :meth:`cache_key`.

        Python's built-in ``hash`` is salted per process
        (``PYTHONHASHSEED``), so it cannot name a config in logs,
        metrics or on-disk artifacts.  This digest can: equal configs
        produce equal strings in every interpreter.
        """
        return hashlib.sha256(
            repr(self.cache_key()).encode("utf-8")
        ).hexdigest()[:16]

    def to_dict(self) -> dict:
        """Every field as a ``json.dumps``-safe mapping.

        The wire format of a config: :class:`~repro.link.Link`
        checkpoints, service requests and logs can name a configuration
        as plain JSON and rebuild it with :meth:`from_dict`.  Values go
        through the same canonicalization as :meth:`cache_key`
        (:func:`_canonical_value`), so ``from_dict(to_dict())`` always
        reproduces the exact cache identity: ``qformat`` serializes as
        ``["QFormat", total_bits, frac_bits]``, ``layer_order`` as a
        list, and non-finite floats as ``"inf"``/``"-inf"``/``"nan"``
        strings (strict JSON has no literal for them).
        """
        out = {}
        for config_field in dataclasses.fields(self):
            value = _canonical_value(getattr(self, config_field.name))
            if isinstance(value, tuple):
                value = list(value)
            out[config_field.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DecoderConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Missing keys take the field defaults (so the wire format stays
        readable across versions that add fields); unknown keys raise
        :class:`~repro.errors.DecoderConfigError` rather than being
        silently dropped — a typo'd field name must not decode with a
        different configuration than the sender asked for.  Malformed
        values raise the same error, never a bare ``TypeError``: this
        is the door wire requests come in through.
        """
        fields_by_name = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(data) - set(fields_by_name)
        if unknown:
            raise DecoderConfigError(
                f"unknown DecoderConfig fields: {sorted(unknown)}"
            )
        kwargs = {}
        for name, value in data.items():
            if name == "qformat" and value is not None:
                value = _qformat_from_dict(value)
            elif (
                isinstance(value, str)
                and value in ("inf", "-inf", "nan")
                and "float" in str(fields_by_name[name].type)
            ):
                value = float(value)
            kwargs[name] = value
        return cls(**kwargs)


@dataclass
class DecodeResult:
    """Batch decoding outcome.

    Attributes
    ----------
    bits:
        ``(B, N)`` hard-decision codeword bits.
    llr:
        ``(B, N)`` final APP LLRs in *LLR units* (dequantized for the
        fixed-point decoder).
    iterations:
        ``(B,)`` full iterations executed per frame (>= 1).
    converged:
        ``(B,)`` True where the final hard decision satisfies all parity
        checks.
    et_stopped:
        ``(B,)`` True where early termination fired before
        ``max_iterations``.
    n_info:
        Systematic prefix length (for :attr:`info_bits`).
    """

    bits: np.ndarray
    llr: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    et_stopped: np.ndarray
    n_info: int

    @classmethod
    def empty(cls, n: int, n_info: int) -> "DecodeResult":
        """A well-formed zero-frame result (the ``(0, N)`` decode case)."""
        return cls(
            bits=np.zeros((0, n), dtype=np.uint8),
            llr=np.zeros((0, n), dtype=np.float64),
            iterations=np.zeros(0, dtype=np.int64),
            converged=np.zeros(0, dtype=bool),
            et_stopped=np.zeros(0, dtype=bool),
            n_info=n_info,
        )

    @property
    def batch_size(self) -> int:
        return int(self.bits.shape[0])

    @property
    def info_bits(self) -> np.ndarray:
        """``(B, K)`` systematic information bits."""
        return self.bits[:, : self.n_info]

    @property
    def average_iterations(self) -> float:
        """Mean iterations over the batch (the Fig. 9a driver)."""
        return float(np.mean(self.iterations))

    @property
    def convergence_rate(self) -> float:
        """Fraction of frames whose parity checks are satisfied."""
        return float(np.mean(self.converged))

    def slice(self, start: int, stop: int) -> "DecodeResult":
        """The sub-batch result for frames ``[start, stop)``.

        Every check-node kernel, early-termination monitor and the
        compaction bookkeeping are elementwise along the batch axis, so
        a batch decode is frame-for-frame identical to decoding any
        sub-batch separately — slicing a merged result apart is how
        :class:`~repro.service.DecodeService` returns per-request
        results from one dynamically batched decode.  Array fields are
        *copies*: a view would keep the whole merged batch's arrays
        alive for as long as any client holds its (possibly tiny)
        slice, amplifying service memory by up to the batch size; the
        copy costs one small memcpy per request against a full decode.
        """
        return DecodeResult(
            bits=self.bits[start:stop].copy(),
            llr=self.llr[start:stop].copy(),
            iterations=self.iterations[start:stop].copy(),
            converged=self.converged[start:stop].copy(),
            et_stopped=self.et_stopped[start:stop].copy(),
            n_info=self.n_info,
        )

    def bit_errors(self, reference_info: np.ndarray) -> int:
        """Total info-bit errors against a reference ``(B, K)`` array."""
        ref = np.asarray(reference_info, dtype=np.uint8)
        if ref.shape != self.info_bits.shape:
            raise ValueError(
                f"reference shape {ref.shape} != {self.info_bits.shape}"
            )
        return int(np.count_nonzero(ref ^ self.info_bits))

    def frame_errors(self, reference_info: np.ndarray) -> int:
        """Number of frames with at least one info-bit error."""
        ref = np.asarray(reference_info, dtype=np.uint8)
        return int(np.count_nonzero((ref ^ self.info_bits).any(axis=1)))
