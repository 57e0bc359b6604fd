"""Functional check-node (SISO) kernels.

A kernel maps the incoming variable messages of one layer,
``lam (B, d, z)``, to the outgoing check messages ``Lambda (B, d, z)``
(extrinsic: entry ``i`` excludes ``lam[:, i, :]``).  Every decoder
schedule (layered, flooding) and every algorithm variant shares this
interface, so BER ablations compare *only* the check-node arithmetic.

Kernels
-------
- :class:`BPSumSubKernel` — the paper's Eq. 1: one ⊞ recursion over all
  ``d`` messages, then one ⊟ per output.  ``d + d`` binary ops, exactly
  what the R2-SISO hardware executes (Fig. 3/4).
- :class:`BPForwardBackwardKernel` — textbook exclusive combine
  (``3(d-2)`` ⊞ ops), numerically benign; used to quantify the
  sum-subtract approximation error.
- :class:`MinSumKernel` — plain / normalized / offset min-sum (the
  algorithm of comparison chip [3]).
- :class:`LinearApproxKernel` — min-sum plus a piecewise-linear
  approximation of the ⊞ correction term, in the spirit of comparison
  chip [4] (Mansour & Shanbhag).

Float kernels operate on float64 LLRs; fixed-point kernels on raw
integers in a :class:`~repro.fixedpoint.quantize.QFormat`.
"""

from __future__ import annotations

import numpy as np

from repro.decoder.api import DecoderConfig
from repro.errors import DecoderConfigError
from repro.fixedpoint.boxplus import (
    FixedBoxOps,
    GuardTables,
    boxminus,
    boxplus,
)
from repro.fixedpoint.quantize import QFormat


def _check_shape(lam: np.ndarray) -> None:
    if lam.ndim != 3:
        raise ValueError(f"expected (B, d, z) messages, got shape {lam.shape}")
    if lam.shape[1] < 2:
        raise ValueError("check-node degree must be >= 2")


class BPSumSubKernel:
    """Full BP via ⊞-sum then per-edge ⊟ (paper Eq. 1, hardware-faithful)."""

    def __init__(self, clip: float):
        self.clip = clip

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        _check_shape(lam)
        d = lam.shape[1]
        total = lam[:, 0, :]
        for i in range(1, d):
            total = boxplus(total, lam[:, i, :], clip=self.clip)
        out = np.empty_like(lam)
        for i in range(d):
            out[:, i, :] = boxminus(total, lam[:, i, :], clip=self.clip)
        return out


class BPForwardBackwardKernel:
    """Full BP via forward/backward partial ⊞ products (exclusive combine)."""

    def __init__(self, clip: float):
        self.clip = clip

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        _check_shape(lam)
        d = lam.shape[1]
        fwd = np.empty_like(lam)
        bwd = np.empty_like(lam)
        fwd[:, 0, :] = lam[:, 0, :]
        for i in range(1, d):
            fwd[:, i, :] = boxplus(fwd[:, i - 1, :], lam[:, i, :], clip=self.clip)
        bwd[:, d - 1, :] = lam[:, d - 1, :]
        for i in range(d - 2, -1, -1):
            bwd[:, i, :] = boxplus(bwd[:, i + 1, :], lam[:, i, :], clip=self.clip)
        out = np.empty_like(lam)
        out[:, 0, :] = bwd[:, 1, :]
        out[:, d - 1, :] = fwd[:, d - 2, :]
        for i in range(1, d - 1):
            out[:, i, :] = boxplus(fwd[:, i - 1, :], bwd[:, i + 1, :], clip=self.clip)
        return out


class FixedBPSumSubKernel:
    """Integer datapath version of :class:`BPSumSubKernel` (3-bit LUTs)."""

    def __init__(self, ops: FixedBoxOps):
        self.ops = ops

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        _check_shape(lam)
        d = lam.shape[1]
        total = lam[:, 0, :].astype(np.int32)
        for i in range(1, d):
            total = self.ops.boxplus(total, lam[:, i, :])
        out = np.empty_like(lam)
        for i in range(d):
            out[:, i, :] = self.ops.boxminus(total, lam[:, i, :])
        return out


class GuardedFixedBPSumSubKernel:
    """Fixed BP sum-subtract with internal guard resolution.

    Message I/O stays in the configured :class:`QFormat`; the ⊞ fold
    state and the ⊟ inversion run at ``guard_bits`` extra fractional
    bits through direct-indexed correction tables
    (:class:`~repro.fixedpoint.boxplus.GuardTables`), and each output is
    rounded half-away-from-zero back to the message format.  This is
    the numerical ground truth for the guarded datapath — the fast
    backend replicates it bit-for-bit.
    """

    def __init__(self, tables: GuardTables):
        self.tables = tables

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        _check_shape(lam)
        d = lam.shape[1]
        tables = self.tables
        guarded = lam.astype(np.int64) * tables.factor
        total = guarded[:, 0, :]
        for i in range(1, d):
            total = tables.combine(total, guarded[:, i, :], tables.f)
        out = np.empty_like(lam)
        for i in range(d):
            wide = tables.combine(total, guarded[:, i, :], tables.g)
            out[:, i, :] = tables.round_message(wide).astype(lam.dtype)
        return out


class FixedBPForwardBackwardKernel:
    """Integer datapath version of :class:`BPForwardBackwardKernel`."""

    def __init__(self, ops: FixedBoxOps):
        self.ops = ops

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        _check_shape(lam)
        d = lam.shape[1]
        fwd = np.empty_like(lam)
        bwd = np.empty_like(lam)
        fwd[:, 0, :] = lam[:, 0, :]
        for i in range(1, d):
            fwd[:, i, :] = self.ops.boxplus(fwd[:, i - 1, :], lam[:, i, :])
        bwd[:, d - 1, :] = lam[:, d - 1, :]
        for i in range(d - 2, -1, -1):
            bwd[:, i, :] = self.ops.boxplus(bwd[:, i + 1, :], lam[:, i, :])
        out = np.empty_like(lam)
        out[:, 0, :] = bwd[:, 1, :]
        out[:, d - 1, :] = fwd[:, d - 2, :]
        for i in range(1, d - 1):
            out[:, i, :] = self.ops.boxplus(fwd[:, i - 1, :], bwd[:, i + 1, :])
        return out


def _minsum_core(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared min-sum machinery.

    Returns ``(magnitude, sign_product, extrinsic_sign)`` where
    ``magnitude[:, i, :]`` is min over ``j != i`` of ``|lam[:, j, :]|``.
    """
    magnitude = np.abs(lam)
    order = np.argsort(magnitude, axis=1)
    min1_idx = order[:, 0:1, :]
    min1 = np.take_along_axis(magnitude, min1_idx, axis=1)
    min2 = np.take_along_axis(magnitude, order[:, 1:2, :], axis=1)
    d = lam.shape[1]
    positions = np.arange(d).reshape(1, d, 1)
    extrinsic_mag = np.where(positions == min1_idx, min2, min1)

    signs = np.where(lam < 0, -1, 1)
    sign_product = np.prod(signs, axis=1, keepdims=True)
    extrinsic_sign = sign_product * signs  # divide == multiply for ±1
    return extrinsic_mag, sign_product, extrinsic_sign


class MinSumKernel:
    """(Normalized / offset) min-sum check node.

    Parameters
    ----------
    normalization:
        ``None`` for plain min-sum, else a factor in (0, 1].
    offset:
        ``None`` for no offset, else subtracted with a floor at 0.
    qformat:
        When given, magnitudes are raw integers; normalization is realized
        as the hardware-style ``(3x) >> 2`` when the factor is 0.75, and
        the offset is rounded to raw units.
    """

    def __init__(
        self,
        normalization: float | None = None,
        offset: float | None = None,
        qformat: QFormat | None = None,
    ):
        if normalization is not None and offset is not None:
            raise DecoderConfigError("choose normalization or offset, not both")
        self.normalization = normalization
        self.offset = offset
        self.qformat = qformat

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        _check_shape(lam)
        magnitude, _, extrinsic_sign = _minsum_core(lam)
        if self.normalization is not None:
            if self.qformat is not None:
                if abs(self.normalization - 0.75) < 1e-9:
                    magnitude = (3 * magnitude.astype(np.int64)) >> 2
                else:
                    magnitude = np.floor(magnitude * self.normalization).astype(np.int64)
            else:
                magnitude = magnitude * self.normalization
        elif self.offset is not None:
            offset = (
                int(np.rint(self.offset * self.qformat.scale))
                if self.qformat is not None
                else self.offset
            )
            magnitude = np.maximum(magnitude - offset, 0)
        out = extrinsic_sign * magnitude
        if self.qformat is not None:
            return self.qformat.saturate(out)
        return out.astype(np.float64)


class LinearApproxKernel:
    """BP with a piecewise-linear correction (comparison chip [4] style).

    Approximates the ⊞ correction ``log(1 + e^-x) ~ max(0, c0 - x/4)``
    (a hardware-friendly slope of 1/4) and evaluates each extrinsic output
    as the linear-approximate ⊞ of the two smallest magnitudes *excluding*
    the output edge — the dominant terms of the exact combine:

    ``|Λ_i| ~ f_lin(m1_i, m2_i)`` where ``m1_i <= m2_i`` are the two
    smallest of ``{|λ_j| : j != i}`` and

    ``f_lin(a, b) = min(a,b) + corr(a+b) - corr(|a-b|) = a + corr(a+b) - corr(b-a)``.
    """

    #: Intercept of the linear correction (log 2 at x = 0).
    C0 = float(np.log(2.0))
    #: Negative slope 1/4 (a power of two, hardware-friendly).
    SLOPE = 0.25

    def __init__(self, clip: float, qformat: QFormat | None = None):
        self.clip = clip
        self.qformat = qformat

    def _corr(self, x: np.ndarray) -> np.ndarray:
        if self.qformat is not None:
            c0 = int(np.rint(self.C0 * self.qformat.scale))
            return np.maximum(c0 - (np.asarray(x, dtype=np.int64) >> 2), 0)
        return np.maximum(self.C0 - self.SLOPE * x, 0.0)

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        _check_shape(lam)
        d = lam.shape[1]
        magnitude = np.abs(lam)
        signs = np.where(lam < 0, -1, 1)
        sign_product = np.prod(signs, axis=1, keepdims=True)
        extrinsic_sign = sign_product * signs

        if d == 2:
            # The exclusive set has one element: output equals it exactly.
            out = extrinsic_sign * magnitude[:, ::-1, :]
        else:
            order = np.argsort(magnitude, axis=1)
            idx1, idx2 = order[:, 0:1, :], order[:, 1:2, :]
            min1 = np.take_along_axis(magnitude, idx1, axis=1)
            min2 = np.take_along_axis(magnitude, idx2, axis=1)
            min3 = np.take_along_axis(magnitude, order[:, 2:3, :], axis=1)
            positions = np.arange(d).reshape(1, d, 1)
            # Two smallest magnitudes excluding each edge.
            m1 = np.where(positions == idx1, min2, min1)
            m2 = np.where(
                positions == idx1, min3, np.where(positions == idx2, min3, min2)
            )
            corrected = m1 + self._corr(m1 + m2) - self._corr(m2 - m1)
            corrected = np.maximum(corrected, 0)
            out = extrinsic_sign * corrected

        if self.qformat is not None:
            return self.qformat.saturate(out)
        return np.clip(out.astype(np.float64), -self.clip, self.clip)


def make_checknode_kernel(config: DecoderConfig):
    """Build the check-node kernel matching a decoder configuration."""
    if config.check_node == "bp":
        if config.is_fixed_point:
            ops = FixedBoxOps(config.qformat)
            if config.bp_impl == "sum-sub":
                if config.siso_guard_bits > 0:
                    return GuardedFixedBPSumSubKernel(
                        ops.guard_tables(config.siso_guard_bits)
                    )
                return FixedBPSumSubKernel(ops)
            return FixedBPForwardBackwardKernel(ops)
        if config.bp_impl == "sum-sub":
            return BPSumSubKernel(config.llr_clip)
        return BPForwardBackwardKernel(config.llr_clip)
    if config.check_node == "minsum":
        return MinSumKernel(qformat=config.qformat)
    if config.check_node == "normalized-minsum":
        return MinSumKernel(normalization=config.normalization, qformat=config.qformat)
    if config.check_node == "offset-minsum":
        return MinSumKernel(offset=config.offset, qformat=config.qformat)
    if config.check_node == "linear-approx":
        return LinearApproxKernel(config.llr_clip, qformat=config.qformat)
    raise DecoderConfigError(f"unhandled check_node {config.check_node!r}")
