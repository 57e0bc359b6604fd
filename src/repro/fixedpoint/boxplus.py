"""The ⊞ (boxplus) and ⊟ (boxminus) kernels of the paper's SISO decoder.

Equation (1) of the paper computes check messages as a full ⊞-sum followed
by a ⊟-subtraction of the excluded term:

``Λ_mn = (⊞_{j in N_m} λ_mj) ⊟ λ_mn``

with (Eq. 2, signs folded out):

``f(a,b) = sign(a) sign(b) [ min(|a|,|b|) + log(1+e^-(|a|+|b|)) - log(1+e^-||a|-|b||) ]``
``g(a,b) = sign(a) sign(b) [ min(|a|,|b|) + log(1-e^-(|a|+|b|)) - log(1-e^-||a|-|b||) ]``

Two implementations live here:

- **float** (`boxplus`, `boxminus`): exact up to a configurable clip that
  mirrors the datapath saturation;
- **fixed point** (:class:`FixedBoxOps`): integer arithmetic with the
  3-bit correction LUTs of :mod:`repro.fixedpoint.lut`, bit-faithful to
  the hardware units of Fig. 3.

The singular bin of the ``g`` correction (``log(1-e^-x) -> -inf`` as
``x -> 0``) is clamped symmetrically in both implementations, which makes
``g(0, 0) = 0`` and saturates ``g(a, ±a)`` — exactly what a saturating
hardware unit does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fixedpoint.lut import CorrectionLUT, make_lut_pair
from repro.fixedpoint.quantize import QFormat

#: Default float clip; equals the Q8.2 datapath maximum so the float and
#: fixed-point decoders saturate at the same LLR magnitude.
DEFAULT_LLR_CLIP = 31.75


def _signs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sign(a) * np.sign(b)


def boxplus(a: np.ndarray, b: np.ndarray, clip: float = DEFAULT_LLR_CLIP) -> np.ndarray:
    """Exact ⊞ with saturation: ``a ⊞ b = log((1 + e^(a+b)) / (e^a + e^b))``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    abs_a, abs_b = np.abs(a), np.abs(b)
    s = abs_a + abs_b
    d = np.abs(abs_a - abs_b)
    magnitude = np.minimum(abs_a, abs_b) + np.log1p(np.exp(-s)) - np.log1p(np.exp(-d))
    magnitude = np.maximum(magnitude, 0.0)
    return np.clip(_signs(a, b) * magnitude, -clip, clip)


def _corr_minus(x: np.ndarray, clip: float) -> np.ndarray:
    """``log(1 - e^-x)`` clamped below at ``-clip`` (x >= 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.log(-np.expm1(-np.asarray(x, dtype=np.float64)))
    return np.maximum(np.nan_to_num(value, nan=-clip, neginf=-clip), -clip)


def boxminus(a: np.ndarray, b: np.ndarray, clip: float = DEFAULT_LLR_CLIP) -> np.ndarray:
    """Exact ⊟ with saturation (the inverse of ⊞: ``(a ⊟ b) ⊞ b = a``).

    ``a`` is the combined value, ``b`` the term being removed.  The result
    magnitude is never below ``min(|a|, |b|)`` and saturates at ``clip``
    when ``|a| -> |b|`` (the exact inverse diverges there).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    abs_a, abs_b = np.abs(a), np.abs(b)
    s = abs_a + abs_b
    d = np.abs(abs_a - abs_b)
    magnitude = np.minimum(abs_a, abs_b) + _corr_minus(s, clip) - _corr_minus(d, clip)
    magnitude = np.maximum(magnitude, 0.0)
    return np.clip(_signs(a, b) * magnitude, -clip, clip)


def boxplus_reduce(
    messages: np.ndarray, axis: int = -1, clip: float = DEFAULT_LLR_CLIP
) -> np.ndarray:
    """Fold ⊞ along one axis (sequential recursion, as the f unit does)."""
    messages = np.moveaxis(np.asarray(messages, dtype=np.float64), axis, 0)
    if messages.shape[0] == 0:
        raise ValueError("cannot ⊞-reduce an empty axis")
    total = messages[0]
    for i in range(1, messages.shape[0]):
        total = boxplus(total, messages[i], clip=clip)
    return total


def phi_transform(
    x: np.ndarray, pole: float = 1e-12, out: np.ndarray | None = None
) -> np.ndarray:
    """The check-node transform ``Φ(x) = -log(tanh(x/2))`` (x >= 0).

    Φ is a self-inverse involution, which turns the whole ⊞ fold into a
    single sum: ``⊞_j λ_j = Π sign(λ_j) · Φ(Σ Φ(|λ_j|))`` — the "tanh
    rule".  Computed as ``log1p(2 / expm1(x))``, which degrades
    gracefully at both ends: ``expm1`` overflow gives ``Φ = 0`` (total
    certainty) and the ``x -> 0`` pole is frozen at ``Φ(pole)``.

    Preserves the input dtype (float32 stays float32), so a backend can
    run the transform in single precision for bandwidth.  ``out`` (same
    shape/dtype as ``x``) makes the evaluation allocation-free; it may
    alias ``x``.
    """
    x = np.asarray(x)
    if out is None:
        out = np.empty_like(x)
    np.maximum(x, x.dtype.type(pole), out=out)
    with np.errstate(over="ignore"):
        np.expm1(out, out=out)
        np.divide(2.0, out, out=out)
        np.log1p(out, out=out)
    return out


@dataclass(frozen=True)
class GuardTables:
    """Correction tables for the guarded (internal-precision) ⊞/⊟ fold.

    The sum-subtract check node recovers each extrinsic by *inverting*
    the full ⊞ recursion through the ``g`` unit — an operation whose
    error blows up near ``|total| == |λ_i|`` (the weakest edge, exactly
    the extrinsic that steers convergence).  At the message format's own
    resolution the corrections are quantized to a whole LSB (±0.25 LLR
    in Q8.2) and the inversion noise is large enough to keep the Q8.2
    datapath ~0.5 dB off the float curve; carrying ``guard_bits`` extra
    fractional bits through the recursion — a routine hardware choice:
    datapath-width message ports, wider SISO-internal arithmetic —
    brings fixed-point BER within the paper's ~0.1 dB of float
    (measured in ``tests/test_golden_vectors.py`` /
    ``benchmarks/bench_fig8.py`` operating points).

    Tables are direct-indexed by the guard-resolution raw sum/difference
    and extend until the correction itself rounds to zero at guard
    resolution (beyond the paper's 8-entry window, which stops at
    2 LLR where the ``f`` correction is still half a MSB-format LSB).

    Attributes
    ----------
    f, g:
        int32 correction tables (``log(1+e^-x)`` / ``log(1-e^-x)``) in
        guard-resolution raw units, sized ``2 * max_int * G + 1``.
    guard_bits:
        Extra fractional bits ``g`` (``G = 2^g``).
    max_int:
        Saturation magnitude of the *message* format; the fold state
        saturates at ``max_int * G``.
    """

    f: np.ndarray
    g: np.ndarray
    guard_bits: int
    max_int: int

    @property
    def factor(self) -> int:
        """Guard scale ``G = 2^guard_bits``."""
        return 1 << self.guard_bits

    @property
    def state_max(self) -> int:
        """Saturation magnitude of the guarded fold state."""
        return self.max_int * self.factor

    def combine(self, a: np.ndarray, b: np.ndarray, table: np.ndarray) -> np.ndarray:
        """One guarded ⊞/⊟ on guard-resolution values (table picks f vs g).

        This is *the* guarded combine: the reference kernel, the cycle
        model's SISO ops, and the fast backend's ROM fill all delegate
        here, so cross-implementation bit-identity holds by construction.
        """
        abs_a = np.abs(a)
        abs_b = np.abs(b)
        magnitude = np.minimum(abs_a, abs_b)
        magnitude = magnitude + table[abs_a + abs_b]
        magnitude -= table[np.abs(abs_a - abs_b)]
        np.maximum(magnitude, 0, out=magnitude)
        state_max = self.state_max
        return np.clip(np.sign(a) * np.sign(b) * magnitude, -state_max, state_max)

    def round_message(self, wide: np.ndarray) -> np.ndarray:
        """Round a guarded ⊟ output half-away-from-zero to the message format."""
        magnitude = np.minimum(
            (np.abs(wide) + (self.factor >> 1)) >> self.guard_bits, self.max_int
        )
        return np.sign(wide) * magnitude


_GUARD_TABLE_CACHE: dict[tuple[int, int, int], GuardTables] = {}


def make_guard_tables(qformat: QFormat, guard_bits: int) -> GuardTables:
    """Build (and memoize) the guarded correction tables for a format.

    Entry ``i`` is the correction evaluated at the guard-resolution bin
    midpoint ``x = (i + 0.5) / (scale * G)`` and rounded to the nearest
    guard-resolution raw unit, exactly like the paper's 3-bit table but
    ``G×`` finer and over the full domain where the corrections are
    non-zero.  The ``g`` singularity at ``x -> 0`` is represented by its
    first-bin midpoint value, clamped to the fold-state saturation.
    """
    if guard_bits < 1:
        raise ValueError("guard_bits must be >= 1 (0 selects the ungated fold)")
    key = (qformat.total_bits, qformat.frac_bits, guard_bits)
    cached = _GUARD_TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    factor = 1 << guard_bits
    scale = qformat.scale * factor
    state_max = qformat.max_int * factor
    size = 2 * state_max + 1
    # Corrections below half a guard LSB round to zero; stop the table
    # there (ln(2*scale) LLR for f, whose tail decays like e^-x).
    entries = min(size, int(np.ceil(scale * np.log(2.0 * scale))))
    xs = (np.arange(entries) + 0.5) / scale
    f = np.zeros(size, dtype=np.int32)
    g = np.zeros(size, dtype=np.int32)
    f[:entries] = np.rint(np.log1p(np.exp(-xs)) * scale).astype(np.int32)
    with np.errstate(divide="ignore"):
        g_vals = np.rint(np.log(-np.expm1(-xs)) * scale).astype(np.int64)
    g[:entries] = np.maximum(g_vals, -state_max).astype(np.int32)
    tables = GuardTables(
        f=f, g=g, guard_bits=guard_bits, max_int=qformat.max_int
    )
    _GUARD_TABLE_CACHE[key] = tables
    return tables


class FixedBoxOps:
    """Integer ⊞ / ⊟ with 3-bit LUT corrections (hardware-faithful).

    Parameters
    ----------
    qformat:
        Message format (the paper's Fig. 3 uses ``Q8.2``).

    Notes
    -----
    ``boxplus_identity`` is the saturation value: ``x ⊞ max_int == x`` up
    to LUT resolution, mirroring how hardware initializes the recursion.
    """

    def __init__(self, qformat: QFormat | None = None):
        self.qformat = qformat if qformat is not None else QFormat(8, 2)
        self.lut_plus, self.lut_minus = make_lut_pair(self.qformat)

    @property
    def boxplus_identity(self) -> int:
        """Raw integer acting as the ⊞ identity (strongest belief)."""
        return self.qformat.max_int

    def guard_tables(self, guard_bits: int) -> GuardTables:
        """Guarded correction tables for this format (memoized)."""
        return make_guard_tables(self.qformat, guard_bits)

    def flat_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Direct-index (f, g) tables covering every reachable raw sum.

        ``|a| + |b|`` never exceeds ``2 * max_int`` for saturated inputs,
        so both tables span ``0..2 * max_int`` and a backend can replace
        :meth:`~repro.fixedpoint.lut.CorrectionLUT.lookup` with one gather.
        """
        max_raw = 2 * self.qformat.max_int
        return (
            self.lut_plus.flat_table(max_raw),
            self.lut_minus.flat_table(max_raw),
        )

    def _combine(
        self, a: np.ndarray, b: np.ndarray, lut: CorrectionLUT
    ) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        abs_a, abs_b = np.abs(a), np.abs(b)
        s = abs_a + abs_b
        d = np.abs(abs_a - abs_b)
        magnitude = np.minimum(abs_a, abs_b) + lut.lookup(s) - lut.lookup(d)
        magnitude = np.maximum(magnitude, 0)
        sgn = np.sign(a) * np.sign(b)
        return self.qformat.saturate(sgn * magnitude)

    def boxplus(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Fixed-point ⊞ on raw integers (the f unit of Fig. 3)."""
        return self._combine(a, b, self.lut_plus)

    def boxminus(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Fixed-point ⊟ on raw integers (the g unit of Fig. 3)."""
        return self._combine(a, b, self.lut_minus)

    def boxplus_reduce(self, messages: np.ndarray, axis: int = -1) -> np.ndarray:
        """Fold fixed-point ⊞ along one axis."""
        messages = np.moveaxis(np.asarray(messages, dtype=np.int64), axis, 0)
        if messages.shape[0] == 0:
            raise ValueError("cannot ⊞-reduce an empty axis")
        total = messages[0].astype(np.int32)
        for i in range(1, messages.shape[0]):
            total = self.boxplus(total, messages[i])
        return total
