"""Vectorized numpy backend: fused flat-index kernels for every algorithm.

Where the :class:`~repro.decoder.backends.reference.ReferenceBackend`
pays per-edge Python-level kernel calls (BP) or an ``argsort`` over the
degree axis (min-sum family), this backend restructures the same math
into a handful of full-width passes over a layer's ``(1, d, z·B)``
block.  Kernel selection is routed through
:data:`~repro.decoder.backends.base.KERNEL_TABLE`; every slot below is
bit-identical to the reference in fixed point and exactly equal (same
float ops on the same values) in float, except the Φ-domain BP float
kernel whose documented contract is decision agreement.

A layer update gathers the layer's APP rows into one ``(d·z, B)``
block with one ``take`` through its rotation table
(:attr:`DecodePlan.flat_indices`; the chip's circular shifter), runs
the check kernel on it as a ``(1, d, z·B)`` view, and writes ``λ + Λ'``
back with one indexed assignment (well defined because a layer's
indices are distinct, which :meth:`DecodePlan.validate` checks),
saturating in place with ``ndarray.clip``.  The state is frame-minor,
so each index moves a contiguous row of ``B`` words and each degree row
of the kernel's view is one contiguous run of ``z·B`` elements: the
kernels below walk those rows with whole-row numpy calls.  The same
form serves every batch size.

Fixed-point state is held at the datapath's native width: int16 when
the APP word is at most :data:`INT16_APP_BITS` bits (every Q8.2
config), int32 for 16–31-bit words.  Either way the saturation bounds
are scalars of the state's own dtype, so no pass widens or mixes
widths.  A zero v→c message is broken with one compare and a fix-up of
the few zeros through their flat indices (:func:`_break_zeros`), the
exact result of the reference's
:func:`~repro.decoder.backends.base.break_zero_messages`.

- **BP sum-subtract, fixed point** — the ⊞ fold (guarded,
  :class:`~repro.decoder.siso.GuardedFixedBPSumSubKernel`, or the
  guard-0 :class:`~repro.fixedpoint.boxplus.FixedBoxOps` one) is a pure
  function of the running fold state and one bounded message, so it is
  *compiled into ROMs* (:class:`FoldROMs`) once per datapath and shared
  read-only by every decoder.  The fold state is carried as an ``intp``
  ROM row base (state row × row width): λ becomes ``intp`` offsets once
  per call, and each ⊞ step is one in-place add and one in-place
  ``take`` on the row bases, with no index array converted or
  allocated; all ``d`` ⊟ outputs, already rounded back to the message
  format, come from one more add and ``take``.  The ``intp`` row bases
  cost 8 bytes an entry where int32 took 4: at Q8.2, 2 MiB resident
  for the guard-2 ⊞ ROM (+1 MiB), 8 MiB at guard 4 (+4 MiB).  Formats
  whose ROMs would exceed :data:`GUARD_ROM_MAX_ENTRIES` (guarded) or
  :data:`PAIR_TABLE_MAX_BITS` (guard 0) fall back to the (still
  vectorized) table folds.
- **BP sum-subtract, float** — the sequential ⊞ fold is replaced by the
  Φ-domain "tanh rule": one transform ``Φ(|λ|)``, exclusive
  prefix/suffix running sums over the degree rows (in ``np.cumsum``'s
  own addition order, so the values are the cumsum form's), one
  inverse transform, one sign-parity pass applied as a sign bit.  The
  whole kernel runs in **float32** (``work_dtype``) for memory
  bandwidth.
- **Min-sum family (plain / normalized / offset), float and fixed** —
  the reference kernel's ``argsort`` over the degree axis is replaced
  by a two-smallest reduction (one ``argmin``, one masked ``min``) plus
  the shared sign-parity pass; the correction (normalization / offset)
  is applied to the two scalar minima *before* the per-edge selection,
  which is elementwise-equal to correcting after.  Exactly equal to the
  reference kernel outputs in both datapaths.
- **Linear-approx** — same two-smallest machinery extended to the third
  minimum, with the piecewise-linear ⊞ correction of the reference
  kernel evaluated on the selected pairs.

A note on the design: an earlier draft swapped the float transcendentals
for piecewise-linear correction LUTs (mirroring the fixed datapath), but
on current numpy/libm a table gather costs *more* than the vectorized
``log1p``/``expm1`` it replaces (~2.5 ns/elt vs ~1-4 ns/elt measured),
so the win comes from collapsing the pass count, not from avoiding the
transcendentals.

BP forward-backward (both datapaths) reuses the reference kernels via
the table fallback and still benefits from the fused layer update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.decoder.backends.base import DecoderBackend
from repro.decoder.siso import GuardedFixedBPSumSubKernel, LinearApproxKernel
from repro.fixedpoint.boxplus import FixedBoxOps, make_guard_tables, phi_transform
from repro.fixedpoint.quantize import QFormat

#: Widest message format whose seed-era (guard 0) pairwise ⊞/⊟ ROMs are
#: precompiled; the two tables hold ``(2^b - 1)^2`` entries each
#: (≈ 4 + 2 MiB at 10 bits, ≈ 254 + 127 KiB at the paper's 8).
PAIR_TABLE_MAX_BITS = 10

#: Entry budget for the guarded state×input ROMs (``intp`` ⊞ row bases
#: + int16 ⊟ outputs, 10 bytes an entry on 64-bit hosts).  Q8.2 needs
#: ~259k entries at 2 guard bits (≈ 2.5 MiB for both tables, 1 MiB more
#: than int32 row bases took) and ~1.04M at 4 (≈ 10 MiB, 4 MiB more);
#: wider formats fall back to the guarded table fold.
GUARD_ROM_MAX_ENTRIES = 1 << 20

#: Widest fixed-point APP word (``qformat.total_bits + app_extra_bits``)
#: whose state the fast backend holds in int16.  The message word is
#: never wider than the APP word, so ``L - Λ`` and ``λ + Λ'``, the sums
#: a layer update forms before saturating, stay within ±(2^15 - 2):
#: no int16 pass can wrap, which matters because int16 arithmetic wraps
#: without a warning.
INT16_APP_BITS = 15

#: Φ pole freeze point: inputs below this are treated as this (see
#: :func:`~repro.fixedpoint.boxplus.phi_transform`).  The smallest
#: float32 normal keeps ``2 / expm1(pole)`` finite; it only guards true
#: zeros (a zero channel LLR, or a check whose every Φ underflowed).
PHI_POLE_F32 = float(np.finfo(np.float32).tiny)


def _check_degree(lam):
    if lam.shape[1] < 2:
        raise ValueError("check-node degree must be >= 2")


#: Row width in bytes → the opaque dtype of one row (building a dtype
#: costs more than the view it serves).
_ROW_DTYPES: dict[int, np.dtype] = {}


def _rows(array: np.ndarray) -> np.ndarray:
    """A C-contiguous ``(R, B)`` array as ``R`` opaque words of one row.

    An indexed assignment through this view is numpy's one-dimensional
    fancy assignment, which copies each row whole; on the 2-D array it
    walks a ``B``-element subspace per index, 2–7× slower on a z96
    layer at every ``B`` measured (1–64).
    """
    width = array.strides[0]
    row = _ROW_DTYPES.get(width)
    if row is None:
        row = _ROW_DTYPES.setdefault(width, np.dtype((np.void, width)))
    return array.view(row).reshape(-1)


def _break_zeros(messages: np.ndarray, stored: np.ndarray) -> None:
    """:func:`~repro.decoder.backends.base.break_zero_messages`, cheaply.

    Zeros are rare (~0.5% of a waterfall decode's messages) but reach
    nine in ten layer updates, where the boolean-mask form pays a
    masked gather and a masked assignment over the whole block.  Here
    one compare finds them and only their flat indices are fixed up,
    with the same ``±1`` (the sign of the stored Λ, ``+1`` at zero).
    ``messages`` and ``stored`` have one shape.
    """
    at = (messages == 0).reshape(-1).nonzero()[0]
    if at.size:
        messages.put(at, np.where(stored.take(at) < 0, -1, 1))


@dataclass(frozen=True)
class FoldROMs:
    """The fixed-point ⊞/⊟ fold of one datapath, compiled into ROMs.

    A fold state is carried as its *row base* ``row * width``, and a
    message ``b`` enters as its offset ``b + max_int`` (``width`` is
    ``2 * max_int + 1``), so a ROM address is always ``base + offset``:

    - ``first[offset]`` — the row base of the fold seeded with one
      message;
    - ``rows[base + offset]`` — the row base after ⊞-absorbing the
      message;
    - ``minus[base + offset]`` — the ⊟ output (the extrinsic that
      excludes the message), in the message format.

    Guarded folds (``siso_guard_bits > 0``) have one row per guarded
    state ``-S..S``; the guard-0 fold one row per message value.  Every
    entry is produced by the reference arithmetic, so bit-identity
    holds by construction.  Arrays are read-only: one set is shared by
    every decoder of the datapath (see :func:`fold_roms`).
    """

    first: np.ndarray
    rows: np.ndarray
    minus: np.ndarray


#: ``(total_bits, frac_bits, guard_bits)`` → ROMs; entries are read-only
#: and a pure function of their key, so sharing them is safe.
_FOLD_ROM_CACHE: dict[tuple[int, int, int], FoldROMs | None] = {}


def fold_roms(qformat: QFormat, guard_bits: int) -> FoldROMs | None:
    """The shared :class:`FoldROMs` of a datapath, or ``None`` if too big.

    Built once per ``(qformat, guard_bits)`` and process; ``None`` when
    the ROMs would exceed :data:`GUARD_ROM_MAX_ENTRIES` (guarded) or the
    format is wider than :data:`PAIR_TABLE_MAX_BITS` (guard 0).
    """
    key = (qformat.total_bits, qformat.frac_bits, int(guard_bits))
    if key in _FOLD_ROM_CACHE:
        return _FOLD_ROM_CACHE[key]
    m = int(qformat.max_int)
    messages = np.arange(-m, m + 1, dtype=np.int64)
    if guard_bits > 0:
        tables = make_guard_tables(qformat, guard_bits)
        bias = tables.state_max
        if (2 * bias + 1) * (2 * m + 1) > GUARD_ROM_MAX_ENTRIES:
            roms = None
        else:
            states = np.arange(-bias, bias + 1, dtype=np.int64)[:, None]
            guarded = messages * tables.factor
            roms = _compile(
                bias,
                seeded=guarded,
                plus=tables.combine(states, guarded, tables.f),
                minus=tables.round_message(
                    tables.combine(states, guarded, tables.g)
                ),
            )
    elif qformat.total_bits > PAIR_TABLE_MAX_BITS:
        roms = None
    else:
        ops = FixedBoxOps(qformat)
        states = messages[:, None]
        roms = _compile(
            m,
            seeded=messages,
            plus=ops.boxplus(states, messages),
            minus=ops.boxminus(states, messages),
        )
    # setdefault keeps the first build if threads race on a miss, so
    # every decoder still shares one set.  No lock: a worker process
    # forked while another thread held it would deadlock on its first
    # build.
    return _FOLD_ROM_CACHE.setdefault(key, roms)


def _compile(bias: int, seeded, plus, minus) -> FoldROMs:
    """Encode fold states ``-bias..bias`` as row bases and freeze.

    ``seeded`` is the fold state after one message, ``plus`` /
    ``minus`` the ``(state, message)`` ⊞ state and ⊟ output tables.
    Row bases are ``intp``, the index type ``take`` runs on, so the
    fold steps on them in place; ⊟ outputs are messages, which fit
    int16 for every format a ROM is compiled for.
    """
    width = seeded.size
    arrays = (
        ((seeded + bias) * width).astype(np.intp),
        ((plus + bias) * width).reshape(-1).astype(np.intp),
        minus.reshape(-1).astype(np.int16),
    )
    for array in arrays:
        array.flags.writeable = False
    return FoldROMs(*arrays)


class FastBackend(DecoderBackend):
    """Fused flat-index numpy backend (see module docstring)."""

    name = "fast"

    def __init__(self, plan, config):
        super().__init__(plan, config)
        self._fixed = config.is_fixed_point
        # Saturation bounds of the message port and the APP write-back,
        # as scalars of the state's dtype: a wider bound would run the
        # clip in the wider type.
        if self._fixed:
            if config.app_qformat.total_bits <= INT16_APP_BITS:
                self.work_dtype = np.int16
            self._max_int = self.work_dtype(config.qformat.max_int)
            self._msg_clip = self._max_int
            self._app_clip = self.work_dtype(config.app_qformat.max_int)
        else:
            self._msg_clip = float(config.llr_clip)
            self._app_clip = float(config.effective_app_clip)
        self._kernel = self._select_kernel()

    # ------------------------------------------------------------------
    # Backend interface
    # ------------------------------------------------------------------
    def update_layer(self, l_messages, lambdas, layer_pos):
        plan = self.plan
        flat = plan.flat_indices[layer_pos]
        sl = plan.lambda_slices[layer_pos]
        memory = lambdas[sl]
        # The rotation of each block is the circular shifter of Fig. 7.
        # One take moves each of the layer's d·z APP rows whole, B words
        # at a time; the block then carries λ through the kernel and the
        # APP write-back (λ + Λ').  ``take(out=)`` is buffered (one more
        # copy), so it allocates.
        rows = _rows(l_messages)
        gathered = rows.take(flat)
        lam_new = gathered.view(l_messages.dtype).reshape(
            1, memory.shape[0], -1
        )
        stored = memory.reshape(lam_new.shape)
        lam_new -= stored
        # The ndarray method skips np.clip's Python wrappers, and is one
        # pass where np.minimum + np.maximum are two.
        lam_new.clip(-self._msg_clip, self._msg_clip, out=lam_new)
        if self._fixed:
            _break_zeros(lam_new, stored)
        lambda_new = self._kernel(lam_new)
        np.add(lam_new, lambda_new, out=lam_new)
        lam_new.clip(-self._app_clip, self._app_clip, out=lam_new)
        rows[flat] = gathered
        lambdas[sl] = lambda_new.reshape(memory.shape)

    def compute_check(self, lam_vc, layer_pos):
        return self._kernel(lam_vc)

    # ------------------------------------------------------------------
    # Kernel slot factories (see KERNEL_TABLE in base.py)
    # ------------------------------------------------------------------
    def _make_bp_sumsub_fixed(self):
        config = self.config
        self._roms = fold_roms(config.qformat, config.siso_guard_bits)
        if self._roms is not None:
            return self._bp_sumsub_fixed_rom
        if config.siso_guard_bits > 0:
            return GuardedFixedBPSumSubKernel(
                make_guard_tables(config.qformat, config.siso_guard_bits)
            )
        # siso_guard_bits == 0, wide formats: the seed-era flat fold.
        self._corr_plus, self._corr_minus = FixedBoxOps(
            config.qformat
        ).flat_tables()
        return self._bp_sumsub_fixed_flat

    def _make_bp_sumsub_float(self):
        self.work_dtype = np.float32
        return self._bp_sumsub_phi

    def _make_minsum_fixed(self):
        return self._minsum_fixed

    def _make_minsum_float(self):
        return self._minsum_float

    def _make_linear_approx_fixed(self):
        self._linear_c0 = np.int64(
            np.rint(LinearApproxKernel.C0 * self.config.qformat.scale)
        )
        return self._linear_approx_fixed

    def _make_linear_approx_float(self):
        return self._linear_approx_float

    # ------------------------------------------------------------------
    # Fixed point BP, compiled ROMs: one add + one gather per ⊞ step
    # ------------------------------------------------------------------
    def _bp_sumsub_fixed_rom(self, lam):
        _check_degree(lam)
        roms = self._roms
        scratch = self.plan.scratch
        # λ becomes intp ROM offsets once.  Each ⊞ step then adds one
        # offset row to the row bases and looks the next bases up in
        # place: under mode="wrap" (every address is in range) ``take``
        # writes straight into ``out``, where "raise" buffers a copy,
        # and an intp index array needs no conversion.
        offset = scratch("rom_offset", lam.shape, np.intp)
        np.add(lam, self._max_int, out=offset)
        base = scratch("rom_base", offset[:, 0, :].shape, np.intp)
        roms.first.take(offset[:, 0, :], out=base, mode="wrap")
        for i in range(1, lam.shape[1]):
            base += offset[:, i, :]
            roms.rows.take(base, out=base, mode="wrap")
        # All d ⊟ outputs at once: the final row base plus each offset.
        offset += base[:, None, :]
        return roms.minus.take(offset, mode="wrap")

    # ------------------------------------------------------------------
    # Fixed point, guard 0, wide formats: fold over flat tables
    # ------------------------------------------------------------------
    def _fixed_combine(self, a, b, table):
        abs_a = np.abs(a)
        abs_b = np.abs(b)
        magnitude = np.minimum(abs_a, abs_b)
        magnitude += table[abs_a + abs_b]
        magnitude -= table[np.abs(abs_a - abs_b)]
        np.maximum(magnitude, 0, out=magnitude)
        out = np.sign(a) * np.sign(b) * magnitude
        np.clip(out, -self._max_int, self._max_int, out=out)
        return out

    def _bp_sumsub_fixed_flat(self, lam):
        _check_degree(lam)
        total = lam[:, 0, :]
        for i in range(1, lam.shape[1]):
            total = self._fixed_combine(total, lam[:, i, :], self._corr_plus)
        return self._fixed_combine(total[:, None, :], lam, self._corr_minus)

    # ------------------------------------------------------------------
    # Float: single-pass Φ-domain tanh rule
    # ------------------------------------------------------------------
    def _bp_sumsub_phi(self, lam):
        _check_degree(lam)
        scratch = self.plan.scratch
        phi = scratch("phi", lam.shape, lam.dtype)
        np.abs(lam, out=phi)
        phi_transform(phi, PHI_POLE_F32, out=phi)
        # The exclusive Φ-sum of edge i is prefix(i-1) + suffix(i+1),
        # never ``Σ Φ - Φ_i``: the subtraction cancels catastrophically
        # when edge i dominates the sum (one weak edge among saturated
        # ones — exactly the extrinsic that matters), while the
        # two-sided form never subtracts at all.  Both running sums walk
        # the degree rows, adding left to right and right to left in
        # float32, which is the order ``np.cumsum`` along the degree
        # axis adds in: the values are those of the cumsum form.
        extrinsic = scratch("phi_ext", lam.shape, lam.dtype)
        degree = lam.shape[1]
        np.copyto(extrinsic[:, 1], phi[:, 0])
        for i in range(2, degree):
            np.add(extrinsic[:, i - 1], phi[:, i - 1], out=extrinsic[:, i])
        suffix = scratch("phi_suffix", phi[:, 0].shape, lam.dtype)
        np.copyto(suffix, phi[:, degree - 1])
        for i in range(degree - 2, 0, -1):
            extrinsic[:, i] += suffix
            suffix += phi[:, i]
        np.copyto(extrinsic[:, 0], suffix)
        magnitude = phi_transform(extrinsic, PHI_POLE_F32, out=extrinsic)
        # The extrinsic sign (own sign × the check's sign parity) is
        # applied as a sign bit: the magnitudes are non-negative, so
        # XOR-ing in the flip is exactly ``where(flip, -mag, mag)``
        # without its per-element branch, which mispredicts on random
        # signs (~5 ns per element).  λ's own sign bit stands in for
        # ``λ < 0``: the two differ only at λ = -0.0, and a check with
        # any zero is zeroed below whatever its signs.
        uint = np.dtype(f"u{lam.dtype.itemsize}")
        sign_bit = uint.type(1 << (8 * uint.itemsize - 1))
        sign = np.bitwise_and(lam.view(uint), sign_bit)
        sign ^= np.bitwise_xor.reduce(sign, axis=1, keepdims=True)
        sign ^= magnitude.view(uint)
        out = sign.view(lam.dtype)
        out.clip(-self._msg_clip, self._msg_clip, out=out)
        # The reference ⊞/⊟ recursion propagates sign(0) = 0: one exactly
        # zero message (an erasure) zeroes every output of the check.
        # Reproduce that so zero inputs cannot flip decisions between
        # backends.
        erased = (lam == 0).any(axis=1, keepdims=True)
        if erased.any():
            out[np.broadcast_to(erased, out.shape)] = 0
        return out

    # ------------------------------------------------------------------
    # Min-sum family: two-smallest reduction + sign parity
    # ------------------------------------------------------------------
    def _two_smallest(self, lam, sentinel):
        """First-argmin, two smallest magnitudes, and the masked buffer."""
        scratch = self.plan.scratch
        magnitude = scratch("ms_mag", lam.shape, lam.dtype)
        np.abs(lam, out=magnitude)
        amin = magnitude.argmin(axis=1)[:, None, :]
        min1 = np.take_along_axis(magnitude, amin, axis=1)
        masked = scratch("ms_masked", lam.shape, lam.dtype)
        np.copyto(masked, magnitude)
        np.put_along_axis(masked, amin, sentinel, axis=1)
        min2 = masked.min(axis=1, keepdims=True)
        return amin, min1, min2, masked

    def _minsum_minima(self, lam, big):
        """Tie-aware two smallest magnitudes, argmin- and mask-op-free.

        Returns ``(eq, min1, min2)`` where ``eq`` marks every position
        holding the minimum.  When the minimum is repeated, the
        reference semantics make the second-smallest equal the smallest,
        so the per-edge selection never needs the argmin *index* — only
        the equality mask — which is value-identical to the reference's
        first-argmin scatter in both the unique and the tied case.
        Avoiding ``argmin`` (strided-axis, slower than every reduction
        here combined) and masked ufuncs (``where=`` costs ~10× a plain
        pass) is what makes this kernel fast.  ``big`` is a finite
        push-out added to the minimum positions before the second
        reduction; adding ``0`` elsewhere is exact in both datapaths.
        """
        scratch = self.plan.scratch
        magnitude = scratch("ms_mag", lam.shape, lam.dtype)
        np.abs(lam, out=magnitude)
        min1 = magnitude.min(axis=1, keepdims=True)
        eq = scratch("ms_eq", lam.shape, np.bool_)
        np.equal(magnitude, min1, out=eq)
        tie = eq.sum(axis=1, keepdims=True) > 1
        magnitude += np.multiply(eq, magnitude.dtype.type(big))
        min2 = magnitude.min(axis=1, keepdims=True)
        np.copyto(min2, min1, where=tie)
        return eq, min1, min2

    def _select_and_sign(self, lam, eq, at_min, elsewhere):
        """Per-edge selection + extrinsic sign, in plain full-width passes.

        Fixed point selects arithmetically
        (``elsewhere + eq * (at_min - elsewhere)``, exact for integers);
        float uses one ``np.where`` (the arithmetic form would not be
        exact).  The extrinsic sign (own sign × total sign parity) is
        applied by multiplying with ``1 - 2*flip`` — exact ``±1`` in
        either dtype — instead of a masked negation.
        """
        scratch = self.plan.scratch
        dtype = lam.dtype
        if self._fixed:
            out = scratch("ms_out", lam.shape, dtype)
            np.multiply(eq, at_min - elsewhere, out=out)
            out += elsewhere
        else:
            out = np.where(eq, at_min, elsewhere)
        negative = scratch("ms_neg", lam.shape, np.bool_)
        np.less(lam, 0, out=negative)
        odd = np.bitwise_xor.reduce(negative, axis=1, keepdims=True)
        np.bitwise_xor(negative, odd, out=negative)
        sign = scratch("ms_sign", lam.shape, dtype)
        np.multiply(negative, dtype.type(-2), out=sign)
        sign += dtype.type(1)
        np.multiply(out, sign, out=out)
        return out

    def _minsum_float(self, lam):
        _check_degree(lam)
        config = self.config
        eq, min1, min2 = self._minsum_minima(lam, np.finfo(lam.dtype).max / 2)
        if config.check_node == "normalized-minsum":
            min1 = min1 * config.normalization
            min2 = min2 * config.normalization
        elif config.check_node == "offset-minsum":
            min1 = np.maximum(min1 - config.offset, 0)
            min2 = np.maximum(min2 - config.offset, 0)
        return self._select_and_sign(lam, eq, min2, min1).astype(
            np.float64, copy=False
        )

    def _minsum_fixed(self, lam):
        _check_degree(lam)
        config = self.config
        qformat = config.qformat
        eq, min1, min2 = self._minsum_minima(lam, qformat.max_int + 1)
        if config.check_node == "normalized-minsum":
            if abs(config.normalization - 0.75) < 1e-9:
                min1 = ((3 * min1.astype(np.int64)) >> 2).astype(lam.dtype)
                min2 = ((3 * min2.astype(np.int64)) >> 2).astype(lam.dtype)
            else:
                min1 = np.floor(min1 * config.normalization).astype(lam.dtype)
                min2 = np.floor(min2 * config.normalization).astype(lam.dtype)
        elif config.check_node == "offset-minsum":
            # Capped at max_int so the subtraction stays in an int16
            # state's range: no minimum exceeds max_int, so a larger
            # offset zeroes every magnitude all the same.
            offset = min(int(np.rint(config.offset * qformat.scale)),
                         qformat.max_int)
            min1 = np.maximum(min1 - offset, 0)
            min2 = np.maximum(min2 - offset, 0)
        # Magnitudes are already within the representable range (minima
        # of saturated inputs, only ever shrunk by the corrections), so
        # the reference's final saturate is value-identical to a cast.
        return self._select_and_sign(lam, eq, min2, min1)

    # ------------------------------------------------------------------
    # Linear-approx: two-smallest + third minimum + PWL correction
    # ------------------------------------------------------------------
    def _linear_pair_terms(self, lam, sentinel):
        """Exclusive two smallest (m1 <= m2) per output edge."""
        scratch = self.plan.scratch
        amin1, min1, min2, masked = self._two_smallest(lam, sentinel)
        amin2 = masked.argmin(axis=1)[:, None, :]
        np.put_along_axis(masked, amin2, sentinel, axis=1)
        min3 = masked.min(axis=1, keepdims=True)
        m1 = scratch("la_m1", lam.shape, min1.dtype)
        m1[:] = min1
        np.put_along_axis(m1, amin1, min2, axis=1)
        m2 = scratch("la_m2", lam.shape, min2.dtype)
        m2[:] = min2
        np.put_along_axis(m2, amin1, min3, axis=1)
        np.put_along_axis(m2, amin2, min3, axis=1)
        return m1, m2

    def _flip_signs(self, lam, corrected):
        negative = self.plan.scratch("ms_neg", lam.shape, np.bool_)
        np.less(lam, 0, out=negative)
        odd = (negative.sum(axis=1, keepdims=True) & 1).astype(bool)
        np.bitwise_xor(negative, odd, out=negative)
        return np.where(negative, -corrected, corrected)

    def _linear_approx_float(self, lam):
        _check_degree(lam)
        if lam.shape[1] == 2:
            magnitude = np.abs(lam)
            out = self._flip_signs(lam, magnitude[:, ::-1, :])
        else:
            m1, m2 = self._linear_pair_terms(lam, np.inf)
            c0 = LinearApproxKernel.C0
            slope = LinearApproxKernel.SLOPE
            corrected = (
                m1
                + np.maximum(c0 - slope * (m1 + m2), 0.0)
                - np.maximum(c0 - slope * (m2 - m1), 0.0)
            )
            corrected = np.maximum(corrected, 0)
            out = self._flip_signs(lam, corrected)
        return np.clip(out.astype(np.float64), -self._msg_clip, self._msg_clip)

    def _linear_approx_fixed(self, lam):
        _check_degree(lam)
        qformat = self.config.qformat
        if lam.shape[1] == 2:
            magnitude = np.abs(lam)
            out = self._flip_signs(lam, magnitude[:, ::-1, :])
        else:
            m1, m2 = self._linear_pair_terms(lam, qformat.max_int + 1)
            c0 = self._linear_c0
            corr_sum = np.maximum(c0 - ((m1 + m2).astype(np.int64) >> 2), 0)
            corr_diff = np.maximum(c0 - ((m2 - m1).astype(np.int64) >> 2), 0)
            corrected = np.maximum(m1 + corr_sum - corr_diff, 0)
            out = self._flip_signs(lam, corrected)
        return qformat.saturate(out)
