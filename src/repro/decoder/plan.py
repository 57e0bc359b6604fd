"""Compiled decode plans: the software analogue of the chip's shift ROMs.

The hardware reaches its throughput because nothing about the code
structure is recomputed at run time: the controller walks precomputed
shift/address ROMs and the datapath streams messages through them.  A
:class:`DecodePlan` plays the same role here — it lays out a
:class:`~repro.codes.qc.QCLDPCCode` (plus an optional layer permutation)
once as ``int32`` gather/scatter indices, per-layer degree tables, and a
pool of reusable working buffers.  The indices are views of the code's
own :attr:`~repro.codes.qc.QCLDPCCode.layer_indices` in processing
order, not a copy.  Decoders build a plan at construction and every
backend (see :mod:`repro.decoder.backends`) executes against it, so the
per-call cost is pure arithmetic.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.codes.qc import QCLDPCCode
from repro.errors import DecoderConfigError


def resolve_layer_order(
    code: QCLDPCCode, layer_order: tuple[int, ...] | None
) -> tuple[int, ...]:
    """Validate a layer permutation (natural order when ``None``)."""
    if layer_order is None:
        return tuple(range(code.base.j))
    order = tuple(int(layer) for layer in layer_order)
    if sorted(order) != list(range(code.base.j)):
        raise DecoderConfigError(
            f"layer_order {order} is not a permutation of "
            f"0..{code.base.j - 1}"
        )
    return order


def check_plan_compatible(
    plan: "DecodePlan",
    code: QCLDPCCode,
    layer_order: tuple[int, ...] | None,
) -> None:
    """Verify a prebuilt plan actually belongs to ``(code, layer_order)``.

    Decoders accept externally built plans (shared through
    :class:`~repro.service.PlanCache` or
    :meth:`~repro.arch.mode_rom.ModeROM.decode_plan`); a plan compiled
    for a different code or layer permutation would silently decode with
    the wrong gather tables, so the mismatch is rejected up front.

    Raises
    ------
    DecoderConfigError
        If the plan's code or processing order differs.
    """
    if plan.code is not code and (
        plan.code.name != code.name
        or plan.code.n != code.n
        or plan.code.z != code.z
        # Names alone are not identity: synthetic codes default to
        # "unnamed", so two structurally different codes can share one.
        # BlockEntry is a frozen dataclass, so this compares every
        # (layer, column, shift) of every block — the exact structure
        # the gather tables were compiled from.
        or plan.code.layer_tables != code.layer_tables
    ):
        raise DecoderConfigError(
            f"plan was compiled for code {plan.code.name!r} "
            f"(n={plan.code.n}, z={plan.code.z}), which is not "
            f"structurally identical to {code.name!r} "
            f"(n={code.n}, z={code.z})"
        )
    expected = resolve_layer_order(code, layer_order)
    if plan.layer_order != expected:
        raise DecoderConfigError(
            f"plan layer order {plan.layer_order} != configured {expected}"
        )


class DecodePlan:
    """Precompiled gather/scatter schedule for one code + layer order.

    Attributes
    ----------
    gather_indices:
        Per processed layer, an ``(d_l, z)`` int32 array of the variable
        indices the layer reads (and writes back).
    flat_indices:
        The same indices flattened to ``(d_l * z,)`` — the form the
        backends use for single-shot ``take``/scatter.
    lambda_slices:
        Per layer, the slice of the packed ``(B, total_blocks, z)``
        check-message memory that belongs to it.
    layer_degrees:
        ``(num_layers,)`` check degrees ``d_l``.
    degree_buckets:
        ``degree -> [layer positions]`` — layers a backend may batch
        together because they share a message shape.
    total_blocks:
        Total non-zero blocks over all layers (the Λ memory depth).
    """

    def __init__(self, code: QCLDPCCode, layer_order: tuple[int, ...] | None = None):
        self.code = code
        self.layer_order = resolve_layer_order(code, layer_order)
        z = code.z
        gather: list[np.ndarray] = []
        flat: list[np.ndarray] = []
        ranges: list[list[tuple[int, int]]] = []
        slices: list[slice] = []
        degrees: list[int] = []
        offset = 0
        for layer in self.layer_order:
            blocks = code.layer_tables[layer]
            idx = code.layer_indices[layer]
            gather.append(idx)
            flat.append(idx.reshape(-1))
            ranges.append(
                [(int(block.column) * z, int(block.shift)) for block in blocks]
            )
            slices.append(slice(offset, offset + len(blocks)))
            degrees.append(len(blocks))
            offset += len(blocks)
        self.gather_indices = gather
        self.flat_indices = flat
        #: Per layer, ``(column_start, shift)`` pairs: block ``i`` reads
        #: (and writes) the cyclic rotation by ``shift`` of the APP range
        #: ``[column_start, column_start + z)`` — two contiguous slice
        #: copies, the software form of the chip's circular shifter.
        self.block_ranges = ranges
        self.lambda_slices = slices
        self.layer_degrees = np.asarray(degrees, dtype=np.int32)
        self.total_blocks = offset
        self.num_layers = len(gather)
        self.z = z
        self.n = code.n
        self.degree_buckets: dict[int, list[int]] = {}
        for pos, degree in enumerate(degrees):
            self.degree_buckets.setdefault(degree, []).append(pos)
        self._scratch = threading.local()

    def scratch(self, key: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A reusable working buffer for one backend stage.

        The leading dimension is treated as a *capacity*: buffers are
        keyed by ``(key, shape[1:], dtype)`` and sized to the largest
        leading dimension requested so far, and a prefix view is returned.
        Active-frame compaction shrinks the batch monotonically within a
        decode, so every per-iteration request after the first is served
        from the same allocation instead of minting (and thrashing) one
        slot per surviving batch size.  Contents are unspecified on
        return; the returned prefix view is C-contiguous.

        The buffer pool is **thread-local**: the compiled index tables
        are immutable after construction and every mutable working
        buffer lives in per-thread storage, so one plan (and therefore
        one decoder/backend built on it) can serve concurrent decodes
        from a worker pool — the sharing model of
        :class:`~repro.service.PlanCache`.  Each thread pays for its own
        buffers; nothing is shared between decodes on different threads.
        """
        pools = getattr(self._scratch, "pools", None)
        if pools is None:
            pools = self._scratch.pools = {}
        slot = (key, shape[1:], np.dtype(dtype))
        buffer = pools.get(slot)
        if buffer is None or buffer.shape[0] < shape[0]:
            buffer = np.empty(shape, dtype=dtype)
            pools[slot] = buffer
        return buffer[: shape[0]]

    def validate(self) -> None:
        """Check the layout the backends rely on.

        Every layer's indices must be distinct, for the backends'
        one-assignment write-back, and the Λ slices must tile the message
        memory in processing order.

        Raises
        ------
        DecoderConfigError
            If a layer reads a variable twice or a Λ slice is misaligned.
        """
        offset = 0
        for pos, layer in enumerate(self.layer_order):
            degree = len(self.code.layer_tables[layer])
            self._check_distinct(pos)
            if self.lambda_slices[pos] != slice(offset, offset + degree):
                raise DecoderConfigError(
                    f"plan lambda slice for layer {layer} is misaligned"
                )
            offset += degree
        if offset != self.total_blocks:
            raise DecoderConfigError("plan total_blocks is inconsistent")

    def _check_distinct(self, pos: int) -> None:
        # Backends write a layer back with one indexed assignment, which
        # is only well defined when no variable appears twice in it.
        flat = self.flat_indices[pos]
        if np.unique(flat).size != flat.size:
            raise DecoderConfigError(
                f"plan layer at position {pos} reads a variable twice"
            )

    def __repr__(self) -> str:
        return (
            f"DecodePlan(code={self.code.name!r}, layers={self.num_layers}, "
            f"blocks={self.total_blocks}, z={self.z})"
        )
