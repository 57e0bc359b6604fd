"""Partitioned decode plans: one compiled schedule split across K shards.

The paper's chip spreads one code's check rows across parallel SISO
units behind a permutation network; Condo & Masera's NoC decoder goes
further and partitions the Tanner graph itself, exchanging boundary
messages through an explicit interconnect.  This module is the plan
half of that software analogue: a :class:`PartitionedPlan` takes a
compiled :class:`~repro.decoder.plan.DecodePlan` and splits its
*layers* into K contiguous segments balanced by edge count, compiling
for each segment a :class:`ShardSubPlan` — a real ``DecodePlan`` over
the shard's **local** variable space, so every existing backend kernel
runs on it unmodified.

Why layers, not arbitrary subgraphs: layered BP with saturating
fixed-point arithmetic is order-sensitive, and the repo's invariant is
bit-identity against the K=1 decoder.  Splitting along the layer axis
keeps each check row's update whole and lets the runtime replay the
exact serial layer order as a wavefront across shards (see
:mod:`repro.runtime.fabric`), so sharded output can be bit-for-bit
identical for any K.

Variable-node classification follows the NoC vocabulary:

- **interior** columns are touched by exactly one shard — they live in
  that shard's local APP memory and never cross the interconnect;
- **boundary** columns are touched by two or more shards — every
  writer broadcasts its post-update values to the other shards that
  read them, via the per-pair :class:`BoundaryTable` gather tables
  compiled here;
- each touched column has one **owner** (the *last* shard in wavefront
  order that updates it), whose post-step values are the iteration's
  final APP for that column — the all-reduce the early-termination
  rule runs on.

Everything here is index bookkeeping over block columns (each QC block
reads all ``z`` cyclic offsets of its column, so shard-local variable
spaces are unions of whole ``z``-wide column groups and the compiled
``block_ranges`` stay valid after remapping).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.decoder.plan import DecodePlan
from repro.errors import DecoderConfigError


def expand_block_columns(columns, z: int) -> np.ndarray:
    """Block columns → the variable indices they cover, in canonical order.

    The canonical order — column-major over the given column list, the
    ``z`` offsets of each column contiguous — is the wire format of
    every boundary payload and owned-slice exchange, so both ends of
    the fabric call this one helper.
    """
    cols = np.asarray(columns, dtype=np.int64)
    if cols.size == 0:
        return np.empty(0, dtype=np.int64)
    return (cols[:, None] * z + np.arange(z, dtype=np.int64)[None, :]).reshape(-1)


def balanced_layer_segments(
    weights, shards: int
) -> list[tuple[int, int]]:
    """Split positions ``0..len(weights)`` into contiguous segments.

    Greedy cumulative-sum splitter: each boundary lands where the
    running edge count is closest to the ideal ``i/shards`` fraction,
    subject to every segment keeping at least one layer.  Layer counts
    are tiny (``j`` ≤ a few dozen), so the O(layers·shards) scan is
    irrelevant next to table compilation.
    """
    weights = np.asarray(weights, dtype=np.float64)
    count = len(weights)
    if shards < 1:
        raise DecoderConfigError("shards must be >= 1")
    if shards > count:
        raise DecoderConfigError(
            f"cannot split {count} layers into {shards} shards"
        )
    cum = np.cumsum(weights)
    total = float(cum[-1])
    bounds = [0]
    for i in range(1, shards):
        target = total * i / shards
        lo = bounds[-1] + 1
        hi = count - (shards - i)
        best = min(range(lo, hi + 1), key=lambda t: abs(float(cum[t - 1]) - target))
        bounds.append(best)
    bounds.append(count)
    return [(bounds[i], bounds[i + 1]) for i in range(shards)]


@dataclass(frozen=True)
class BoundaryTable:
    """One directed boundary exchange: shard ``src`` → shard ``dst``.

    After ``src`` finishes its layer segment, the APP values of every
    block column the two shards share travel to ``dst``.  Payloads are
    gathered with ``src_indices`` and scattered with ``dst_indices`` —
    both local variable indices in :func:`expand_block_columns` order
    over ``columns``, so the payload needs no header beyond its shape.
    """

    src: int
    dst: int
    columns: np.ndarray
    src_indices: np.ndarray
    dst_indices: np.ndarray

    @property
    def width(self) -> int:
        """Variables per frame in one payload."""
        return int(self.src_indices.size)


class ShardSubPlan(DecodePlan):
    """A shard's slice of a parent plan, rebased to local variable indices.

    A real :class:`DecodePlan` by duck type *and* by class: the gather /
    flat / ``block_ranges`` / lambda tables are the parent's, with every
    global variable index ``c·z + o`` remapped to
    ``colmap[c]·z + o`` over the shard's sorted local column list.
    Because each QC block covers all ``z`` offsets of one column, the
    remap preserves the two-slice rotation structure ``block_ranges``
    encodes, and existing backend kernels run on the shard's local
    arrays unmodified (see ``DecoderBackend.for_shard``).

    ``__init__`` deliberately does not call ``DecodePlan.__init__`` —
    a subplan is compiled *from* the parent's tables, never from the
    code, so the two can't drift apart.
    """

    is_shard = True

    def __init__(
        self,
        parent: DecodePlan,
        shard_index: int,
        layer_start: int,
        layer_stop: int,
    ):
        self.parent = parent
        self.shard_index = int(shard_index)
        self.layer_start = int(layer_start)
        self.layer_stop = int(layer_stop)
        self.code = parent.code
        z = parent.z
        positions = range(layer_start, layer_stop)
        self.layer_order = tuple(parent.layer_order[p] for p in positions)
        columns = np.unique(
            np.concatenate(
                [parent.gather_indices[p].reshape(-1) // z for p in positions]
            )
        ).astype(np.int64)
        #: Sorted global block columns this shard touches; position in
        #: this array is the shard-local block column index.
        self.global_columns = columns
        colmap = np.full(parent.n // z, -1, dtype=np.int64)
        colmap[columns] = np.arange(columns.size, dtype=np.int64)
        self.colmap = colmap
        gather: list[np.ndarray] = []
        flat: list[np.ndarray] = []
        ranges: list[list[tuple[int, int]]] = []
        slices: list[slice] = []
        degrees: list[int] = []
        offset = 0
        for pos in positions:
            idx = parent.gather_indices[pos]
            local = (colmap[idx // z] * z + idx % z).astype(np.int32)
            gather.append(local)
            flat.append(np.ascontiguousarray(local.reshape(-1)))
            ranges.append(
                [
                    (int(colmap[start // z]) * z, shift)
                    for start, shift in parent.block_ranges[pos]
                ]
            )
            degree = int(parent.layer_degrees[pos])
            slices.append(slice(offset, offset + degree))
            degrees.append(degree)
            offset += degree
        self.gather_indices = gather
        self.flat_indices = flat
        self.block_ranges = ranges
        self.lambda_slices = slices
        self.layer_degrees = np.asarray(degrees, dtype=np.int32)
        self.total_blocks = offset
        self.num_layers = len(gather)
        self.z = z
        self.n = int(columns.size) * z
        self.degree_buckets: dict[int, list[int]] = {}
        for pos, degree in enumerate(degrees):
            self.degree_buckets.setdefault(degree, []).append(pos)
        self._scratch = threading.local()

    def validate(self) -> None:
        """Check every local table against a fresh remap of the parent's."""
        rebuilt = ShardSubPlan(
            self.parent, self.shard_index, self.layer_start, self.layer_stop
        )
        for pos in range(self.num_layers):
            if (
                not np.array_equal(
                    self.gather_indices[pos], rebuilt.gather_indices[pos]
                )
                or not np.array_equal(
                    self.flat_indices[pos], rebuilt.flat_indices[pos]
                )
                or self.block_ranges[pos] != rebuilt.block_ranges[pos]
            ):
                raise DecoderConfigError(
                    f"shard {self.shard_index} gather table for local layer "
                    f"{pos} disagrees with the parent plan"
                )
            self._check_distinct(pos)
        if self.total_blocks != rebuilt.total_blocks or not np.array_equal(
            self.global_columns, rebuilt.global_columns
        ):
            raise DecoderConfigError(
                f"shard {self.shard_index} plan is inconsistent with parent"
            )

    def __repr__(self) -> str:
        return (
            f"ShardSubPlan(shard={self.shard_index}, "
            f"layers=[{self.layer_start}:{self.layer_stop}), "
            f"columns={self.global_columns.size}, blocks={self.total_blocks}, "
            f"z={self.z})"
        )


class PartitionedPlan:
    """K shard subplans + the boundary tables that stitch them together.

    Attributes
    ----------
    shards:
        Effective shard count — the requested count clamped to the
        number of processed layers (a shard must own at least one
        layer, so tiny codes decode with fewer shards than asked; the
        result is bit-identical either way).
    subplans:
        One :class:`ShardSubPlan` per shard, in wavefront order.
    send_tables:
        Per source shard, the :class:`BoundaryTable` list for every
        other shard it shares columns with (dst ascending).
    boundary_columns / interior_columns:
        Global block columns touched by ≥ 2 shards / exactly one.
    owner:
        Per global block column, the owning shard (−1 if no layer
        touches the column — its APP never changes from the channel
        value).  The owner is the **last** toucher in wavefront order,
        so its post-step values are final for the iteration.
    owned_columns / owned_indices / owned_global_indices:
        Per shard: owned global block columns, the matching local
        variable indices (gather side), and the matching global
        variable indices (the coordinator's scatter side).
    """

    def __init__(self, plan: DecodePlan, shards: int):
        if shards < 1:
            raise DecoderConfigError("shards must be >= 1")
        self.plan = plan
        self.requested_shards = int(shards)
        count = min(int(shards), plan.num_layers)
        self.shards = count
        z = plan.z
        weights = plan.layer_degrees.astype(np.int64) * z
        self.layer_segments = balanced_layer_segments(weights, count)
        self.subplans = [
            ShardSubPlan(plan, index, start, stop)
            for index, (start, stop) in enumerate(self.layer_segments)
        ]

        num_cols = plan.n // z
        touch = np.zeros(num_cols, dtype=np.int64)
        owner = np.full(num_cols, -1, dtype=np.int64)
        for sub in self.subplans:
            touch[sub.global_columns] += 1
            # Ascending shard order makes the final write the max
            # toucher — the last shard in wavefront order.
            owner[sub.global_columns] = sub.shard_index
        self.owner = owner
        touched = np.flatnonzero(touch > 0)
        self.boundary_columns = np.flatnonzero(touch > 1)
        self.interior_columns = np.flatnonzero(touch == 1)
        self.untouched_columns = np.flatnonzero(touch == 0)

        self.owned_columns: list[np.ndarray] = []
        self.owned_indices: list[np.ndarray] = []
        self.owned_global_indices: list[np.ndarray] = []
        for sub in self.subplans:
            cols = touched[owner[touched] == sub.shard_index]
            self.owned_columns.append(cols)
            self.owned_indices.append(
                expand_block_columns(sub.colmap[cols], z)
            )
            self.owned_global_indices.append(expand_block_columns(cols, z))

        self.send_tables: list[list[BoundaryTable]] = []
        for src in self.subplans:
            tables = []
            for dst in self.subplans:
                if dst.shard_index == src.shard_index:
                    continue
                shared = np.intersect1d(
                    src.global_columns, dst.global_columns
                )
                if shared.size == 0:
                    continue
                tables.append(
                    BoundaryTable(
                        src=src.shard_index,
                        dst=dst.shard_index,
                        columns=shared,
                        src_indices=expand_block_columns(
                            src.colmap[shared], z
                        ),
                        dst_indices=expand_block_columns(
                            dst.colmap[shared], z
                        ),
                    )
                )
            self.send_tables.append(tables)

    def boundary_values_per_iteration(self) -> int:
        """Boundary variables crossing the interconnect per iteration
        per frame (multiply by the work dtype's itemsize for bytes)."""
        return sum(
            table.width for tables in self.send_tables for table in tables
        )

    def describe(self) -> dict:
        """Partition shape summary (telemetry, examples, tests)."""
        z = self.plan.z
        return {
            "shards": self.shards,
            "requested_shards": self.requested_shards,
            "layers": [list(seg) for seg in self.layer_segments],
            "edges": [
                int(sub.total_blocks) * z for sub in self.subplans
            ],
            "columns": [int(sub.global_columns.size) for sub in self.subplans],
            "interior_columns": int(self.interior_columns.size),
            "boundary_columns": int(self.boundary_columns.size),
            "boundary_values_per_iteration": self.boundary_values_per_iteration(),
        }

    def __repr__(self) -> str:
        return (
            f"PartitionedPlan(code={self.plan.code.name!r}, "
            f"shards={self.shards}, "
            f"boundary_columns={self.boundary_columns.size})"
        )


__all__ = [
    "BoundaryTable",
    "PartitionedPlan",
    "ShardSubPlan",
    "balanced_layer_segments",
    "expand_block_columns",
]
