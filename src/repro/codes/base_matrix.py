"""Prototype ("base") matrices for block-structured LDPC codes.

A block-structured parity-check matrix (paper Fig. 1) is a ``j x k`` array
of ``z x z`` sub-matrices, each either the zero matrix or a cyclically
shifted identity ``I_x`` with ``0 <= x < z``.  The *base matrix* stores one
integer per sub-matrix: ``-1`` for the zero block, otherwise the shift.

Shift convention
----------------
``I_x[r, c] = 1  iff  c == (r + x) mod z`` — row ``r`` of the block connects
check ``r`` to variable ``(r + x) mod z`` within the block column.  With
this convention, gathering the ``z`` L-messages of a block column for a
layer is ``np.roll(L_block, -x)`` and scattering back is ``np.roll(, +x)``,
which is exactly the circular-shifter routing of the paper's architecture
(Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CodeConstructionError

ZERO_BLOCK = -1


@dataclass(frozen=True)
class BlockEntry:
    """One non-zero sub-matrix of a base matrix.

    Attributes
    ----------
    layer:
        Block-row (layer) index, ``0 <= layer < j``.
    column:
        Block-column index, ``0 <= column < k``.
    shift:
        Cyclic shift of the identity sub-matrix, ``0 <= shift < z``.
    """

    layer: int
    column: int
    shift: int


@dataclass(frozen=True)
class BaseMatrix:
    """An immutable ``j x k`` prototype matrix with expansion factor ``z``.

    Parameters
    ----------
    entries:
        2-D integer array; ``-1`` marks a zero block, other values are
        shifts in ``[0, z)``.
    z:
        Sub-matrix (expansion) size.
    name:
        Human-readable mode name, e.g. ``"wimax_r12_z96"``.
    standard:
        Originating standard (``"802.11n"``, ``"802.16e"``, ``"DMB-T"``,
        or ``"synthetic"``).
    synthetic:
        True when the shift values are *not* taken verbatim from a
        standard document (see DESIGN.md substitution table).
    """

    entries: np.ndarray
    z: int
    name: str = "unnamed"
    standard: str = "synthetic"
    synthetic: bool = True
    _nonzero: tuple[BlockEntry, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.int64)
        if entries.ndim != 2:
            raise CodeConstructionError("base matrix must be 2-D")
        if self.z < 2:
            raise CodeConstructionError(f"expansion factor z={self.z} must be >= 2")
        if entries.min() < ZERO_BLOCK or entries.max() >= self.z:
            raise CodeConstructionError(
                f"shift values must lie in [-1, {self.z - 1}], "
                f"got range [{entries.min()}, {entries.max()}]"
            )
        object.__setattr__(self, "entries", entries)
        rows, cols = np.nonzero(entries != ZERO_BLOCK)  # row-major order
        nonzero = tuple(
            BlockEntry(layer=r, column=c, shift=shift)
            for r, c, shift in zip(
                rows.tolist(), cols.tolist(), entries[rows, cols].tolist()
            )
        )
        if not nonzero:
            raise CodeConstructionError("base matrix has no non-zero blocks")
        object.__setattr__(self, "_nonzero", nonzero)

    # ------------------------------------------------------------------
    # Shape / structural properties (paper Table 1 parameters)
    # ------------------------------------------------------------------
    @property
    def j(self) -> int:
        """Number of block rows (layers)."""
        return int(self.entries.shape[0])

    @property
    def k(self) -> int:
        """Number of block columns."""
        return int(self.entries.shape[1])

    @property
    def n(self) -> int:
        """Codeword length ``N = k * z`` in bits."""
        return self.k * self.z

    @property
    def m(self) -> int:
        """Number of parity checks ``M = j * z``."""
        return self.j * self.z

    @property
    def n_info(self) -> int:
        """Nominal information length ``K = (k - j) * z``."""
        return (self.k - self.j) * self.z

    @property
    def rate(self) -> float:
        """Nominal code rate ``R = 1 - j / k`` (assumes full-rank H)."""
        return 1.0 - self.j / self.k

    @property
    def num_blocks(self) -> int:
        """Total non-zero sub-matrices ``E`` (drives the throughput model)."""
        return len(self._nonzero)

    # ------------------------------------------------------------------
    # Iteration helpers used by decoders and the architecture model
    # ------------------------------------------------------------------
    def nonzero_blocks(self) -> tuple[BlockEntry, ...]:
        """All non-zero blocks in row-major order."""
        return self._nonzero

    def layer_blocks(self, layer: int) -> list[BlockEntry]:
        """The non-zero blocks of one layer, in ascending column order."""
        if not 0 <= layer < self.j:
            raise IndexError(f"layer {layer} out of range [0, {self.j})")
        return [b for b in self._nonzero if b.layer == layer]

    def layer_degrees(self) -> np.ndarray:
        """Check-node degree ``d_m`` of each layer (blocks per layer)."""
        degrees = np.zeros(self.j, dtype=np.int64)
        for block in self._nonzero:
            degrees[block.layer] += 1
        return degrees

    def column_degrees(self) -> np.ndarray:
        """Variable-node degree of each block column."""
        degrees = np.zeros(self.k, dtype=np.int64)
        for block in self._nonzero:
            degrees[block.column] += 1
        return degrees

    def layer_columns(self, layer: int) -> list[int]:
        """Block columns participating in ``layer``."""
        return [b.column for b in self.layer_blocks(layer)]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def scaled(self, z_new: int, rule: str = "floor") -> "BaseMatrix":
        """Re-target the matrix to a new expansion factor.

        IEEE 802.16e defines one base matrix per rate at ``z0 = 96`` and
        derives the other 18 sub-matrix sizes by scaling the shifts:

        - ``rule="floor"``:  ``x' = floor(x * z_new / z0)`` (most rates)
        - ``rule="mod"``:    ``x' = x mod z_new``            (rate 2/3A)

        Parameters
        ----------
        z_new:
            Target expansion factor.
        rule:
            ``"floor"`` or ``"mod"``.

        Returns
        -------
        BaseMatrix
            A new base matrix; zero blocks stay zero blocks.
        """
        if z_new < 2:
            raise CodeConstructionError(f"z_new={z_new} must be >= 2")
        entries = self.entries.copy()
        mask = entries != ZERO_BLOCK
        if rule == "floor":
            entries[mask] = entries[mask] * z_new // self.z
        elif rule == "mod":
            entries[mask] = entries[mask] % z_new
        else:
            raise CodeConstructionError(f"unknown scaling rule {rule!r}")
        return BaseMatrix(
            entries=entries,
            z=z_new,
            name=f"{self.name}_z{z_new}",
            standard=self.standard,
            synthetic=self.synthetic,
        )

    def permuted_layers(self, order: "list[int] | np.ndarray") -> "BaseMatrix":
        """Return a copy with the block rows reordered.

        Layer reordering does not change the code (H rows are permuted) but
        changes the pipeline-stall behaviour of the overlapped schedule
        (paper §III-C, ref [10]).
        """
        order = list(order)
        if sorted(order) != list(range(self.j)):
            raise CodeConstructionError(
                f"layer order {order} is not a permutation of 0..{self.j - 1}"
            )
        return BaseMatrix(
            entries=self.entries[order, :],
            z=self.z,
            name=self.name,
            standard=self.standard,
            synthetic=self.synthetic,
        )

    # ------------------------------------------------------------------
    # Rendering (Fig. 1 style)
    # ------------------------------------------------------------------
    def ascii_art(self) -> str:
        """Compact textual rendering: ``.`` for zero blocks, shifts otherwise."""
        width = max(2, len(str(self.z - 1)))
        lines = []
        for r in range(self.j):
            cells = []
            for c in range(self.k):
                value = self.entries[r, c]
                cells.append("." * width if value == ZERO_BLOCK else str(value).rjust(width))
            lines.append(" ".join(cells))
        return "\n".join(lines)
