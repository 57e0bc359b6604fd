"""Expanded quasi-cyclic LDPC codes.

:class:`QCLDPCCode` binds a :class:`~repro.codes.base_matrix.BaseMatrix` to
its expansion, held once as :attr:`QCLDPCCode.layer_indices`: per layer,
the variable indices its checks read.  Like the chip's mode ROM, which
its controller and shifter both read, that one table serves every parity
consumer: syndromes, decode plans, bit flipping and the girth check.  A
dense ``H`` is built from it only for small-code matrix algebra.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.codes.base_matrix import BaseMatrix, BlockEntry


class QCLDPCCode:
    """A block-structured LDPC code expanded from a base matrix.

    Parameters
    ----------
    base:
        The prototype matrix (shifts + expansion factor).

    Notes
    -----
    The expanded ``H`` uses the shift convention documented in
    :mod:`repro.codes.base_matrix`: block entry ``x`` contributes ones at
    ``H[lz + r, cz + (r + x) % z]``.
    """

    def __init__(self, base: BaseMatrix):
        self.base = base

    # ------------------------------------------------------------------
    # Convenience pass-throughs
    # ------------------------------------------------------------------
    @property
    def z(self) -> int:
        return self.base.z

    @property
    def n(self) -> int:
        """Codeword length in bits."""
        return self.base.n

    @property
    def m(self) -> int:
        """Number of parity checks."""
        return self.base.m

    @property
    def n_info(self) -> int:
        """Nominal information length (systematic prefix)."""
        return self.base.n_info

    @property
    def rate(self) -> float:
        return self.base.rate

    @property
    def name(self) -> str:
        return self.base.name

    @property
    def standard(self) -> str:
        return self.base.standard

    @property
    def num_edges(self) -> int:
        """Number of Tanner-graph edges (ones in H)."""
        return self.base.num_blocks * self.z

    def __repr__(self) -> str:
        return (
            f"QCLDPCCode(name={self.name!r}, n={self.n}, k={self.n_info}, "
            f"z={self.z}, rate={self.rate:.3f})"
        )

    # ------------------------------------------------------------------
    # The shift table and its views
    # ------------------------------------------------------------------
    @cached_property
    def layer_tables(self) -> list[list[BlockEntry]]:
        """Per-layer lists of non-zero blocks (the decoder's inner loop)."""
        return [self.base.layer_blocks(layer) for layer in range(self.base.j)]

    @cached_property
    def layer_indices(self) -> tuple[np.ndarray, ...]:
        """Per layer, the ``(d_l, z)`` int32 variable indices its checks read.

        Row ``i`` is block ``i`` of :attr:`layer_tables`: check ``r`` of
        the layer reads variable ``column * z + (r + shift) % z``.  Each
        is a read-only view into :attr:`_shift_table`; decode plans share
        them.
        """
        return tuple(
            self._shift_table[layer, : len(blocks)]
            for layer, blocks in enumerate(self.layer_tables)
        )

    @cached_property
    def _shift_table(self) -> np.ndarray:
        """The ``(j, max d_l, z)`` shift table; padding reads variable ``N``."""
        z = self.z
        rows = np.arange(z)
        degree = max(len(blocks) for blocks in self.layer_tables)
        table = np.full((len(self.layer_tables), degree, z), self.n, np.int32)
        for layer, blocks in enumerate(self.layer_tables):
            for i, block in enumerate(blocks):
                table[layer, i] = block.column * z + (rows + block.shift) % z
        table.setflags(write=False)
        return table

    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """Every Tanner-graph edge (one in ``H``) as ``(checks, variables)``."""
        table = self._shift_table
        checks = np.arange(self.m).reshape(-1, 1, self.z)
        real = table < self.n
        return np.broadcast_to(checks, table.shape)[real], table[real]

    @cached_property
    def H(self) -> np.ndarray:
        """The expanded ``M x N`` parity-check matrix, dense and read-only.

        Built from the shift table on first access, for matrix
        algebra (GF(2) rank, the generic encoder, exhibits).  It costs
        ``O(M * N)`` bytes, so it is meant for small codes; no decode,
        sweep or serving path builds it.
        """
        h = np.zeros((self.m, self.n), dtype=np.uint8)
        h[self.edge_list()] = 1
        h.setflags(write=False)
        return h

    def syndrome(self, codewords: np.ndarray) -> np.ndarray:
        """Compute ``H @ x^T mod 2`` for one codeword or a batch.

        Parameters
        ----------
        codewords:
            ``(N,)`` or ``(B, N)`` bit array; only the low bit of each
            entry counts.

        Returns
        -------
        numpy.ndarray
            ``(M,)`` or ``(B, M)`` syndrome bits.
        """
        x = np.asarray(codewords, dtype=np.uint8)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        batch, n = x.shape
        if n != self.n:
            raise ValueError(f"codeword length {n} != N={self.n}")
        # Frame-minor bits, so each index gathers a run of B bytes; the
        # padding slots of short layers read the zero row N.
        bits = np.zeros((n + 1, batch), dtype=np.uint8)
        np.bitwise_and(x.T, 1, out=bits[:n])
        table = self._shift_table
        s = np.bitwise_xor.reduce(bits.take(table, axis=0), axis=1)
        s = s.reshape(table.shape[0] * table.shape[2], batch).T
        return s[0] if single else s

    def is_codeword(self, codewords: np.ndarray) -> "bool | np.ndarray":
        """True when all parity checks are satisfied (per batch element)."""
        s = self.syndrome(codewords)
        if s.ndim == 1:
            return not s.any()
        return ~s.any(axis=1)

    @cached_property
    def max_layer_degree(self) -> int:
        """``max_m d_m`` — sizes the SISO FIFO depth in the architecture."""
        return int(self.base.layer_degrees().max())

    def info_bit_indices(self) -> np.ndarray:
        """Indices of the systematic (information) bits.

        The standards place information bits in the first ``k - j`` block
        columns; the early-termination rule (paper §IV) only inspects these.
        """
        return np.arange(self.n_info)

    # ------------------------------------------------------------------
    # Structural statistics (Fig. 1 / Table 1 exhibits)
    # ------------------------------------------------------------------
    def structure_summary(self) -> dict:
        """Summary statistics used by the Table 1 / Fig. 1 experiments."""
        layer_deg = self.base.layer_degrees()
        col_deg = self.base.column_degrees()
        return {
            "name": self.name,
            "standard": self.standard,
            "j": self.base.j,
            "k": self.base.k,
            "z": self.z,
            "n": self.n,
            "k_info": self.n_info,
            "rate": self.rate,
            "nonzero_blocks": self.base.num_blocks,
            "edges": self.num_edges,
            "row_degree_min": int(layer_deg.min()),
            "row_degree_max": int(layer_deg.max()),
            "col_degree_min": int(col_deg.min()),
            "col_degree_max": int(col_deg.max()),
            "synthetic": self.base.synthetic,
        }
