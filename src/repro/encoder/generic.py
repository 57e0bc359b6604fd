"""Generic GF(2) encoder for arbitrary full-rank parity-check matrices.

Fallback for codes whose parity part is not dual-diagonal.  Precomputes
``P = B^{-1} A`` where ``H = [A | B]`` (after an optional column
permutation that makes ``B`` invertible), then encodes with one GF(2)
matrix-vector product per frame.

Cost: one-off ``O(M^3)`` bit-packed Gaussian elimination; per-frame
``O(K * M)``.  Use :class:`repro.encoder.systematic.SystematicQCEncoder`
for the standard codes (it is asymptotically faster and structure-exact).
"""

from __future__ import annotations

import numpy as np

from repro.codes.qc import QCLDPCCode
from repro.errors import EncodingError
from repro.utils.gf2 import GF2Matrix


class GenericEncoder:
    """Encode via a precomputed parity projection matrix.

    Parameters
    ----------
    code:
        Any code whose expanded ``H`` has full row rank.

    Notes
    -----
    The encoder keeps the code systematic in the *original* column order
    whenever the last ``M`` columns of ``H`` are invertible (true for all
    registry codes).  Otherwise it pivots columns and records the
    permutation, and ``encode`` places information bits accordingly; the
    returned codeword is always in natural column order and satisfies
    ``H x^T = 0``.
    """

    def __init__(self, code: QCLDPCCode):
        self.code = code
        h_bits = code.H
        m, n = h_bits.shape
        k = n - m

        parity_part = GF2Matrix(h_bits[:, k:])
        if parity_part.rank() == m:
            self._info_cols = np.arange(k)
            self._parity_cols = np.arange(k, n)
        else:
            self._info_cols, self._parity_cols = self._pivot_columns(h_bits)
        a = h_bits[:, self._info_cols]
        b = GF2Matrix(h_bits[:, self._parity_cols])
        try:
            b_inv = b.inverse()
        except ValueError as exc:
            raise EncodingError(
                f"{code.name}: H is rank-deficient; cannot build an encoder"
            ) from exc
        # P maps info bits to parity bits: p = P u  (over GF(2)).
        self._projection = (b_inv @ GF2Matrix(a)).bits

    @staticmethod
    def _pivot_columns(h_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Choose M independent columns for the parity positions."""
        m, n = h_bits.shape
        _, pivots = GF2Matrix(h_bits).row_echelon()
        if len(pivots) != m:
            raise EncodingError("H does not have full row rank")
        parity_cols = np.array(pivots)
        info_cols = np.array([c for c in range(n) if c not in set(pivots)])
        return info_cols, parity_cols

    @property
    def is_natural_systematic(self) -> bool:
        """True when info bits occupy the first K columns unchanged."""
        return bool(np.array_equal(self._info_cols, np.arange(self.code.n_info)))

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        """Encode ``(K,)`` or ``(B, K)`` info bits into codewords."""
        info = np.asarray(info_bits, dtype=np.uint8)
        single = info.ndim == 1
        if single:
            info = info[None, :]
        k = self.code.n - self.code.m
        if info.shape[1] != k:
            raise EncodingError(f"info length {info.shape[1]} != K={k}")
        parity = (info.astype(np.int32) @ self._projection.T.astype(np.int32)) % 2
        codewords = np.zeros((info.shape[0], self.code.n), dtype=np.uint8)
        codewords[:, self._info_cols] = info
        codewords[:, self._parity_cols] = parity.astype(np.uint8)
        return codewords[0] if single else codewords
