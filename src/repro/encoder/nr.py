"""Two-stage linear-time encoder for NR-style QC-LDPC codes.

The NR base graphs (:mod:`repro.codes.nr`) are not plain dual-diagonal —
:class:`~repro.encoder.systematic.SystematicQCEncoder` rejects them — but
their structure still admits O(N) encoding in two stages:

1. **Core solve**: rows ``0..3`` and parity columns ``kb..kb+3`` form a
   4-row dual-diagonal system over the information columns; the same
   sum-cancellation/forward-substitution as the systematic encoder,
   restricted to the core, yields the four core parity blocks.
2. **Extension sweep**: every row ``r >= 4`` is a single-parity check
   whose fresh parity column is a shift-0 identity at column ``kb + r``,
   so its parity block is just the row's syndrome over the already-known
   information and core-parity columns.

This replaces the O(M^3) GF(2) elimination the generic fallback would
run (prohibitive at Z = 384, where M = 17664 for BG1) with one syndrome
of ``[u | 0]`` through the code's shift table and a handful of
``np.roll`` / XOR passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codes.base_matrix import ZERO_BLOCK
from repro.codes.qc import QCLDPCCode
from repro.encoder.systematic import info_syndromes
from repro.errors import EncodingError

__all__ = ["NRSystematicEncoder", "detect_nr_structure"]

_CORE = 4


@dataclass(frozen=True)
class _NRStructure:
    """Detected NR two-stage layout."""

    kb: int  # information block columns; core parity at kb..kb+3
    s0: int  # common top/bottom shift of core parity column kb
    mid_shift: int  # shift of the middle core entry (0 by construction)


def detect_nr_structure(code: QCLDPCCode) -> _NRStructure:
    """Verify and extract the NR core + extension layout.

    Raises
    ------
    EncodingError
        If the base matrix does not have the expected structure (fall
        back to :class:`repro.encoder.generic.GenericEncoder`).
    """
    base = code.base
    entries = base.entries
    j, k = base.j, base.k
    kb = k - j
    if j <= _CORE or kb < 1:
        raise EncodingError(f"{code.name}: not an NR-shaped base matrix")

    # Core parity column kb: three entries in rows 0..3 at (0, 2, 3)
    # with matching top/bottom shifts; staircase columns kb+1..kb+3.
    p0_rows = [r for r in range(_CORE) if entries[r, kb] != ZERO_BLOCK]
    if p0_rows != [0, 2, 3] or entries[0, kb] != entries[3, kb]:
        raise EncodingError(f"{code.name}: core parity column is not dual-diagonal")
    for t in range(1, _CORE):
        col_rows = [r for r in range(j) if entries[r, kb + t] != ZERO_BLOCK]
        core_rows = [r for r in col_rows if r < _CORE]
        if core_rows != [t - 1, t] or any(entries[r, kb + t] for r in core_rows):
            raise EncodingError(f"{code.name}: core staircase column {kb + t} malformed")

    # Rows 0..3 must not touch extension parity columns; each extension
    # column kb+r must be the shift-0 identity of row r and nothing else.
    for row in range(_CORE):
        if np.any(entries[row, kb + _CORE :] != ZERO_BLOCK):
            raise EncodingError(f"{code.name}: core row {row} touches extension parity")
    for row in range(_CORE, j):
        col = kb + row
        col_rows = [r for r in range(j) if entries[r, col] != ZERO_BLOCK]
        if col_rows != [row] or entries[row, col] != 0:
            raise EncodingError(
                f"{code.name}: extension parity column {col} is not a "
                f"degree-1 identity of row {row}"
            )
        if np.any(entries[row, kb + _CORE : col] != ZERO_BLOCK) or np.any(
            entries[row, col + 1 :] != ZERO_BLOCK
        ):
            raise EncodingError(
                f"{code.name}: extension row {row} touches other extension columns"
            )
    return _NRStructure(kb=kb, s0=int(entries[0, kb]), mid_shift=int(entries[2, kb]))


class NRSystematicEncoder:
    """O(N) encoder for NR core + extension base matrices.

    Examples
    --------
    >>> from repro.codes import get_code
    >>> code = get_code("NR:bg2:z8")
    >>> enc = NRSystematicEncoder(code)
    >>> import numpy as np
    >>> x = enc.encode(np.zeros(code.n_info, dtype=np.uint8))
    >>> bool(code.is_codeword(x))
    True
    """

    def __init__(self, code: QCLDPCCode):
        self.code = code
        self.structure = detect_nr_structure(code)

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        """Encode information bits into systematic codewords ``[u | p]``."""
        base = self.code.base
        entries = base.entries
        z = base.z
        j = base.j
        kb = self.structure.kb
        info = np.asarray(info_bits, dtype=np.uint8)
        single = info.ndim == 1
        if single:
            info = info[None, :]
        if info.shape[1] != self.code.n_info:
            raise EncodingError(
                f"info length {info.shape[1]} != K={self.code.n_info}"
            )
        batch = info.shape[0]
        syndromes = info_syndromes(self.code, info)

        # Stage 1 — core solve (rows 0..3): summing the four core rows
        # cancels the staircase pairs and the equal top/bottom shifts,
        # leaving the middle entry of column kb.
        total = np.bitwise_xor.reduce(syndromes[:, :_CORE, :], axis=1)
        v0 = np.roll(total, self.structure.mid_shift, axis=1)
        core = np.zeros((batch, _CORE, z), dtype=np.uint8)
        core[:, 0, :] = v0

        def p0_contribution(row: int) -> np.ndarray:
            shift = entries[row, kb]
            if shift == ZERO_BLOCK:
                return np.zeros((batch, z), dtype=np.uint8)
            return np.roll(v0, -int(shift), axis=1)

        core[:, 1, :] = syndromes[:, 0, :] ^ p0_contribution(0)
        for t in range(1, _CORE - 1):
            core[:, t + 1, :] = (
                core[:, t, :] ^ syndromes[:, t, :] ^ p0_contribution(t)
            )
        check = (
            syndromes[:, _CORE - 1, :]
            ^ p0_contribution(_CORE - 1)
            ^ core[:, _CORE - 1, :]
        )
        if check.any():
            raise EncodingError(
                f"{self.code.name}: core parity recursion did not close"
            )

        # Stage 2 — extension sweep: each row r >= 4 is a single-parity
        # check over information + core parity, emitting parity column
        # kb + r directly.
        ext = syndromes[:, _CORE:, :].copy()
        for row in range(_CORE, j):
            for t in range(_CORE):
                shift = entries[row, kb + t]
                if shift != ZERO_BLOCK:
                    ext[:, row - _CORE, :] ^= np.roll(
                        core[:, t, :], -int(shift), axis=1
                    )

        codewords = np.concatenate(
            [
                info,
                core.reshape(batch, _CORE * z),
                ext.reshape(batch, (j - _CORE) * z),
            ],
            axis=1,
        )
        return codewords[0] if single else codewords

    def random_codewords(
        self, count: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` random information words and encode them."""
        info = rng.integers(0, 2, size=(count, self.code.n_info), dtype=np.uint8)
        return info, self.encode(info)
