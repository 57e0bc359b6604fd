"""Linear-time systematic encoder for dual-diagonal QC-LDPC codes.

802.11n and 802.16e base matrices share a parity-part structure that
permits O(N) encoding (Richardson-Urbanke style, as specified in the
standards):

- the first parity block column ``p0`` has exactly three entries — top
  row, a middle row with shift 0, bottom row — where the top and bottom
  shifts are equal (so they cancel over GF(2) when all layers are summed);
- the remaining parity columns form a shift-0 staircase (each column has
  two vertically adjacent entries).

Encoding:

1. per-layer information syndromes ``s_l = sum_c I_{x(l,c)} u_c``, the
   code's syndrome of ``[u | 0]`` (:func:`info_syndromes`);
2. ``v0 = I_{-x_mid} * sum_l s_l`` (dual-diagonal pairs cancel, the equal
   top/bottom shifts cancel, leaving the middle entry);
3. forward substitution down the staircase recovers ``v1 .. v_{j-1}``;
4. the last row closes the recursion and doubles as a parity self-check.

The synthetic matrices from :mod:`repro.codes.construction` use the same
structure by design, so one encoder serves every registry mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codes.base_matrix import ZERO_BLOCK
from repro.codes.qc import QCLDPCCode
from repro.errors import EncodingError


@dataclass(frozen=True)
class _ParityStructure:
    """Detected dual-diagonal layout of the parity part."""

    p0_col: int
    top_row: int
    mid_row: int
    bot_row: int
    p0_shift: int  # common shift of the top/bottom entries
    mid_shift: int  # shift of the middle entry (0 in the standards)


def info_syndromes(code: QCLDPCCode, info: np.ndarray) -> np.ndarray:
    """Per-layer syndromes of the information part, shape ``(B, j, z)``.

    The syndrome of ``[u | 0]``: with the parity part zero, check row
    ``r`` of layer ``l`` is ``sum_c I_{x(l,c)} u_c``, read through the
    code's shift table.
    """
    batch = info.shape[0]
    word = np.zeros((batch, code.n), dtype=np.uint8)
    word[:, : code.n_info] = info
    return code.syndrome(word).reshape(batch, code.base.j, code.z)


def detect_parity_structure(code: QCLDPCCode) -> _ParityStructure:
    """Verify and extract the dual-diagonal parity layout.

    Raises
    ------
    EncodingError
        If the parity part does not have the expected structure (use
        :class:`repro.encoder.generic.GenericEncoder` in that case).
    """
    base = code.base
    entries = base.entries
    j, k = base.j, base.k
    p0 = k - j

    p0_rows = [r for r in range(j) if entries[r, p0] != ZERO_BLOCK]
    if len(p0_rows) != 3:
        raise EncodingError(
            f"{code.name}: parity column {p0} has {len(p0_rows)} entries, "
            "expected 3 (top/middle/bottom)"
        )
    top, mid, bot = p0_rows
    if entries[top, p0] != entries[bot, p0]:
        raise EncodingError(
            f"{code.name}: top/bottom shifts of parity column differ "
            f"({entries[top, p0]} vs {entries[bot, p0]}); cannot cancel"
        )
    for t in range(1, j):
        col = p0 + t
        col_rows = [r for r in range(j) if entries[r, col] != ZERO_BLOCK]
        if col_rows != [t - 1, t]:
            raise EncodingError(
                f"{code.name}: parity column {col} is not a staircase pair"
            )
        if entries[t - 1, col] != 0 or entries[t, col] != 0:
            raise EncodingError(
                f"{code.name}: staircase column {col} has non-zero shifts"
            )
    return _ParityStructure(
        p0_col=p0,
        top_row=top,
        mid_row=mid,
        bot_row=bot,
        p0_shift=int(entries[top, p0]),
        mid_shift=int(entries[mid, p0]),
    )


class SystematicQCEncoder:
    """O(N) encoder for dual-diagonal QC-LDPC codes.

    Parameters
    ----------
    code:
        The expanded code; its base matrix must pass
        :func:`detect_parity_structure`.

    Examples
    --------
    >>> from repro.codes import get_code
    >>> code = get_code("802.16e:1/2:z24")
    >>> enc = SystematicQCEncoder(code)
    >>> import numpy as np
    >>> x = enc.encode(np.zeros(code.n_info, dtype=np.uint8))
    >>> bool(code.is_codeword(x))
    True
    """

    def __init__(self, code: QCLDPCCode):
        self.code = code
        self.structure = detect_parity_structure(code)

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        """Encode information bits into systematic codewords.

        Parameters
        ----------
        info_bits:
            ``(K,)`` or ``(B, K)`` array of 0/1 bits.

        Returns
        -------
        numpy.ndarray
            ``(N,)`` or ``(B, N)`` codewords ``[u | p]``.

        Raises
        ------
        EncodingError
            If the final-row self-check fails (indicates an inconsistent
            parity structure; cannot happen for validated codes).
        """
        base = self.code.base
        z = base.z
        j = base.j
        info = np.asarray(info_bits, dtype=np.uint8)
        single = info.ndim == 1
        if single:
            info = info[None, :]
        if info.shape[1] != self.code.n_info:
            raise EncodingError(
                f"info length {info.shape[1]} != K={self.code.n_info}"
            )
        batch = info.shape[0]
        structure = self.structure

        syndromes = info_syndromes(self.code, info)

        # Step 2: v0 from the sum of all layer syndromes.
        total = np.bitwise_xor.reduce(syndromes, axis=1)
        # sum_l H_l[:, p0] v0 = I_{mid_shift} v0  =>  v0 = I_{mid_shift}^-1 total.
        v0 = np.roll(total, structure.mid_shift, axis=1)

        parity = np.zeros((batch, j, z), dtype=np.uint8)
        parity[:, 0, :] = v0

        def p0_contribution(row: int) -> np.ndarray:
            """Contribution of column p0 to check row ``row`` (or zeros)."""
            entries = base.entries
            shift = entries[row, structure.p0_col]
            if shift == ZERO_BLOCK:
                return np.zeros((batch, z), dtype=np.uint8)
            return np.roll(v0, -int(shift), axis=1)

        # Step 3: staircase forward substitution.
        # Row 0:  s_0 + I_{x(0,p0)} v0 + v1 = 0.
        parity[:, 1, :] = syndromes[:, 0, :] ^ p0_contribution(0)
        for t in range(1, j - 1):
            # Row t:  s_t + (p0 term) + v_t + v_{t+1} = 0.
            parity[:, t + 1, :] = (
                parity[:, t, :] ^ syndromes[:, t, :] ^ p0_contribution(t)
            )

        # Step 4: the last row must close the recursion.
        check = syndromes[:, j - 1, :] ^ p0_contribution(j - 1) ^ parity[:, j - 1, :]
        if check.any():
            raise EncodingError(
                f"{self.code.name}: parity recursion did not close; "
                "base matrix violates the dual-diagonal assumptions"
            )

        codewords = np.concatenate(
            [info, parity.reshape(batch, j * z)], axis=1
        )
        return codewords[0] if single else codewords

    def random_codewords(
        self, count: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` random information words and encode them.

        Returns ``(info_bits, codewords)`` with shapes ``(count, K)`` and
        ``(count, N)``.
        """
        info = rng.integers(0, 2, size=(count, self.code.n_info), dtype=np.uint8)
        return info, self.encode(info)
