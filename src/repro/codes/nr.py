"""5G NR (3GPP TS 38.212) BG1/BG2 QC-LDPC base graphs.

NR defines two base graphs — BG1 (46 x 68, ``kb = 22`` information
columns, lowest rate 1/3 before puncturing) and BG2 (42 x 52,
``kb = 10``, lowest rate 1/5) — expanded by a lifting size ``Z`` drawn
from eight sets ``Z = a * 2^j`` with ``a in {2,3,5,7,9,11,13,15}`` and
``Z <= 384`` (51 sizes total).  The structural properties every layer of
this repo depends on are reproduced here; the shift values themselves
are synthetic (deterministic per ``(bg, z)``), following the DESIGN.md
substitution idiom used for the non-embedded 4G tables:

1. **Two high-degree punctured information columns** (columns 0 and 1):
   the transmitter never sends the first ``2Z`` systematic bits, so the
   graph protects them with extra check coverage (see
   :mod:`repro.nr.ratematch` for the erasure semantics).
2. **A 4-row dual-diagonal core** (rows 0-3, parity columns
   ``kb .. kb+3``) that closes the high-rate code.
3. **Degree-1 extension parity columns**: every row ``r >= 4`` is a
   single-parity check emitting one fresh parity column (shift-0
   identity at column ``kb + r``) — the rate-compatible IR-HARQ
   extension structure.  Each extension row also covers one core parity
   column, so later redundancy versions protect the core parity too.
4. **Best-effort 4-cycle freedom**: shifts are drawn through the same
   rejection machinery as :func:`repro.codes.construction.build_qc_base_matrix`.
   Unlike the 4G constructions, freedom is *not* guaranteed — at small
   ``Z`` the two dense punctured columns make it combinatorially
   impossible (true of the real 38.212 graphs as well), so the
   constructor falls back to accepting a cycle rather than failing.

Everything is deterministic per ``(bg, z)``: sweep workers and process
shards rebuild codes from mode strings and must agree bit-for-bit with
the parent.

**Fixed-point caveat.**  The dense information columns these low-rate
graphs need make the Q8.2 datapath saturation-prone: a weight-10+
column sums enough railed extrinsic messages that the saturation
contagion documented on :attr:`repro.decoder.DecoderConfig.llr_clip`
can corrupt a frame that float decodes in 2-3 iterations, leaving a
small high-SNR error floor.  Widening the message format (Q10.2) or —
as the chip does — stopping frames the moment the syndrome clears
(``early_termination="paper-or-syndrome"``, the decode-service default)
removes most of it; the bare library default (``"paper"``) shows the
floor.  This is a faithful property of narrow fixed-point datapaths on
NR-like graphs, not a construction bug.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.codes.base_matrix import ZERO_BLOCK, BaseMatrix
from repro.codes.construction import (
    _FourCycleGuard,
    _pick_rows_for_column,
    _pick_shift,
    _place_parity_part,
)
from repro.errors import ModeParseError
from repro.utils.rng import make_rng

__all__ = [
    "NR_BG_PARAMS",
    "NR_COLUMN_DEGREES",
    "NR_LIFTING_SETS",
    "NR_LIFTING_SIZES",
    "NR_MAX_Z",
    "nr_base_matrix",
    "nr_lifting_sizes",
    "nr_mode",
    "nr_rates",
    "parse_nr_mode",
]

#: Largest 38.212 lifting size.
NR_MAX_Z = 384

#: The eight lifting-size sets of 38.212 Table 5.3.2-1: ``Z = a * 2^j``.
NR_LIFTING_SETS: dict[int, tuple[int, ...]] = {
    a: tuple(a * (1 << j) for j in range(8) if a * (1 << j) <= NR_MAX_Z)
    for a in (2, 3, 5, 7, 9, 11, 13, 15)
}

#: All 51 valid lifting sizes, ascending.
NR_LIFTING_SIZES: tuple[int, ...] = tuple(
    sorted(z for sizes in NR_LIFTING_SETS.values() for z in sizes)
)

#: Base-graph parameters: ``bg -> (j, k, kb)`` — block rows, block
#: columns, and information columns.  ``k = kb + j`` (4 core parity
#: columns + one extension parity column per extension row).
NR_BG_PARAMS: dict[int, tuple[int, int, int]] = {
    1: (46, 68, 22),
    2: (42, 52, 10),
}

#: Number of dual-diagonal core parity rows/columns.
NR_CORE_ROWS = 4

#: Per-base-graph column weights ``bg -> (punctured, information)``.
#: The low-rate NR graphs need much denser information columns than the
#: weight-3 4G synthetics — with 42-46 single-parity extension rows,
#: weight-3 columns leave most checks with no information coverage and
#: the float waterfall never closes (FER ~ 1 at 4 dB).  The real 38.212
#: graphs run column weights up to ~30; these values are the measured
#: sweet spot where the float datapath converges in 2-3 iterations at
#: 3.5 dB *and* the Q8.2 datapath tracks it.  Denser still and the
#: fixed datapath hits the Q8.2 message-range saturation floor (see the
#: module docstring).
NR_COLUMN_DEGREES: dict[int, tuple[int, int]] = {
    1: (12, 10),
    2: (14, 12),
}


def nr_rates() -> tuple[str, ...]:
    """The base-graph labels, in registry rate-slot order."""
    return ("bg1", "bg2")


def nr_lifting_sizes(bg: int | None = None) -> tuple[int, ...]:
    """Valid lifting sizes (identical for both base graphs)."""
    return NR_LIFTING_SIZES


def nr_mode(bg: int, z: int) -> str:
    """Canonical mode string, e.g. ``nr_mode(1, 16) == "NR:bg1:z16"``."""
    return f"NR:bg{bg}:z{z}"


def parse_nr_mode(mode: str) -> tuple[int, int]:
    """Parse ``"NR:bg<1|2>:z<Z>"`` into ``(bg, z)``.

    Raises
    ------
    ModeParseError
        Naming the valid base graphs / lifting sizes — never a bare
        ``KeyError`` — for any malformed or out-of-catalogue NR mode.
    """
    parts = mode.split(":")
    if len(parts) != 3 or parts[0] != "NR":
        raise ModeParseError(
            f"malformed NR mode {mode!r}; expected 'NR:bg<1|2>:z<Z>' "
            f"(e.g. {nr_mode(1, 16)!r})"
        )
    bg_label, z_label = parts[1], parts[2]
    if bg_label not in ("bg1", "bg2"):
        raise ModeParseError(
            f"unknown NR base graph {bg_label!r} in mode {mode!r}; "
            "valid base graphs: bg1, bg2"
        )
    bg = int(bg_label[2])
    if not z_label.startswith("z") or not z_label[1:].isdigit():
        raise ModeParseError(
            f"malformed lifting size {z_label!r} in mode {mode!r}; "
            "expected 'z<Z>' with Z one of the 38.212 lifting sizes "
            f"{list(NR_LIFTING_SIZES)}"
        )
    z = int(z_label[1:])
    if z not in NR_LIFTING_SIZES:
        raise ModeParseError(
            f"lifting size {z} in mode {mode!r} is not a 38.212 lifting "
            f"size (Z = a * 2^j, a in {sorted(NR_LIFTING_SETS)}, "
            f"Z <= {NR_MAX_Z}); valid sizes: {list(NR_LIFTING_SIZES)}"
        )
    return bg, z


def _seed_for(bg: int, z: int) -> int:
    """Deterministic construction seed per (base graph, lifting size)."""
    return 0x38212000 + (bg << 16) + z


@functools.lru_cache(maxsize=None)
def nr_base_matrix(bg: int, z: int) -> BaseMatrix:
    """The synthetic NR base matrix for one ``(bg, z)`` point.

    Deterministic per arguments (pool workers rebuild from mode strings
    and must agree with the parent bit-for-bit); cached because the
    catalogue is finite and matrices are immutable.
    """
    if bg not in NR_BG_PARAMS:
        raise ModeParseError(
            f"unknown NR base graph {bg!r}; valid base graphs: 1, 2"
        )
    if z not in NR_LIFTING_SIZES:
        raise ModeParseError(
            f"lifting size {z} is not a 38.212 lifting size; "
            f"valid sizes: {list(NR_LIFTING_SIZES)}"
        )
    j, k, kb = NR_BG_PARAMS[bg]
    core = NR_CORE_ROWS
    rng = make_rng(_seed_for(bg, z))
    entries = np.full((j, k), ZERO_BLOCK, dtype=np.int64)

    # Dual-diagonal core: rows 0..3, parity columns kb..kb+3.  The slice
    # is a view, so _place_parity_part writes straight into `entries`.
    s0 = int(rng.integers(1, z)) if z > 2 else 1
    _place_parity_part(entries[:core, : kb + core], core, kb + core, s0)
    guard = _FourCycleGuard(entries, z)

    # Extension rows: one degree-1 shift-0 parity column each, plus one
    # core-parity entry so IR retransmissions cover the core parity.
    for row in range(core, j):
        guard.place(row, kb + row, 0)
        col = kb + (row % core)
        shift = _pick_shift(guard, row, col, rng)
        if shift is None:
            shift = int(rng.integers(0, z))
        guard.place(row, col, shift)

    # Information columns, least-loaded row placement; columns 0 and 1
    # (the punctured systematic columns) carry elevated degree.
    punct_degree, info_degree = NR_COLUMN_DEGREES[bg]
    row_degrees = (entries[:, kb:] != ZERO_BLOCK).sum(axis=1)
    for col in range(kb):
        degree = punct_degree if col < 2 else info_degree
        for row in _pick_rows_for_column(row_degrees, min(degree, j), rng):
            shift = _pick_shift(guard, row, col, rng)
            if shift is None:
                # Best effort only: at small Z the dense punctured
                # columns cannot stay 4-cycle-free (nor can the real
                # 38.212 graphs) — accept the cycle, keep determinism.
                shift = int(rng.integers(0, z))
            guard.place(row, col, shift)
            row_degrees[row] += 1

    return BaseMatrix(
        entries=entries,
        z=z,
        name=f"nr_bg{bg}_z{z}",
        standard="NR",
        synthetic=True,
    )
