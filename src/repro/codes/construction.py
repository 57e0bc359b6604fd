"""Synthetic construction of block-structured (QC) LDPC base matrices.

Used for the standard modes whose shift tables are not embedded (see the
DESIGN.md substitution table).  The construction reproduces the structural
properties the decoder architecture and the BER waterfall *shape* depend
on:

1. **Dual-diagonal parity part** (802.16e / 802.11n style) so that the
   linear-time systematic encoder applies: the first parity block column
   has three entries with shifts ``(s, 0, s)`` (top / middle / bottom) and
   the remaining parity columns form a staircase of shift-0 pairs.
2. **Degree-3 information columns** balanced across rows (the dominant
   column weight in the standards' information parts).
3. **4-cycle freedom**: shifts are chosen so no pair of rows shares two
   columns with ``(x_{r1,c1} - x_{r2,c1} + x_{r2,c2} - x_{r1,c2}) = 0
   (mod z)`` — the QC condition for a length-4 cycle in the expanded
   Tanner graph.

The construction is deterministic given ``seed``.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base_matrix import ZERO_BLOCK, BaseMatrix
from repro.errors import CodeConstructionError
from repro.utils.rng import make_rng

#: Retries when picking a shift for one entry before restarting the column.
_SHIFT_RETRIES = 64

#: Full restarts of the placement before giving up.
_PLACEMENT_RESTARTS = 32


def _place_parity_part(entries: np.ndarray, j: int, k: int, s0: int) -> None:
    """Write the dual-diagonal parity structure into ``entries`` in place."""
    p0 = k - j
    mid = j // 2
    entries[0, p0] = s0
    entries[mid, p0] = 0
    entries[j - 1, p0] = s0
    for t in range(1, j):
        entries[t - 1, p0 + t] = 0
        entries[t, p0 + t] = 0


def _scaled_shift(shift: int, z_from: int, z_to: int, rule: str) -> int:
    if rule == "floor":
        return shift * z_to // z_from
    return shift % z_to


class _FourCycleGuard:
    """Incremental 4-cycle test for a base matrix under construction.

    Keeps, for every ordered row pair ``(r1, r2)``, the set of shift
    differences ``s[r1, c] - s[r2, c]`` over the columns both rows
    occupy — at the native expansion ``z`` *and* at every ``(z_target,
    rule)`` the matrix will be shift-scaled to (802.16e derives 18
    smaller sizes from the z=96 table, and a matrix that is 4-cycle-free
    at z=96 is not automatically so after scaling).  An empty entry
    ``(row, col)`` set to ``shift`` closes a 4-cycle exactly when, for
    some row ``r2`` already in ``col``, ``shift - s[r2, col]`` is in the
    ``(row, r2)`` set at one of those moduli: the two shared columns
    then satisfy the QC condition of the module docstring.  A test
    costs one set lookup per row of ``col`` and modulus, where a rescan
    of the matrix costs ``j * k`` quads.

    Every entry must land through :meth:`place` once the guard exists.
    """

    def __init__(
        self,
        entries: np.ndarray,
        z: int,
        scale_targets: tuple[tuple[int, str], ...] = (),
    ):
        j, k = entries.shape
        self.entries = entries
        self.z = z
        self._targets = tuple(scale_targets)
        self._moduli = (z,) + tuple(z_target for z_target, _ in self._targets)
        # One set per row pair holds every modulus: the difference at
        # modulus ``m_i`` is stored offset by ``i * max(m)``.
        stride = max(self._moduli)
        self._offsets = tuple(range(0, stride * len(self._moduli), stride))
        self._pairs = [[set() for _ in range(j)] for _ in range(j)]
        #: ``_columns[c]``: ``(row, scaled shifts)`` of every entry in ``c``.
        self._columns: list[list] = [[] for _ in range(k)]
        for row, col in zip(*np.nonzero(entries != ZERO_BLOCK)):
            self._record(int(row), int(col), int(entries[row, col]))

    def _scaled(self, shift: int) -> tuple[int, ...]:
        return (shift,) + tuple(
            _scaled_shift(shift, self.z, z_target, rule)
            for z_target, rule in self._targets
        )

    def closes_cycle(self, row: int, col: int, shift: int) -> bool:
        """Would setting the empty entry ``(row, col)`` to ``shift`` close
        a 4-cycle?"""
        pairs = self._pairs[row]
        scaled = self._scaled(shift)
        views = self._moduli, self._offsets
        for r2, other in self._columns[col]:
            seen = pairs[r2]
            for a, b, m, base in zip(scaled, other, *views):
                if base + (a - b) % m in seen:
                    return True
        return False

    def place(self, row: int, col: int, shift: int) -> None:
        """Write ``entries[row, col] = shift`` and record its differences."""
        self.entries[row, col] = shift
        self._record(row, col, shift)

    def _record(self, row: int, col: int, shift: int) -> None:
        scaled = self._scaled(shift)
        views = self._moduli, self._offsets
        for r2, other in self._columns[col]:
            ahead, behind = self._pairs[row][r2], self._pairs[r2][row]
            for a, b, m, base in zip(scaled, other, *views):
                ahead.add(base + (a - b) % m)
                behind.add(base + (b - a) % m)
        self._columns[col].append((row, scaled))


def _pick_rows_for_column(
    row_degrees: np.ndarray, count: int, rng: np.random.Generator
) -> list[int]:
    """Pick ``count`` distinct rows, favouring the least-loaded ones.

    Ties are broken randomly so different seeds give different placements.
    """
    jitter = rng.random(row_degrees.shape[0])
    order = np.lexsort((jitter, row_degrees))
    return [int(r) for r in order[:count]]


def build_qc_base_matrix(
    j: int,
    k: int,
    z: int,
    name: str,
    standard: str = "synthetic",
    seed: int = 0,
    info_column_degree: int = 3,
    scale_targets: "tuple[tuple[int, str], ...]" = (),
) -> BaseMatrix:
    """Construct a 4-cycle-free QC base matrix with dual-diagonal parity.

    Parameters
    ----------
    j, k, z:
        Block rows, block columns, expansion factor (paper Table 1
        parameters).
    name:
        Mode name recorded on the result.
    standard:
        Standard label recorded on the result.
    seed:
        Deterministic seed; the same arguments always produce the same
        matrix.
    info_column_degree:
        Column weight of the information block columns (default 3, the
        dominant weight in 802.11n / 802.16e information parts).
    scale_targets:
        ``(z_target, rule)`` pairs the matrix must *stay* 4-cycle-free
        under after shift scaling (802.16e style); ``rule`` is ``"floor"``
        or ``"mod"``.

    Returns
    -------
    BaseMatrix
        With ``synthetic=True``.

    Raises
    ------
    CodeConstructionError
        If no 4-cycle-free assignment is found within the retry budget
        (practically only for tiny ``z`` with dense columns).
    """
    if j < 2:
        raise CodeConstructionError(f"need at least 2 block rows, got j={j}")
    if k <= j:
        raise CodeConstructionError(f"need k > j for a positive rate, got k={k}, j={j}")
    if info_column_degree < 2:
        raise CodeConstructionError("info_column_degree must be >= 2")
    degree = min(info_column_degree, j)

    rng = make_rng(seed)
    for _ in range(_PLACEMENT_RESTARTS):
        entries = np.full((j, k), ZERO_BLOCK, dtype=np.int64)
        s0 = int(rng.integers(1, z)) if z > 2 else 1
        _place_parity_part(entries, j, k, s0)
        guard = _FourCycleGuard(entries, z, scale_targets)
        row_degrees = (entries != ZERO_BLOCK).sum(axis=1)

        ok = True
        for col in range(k - j):
            rows = _pick_rows_for_column(row_degrees, degree, rng)
            for row in rows:
                shift = _pick_shift(guard, row, col, rng)
                if shift is None:
                    ok = False
                    break
                guard.place(row, col, shift)
                row_degrees[row] += 1
            if not ok:
                break
        if ok:
            return BaseMatrix(
                entries=entries,
                z=z,
                name=name,
                standard=standard,
                synthetic=True,
            )
    raise CodeConstructionError(
        f"could not build a 4-cycle-free {j}x{k} base matrix with z={z} "
        f"(seed={seed}); try a larger z or lower column degree"
    )


def _pick_shift(
    guard: _FourCycleGuard,
    row: int,
    col: int,
    rng: np.random.Generator,
) -> int | None:
    """Draw a shift for (row, col) that closes no 4-cycle, or ``None``."""
    z = guard.z
    for _ in range(_SHIFT_RETRIES):
        shift = int(rng.integers(0, z))
        if not guard.closes_cycle(row, col, shift):
            return shift
    # Exhaustive fallback: the retry budget can miss rare feasible shifts.
    feasible = [s for s in range(z) if not guard.closes_cycle(row, col, s)]
    if feasible:
        return int(rng.choice(feasible))
    return None


def count_base_four_cycles(base: BaseMatrix) -> int:
    """Count row-pair/column-pair combinations that close 4-cycles.

    Each counted combination corresponds to ``z`` distinct length-4 cycles
    in the expanded Tanner graph.  Zero for matrices built by
    :func:`build_qc_base_matrix`.
    """
    entries = base.entries
    z = base.z
    j, k = entries.shape
    count = 0
    for r1 in range(j):
        for r2 in range(r1 + 1, j):
            shared = [
                c
                for c in range(k)
                if entries[r1, c] != ZERO_BLOCK and entries[r2, c] != ZERO_BLOCK
            ]
            for i, c1 in enumerate(shared):
                for c2 in shared[i + 1 :]:
                    delta = (
                        entries[r1, c1]
                        - entries[r2, c1]
                        + entries[r2, c2]
                        - entries[r1, c2]
                    )
                    if delta % z == 0:
                        count += 1
    return count
