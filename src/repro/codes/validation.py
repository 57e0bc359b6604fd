"""Structural validation of QC-LDPC codes.

Checks performed:

- shift ranges and duplicate-entry detection (via expansion),
- GF(2) rank of the expanded H (encodability; small codes only by
  default — rank of a 7493-column matrix is expensive),
- 4-cycle counting from the base matrix (exact, cheap),
- girth of the expanded Tanner graph (BFS over the code's shift table,
  small codes only).

The validator returns a :class:`ValidationReport` rather than raising, so
experiments can tabulate properties of synthetic vs standard matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes.construction import count_base_four_cycles
from repro.codes.qc import QCLDPCCode
from repro.utils.gf2 import GF2Matrix

#: Above this many codeword bits, rank/girth checks are skipped by default.
_EXPENSIVE_CHECK_LIMIT = 4000


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_code`.

    Attributes
    ----------
    name:
        Code name.
    four_cycle_pairs:
        Base-matrix row/column pair combinations closing 4-cycles (each
        corresponds to ``z`` cycles in the expanded graph).
    rank:
        GF(2) rank of expanded H, or ``None`` when skipped.
    full_rank:
        Whether ``rank == M`` (``None`` when skipped).
    girth:
        Tanner-graph girth, or ``None`` when skipped.
    ok:
        True when no check failed (skipped checks do not fail).
    issues:
        Human-readable list of problems found.
    """

    name: str
    four_cycle_pairs: int
    rank: int | None
    full_rank: bool | None
    girth: int | None
    ok: bool
    issues: tuple[str, ...]


def expanded_rank(code: QCLDPCCode) -> int:
    """GF(2) rank of the expanded parity-check matrix."""
    return GF2Matrix(code.H).rank()


def tanner_girth(code: QCLDPCCode) -> int:
    """Girth (shortest cycle length) of the Tanner graph.

    Uses a BFS from every node; cycles through a bipartite graph have
    even length, so the result is 4, 6, 8, ... or 0 for a forest.
    """
    return _girth_bfs(_tanner_adjacency(code))


def _tanner_adjacency(code: QCLDPCCode) -> list[list[int]]:
    """Neighbour lists: check ``c`` is node ``c``, variable ``v`` node ``M + v``."""
    adjacency: list[list[int]] = [[] for _ in range(code.m + code.n)]
    checks, variables = code.edge_list()
    for check, variable in zip(checks.tolist(), (variables + code.m).tolist()):
        adjacency[check].append(variable)
        adjacency[variable].append(check)
    return adjacency


def _girth_bfs(adjacency: list[list[int]]) -> int:
    """Shortest cycle length by BFS from each node (adequate for tests)."""
    import collections

    best = 0
    for source in range(len(adjacency)):
        # BFS recording parent; a cross-edge at depths d1, d2 closes a
        # cycle of length d1 + d2 + 1.
        depth = {source: 0}
        parent = {source: None}
        queue = collections.deque([source])
        local_best = 0
        while queue:
            node = queue.popleft()
            for neighbor in adjacency[node]:
                if neighbor not in depth:
                    depth[neighbor] = depth[node] + 1
                    parent[neighbor] = node
                    queue.append(neighbor)
                elif parent[node] != neighbor:
                    cycle = depth[node] + depth[neighbor] + 1
                    if local_best == 0 or cycle < local_best:
                        local_best = cycle
        if local_best and (best == 0 or local_best < best):
            best = local_best
        if best == 4:  # girth in a bipartite graph cannot be smaller
            break
    return best


def validate_code(code: QCLDPCCode, expensive: bool | None = None) -> ValidationReport:
    """Run all structural checks on a code.

    Parameters
    ----------
    code:
        The expanded QC-LDPC code.
    expensive:
        Force (True) or skip (False) the rank/girth checks; ``None``
        decides by code size (``N <= 4000``).
    """
    issues: list[str] = []
    if expensive is None:
        expensive = code.n <= _EXPENSIVE_CHECK_LIMIT

    four_cycles = count_base_four_cycles(code.base)
    if four_cycles:
        issues.append(f"{four_cycles} base-matrix 4-cycle pair(s)")

    rank: int | None = None
    full_rank: bool | None = None
    girth: int | None = None
    if expensive:
        rank = expanded_rank(code)
        full_rank = rank == code.m
        if not full_rank:
            issues.append(f"rank deficiency: rank={rank} < M={code.m}")
        girth = tanner_girth(code)
        if girth == 4:
            issues.append("expanded Tanner graph has girth 4")

    return ValidationReport(
        name=code.name,
        four_cycle_pairs=four_cycles,
        rank=rank,
        full_rank=full_rank,
        girth=girth,
        ok=not issues,
        issues=tuple(issues),
    )
