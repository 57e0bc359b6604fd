"""Output checks made apart from the program under test.

Every check returns a list of problems; an empty list passes.  The
parity check is rebuilt here from the base matrix's shift table, so it
shares no code with the library's own syndrome or ``converged`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nr import HarqSession

from perfbench.common import fingerprint


class ParityCheck:
    """``H·x mod 2`` from a QC base matrix: shift ``s`` at block ``(r, c)``
    puts a one at row ``r·z + i``, column ``c·z + (i + s) mod z``."""

    def __init__(self, entries, z: int):
        entries = np.asarray(entries)
        self.z = int(z)
        self.n = int(entries.shape[1]) * self.z
        self.rows = [
            [(int(c), int(s)) for c, s in enumerate(row) if s >= 0]
            for row in entries
        ]

    @classmethod
    def for_code(cls, code) -> "ParityCheck":
        return cls(code.base.entries, code.z)

    def syndrome_weight(self, bits) -> np.ndarray:
        x = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
        if x.shape[1] != self.n:
            raise ValueError(f"frame length {x.shape[1]} != N={self.n}")
        z = self.z
        weight = np.zeros(x.shape[0], dtype=np.int64)
        for row in self.rows:
            acc = np.zeros((x.shape[0], z), dtype=np.uint8)
            for c, s in row:
                acc ^= np.roll(x[:, c * z:(c + 1) * z], -s, axis=1)
            weight += acc.sum(axis=1, dtype=np.int64)
        return weight

    def passes(self, bits) -> np.ndarray:
        return self.syndrome_weight(bits) == 0


@dataclass
class Outcome:
    """What a decode returned for some frames, kept compact: the LLRs
    are held as a digest so a run can keep thousands of outcomes."""

    bits: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    et_stopped: np.ndarray
    llr_digest: str

    @classmethod
    def of(cls, result, start: int = 0, stop: "int | None" = None) -> "Outcome":
        stop = result.bits.shape[0] if stop is None else stop
        return cls(
            bits=np.array(result.bits[start:stop], dtype=np.uint8),
            iterations=np.array(result.iterations[start:stop], dtype=np.int64),
            converged=np.array(result.converged[start:stop], dtype=bool),
            et_stopped=np.array(result.et_stopped[start:stop], dtype=bool),
            llr_digest=fingerprint(
                np.asarray(result.llr[start:stop], dtype=np.float64)
            ),
        )


def differences(got: Outcome, want: Outcome, what: str) -> list:
    """Fields in which two outcomes of the same frames differ."""
    problems = []
    for name in ("bits", "iterations", "converged", "et_stopped"):
        a, b = getattr(got, name), getattr(want, name)
        if a.shape != b.shape or not np.array_equal(a, b):
            problems.append(f"{what}: {name} differ")
    if got.llr_digest != want.llr_digest:
        problems.append(f"{what}: llr differ")
    return problems


def check_transmitted(parity: ParityCheck, info, codewords) -> list:
    """Transmitted codewords satisfy H·x = 0 and carry their info bits."""
    problems = []
    failing = int(np.count_nonzero(~parity.passes(codewords)))
    if failing:
        problems.append(f"{failing} transmitted codewords fail H·x = 0")
    k = np.asarray(info).shape[1]
    if not np.array_equal(np.asarray(codewords)[:, :k], info):
        problems.append("codewords do not start with their info bits")
    return problems


def check_converged(parity: ParityCheck, outcome: Outcome) -> list:
    """``converged`` is set exactly on the frames that pass H·x = 0."""
    passing = parity.passes(outcome.bits)
    flagged = outcome.converged
    problems = []
    false_flag = int(np.count_nonzero(flagged & ~passing))
    missed = int(np.count_nonzero(~flagged & passing))
    if false_flag:
        problems.append(f"{false_flag} frames flagged converged fail H·x = 0")
    if missed:
        problems.append(f"{missed} frames not flagged converged pass H·x = 0")
    return problems


def check_decoded(outcome: Outcome, codewords) -> list:
    """Every frame decoded to its transmitted codeword."""
    wrong = int(np.count_nonzero((outcome.bits != codewords).any(axis=1)))
    if wrong:
        return [
            f"{wrong}/{len(codewords)} frames did not decode to their "
            "transmitted codeword"
        ]
    return []


def recount(point, infos, outcomes) -> list:
    """A sweep point's reported counts equal a recount against the truth."""
    frames = bit_errors = frame_errors = 0
    for info, outcome in zip(infos, outcomes):
        wrong = outcome.bits[:, : info.shape[1]] != info
        frames += info.shape[0]
        bit_errors += int(np.count_nonzero(wrong))
        frame_errors += int(np.count_nonzero(wrong.any(axis=1)))
    problems = []
    for name, counted in (
        ("frames", frames),
        ("bit_errors", bit_errors),
        ("frame_errors", frame_errors),
    ):
        reported = int(getattr(point, name))
        if reported != counted:
            problems.append(
                f"point {point.ebn0_db} dB reports {name}={reported}, "
                f"recount gives {counted}"
            )
    return problems


def replay_harq(code, config, decoder, rv_order, blocks) -> list:
    """Re-decode every HARQ transmission in a fresh local HarqSession.

    ``blocks`` is ``[(soft_bits_by_rv, served_outcomes), ...]``: each
    block's soft bits for every rv of ``rv_order`` and the outcomes
    served for the transmissions it sent, in order.  One session holds
    every block as one row (rows decode independently), so transmission
    ``t`` of all blocks is one push and one decode.  Returns, per block,
    one problem list per served transmission.
    """
    session = HarqSession(code, config, decoder=decoder)
    problems = [[[] for _ in served] for _, served in blocks]
    longest = max((len(served) for _, served in blocks), default=0)
    for t in range(longest):
        session.push(np.concatenate([soft[t] for soft, _ in blocks]), rv_order[t])
        local = session.decode()
        for row, (_, served) in enumerate(blocks):
            if t < len(served):
                problems[row][t] = differences(
                    served[t], Outcome.of(local, row, row + 1),
                    f"HARQ transmission {t} (rv{rv_order[t]})",
                )
    return problems
