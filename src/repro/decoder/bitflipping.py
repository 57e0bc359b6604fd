"""Gallager-B bit-flipping decoder — the hard-decision baseline.

Pre-BP LDPC hardware frequently fell back to bit flipping when soft
information was unavailable; including it calibrates how much of the
paper's coding gain comes from *soft* message passing at all (roughly
1.5-2 dB at the waterfall).

Algorithm (Gallager 1962, variant B): iterate

1. compute all parity checks on the current hard word;
2. flip every bit whose number of unsatisfied adjacent checks is at
   least the threshold ``b`` (majority by default);
3. stop when the syndrome is zero or the iteration budget is exhausted.

Operates batch-first on hard decisions derived from the channel LLRs, so
it plugs into the same harness as the soft decoders.
"""

from __future__ import annotations

import numpy as np

from repro.codes.qc import QCLDPCCode
from repro.decoder.api import DecodeResult


class GallagerBDecoder:
    """Hard-decision bit-flipping decoder over a QC-LDPC code.

    Parameters
    ----------
    code:
        The expanded code.
    max_iterations:
        Flip rounds (default 30; bit flipping needs more rounds than BP).
    flip_threshold:
        Minimum unsatisfied-check count to flip a bit; ``None`` selects a
        per-bit majority ``ceil((degree + 1) / 2)``.
    """

    def __init__(
        self,
        code: QCLDPCCode,
        max_iterations: int = 30,
        flip_threshold: int | None = None,
    ):
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.code = code
        self.max_iterations = max_iterations
        self._edge_checks, self._edge_variables = code.edge_list()
        degrees = np.bincount(self._edge_variables, minlength=code.n)
        if flip_threshold is None:
            self._thresholds = (degrees + 1 + 1) // 2  # strict majority
        else:
            if flip_threshold < 1:
                raise ValueError("flip_threshold must be >= 1")
            self._thresholds = np.full_like(degrees, flip_threshold)

    def decode(self, channel_llr: np.ndarray) -> DecodeResult:
        """Decode ``(N,)`` or ``(B, N)`` channel LLRs (hard input only)."""
        llr = np.asarray(channel_llr, dtype=np.float64)
        if llr.ndim == 1:
            llr = llr[None, :]
        n = self.code.n
        if llr.shape[1] != n:
            raise ValueError(f"channel LLRs must be (B, {n})")
        bits = (llr < 0).astype(np.uint8)
        batch = bits.shape[0]

        iterations = np.full(batch, self.max_iterations, dtype=np.int64)
        active = np.arange(batch)
        working = bits.copy()

        for iteration in range(1, self.max_iterations + 1):
            if active.size == 0:
                break
            syndrome = self.code.syndrome(working[active])  # (B_act, M)
            done = ~syndrome.any(axis=1)
            if done.any():
                iterations[active[done]] = iteration - 1
                active = active[~done]
                if active.size == 0:
                    break
                syndrome = syndrome[~done]
            # Unsatisfied checks incident to each bit, counted per edge.
            frames, edges = np.nonzero(syndrome[:, self._edge_checks])
            per_bit = np.bincount(
                frames * n + self._edge_variables[edges], minlength=active.size * n
            ).reshape(active.size, n)
            flips = per_bit >= self._thresholds[None, :]
            # A round with no flips is a dead end: freeze those frames.
            stuck = ~flips.any(axis=1)
            working[active] ^= flips.astype(np.uint8)
            if stuck.any():
                iterations[active[stuck]] = iteration
                active = active[~stuck]

        bits = working
        converged = np.asarray(self.code.is_codeword(bits))
        if converged.ndim == 0:
            converged = converged[None]
        iterations = np.where(
            converged & (iterations == self.max_iterations),
            self.max_iterations,
            iterations,
        )
        # Pseudo-LLRs from the final hard word (unit confidence).
        pseudo_llr = 1.0 - 2.0 * bits.astype(np.float64)
        return DecodeResult(
            bits=bits,
            llr=pseudo_llr,
            iterations=np.maximum(iterations, 1),
            converged=converged,
            et_stopped=converged.copy(),
            n_info=self.code.n_info,
        )
