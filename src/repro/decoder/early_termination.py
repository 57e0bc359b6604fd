"""Early-termination criteria (paper §IV).

The paper's low-power rule stops the iteration when **both** hold:

1. the hard decisions of the *information bits* did not change between
   two successive iterations, and
2. the minimum |LLR| over the information bits exceeds a threshold.

A syndrome-based rule (stop when ``H x^T = 0``) is provided for
comparison; it is stronger (guarantees a codeword) but requires computing
the full syndrome each iteration, which is why the chip uses the cheap
two-condition rule instead.

All monitors are frame-minor, like the decode state they watch, and
stateful: call :meth:`update` once per full iteration with the current
``(N, B)`` APP LLRs of the still-active frames (and keep the frame
indexing consistent via :meth:`compact`).  The paper rule reads the
information rows ``L[:n_info]`` and reduces along axis 0.  Under
active-frame compaction (``DecoderConfig(compact_frames=True)``) the
retirement bookkeeping
(:meth:`~repro.decoder.compaction.ActiveFrameSet.retire`) calls
:meth:`compact` with the iteration's ``keep`` mask so the monitor state
shrinks with the working batch; without compaction the monitors simply
keep seeing the full batch every iteration.

Decoders build monitors through :func:`make_monitor`, which derives the
threshold (rescaled to raw datapath units in fixed point) and the initial
hard decisions from the prepared channel LLRs.
"""

from __future__ import annotations

import numpy as np

from repro.codes.qc import QCLDPCCode
from repro.decoder.api import DecoderConfig


#: Rows × frames a folded :func:`_column_any` reduces per inner loop.
_FOLD_WIDTH = 256


def _column_any(mask: np.ndarray) -> np.ndarray:
    """``mask.any(axis=0)`` of a C-contiguous ``(R, B)`` boolean mask.

    numpy reduces along axis 0 with one inner loop per row, ~20 ns
    each: ~25 µs over 1152 info rows at any ``B`` above one (one frame
    is a single contiguous run).  Folding the rows into groups first
    makes the bulk of the work one reduction over long contiguous rows,
    ~5 µs there.
    """
    rows, batch = mask.shape
    group = _FOLD_WIDTH // batch
    if batch == 1 or group < 2 or rows < 2 * group:
        return mask.any(axis=0)
    whole = rows - rows % group
    out = mask[:whole].reshape(-1, group * batch).any(axis=0)
    out = out.reshape(group, batch).any(axis=0)
    if whole < rows:
        out |= mask[whole:].any(axis=0)
    return out


class PaperEarlyTermination:
    """The two-condition rule of §IV.

    Parameters
    ----------
    n_info:
        Number of information bits (the rule only inspects these).
    threshold:
        Minimum info-bit |LLR| (same units as the LLRs passed to
        :meth:`update` — raw integers for the fixed-point decoder).
    initial_hard:
        ``(n_info, B)`` hard decisions before the first iteration
        (from the channel LLRs).  With these, a frame whose decisions are
        already stable can stop after a single iteration — matching a
        hardware implementation that latches sign bits every iteration.
    """

    def __init__(self, n_info: int, threshold: float, initial_hard: np.ndarray):
        if initial_hard.ndim != 2 or initial_hard.shape[0] != n_info:
            raise ValueError(
                f"initial_hard must be ({n_info}, B), got {initial_hard.shape}"
            )
        self.n_info = n_info
        self.threshold = threshold
        self._previous_hard = np.asarray(initial_hard, dtype=np.uint8).copy()

    def update(self, llr: np.ndarray) -> np.ndarray:
        """Evaluate the rule after one iteration.

        Parameters
        ----------
        llr:
            ``(N, B_active)`` current APP LLRs.

        Returns
        -------
        numpy.ndarray
            ``(B_active,)`` boolean stop mask.
        """
        info_llr = llr[: self.n_info]
        hard = np.less(info_llr, 0).view(np.uint8)
        # Stable and confident is "no info bit changed and none is
        # weak" (min |L| > threshold is no |L| <= threshold): one
        # reduction over the info rows for both conditions.
        unsettled = np.abs(info_llr) <= self.threshold
        unsettled |= hard != self._previous_hard
        self._previous_hard = hard
        return ~_column_any(unsettled)

    def compact(self, keep: np.ndarray) -> None:
        """Drop state for retired frames (boolean or index array)."""
        self._previous_hard = self._previous_hard[:, keep]


class SyndromeEarlyTermination:
    """Stop when every parity check is satisfied (genie-grade rule)."""

    def __init__(self, code: QCLDPCCode):
        self.code = code

    def update(self, llr: np.ndarray) -> np.ndarray:
        """``(B_active,)`` stop mask: True where the syndrome is zero.

        ``llr`` is ``(N, B_active)``.  The code's syndrome works
        frame-minor inside, so the hard decisions reach it as a
        transposed view, with no copy in either direction.
        """
        hard = np.less(llr, 0).view(np.uint8)
        return np.asarray(self.code.is_codeword(hard.T))

    def compact(self, keep: np.ndarray) -> None:
        """Stateless — nothing to drop."""


class CombinedEarlyTermination:
    """Fire when *any* of the wrapped monitors fires."""

    def __init__(self, *monitors):
        if not monitors:
            raise ValueError("need at least one monitor")
        self.monitors = monitors

    def update(self, llr: np.ndarray) -> np.ndarray:
        mask = self.monitors[0].update(llr)
        for monitor in self.monitors[1:]:
            mask = mask | monitor.update(llr)
        return mask

    def compact(self, keep: np.ndarray) -> None:
        for monitor in self.monitors:
            monitor.compact(keep)


def make_monitor(
    config: DecoderConfig,
    code: QCLDPCCode,
    working_llr: np.ndarray,
):
    """Build the configured monitor from the prepared channel LLRs.

    Centralizes the two details both schedules need: the ET threshold is
    configured in LLR units but compared against raw datapath values in
    fixed point, and the paper rule needs the pre-iteration hard
    decisions of the information bits.

    Parameters
    ----------
    config:
        The decoder configuration (``early_termination``, ``et_threshold``
        and the datapath format are consulted).
    code:
        The code under decode.
    working_llr:
        ``(N, B)`` channel LLRs *after* input conditioning — raw integers
        for the fixed-point datapath, clipped floats otherwise.

    Returns
    -------
    A monitor object or ``None`` for ``early_termination="none"``.
    """
    threshold = config.et_threshold
    if config.is_fixed_point:
        threshold = float(np.rint(threshold * config.qformat.scale))
    initial_hard = np.less(working_llr[: code.n_info], 0).view(np.uint8)
    return make_early_termination(
        config.early_termination, code, threshold, initial_hard
    )


def make_early_termination(
    mode: str,
    code: QCLDPCCode,
    threshold: float,
    initial_hard: np.ndarray,
):
    """Build the monitor for a configured ET mode (or ``None``)."""
    if mode == "none":
        return None
    if mode == "paper":
        return PaperEarlyTermination(code.n_info, threshold, initial_hard)
    if mode == "syndrome":
        return SyndromeEarlyTermination(code)
    if mode == "paper-or-syndrome":
        return CombinedEarlyTermination(
            PaperEarlyTermination(code.n_info, threshold, initial_hard),
            SyndromeEarlyTermination(code),
        )
    raise ValueError(f"unknown early-termination mode {mode!r}")
