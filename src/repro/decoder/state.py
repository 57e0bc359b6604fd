"""Resumable decode state: the loop both schedules share.

A decode is ``begin_decode`` + ``step`` to completion + ``finish``.
:class:`DecodeState` is the handle between those calls: it owns
everything the loop body touches between iterations — the working
arrays, the early-termination monitor (whose paper rule is *stateful*
across iterations), the frame set, and the iteration counter — so a
caller can also step it a few iterations at a time and inspect which
frames have retired (the re-corruption probe of
``examples/adaptive_serving.py`` steps one iteration at a time).

Both schedules share the same loop discipline (kernel work, monitor
update gated off the final iteration, forced retirement at the budget,
compaction rebind, early exit on ``all_done``), so :func:`advance`
implements it once; the schedules contribute only their kernel phase
via a callback that mutates ``state.arrays``.  A decode stepped in
slices therefore runs the exact code path of a one-shot decode and is
bit-identical to it by construction — there is no second loop to
drift.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.decoder.api import DecodeResult, DecoderConfig


class DecodeState:
    """In-flight decode handle returned by ``begin_decode``.

    Treat it as opaque except for the documented read-only attributes;
    it is bound to the decoder that created it and is not thread-safe
    (one ``step`` at a time).

    Attributes
    ----------
    iteration:
        Full iterations completed so far (0 right after begin).
    done:
        True once every frame has retired; ``finish`` may be called.
    frames:
        The :class:`~repro.decoder.compaction.ActiveFrameSet` holding
        latched outputs — ``frames.done_mask`` says which batch rows
        already have final results.
    """

    __slots__ = (
        "arrays", "monitor", "frames", "iteration", "done", "empty_result",
    )

    def __init__(self, arrays, monitor, frames):
        self.arrays = tuple(arrays)
        self.monitor = monitor
        self.frames = frames
        self.iteration = 0
        self.done = False
        self.empty_result: DecodeResult | None = None

    @property
    def done_mask(self) -> np.ndarray:
        """Full-batch mask of frames whose outputs are already final."""
        if self.frames is None:
            return np.zeros(0, dtype=bool)
        return self.frames.done_mask

    @classmethod
    def empty(cls, result: DecodeResult) -> "DecodeState":
        """A completed state for a ``(0, N)`` batch."""
        state = cls((), None, None)
        state.done = True
        state.empty_result = result
        return state


def advance(
    state: DecodeState,
    config: DecoderConfig,
    iterate: Callable[[DecodeState], None],
    max_new_iterations: int | None = None,
) -> DecodeState:
    """Run up to ``max_new_iterations`` full iterations of the loop.

    ``iterate`` performs one iteration of kernel work over
    ``state.arrays`` (mutating or rebinding them); everything around it
    — the monitor update gated off the final iteration, the forced
    retirement at the budget, compaction rebinding and the ``all_done``
    early exit — is the single shared loop body.
    """
    if state.done:
        return state
    if max_new_iterations is None:
        end = config.max_iterations
    else:
        if max_new_iterations < 1:
            raise ValueError("max_new_iterations must be >= 1")
        end = min(config.max_iterations, state.iteration + max_new_iterations)
    while state.iteration < end:
        iteration = state.iteration + 1
        iterate(state)
        working = state.arrays[0]

        if state.monitor is not None and iteration < config.max_iterations:
            stop_mask = state.monitor.update(working)
        else:
            stop_mask = np.zeros(working.shape[0], dtype=bool)
        if iteration == config.max_iterations:
            stop_mask[:] = True

        state.arrays = state.frames.retire(
            stop_mask, working, iteration, config.max_iterations,
            extra=state.arrays[1:], monitor=state.monitor,
        )
        state.iteration = iteration
        if state.frames.all_done:
            state.done = True
            break
    return state


def assemble_result(
    code, config: DecoderConfig, state: DecodeState
) -> DecodeResult:
    """The full :class:`DecodeResult` of a completed state."""
    if not state.done:
        raise RuntimeError(
            "decode still in flight; call step() until state.done"
        )
    if state.empty_result is not None:
        return state.empty_result
    frames = state.frames
    bits = (frames.out_llr < 0).astype(np.uint8)
    converged = np.asarray(code.is_codeword(bits))
    if converged.ndim == 0:
        converged = converged[None]
    llr_out = (
        config.qformat.dequantize(frames.out_llr)
        if config.is_fixed_point
        # Always report float64 LLRs even when the backend worked in a
        # narrower dtype.
        else frames.out_llr.astype(np.float64, copy=False)
    )
    return DecodeResult(
        bits=bits,
        llr=llr_out,
        iterations=frames.iterations,
        converged=converged,
        et_stopped=frames.et_stopped,
        n_info=code.n_info,
    )
