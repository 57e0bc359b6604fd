"""Resumable decode state: the loop both schedules share.

A decode is ``begin_decode`` + ``step`` to completion + ``finish``.
:class:`DecodeState` is the handle between those calls: it owns
everything the loop body touches between iterations — the working
arrays, the early-termination monitor (whose paper rule is *stateful*
across iterations), the frame set, and the iteration counter — so a
caller can also step it a few iterations at a time and inspect which
frames have retired (the re-corruption probe of
``examples/adaptive_serving.py`` steps one iteration at a time).

The working arrays are frame-minor — the APP memory first, ``(N, B)``,
then the schedule's other batch-trailing arrays — and the public
surface stays ``(B, N)``: :attr:`DecodeState.app` is a transposed view,
and :func:`assemble_result` transposes the latched outputs back.

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
from repro.decoder.compaction import ActiveFrameSet
from repro.decoder.early_termination import make_monitor


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
    arrays:
        The frame-minor working arrays, APP memory first (``(N,
        B_active)``); the schedule owns them.  Read the APP through
        :attr:`app` instead.
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

    @classmethod
    def start(cls, code, config: DecoderConfig, arrays) -> "DecodeState":
        """A fresh state over frame-minor working ``arrays``.

        ``arrays[0]`` is the conditioned ``(N, B)`` APP memory; the
        early-termination monitor reads its pre-iteration decisions.
        """
        app = arrays[0]
        monitor = make_monitor(config, code, app)
        frames = ActiveFrameSet(
            app.shape[1], code.n, app.dtype, compact=config.compact_frames
        )
        return cls(arrays, monitor, frames)

    @property
    def app(self) -> np.ndarray:
        """Read-only ``(B_active, N)`` view of the working APP memory.

        A transposed view of the frame-minor state, not a copy: it
        tracks the decode as :meth:`step` runs, in datapath units (raw
        integers in fixed point).  Rows are the frames still in the
        working batch — every frame without compaction
        (``compact_frames=False``), the not-yet-retired ones with it.
        """
        if not self.arrays:
            return np.empty((0, self.empty_result.llr.shape[1]))
        view = self.arrays[0].T
        view.flags.writeable = False
        return view

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
            stop_mask = np.zeros(working.shape[1], dtype=bool)
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
    out = state.frames.out_llr  # (N, B), frame-minor
    hard = np.less(out, 0).view(np.uint8)
    # The syndrome works frame-minor inside, so the transposed view
    # reaches it without a copy.
    converged = np.asarray(code.is_codeword(hard.T))
    if converged.ndim == 0:
        converged = converged[None]
    # Always report float64 LLRs, even when the backend worked in a
    # narrower dtype.
    llr_out = (
        config.qformat.dequantize(out)
        if config.is_fixed_point
        else out
    )
    frames = state.frames
    return DecodeResult(
        bits=np.ascontiguousarray(hard.T),
        llr=np.ascontiguousarray(llr_out.T, dtype=np.float64),
        iterations=frames.iterations,
        converged=converged,
        et_stopped=frames.et_stopped,
        n_info=code.n_info,
    )
