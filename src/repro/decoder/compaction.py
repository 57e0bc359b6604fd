"""Active-frame bookkeeping shared by the decode schedules.

Early termination (paper §IV) is what lets the chip's *average* decode
cost track ``average_iterations`` instead of ``max_iterations``: most
frames stop after a few iterations and the datapath idles.  The software
analogue is *active-frame compaction*: each full iteration, frames whose
stop rule fired are scattered out of the working batch (APP memory, Λ
memory, monitor state) and the plan executes only on the surviving
frames.  The working state is frame-minor, so a frame is a *column* of
every working array (its trailing index) and compaction keeps columns.

:class:`ActiveFrameSet` owns that bookkeeping for both schedules.  It
supports two modes, selected by ``DecoderConfig(compact_frames=...)``:

- **compacted** (default): :meth:`retire` latches the outputs of stopped
  frames and compacts *every working array the caller hands it* (plus
  the monitor state, via :meth:`~.PaperEarlyTermination.compact`) with
  one shared ``keep`` mask — the decoders rebind their locals from its
  return value, so a working array can't silently miss the shrink.
- **uncompacted** (the carry-through baseline): working arrays keep their
  full batch size, stopped frames latch their outputs exactly once, and
  the kernels keep grinding over retired rows until every frame has
  stopped.  This is the cost model compaction saves against.

Both modes produce bit-identical :class:`~repro.decoder.api.DecodeResult`
contents because every check-node kernel and every monitor update is
elementwise along the batch axis — removing a frame cannot change any
other frame's arithmetic.  ``tests/test_backend_properties.py`` asserts
this equivalence across schedules, backends and datapaths.
"""

from __future__ import annotations

import numpy as np


class ActiveFrameSet:
    """Scatter-out state for one batch decode.

    Parameters
    ----------
    batch:
        Initial batch size ``B``.
    n:
        Codeword length (output LLR width).
    dtype:
        Working dtype of the APP memory (the latched output keeps it).
    compact:
        True for compacted operation (see module docstring).

    Attributes
    ----------
    out_llr, iterations, et_stopped:
        ``(N, B)`` frame-minor / ``(B,)`` full-batch output arrays,
        filled in as frames retire; valid once :attr:`all_done` is True
        (or the decode loop ends at ``max_iterations``, which retires
        the remainder).
    """

    def __init__(self, batch: int, n: int, dtype, compact: bool = True):
        self.compact = bool(compact)
        self.out_llr = np.zeros((n, batch), dtype=dtype)
        self.iterations = np.zeros(batch, dtype=np.int64)
        self.et_stopped = np.zeros(batch, dtype=bool)
        #: Original frame index of each column still in the working
        #: batch (compacted mode) / of each not-yet-latched frame
        #: (uncompacted).
        self._active_ids = np.arange(batch)
        #: Uncompacted mode: frames whose outputs are already latched.
        self._done = np.zeros(batch, dtype=bool)

    @property
    def all_done(self) -> bool:
        return self._active_ids.size == 0

    @property
    def done_mask(self) -> np.ndarray:
        """Full-batch mask of frames whose outputs are already latched.

        A caller stepping a decode a few iterations at a time reads
        this between steps to see which frames have retired.
        """
        if self.compact:
            mask = np.ones(self.out_llr.shape[1], dtype=bool)
            mask[self._active_ids] = False
            return mask
        return self._done.copy()

    def retire(
        self,
        stop_mask: np.ndarray,
        working_llr: np.ndarray,
        iteration: int,
        max_iterations: int,
        extra: tuple = (),
        monitor=None,
    ) -> tuple:
        """Latch outputs for stopped frames; compact the working state.

        Parameters
        ----------
        stop_mask:
            Boolean mask over the *working batch* (the compacted frames
            in compacted mode, the full batch otherwise).
        working_llr:
            Current ``(N, B_working)`` APP memory.
        iteration:
            1-based full iteration just completed.
        max_iterations:
            Configured iteration budget (distinguishes ET stops).
        extra:
            Any further batch-trailing working arrays (Λ memories,
            channel copies, ...) that must shrink in lockstep with the
            batch.
        monitor:
            The early-termination monitor whose state tracks the batch,
            or ``None``.

        Returns
        -------
        tuple
            ``(working_llr, *extra)`` — C-contiguous compacted copies in
            compacted mode when frames retired, the inputs unchanged
            otherwise.  Callers must rebind their locals from this
            return value so no working array can miss the shrink.
        """
        if self.compact:
            if not stop_mask.any():
                return (working_llr, *extra)
            retiring = self._active_ids[stop_mask]
            self.out_llr[:, retiring] = working_llr[:, stop_mask]
            self.iterations[retiring] = iteration
            self.et_stopped[retiring] = iteration < max_iterations
            keep = np.flatnonzero(~stop_mask)
            self._active_ids = self._active_ids[keep]
            if monitor is not None:
                monitor.compact(keep)
            # take() returns C-contiguous arrays: the fast backend's
            # row views need whole contiguous APP rows.
            return tuple(
                arr.take(keep, axis=-1) for arr in (working_llr, *extra)
            )
        # Uncompacted: ignore frames that already latched (their monitor
        # state keeps evolving over the carried-through columns, so the
        # rule may re-fire — the first firing is the recorded one).
        newly = stop_mask & ~self._done
        if newly.any():
            self.out_llr[:, newly] = working_llr[:, newly]
            self.iterations[newly] = iteration
            self.et_stopped[newly] = iteration < max_iterations
            self._done |= newly
            self._active_ids = np.flatnonzero(~self._done)
        return (working_llr, *extra)
