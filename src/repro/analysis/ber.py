"""BER/FER statistics of one Eb/N0 operating point.

:class:`SnrPoint` collects what every experiment needs from a
Monte-Carlo run: BER, FER, average iterations (what Fig. 9a plots),
convergence and ET rates.  The sweeps that fill it live in
:class:`repro.runtime.SweepEngine` (reachable as
:meth:`repro.link.Link.sweep`): every (Eb/N0 point, frame chunk) draws
from its own ``np.random.SeedSequence`` child stream, and chunk
statistics combine through :meth:`SnrPoint.merge` in chunk order, so a
parallel sweep reproduces the serial one bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SnrPoint:
    """Statistics accumulated at one Eb/N0 operating point."""

    ebn0_db: float
    frames: int = 0
    bit_errors: int = 0
    frame_errors: int = 0
    iterations_sum: float = 0.0
    iterations_hist: dict[int, int] = field(default_factory=dict)
    converged_frames: int = 0
    et_frames: int = 0
    info_bits_per_frame: int = 0

    @property
    def ber(self) -> float:
        total = self.frames * self.info_bits_per_frame
        return self.bit_errors / total if total else 0.0

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames if self.frames else 0.0

    @property
    def average_iterations(self) -> float:
        return self.iterations_sum / self.frames if self.frames else 0.0

    @property
    def convergence_rate(self) -> float:
        return self.converged_frames / self.frames if self.frames else 0.0

    @property
    def et_rate(self) -> float:
        return self.et_frames / self.frames if self.frames else 0.0

    # ------------------------------------------------------------------
    # Exact reduction + serialization (the parallel-sweep contract)
    # ------------------------------------------------------------------
    def merge(self, other: "SnrPoint") -> "SnrPoint":
        """Combine the statistics of two disjoint frame sets, exactly.

        All counters are integer sums and the iteration total is a float
        sum, so merging chunk statistics *in chunk order* reproduces the
        serial accumulation bit for bit — the invariant the parallel
        :class:`~repro.runtime.SweepEngine` relies on.  Both operands must
        describe the same operating point.
        """
        if other.ebn0_db != self.ebn0_db:
            raise ValueError(
                f"cannot merge points at {self.ebn0_db} and {other.ebn0_db} dB"
            )
        info_bits = self.info_bits_per_frame or other.info_bits_per_frame
        if (
            other.info_bits_per_frame
            and self.info_bits_per_frame
            and other.info_bits_per_frame != self.info_bits_per_frame
        ):
            raise ValueError("cannot merge points of different codes")
        hist = dict(self.iterations_hist)
        for iters, count in other.iterations_hist.items():
            hist[iters] = hist.get(iters, 0) + count
        return SnrPoint(
            ebn0_db=self.ebn0_db,
            frames=self.frames + other.frames,
            bit_errors=self.bit_errors + other.bit_errors,
            frame_errors=self.frame_errors + other.frame_errors,
            iterations_sum=self.iterations_sum + other.iterations_sum,
            iterations_hist=hist,
            converged_frames=self.converged_frames + other.converged_frames,
            et_frames=self.et_frames + other.et_frames,
            info_bits_per_frame=info_bits,
        )

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (checkpoint file format)."""
        return {
            "ebn0_db": self.ebn0_db,
            "frames": self.frames,
            "bit_errors": self.bit_errors,
            "frame_errors": self.frame_errors,
            "iterations_sum": self.iterations_sum,
            "iterations_hist": {
                str(k): v for k, v in sorted(self.iterations_hist.items())
            },
            "converged_frames": self.converged_frames,
            "et_frames": self.et_frames,
            "info_bits_per_frame": self.info_bits_per_frame,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SnrPoint":
        """Inverse of :meth:`to_dict` (JSON string keys become ints)."""
        return cls(
            ebn0_db=float(data["ebn0_db"]),
            frames=int(data["frames"]),
            bit_errors=int(data["bit_errors"]),
            frame_errors=int(data["frame_errors"]),
            iterations_sum=float(data["iterations_sum"]),
            iterations_hist={
                int(k): int(v) for k, v in data["iterations_hist"].items()
            },
            converged_frames=int(data["converged_frames"]),
            et_frames=int(data["et_frames"]),
            info_bits_per_frame=int(data["info_bits_per_frame"]),
        )
