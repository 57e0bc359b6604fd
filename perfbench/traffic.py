"""The serving mixes' traffic and their closed-loop schedule.

Both ``inproc_mix`` and ``wire_mix`` replay exactly this traffic: the
same seeds give the same frames, the same request order and the same
window, so the difference between the two is the wire's cost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.channel import BPSKModulator, ChannelFrontend, make_channel
from repro.codes import get_code
from repro.encoder import make_encoder
from repro.nr import NRRateMatcher

from perfbench.common import SERVE_FIXED, SERVE_FLOAT, make_rng

#: Single-frame modes, N = 576, 2304, 648 and 1944.
MODES = (
    "802.16e:1/2:z24",
    "802.16e:1/2:z96",
    "802.11n:1/2:z27",
    "802.11n:1/2:z81",
)
#: Per round and mode: Q8.2 requests, then float requests.  The float
#: share keeps float_mbps measured on every workload.
FIXED_PER_MODE = 5
FLOAT_PER_MODE = 1
#: Eb/N0 spread of single-frame requests (dB): ~1 dB frames spend the
#: whole 10-iteration budget, 3.5 dB frames stop after 2-3.
SINGLE_EBN0 = (1.0, 3.5)

NR_MODE = "NR:bg1:z16"
NR_BLOCKS_PER_ROUND = 2
#: rv0 alone almost never decodes at these points; rv0+rv2 nearly always.
NR_EBN0 = (0.0, 2.0)
RV_ORDER = (0, 2, 3, 1)

#: Requests kept outstanding by the closed loop.
WINDOW = 16
CONNECTIONS = 2

CONFIGS = {"fixed": SERVE_FIXED, "float": SERVE_FLOAT}


@dataclass
class Single:
    uid: int
    mode: str
    datapath: str
    conn: int
    info: np.ndarray
    codeword: np.ndarray
    llr: np.ndarray

    @property
    def config(self):
        return CONFIGS[self.datapath]


@dataclass
class Block:
    """One NR transport block: its truth and the soft bits of every rv."""

    uid: int
    conn: int
    info: np.ndarray
    codeword: np.ndarray
    soft: list
    #: Single-frame requests of its round issued before its rv0.
    after: int
    sent: list = field(default_factory=list)
    delivered: bool = False


@dataclass
class Request:
    """One operation of the mix: a single-frame decode or one HARQ
    transmission (``block`` set, ``tx`` its index in RV_ORDER)."""

    uid: int
    conn: int
    single: "Single | None" = None
    block: "Block | None" = None
    tx: int = 0
    #: perf_counter_ns when sent and when answered.
    start: int = 0
    end: int = 0
    outcome: object = None
    error: "BaseException | None" = None
    #: Wire payload fingerprint (traced wire_mix runs only).
    wire: "str | None" = None

    @property
    def rv(self) -> int:
        return RV_ORDER[self.tx]


def requests_per_round() -> int:
    """Requests a round is guaranteed to issue (one transmission per block)."""
    return len(MODES) * (FIXED_PER_MODE + FLOAT_PER_MODE) + NR_BLOCKS_PER_ROUND


def make_rounds(seed: int, rounds: int) -> list:
    """``[(singles, blocks), ...]``: every input of the run, from ``seed``."""
    links = {
        (mode, datapath): repro.open(mode, config)
        for mode in MODES
        for datapath, config in CONFIGS.items()
    }
    matcher = NRRateMatcher(get_code(NR_MODE))
    e = matcher.ncb // 2
    nr_encoder = make_encoder(matcher.code)
    kinds = [
        (mode, datapath)
        for mode in MODES
        for datapath, count in (("fixed", FIXED_PER_MODE), ("float", FLOAT_PER_MODE))
        for _ in range(count)
    ]
    out = []
    uid = 0
    for r in range(rounds):
        rng = make_rng(seed, r)
        singles = []
        for i in rng.permutation(len(kinds)):
            mode, datapath = kinds[i]
            ebn0 = float(rng.uniform(*SINGLE_EBN0))
            info, codeword, llr = links[mode, datapath].channel_frames(
                1, ebn0, rng=rng
            )
            singles.append(
                Single(uid, mode, datapath, uid % CONNECTIONS, info, codeword, llr)
            )
            uid += 1
        blocks = []
        spacing = len(singles) // NR_BLOCKS_PER_ROUND
        for b in range(NR_BLOCKS_PER_ROUND):
            ebn0 = float(rng.uniform(*NR_EBN0))
            info, codeword = nr_encoder.random_codewords(1, rng)
            soft = []
            for rv in RV_ORDER:
                channel = make_channel(
                    "awgn", ebn0, matcher.n_payload / e, 1, rng=rng
                )
                soft.append(
                    ChannelFrontend(BPSKModulator(), channel).run(
                        matcher.rate_match(codeword, rv, e)
                    )
                )
            blocks.append(
                Block(uid, uid % CONNECTIONS, info, codeword, soft, b * spacing)
            )
            uid += 1
        out.append((singles, blocks))
    return out


class Schedule:
    """Which request the closed loop sends next.

    A retransmission becomes ready when its block's previous decode
    returns info bits that differ from what was sent, and goes ahead of
    fresh requests.  A block ends when it decodes or runs out of rvs.
    """

    def __init__(self, rounds: list):
        self._fresh = self._iterate(rounds)
        self._ready: deque = deque()
        self._next_uid = 0
        self.requests: list = []

    @staticmethod
    def _iterate(rounds):
        for singles, blocks in rounds:
            starts = {block.after: block for block in blocks}
            for i, single in enumerate(singles):
                if i in starts:
                    yield None, starts[i]
                yield single, None

    def _make(self, single=None, block=None, tx=0) -> Request:
        conn = single.conn if single is not None else block.conn
        request = Request(self._next_uid, conn, single=single, block=block, tx=tx)
        self._next_uid += 1
        self.requests.append(request)
        return request

    def next(self) -> "Request | None":
        if self._ready:
            return self._ready.popleft()
        for single, block in self._fresh:
            if block is not None:
                return self._make(block=block)
            return self._make(single=single)
        return None

    def complete(self, request: Request) -> bool:
        """Record a finished request; queue the block's next rv if due.

        Returns True when the request ended its block.
        """
        block = request.block
        if block is None:
            return False
        block.sent.append(request)
        if request.error is not None:
            return True
        k = block.info.shape[1]
        block.delivered = bool(np.array_equal(request.outcome.bits[:, :k], block.info))
        if not block.delivered and request.tx + 1 < len(RV_ORDER):
            self._ready.append(self._make(block=block, tx=request.tx + 1))
            return False
        return True
