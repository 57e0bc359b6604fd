"""``waterfall``: serial BER/FER sweeps through ``repro.open(...).sweep``.

Each round sweeps 802.16e:1/2:z96 (N=2304, the paper's largest 802.16e
mode) over GRID once in Q8.2 and once in float, FRAMES_PER_POINT frames
per point and no stop on error count, then runs the fixed-budget pass
(``early_termination="none"``) at the top point in both datapaths: the
load behind the paper's 1-Gbps-at-10-iterations figure.  An operation
is one decode batch.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro import LayeredDecoder
from repro.codes import get_code
from repro.encoder import make_encoder

from perfbench.checks import (
    Outcome,
    ParityCheck,
    check_converged,
    check_decoded,
    check_transmitted,
    differences,
    recount,
)
from perfbench.common import (
    WATERFALL_FIXED,
    WATERFALL_FLOAT,
    Run,
    derive_seed,
    measure_setup,
    median,
    peak_rss_mb,
    percentile,
    tail_percentile,
)
from perfbench.spans import Patches, Recorder, install

MODE = "802.16e:1/2:z96"
#: 1.0 dB: nearly every frame spends the whole 10-iteration budget;
#: from 2.5 dB most frames stop early under the paper rule.
GRID = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
FRAMES_PER_POINT = 32
BATCH = 32
FIXED_BUDGET_FRAMES = 32
#: The fixed-budget pass decodes the same frames in every run: its Q8.2
#: batch fails on a known fault, and must fail on inputs no --seed moves.
FIXED_BUDGET_SEED = 2008
#: Frames per sampled batch re-decoded on the reference backend.
REFERENCE_FRAMES = 4
#: A run does round(--seconds / ROUND_SECONDS) rounds.  A round takes
#: ~0.8 s on a shared 2-vCPU VM; the shorter figure buys more rounds for
#: the per-round medians, which host-speed bursts otherwise move.
ROUND_SECONDS = 0.6

CONFIGS = {
    ("sweep", "fixed"): WATERFALL_FIXED,
    ("sweep", "float"): WATERFALL_FLOAT,
    ("budget", "fixed"): WATERFALL_FIXED.replace(early_termination="none"),
    ("budget", "float"): WATERFALL_FLOAT.replace(early_termination="none"),
}
BATCHES_PER_ROUND = 2 * len(GRID) * (-(-FRAMES_PER_POINT // BATCH)) + 2


def rounds_for(seconds: float) -> int:
    """Fixed work per --seconds; three rounds at least, so the tail
    percentile has its ten batches beyond it."""
    return max(3, round(seconds / ROUND_SECONDS))


def run(seed: int, seconds: float, recorder: "Recorder | None") -> Run:
    """One waterfall run, traced into ``recorder`` when one is given."""
    setup = measure_setup("waterfall")
    prepare()
    patches = Patches()
    if recorder is not None:
        install(recorder, patches, rows=False)
    sweeps = Waterfall(seed, rounds_for(seconds), patches)
    window = [time.perf_counter_ns()]
    try:
        sweeps.run()
    finally:
        window.append(time.perf_counter_ns())
        patches.restore()
    values = dict(sweeps.metrics(), peak_rss_mb=peak_rss_mb(), setup_s=setup["setup_s"])
    return Run(
        values=values,
        problems=[found for _, _, found in sweeps.ops],
        correct=len(sweeps.ops) == sweeps.rounds * BATCHES_PER_ROUND,
        info=sweeps.info(),
        setup=setup,
        window=tuple(window),
    )


def prepare() -> float:
    """Build code, encoder and every plan; warm each decoder.

    Returns the mean plan build time per config, ms.
    """
    cache = repro.default_plan_cache()
    builds = []
    for config in CONFIGS.values():
        t0 = time.perf_counter()
        entry = cache.get(MODE, config)
        builds.append(time.perf_counter() - t0)
        entry.decoder.decode(np.ones((2, entry.code.n)))
    make_encoder(get_code(MODE))
    return 1e3 * float(np.mean(builds))


class Capture:
    """Keeps the encoder and decoder calls a sweep makes, for the checks."""

    def __init__(self, patches: Patches, encoder_cls):
        self.encoded: list = []
        self.decoded: list = []

        def encode_factory(original):
            def random_codewords(encoder, count, rng):
                out = original(encoder, count, rng)
                self.encoded.append(out)
                return out

            return random_codewords

        def decode_factory(original):
            def decode(decoder, channel_llr):
                start = time.perf_counter()
                result = original(decoder, channel_llr)
                self.decoded.append(
                    (channel_llr, result, time.perf_counter() - start)
                )
                return result

            return decode

        patches.wrap(encoder_cls, "random_codewords", encode_factory)
        patches.wrap(LayeredDecoder, "decode", decode_factory)

    def take(self) -> tuple:
        encoded, decoded = self.encoded, self.decoded
        self.encoded, self.decoded = [], []
        return encoded, decoded


class Waterfall:
    """One run: rounds of sweeps, each checked right after it returns."""

    def __init__(self, seed: int, rounds: int, patches: Patches):
        self.seed = seed
        self.rounds = rounds
        self.code = get_code(MODE)
        self.parity = ParityCheck.for_code(self.code)
        self.reference = {
            kind: LayeredDecoder(self.code, CONFIGS[kind, "fixed"].replace(backend="reference"))
            for kind in ("sweep", "budget")
        }
        self.capture = Capture(patches, type(make_encoder(self.code)))
        #: One record per decode batch: (datapath, latency_s, problems).
        self.ops: list = []
        #: Per round and datapath: sweep seconds and frames decoded.
        self.busy_s = [{"fixed": 0.0, "float": 0.0} for _ in range(rounds)]
        self.frames = [{"fixed": 0, "float": 0} for _ in range(rounds)]
        self.points: dict = {}
        self.reference_checked = 0

    def run(self) -> None:
        for r in range(self.rounds):
            seed = derive_seed(self.seed, r)
            for datapath in ("fixed", "float"):
                self._sweep("sweep", datapath, seed, GRID, FRAMES_PER_POINT, BATCH, r)
            for datapath in ("fixed", "float"):
                self._sweep(
                    "budget", datapath, FIXED_BUDGET_SEED, GRID[-1:],
                    FIXED_BUDGET_FRAMES, FIXED_BUDGET_FRAMES, r,
                )

    def _sweep(self, kind, datapath, seed, grid, frames, batch, round_index):
        link = repro.open(MODE, CONFIGS[kind, datapath], seed=seed)
        per_point = -(-frames // batch)
        expected = len(grid) * per_point
        start = time.perf_counter()
        try:
            points = link.sweep(
                grid, max_frames=frames, min_frame_errors=frames + 1, batch_size=batch
            )
            error = None
        except Exception as exc:  # counted: every batch of the call fails
            points, error = None, exc
        self.busy_s[round_index][datapath] += time.perf_counter() - start
        encoded, decoded = self.capture.take()
        if error is not None or len(decoded) != expected or len(encoded) != expected:
            reason = repr(error) if error else f"{len(decoded)} decode calls, expected {expected}"
            self.ops += [(datapath, None, [reason])] * expected
            return
        outcomes = [Outcome.of(result) for _, result, _ in decoded]
        problems = [[] for _ in range(expected)]
        for b, ((info, codewords), outcome) in enumerate(zip(encoded, outcomes)):
            problems[b] += check_transmitted(self.parity, info, codewords)
            problems[b] += check_converged(self.parity, outcome)
            if kind == "budget":
                problems[b] += check_decoded(outcome, codewords)
        for p, point in enumerate(points):
            batches = range(p * per_point, (p + 1) * per_point)
            found = recount(
                point, [encoded[b][0] for b in batches], [outcomes[b] for b in batches]
            )
            for b in batches:
                problems[b] += found
            if kind == "sweep":
                self._tally(datapath, point)
        if datapath == "fixed" and (kind == "sweep" or round_index == 0):
            # One sampled batch per Q8.2 sweep, rotating over the grid;
            # the fixed-budget frames never change, so once per run.
            b = (round_index % len(grid)) * per_point
            llr = decoded[b][0][:REFERENCE_FRAMES]
            oracle = Outcome.of(self.reference[kind].decode(llr))
            self.capture.take()  # drop the reference decode just captured
            problems[b] += differences(
                Outcome.of(decoded[b][1], 0, REFERENCE_FRAMES), oracle,
                "fast vs reference backend",
            )
            self.reference_checked += 1
        for (_, result, latency), found in zip(decoded, problems):
            self.frames[round_index][datapath] += result.bits.shape[0]
            self.ops.append((datapath, latency, found))

    def _tally(self, datapath, point) -> None:
        key = f"{datapath}@{point.ebn0_db}"
        tally = self.points.setdefault(
            key, {"frames": 0, "frame_errors": 0, "bit_errors": 0, "iterations": 0.0}
        )
        tally["frames"] += point.frames
        tally["frame_errors"] += point.frame_errors
        tally["bit_errors"] += point.bit_errors
        tally["iterations"] += point.iterations_sum

    def metrics(self) -> dict:
        k = self.code.n_info
        latencies = [latency for _, latency, _ in self.ops if latency is not None]
        per_round = BATCHES_PER_ROUND
        round_p50 = [
            median([op[1] for op in self.ops[r:r + per_round] if op[1] is not None])
            for r in range(0, len(self.ops), per_round)
        ]
        guaranteed = self.rounds * BATCHES_PER_ROUND
        tail_q = tail_percentile(guaranteed)
        # Throughput and p50 are medians over rounds: a burst of load
        # from elsewhere on the host moves one round, not the run's figure.
        mbps = {
            datapath: median(
                [k * f[datapath] / b[datapath] / 1e6 for f, b in zip(self.frames, self.busy_s)]
            )
            for datapath in ("fixed", "float")
        }
        return {
            "fixed_mbps": mbps["fixed"],
            "float_mbps": mbps["float"],
            "latency_p50_ms": 1e3 * median(round_p50),
            "latency_tail_ms": 1e3 * percentile(latencies, tail_q),
        }

    def info(self) -> dict:
        chip = repro.open(MODE, WATERFALL_FIXED).chip().throughput(10)
        return {
            "rounds": self.rounds,
            "batches": len(self.ops),
            "tail_percentile": tail_percentile(self.rounds * BATCHES_PER_ROUND),
            "tail_n_guaranteed": self.rounds * BATCHES_PER_ROUND,
            "reference_batches_checked": self.reference_checked,
            "chip_model_mbps_10_iterations": chip.formula_bps / 1e6,
            "chip_model_simulated_mbps_10_iterations": (chip.simulated_bps or 0.0) / 1e6,
            "points": {
                key: {
                    "fer": t["frame_errors"] / t["frames"],
                    "ber": t["bit_errors"] / (t["frames"] * self.code.n_info),
                    "avg_iterations": t["iterations"] / t["frames"],
                }
                for key, t in self.points.items()
            },
        }
