"""The benchmark's checks reject corrupted outputs and pass clean ones.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro
from repro.codes import get_code
from repro.encoder import make_encoder

from perfbench import mixes, traffic
from perfbench.checks import Outcome, ParityCheck, check_converged, recount
from perfbench.common import WATERFALL_FIXED
from perfbench.spans import Patches
from perfbench.waterfall import Capture

MODE = "802.16e:1/2:z24"


def test_parity_check_agrees_with_the_code():
    code = get_code(MODE)
    parity = ParityCheck.for_code(code)
    rng = np.random.default_rng(0)
    _, codewords = make_encoder(code).random_codewords(4, rng)
    noise = rng.integers(0, 2, codewords.shape, dtype=np.uint8)
    assert parity.passes(codewords).all()
    np.testing.assert_array_equal(
        parity.syndrome_weight(noise), code.syndrome(noise).sum(axis=1)
    )


def test_flipped_bit_in_a_converged_frame_is_rejected():
    code = get_code(MODE)
    link = repro.open(MODE, WATERFALL_FIXED, seed=3)
    _, _, llr = link.channel_frames(4, 4.0)
    outcome = Outcome.of(link.decode(llr))
    parity = ParityCheck.for_code(code)
    assert check_converged(parity, outcome) == []
    frame = int(np.flatnonzero(outcome.converged)[0])
    outcome.bits[frame, 100] ^= 1
    assert check_converged(parity, outcome) == ["1 frames flagged converged fail H·x = 0"]


def sweep_with_capture(seed):
    patches = Patches()
    capture = Capture(patches, type(make_encoder(get_code(MODE))))
    try:
        link = repro.open(MODE, WATERFALL_FIXED, seed=seed)
        points = link.sweep([1.5, 3.0], max_frames=8, min_frame_errors=9, batch_size=4)
    finally:
        patches.restore()
    encoded, decoded = capture.take()
    outcomes = [Outcome.of(result) for _, result, _ in decoded]
    return points, [info for info, _ in encoded], outcomes


@pytest.mark.parametrize("seed", [1, 2])
def test_miscounted_sweep_point_is_rejected(seed):
    points, infos, outcomes = sweep_with_capture(seed)
    assert len(outcomes) == 4
    for p, point in enumerate(points):
        assert recount(point, infos[2 * p:2 * p + 2], outcomes[2 * p:2 * p + 2]) == []
    wrong = dataclasses.replace(points[0], bit_errors=points[0].bit_errors + 1)
    found = recount(wrong, infos[:2], outcomes[:2])
    assert len(found) == 1 and "bit_errors" in found[0]


@pytest.fixture(scope="module", params=[1, 2])
def served_mix(request):
    """One round of the mix served in process, for one seed."""
    service, harq, _ = mixes.prepare_inproc()
    try:
        schedule = traffic.Schedule(traffic.make_rounds(request.param, 1))
        mixes.run_inproc_loop(service, harq, schedule)
    finally:
        service.close()
    return schedule


def flagged(schedule) -> set:
    problems, _ = mixes.check_mix(schedule)
    return {uid for uid, found in problems.items() if found}


def test_a_clean_mix_passes(served_mix):
    assert flagged(served_mix) == set()
    assert all(r.outcome is not None for r in served_mix.requests)


def test_swapped_results_are_rejected(served_mix):
    fixed = [
        r for r in served_mix.requests
        if r.single is not None and r.single.mode == "802.16e:1/2:z96"
        and r.single.datapath == "fixed"
    ]
    a, b = fixed[0], fixed[1]
    a.outcome, b.outcome = b.outcome, a.outcome
    try:
        assert flagged(served_mix) == {a.uid, b.uid}
    finally:
        a.outcome, b.outcome = b.outcome, a.outcome


def test_harq_decode_from_the_wrong_buffer_is_rejected(served_mix):
    first = [r for r in served_mix.requests if r.block is not None and r.tx == 0]
    a, b = first[0], first[1]
    assert a.block is not b.block
    kept = a.outcome
    a.outcome = b.outcome
    try:
        assert a.uid in flagged(served_mix)
    finally:
        a.outcome = kept
