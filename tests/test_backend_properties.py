"""Property-based cross-backend equivalence harness.

A seeded matrix of randomized decode problems — random small QC codes,
random :class:`~repro.decoder.DecoderConfig` draws, random LLR batches —
locks down the contracts the backend/compaction refactors rely on:

1. **Compaction is invisible.**  ``compact_frames=True`` (scatter
   retired frames out of the working batch) and ``False`` (carry them
   through) produce *identical* results — every field, every datapath,
   every schedule, every backend.
2. **Fixed point is bit-exact across backends.**  ``reference`` and
   ``fast`` agree on hard bits, raw LLRs, iteration counts and ET
   flags.
3. **Float backends agree where they promise to.**  Non-(BP sum-sub)
   kernels are shared code, so they match exactly; the fast Φ-domain
   BP kernel, as shipped in float32, guarantees hard-decision and
   iteration agreement.

The matrix derives from one master seed (``REPRO_PROPERTY_SEED``,
pinned in CI) so a failure reproduces exactly: re-run with the seed the
failing case name reports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.codes import QCLDPCCode, build_qc_base_matrix
from repro.decoder import (
    CHECK_NODE_ALGORITHMS,
    DecoderConfig,
    FloodingDecoder,
    LayeredDecoder,
    registered_backends,
)
from repro.encoder import make_encoder
from repro.errors import CodeConstructionError, EncodingError
from repro.fixedpoint import QFormat
from repro.server import protocol

#: Master seed of the whole case matrix.  Override to explore a fresh
#: matrix locally; CI pins the default so failures reproduce.
MASTER_SEED = int(os.environ.get("REPRO_PROPERTY_SEED", "20260728"))

N_CODES = 3
CASES_PER_CODE = 8

SCHEDULES = {"layered": LayeredDecoder, "flooding": FloodingDecoder}

BACKENDS = list(registered_backends())


# ---------------------------------------------------------------------------
# Deterministic random case matrix
# ---------------------------------------------------------------------------
def _random_codes(rng: np.random.Generator) -> list[QCLDPCCode]:
    """Small random QC codes (z <= 8, N <= 64) — decodes stay sub-ms.

    Redraws until the code is both 4-cycle-free (construction can fail
    at tiny z) and *encodable* (random parity parts occasionally lose
    full row rank, which the noisy-codeword cases need).
    """
    codes = []
    while len(codes) < N_CODES:
        j = int(rng.integers(2, 4))
        k = int(rng.integers(j + 2, j + 6))
        z = int(rng.integers(5, 9))
        seed = int(rng.integers(0, 2**31))
        try:
            base = build_qc_base_matrix(
                j=j, k=k, z=z,
                name=f"prop_j{j}_k{k}_z{z}_s{seed}",
                seed=seed,
                info_column_degree=2,
            )
            code = QCLDPCCode(base)
            make_encoder(code)
        except (CodeConstructionError, EncodingError):
            continue
        codes.append(code)
    return codes


@dataclass(frozen=True)
class Case:
    """One randomized decode problem."""

    label: str
    code_index: int
    schedule: str
    config_kwargs: tuple  # sorted (key, value) pairs, hashable
    llr_source: str  # "random" | "noisy"
    batch: int
    scale: float
    data_seed: int

    def config(self, **overrides) -> DecoderConfig:
        kwargs = dict(self.config_kwargs)
        kwargs.update(overrides)
        return DecoderConfig(**kwargs)


def _random_config_kwargs(rng: np.random.Generator, j: int) -> dict:
    check_node = str(rng.choice(CHECK_NODE_ALGORITHMS))
    kwargs: dict = {
        "check_node": check_node,
        "max_iterations": int(rng.integers(1, 7)),
        "early_termination": str(
            rng.choice(["none", "paper", "syndrome", "paper-or-syndrome"])
        ),
        "et_threshold": float(rng.choice([0.5, 1.0, 2.0])),
    }
    if check_node == "bp":
        kwargs["bp_impl"] = str(rng.choice(["sum-sub", "forward-backward"]))
    if rng.random() < 0.5:
        kwargs["qformat"] = QFormat(int(rng.choice([6, 8])), 2)
        # Cover both the guarded (default) and the seed-era
        # single-resolution fixed sum-sub folds.
        kwargs["siso_guard_bits"] = int(rng.choice([0, 2]))
    else:
        kwargs["llr_clip"] = float(rng.choice([16.0, 256.0]))
    if rng.random() < 0.3:
        kwargs["layer_order"] = tuple(int(x) for x in rng.permutation(j))
    return kwargs


def _build_matrix() -> tuple[list[QCLDPCCode], list[Case]]:
    rng = np.random.default_rng(MASTER_SEED)
    codes = _random_codes(rng)
    cases = []
    for code_index, code in enumerate(codes):
        for case_index in range(CASES_PER_CODE):
            kwargs = _random_config_kwargs(rng, code.base.j)
            # Draw then pin: the first five cases of each code walk the
            # full check-node algorithm list, alternating datapaths by
            # (code, case) parity, so every algorithm × fixed/float cell
            # is covered for *every* master seed (the draw alone leaves
            # holes for some seeds).
            if case_index < len(CHECK_NODE_ALGORITHMS):
                forced = CHECK_NODE_ALGORITHMS[case_index]
                kwargs["check_node"] = forced
                if forced == "bp":
                    kwargs.setdefault("bp_impl", "sum-sub")
                if (code_index + case_index) % 2 == 0:
                    kwargs.pop("llr_clip", None)
                    if "qformat" not in kwargs:
                        kwargs["qformat"] = QFormat(8, 2)
                    # Both fixed-BP fold modes (guard 0 and guarded) at
                    # every seed: code 0 pins guard 0, codes 1-2 guard.
                    kwargs["siso_guard_bits"] = code_index % 3
                else:
                    kwargs.pop("qformat", None)
                    kwargs.pop("siso_guard_bits", None)
            schedule = str(rng.choice(list(SCHEDULES)))
            if schedule == "flooding":
                kwargs.pop("layer_order", None)
            # Draw then pin: the first case of each code always runs
            # single-frame so the B=1 edge is covered for *every* master
            # seed (the draw alone misses it for ~1% of seeds).
            batch = int(rng.integers(1, 7))
            if case_index == 0:
                batch = 1
            case = Case(
                label=(
                    f"s{MASTER_SEED}-code{code_index}-{case_index}-"
                    f"{schedule}-{kwargs['check_node']}"
                    f"{'-fixed' if 'qformat' in kwargs else '-float'}"
                ),
                code_index=code_index,
                schedule=schedule,
                config_kwargs=tuple(sorted(kwargs.items())),
                llr_source=str(rng.choice(["random", "noisy"])),
                batch=batch,
                scale=float(rng.choice([2.0, 4.0, 8.0])),
                data_seed=int(rng.integers(0, 2**31)),
            )
            cases.append(case)
        # Draw then pin: the code's last layered case runs in a permuted
        # layer order (reversed, unless the draw gave it one), so a
        # non-default order reaches every property for *every* master
        # seed (the draw alone leaves none at the default seed).
        layered = [
            i for i, c in enumerate(cases)
            if c.code_index == code_index and c.schedule == "layered"
        ]
        if layered:
            pinned = cases[layered[-1]]
            kwargs = dict(pinned.config_kwargs)
            kwargs.setdefault("layer_order", tuple(reversed(range(code.base.j))))
            cases[layered[-1]] = replace(
                pinned, config_kwargs=tuple(sorted(kwargs.items()))
            )
    return codes, cases


CODES, CASES = _build_matrix()
_ENCODERS: dict[int, object] = {}


def _case_llrs(case: Case) -> np.ndarray:
    """The case's channel LLR batch (pure noise or noisy codewords)."""
    code = CODES[case.code_index]
    rng = np.random.default_rng(case.data_seed)
    if case.llr_source == "random":
        return case.scale * rng.standard_normal((case.batch, code.n))
    encoder = _ENCODERS.get(case.code_index)
    if encoder is None:
        encoder = _ENCODERS[case.code_index] = make_encoder(code)
    _, codewords = encoder.random_codewords(case.batch, rng)
    signs = 1.0 - 2.0 * codewords.astype(np.float64)
    noise = rng.standard_normal(codewords.shape)
    return case.scale * 0.5 * (signs + noise)


def _decode(case: Case, **config_overrides):
    code = CODES[case.code_index]
    config = case.config(**config_overrides)
    decoder = SCHEDULES[case.schedule](code, config)
    return decoder.decode(_case_llrs(case))


def _assert_identical(a, b, context: str):
    __tracebackhide__ = True
    assert np.array_equal(a.bits, b.bits), f"{context}: bits differ"
    assert np.array_equal(a.llr, b.llr), f"{context}: LLRs differ"
    assert np.array_equal(a.iterations, b.iterations), (
        f"{context}: iteration counts differ"
    )
    assert np.array_equal(a.et_stopped, b.et_stopped), (
        f"{context}: ET flags differ"
    )
    assert np.array_equal(a.converged, b.converged), (
        f"{context}: convergence flags differ"
    )


def _case_ids(cases):
    return [c.label for c in cases]


# ---------------------------------------------------------------------------
# Property 1: compaction is invisible, everywhere
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("case", CASES, ids=_case_ids(CASES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_compaction_bit_identity(case, backend):
    compacted = _decode(case, backend=backend, compact_frames=True)
    carried = _decode(case, backend=backend, compact_frames=False)
    _assert_identical(
        compacted, carried, f"{case.label}/{backend} compact vs carry-through"
    )


# ---------------------------------------------------------------------------
# Property 2: fixed point is bit-exact across backends
# ---------------------------------------------------------------------------
FIXED_CASES = [c for c in CASES if "qformat" in dict(c.config_kwargs)]
FLOAT_CASES = [c for c in CASES if "qformat" not in dict(c.config_kwargs)]


@pytest.mark.parametrize("case", FIXED_CASES, ids=_case_ids(FIXED_CASES))
@pytest.mark.parametrize("compact", [True, False], ids=["compact", "carry"])
def test_fixed_point_cross_backend_bit_identity(case, compact):
    reference = _decode(case, backend="reference", compact_frames=compact)
    for backend in BACKENDS:
        if backend == "reference":
            continue
        other = _decode(case, backend=backend, compact_frames=compact)
        _assert_identical(
            reference, other, f"{case.label} reference vs {backend}"
        )


# ---------------------------------------------------------------------------
# Property 3: float agreement
# ---------------------------------------------------------------------------
def _is_phi_case(case: Case) -> bool:
    kwargs = dict(case.config_kwargs)
    return (
        kwargs["check_node"] == "bp"
        and kwargs.get("bp_impl", "sum-sub") == "sum-sub"
    )


@pytest.mark.parametrize("case", FLOAT_CASES, ids=_case_ids(FLOAT_CASES))
def test_float_cross_backend_agreement(case):
    reference = _decode(case, backend="reference")
    for backend in BACKENDS:
        if backend == "reference":
            continue
        other = _decode(case, backend=backend)
        if _is_phi_case(case):
            # The fast float BP sum-sub path is a different (float32,
            # Φ-domain) evaluation of the same math; its contract is
            # decision and iteration agreement.
            context = f"{case.label} reference vs {backend} (phi)"
            assert np.array_equal(reference.bits, other.bits), (
                f"{context}: hard decisions differ"
            )
            assert np.array_equal(reference.iterations, other.iterations), (
                f"{context}: iteration counts differ"
            )
        else:
            # Every other float kernel is literally shared code.
            _assert_identical(
                reference, other, f"{case.label} reference vs {backend}"
            )


# ---------------------------------------------------------------------------
# Property 4: PlanCache serving is invisible
# ---------------------------------------------------------------------------
# The decode service hands every request to a decoder cached in
# repro.service.PlanCache (shared compiled plan + ROM tables).  The
# property: a cached-entry decode is bit-identical to a freshly built
# decoder's, for every backend, and eviction/rebuild under a tiny
# maxsize changes nothing.  Layered cases only — the cache serves the
# layered schedule.
LAYERED_CASES = [c for c in CASES if c.schedule == "layered"]


@pytest.mark.parametrize("case", LAYERED_CASES, ids=_case_ids(LAYERED_CASES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_plan_cache_decode_bit_identity(case, backend):
    from repro.service import PlanCache

    code = CODES[case.code_index]
    config = case.config(backend=backend)
    cache = PlanCache(maxsize=4)
    entry = cache.get(code, config)
    assert cache.get(code, config) is entry  # second lookup is a hit
    served = entry.decoder.decode(_case_llrs(case))
    fresh = _decode(case, backend=backend)
    _assert_identical(
        served, fresh, f"{case.label}/{backend} cached plan vs fresh"
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_plan_cache_eviction_rebuild_changes_nothing(backend):
    from repro.service import PlanCache

    cases = LAYERED_CASES[:2]
    assert len(cases) == 2
    cache = PlanCache(maxsize=1)  # every alternation evicts the other
    for _round in range(2):
        for case in cases:
            code = CODES[case.code_index]
            config = case.config(backend=backend)
            entry = cache.get(code, config)
            served = entry.decoder.decode(_case_llrs(case))
            _assert_identical(
                served,
                _decode(case, backend=backend),
                f"{case.label}/{backend} round {_round} after eviction",
            )
    stats = cache.stats()
    assert stats["evictions"] >= 3
    assert stats["size"] == 1


# ---------------------------------------------------------------------------
# Matrix sanity: the sampled cases actually cover the interesting axes
# ---------------------------------------------------------------------------
def test_matrix_covers_both_schedules_and_datapaths():
    assert {c.schedule for c in CASES} == set(SCHEDULES)
    assert FIXED_CASES and FLOAT_CASES
    assert {c.llr_source for c in CASES} == {"random", "noisy"}
    assert any(dict(c.config_kwargs)["early_termination"] != "none" for c in CASES)
    assert any(c.batch == 1 for c in CASES)
    assert any("layer_order" in dict(c.config_kwargs) for c in LAYERED_CASES)


def test_matrix_covers_every_algorithm_in_both_datapaths():
    """Every check-node algorithm runs fixed AND float through the
    cross-backend properties above — the fused min-sum / linear-approx
    fast kernels are fenced for the whole family."""
    covered = {
        (dict(c.config_kwargs)["check_node"], "qformat" in dict(c.config_kwargs))
        for c in CASES
    }
    from repro.decoder import CHECK_NODE_ALGORITHMS

    for algorithm in CHECK_NODE_ALGORITHMS:
        assert (algorithm, True) in covered, f"{algorithm} never runs fixed"
        assert (algorithm, False) in covered, f"{algorithm} never runs float"


def test_matrix_covers_both_guard_modes():
    guards = {
        dict(c.config_kwargs).get("siso_guard_bits")
        for c in FIXED_CASES
        if dict(c.config_kwargs)["check_node"] == "bp"
    }
    assert 0 in guards, "seed-era (guard 0) fixed BP fold never exercised"
    assert any(g for g in guards if g), "guarded fixed BP fold never exercised"


# ---------------------------------------------------------------------------
# Property 5: Link sessions are invisible
# ---------------------------------------------------------------------------
# repro.open wraps code lookup, plan compilation (through the shared
# PlanCache) and decoding into one session object.  The property: for
# every case in the matrix, Link.decode is bit-identical to a freshly
# hand-built decoder — the one-call API adds no arithmetic of its own.
@pytest.mark.parametrize("case", CASES, ids=_case_ids(CASES))
def test_link_decode_bit_identity(case):
    from repro.link import Link
    from repro.service import PlanCache

    code = CODES[case.code_index]
    link = Link(
        code,
        case.config(),
        schedule=case.schedule,
        cache=PlanCache(maxsize=4),
    )
    via_link = link.decode(_case_llrs(case))
    fresh = _decode(case)
    _assert_identical(via_link, fresh, f"{case.label} Link vs hand-built")


# ---------------------------------------------------------------------------
# Property 6: the process executor is invisible
# ---------------------------------------------------------------------------
# The process-sharded execution layer (ROADMAP 2a) moves batches through
# shared memory into per-worker plan caches.  The property: decoding a
# matrix case through ``DecodeService(executor="process")`` — and running
# a sweep through the forced process pool — is bit-identical to the
# serial, in-process path.  One service/pool serves every sampled case
# (that is the deployment shape; it also keeps the fork cost bounded).
def _process_cases():
    layered = [c for c in CASES if c.schedule == "layered"]
    # Sample across codes and datapaths without spinning one service
    # per case: first and last case of each code.
    picked = []
    for index in range(N_CODES):
        of_code = [c for c in layered if c.code_index == index]
        picked.extend({id(c): c for c in (of_code[0], of_code[-1])}.values())
    return picked


def test_process_service_decode_bit_identity():
    from repro.service import DecodeService, PlanCache

    cases = _process_cases()
    with DecodeService(
        max_batch=8,
        max_wait=0.002,
        workers=2,
        executor="process",
        cache=PlanCache(maxsize=8),
    ) as service:
        futures = [
            (case, service.submit(
                CODES[case.code_index], _case_llrs(case), config=case.config()
            ))
            for case in cases
        ]
        for case, future in futures:
            served = future.result(timeout=120)
            _assert_identical(
                served, _decode(case), f"{case.label} process-served vs direct"
            )
            assert served.n_info == CODES[case.code_index].n_info


@pytest.mark.parametrize("schedule", ["layered", "flooding"])
def test_process_sweep_bit_identity(schedule):
    from repro.runtime import ProcessWorkerPool, SweepEngine

    case = next(c for c in CASES if c.schedule == schedule)
    code = CODES[case.code_index]
    budget = dict(max_frames=40, min_frame_errors=1000, batch_size=20)
    ebn0 = [2.0, 4.0]
    serial = SweepEngine(
        code, case.config(), schedule=schedule, seed=MASTER_SEED
    ).run(ebn0, **budget)
    with ProcessWorkerPool(2) as pool:
        forced = SweepEngine(
            code, case.config(), schedule=schedule, seed=MASTER_SEED,
            workers=2, force_parallel=True, pool=pool,
        ).run(ebn0, **budget)
    assert [p.to_dict() for p in serial] == [p.to_dict() for p in forced]


# ---------------------------------------------------------------------------
# Property 7: incremental-iteration slicing is invisible
# ---------------------------------------------------------------------------
# decode() runs on begin_decode / step / finish, and a caller may step a
# decode a few iterations at a time (the re-corruption probe of
# examples/adaptive_serving.py steps one at a time).  Because both
# schedules share the exact loop body (repro.decoder.state.advance), a
# sliced decode must be bit-identical to the one-shot decode — outputs,
# iteration counts and ET flags included — for every backend × schedule ×
# datapath × compaction cell of the matrix.
@pytest.mark.parametrize("case", CASES, ids=_case_ids(CASES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_incremental_slices_bit_identity(case, backend):
    code = CODES[case.code_index]
    llrs = _case_llrs(case)
    for compact in (True, False):
        config = case.config(backend=backend, compact_frames=compact)
        decoder = SCHEDULES[case.schedule](code, config)
        state = decoder.begin_decode(llrs)
        steps = 0
        while not state.done:
            decoder.step(state, 2)
            steps += 1
            assert steps <= config.max_iterations  # progress guarantee
        sliced = decoder.finish(state)
        _assert_identical(
            sliced,
            SCHEDULES[case.schedule](code, config).decode(llrs),
            f"{case.label} backend={backend} compact={compact} "
            "2-iteration slices vs one-shot",
        )


def test_incremental_done_mask_monotone():
    """done_mask only ever latches more rows, and finish() needs done."""
    case = next(
        c for c in CASES
        if dict(c.config_kwargs)["max_iterations"] >= 4 and c.batch >= 3
    )
    code = CODES[case.code_index]
    decoder = SCHEDULES[case.schedule](code, case.config())
    state = decoder.begin_decode(_case_llrs(case))
    if not state.done:
        with pytest.raises(RuntimeError):
            decoder.finish(state)
    prev = state.done_mask.copy()
    while not state.done:
        decoder.step(state, 1)
        mask = state.done_mask
        assert mask[prev].all(), "a latched frame came back"
        prev = mask.copy()
    assert state.done_mask.all()


# ---------------------------------------------------------------------------
# Property 8: NR rate-matched decode is a first-class matrix citizen
# ---------------------------------------------------------------------------
# Channel LLRs that went through the NR chain (puncturing, shortening,
# repetition, soft combining) are just another decoder input: every
# backend x schedule x compaction identity must hold on them unchanged,
# for each redundancy version.  Each rv cell exercises a different
# rate-match regime -- rv0 puncturing (e < Ncb), rv2 with fillers
# (shortening), rv3 with repetition (e > Ncb) -- plus a 2-transmission
# combined buffer.
def _nr_cells():
    from repro.codes import get_code
    from repro.nr import NRRateMatcher

    rng = np.random.default_rng(MASTER_SEED + 38212)
    cells = []
    for mode, n_filler in (("NR:bg1:z2", 0), ("NR:bg2:z3", 4)):
        code = get_code(mode)
        matcher = NRRateMatcher(code, n_filler=n_filler)
        encoder = make_encoder(code)
        payload = rng.integers(
            0, 2, (3, matcher.n_payload), dtype=np.uint8
        )
        codewords = encoder.encode(matcher.place_fillers(payload))
        signs = 1.0 - 2.0 * codewords.astype(np.float64)
        plan = [  # (label, [(rv, e), ...]) -- multi-entry = IR combining
            ("rv0-puncture", [(0, matcher.ncb * 2 // 3)]),
            ("rv1", [(1, matcher.ncb * 2 // 3)]),
            ("rv2-shorten", [(2, matcher.ncb * 2 // 3)]),
            ("rv3-repeat", [(3, matcher.ncb + 11)]),
            ("rv0+rv2-combined", [(0, matcher.ncb // 2),
                                  (2, matcher.ncb // 2)]),
        ]
        for label, transmissions in plan:
            soft = None
            transmitted = np.zeros(code.n, dtype=bool)
            for rv, e in transmissions:
                sel = matcher.select(rv, e)
                noisy = 2.0 * (
                    signs[:, sel] + 0.7 * rng.standard_normal((3, e))
                )
                soft = matcher.derate_match(noisy, rv, out=soft)
                transmitted |= matcher.transmitted_mask(rv, e)
            cells.append((f"{mode}-{label}", code, matcher, soft, transmitted))
    return cells


_NR_CELLS = _nr_cells()
_NR_CONFIG_KWARGS = (
    {"check_node": "normalized-minsum", "max_iterations": 4,
     "qformat": QFormat(8, 2)},
    {"check_node": "bp", "bp_impl": "sum-sub", "max_iterations": 4,
     "qformat": QFormat(8, 2)},
)


@pytest.mark.parametrize(
    "cell", _NR_CELLS, ids=[c[0] for c in _NR_CELLS]
)
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize(
    "kwargs", _NR_CONFIG_KWARGS,
    ids=[k["check_node"] for k in _NR_CONFIG_KWARGS],
)
def test_nr_rate_matched_fixed_cross_backend_identity(cell, schedule, kwargs):
    label, code, matcher, soft, transmitted = cell
    qformat = kwargs["qformat"]
    llrs = matcher.decoder_llrs(soft, transmitted, qformat=qformat)
    results = []
    for backend in BACKENDS:
        for compact in (True, False):
            config = DecoderConfig(
                backend=backend, compact_frames=compact, **kwargs
            )
            results.append((
                f"{backend}/compact={compact}",
                SCHEDULES[schedule](code, config).decode(llrs),
            ))
    head_name, head = results[0]
    for name, result in results[1:]:
        _assert_identical(
            head, result, f"nr-{label}/{schedule} {head_name} vs {name}"
        )


@pytest.mark.parametrize(
    "cell", _NR_CELLS, ids=[c[0] for c in _NR_CELLS]
)
def test_nr_rate_matched_float_compaction_identity(cell):
    label, code, matcher, soft, transmitted = cell
    llrs = matcher.decoder_llrs(soft, transmitted)
    for schedule in sorted(SCHEDULES):
        config_kwargs = dict(
            check_node="normalized-minsum", max_iterations=4, llr_clip=256.0
        )
        compacted = SCHEDULES[schedule](
            code, DecoderConfig(compact_frames=True, **config_kwargs)
        ).decode(llrs)
        carried = SCHEDULES[schedule](
            code, DecoderConfig(compact_frames=False, **config_kwargs)
        ).decode(llrs)
        _assert_identical(
            compacted, carried, f"nr-{label}/{schedule} compact vs carry"
        )


def test_nr_harq_redecode_is_fresh_decode():
    """HARQ sessions add state, never decoder behaviour: after any
    combining history, session.decode() == a fresh decoder run over the
    conditioned combined buffer -- both datapaths."""
    from repro.nr import HarqSession

    label, code, matcher, soft, transmitted = _NR_CELLS[-1]
    for config in (
        DecoderConfig(max_iterations=6),
        DecoderConfig(max_iterations=6, qformat=QFormat(8, 2)),
    ):
        session = HarqSession(code, config, matcher=matcher)
        rng = np.random.default_rng(MASTER_SEED + 1)
        for rv in (0, 2, 3):
            e = matcher.ncb // 2
            session.push(rng.standard_normal((2, e)) * 3.0, rv)
        fresh_llrs = matcher.decoder_llrs(
            session.combined(), session.transmitted, qformat=config.qformat
        )
        _assert_identical(
            session.decode(),
            LayeredDecoder(code, config).decode(fresh_llrs),
            f"harq redecode ({'fixed' if config.qformat else 'float'})",
        )


# ---------------------------------------------------------------------------
# Property 9: batch composition is invisible
# ---------------------------------------------------------------------------
# The decode service packs frames of unrelated requests into one working
# batch, and compaction retires them from it at different iterations.
# The property: every frame's result (bits, raw LLRs, iteration count,
# ET and convergence flags) is the one it gets when decoded alone, for
# every backend × schedule × datapath × ET-rule cell of the matrix.
_RESULT_FIELDS = ("bits", "llr", "iterations", "et_stopped", "converged")


def _frame(result, row: int):
    """Row ``row`` of a batch result, shaped as a one-frame result."""
    return SimpleNamespace(
        **{name: getattr(result, name)[row : row + 1] for name in _RESULT_FIELDS}
    )


@pytest.mark.parametrize("case", CASES, ids=_case_ids(CASES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_composition_bit_identity(case, backend):
    code = CODES[case.code_index]
    llrs = _case_llrs(case)
    decoder = SCHEDULES[case.schedule](code, case.config(backend=backend))
    batch = decoder.decode(llrs)
    for row in range(case.batch):
        _assert_identical(
            _frame(batch, row),
            decoder.decode(llrs[row : row + 1]),
            f"{case.label}/{backend} frame {row} of {case.batch} vs alone",
        )


# ---------------------------------------------------------------------------
# Property 10: the wire protocol is invisible
# ---------------------------------------------------------------------------
# The decode server rebuilds a request's DecoderConfig from the JSON
# header (DecoderConfig.from_dict, which validates every value), its
# LLRs from the raw payload, and ships the result back as a RESPONSE
# frame.  The property: for every drawn config (every algorithm,
# datapath, ET rule and layer order) the round trip is lossless.  The
# config comes back equal with the same cache identity, and the result
# parsed off the response frame is bit-identical to a direct decode.
def _split_frame(frame: bytes, expected):
    size = protocol.PRELUDE.size
    ftype, header_len, payload_len = protocol.decode_prelude(frame[:size])
    assert ftype == expected
    assert len(frame) == size + header_len + payload_len
    header = protocol.decode_header(frame[size : size + header_len])
    return header, frame[size + header_len :]


@pytest.mark.parametrize("case", CASES, ids=_case_ids(CASES))
def test_wire_round_trip_bit_identity(case):
    code = CODES[case.code_index]
    config = case.config()
    llrs = _case_llrs(case)
    header, payload = _split_frame(
        protocol.encode_request(7, code.name, llrs, config=config),
        protocol.FrameType.REQUEST,
    )
    request_id, mode, wire_llrs, wire_config, _ = protocol.parse_request(
        header, payload
    )
    assert (request_id, mode) == (7, code.name)
    assert wire_config == config
    assert wire_config.cache_key() == config.cache_key()
    assert np.array_equal(wire_llrs, llrs)
    served = SCHEDULES[case.schedule](code, wire_config).decode(wire_llrs)
    header, payload = _split_frame(
        protocol.encode_result(request_id, served),
        protocol.FrameType.RESPONSE,
    )
    reply_id, result = protocol.parse_result(header, payload)
    assert reply_id == request_id
    assert result.n_info == code.n_info
    _assert_identical(result, _decode(case), f"{case.label} over the wire")
