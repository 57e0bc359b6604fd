"""Adaptive decode policies and the service-tier ET default.

Three layers of contract:

1. **Policy objects** (:mod:`repro.service.policy`): rule
   canonicalization/validation, SNR-band matching, datapath pinning for
   raw payloads, and the ``"paper"`` → ``"paper-or-syndrome"``
   early-termination finalization.
2. **The PR 3 re-corruption regression**: on the paper's N=2304 WiMax
   code at 3.0 dB, Q8.2 frames that reach a true codeword under the
   plain paper ET rule keep iterating and get re-corrupted by
   tight-saturation contagion.  The service-tier default retires the
   effect: measured converged-then-corrupted count is exactly zero and
   fixed-point BER equals float BER — through the *defaulted* service
   path, with the residual demonstrated on a paper-only direct decode.
3. **Service threading**: policy selection + SNR estimation on submit,
   per-rule metrics and energy gauges.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.channel.awgn import ebn0_to_noise_var
from repro.codes import get_code
from repro.decoder import DecoderConfig, LayeredDecoder
from repro.encoder import make_encoder
from repro.fixedpoint import QFormat
from repro.link import Link
from repro.service import (
    DEFAULT_RULES,
    DecodePolicy,
    DecodeService,
    PlanCache,
    PolicyRule,
    SERVICE_EARLY_TERMINATION,
    prometheus_text,
    service_default_config,
)

WIMAX_SMALL = "802.16e:1/2:z24"
WIMAX_2304 = "802.16e:1/2:z96"  # the paper's N=2304 headline code
SEED = 20260810


def _noisy_llrs(code, encoder, frames, ebn0_db, rng):
    """(tx info bits, channel LLRs) at an Eb/N0 operating point."""
    bits = rng.integers(0, 2, (frames, code.n_info))
    codewords = encoder.encode(bits)
    noise_var = ebn0_to_noise_var(ebn0_db, code.rate)
    symbols = 1.0 - 2.0 * codewords
    received = symbols + math.sqrt(noise_var) * rng.standard_normal(
        codewords.shape
    )
    return bits, 2.0 * received / noise_var


def _assert_identical(a, b, context=""):
    __tracebackhide__ = True
    assert np.array_equal(a.bits, b.bits), f"{context}: bits"
    assert np.array_equal(a.llr, b.llr), f"{context}: llr"
    assert np.array_equal(a.iterations, b.iterations), f"{context}: iterations"
    assert np.array_equal(a.et_stopped, b.et_stopped), f"{context}: et"
    assert np.array_equal(a.converged, b.converged), f"{context}: converged"


# ---------------------------------------------------------------------------
# service_default_config / PolicyRule / DecodePolicy units
# ---------------------------------------------------------------------------
class TestServiceDefaultConfig:
    def test_upgrades_library_default(self):
        base = DecoderConfig()
        assert base.early_termination == "paper"  # library default intact
        assert (
            service_default_config(base).early_termination
            == SERVICE_EARLY_TERMINATION
        )

    @pytest.mark.parametrize("et", ["none", "syndrome", "paper-or-syndrome"])
    def test_explicit_et_passes_through(self, et):
        base = DecoderConfig(early_termination=et)
        assert service_default_config(base) is base

    def test_service_applies_upgrade_only_when_defaulted(self):
        with DecodeService(workers=1) as svc:
            assert (
                svc.default_config.early_termination
                == SERVICE_EARLY_TERMINATION
            )
        explicit = DecoderConfig(early_termination="paper")
        with DecodeService(workers=1, default_config=explicit) as svc:
            assert svc.default_config is explicit

    def test_cache_default_is_upgraded_not_replaced(self):
        cache = PlanCache(
            default_config=DecoderConfig(backend="fast", max_iterations=7)
        )
        with DecodeService(workers=1, cache=cache) as svc:
            assert svc.default_config.max_iterations == 7
            assert svc.default_config.backend == "fast"
            assert (
                svc.default_config.early_termination
                == SERVICE_EARLY_TERMINATION
            )

    def test_link_serving_config(self):
        link = Link(WIMAX_SMALL)
        assert link.config.early_termination == "paper"
        assert (
            link.serving_config.early_termination == SERVICE_EARLY_TERMINATION
        )
        explicit = Link(
            WIMAX_SMALL, DecoderConfig(early_termination="paper")
        )
        assert explicit.serving_config.early_termination == "paper"


class TestPolicyRule:
    def test_overrides_canonicalized(self):
        a = PolicyRule("r", 1.0, {"max_iterations": 5, "check_node": "bp"})
        b = PolicyRule(
            "r", 1.0, (("check_node", "bp"), ("max_iterations", 5))
        )
        assert a == b
        assert a.overrides == (("check_node", "bp"), ("max_iterations", 5))

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown DecoderConfig fields"):
            PolicyRule("r", 1.0, {"not_a_field": 1})

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            PolicyRule("", 1.0)

    def test_applies_is_inclusive_lower_edge(self):
        rule = PolicyRule("r", 2.0)
        assert rule.applies(2.0)
        assert rule.applies(5.0)
        assert not rule.applies(1.999)

    def test_config_applies_overrides(self):
        rule = PolicyRule(
            "r", 0.0, {"max_iterations": 4, "qformat": QFormat(8, 2)}
        )
        cfg = rule.config(DecoderConfig())
        assert cfg.max_iterations == 4
        assert cfg.qformat == QFormat(8, 2)

    def test_datapath_overrides_dropped_for_raw_payloads(self):
        rule = PolicyRule(
            "r", 0.0, {"max_iterations": 4, "qformat": QFormat(6, 2)}
        )
        base = DecoderConfig(qformat=QFormat(8, 2))
        pinned = rule.config(base, allow_datapath=False)
        assert pinned.qformat == QFormat(8, 2)  # client's lens kept
        assert pinned.max_iterations == 4  # non-datapath override applied


class TestDecodePolicy:
    def test_needs_rules_and_catch_all(self):
        with pytest.raises(ValueError, match="at least one rule"):
            DecodePolicy(rules=())
        with pytest.raises(ValueError, match="catch-all"):
            DecodePolicy(rules=(PolicyRule("only", 2.0),))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DecodePolicy(
                rules=(
                    PolicyRule("a", 1.0),
                    PolicyRule("a", -math.inf),
                )
            )

    def test_rules_sorted_descending(self):
        policy = DecodePolicy(
            rules=(
                PolicyRule("low", -math.inf),
                PolicyRule("high", 4.0),
                PolicyRule("mid", 1.0),
            )
        )
        assert policy.rule_names == ("high", "mid", "low")

    def test_first_hit_matching(self):
        policy = DecodePolicy()
        base = DecoderConfig()
        assert policy.select(9.0, base)[0] == "high-snr-minsum"
        assert policy.select(3.0, base)[0] == "mid-snr-fixed"
        assert policy.select(-10.0, base)[0] == "low-snr-float"

    def test_default_rules_pick_expected_configs(self):
        base = DecoderConfig()
        name, high = DecodePolicy().select(6.0, base)
        assert name == "high-snr-minsum"
        assert high.check_node == "normalized-minsum"
        assert high.qformat == QFormat(8, 2)
        assert high.max_iterations == 5
        _, low = DecodePolicy().select(-3.0, base)
        assert low.check_node == base.check_node
        assert low.qformat is None  # float datapath

    def test_no_default_rule_raises_iteration_budget(self):
        base = DecoderConfig()
        for rule in DEFAULT_RULES:
            cfg = rule.config(base)
            assert cfg.max_iterations <= base.max_iterations

    def test_et_finalized_on_every_selection(self):
        base = DecoderConfig()  # ET "paper"
        for snr in (-10.0, 3.0, 9.0, None):
            _, cfg = DecodePolicy().select(snr, base)
            assert cfg.early_termination == SERVICE_EARLY_TERMINATION

    def test_explicit_base_et_respected(self):
        base = DecoderConfig(early_termination="none")
        _, cfg = DecodePolicy().select(9.0, base)
        assert cfg.early_termination == "none"

    def test_rule_et_override_wins(self):
        policy = DecodePolicy(
            rules=(
                PolicyRule(
                    "pinned", -math.inf, {"early_termination": "syndrome"}
                ),
            )
        )
        _, cfg = policy.select(0.0, DecoderConfig())
        assert cfg.early_termination == "syndrome"

    def test_nan_and_none_snr_skip_rules(self):
        policy = DecodePolicy()
        for snr in (None, math.nan):
            name, cfg = policy.select(snr, DecoderConfig())
            assert name is None
            assert cfg.early_termination == SERVICE_EARLY_TERMINATION


# ---------------------------------------------------------------------------
# The PR 3 re-corruption regression, pinned for good
# ---------------------------------------------------------------------------
def _recorruption_count(code, config, llr):
    """Measured converged-then-corrupted frames of one decode.

    Drives the decode one iteration at a time through the resumable
    state (uncompacted, bit-identical by Property 1/8) and records, for
    every still-live frame, whether its APP signs ever formed a true
    codeword.  A frame that did but whose final output is not a
    codeword was re-corrupted by later iterations.
    """
    decoder = LayeredDecoder(code, config.replace(compact_frames=False))
    state = decoder.begin_decode(llr)
    ever_codeword = np.zeros(llr.shape[0], dtype=bool)
    live_before = ~state.done_mask
    while not state.done:
        decoder.step(state, 1)
        bits = (state.app < 0).astype(np.uint8)
        ever_codeword |= live_before & np.asarray(code.is_codeword(bits))
        live_before = ~state.done_mask
    result = decoder.finish(state)
    return int((ever_codeword & ~result.converged).sum()), result


class TestRecorruptionRegression:
    """N=2304 WiMax, Q8.2, 3.0 dB — the README's residual, retired."""

    FRAMES = 192

    @pytest.fixture(scope="class")
    def scenario(self):
        code = get_code(WIMAX_2304)
        encoder = make_encoder(code)
        rng = np.random.default_rng(SEED)
        tx_bits, llr = _noisy_llrs(code, encoder, self.FRAMES, 3.0, rng)
        return code, tx_bits, llr

    def test_paper_rule_still_shows_the_residual(self, scenario):
        """The bug exists: paper-only ET re-corrupts codeword frames."""
        code, _, llr = scenario
        fixed_paper = DecoderConfig(
            backend="fast", qformat=QFormat(8, 2), early_termination="paper"
        )
        count, _ = _recorruption_count(code, fixed_paper, llr)
        assert count > 0  # seed 20260810 measures 3

    def test_service_default_retires_the_residual(self, scenario):
        code, tx_bits, llr = scenario
        fixed_paper = DecoderConfig(
            backend="fast", qformat=QFormat(8, 2), early_termination="paper"
        )
        cache = PlanCache(default_config=fixed_paper)
        with DecodeService(
            workers=2, max_wait=0.002, cache=cache
        ) as service:
            served_config = service.default_config
            assert (
                served_config.early_termination == SERVICE_EARLY_TERMINATION
            )
            # Config-less submits ride the upgraded default, in chunks so
            # the service actually batches.
            futures = [
                service.submit(WIMAX_2304, chunk)
                for chunk in np.array_split(llr, 4)
            ]
            served = [f.result(timeout=120) for f in futures]
        served_bits = np.concatenate([r.bits for r in served])

        # 1. Zero measured converged-then-corrupted frames.
        count, direct = _recorruption_count(code, served_config, llr)
        assert count == 0
        # 2. The served decode is the direct decode, frame for frame.
        assert np.array_equal(served_bits, direct.bits)
        # 3. Fixed-point BER equals float BER at the operating point.
        float_config = DecoderConfig(
            backend="fast", early_termination=SERVICE_EARLY_TERMINATION
        )
        float_result = LayeredDecoder(code, float_config).decode(llr)
        n_info = code.n_info
        fixed_ber = float(
            (served_bits[:, :n_info] != tx_bits).mean()
        )
        float_ber = float(
            (float_result.bits[:, :n_info] != tx_bits).mean()
        )
        assert fixed_ber == float_ber


# ---------------------------------------------------------------------------
# Policy threading through DecodeService
# ---------------------------------------------------------------------------
class TestPolicyService:
    @pytest.fixture(scope="class")
    def traffic(self):
        code = get_code(WIMAX_SMALL)
        encoder = make_encoder(code)
        rng = np.random.default_rng(SEED + 1)
        out = {}
        for label, snr in (("low", 0.0), ("mid", 3.0), ("high", 6.0)):
            out[label] = (snr, _noisy_llrs(code, encoder, 6, snr, rng)[1])
        return code, out

    def test_client_snr_routes_rules_and_metrics(self, traffic):
        code, streams = traffic
        with DecodeService(
            workers=2, max_wait=0.002, policy=DecodePolicy()
        ) as service:
            futures = {
                label: service.submit(WIMAX_SMALL, llr, snr_db=snr)
                for label, (snr, llr) in streams.items()
            }
            results = {
                label: f.result(timeout=60) for label, f in futures.items()
            }
            snap = service.metrics_snapshot()

        rules = snap["policy"]["rules"]
        assert rules["low-snr-float"]["selections"] == 1
        assert rules["mid-snr-fixed"]["selections"] == 1
        assert rules["high-snr-minsum"]["selections"] == 1
        # Each rule's config decodes exactly as a direct decoder would.
        for label, (snr, llr) in streams.items():
            _, rule_cfg = DecodePolicy().select(snr, service.default_config)
            _assert_identical(
                results[label],
                LayeredDecoder(code, rule_cfg).decode(llr),
                f"{label}-snr rule",
            )
        # Iteration accounting: executed <= the static-config budget,
        # and the savings gauge reflects it.
        assert 0 < snap["iterations_executed"] <= snap[
            "iteration_budget_total"
        ]
        assert snap["policy"]["iteration_savings_pct"] >= 0.0
        assert snap["policy"]["avg_iterations"] > 0.0

    def test_blind_estimation_matches_client_report(self, traffic):
        """Without snr_db=, the LLR magnitudes select the same rules."""
        _, streams = traffic
        with DecodeService(
            workers=2, max_wait=0.002, policy=DecodePolicy()
        ) as service:
            futures = [
                service.submit(WIMAX_SMALL, llr)
                for _, llr in streams.values()
            ]
            for f in futures:
                f.result(timeout=60)
            rules = service.metrics_snapshot()["policy"]["rules"]
        # The blind estimate lands each stream in a sensible band: the
        # 6 dB stream must not fall to the float catch-all, and the
        # 0 dB stream must not claim the high-SNR min-sum rule.
        assert sum(r["selections"] for r in rules.values()) == 3
        high = rules.get("high-snr-minsum", {"selections": 0})
        assert rules.get("low-snr-float", {"frames_total": 0})[
            "frames_total"
        ] <= 6
        assert high["selections"] >= 1

    def test_raw_payload_keeps_client_qformat(self, traffic):
        code, streams = traffic
        _, llr = streams["high"]
        client_q = QFormat(8, 2)
        raw = client_q.quantize_nonzero(llr)
        base = DecoderConfig(backend="fast", qformat=client_q)
        with DecodeService(
            workers=1, max_wait=0.002, policy=DecodePolicy()
        ) as service:
            served = service.submit(
                WIMAX_SMALL, raw, config=base, snr_db=9.0
            ).result(timeout=60)
        # The high-SNR rule fired, but its qformat override was dropped:
        # expected config = base + non-datapath overrides + ET upgrade.
        expected_cfg = base.replace(
            check_node="normalized-minsum",
            max_iterations=5,
            early_termination=SERVICE_EARLY_TERMINATION,
        )
        _assert_identical(
            served,
            LayeredDecoder(code, expected_cfg).decode(raw),
            "raw payload datapath pinning",
        )

    def test_energy_gauges_exported(self, traffic):
        _, streams = traffic
        with DecodeService(
            workers=1, max_wait=0.002, policy=DecodePolicy()
        ) as service:
            service.submit(WIMAX_SMALL, streams["mid"][1], snr_db=3.0).result(
                timeout=60
            )
            snap = service.metrics_snapshot()
            text = prometheus_text(snap)
        assert snap["energy_pj_total"] > 0.0
        assert snap["info_bits_decoded"] > 0
        assert snap["energy_per_bit_pj"] > 0.0
        for gauge in (
            "repro_energy_pj_total",
            "repro_energy_per_bit_pj",
            "repro_avg_iterations",
            "repro_policy_iteration_savings_pct",
        ):
            assert gauge in text, gauge

    def test_policy_section_absent_without_policy(self, traffic):
        _, streams = traffic
        with DecodeService(workers=1, max_wait=0.002) as service:
            service.submit(WIMAX_SMALL, streams["mid"][1]).result(timeout=60)
            snap = service.metrics_snapshot()
        assert "policy" not in snap
        assert snap["energy_pj_total"] > 0.0  # energy is always accounted
