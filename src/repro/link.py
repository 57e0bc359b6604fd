"""One-call ``Link`` sessions — the unified front door of the library.

The chip's defining feature is *single-knob reconfiguration*: one
mode-ROM register update retargets the whole datapath.  The software
equivalent is :func:`repro.open`: one call names a registry mode (and
optionally a :class:`~repro.decoder.DecoderConfig` and an Eb/N0
operating point) and returns a :class:`Link` session that owns the full
chain — lazily built encoder, modulator/AWGN frontend, and the compiled
:class:`~repro.decoder.plan.DecodePlan` + decoder pulled through a
shared process-level :class:`~repro.service.PlanCache` — so opening the
same ``(mode, config)`` twice compiles nothing twice::

    import repro

    link = repro.open("802.16e:1/2:z96", ebn0=2.0)
    outcome = link.run_frames(100)          # TX -> AWGN -> decode
    print(outcome.ber, outcome.result.average_iterations)

Everything else the library can do hangs off the same session:

- :meth:`Link.encode` / :meth:`Link.transmit` / :meth:`Link.decode` —
  the individual chain stages;
- :meth:`Link.run_frames` — end-to-end Monte-Carlo frames, returning a
  :class:`LinkResult` that bundles the decode output with the channel
  truth and BER/FER;
- :meth:`Link.sweep` — BER/FER waterfalls through the one and only
  sweep engine (:class:`~repro.runtime.SweepEngine`: deterministic
  chunk streams, process-pool ``workers``, JSON ``checkpoint`` resume);
- :meth:`Link.submit` / :meth:`Link.serve` — the session as a client of
  the dynamic-batching :class:`~repro.service.DecodeService`;
- :meth:`Link.chip` / :meth:`Link.power` — the cycle-accurate
  architecture model and the calibrated power model configured for the
  same mode.

:func:`open_all` opens several modes at once, all sharing one plan
cache — the software picture of the chip's resident mode ROM.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.arch.chip import DecoderChip
from repro.arch.datapath import DMBT_CHIP, PAPER_CHIP, DatapathParams
from repro.channel.fading import CHANNELS, make_channel
from repro.channel.llr import ChannelFrontend
from repro.channel.modulation import BPSKModulator
from repro.codes.qc import QCLDPCCode
from repro.codes.registry import describe_mode, get_code
from repro.decoder.api import DecodeResult, DecoderConfig
from repro.decoder.flooding import FloodingDecoder
from repro.decoder.plan import DecodePlan
from repro.encoder import make_encoder
from repro.errors import LinkError
from repro.power.model import PowerModel
from repro.runtime.engine import SweepEngine
from repro.service.cache import PlanCache
from repro.service.policy import service_default_config
from repro.service.service import DecodeService
from repro.utils.rng import make_rng

#: Decode schedules a Link can drive.
LINK_SCHEDULES = ("layered", "flooding")

# ---------------------------------------------------------------------------
# The shared process-level plan cache
# ---------------------------------------------------------------------------
_DEFAULT_CACHE_LOCK = threading.Lock()
_default_cache: PlanCache | None = None


def default_plan_cache() -> PlanCache:
    """The process-level :class:`~repro.service.PlanCache` Links share.

    Created lazily on first use; every :func:`repro.open` call without
    an explicit ``cache`` pulls its compiled plan, fixed-point ROM
    tables and decoder from here, so sessions over the same ``(mode,
    config)`` pair — however many are opened — compile exactly once per
    process.
    """
    global _default_cache
    with _DEFAULT_CACHE_LOCK:
        if _default_cache is None:
            _default_cache = PlanCache(maxsize=64)
        return _default_cache


def reset_default_plan_cache() -> PlanCache:
    """Drop and rebuild the shared cache (test isolation hook)."""
    global _default_cache
    with _DEFAULT_CACHE_LOCK:
        _default_cache = PlanCache(maxsize=64)
        return _default_cache


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
@dataclass
class LinkResult:
    """End-to-end outcome of :meth:`Link.run_frames`.

    Bundles the decoder's :class:`~repro.decoder.DecodeResult` with the
    channel truth it was measured against, so BER/FER need no separate
    bookkeeping.

    Attributes
    ----------
    ebn0_db:
        Operating point the frames were transmitted at.
    info:
        ``(B, K)`` true information bits.
    codewords:
        ``(B, N)`` transmitted codewords.
    channel_llr:
        ``(B, N)`` LLRs as fed to the decoder (quantized integers for a
        fixed-point config).
    result:
        The decoder's batch output.
    """

    ebn0_db: float
    info: np.ndarray
    codewords: np.ndarray
    channel_llr: np.ndarray
    result: DecodeResult

    @property
    def batch_size(self) -> int:
        return self.result.batch_size

    @property
    def bit_errors(self) -> int:
        """Info-bit errors against the transmitted truth."""
        return self.result.bit_errors(self.info)

    @property
    def frame_errors(self) -> int:
        """Frames with at least one info-bit error."""
        return self.result.frame_errors(self.info)

    @property
    def ber(self) -> float:
        return self.bit_errors / self.info.size if self.info.size else 0.0

    @property
    def fer(self) -> float:
        frames = self.batch_size
        return self.frame_errors / frames if frames else 0.0


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------
class Link:
    """One reconfiguration knob's worth of the library: a ``(mode,
    config)`` session over codes, channel, decoder, sweeps and serving.

    Construct through :func:`repro.open` / :func:`repro.open_all`.
    Everything is lazy: opening a Link validates the mode and nothing
    else; the code, encoder and compiled decoder materialize on first
    use and are shared through the process-level plan cache.

    Parameters
    ----------
    mode:
        Registry mode string (``"802.16e:1/2:z96"``) or an expanded
        :class:`~repro.codes.qc.QCLDPCCode`.
    config:
        Decoder settings (paper defaults if omitted).
    ebn0:
        Default Eb/N0 operating point (dB) for :meth:`transmit` /
        :meth:`run_frames`; calls may override per invocation.
    schedule:
        ``"layered"`` (default) or ``"flooding"``.  Layered decoders
        come from the shared :class:`~repro.service.PlanCache`;
        flooding decoders are built per session (the cache is the
        serving path, which is layered-only).
    seed:
        Seed of the session RNG used when a call does not pass its own
        generator.  Encoding and channel noise draw from *one* stream in
        chain order, exactly like the pre-Link hand-assembled harnesses,
        so a Link run is bit-identical to the manual chain under the
        same generator.
    modulator:
        Defaults to BPSK (the paper's setting).
    channel:
        Channel model: ``"awgn"`` (default) or ``"rayleigh"`` (block
        fading, see :class:`~repro.channel.fading.RayleighBlockFadingChannel`).
        Drives :meth:`frontend` / :meth:`transmit` / :meth:`run_frames`
        and :meth:`sweep`.
    cache:
        Plan cache to pull compiled state from (default: the shared
        process-level cache).
    """

    def __init__(
        self,
        mode: "str | QCLDPCCode",
        config: DecoderConfig | None = None,
        *,
        ebn0: float | None = None,
        schedule: str = "layered",
        seed: int = 0,
        modulator=None,
        channel: str = "awgn",
        cache: PlanCache | None = None,
    ):
        if schedule not in LINK_SCHEDULES:
            raise LinkError(
                f"unknown schedule {schedule!r}; valid: {LINK_SCHEDULES}"
            )
        if channel not in CHANNELS:
            raise LinkError(
                f"unknown channel {channel!r}; valid: {tuple(CHANNELS)}"
            )
        if isinstance(mode, str):
            describe_mode(mode)  # fail fast on unknown modes
        self.mode = mode
        #: True when the caller never chose a config: the serving path
        #: may then upgrade its early-termination rule (see
        #: :attr:`serving_config`); analysis paths always use
        #: :attr:`config` verbatim.
        self._config_defaulted = config is None
        self.config = config if config is not None else DecoderConfig()
        self.ebn0_db = None if ebn0 is None else float(ebn0)
        self.schedule = schedule
        self.seed = seed
        self.modulator = modulator if modulator is not None else BPSKModulator()
        self.channel = channel
        self.cache = cache if cache is not None else default_plan_cache()
        self._code: QCLDPCCode | None = None
        self._decoder = None
        self._plan: DecodePlan | None = None
        self._rng: np.random.Generator | None = None
        self._service: DecodeService | None = None
        # Guards the lazy builders: concurrent first use (the natural
        # multi-client serving pattern) must not double-build a
        # DecodeService — the loser's dispatcher/worker threads would
        # leak with no handle left to close them.
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        name = self.mode if isinstance(self.mode, str) else self.mode.name
        datapath = "fixed" if self.config.is_fixed_point else "float"
        return (
            f"Link({name!r}, schedule={self.schedule!r}, "
            f"datapath={datapath}, config={self.config.stable_hash()})"
        )

    # ------------------------------------------------------------------
    # Lazily-built chain stages
    # ------------------------------------------------------------------
    @property
    def code(self) -> QCLDPCCode:
        """The expanded code (registry-cached for mode strings)."""
        if self._code is None:
            self._code = (
                get_code(self.mode) if isinstance(self.mode, str) else self.mode
            )
        return self._code

    @property
    def encoder(self):
        """The mode's encoder (process-cached, see :func:`make_encoder`)."""
        return make_encoder(self.code)

    @property
    def decoder(self):
        """The ready decoder, pulled through the shared plan cache."""
        if self._decoder is None:
            with self._lock:
                if self._decoder is None:
                    if self.schedule == "layered":
                        entry = self.cache.get(self.mode, self.config)
                        self._plan = entry.plan
                        self._decoder = entry.decoder
                    else:
                        flooding = FloodingDecoder(self.code, self.config)
                        self._plan = flooding.plan
                        self._decoder = flooding
        return self._decoder

    @property
    def plan(self) -> DecodePlan:
        """The compiled decode plan behind :attr:`decoder`."""
        self.decoder
        return self._plan

    @property
    def rng(self) -> np.random.Generator:
        """The session RNG (created from ``seed`` on first use).

        A single stream: concurrent callers should pass their own
        generators (``rng=`` on the chain methods) — numpy Generators
        are not thread-safe to share.
        """
        if self._rng is None:
            with self._lock:
                if self._rng is None:
                    self._rng = np.random.default_rng(self.seed)
        return self._rng

    def _resolve_rng(self, rng) -> np.random.Generator:
        return self.rng if rng is None else make_rng(rng)

    def _resolve_ebn0(self, ebn0: float | None) -> float:
        if ebn0 is not None:
            return float(ebn0)
        if self.ebn0_db is None:
            raise LinkError(
                "no Eb/N0 operating point: open the link with ebn0=... or "
                "pass ebn0= to the call"
            )
        return self.ebn0_db

    def frontend(
        self,
        ebn0: float | None = None,
        rng=None,
        quantized: bool | None = None,
    ) -> ChannelFrontend:
        """A modulator/channel frontend at one operating point.

        The channel model follows the link's ``channel`` setting (AWGN
        by default, Rayleigh block fading with ``channel="rayleigh"``).
        By default (``quantized=None``) the frontend quantizes into the
        config's fixed-point format when one is set, so the produced
        LLRs are exactly what :meth:`decode` expects as raw integers.
        ``quantized=False`` keeps float LLR units even for a
        fixed-point config (the decoders quantize at their input port
        either way — bit-identically — but the cycle-accurate chip
        model expects the float form).
        """
        if quantized is None:
            quantized = self.config.is_fixed_point
        channel = make_channel(
            self.channel,
            self._resolve_ebn0(ebn0),
            self.code.rate,
            self.modulator.bits_per_symbol,
            rng=self._resolve_rng(rng),
        )
        return ChannelFrontend(
            self.modulator,
            channel,
            qformat=self.config.qformat if quantized else None,
        )

    # ------------------------------------------------------------------
    # Chain stages
    # ------------------------------------------------------------------
    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        """Encode ``(K,)`` or ``(B, K)`` information bits."""
        return self.encoder.encode(info_bits)

    def random_codewords(self, frames: int, rng=None):
        """Draw ``frames`` random info words and encode them."""
        return self.encoder.random_codewords(frames, self._resolve_rng(rng))

    def transmit(
        self,
        codewords: np.ndarray,
        ebn0: float | None = None,
        rng=None,
        quantized: bool | None = None,
    ) -> np.ndarray:
        """Modulate, add AWGN, and form decoder-ready channel LLRs."""
        return self.frontend(ebn0, rng=rng, quantized=quantized).run(codewords)

    def decode(self, channel_llr: np.ndarray) -> DecodeResult:
        """Decode ``(N,)`` or ``(B, N)`` channel LLRs."""
        return self.decoder.decode(channel_llr)

    def channel_frames(
        self,
        frames: int,
        ebn0: float | None = None,
        rng=None,
        quantized: bool | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Generate ``(info, codewords, channel_llr)`` traffic.

        One generator drives encoding then channel noise, in that order
        — the exact stream discipline of the hand-assembled harnesses,
        which is what makes Link runs bit-reproducible against them.
        """
        rng = self._resolve_rng(rng)
        info, codewords = self.encoder.random_codewords(frames, rng)
        llr = self.transmit(codewords, ebn0, rng=rng, quantized=quantized)
        return info, codewords, llr

    def run_frames(
        self, frames: int, ebn0: float | None = None, rng=None
    ) -> LinkResult:
        """End-to-end TX -> AWGN -> decode of ``frames`` random frames."""
        ebn0_db = self._resolve_ebn0(ebn0)
        info, codewords, llr = self.channel_frames(frames, ebn0_db, rng)
        return LinkResult(
            ebn0_db=ebn0_db,
            info=info,
            codewords=codewords,
            channel_llr=llr,
            result=self.decode(llr),
        )

    # ------------------------------------------------------------------
    # Sweeps — the one sweep engine
    # ------------------------------------------------------------------
    def engine(
        self,
        workers: int = 0,
        checkpoint=None,
        chunk_frames: int | None = None,
        force_parallel: bool = False,
    ) -> SweepEngine:
        """A :class:`~repro.runtime.SweepEngine` for this session.

        Serial engines reuse the link's cached decoder and encoder;
        process-pool workers build and cache their own (see
        :mod:`repro.runtime.engine`), so a parallel engine gets only
        what this session has already built — compiling a decoder the
        parent process would never run is pure startup latency.
        ``force_parallel=True`` bypasses the engine's executor verdict
        (:func:`~repro.runtime.engine.executor_verdict`).
        """
        serial = workers < 2 and not force_parallel
        return SweepEngine(
            self.code,
            self.config,
            schedule=self.schedule,
            modulator=self.modulator,
            channel=self.channel,
            seed=self.seed,
            workers=workers,
            chunk_frames=chunk_frames,
            checkpoint_path=checkpoint,
            force_parallel=force_parallel,
            decoder=self.decoder if serial else self._decoder,
            encoder=self.encoder if serial else None,
        )

    def sweep(
        self,
        ebn0_grid,
        max_frames: int = 1000,
        min_frame_errors: int = 50,
        batch_size: int = 100,
        workers: int = 0,
        checkpoint=None,
        force_parallel: bool = False,
    ):
        """Monte-Carlo BER/FER sweep over an Eb/N0 grid.

        Delegates to the unified :class:`~repro.runtime.SweepEngine`:
        deterministic per-chunk RNG streams (independent of sweep order
        and worker count), the shared process pool behind the engine's
        executor verdict (``workers >= 2`` is a ceiling, not a command;
        ``force_parallel=True`` bypasses the verdict) and JSON
        ``checkpoint`` resume.  Returns one
        :class:`~repro.analysis.ber.SnrPoint` per grid value.
        """
        return self.engine(
            workers=workers,
            checkpoint=checkpoint,
            force_parallel=force_parallel,
        ).run(
            [float(ebn0) for ebn0 in ebn0_grid],
            max_frames=max_frames,
            min_frame_errors=min_frame_errors,
            batch_size=batch_size,
        )

    # ------------------------------------------------------------------
    # Serving — the session as a DecodeService client
    # ------------------------------------------------------------------
    @property
    def serving_config(self) -> DecoderConfig:
        """The config the serving path decodes with.

        Identical to :attr:`config`, except that a *defaulted* config
        (the link was built without one) gets the service-tier
        early-termination upgrade ``"paper"`` → ``"paper-or-syndrome"``
        (the PR 3 re-corruption fix; see
        :func:`repro.service.service_default_config`).  Direct
        :meth:`decode` / :meth:`run_frames` / :meth:`sweep` analysis
        stays on :attr:`config`, paper-faithful.
        """
        if self._config_defaulted:
            return service_default_config(self.config)
        return self.config

    def serve(self, **service_kwargs) -> DecodeService:
        """The session's :class:`~repro.service.DecodeService`.

        Created on first call (keyword arguments are forwarded to the
        service constructor; later calls return the existing service and
        reject changed settings), bound to the link's plan cache and
        warmed with the link's ``(mode, config)`` so the first request
        is already a cache hit.  Closed by :meth:`close` — and a service
        closed externally (e.g. by its own context manager) is dropped
        here, so the next call builds a fresh one instead of handing
        back a dead service.

        The hardening knobs pass straight through: e.g.
        ``link.serve(queue_limit=256, overload_policy="block",
        default_timeout=0.5, retry=RetryPolicy(), hang_timeout=2.0)``
        yields a service with bounded admission, per-request deadlines
        and supervised workers — see :class:`DecodeService`.
        """
        with self._lock:
            if self._service is not None and self._service.closed:
                self._service = None
            if self._service is not None:
                if service_kwargs:
                    raise LinkError(
                        "serve() was already called; the running service "
                        "cannot be reconfigured — close() the link first"
                    )
                return self._service
            service_kwargs.setdefault("cache", self.cache)
            service_kwargs.setdefault("default_config", self.serving_config)
            service = self._service = DecodeService(**service_kwargs)
        # Warm the cache the service actually reads (a caller may have
        # overridden cache=), so its first request is a hit.  Outside
        # the lock: warming compiles plans, and a racing submit during
        # the warm-up is merely a cold miss, never a wrong decode.
        service.cache.warm([self.mode], (self.serving_config,))
        return service

    def submit(
        self,
        llr: np.ndarray,
        client: str = "default",
        service=None,
        timeout: "float | None" = None,
        snr_db: "float | None" = None,
    ):
        """Queue LLR frames on the decode service; returns a Future.

        Uses the link's own service (creating it with defaults if
        needed) unless an explicit ``service`` is passed — the way
        several Links across modes share one dynamic-batching service,
        as mixed-standard traffic should.  ``timeout`` is the
        per-request deadline forwarded to
        :meth:`DecodeService.submit`: the future resolves by then, with
        the result or :class:`~repro.errors.DeadlineExceeded`.
        ``snr_db`` is the operating-SNR estimate forwarded to the
        service's decode policy (ignored without one).  Decodes with
        :attr:`serving_config` — the link's config, with the
        service-tier early-termination upgrade when it was defaulted.
        """
        target = service if service is not None else self.serve()
        return target.submit(
            self.mode,
            llr,
            config=self.serving_config,
            client=client,
            timeout=timeout,
            snr_db=snr_db,
        )

    # ------------------------------------------------------------------
    # NR rate matching + IR-HARQ
    # ------------------------------------------------------------------
    def harq(self, n_filler: int = 0):
        """A local :class:`~repro.nr.HarqSession` for this NR session.

        The session combines rate-matched soft bits across redundancy
        versions and re-decodes with the link's own (plan-cached)
        decoder and config — the in-process face of the same workload
        :meth:`harq_manager` runs through a service.  Only meaningful
        for ``"NR:..."`` modes (other standards have no 2Z systematic
        puncture; :class:`~repro.errors.RateMatchError` otherwise).
        """
        from repro.nr.harq import HarqSession

        return HarqSession(
            self.code, self.config, n_filler=n_filler, decoder=self.decoder
        )

    def harq_manager(self, n_filler: int = 0, service=None):
        """IR-HARQ over the serving tier: a :class:`~repro.nr.HarqManager`.

        Sessions are keyed ``(client, harq process id)``; every
        :meth:`~repro.nr.HarqManager.submit` soft-combines one
        retransmission and queues a decode of the combined buffer on
        the link's service (created with defaults if needed) with an
        explicit masked SNR estimate for the decode policy.  Decodes
        with :attr:`serving_config`, like :meth:`submit`.
        """
        from repro.nr.harq import HarqManager

        target = service if service is not None else self.serve()
        return HarqManager(
            target, self.mode, config=self.serving_config, n_filler=n_filler
        )

    # ------------------------------------------------------------------
    # Architecture + power, same mode
    # ------------------------------------------------------------------
    def datapath_params(self) -> DatapathParams:
        """The chip datapath that supports this mode (paper chip, or the
        DMB-T-capable variant when the code exceeds z_max=96/k_max=24)."""
        if PAPER_CHIP.supports_code(self.code):
            return PAPER_CHIP
        return DMBT_CHIP

    def chip(self, params: DatapathParams | None = None, **chip_kwargs) -> DecoderChip:
        """A cycle-accurate :class:`~repro.arch.DecoderChip`, configured.

        The chip arrives already :meth:`~repro.arch.DecoderChip.configure`-d
        for the link's mode; its check-node organization and SISO guard
        bits follow the link config so chip decodes are comparable to
        :meth:`decode` on the fixed-point datapath.
        """
        if params is None:
            params = self.datapath_params()
        chip_kwargs.setdefault("checknode", self.config.bp_impl)
        chip_kwargs.setdefault("siso_guard_bits", self.config.siso_guard_bits)
        if self.config.is_fixed_point:
            chip_kwargs.setdefault("frac_bits", self.config.qformat.frac_bits)
        chip = DecoderChip(params, **chip_kwargs)
        chip.configure(self.mode)
        return chip

    def power(self, params: DatapathParams | None = None) -> PowerModel:
        """The calibrated power model on the same datapath as :meth:`chip`.

        Pass ``active_lanes=link.code.z`` to the model's methods for the
        mode's bank-gated operating point (Fig. 9b).
        """
        return PowerModel(params if params is not None else self.datapath_params())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain and shut down the session's service, if one was created.

        Cached plans and decoders stay resident (they belong to the
        shared cache, not the session); a closed link can keep decoding
        and open a fresh service later.
        """
        with self._lock:
            service, self._service = self._service, None
        if service is not None:
            service.close()

    def __enter__(self) -> "Link":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Entry points (exported as repro.open / repro.open_all)
# ---------------------------------------------------------------------------
def open_link(
    mode: "str | QCLDPCCode",
    config: DecoderConfig | None = None,
    *,
    ebn0: float | None = None,
    schedule: str = "layered",
    seed: int = 0,
    modulator=None,
    channel: str = "awgn",
    cache: PlanCache | None = None,
) -> Link:
    """Open a :class:`Link` session for one ``(mode, config)`` pair.

    The one-call entry point of the library (exported as
    ``repro.open``)::

        link = repro.open("802.16e:1/2:z96", ebn0=2.0)
        print(link.run_frames(100).ber)

    See :class:`Link` for the parameters.
    """
    return Link(
        mode,
        config,
        ebn0=ebn0,
        schedule=schedule,
        seed=seed,
        modulator=modulator,
        channel=channel,
        cache=cache,
    )


def open_all(
    modes,
    config: DecoderConfig | None = None,
    *,
    ebn0: float | None = None,
    schedule: str = "layered",
    seed: int = 0,
    modulator=None,
    channel: str = "awgn",
    cache: PlanCache | None = None,
) -> "dict[str, Link]":
    """Open one :class:`Link` per mode, all sharing a plan cache.

    ``modes`` is an iterable of registry mode strings / code objects, or
    a :class:`~repro.arch.mode_rom.ModeROM` (its loaded modes are
    opened).  Returns a dict keyed by the mode strings (code objects key
    by their ``name``), in input order — the software picture of the
    chip's resident mode-ROM record set.  For mixed-standard serving,
    create one service and submit through each link::

        links = repro.open_all(["802.16e:1/2:z96", "802.11n:1/2:z27"])
        with next(iter(links.values())).serve(max_batch=16) as service:
            for mode, link in links.items():
                link.submit(llr[mode], client=mode, service=service)
    """
    loaded = getattr(modes, "loaded_modes", None)
    if loaded is not None:
        modes = loaded
    links: dict[str, Link] = {}
    shared = cache if cache is not None else default_plan_cache()
    for mode in modes:
        key = mode if isinstance(mode, str) else mode.name
        if key in links:
            # Distinct code objects may share a name (synthetic codes
            # default to one); silently overwriting would decode half
            # the caller's codes against the wrong session.
            raise LinkError(
                f"duplicate mode key {key!r} in open_all: rename the "
                "code objects (BaseMatrix name) or open them "
                "individually with repro.open"
            )
        links[key] = Link(
            mode,
            config,
            ebn0=ebn0,
            schedule=schedule,
            seed=seed,
            modulator=modulator,
            channel=channel,
            cache=shared,
        )
    return links


__all__ = [
    "LINK_SCHEDULES",
    "Link",
    "LinkResult",
    "default_plan_cache",
    "open_all",
    "open_link",
    "reset_default_plan_cache",
]
