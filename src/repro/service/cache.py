"""LRU cache of compiled decode state — the software mode ROM.

The chip switches standards by reading one mode-ROM record into its
control registers; nothing about the datapath is rebuilt.  The software
equivalent of a ROM record is everything a decode must not recompute
per call: the compiled :class:`~repro.decoder.plan.DecodePlan` (gather/
scatter tables), the backend's fixed-point ⊞/⊟ ROMs and correction
LUTs, and the decoder object binding them together.  :class:`PlanCache`
keeps those records in an LRU keyed by ``(mode,
DecoderConfig.cache_key())`` so a *mode switch is a cache hit* — the
serving analogue of the paper's control-register update.

Entries are safe to share across worker threads: compiled plan tables
and backend ROMs are immutable after construction, and every mutable
working buffer is thread-local (see :meth:`DecodePlan.scratch`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.codes.qc import QCLDPCCode
from repro.codes.registry import get_code
from repro.decoder.api import DecoderConfig
from repro.decoder.layered import LayeredDecoder
from repro.decoder.plan import DecodePlan


@dataclass
class CacheEntry:
    """One cached mode record: code + plan + ready-to-run decoder."""

    mode: str
    config: DecoderConfig
    code: QCLDPCCode
    plan: DecodePlan
    decoder: LayeredDecoder
    uses: int = field(default=0)


class PlanCache:
    """LRU over compiled decode plans + fixed-point ROM tables.

    Parameters
    ----------
    maxsize:
        Entry budget.  Exceeding it evicts the least recently used
        record (eviction only costs the rebuild on the next miss —
        correctness is unaffected, which
        ``tests/test_backend_properties.py`` pins).
    default_config:
        Config assumed when :meth:`get`/:meth:`warm` are called without
        one.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan`: at scripted
        lookup indices the least-recently-used entry is dropped before
        the lookup proceeds (``cache_drop`` site) — a mid-flight
        eviction, which by this cache's own contract must only ever
        cost a rebuild, never a wrong decode.  Chaos tests pin that.

    Keys accept either a registry mode string (``"802.16e:1/2:z96"``)
    or an already-expanded :class:`~repro.codes.qc.QCLDPCCode`, keyed as
    ``"code:<name>@<object id>"`` — useful for synthetic codes in
    tests.  Code objects are keyed by *identity*, not name: synthetic
    codes default to ``name="unnamed"``, and serving a cached decoder
    of a different code with the same name would decode against the
    wrong parity structure.  Distinct-but-equal code objects therefore
    occupy distinct entries (a duplicate build, never a wrong decode);
    registry mode strings are the deduplicated path.
    """

    def __init__(
        self,
        maxsize: int = 32,
        default_config: DecoderConfig | None = None,
        faults=None,
    ):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self.default_config = (
            default_config if default_config is not None else DecoderConfig()
        )
        self._faults = faults
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    @staticmethod
    def mode_key(mode: "str | QCLDPCCode") -> str:
        if isinstance(mode, str):
            return mode
        return f"code:{mode.name}@{id(mode):x}"

    def key(self, mode: "str | QCLDPCCode", config: DecoderConfig) -> tuple:
        return (self.mode_key(mode), config.cache_key())

    # ------------------------------------------------------------------
    # Lookup / build
    # ------------------------------------------------------------------
    def get(
        self,
        mode: "str | QCLDPCCode",
        config: DecoderConfig | None = None,
    ) -> CacheEntry:
        """The cached record for ``(mode, config)``, building on miss.

        Raises
        ------
        UnknownCodeError
            For a mode string the registry does not know.
        """
        config = config if config is not None else self.default_config
        key = self.key(mode, config)
        if self._faults is not None and self._faults.on_cache_get():
            self.drop_oldest()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                entry.uses += 1
                self._entries.move_to_end(key)
                return entry
            self.misses += 1
        # Build outside the lock: expanding a code and compiling ROM
        # tables can take milliseconds, and concurrent misses on
        # *different* keys should not serialize.  A racing duplicate
        # build of the same key is benign (last writer wins; both
        # records decode identically).
        entry = self._build(mode, config)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def _build(self, mode: "str | QCLDPCCode", config: DecoderConfig) -> CacheEntry:
        code = get_code(mode) if isinstance(mode, str) else mode
        plan = DecodePlan(code, config.layer_order)
        return CacheEntry(
            mode=self.mode_key(mode),
            config=config,
            code=code,
            plan=plan,
            decoder=LayeredDecoder(code, config, plan=plan),
        )

    def warm(
        self,
        modes,
        configs=None,
    ) -> int:
        """Eagerly build records so first requests hit the cache.

        Parameters
        ----------
        modes:
            An iterable of registry mode strings / codes, or a
            :class:`~repro.arch.mode_rom.ModeROM` whose loaded modes are
            warmed (the chip analogue: the ROM's record set *is* the
            service's working set).
        configs:
            Configs to warm each mode with (default: the cache's
            ``default_config`` only).

        Returns the number of records built.  Warming more than
        ``maxsize`` records is allowed but pointless (the oldest warm
        entries evict immediately); the count still reflects builds.
        """
        loaded = getattr(modes, "loaded_modes", None)
        if loaded is not None:
            modes = loaded
        if configs is None:
            configs = (self.default_config,)
        built = 0
        for mode in modes:
            for config in configs:
                before = self.misses
                self.get(mode, config)
                built += self.misses - before
        return built

    def drop_oldest(self) -> bool:
        """Evict the least-recently-used entry (fault injection / tests).

        Correctness-neutral by construction: an evicted record rebuilds
        on the next miss and decodes bit-identically (pinned by the
        property harness).  Returns False on an empty cache.
        """
        with self._lock:
            if not self._entries:
                return False
            self._entries.popitem(last=False)
            self.evictions += 1
            return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict:
        """Hit/miss/eviction counters plus current occupancy."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
