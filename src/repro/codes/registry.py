"""Registry of every decoder mode the reconfigurable chip supports.

The paper's decoder is *dynamically reconfigurable*: a mode ROM holds the
per-code parameters (standard, rate, z, base matrix) and the control logic
re-targets the datapath at run time.  This module is the software analogue
of that ROM: a catalogue of all supported modes with lazy construction and
caching of the expanded codes.

Mode naming convention: ``"<standard>:<rate>:z<z>"`` — e.g.
``"802.16e:1/2:z96"``, ``"802.11n:5/6:z27"``, ``"DMB-T:0.6:z127"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.codes.base_matrix import BaseMatrix
from repro.codes.dmbt import DMBT_Z, dmbt_base_matrix, dmbt_rates
from repro.codes.nr import (
    NR_BG_PARAMS,
    NR_LIFTING_SIZES,
    nr_base_matrix,
    nr_rates,
    parse_nr_mode,
)
from repro.codes.qc import QCLDPCCode
from repro.codes.wifi import WIFI_Z_VALUES, wifi_base_matrix, wifi_rates
from repro.codes.wimax import WIMAX_Z_VALUES, wimax_base_matrix, wimax_rates
from repro.errors import UnknownCodeError


@dataclass(frozen=True)
class ModeDescriptor:
    """One decoder mode (one row of the mode ROM).

    Attributes
    ----------
    mode:
        Canonical mode string (also the registry key).
    standard:
        ``"802.11n"``, ``"802.16e"`` or ``"DMB-T"``.
    rate:
        Rate label as used by the standard (``"1/2"``, ``"2/3A"``, ...).
    z:
        Expansion factor.
    n:
        Codeword length in bits.
    """

    mode: str
    standard: str
    rate: str
    z: int
    n: int


def _build_catalogue() -> dict[str, ModeDescriptor]:
    catalogue: dict[str, ModeDescriptor] = {}
    for rate in wifi_rates():
        for z in WIFI_Z_VALUES:
            mode = f"802.11n:{rate}:z{z}"
            catalogue[mode] = ModeDescriptor(mode, "802.11n", rate, z, 24 * z)
    for rate in wimax_rates():
        for z in WIMAX_Z_VALUES:
            mode = f"802.16e:{rate}:z{z}"
            catalogue[mode] = ModeDescriptor(mode, "802.16e", rate, z, 24 * z)
    for rate in dmbt_rates():
        mode = f"DMB-T:{rate}:z{DMBT_Z}"
        catalogue[mode] = ModeDescriptor(mode, "DMB-T", rate, DMBT_Z, 59 * DMBT_Z)
    for bg_label in nr_rates():
        bg = int(bg_label[2])
        _, k, _ = NR_BG_PARAMS[bg]
        for z in NR_LIFTING_SIZES:
            mode = f"NR:{bg_label}:z{z}"
            catalogue[mode] = ModeDescriptor(mode, "NR", bg_label, z, k * z)
    return catalogue


_CATALOGUE = _build_catalogue()


def list_modes(standard: str | None = None) -> list[ModeDescriptor]:
    """All supported modes, optionally filtered by standard."""
    modes = list(_CATALOGUE.values())
    if standard is not None:
        modes = [m for m in modes if m.standard == standard]
    return modes


def describe_mode(mode: str) -> ModeDescriptor:
    """Descriptor for a canonical mode string.

    Raises
    ------
    ModeParseError
        For malformed ``"NR:..."`` mode strings — the message names the
        valid base graphs / 38.212 lifting sizes.
    UnknownCodeError
        If the mode is not in the catalogue.
    """
    try:
        return _CATALOGUE[mode]
    except KeyError:
        if mode.split(":", 1)[0] == "NR":
            # Diagnoses the failure with a typed ModeParseError naming
            # the valid parameters (registry hygiene for the NR family).
            parse_nr_mode(mode)
        raise UnknownCodeError(
            f"unknown mode {mode!r}; see repro.codes.list_modes()"
        ) from None


@lru_cache(maxsize=None)
def get_code(mode: str) -> QCLDPCCode:
    """Build (and cache) the expanded code for a mode string.

    The cache is unbounded and thread-safe (``lru_cache`` locks
    internally): the catalogue is finite (~100 modes) and a serving
    process cycling through more than 64 of them used to thrash the old
    bounded cache, re-expanding codes mid-traffic.  Expanded codes are
    immutable, so sharing them across decoders, sweep workers and the
    decode service is free; per-(mode, config) decoder state lives in
    :class:`~repro.service.PlanCache`, which has its own (bounded) LRU.

    Examples
    --------
    >>> code = get_code("802.16e:1/2:z96")
    >>> (code.n, code.n_info)
    (2304, 1152)
    """
    return QCLDPCCode(base_matrix(mode))


def base_matrix(mode: str) -> BaseMatrix:
    """The unexpanded base matrix of a mode string (not cached here)."""
    descriptor = describe_mode(mode)
    if descriptor.standard == "802.11n":
        return wifi_base_matrix(descriptor.rate, descriptor.z)
    if descriptor.standard == "802.16e":
        return wimax_base_matrix(descriptor.rate, descriptor.z)
    if descriptor.standard == "NR":
        return nr_base_matrix(int(descriptor.rate[2]), descriptor.z)
    return dmbt_base_matrix(descriptor.rate)


def code_cache_info() -> dict:
    """Hit/miss statistics of the expanded-code cache.

    Exposed for service observability: together with
    ``PlanCache.stats()`` this shows whether a mode-switch cost was a
    registry build (code expansion), a plan/ROM compile, or a pure
    cache hit (the chip-equivalent control-register update).
    """
    info = get_code.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "size": info.currsize,
        "catalogue": len(_CATALOGUE),
    }


def standards_summary() -> list[dict]:
    """Paper Table 1: the design-parameter ranges per standard.

    Returns one dict per standard with the j/k/z ranges actually present
    in the catalogue.
    """
    summary = []
    for standard in ("802.11n", "802.16e", "DMB-T", "NR"):
        modes = list_modes(standard)
        js: set[int] = set()
        ks: set[int] = set()
        zs: set[int] = set()
        if standard == "NR":
            # j/k are fixed per base graph; reading them off the static
            # parameters avoids expanding all 102 NR codes here.
            for j, k, _ in NR_BG_PARAMS.values():
                js.add(j)
                ks.add(k)
            zs.update(NR_LIFTING_SIZES)
        else:
            for descriptor in modes:
                code = get_code(descriptor.mode)
                js.add(code.base.j)
                ks.add(code.base.k)
                zs.add(code.z)
        summary.append(
            {
                "standard": standard,
                "j_min": min(js),
                "j_max": max(js),
                "k": max(ks),
                "z_min": min(zs),
                "z_max": max(zs),
                "num_modes": len(modes),
            }
        )
    return summary
