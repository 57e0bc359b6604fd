"""Block-structured (quasi-cyclic) LDPC codes for 4G-era standards.

Public surface:

- :class:`BaseMatrix`, :class:`QCLDPCCode` — prototype and expanded codes;
- :func:`get_code`, :func:`list_modes`, :func:`describe_mode` — the mode
  registry (the software analogue of the chip's mode ROM);
- per-standard constructors (:func:`wifi_base_matrix`,
  :func:`wimax_base_matrix`, :func:`dmbt_base_matrix`,
  :func:`nr_base_matrix`);
- :func:`build_qc_base_matrix` — the synthetic 4-cycle-free constructor;
- :func:`validate_code` — structural validation.
"""

from repro.codes.base_matrix import ZERO_BLOCK, BaseMatrix, BlockEntry
from repro.codes.construction import build_qc_base_matrix, count_base_four_cycles
from repro.codes.dmbt import dmbt_base_matrix, dmbt_block_length, dmbt_rates
from repro.codes.nr import (
    NR_LIFTING_SIZES,
    nr_base_matrix,
    nr_lifting_sizes,
    nr_mode,
    nr_rates,
    parse_nr_mode,
)
from repro.codes.qc import QCLDPCCode
from repro.codes.registry import (
    ModeDescriptor,
    code_cache_info,
    describe_mode,
    get_code,
    list_modes,
    standards_summary,
)
from repro.codes.validation import ValidationReport, validate_code
from repro.codes.wifi import WIFI_Z_VALUES, wifi_base_matrix, wifi_rates
from repro.codes.wimax import WIMAX_Z_VALUES, wimax_base_matrix, wimax_rates

__all__ = [
    "BaseMatrix",
    "BlockEntry",
    "ModeDescriptor",
    "NR_LIFTING_SIZES",
    "QCLDPCCode",
    "ValidationReport",
    "WIFI_Z_VALUES",
    "WIMAX_Z_VALUES",
    "ZERO_BLOCK",
    "build_qc_base_matrix",
    "code_cache_info",
    "count_base_four_cycles",
    "describe_mode",
    "dmbt_base_matrix",
    "dmbt_block_length",
    "dmbt_rates",
    "get_code",
    "list_modes",
    "nr_base_matrix",
    "nr_lifting_sizes",
    "nr_mode",
    "nr_rates",
    "parse_nr_mode",
    "standards_summary",
    "validate_code",
    "wifi_base_matrix",
    "wifi_rates",
    "wimax_base_matrix",
    "wimax_rates",
]
