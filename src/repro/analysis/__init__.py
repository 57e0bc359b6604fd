"""Monte-Carlo analysis: BER/FER statistics, iteration profiles, reporting."""

from repro.analysis.ber import SnrPoint
from repro.analysis.density_evolution import (
    DegreeDistribution,
    de_converges,
    decoding_threshold_db,
)
from repro.analysis.iterations import (
    EtPowerCurve,
    IterationProfile,
    et_power_curve,
    profile_iterations,
)
from repro.analysis.reporting import ascii_curve, ber_table, results_dir, save_exhibit

__all__ = [
    "DegreeDistribution",
    "EtPowerCurve",
    "IterationProfile",
    "SnrPoint",
    "ascii_curve",
    "ber_table",
    "de_converges",
    "decoding_threshold_db",
    "et_power_curve",
    "profile_iterations",
    "results_dir",
    "save_exhibit",
]
