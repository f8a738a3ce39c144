"""Pulse-position coding over insertion/deletion timing channels.

The package splits into channel descriptions (channel), per-unit-cost
capacity figures (info), the constants of three codecs (codec_dmc,
codec_gauss, codec_compound) and their shared layout (_layout), the
streamed Monte Carlo trials (_sparse), and an experiment harness with a
CLI (harness, cli).
"""

from .channel import (Dmc, GaussianNoise, StateDistribution,
                      back_end_from_dict, state_dist_from_dict,
                      state_dist_to_dict)
from .errors import InvalidConfigError
from .harness import (CostEquivalenceReport, ExperimentConfig, Report,
                      run_trials, sweep, verify_cost_equivalence,
                      wilson_interval, write_csv)
from .info import (BoundsReport, CapacityReport, capacity_per_unit_cost,
                   compound_gaussian_capacity, gaussian_capacity_per_unit_energy,
                   ids_capacity_bounds, kl_divergence, modified_cost)

__version__ = "0.1.0"

__all__ = [
    "Dmc", "GaussianNoise", "StateDistribution", "back_end_from_dict",
    "state_dist_from_dict", "state_dist_to_dict", "InvalidConfigError",
    "CostEquivalenceReport", "ExperimentConfig", "Report", "run_trials",
    "sweep", "verify_cost_equivalence", "wilson_interval", "write_csv",
    "BoundsReport", "CapacityReport", "capacity_per_unit_cost",
    "compound_gaussian_capacity", "gaussian_capacity_per_unit_energy",
    "ids_capacity_bounds", "kl_divergence", "modified_cost", "__version__",
]
