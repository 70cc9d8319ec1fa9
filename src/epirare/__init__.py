"""Rare-event probability estimation for stochastic compartmental epidemic
models: crude Monte-Carlo, importance sampling (fixed and cross-entropy
adapted), and interacting-branching-particle multilevel splitting, validated
against an exact final-size distribution.
"""

from .core import (
    EventKind,
    HivParams,
    ModelParams,
    ReedFrostParams,
    Scaling,
    SeedSpec,
    SimulationError,
    SirParams,
)
from .estimators import (
    Diagnostics,
    Estimate,
    ce_estimate,
    cmc,
    is_estimate,
)
from .events import (
    CumulativeInfections,
    DiagnosesIncrement,
    Duration,
    EventSpec,
    FinalSize,
    Incidence,
    quantile_levels,
)
from .final_size import (
    exact_final_size,
    tail_pf,
    threshold_for_tail,
)
from .splitting import ParticleEnsemble, ibps_estimate, temporal_split_estimate

__version__ = "0.1.0"

__all__ = [
    "CumulativeInfections",
    "DiagnosesIncrement",
    "Diagnostics",
    "Duration",
    "Estimate",
    "EventKind",
    "EventSpec",
    "FinalSize",
    "HivParams",
    "Incidence",
    "ModelParams",
    "ParticleEnsemble",
    "ReedFrostParams",
    "Scaling",
    "SeedSpec",
    "SimulationError",
    "SirParams",
    "ce_estimate",
    "cmc",
    "exact_final_size",
    "ibps_estimate",
    "is_estimate",
    "quantile_levels",
    "tail_pf",
    "temporal_split_estimate",
    "threshold_for_tail",
]
