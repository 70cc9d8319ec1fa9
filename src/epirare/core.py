"""Shared domain types for jump-process epidemics: event kinds, model
parameters and seeding.

The package keeps paths only as the engine's event-log columns
(``lockstep.EventLog``): a row per event, with its time, its kind and the
state after it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "EventKind",
    "HivParams",
    "ModelParams",
    "ReedFrostParams",
    "Scaling",
    "SeedSpec",
    "SimulationError",
    "SirParams",
]


class SimulationError(RuntimeError):
    """A path could not be simulated or queried as requested."""


class EventKind(enum.IntEnum):
    """Jump types: infection moves S to I, removal/detection moves I to R."""

    INFECTION = 1
    REMOVAL = 2
    DETECTION = 3


class Scaling(enum.Enum):
    """Pairwise infection-rate convention: lambda*S*I/n or lambda*S*I."""

    MASS_ACTION = "mass_action"
    UNSCALED = "unscaled"


@dataclass(frozen=True)
class ReedFrostParams:
    """Chain-binomial model: per-pair escape probability q per generation."""

    q: float
    s0: int
    i0: int

    def __post_init__(self) -> None:
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must lie in (0, 1]: {self.q}")
        if self.s0 < 0 or self.i0 < 0:
            raise ValueError("initial counts must be non-negative")


@dataclass(frozen=True)
class SirParams:
    """Markovian SIR jump process.

    ``scaling`` selects the infection rate lambda*S*I/n (MASS_ACTION) or
    lambda*S*I (UNSCALED).  ``n`` defaults to the initial population and
    may not be smaller than it.
    """

    lam: float
    gamma: float
    s0: int
    i0: int
    scaling: Scaling = Scaling.MASS_ACTION
    n: int | None = None

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be finite and non-negative: {self.lam}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and positive: {self.gamma}")
        if self.s0 < 0 or self.i0 < 0:
            raise ValueError("initial counts must be non-negative")
        if self.n is not None and self.n <= 0:
            raise ValueError("population size n must be positive")
        if self.n is not None and self.n < self.s0 + self.i0:
            raise ValueError(
                f"population size n={self.n} is smaller than s0 + i0 = {self.s0 + self.i0}"
            )

    @property
    def population(self) -> int:
        return self.n if self.n is not None else self.s0 + self.i0

    def pair_rate(self, s: int, i: int) -> float:
        """Infection rate at compartment counts (s, i)."""
        if self.scaling is Scaling.MASS_ACTION:
            return self.lam * s * i / self.population
        return self.lam * s * i


@dataclass(frozen=True)
class HivParams:
    """Contact-tracing model: detections accelerate with recently found cases.

    Detection rate is gamma1*I + gamma2*I * sum(exp(-c * age)) over the ages
    of previously detected individuals.  Infections occur at rate lambda*S*I.
    """

    lam: float
    gamma1: float
    gamma2: float
    c: float
    s0: int
    i0: int
    initial_detection_ages: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        for name in ("lam", "gamma1", "gamma2", "c"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if self.s0 < 0 or self.i0 < 0:
            raise ValueError("initial counts must be non-negative")
        if not all(0 <= a < math.inf for a in self.initial_detection_ages):
            raise ValueError("detection ages must be finite and non-negative")

    @property
    def r0_count(self) -> int:
        """Initially detected individuals occupy the removed compartment."""
        return len(self.initial_detection_ages)


ModelParams = Union[ReedFrostParams, SirParams, HivParams]


@dataclass(frozen=True)
class SeedSpec:
    """Counter-based stream address: (master seed, replication, particle, stage).

    Distinct addresses give statistically independent Philox streams; equal
    addresses reproduce draws bit for bit, which makes particle mutation
    parallelizable with a deterministic result.
    """

    master_seed: int
    replication: int = 0
    particle: int = 0
    stage: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "replication", "particle", "stage"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def stream(
        self,
        *,
        replication: int | None = None,
        particle: int | None = None,
        stage: int | None = None,
    ) -> "SeedSpec":
        """Derive a sibling stream, overriding any subset of coordinates."""
        return SeedSpec(
            self.master_seed,
            self.replication if replication is None else replication,
            self.particle if particle is None else particle,
            self.stage if stage is None else stage,
        )

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed,
            spawn_key=(self.replication, self.particle, self.stage),
        )
        return np.random.Generator(np.random.Philox(seq))
