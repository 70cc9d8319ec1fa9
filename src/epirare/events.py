"""Declarative rare-event specifications and their exact evaluation on paths.

An event pairs a target set with a horizon rule.  ``score`` reports a path's
best progress toward the target, ``indicator`` decides occurrence, and
``quantile_levels`` turns ensemble scores into adaptive splitting levels.
What follows a level that does not pass the previous one, the stall rule of
adaptive splitting, is decided in ``ibps_estimate`` alone.
Every parameter check is written as ``not value > bound`` so that a NaN
horizon or threshold fails it instead of slipping through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import (
    Axis,
    EpidemicPath,
    NEVER,
    Never,
    SimulationError,
    extinction_time,
    state_at,
)

__all__ = [
    "CumulativeInfections",
    "DiagnosesIncrement",
    "Duration",
    "EventSpec",
    "FinalSize",
    "Incidence",
    "LevelSchedule",
    "event_axis",
    "event_threshold",
    "hitting_time",
    "indicator",
    "quantile_levels",
    "score",
]

DiscretePath = Sequence[tuple[int, int]]


@dataclass(frozen=True)
class Duration:
    """Event {extinction time > T}: the epidemic outlasts the window [0, T]."""

    T: float

    def __post_init__(self) -> None:
        if not self.T > 0:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class FinalSize:
    """Event {total ever infected >= n_c} by extinction."""

    n_c: int

    def __post_init__(self) -> None:
        if not self.n_c >= 1:
            raise ValueError("threshold must be at least 1")


@dataclass(frozen=True)
class Incidence:
    """Event {infective count reaches n_i at some time in [0, T]}."""

    T: float
    n_i: int

    def __post_init__(self) -> None:
        if not self.T > 0:
            raise ValueError("horizon must be positive")
        if not self.n_i >= 1:
            raise ValueError("threshold must be at least 1")


@dataclass(frozen=True)
class DiagnosesIncrement:
    """Event {R(t + u) - R(t) >= n_r}: a surge of diagnoses inside a window."""

    t: float
    u: float
    n_r: int

    def __post_init__(self) -> None:
        if not self.t >= 0:
            raise ValueError("window start must be non-negative")
        if not self.u > 0:
            raise ValueError("window length must be positive")
        if not self.n_r >= 1:
            raise ValueError("threshold must be at least 1")


@dataclass(frozen=True)
class CumulativeInfections:
    """Event {sum of infectives over generations 0..t-1 >= n_c} (discrete chains)."""

    t: int
    n_c: int

    def __post_init__(self) -> None:
        if not self.t >= 1:
            raise ValueError("generation horizon must be positive")
        if not self.n_c >= 1:
            raise ValueError("threshold must be at least 1")


EventSpec = Union[Duration, FinalSize, Incidence, DiagnosesIncrement, CumulativeInfections]


def event_axis(spec: EventSpec) -> Axis:
    if isinstance(spec, (FinalSize, DiagnosesIncrement)):
        return Axis.REMOVED
    if isinstance(spec, Incidence):
        return Axis.INFECTED
    if isinstance(spec, CumulativeInfections):
        return Axis.CUMULATIVE_INFECTIONS
    return Axis.TIME


def event_threshold(spec: EventSpec) -> float:
    if isinstance(spec, FinalSize):
        return spec.n_c
    if isinstance(spec, Incidence):
        return spec.n_i
    if isinstance(spec, DiagnosesIncrement):
        return spec.n_r
    if isinstance(spec, CumulativeInfections):
        return spec.n_c
    return spec.T


@dataclass(frozen=True)
class LevelSchedule:
    """Strictly increasing thresholds ending at the event's target level."""

    levels: tuple[float, ...]
    axis: Axis

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a level schedule needs at least the target level")
        if not all(b > a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly increasing")

    def validate_against(self, spec: EventSpec) -> None:
        if self.axis is not event_axis(spec):
            raise ValueError(f"schedule axis {self.axis} does not match event {spec}")
        if self.levels[-1] != event_threshold(spec):
            raise ValueError("last level must equal the event threshold")


def _require_resolved(path: EpidemicPath, spec: EventSpec) -> None:
    """The path must be simulated far enough for the event to be decided."""
    extinct = path.final_state.i == 0
    if isinstance(spec, FinalSize):
        if not extinct and path.final_state.r < spec.n_c:
            raise SimulationError("path under-simulated: not extinct and below the threshold")
    elif isinstance(spec, Incidence):
        max_i = max((ev.state_after.i for ev in path.events), default=path.initial.i)
        if not extinct and path.horizon < spec.T and max_i < spec.n_i:
            raise SimulationError("path under-simulated for the incidence horizon")
    elif isinstance(spec, Duration):
        if not extinct and path.horizon < spec.T:
            raise SimulationError("path under-simulated for the duration horizon")
    elif isinstance(spec, DiagnosesIncrement):
        if not extinct and path.horizon < spec.t + spec.u:
            raise SimulationError("path under-simulated for the diagnoses window")


def score(path: EpidemicPath | DiscretePath, spec: EventSpec) -> float:
    """Best progress of the path toward the event's target set.

    Incidence: running maximum of I up to T.  FinalSize: final removed count.
    CumulativeInfections: partial sum of infectives over generations < t.
    Duration: extinction time, with +inf capping the scale for paths that
    outlive their horizon.  DiagnosesIncrement: removals inside (t, t+u].
    """
    if isinstance(spec, CumulativeInfections):
        chain = list(path)
        if len(chain) < spec.t and chain[-1][1] != 0:
            raise SimulationError("chain under-simulated for the generation horizon")
        return float(sum(i for _, i in chain[: spec.t]))
    assert isinstance(path, EpidemicPath)
    _require_resolved(path, spec)
    if isinstance(spec, FinalSize):
        return float(path.final_state.r)
    if isinstance(spec, Incidence):
        values = [path.initial.i] + [
            ev.state_after.i for ev in path.events if ev.time <= spec.T
        ]
        return float(max(values))
    if isinstance(spec, Duration):
        ext = extinction_time(path)
        return math.inf if isinstance(ext, Never) else float(ext)
    # Diagnoses increment; resolution check guarantees both endpoints are
    # within the horizon (extinct paths carry an infinite one).
    lo = state_at(path, spec.t).r
    hi = state_at(path, spec.t + spec.u).r
    return float(hi - lo)


def indicator(path: EpidemicPath | DiscretePath, spec: EventSpec) -> int:
    """1 iff the event occurs on the path (Duration demands strict excess)."""
    s = score(path, spec)
    if isinstance(spec, Duration):
        return int(s > spec.T)
    return int(s >= event_threshold(spec))


def hitting_time(
    path: EpidemicPath | DiscretePath, axis: Axis, level: float
) -> float | Never:
    """First event time at which the axis quantity reaches the level.

    Returns 0 when the initial state already satisfies it, NEVER when the
    simulated path never gets there.  For discrete chains the "time" is the
    generation index.
    """
    if axis is Axis.CUMULATIVE_INFECTIONS:
        total = 0
        for gen, (_, i) in enumerate(path):
            total += i
            if total >= level:
                return float(gen)
        return NEVER
    assert isinstance(path, EpidemicPath)
    if axis is Axis.TIME:
        ext = extinction_time(path)
        if isinstance(ext, Never) or ext > level:
            return float(level)
        return NEVER
    def value(state) -> int:
        return state.i if axis is Axis.INFECTED else state.r
    if value(path.initial) >= level:
        return 0.0
    for ev in path.events:
        if value(ev.state_after) >= level:
            return ev.time
    return NEVER


def quantile_levels(scores: Sequence[float], keep_fraction: float) -> float:
    """Next adaptive level: the ceil(keep_fraction * N)-th largest score.

    Ties are kept as a multiset, so every path attaining the returned level
    survives, possibly more than the nominal count.  A level that does not
    pass the previous one is the caller's to handle.
    """
    if len(scores) == 0:
        raise ValueError("scores must be non-empty")
    if not 0.0 < keep_fraction < 1.0:
        raise ValueError(f"keep fraction must lie in (0, 1): {keep_fraction}")
    ordered = np.sort(np.asarray(scores))
    return ordered[-math.ceil(keep_fraction * len(ordered))]
