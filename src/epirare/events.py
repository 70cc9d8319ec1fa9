"""Declarative rare-event specifications and adaptive splitting levels.

An event pairs a target set with a horizon rule.  The estimators decide it
on the engine's columns, where a path's progress towards it is one column
(``estimators._PROGRESS``), and ``quantile_levels`` turns ensemble scores
into adaptive splitting levels.  What follows a level that does not pass
the previous one, the stall rule of adaptive splitting, is decided in
``ibps_estimate`` alone.
Every parameter check is written as ``not value > bound`` so that a NaN
horizon or threshold fails it instead of slipping through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import Axis

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
    "quantile_levels",
]


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
    """The axis a level schedule for ``spec`` is declared on.

    A ``DiagnosesIncrement`` sits on ``Axis.REMOVED``, but its levels count
    the removals inside its window (the ``window_rem`` column), not R: a
    path with removals before the window is that many short of R there."""
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
    """Strictly increasing thresholds ending at the event's target level,
    on the event's axis (``event_axis``).  The levels are values of the
    event's progress column: R for a final size, the running maximum of I
    for an incidence, and for a diagnoses increment, declared on
    ``Axis.REMOVED``, the removals inside its window, not R."""

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
