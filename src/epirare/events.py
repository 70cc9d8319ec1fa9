"""Declarative rare-event specifications and adaptive splitting levels.

An event pairs a target set with a horizon rule.  A jump-process threshold
event names, as its ``progress``, the engine column (``lockstep.EventLog``)
that measures a path's progress towards it, and ``event_progress`` reads
that progress on any state: the column itself, save on a final size, which
is decided where r + i reaches the threshold.  The event is progress
reaching the threshold, and splitting levels are values of it; the
indicator, the level cuts and the stage scores all read ``event_progress``.
The engines stop each path where its event is decided (``lockstep._stop``).
``quantile_levels`` turns ensemble scores into adaptive splitting levels.
What follows a level that does not pass the previous one, the stall rule
of adaptive splitting, is decided in ``ibps_estimate`` alone.
Every parameter check is written as ``not value > bound`` so that a NaN
horizon or threshold fails it instead of slipping through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

import numpy as np

__all__ = [
    "CumulativeInfections",
    "DiagnosesIncrement",
    "Duration",
    "EventSpec",
    "FinalSize",
    "Incidence",
    "event_progress",
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
    """Event {total ever infected >= n_c} by extinction: R reaches n_c.

    It is decided at the infection that brings r + i, the count ever
    infected, to n_c: r + i only rises, and is R at extinction.  Its
    progress (``event_progress``) is r until then, and n_c from there."""

    progress: ClassVar[str] = "r"
    n_c: int

    def __post_init__(self) -> None:
        if not self.n_c >= 1:
            raise ValueError("threshold must be at least 1")


@dataclass(frozen=True)
class Incidence:
    """Event {infective count reaches n_i at some time in [0, T]}: the
    running maximum of I reaches n_i."""

    progress: ClassVar[str] = "max_i"
    T: float
    n_i: int

    def __post_init__(self) -> None:
        if not self.T > 0:
            raise ValueError("horizon must be positive")
        if not self.n_i >= 1:
            raise ValueError("threshold must be at least 1")


@dataclass(frozen=True)
class DiagnosesIncrement:
    """Event {R(t + u) - R(t) >= n_r}: a surge of diagnoses inside a window.
    Its progress counts the removals inside the window, not R."""

    progress: ClassVar[str] = "window_rem"
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


def event_progress(spec: FinalSize | Incidence | DiagnosesIncrement, state) -> np.ndarray:
    """Progress towards ``spec`` of each path in ``state``, an event log, an
    ensemble or a ``Row``: its ``progress`` column, save on a final size,
    where it is r until the event is decided, once r + i reaches n_c, and
    n_c from there.  It is an integer that never falls along a path, and
    reaches the threshold exactly where the event happens."""
    value = getattr(state, spec.progress)
    if isinstance(spec, FinalSize):
        return np.where(state.r + state.i >= spec.n_c, spec.n_c, value)
    return value


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
