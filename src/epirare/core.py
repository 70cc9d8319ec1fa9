"""Shared domain types for jump-process epidemics: states, paths, parameters,
seeding, and the path CSV format.

A path is stored as a sparse event list rather than a dense time grid.  The
package decides events on the engine's columns (``lockstep``), not on these
paths; an ``EpidemicPath`` is what a caller reads or writes one path as.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO, Union

import numpy as np

__all__ = [
    "Axis",
    "CompartmentState",
    "EventKind",
    "EpidemicPath",
    "HivParams",
    "JumpEvent",
    "ModelParams",
    "NEVER",
    "Never",
    "ReedFrostParams",
    "Scaling",
    "SeedSpec",
    "SimulationError",
    "read_path_csv",
    "write_path_csv",
]


class SimulationError(RuntimeError):
    """A path could not be simulated or queried as requested."""


class Never:
    """Tagged marker for stopping times undetermined within the horizon.

    Used wherever the convention inf(empty set) = +infinity applies, so that
    "has not happened" is testable (`x is NEVER`) instead of hiding behind a
    sentinel float.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NEVER"


NEVER = Never()


class EventKind(enum.IntEnum):
    """Jump types: infection moves S to I, removal/detection moves I to R."""

    INFECTION = 1
    REMOVAL = 2
    DETECTION = 3


class Axis(enum.Enum):
    """Quantity along which progress toward a rare event is measured."""

    INFECTED = "infected"
    REMOVED = "removed"
    CUMULATIVE_INFECTIONS = "cumulative_infections"
    TIME = "time"


class Scaling(enum.Enum):
    """Pairwise infection-rate convention: lambda*S*I/n or lambda*S*I."""

    MASS_ACTION = "mass_action"
    UNSCALED = "unscaled"


@dataclass(frozen=True)
class CompartmentState:
    """Counts of susceptible, infective, and removed individuals."""

    s: int
    i: int
    r: int

    def __post_init__(self) -> None:
        if self.s < 0 or self.i < 0 or self.r < 0:
            raise ValueError(f"compartment counts must be non-negative: {self}")


@dataclass(frozen=True)
class JumpEvent:
    """One jump of the process: its time, kind, and the state it leads to."""

    time: float
    kind: EventKind
    state_after: CompartmentState

    def __post_init__(self) -> None:
        if not self.time >= 0:  # NaN too
            raise ValueError(f"event time must be non-negative: {self.time}")


def _apply_kind(state: CompartmentState, kind: EventKind) -> CompartmentState:
    if kind == EventKind.INFECTION:
        return CompartmentState(state.s - 1, state.i + 1, state.r)
    return CompartmentState(state.s, state.i - 1, state.r + 1)


@dataclass(frozen=True)
class EpidemicPath:
    """Time-ordered record of jumps with compartment counts.

    ``horizon`` is the largest time up to which the path is fully simulated;
    once the infective count hits zero nothing further can happen, so extinct
    paths carry ``horizon = inf``.  ``initial_detection_times`` holds absolute
    times of detections already on record when the path starts, used only by
    the contact-tracing model (ages at the origin map to non-positive times).
    """

    initial: CompartmentState
    events: tuple[JumpEvent, ...]
    horizon: float
    initial_detection_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        state = self.initial
        prev_time = 0.0
        seen_extinct = state.i == 0
        for ev in self.events:
            if seen_extinct:
                raise ValueError("events recorded after the infective count hit zero")
            if ev.time <= prev_time:
                raise ValueError("event times must be strictly increasing")
            expected = _apply_kind(state, ev.kind)
            if expected != ev.state_after:
                raise ValueError(
                    f"bookkeeping mismatch at t={ev.time}: expected {expected}, got {ev.state_after}"
                )
            state = ev.state_after
            prev_time = ev.time
            seen_extinct = state.i == 0
        if self.events and self.horizon < self.events[-1].time:
            raise ValueError("horizon precedes the last recorded event")
        if self.events and any(t > self.events[0].time for t in self.initial_detection_times):
            raise ValueError("initial detections must predate the first event")

    @property
    def final_state(self) -> CompartmentState:
        return self.events[-1].state_after if self.events else self.initial


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


def write_path_csv(path: EpidemicPath, out: TextIO) -> None:
    """Serialize a path: header, an INIT row, then one row per event."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["time", "kind", "s", "i", "r"])
    writer.writerow([repr(0.0), "INIT", path.initial.s, path.initial.i, path.initial.r])
    for ev in path.events:
        st = ev.state_after
        writer.writerow([repr(ev.time), ev.kind.name, st.s, st.i, st.r])


def read_path_csv(source: TextIO, horizon: float | None = None) -> EpidemicPath:
    """Rebuild a path from its CSV form.

    The horizon is not serialized; when omitted it defaults to +inf for an
    extinct path and to the last event time otherwise.
    """
    rows = list(csv.reader(source))
    if not rows or rows[0] != ["time", "kind", "s", "i", "r"]:
        raise ValueError("path CSV must start with its header row")
    if len(rows) < 2 or rows[1][1] != "INIT":
        raise ValueError("path CSV must carry an INIT row after the header")
    initial = CompartmentState(int(rows[1][2]), int(rows[1][3]), int(rows[1][4]))
    events = []
    for row in rows[2:]:
        t, label = float(row[0]), row[1]
        if label not in EventKind.__members__:
            raise ValueError(f"unknown event kind: {label}")
        state = CompartmentState(int(row[2]), int(row[3]), int(row[4]))
        events.append(JumpEvent(t, EventKind[label], state))
    if horizon is None:
        final = events[-1].state_after if events else initial
        horizon = math.inf if final.i == 0 else (events[-1].time if events else 0.0)
    return EpidemicPath(initial, tuple(events), horizon)


def path_from_arrays(
    initial: CompartmentState,
    times: Sequence[float] | np.ndarray,
    kinds: Sequence[int] | np.ndarray,
    horizon: float,
    initial_detection_times: Iterable[float] = (),
) -> EpidemicPath:
    """Assemble a path from parallel time/kind arrays (simulator output)."""
    state = initial
    events = []
    for t, k in zip(times, kinds):
        state = _apply_kind(state, EventKind(int(k)))
        events.append(JumpEvent(float(t), EventKind(int(k)), state))
    return EpidemicPath(initial, tuple(events), horizon, tuple(initial_detection_times))
