"""Reference single-path samplers, per-path likelihoods and event semantics.

The package simulates every path with the lockstep engine
(``epirare.lockstep``) and weights batches with its vectorised
likelihoods.  This module keeps the per-path forms they replaced: the
Reed-Frost chain, the Markovian SIR jump process and the age-structured
contact-tracing process simulated one event at a time, and the SIR
likelihood ratio and Reed-Frost log-likelihood evaluated along one path.
``sir_chain_ratio`` adds the SIR ratio of a jump chain and the rate
integrals' conditional expectations given it, which clock-free engine calls
sum.  The tests replay the engine against them.  It also keeps the
arbitrary-precision triangular solve for the SIR final-size law, the
independent reference for the package's embedded-chain oracle
(``epirare.exact_final_size``).

The package keeps paths only as event-log columns (``lockstep.EventLog``)
and decides events on them (``_batch_indicators``): a final size on r + i,
the count ever infected, every other event on the column it names as its
``progress``, which the level cuts read too (``_level_cut``).  The per-path
form of a path lives here: ``EpidemicPath``, a validated tuple of ``JumpEvent``
values with the ``CompartmentState`` after each, built from a log by
``epidemic_path`` or from time/kind arrays by ``path_from_arrays``, and
``NEVER`` for a time that never comes.  So do
the per-path forms of the event rules, on these paths and on Reed-Frost
chains: the state at a time, the extinction time, a path's score and
indicator for an event, and the first time progress reaches a level.  The
tests check the columns against them.

All samplers are pure functions of (params, stop rule, random stream).
Exponential holding times are sampled by inversion (-log(1-U)/rate) so that
common-random-number couplings can share uniforms at the clock level.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import mpmath
import numpy as np

from epirare import lockstep
from epirare.core import (
    EventKind,
    HivParams,
    ReedFrostParams,
    Scaling,
    SimulationError,
    SirParams,
)
from epirare.events import (
    CumulativeInfections,
    DiagnosesIncrement,
    Duration,
    EventSpec,
    FinalSize,
    Incidence,
    event_threshold,
)

__all__ = [
    "CompartmentState",
    "EVENT_CAP",
    "EpidemicPath",
    "JumpEvent",
    "NEVER",
    "Never",
    "StopRule",
    "UnstableSolveError",
    "epidemic_path",
    "extinction_time",
    "final_size_solve",
    "hitting_time",
    "hiv_rates",
    "hiv_simulate",
    "indicator",
    "n_events",
    "path_from_arrays",
    "progress_hitting_time",
    "rf_log_likelihood",
    "rf_simulate",
    "rf_step",
    "score",
    "sir_chain_ratio",
    "sir_importance_ratio",
    "sir_rates",
    "sir_simulate",
    "state_at",
]

# Hard per-path cap guarding the almost-sure-extinction assumption.
EVENT_CAP = 100_000_000


# ---------------------------------------------------------------------------
# per-path form of a path


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


@dataclass(frozen=True)
class CompartmentState:
    """Counts of susceptible, infective, and removed individuals."""

    s: int
    i: int
    r: int

    def __post_init__(self) -> None:
        if self.s < 0 or self.i < 0 or self.r < 0:
            raise ValueError(f"compartment counts must be non-negative: {self}")

    @property
    def ever(self) -> int:
        """The count ever infected, r + i: it only rises, and is r once i is 0."""
        return self.r + self.i


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


def epidemic_path(
    log: lockstep.EventLog, k: int, model: SirParams | HivParams
) -> EpidemicPath:
    """Path k of an event log as an ``EpidemicPath`` from the model's fresh
    start, with horizon inf if it is extinct and its stop time otherwise."""
    start = lockstep.initial_row(model)
    a, b = log.offsets[k], log.offsets[k + 1]
    extinct = (log.i[b - 1] if b > a else start.i) == 0
    detections = (
        tuple(-age for age in model.initial_detection_ages)
        if isinstance(model, HivParams) else ()
    )
    return path_from_arrays(
        CompartmentState(start.s, start.i, start.r),
        log.t[a:b], log.kind[a:b],
        np.inf if extinct else float(log.t_stop[k]),
        detections,
    )


@dataclass(frozen=True)
class StopRule:
    """When to halt a jump-process simulation.

    Extinction always halts (no further events are possible).  A finite
    ``horizon`` halts at that clock time; a ``target``, ``"i"``, ``"r"`` or
    ``"ever"`` (r + i), halts on first passage of that count at or above
    ``target_level``.
    """

    horizon: float = math.inf
    target: str | None = None
    target_level: int | None = None

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ValueError("horizon must be non-negative")
        if (self.target is None) != (self.target_level is None):
            raise ValueError("target and level must be given together")
        if self.target not in (None, "i", "r", "ever"):
            raise ValueError("first-passage targets apply to I, R or R + I only")

    @staticmethod
    def extinction() -> "StopRule":
        return StopRule()

    @staticmethod
    def at_time(horizon: float) -> "StopRule":
        return StopRule(horizon=horizon)

    @staticmethod
    def first_passage(target: str, level: int, horizon: float = math.inf) -> "StopRule":
        return StopRule(horizon=horizon, target=target, target_level=level)

    @staticmethod
    def decision(n_c: int) -> "StopRule":
        """Where {final size >= n_c} is decided: the infection that brings
        r + i, the count ever infected, to n_c."""
        return StopRule.first_passage("ever", n_c)

    def reached(self, state: CompartmentState) -> bool:
        if self.target is None:
            return False
        return getattr(state, self.target) >= self.target_level


def rf_step(
    state: tuple[int, int], q: float, rng: np.random.Generator
) -> tuple[int, int]:
    """One Reed-Frost generation from (s, i).

    Each susceptible escapes all current infectives with probability q**i, so
    the next infective count is Binomial(s, 1 - q**i) and the susceptibles
    shrink by the same amount.  The set {i = 0} is absorbing.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1]: {q}")
    s, i = state
    if s < 0 or i < 0:
        raise ValueError("compartment counts must be non-negative")
    if i == 0:
        return (s, 0)
    p_infect = -math.expm1(i * math.log(q))  # 1 - q**i without cancellation
    new_inf = int(rng.binomial(s, p_infect))
    return (s - new_inf, new_inf)


def rf_simulate(
    params: ReedFrostParams, t_max: int, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Reed-Frost trajectory of length t_max + 1 started at (s0, i0).

    Once absorbed the remaining generations repeat the absorbed state, so the
    returned chain always has full length.
    """
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    chain = [(params.s0, params.i0)]
    state = chain[0]
    for _ in range(t_max):
        if state[1] == 0:
            chain.append(state)
            continue
        state = rf_step(state, params.q, rng)
        chain.append(state)
    return chain


def rf_cumulative_tail(params: ReedFrostParams, spec: CumulativeInfections) -> float:
    """P(spec) for a Reed-Frost chain, exactly: a DP over the law of (s, i),
    generation by generation, each a Binomial(s, 1 - q**i) transition (the
    step of ``rf_step``).  The infectives over generations 0..t-1 number
    s0 + i0 - s after generation t - 1."""
    from scipy.stats import binom

    law = np.zeros((params.s0 + 1, max(params.s0, params.i0) + 1))
    law[params.s0, params.i0] = 1.0
    i = np.arange(law.shape[1])
    for _ in range(spec.t - 1):
        step = np.zeros_like(law)
        for s in range(params.s0 + 1):
            k = np.arange(s + 1)
            # pmf[k, i]: k of the s susceptibles infected by i infectives
            pmf = binom.pmf(k[:, None], s, -np.expm1(i * math.log(params.q))[None, :])
            step[s - k, k] += pmf @ law[s]
        law = step
    total = params.s0 + params.i0 - np.arange(params.s0 + 1)
    return float(law[total >= spec.n_c].sum())


def sir_rates(state: CompartmentState, params: SirParams) -> tuple[float, float]:
    """Instantaneous (infection, removal) rates of the SIR process."""
    return params.pair_rate(state.s, state.i), params.gamma * state.i


def sir_simulate(
    params: SirParams,
    stop: StopRule,
    rng: np.random.Generator,
    *,
    initial: CompartmentState | None = None,
    t0: float = 0.0,
) -> EpidemicPath:
    """Competing-exponential-clock simulation of the SIR jump process.

    Holding times are Exponential(total rate) by inversion; the event kind is
    infection with probability proportional to its rate.  Halts at the stop
    rule or extinction, whichever is first.  ``initial``/``t0`` allow
    continuing from an interior state, as particle mutation requires.
    """
    state = initial if initial is not None else CompartmentState(params.s0, params.i0, 0)
    t = t0
    times: list[float] = []
    kinds: list[int] = []
    while True:
        if state.i == 0:
            horizon = math.inf
            break
        if t >= stop.horizon or stop.reached(state):
            horizon = t
            break
        rate_inf, rate_rem = sir_rates(state, params)
        total = rate_inf + rate_rem
        dt = -math.log1p(-rng.random()) / total
        if t + dt > stop.horizon:
            t = stop.horizon
            horizon = stop.horizon
            break
        t += dt
        if rng.random() * total < rate_inf:
            state = CompartmentState(state.s - 1, state.i + 1, state.r)
            kinds.append(EventKind.INFECTION)
        else:
            state = CompartmentState(state.s, state.i - 1, state.r + 1)
            kinds.append(EventKind.REMOVAL)
        times.append(t)
        if len(times) >= EVENT_CAP:
            raise SimulationError("event cap exceeded; path did not absorb")
    base = initial if initial is not None else CompartmentState(params.s0, params.i0, 0)
    return path_from_arrays(base, times, kinds, horizon)


def hiv_rates(
    state: CompartmentState,
    detection_times: tuple[float, ...],
    t_now: float,
    params: HivParams,
) -> tuple[float, float]:
    """Instantaneous (infection, detection) rates of the contact-tracing model.

    The detection rate adds, on top of the spontaneous gamma1*I term, a
    contact-tracing term gamma2*I * sum(exp(-c * age)) over the ages of all
    recorded detections.
    """
    if any(d > t_now for d in detection_times):
        raise ValueError("detection times must not postdate the evaluation time")
    decayed = sum(math.exp(-params.c * (t_now - d)) for d in detection_times)
    rate_inf = params.lam * state.s * state.i
    rate_det = params.gamma1 * state.i + params.gamma2 * state.i * decayed
    return rate_inf, rate_det


def hiv_simulate(
    params: HivParams,
    stop: StopRule,
    rng: np.random.Generator,
    *,
    initial: CompartmentState | None = None,
    t0: float = 0.0,
    detection_times: tuple[float, ...] | None = None,
) -> EpidemicPath:
    """Thinning-based simulation of the contact-tracing jump process.

    Between jumps the compartment counts are constant and every contact-
    tracing summand decays, so the total rate at the last jump bounds the
    rate until the next one.  Proposals from that bound are accepted with
    probability (instantaneous rate) / (bound); the bound is re-tightened at
    every rejected proposal.
    """
    state = initial if initial is not None else CompartmentState(
        params.s0, params.i0, params.r0_count
    )
    if detection_times is None:
        detection_times = tuple(-a for a in params.initial_detection_ages)
    t = t0
    # Decayed contact-tracing sum at the current time, updated multiplicatively.
    decayed = sum(math.exp(-params.c * (t - d)) for d in detection_times)
    new_times: list[float] = []
    new_kinds: list[int] = []
    n_events = 0
    while True:
        if state.i == 0:
            horizon = math.inf
            break
        if t >= stop.horizon or stop.reached(state):
            horizon = t
            break
        rate_inf = params.lam * state.s * state.i
        bound = rate_inf + params.gamma1 * state.i + params.gamma2 * state.i * decayed
        dt = -math.log1p(-rng.random()) / bound
        if t + dt > stop.horizon:
            horizon = stop.horizon
            t = stop.horizon
            break
        t += dt
        decayed *= math.exp(-params.c * dt)
        rate_det = params.gamma1 * state.i + params.gamma2 * state.i * decayed
        total = rate_inf + rate_det
        if total > bound * (1.0 + 1e-12):
            raise AssertionError("thinning bound fell below the instantaneous rate")
        if rng.random() * bound >= total:
            continue  # rejected proposal; bound re-tightens from here
        if rng.random() * total < rate_inf:
            state = CompartmentState(state.s - 1, state.i + 1, state.r)
            new_kinds.append(EventKind.INFECTION)
        else:
            state = CompartmentState(state.s, state.i - 1, state.r + 1)
            new_kinds.append(EventKind.DETECTION)
            detection_times = detection_times + (t,)
            decayed += 1.0
        new_times.append(t)
        n_events += 1
        if n_events >= EVENT_CAP:
            raise SimulationError("event cap exceeded; path did not absorb")
    base = initial if initial is not None else CompartmentState(
        params.s0, params.i0, params.r0_count
    )
    init_det = tuple(d for d in detection_times if d <= t0)
    return path_from_arrays(base, new_times, new_kinds, horizon, init_det)


def sir_importance_ratio(
    path: EpidemicPath, base: SirParams, instr: SirParams
) -> float:
    """Likelihood ratio d(base)/d(instrumental) of a path simulated under the
    instrumental SIR law, evaluated at the path's stopping time.

    The rate integrals reduce to finite sums over inter-event intervals since
    S and I are piecewise constant.  A base rate of zero against a path that
    used it gives ratio 0 (absolute-continuity edge).
    """
    if instr.lam <= 0 or instr.gamma <= 0:
        raise ValueError("instrumental rates must be positive")
    if base.scaling is not instr.scaling or base.population != instr.population:
        raise ValueError("base and instrumental laws must share scaling and population")
    int_pair = 0.0
    int_i = 0.0
    n_inf = 0
    n_rem = 0
    state = path.initial
    t_prev = 0.0
    divisor = base.population if base.scaling is Scaling.MASS_ACTION else 1
    for ev in path.events:
        dt = ev.time - t_prev
        int_pair += state.s * state.i / divisor * dt
        int_i += state.i * dt
        if ev.kind == EventKind.INFECTION:
            n_inf += 1
        else:
            n_rem += 1
        state = ev.state_after
        t_prev = ev.time
    if state.i > 0:
        if not math.isfinite(path.horizon):
            raise ValueError("path has no finite stopping time to evaluate the ratio at")
        dt = path.horizon - t_prev
        int_pair += state.s * state.i / divisor * dt
        int_i += state.i * dt
    if (base.lam == 0 and n_inf > 0) or (base.gamma == 0 and n_rem > 0):
        return 0.0
    log_phi = -((base.lam - instr.lam) * int_pair + (base.gamma - instr.gamma) * int_i)
    if n_inf:
        log_phi += n_inf * math.log(base.lam / instr.lam)
    if n_rem:
        log_phi += n_rem * math.log(base.gamma / instr.gamma)
    return math.exp(log_phi)


def sir_chain_ratio(
    path, base: SirParams, instr: SirParams
) -> tuple[float, float, float]:
    """Along an SIR jump chain simulated under the instrumental law, given as
    its states from the start through each event: the log likelihood ratio
    d(base)/d(instrumental) of the chain, and the conditional expectations
    given the chain of the pair and infective rate integrals times the
    whole path's ratio, divided by the chain's ratio.

    Event by event, from the state before it: the log of the base over the
    instrumental chance of that event, and the state's pair and infective
    counts times its mean holding time under the base law (the whole
    path's ratio times a holding time has that mean given the chain).  A
    base chance of zero gives -inf.
    """
    divisor = base.population if base.scaling is Scaling.MASS_ACTION else 1
    log_ratio = int_pair = int_i = 0.0
    for before, after in zip(path, path[1:]):
        s, i = before.s, before.i
        infected = after.s == s - 1
        chances = []
        for params in (base, instr):
            rate_inf, rate_rem = sir_rates(before, params)
            chances.append((rate_inf if infected else rate_rem) / (rate_inf + rate_rem))
        if chances[0] == 0.0:
            log_ratio = -math.inf
        else:
            log_ratio += math.log(chances[0] / chances[1])
        holding = 1.0 / sum(sir_rates(before, base))
        int_pair += s * i / divisor * holding
        int_i += i * holding
    return log_ratio, int_pair, int_i


def rf_log_likelihood(path, q: float) -> float:
    """Log-likelihood of a Reed-Frost chain under escape probability q.

    Generations with no infectives contribute nothing; q = 1 with any
    subsequent infection yields -inf.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1]: {q}")
    chain = list(path)
    total = 0.0
    for (s, i), (s_next, i_next) in zip(chain, chain[1:]):
        if i_next > s or s_next != s - i_next:
            raise ValueError("inconsistent chain: bookkeeping does not close")
        if i == 0:
            if i_next != 0:
                raise ValueError("inconsistent chain: infections out of absorption")
            continue
        if q >= 1.0:
            if i_next > 0:
                return -math.inf
            continue
        p_infect = -math.expm1(i * math.log(q))
        total += (
            math.lgamma(s + 1)
            - math.lgamma(i_next + 1)
            - math.lgamma(s - i_next + 1)
            + (i_next * math.log(p_infect) if i_next else 0.0)
            + (s - i_next) * i * math.log(q)
        )
    return total


# ---------------------------------------------------------------------------
# per-path event semantics

DiscretePath = Sequence[tuple[int, int]]


def n_events(path: EpidemicPath, t: float) -> int:
    """Number of jumps up to and including time t."""
    return bisect.bisect_right([ev.time for ev in path.events], t)


def state_at(path: EpidemicPath, t: float) -> CompartmentState:
    """State of the path at time t (right-continuous step function).

    Raises SimulationError if t exceeds the simulated horizon.
    """
    if t < 0:
        raise ValueError(f"t must be non-negative: {t}")
    if t > path.horizon:
        raise SimulationError(f"path not simulated this far: t={t} > horizon={path.horizon}")
    idx = n_events(path, t)
    if idx == 0:
        return path.initial
    return path.events[idx - 1].state_after


def extinction_time(path: EpidemicPath) -> float | Never:
    """Time of the jump that empties the infective compartment.

    Returns 0.0 for a path started with no infectives, and NEVER when
    infectives remain at the simulated horizon.
    """
    if path.initial.i == 0:
        return 0.0
    if path.final_state.i > 0:
        return NEVER
    return path.events[-1].time


def _require_resolved(path: EpidemicPath, spec: EventSpec) -> None:
    """The path must be simulated far enough for the event to be decided."""
    extinct = path.final_state.i == 0
    if isinstance(spec, FinalSize):
        if not extinct and path.final_state.ever < spec.n_c:
            raise SimulationError("path under-simulated: not extinct and below the threshold")
    elif isinstance(spec, Incidence):
        max_i = max((ev.state_after.i for ev in path.events), default=path.initial.i)
        if not extinct and path.horizon < spec.T and max_i < spec.n_i:
            raise SimulationError("path under-simulated for the incidence horizon")
    elif isinstance(spec, Duration):
        if not extinct and path.horizon < spec.T:
            raise SimulationError("path under-simulated for the duration horizon")
    elif isinstance(spec, DiagnosesIncrement):
        if not extinct and path.horizon < spec.t + spec.u and (
            path.horizon < spec.t or _window_removals(path, spec) < spec.n_r
        ):
            raise SimulationError("path under-simulated for the diagnoses window")


def _window_removals(path: EpidemicPath, spec: DiagnosesIncrement) -> int:
    """Removals inside (t, t + u], up to where the path was simulated."""
    return state_at(path, min(spec.t + spec.u, path.horizon)).r - state_at(path, spec.t).r


def score(path: EpidemicPath | DiscretePath, spec: EventSpec) -> float:
    """Best progress of the path toward the event's target set.

    Incidence: running maximum of I up to T.  FinalSize: final removed count.
    CumulativeInfections: partial sum of infectives over generations < t.
    Duration: extinction time, with +inf capping the scale for paths that
    outlive their horizon.  DiagnosesIncrement: removals inside (t, t+u],
    up to where the path stopped.
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
    # Diagnoses increment; the resolution check guarantees that the path
    # reaches into the window (extinct paths carry an infinite horizon).
    return float(_window_removals(path, spec))


def indicator(path: EpidemicPath | DiscretePath, spec: EventSpec) -> int:
    """1 iff the event occurs on the path (Duration demands strict excess).
    A final size is decided on r + i, the count ever infected, so a path
    stopped at the decision and one run until r reaches n_c both count."""
    if isinstance(spec, FinalSize):
        _require_resolved(path, spec)
        return int(path.final_state.ever >= spec.n_c)
    s = score(path, spec)
    if isinstance(spec, Duration):
        return int(s > spec.T)
    return int(s >= event_threshold(spec))


def hitting_time(
    path: EpidemicPath | DiscretePath, quantity: str, level: float
) -> float | Never:
    """First event time at which ``quantity`` reaches the level: ``"i"``,
    ``"r"`` or ``"max_i"`` (whose first passage is that of I) on a path,
    ``"t"`` (the path outlives the time ``level``) or, on a discrete chain,
    ``"cumulative_infections"``.

    Returns 0 when the initial state already satisfies it, NEVER when the
    simulated path never gets there.  For discrete chains the "time" is the
    generation index.
    """
    if quantity == "cumulative_infections":
        total = 0
        for gen, (_, i) in enumerate(path):
            total += i
            if total >= level:
                return float(gen)
        return NEVER
    assert isinstance(path, EpidemicPath)
    if quantity == "t":
        ext = extinction_time(path)
        if isinstance(ext, Never) or ext > level:
            return float(level)
        return NEVER
    def value(state) -> int:
        return getattr(state, "i" if quantity == "max_i" else quantity)
    if value(path.initial) >= level:
        return 0.0
    for ev in path.events:
        if value(ev.state_after) >= level:
            return ev.time
    return NEVER


def progress_hitting_time(
    path: EpidemicPath, spec: FinalSize | Incidence | DiagnosesIncrement, level: float
) -> float | Never:
    """First event time at which the path's progress towards the event
    reaches the level: 0.0 when its start does, NEVER when no event does.

    On a final size and an incidence that is ``hitting_time`` of the
    event's progress column.  On a diagnoses increment, progress after an
    event at time tau is the count of removals inside the window up to tau,
    R(min(max(tau, t), t + u)) - R(t).  ``hitting_time`` of R counts the
    removals before the window opens as well, so it can report an earlier
    time.
    """
    if not isinstance(spec, DiagnosesIncrement):
        return hitting_time(path, spec.progress, level)
    if level <= 0:
        return 0.0
    opened = state_at(path, spec.t).r
    for ev in path.events:
        inside = min(max(ev.time, spec.t), spec.t + spec.u)
        if state_at(path, inside).r - opened >= level:
            return ev.time
    return NEVER


_SUM_TOL = 1e-9
_NEG_TOL = 1e-6


class UnstableSolveError(RuntimeError):
    """The triangular solve lost too much precision to be trusted."""


def final_size_solve(params: SirParams, dps: int | None = None) -> np.ndarray:
    """Distribution of k = initially susceptible individuals ever infected.

    Solves, by forward substitution, the triangular system

        sum_{k=0}^{l} C(s0-k, l-k) * p_k / phi(l)**(i0+k) = C(s0, l),
        phi(l) = gamma / (gamma + per-infective rate at s0-l susceptibles),

    for l = 0..s0.  The substitution runs in arbitrary-precision arithmetic
    (``dps`` decimal digits, chosen from s0 when omitted) because the system
    cancels catastrophically already for moderate populations.

    Returns a length s0+1 probability vector indexed by k.
    """
    s0, i0 = params.s0, params.i0
    if i0 == 0:
        out = np.zeros(s0 + 1)
        out[0] = 1.0
        return out
    phi_min = min(
        params.gamma / (params.gamma + params.pair_rate(s, 1))
        for s in range(s0 + 1)
    )
    if dps is None:
        # Headroom for the binomial growth plus the (1/phi)**(i0+k) blowup;
        # the system amplifies even input rounding, so be generous.
        dps = max(60, 30 + 3 * s0 + int((s0 + i0) * math.log10(1.0 / phi_min)))
    with mpmath.workdps(dps):
        gamma = mpmath.mpf(params.gamma)
        lam = mpmath.mpf(params.lam)
        # Rate factors stay in working precision: double-rounding them first
        # feeds the solve perturbed inputs that the cancellation amplifies.
        if params.scaling is Scaling.MASS_ACTION:
            rates = [lam * (s0 - l) / params.population for l in range(s0 + 1)]
        else:
            rates = [lam * (s0 - l) for l in range(s0 + 1)]
        phi = [gamma / (gamma + rate) for rate in rates]
        p = [mpmath.mpf(0)] * (s0 + 1)
        for l in range(s0 + 1):
            acc = mpmath.binomial(s0, l)
            inv_phi = 1 / phi[l]
            # inv_phi**(i0+k), advanced incrementally over k
            power = inv_phi ** i0
            for k in range(l):
                acc -= mpmath.binomial(s0 - k, l - k) * p[k] * power
                power *= inv_phi
            p[l] = acc / power  # divides by inv_phi**(i0+l)
        values = [float(v) for v in p]
    if min(values) < -_NEG_TOL:
        raise UnstableSolveError(
            f"numerically unstable for this s0: min p_k = {min(values):.3e}"
        )
    out = np.clip(np.array(values), 0.0, None)
    total = out.sum()
    if abs(total - 1.0) > _SUM_TOL:
        raise UnstableSolveError(
            f"final-size probabilities sum to {total!r}, off by more than {_SUM_TOL}"
        )
    return out
