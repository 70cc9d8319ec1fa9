"""Interacting-branching-particle splitting on an event's progress and on time.

A particle ensemble is pushed through nested intermediate events.  At each
stage, particles that reached the stage's level survive; the rest are
replaced by copies of survivors truncated where the survivor crossed the
level and re-simulated onward.  The estimate is the product of stage survival
fractions, generalized to weighted selection by the unnormalized genealogical
formula

    value = prod_k mean(w_k) * mean(indicator / prod_k w_k(ancestral line)),

which reduces exactly to the survival-fraction product for 0/1 weights.

Level splitting (``ibps_estimate``) and temporal splitting
(``temporal_split_estimate``) of continuous-time events share one stage loop
and differ only in what the levels measure.  A slot's score is its
progress towards the event (``events.event_progress``: on a final size r,
or the threshold once the event is decided), or on the time axis its
extinction time (inf while alive); it survives a level it reaches, or on
the time axis a level it outlives.  An estimator hands the loop a
fixed schedule of levels or an adaptive rule that picks each level from the
scores, and the run ends at the first level that reaches the event
threshold (on the time axis, the horizon, which must be finite): a
schedule's last, or an adaptive level capped there.

A stage with no survivors ends the run as an extinct ensemble: it estimates
0 and is counted in ``extinct_ensembles``.  It is not retried, because
returning the first attempt that survives would bias the estimate upwards;
an independent replication is the retry that keeps it unbiased.  The
exception is temporal splitting's final stage, where no path outliving the
horizon is just an estimate of 0.

Selection variants for continuous-time events (survivors always keep their
slots and futures):

* ``multinomial``: each killed slot independently draws its own parent with
  probability proportional to the selection weights among survivors.
* ``keepall``: one parent is drawn from the weighted survivor pool per stage
  and every killed slot becomes an independent continuation of it; the shared
  ancestry leaves estimates unbiased but visibly noisier.

Discrete-generation events instead redraw the whole ensemble from the
weighted selection distribution every generation (the weighted-potential
normalization requires it), so a ``variant`` is rejected on them.

Each slot of a continuous-time ensemble is a path of the engine call it
ran in, what that call recorded (``lockstep.Recorded``), started from a row
(``lockstep.Row``): the fresh start, or its parent's row at a cut.  Slots
are scored by the engine's end states (``_Slots``).  The engine stops a
path where its event is decided (``lockstep._stop``), so a slot branched
from a decided path starts decided, stops at once and scores the
threshold.  The event is known when it is decided, and the path after that
follows the model's law from its state there, so stopping loses nothing of
the conditional law.
Every refill is one primitive, ``_branch``: ask the calls the survivors ran
in for each parent's row at its cut (``lockstep.Recorded.cut``; a level
cut is the first event at which progress reaches the level, a time cut the
last event at or before the time), and start one batch
(``lockstep.jump_ensemble``) from those rows.  No event row is made for
it: a clock-free call answers from its runs, a clocked one from the rows
it kept of the parents alone.  The children are the batch's paths, the
survivors stay paths of their calls, a clocked call keeps the rows of the
slots still in it alone, and a call no slot is a path of is dropped.
Whole histories (``lockstep.EventLog``: a path's events with the state
after each) are kept only when the conditional sample is returned, and
only then is the last stage refilled.  Each slot then carries its
ancestral line: per refill, its ancestor's call and path there and the
count of that path's rows up to its cut.  The calls keep the rows the
lines read, and the final log is joined once from them
(``_Slots.histories``): a child's history is its parent's up to the cut,
then its rows in the batch, and a parent's cut at the threshold is its
decision, so each child is its parent's path.

On an SIR final size the engine runs clock-free (``lockstep``): the level
cuts read only removal counts, and slots carry no times (their logs have no
``t`` column).  The conditional sample then draws its times after the run
(``lockstep.clock``): given the jump chain, the holding times are
independent exponentials at the rates of the states a path visits.

Stream layout per stage s: particle 0 carries batched mutation draws,
particle 1 carries selection draws; stage 0 is the initial ensemble.
Particle 2 at stage 0 carries the conditional sample's deferred holding
times, one standard exponential per event in path order.  A refill whose
children all start decided, as at the last stage, draws nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lockstep
from .core import HivParams, ModelParams, ReedFrostParams, SeedSpec, SirParams
from .estimators import Diagnostics, Estimate
from .events import (
    CumulativeInfections,
    Duration,
    EventSpec,
    event_model_check,
    event_progress,
    event_threshold,
    quantile_levels,
)

__all__ = ["ParticleEnsemble", "ibps_check", "ibps_estimate", "ibps_unread", "temporal_check",
           "temporal_split_estimate"]

_STAGE_CAP = 100_000

VARIANTS = ("multinomial", "keepall")
WEIGHT_RULES = ("indicator", "potential_v", "potential_dv")


def ibps_unread(spec: EventSpec, weight_rule: str) -> dict[str, str]:
    """The selection options ``ibps_estimate`` does not read on ``spec``, each
    with the reason: a jump-process event reads ``variant`` and no weight
    rule, a Reed-Frost event reads ``weight_rule`` and no ``variant``, and
    ``alpha`` only under a potential rule."""
    if isinstance(spec, CumulativeInfections):
        unread = {"variant": "variants apply to jump-process events"}
    else:
        unread = {"weight_rule": "weight rules apply to discrete-generation events"}
    if "weight_rule" in unread or weight_rule == "indicator":
        unread["alpha"] = "alpha applies only under a potential_v or potential_dv rule"
    return unread


# ---------------------------------------------------------------------------
# final ensembles


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    """Final ensemble of a splitting run: an empirical conditional law, held
    as columns.

    A continuous-time run keeps its final paths as the event log ``log``
    (from the model's fresh start, with times, each path stopped where its
    event is decided) and, as ``level_hit_times``, a row per path and a
    column per level: the first event time at which the path's progress
    (``events.event_progress``, which the level cuts read: on a final size
    r, or the threshold from the decision on, and ``max_i`` or
    ``window_rem`` otherwise) reaches the level, 0.0 when its start does
    and inf when it never does.  A Reed-Frost run keeps its (S, I)
    chains, a row per path and a column per generation it simulated, as
    ``chains``: all ``spec.t`` of them, or up to the generation that killed
    every slot when the ensemble died.  A run without the conditional sample
    keeps no paths and no weights.
    """

    weights: np.ndarray
    levels: tuple[float, ...] = ()
    log: lockstep.EventLog | None = None
    level_hit_times: np.ndarray | None = None
    chains: tuple[np.ndarray, np.ndarray] | None = None


# ---------------------------------------------------------------------------
# continuous-time ensembles: one event log and one branch primitive


@dataclass
class _Slots:
    """The slots of a continuous-time ensemble, each a path of the engine
    call it ran in.

    Slot k is path ``member[k]`` of the recorded call ``batches[batch[k]]``,
    which started it from row ``member[k]`` of that call's ``starts`` entry:
    the fresh start, or the row its parent was cut at, as the parent's log
    holds it.  ``end`` holds each slot's state where it stopped, from the
    engine's end states: after its last event, at its stop time ``t``.

    Only when whole histories are kept is ``line`` set, the slots'
    ancestral lines, of shape (3, refills, slots): ``line[:, f, k]`` is
    the call (an index into ``batches``) and the path there of slot k's
    ancestor at refill f, and the count of that path's own rows up to its
    cut then.  The count is 0 where the ancestor survived the refill, and
    an entry of count 0 reads no call.  Slot k's history is those rows,
    refill after refill, then its own rows in its call.
    """

    batches: list[lockstep.Recorded]
    starts: list[lockstep.Row]
    batch: np.ndarray
    member: np.ndarray
    end: lockstep.Row
    line: np.ndarray | None = None

    @classmethod
    def start(cls, ens: lockstep.JumpEnsemble, model: ModelParams, whole: bool) -> "_Slots":
        """Slot k holds path k of a recorded engine call from the fresh
        start; ``whole`` keeps whole histories."""
        n = len(ens.t)
        end = lockstep.Row(*(getattr(ens, name) for name in lockstep.Row._fields))
        line = np.zeros((3, 0, n), np.int64) if whole else None
        return cls([ens.recorded], [lockstep.initial_row(model)], np.zeros(n, np.intp),
                   np.arange(n), end, line)

    def cut(
        self, slots: np.ndarray, spec: EventSpec, level: float
    ) -> tuple[lockstep.Row, np.ndarray]:
        """Each slot's state at its cut and its own events up to it, from
        the calls the slots ran in (``lockstep.Recorded.cut``).  Every
        other slot is refilled from these cuts, so the calls keep the rows
        of these slots alone (``lockstep.Recorded.keep``), and of the paths
        their lines read: a clocked call's other rows are dropped before
        the refill batch runs."""
        member, batch = self.member[slots], self.batch[slots]
        # the places in ``slots`` of the slots of each call
        parts = [(0, slice(None))] if len(self.batches) == 1 else [
            (b, (batch == b).nonzero()[0]) for b in np.unique(batch)]
        if self.line is not None:
            call, path, count = self.line[:, :, slots]
            call, path = call[count > 0], path[count > 0]
        cuts = []
        for b, j in parts:
            keep = member[j] if self.line is None else np.union1d(member[j], path[call == b])
            self.batches[b].keep(keep)
            start = self.starts[b].take(member[j])
            cuts.append(self.batches[b].cut(member[j], start, spec, level))
        if len(cuts) == 1:
            return cuts[0]
        # the calls' cuts, put back at their slots' places
        order = np.argsort(np.concatenate([j for _, j in parts]))
        rows, counts = zip(*cuts)
        columns = (None if col[0] is None else np.concatenate(col)[order] for col in zip(*rows))
        return lockstep.Row(*columns), np.concatenate(counts)[order]

    def histories(self, slots: np.ndarray) -> lockstep.EventLog:
        """Path j of the log is slot ``slots[j]``'s history; only with whole
        histories kept.  Each call logs the paths read of it once."""
        n = len(slots)
        own = np.stack([self.batch[slots], self.member[slots], np.full(n, -1)])
        pieces = np.concatenate([self.line[:, :, slots], own[:, None]], axis=1)
        # each slot's pieces in turn, its own rows last (-1: all of them)
        call, path, length = pieces.transpose(0, 2, 1).reshape(3, -1)
        logs, first, rows = [], np.zeros(len(call), np.int64), 0
        for b, recorded in enumerate(self.batches):
            (q,) = ((call == b) & (length != 0)).nonzero()
            paths, at = np.unique(path[q], return_inverse=True)
            log = recorded.log(paths)
            first[q] = rows + log.offsets[at]
            length[q] = np.where(length[q] < 0, np.diff(log.offsets)[at], length[q])
            logs.append(log)
            rows += log.offsets[-1]
        log = lockstep.EventLog.join(logs, first, np.full(n, pieces.shape[1]), length)
        log.t_stop = self.end.t[slots]
        return log


def _level_cut(
    log: lockstep.EventLog, model: ModelParams, spec: EventSpec, level: float
) -> np.ndarray:
    """Per slot, how many history rows lead up to the event at which its
    progress (``event_progress``) first reaches ``ceil(level)``, that event
    included: on a final size, the decision where r does not reach it first.

    0 when the initial state already reaches it; one more than the slot's
    row count when it never does.  Progress never falls along a history, so
    the rows below the level are the leading ones.
    """
    lvl = math.ceil(level)
    start = event_progress(spec, lockstep.initial_row(model))
    return log.count(event_progress(spec, log) < lvl) + (start < lvl)


def _branch(
    slots: _Slots,
    surv: np.ndarray,
    targets: np.ndarray,
    parents: np.ndarray,
    model: ModelParams,
    spec: EventSpec,
    level: float,
    rng: np.random.Generator,
) -> _Slots:
    """Branch each target slot from its parent at a cut and simulate it onward.

    Every slot is a survivor, in the sorted ``surv``, or a target; the
    parents are survivors.  A parent's cut is the first event at which its
    progress reaches ``level`` or, on the time axis (``Duration``), its last
    event at or before the time ``level``; the calls the survivors ran in
    give their rows there (``_Slots.cut``).  A child starts from its
    parent's row after the cut, waited out to that time on the time axis
    (``lockstep.wait_out``) and at the cut event's time otherwise.  One
    batch (``lockstep.jump_ensemble``) simulates all children from these
    rows, and each child is a path of it; survivors stay paths of their
    calls, which keep the survivors' rows alone.  A call stays while a slot
    runs in it or a slot's line reads rows of it, and is dropped after.

    With whole histories kept, a child's line is its parent's, then the
    parent's call, path and count of its own rows up to the cut; a
    survivor's line gains an entry of no rows.
    """
    cut, count = slots.cut(surv, spec, level)
    # each target's parent's place in ``surv``
    at = np.searchsorted(surv, parents)
    start = cut.take(at)
    init = lockstep.wait_out(model, start, level) if isinstance(spec, Duration) else start
    ens = lockstep.jump_ensemble(model, None, rng, spec, init=init, record=True)

    batch, member = slots.batch.copy(), slots.member.copy()
    batch[targets] = len(slots.batches)
    member[targets] = np.arange(len(targets))
    used = np.zeros(len(slots.batches) + 1, bool)
    used[batch] = True
    line = slots.line
    if line is not None:
        # each slot's own line, or a target's parent's
        lineage = np.arange(len(batch))
        lineage[targets] = parents
        own = np.zeros(len(batch), np.int64)
        own[targets] = count[at]
        entry = np.stack([slots.batch[lineage], slots.member[lineage], own])
        line = np.concatenate([line[:, :, lineage], entry[:, None]], axis=1)
        used[line[0][line[2] > 0]] = True
    place = np.cumsum(used) - 1
    if line is not None:
        line[0] = place[line[0]]
    batches = [b for b, u in zip([*slots.batches, ens.recorded], used) if u]
    starts = [row for row, u in zip([*slots.starts, start], used) if u]
    end = {name: col.copy() for name, col in slots.end._asdict().items() if col is not None}
    for name, col in end.items():
        col[targets] = getattr(ens, name)
    return _Slots(batches, starts, place[batch], member, slots.end._replace(**end), line)


def _materialize(
    log: lockstep.EventLog,
    model: ModelParams,
    spec: EventSpec,
    levels: list[float],
    times: SeedSpec,
) -> ParticleEnsemble:
    """The final paths, weighted by whether they attain the event; a
    clock-free log first gets its times from the stream ``times``."""
    if log.t is None:
        log = lockstep.clock(log, model, times.generator())
    initial = lockstep.initial_row(model)
    every, length = np.arange(len(log.t_stop)), np.diff(log.offsets)
    hits = np.empty((len(length), len(levels)))
    for j, lvl in enumerate(levels):
        keep = _level_cut(log, model, spec, lvl)
        at = log.state_after(every, np.minimum(keep, length), initial).t
        hits[:, j] = np.where(keep > length, np.inf, at)
    # the last level is the threshold, or the run died and no path reached it
    attains = np.isfinite(hits[:, -1])
    return ParticleEnsemble(attains.astype(float), tuple(levels), log, hits)


def _stage_level(schedule, adaptive, scores, levels, spec: EventSpec) -> float:
    """The next stage's level: the schedule's next, or the adaptive rule's
    capped at the event threshold."""
    if schedule is not None:
        return float(schedule[len(levels)])
    return min(adaptive(scores, levels), float(event_threshold(spec)))


def _stage_loop(
    model: ModelParams, spec: EventSpec, n_particles: int, schedule: tuple[float, ...] | None,
    adaptive, variant: str, seed: SeedSpec, whole: bool,
) -> tuple[Estimate, ParticleEnsemble]:
    """One splitting run on a continuous-time event.

    Stage k's level is the ``schedule``'s k-th entry or, without a schedule,
    ``adaptive(scores, levels)`` from the slots' scores and the levels so
    far, capped at the event threshold (on the time axis, the horizon).  The
    run ends at the first stage whose level reaches the threshold, where a
    schedule ends (``ibps_check``, ``temporal_check``).  Every refill is
    ``_branch``.  ``whole`` keeps every slot's ancestral line, refills the
    last stage too and returns the final paths (``_materialize``), joined
    from the lines once, after the last refill; without it the last stage
    is not refilled, a child keeps only its parent's cut row before its own
    rows, and the ensemble holds only the levels.
    """
    on_time, threshold = isinstance(spec, Duration), event_threshold(spec)
    rng0 = seed.stream(particle=0, stage=0).generator()
    slots = _Slots.start(
        lockstep.jump_ensemble(model, n_particles, rng0, spec, record=True), model, whole
    )
    extinct = False
    per_level: list[float] = []
    levels: list[float] = []
    for stage in range(1, _STAGE_CAP + 1):
        if on_time:
            scores = np.where(slots.end.i == 0, slots.end.t, math.inf)
        else:
            scores = event_progress(spec, slots.end).astype(float)
        level = _stage_level(schedule, adaptive, scores, levels, spec)
        levels.append(level)
        final_stage = level >= threshold
        surv = scores > level if on_time else scores >= level
        n_surv = int(np.count_nonzero(surv))
        per_level.append(n_surv / n_particles)
        if n_surv == 0:
            # a time-axis run that dies only at the horizon has estimated 0
            extinct = not (final_stage and on_time)
            break
        (dead,) = (~surv).nonzero()
        if dead.size and (whole or not final_stage):
            sel_rng = seed.stream(particle=1, stage=stage).generator()
            (surv_idx,) = surv.nonzero()
            # the last stage's refill draws a parent per slot under either variant
            if variant == "keepall" and not final_stage:
                parents = np.full(dead.size, surv_idx[int(sel_rng.integers(0, surv_idx.size))])
            else:
                parents = surv_idx[sel_rng.integers(0, surv_idx.size, size=dead.size)]
            mut_rng = seed.stream(particle=0, stage=stage).generator()
            slots = _branch(slots, surv_idx, dead, parents, model, spec, level, mut_rng)
        if final_stage:
            break
    else:
        raise RuntimeError(
            "stage cap exceeded in " + ("temporal splitting" if on_time else "splitting run")
        )
    diag = Diagnostics(extinct_ensembles=int(extinct))
    estimate = Estimate(math.prod(per_level), per_level=tuple(per_level), diagnostics=diag)
    if not whole:
        return estimate, ParticleEnsemble(np.empty(0), tuple(levels))
    log = slots.histories(np.arange(n_particles))
    return estimate, _materialize(log, model, spec, levels, seed.stream(particle=2, stage=0))


# ---------------------------------------------------------------------------
# discrete-generation ensembles (Reed-Frost)


def _ibps_discrete(
    model: ReedFrostParams, spec: CumulativeInfections, n_particles: int,
    schedule: tuple[float, ...] | None, adaptive, weight_rule: str, alpha: float, seed: SeedSpec,
    whole: bool,
) -> tuple[Estimate, ParticleEnsemble]:
    """Generation-synchronized splitting for cumulative-infection events.

    Every generation selects all N slots anew from the weighted ensemble and
    advances them by one fresh transition (the whole future is re-simulated
    generation by generation anyway, so this is the only mutation needed).
    Each generation's level comes from ``schedule`` or from ``adaptive`` on
    the cumulative infection counts, as in ``_stage_loop``; the last
    generation is the event's.  ``whole`` returns the chains, which end at
    the last generation simulated, and the final weights."""
    t_end = spec.t
    n = n_particles
    S = np.zeros((n, t_end), dtype=np.int64)
    I = np.zeros((n, t_end), dtype=np.int64)
    S[:, 0] = model.s0
    I[:, 0] = model.i0
    cum = np.full(n, float(model.i0))
    log_w = np.zeros(n)
    log_mean_total = 0.0
    per_level: list[float] = []
    levels: list[float] = []
    for g in range(1, t_end):
        adv_rng = seed.stream(particle=0, stage=g).generator()
        S[:, g], I[:, g] = lockstep.rf_advance(S[:, g - 1], I[:, g - 1], model.q, adv_rng)
        cum += I[:, g]
        levels.append(_stage_level(schedule, adaptive, cum, levels, spec))
        surv = cum >= levels[-1]
        per_level.append(float(np.mean(surv)))
        if not surv.any():
            value, weights, extinct = 0.0, np.zeros(n), True
            S, I = S[:, : g + 1], I[:, : g + 1]
            break
        # log weights, the survivors' largest taken out before exp: a killed
        # slot weighs exp(-inf) = 0, and no weight overflows or underflows
        # (the indicator rule reads no alpha: at alpha = 0 every log weight is 0)
        log_omega = alpha * (I[:, g] - (I[:, g - 1] if weight_rule == "potential_dv" else 0))
        top = float(log_omega[surv].max())
        omega = np.exp(np.where(surv, log_omega - top, -np.inf))
        log_mean_total += top + math.log(float(np.mean(omega)))
        # Full weighted redraw of every slot: the genealogical normalization
        # requires expected offspring counts proportional to the weights,
        # which keeping survivors in place would break for non-flat weights.
        sel_rng = seed.stream(particle=1, stage=g).generator()
        probs = omega / omega.sum()
        parents = sel_rng.choice(n, size=n, p=probs)
        S[:, : g + 1] = S[parents, : g + 1]
        I[:, : g + 1] = I[parents, : g + 1]
        cum = cum[parents]
        # parents are survivors only
        log_w = log_w[parents] + log_omega[parents]
    else:
        ind = cum >= spec.n_c
        per_level.append(float(np.mean(ind)))
        if weight_rule == "indicator":
            value = math.prod(per_level)
        elif ind.any():
            # exp(log_mean_total) * mean(ind * exp(-log_w)), with the hits'
            # smallest log weight taken out of both factors
            low = float(log_w[ind].min())
            correction = float(np.mean(np.exp(np.where(ind, low - log_w, -np.inf))))
            value = math.exp(log_mean_total - low) * correction
        else:
            value = 0.0
        weights, extinct = ind.astype(float), False
    diag = Diagnostics(extinct_ensembles=int(extinct))
    estimate = Estimate(value, per_level=tuple(per_level), diagnostics=diag)
    if not whole:
        return estimate, ParticleEnsemble(np.empty(0), tuple(levels))
    return estimate, ParticleEnsemble(weights, tuple(levels), chains=(S, I))


# ---------------------------------------------------------------------------
# public estimators


def _check_splitting_run(n_particles: int, schedule, rule, names: tuple[str, str]) -> None:
    """Raise on what both splitting estimators reject: fewer than 2 particles,
    not exactly one of a schedule and an adaptive rule (their keywords
    ``names``), or a schedule that is not strictly increasing."""
    if n_particles < 2:
        raise ValueError("n_particles must be at least 2")
    if (schedule is None) == (rule is None):
        raise ValueError(f"provide exactly one of {names[0]} or {names[1]}")
    if schedule is not None and not all(b > a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"{names[0]} must be strictly increasing")


def ibps_check(
    model: ModelParams, spec: EventSpec, n_particles: int, schedule: tuple[float, ...] | None,
    keep_fraction: float | None, variant: str, weight_rule: str, alpha: float,
) -> None:
    """Raise on the arguments ``ibps_estimate`` rejects, among them a selection
    option set off its default on an event that does not read it
    (``ibps_unread``)."""
    _check_splitting_run(n_particles, schedule, keep_fraction, ("schedule", "keep_fraction"))
    if keep_fraction is not None and not 0.0 < keep_fraction < 1.0:
        raise ValueError("keep_fraction must lie in (0, 1)")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if weight_rule not in WEIGHT_RULES:
        raise ValueError(f"weight_rule must be one of {WEIGHT_RULES}")
    if not -math.inf < alpha < math.inf:  # NaN too
        raise ValueError(f"alpha must be finite: {alpha}")
    if isinstance(spec, Duration):
        raise ValueError("duration events split along the time axis; use temporal_split_estimate")
    if schedule is not None:
        if len(schedule) == 0:
            raise ValueError("a level schedule needs at least the target level")
        if schedule[-1] != event_threshold(spec):
            raise ValueError("last level must equal the event threshold")
        if isinstance(spec, CumulativeInfections) and len(schedule) != spec.t - 1:
            raise ValueError(
                "discrete schedules need exactly one level per selection generation"
            )
    set_off_default = {"variant": variant != "multinomial",
                       "weight_rule": weight_rule != "indicator", "alpha": alpha != 0.0}
    unread = {name: why for name, why in ibps_unread(spec, weight_rule).items()
              if set_off_default[name]}
    if unread:
        raise ValueError(f"ibps reads no {', '.join(unread)} on {spec}: "
                         + "; ".join(unread.values()))
    event_model_check(model, spec)


def ibps_estimate(
    model: ModelParams,
    spec: EventSpec,
    *,
    n_particles: int,
    schedule: tuple[float, ...] | None = None,
    keep_fraction: float | None = None,
    variant: str = "multinomial",
    weight_rule: str = "indicator",
    alpha: float = 0.0,
    seed: SeedSpec,
    conditional_sample: bool = True,
) -> tuple[Estimate, ParticleEnsemble]:
    """Interacting-branching-particle splitting estimate of a rare event.

    Levels are values of the event's progress (``events.event_progress``;
    the cumulative infections on a Reed-Frost event).  They come either from
    a fixed ``schedule``, a strictly increasing tuple ending at the event
    threshold (on Reed-Frost, one level per selection generation), or
    adaptively as the keep_fraction quantile of ensemble scores.  A run whose
    ensemble dies records the estimate 0 and one extinct ensemble; the 0 keeps
    across-replication averages unbiased.

    ``conditional_sample`` keeps every slot's whole history.  The returned
    ensemble then holds the final paths as columns (``ParticleEnsemble``),
    an empirical estimate of the law conditioned on the event.  With
    ``conditional_sample=False`` slots keep only what the level cuts read,
    and the ensemble holds no paths (the replication hot path does this).
    """
    ibps_check(model, spec, n_particles, schedule, keep_fraction, variant, weight_rule, alpha)
    discrete = isinstance(spec, CumulativeInfections)

    def adaptive(scores: np.ndarray, levels: list[float]) -> float:
        level = float(quantile_levels(scores, keep_fraction))
        if levels and level <= levels[-1]:
            if discrete:
                # no progress at the quantile: a generation keeps the previous level
                return levels[-1]
            # no progress at the quantile: the lowest score above the previous
            # level, or the target (the loop's cap) when no particle passes it
            above = scores[scores > levels[-1]]
            return float(above.min()) if above.size else math.inf
        return level

    if discrete:
        return _ibps_discrete(model, spec, n_particles, schedule, adaptive, weight_rule, alpha,
                              seed, conditional_sample)
    return _stage_loop(model, spec, n_particles, schedule, adaptive, variant, seed,
                       conditional_sample)


def temporal_check(
    model: ModelParams, horizon: float, n_particles: int, time_grid: tuple[float, ...] | None,
    keep_count: int | None,
) -> None:
    """Raise on the arguments ``temporal_split_estimate`` rejects."""
    _check_splitting_run(n_particles, time_grid, keep_count, ("time_grid", "keep_count"))
    if horizon == math.inf:
        raise ValueError("temporal splitting needs a finite horizon")
    if time_grid is not None:
        if len(time_grid) == 0:
            raise ValueError("time_grid must not be empty")
        if not time_grid[0] > 0:
            raise ValueError("time_grid entries must be positive")
        if not math.isclose(time_grid[-1], horizon) or any(t >= horizon for t in time_grid[:-1]):
            raise ValueError("time_grid must end at the horizon, its earlier times before it")
    if keep_count is not None and not 1 <= keep_count < n_particles:
        raise ValueError("keep_count must lie in [1, n_particles)")
    if not isinstance(model, (SirParams, HivParams)):
        raise TypeError("temporal splitting applies to the jump-process models")


def temporal_split_estimate(
    model: ModelParams,
    horizon: float,
    *,
    n_particles: int,
    time_grid: tuple[float, ...] | None = None,
    keep_count: int | None = None,
    seed: SeedSpec,
) -> Estimate:
    """Probability the epidemic outlives a finite ``horizon``, by splitting
    the time axis.

    Stage k keeps paths not extinct by t_k and refills the rest from uniform
    draws among the keepers, concatenated at t_k and re-simulated onward.  A
    ``time_grid`` is run with its last time set to the horizon.  The
    adaptive variant picks the next time point so that ``keep_count`` of the
    current paths survive it.  Extinction before the horizon is handled as in
    ``ibps_estimate``; no path outliving the horizon itself just estimates 0.
    """
    temporal_check(model, horizon, n_particles, time_grid, keep_count)
    schedule = None if time_grid is None else (*time_grid[:-1], horizon)

    def adaptive(scores: np.ndarray, levels: list[float]) -> float:
        # the keep_count-th largest extinction time; none past the previous
        # time ends the run at the horizon (the loop's cap)
        t_k = float(np.sort(scores)[-1 - keep_count])
        return t_k if t_k > (levels[-1] if levels else 0.0) else math.inf

    return _stage_loop(
        model, Duration(horizon), n_particles, schedule, adaptive, "multinomial", seed, False
    )[0]
