"""Vectorized ensemble simulation: many paths advanced in lockstep.

These engines simulate every path the package produces, tracking exactly the
per-path summaries the estimators need (running maxima, event counts, rate
integrals, and with ``record=True`` the rows of an event log).  A row is the
engine's own state of a path right after one of its events, recorded as the
loop holds it.  A call hands the rows back in the loop's order
(``Recorded``); grouping them by path into an ``EventLog`` happens on
request, for every path or for the few a caller reads.  Each path starts
from such a row (``Row``): ``initial_row``'s, or one a caller cut it at.

SIR and contact tracing share one loop, ``_jump_loop``, and plug into it
through their rate constants, ``_Rates``; only contact tracing, whose rates
decay between jumps, runs by thinning.  The loop keeps the live paths' state
compacted, a column per live path in path order, and drops paths as they
finish.  Each iteration draws uniforms for exactly the live paths: waiting
times, then (thinning only) acceptances, then event kinds, each in path
order.  ``tests/test_golden.py`` pins the outputs of this order.

An SIR call with no horizon and no window can run clock-free
(``clock_free=True``): it simulates only the embedded jump chain, which is
all a final-size event depends on, in a loop of its own, ``_chain_loop``.
On SIR the chance that an event is an infection, c*s/(c*s + gamma), does
not depend on i, so the removals between two infections are geometric: a
run.  Each iteration draws one block of standard exponentials, a row per
live path in path order and a column per run, up to 16 of them, and takes
every live path forward run by run, an infection closing each, until the
run it stops in.  The loop reads the runs' rates and every per-event tally
from one small table indexed by s.  Such a call has no times: its ``t`` and
its recorded ``t`` row are NaN.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (
    Axis, EventKind, HivParams, ReedFrostParams, Scaling, SimulationError, SirParams,
)

__all__ = [
    "EventLog", "JumpEnsemble", "Recorded", "Row", "hiv_ensemble", "initial_row", "rf_advance",
    "rf_chains", "rf_loglik", "sir_ensemble",
]

_ITERATION_CAP = 100_000_000
# the runs a clock-free iteration draws per path, at most: it takes a path
# forward by at most this many infections
_RUNS = np.arange(16)
# the least subnormal double
_LEAST = np.nextafter(0.0, 1.0)


class Row(NamedTuple):
    """Paths' state right after one of their events, or at their start, by
    event-log column, each one value for every path or one per path; None
    where there is no such column.  The engines start from a ``Row``."""

    s: np.ndarray | int
    i: np.ndarray | int
    r: np.ndarray | int
    t: np.ndarray | float
    max_i: np.ndarray | int
    decayed: np.ndarray | float | None = None
    window_rem: np.ndarray | int | None = None


@dataclass
class EventLog:
    """A batch of paths: their events as flat columns, grouped by path.

    Rows ``offsets[p]:offsets[p + 1]`` are path p's events in time order, and
    ``t_stop[p]`` is the time at which its simulation stopped.  Besides each
    event's time and kind, a row carries the path's state right after the
    event: compartment counts, the running maximum of infectives, the count
    of removals inside the stop window (``window_rem``, when the batch had
    one) and the decayed contact-tracing sum (``decayed``, contact tracing
    only).
    """

    path: np.ndarray
    t: np.ndarray
    kind: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    max_i: np.ndarray
    window_rem: np.ndarray | None
    decayed: np.ndarray | None
    offsets: np.ndarray
    t_stop: np.ndarray

    STATE = Row._fields

    def count(self, mask: np.ndarray) -> np.ndarray:
        """Per path, the number of its rows where ``mask`` holds."""
        return np.bincount(self.path[mask], minlength=len(self.offsets) - 1)

    def state_after(self, paths: np.ndarray, n_rows: np.ndarray, start: Row) -> Row:
        """State of path ``paths[j]`` after its first ``n_rows[j]`` rows;
        ``start``'s where ``n_rows[j]`` is 0."""
        has_rows = n_rows > 0
        rows = (self.offsets[paths] + n_rows - 1)[has_rows]
        state = {}
        for name in self.STATE:
            col = getattr(self, name)
            if col is not None:
                state[name] = np.full(len(paths), getattr(start, name), dtype=col.dtype)
                state[name][has_rows] = col[rows]
        return Row(**state)

    def take(
        self,
        paths: np.ndarray,
        start: np.ndarray | None = None,
        stop: np.ndarray | None = None,
        tail: "EventLog | None" = None,
    ) -> "EventLog":
        """Path j of the result: rows ``start[j]:stop[j]`` of this log's path
        ``paths[j]`` (all of its rows by default), then path j of ``tail``;
        it stops where path ``paths[j]`` does."""
        base = self.offsets[paths]
        head_start = base if start is None else base + start
        head_len = (self.offsets[paths + 1] if stop is None else base + stop) - head_start
        columns = {
            name: getattr(self, name)
            for name in ("kind", *self.STATE) if getattr(self, name) is not None
        }
        if tail is None:
            starts, lengths, per_path = head_start, head_len, head_len
        else:
            # path j's head range, then its tail range, in the joined columns
            tail_len = np.diff(tail.offsets)
            starts = np.column_stack([head_start, len(self.t) + tail.offsets[:-1]]).ravel()
            lengths = np.column_stack([head_len, tail_len]).ravel()
            per_path = head_len + tail_len
            columns = {
                name: np.concatenate([col, getattr(tail, name)])
                for name, col in columns.items()
            }
        offsets = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum(per_path, out=offsets[1:])
        ends = np.cumsum(lengths)
        rows = np.arange(offsets[-1]) + np.repeat(starts - ends + lengths, lengths)
        return dataclasses.replace(
            self,
            path=np.repeat(np.arange(len(paths)), per_path),
            offsets=offsets,
            t_stop=self.t_stop[paths],
            **{name: col[rows] for name, col in columns.items()},
        )


@dataclass
class Recorded:
    """The rows one recording engine call kept, in the loop's order.

    Row k of ``rows`` is the logged quantity ``names[k]`` of a path right
    after one of its events, as the loop held it: an event-log column
    (``Row``), or ``path``, the path's index in the call.  ``is_inf`` says
    whether the event was an infection; other events are of
    ``other_kind``.  A path's rows come in time order, interleaved with the
    other paths' rows; ``log`` groups them.
    """

    rows: np.ndarray
    names: tuple[str, ...]
    is_inf: np.ndarray
    other_kind: int
    t_stop: np.ndarray

    def log(self, paths: np.ndarray) -> EventLog:
        """The rows grouped by path: path j of the log holds the rows of this
        call's path ``paths[j]``, or none where that is -1 (its ``t_stop`` is
        then nan); no path may appear twice."""
        row = dict(zip(self.names, self.rows))
        # each call path's position in ``paths``; the extra last entry is
        # where -1 points, and stays -1
        at = np.full(len(self.t_stop) + 1, -1, dtype=np.intp)
        at[paths] = np.arange(len(paths))
        at[-1] = -1
        key = at[row["path"].astype(np.intp)]
        (picked,) = (key >= 0).nonzero()
        key = key[picked]
        n = len(paths)
        per_path = np.bincount(key, minlength=n)
        order = picked[np.argsort(key, kind="stable")]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per_path, out=offsets[1:])
        # one row at a time: a sorted copy of the whole block would double
        # the log's peak memory; counts come back as integers
        columns = {name: row[name][order].astype(
            float if name in ("t", "decayed") else np.int64, copy=False
        ) if name in row else None for name in EventLog.STATE}
        kind = np.where(
            self.is_inf[order], np.int8(EventKind.INFECTION.value), np.int8(self.other_kind)
        )
        return EventLog(
            path=np.repeat(np.arange(n), per_path), kind=kind, offsets=offsets,
            t_stop=np.append(self.t_stop, np.nan)[paths], **columns,
        )


@dataclass
class JumpEnsemble:
    """Per-path summaries of a batch of jump-process simulations.

    A recording call also hands back the rows it kept, ungrouped, as
    ``recorded``; ``log`` groups every path's rows on first use.

    A clock-free call keeps no time: ``t`` is NaN.  Its ``int_pair`` and
    ``int_i`` are conditional expectations given the jump chain, the sums
    over events of (pair_scale times) s/(c*s + gamma) and 1/(c*s + gamma).
    Given a base law, c and gamma are the base law's, and the sums are the
    conditional expectations of the two rate integrals times the whole
    path's likelihood ratio, divided by the chain's; without one, they are
    the integrals' own, at the simulated rates.  Given a base law, the call
    also sums ``log_rate_ratio``, over events, the log of the base over the
    simulated total event rate per infective,
    log((c_b*s + gamma_b)/(c*s + gamma)); None otherwise.
    """

    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    t: np.ndarray
    max_i: np.ndarray
    n_inf: np.ndarray
    n_rem: np.ndarray
    int_pair: np.ndarray
    int_i: np.ndarray
    window_rem: np.ndarray | None = None
    decayed: np.ndarray | None = None
    recorded: dataclasses.InitVar[Recorded | None] = None
    log_rate_ratio: dataclasses.InitVar[np.ndarray | None] = None

    def __post_init__(
        self, recorded: Recorded | None, log_rate_ratio: np.ndarray | None
    ) -> None:
        self.recorded = recorded
        self.log_rate_ratio = log_rate_ratio

    @cached_property
    def log(self) -> EventLog | None:
        return None if self.recorded is None else self.recorded.log(np.arange(len(self.t)))

    @property
    def extinct(self) -> np.ndarray:
        return self.i == 0

    def extinction_times(self) -> np.ndarray:
        """Last event time where extinct, inf elsewhere; a clock-free call
        has none."""
        if np.isnan(self.t).any():
            raise ValueError("a clock-free call keeps no times")
        return np.where(self.extinct, self.t, np.inf)


def initial_row(model: SirParams | HivParams) -> Row:
    """The state every fresh path starts from."""
    if isinstance(model, SirParams):
        return Row(model.s0, model.i0, 0, 0.0, model.i0, window_rem=0)
    decayed = float(sum(np.exp(-model.c * a) for a in model.initial_detection_ages))
    return Row(model.s0, model.i0, model.r0_count, 0.0, model.i0, decayed, 0)


@dataclass(frozen=True)
class _Rates:
    """The rates of one model: infections at ``coef * s * i``, removals
    (detections) at ``gamma * i + traced * i * decayed``.  With a ``decay``
    rate of the decayed sum the loop thins; without, every proposal is a
    jump and the loop can sum the rate integrals importance sampling needs,
    the pair integral scaled by ``pair_scale`` where there is one.

    The rates are held as 0-d arrays: numpy converts a Python float beside a
    row on every call, which the loop would pay each iteration."""

    coef: float
    gamma: float
    other_kind: int
    pair_scale: float | None = None
    traced: float = 0.0
    decay: float | None = None

    def __post_init__(self) -> None:
        for name in ("coef", "gamma", "pair_scale", "traced", "decay"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))


def _chain_table(rates: _Rates, base: _Rates | None, integrals: bool, n_s: int) -> np.ndarray:
    """Per run k = 0..15 of a chain iteration and susceptible count s in
    0..n_s-1, what the chain loop reads at s - k (at 0 past it): first the
    inverse of the rate -log(1 - p) of the removal runs there, where
    p = c*s/(c*s + gamma) is the chance that an event is an infection (inf
    where p is 0), then what a clock-free call adds up per event, the rate
    integrals' increments (with ``integrals``) and the log rate ratio
    against ``base`` (with one).

    An integral's increment is its expected growth over the holding time
    before the event, at the rates of ``base`` where there is one: given
    the chain, the whole path's ratio times a holding time has the mean of
    the holding time under the base law, so these are the conditional
    expectations of the integrals weighted by the ratio."""
    s = np.arange(n_s, dtype=float)
    per_infective = rates.coef * s + rates.gamma
    # 1 - p = gamma/(c*s + gamma), so -log(1 - p) = log1p(c*s/gamma)
    run_rate = np.log1p(rates.coef * s / rates.gamma)
    rows = [np.divide(1.0, run_rate, out=np.full(n_s, np.inf), where=run_rate > 0)]
    if integrals:
        law = rates if base is None else base
        holding = 1.0 / (law.coef * s + law.gamma)
        pair = s * holding
        if rates.pair_scale is not None:
            pair = pair * rates.pair_scale
        rows += [pair, holding]
    if base is not None:
        rows.append(np.log((base.coef * s + base.gamma) / per_infective))
    # mode clip reads s = 0 where s - k is negative
    return np.array(rows).take(np.arange(n_s) - _RUNS[:, None], axis=1, mode="clip")


def _block(start: Row, names: tuple[str, ...], n_paths: int | None) -> np.ndarray:
    """The paths' state, a row per quantity in ``names`` and a column per
    path of ``start`` (``n_paths`` if it holds scalars): its event-log
    columns, each path's index as ``path``, and 0 for the tallies."""
    n = len(start.s) if np.ndim(start.s) else int(n_paths)
    block = np.zeros((len(names), n))
    for row, name in zip(block, names):
        if name == "path":
            row[...] = np.arange(n)
        elif name in Row._fields:
            row[...] = getattr(start, name)
    return block


def _ensemble(out, finished, names, start: Row, log, other_kind: int) -> JumpEnsemble:
    """The call's ensemble: the ``finished`` columns, written back to
    ``out`` in path order, read by their ``names``; n_inf and n_rem count
    from ``start``."""
    done = np.concatenate(finished, axis=1)
    out[:, done[names.index("path")].astype(np.intp)] = done
    row = dict(zip(names, out))
    s, i, r, max_i = (row[name].astype(np.int64) for name in ("s", "i", "r", "max_i"))
    return JumpEnsemble(
        s, i, r, row["t"], max_i,
        np.asarray(start.s, dtype=np.int64) - s, r - np.asarray(start.r, dtype=np.int64),
        row.get("int_pair", np.zeros(len(s))), row.get("int_i", np.zeros(len(s))),
        row["window_rem"].astype(np.int64) if "window_rem" in row else None,
        row.get("decayed"),
        recorded=None if log is None else log.recorded(other_kind, row["t"]),
        log_rate_ratio=row.get("log_rate_ratio"),
    )


def _accumulate_runs(ufunc: np.ufunc, x: np.ndarray) -> None:
    """``ufunc`` accumulated down the rows of ``x``, in place.  numpy
    accumulates a short axis one column at a time, so a wide block goes
    row by row instead; a narrow one, in the tail of a batch, pays less for
    one call than for a call per row."""
    if x.shape[1] < 256:
        ufunc.accumulate(x, axis=0, out=x)
    else:
        for j in range(1, len(x)):
            ufunc(x[j], x[j - 1], out=x[j])


class _Log:
    """The rows a recording call keeps, one per logged quantity in
    ``names`` and event, and whether each row's event was an infection:
    one block per engine iteration, joined once when the call ends.  Both
    engine loops, ``_jump_loop`` and ``_chain_loop``, record through it.

    Blocks of the size each iteration fills, not one buffer sized ahead for
    the call and doubled when full: with such a buffer a recorded call's
    speed followed where the heap placed it, so on a 2-core Xeon VM one
    ibps-abakaliki process took 5.0 ms a replication and the next 6.5 ms at
    the same seed; with blocks, 5.1 to 5.6 ms."""

    def __init__(self, names: tuple[str, ...]) -> None:
        self.names = names
        self.rows: list[np.ndarray] = []
        self.flags: list[np.ndarray] = []

    def append(self, rows: np.ndarray, flags: np.ndarray) -> None:
        """Keep one iteration's ``rows``, a column per event, and ``flags``."""
        self.rows.append(rows)
        self.flags.append(flags)

    def recorded(self, other_kind: int, t_stop: np.ndarray) -> Recorded:
        """The kept rows in order, handed back as the call's ``Recorded``."""
        rows = np.concatenate([np.empty((len(self.names), 0)), *self.rows], axis=1)
        flags = np.concatenate([np.empty(0, bool), *self.flags])
        return Recorded(rows, self.names, flags, other_kind, t_stop)


def _jump_loop(
    rates: _Rates,
    model: SirParams | HivParams,
    n_paths: int | None,
    rng: np.random.Generator,
    *,
    init: Row | None = None,
    horizon: float = np.inf,
    target_axis: Axis | None = None,
    target_level: float | None = None,
    window: tuple[float, float] | None = None,
    record: bool = False,
    rate_integrals: bool = True,
) -> JumpEnsemble:
    """Advance paths from the rows ``init``, every column (max_i and the
    window's removals go on from there), or ``n_paths`` fresh ones, until
    each is extinct, at the horizon or at the target.

    ``block`` holds the live paths' state, a row per quantity and a column
    per path (counts are exact in float64); finished columns go to
    ``finished`` and are written back to ``out`` at the end.  With
    ``record``, each iteration appends the logged rows of the columns that
    jumped, after the jump, and whether each jump was an infection, to a
    ``_Log``.  A path with infectives and no event rate waits forever: it
    ends at the horizon, and without one fails the call.

    The loop runs once per event of the slowest path, mostly on a handful
    of live paths, so it keeps numpy's fixed cost per call down: constants
    are 0-d arrays, and it calls no ufunc with keywords."""
    thinning = rates.decay is not None
    start = initial_row(model) if init is None else init
    sums = rate_integrals and not thinning
    target = {Axis.INFECTED: 1, Axis.REMOVED: 2}.get(target_axis)
    horizon = np.array(horizon)
    if target is not None:
        target_level = np.array(target_level)
    if window is not None:
        opens, closes = np.array(window[0]), np.array(window[1])
    if thinning:
        neg_decay, slack = -rates.decay, np.array(1.0 + 1e-12)
    # the rows an event log keeps, decayed with thinning and the window's
    # removal count with a window; then the two rate integrals, when the
    # loop sums them
    logged = ("s", "i", "r", "t", "max_i", "path") + ("decayed",) * thinning + (
        "window_rem",) * (window is not None)
    names = logged + ("int_pair", "int_i") * sums
    out = _block(start, names, n_paths)
    log = _Log(logged) if record else None
    finished = [out[:, :0]]
    block = out
    # views of the block's rows, taken again only when the block is compacted
    s, i, r, t, max_i, path, *extra = block
    for _ in range(_ITERATION_CAP + 1):
        alive = i > 0
        alive &= t < horizon
        if target is not None:
            alive &= block[target] < target_level
        (keep,) = alive.nonzero()
        if keep.size < block.shape[1]:
            finished.append(block.take((~alive).nonzero()[0], axis=1))
            block = block.take(keep, axis=1)
            s, i, r, t, max_i, path, *extra = block
        if not keep.size:
            break
        decayed = extra[0] if thinning else None
        rate_inf = rates.coef * s * i
        rate_rem = rates.gamma * i
        if thinning:
            # the rate at the last jump bounds the rate until the next
            traced = rates.traced * i
            rate_tot = rate_inf + rate_rem + traced * decayed
        else:
            rate_tot = rate_inf + rate_rem
        u = rng.random((3 if thinning else 2, keep.size))
        t_new = t - np.log1p(-u[0]) / rate_tot
        t_next = np.minimum(t_new, horizon)
        dt = t_next - t
        jump = t_new <= horizon
        if thinning:
            bound = rate_tot
            decayed *= np.exp(neg_decay * dt)
            rate_tot = rate_inf + (rate_rem + traced * decayed)
            if (rate_tot > bound * slack).any():
                raise AssertionError("thinning bound fell below the instantaneous rate")
            jump &= u[1] * bound < rate_tot
        if sums:
            pair = s * i * dt
            extra[-2] += pair if rates.pair_scale is None else pair * rates.pair_scale
            extra[-1] += i * dt
        is_inf = u[-1] * rate_tot < rate_inf
        t[...] = t_next
        inf, rem = jump & is_inf, jump > is_inf
        s -= inf
        i += inf
        i -= rem
        r += rem
        max_i[...] = np.maximum(max_i, i)
        if thinning:
            decayed += rem
        if window is not None:
            extra[thinning] += rem & (t > opens) & (t <= closes)
        if record:
            log.append(block[:len(logged)].compress(jump, axis=1), is_inf[jump])
    else:
        raise SimulationError("iteration cap exceeded in ensemble simulation")

    ens = _ensemble(out, finished, names, start, log, rates.other_kind)
    if np.isinf(ens.t).any():
        raise SimulationError("a path can never end: it has infectives but no event rate")
    return ens


def _chain_loop(
    rates: _Rates,
    model: SirParams,
    n_paths: int | None,
    rng: np.random.Generator,
    *,
    init: Row | None = None,
    horizon: float = np.inf,
    target_axis: Axis | None = None,
    target_level: float | None = None,
    window: tuple[float, float] | None = None,
    record: bool = False,
    rate_integrals: bool = True,
    base: _Rates | None = None,
) -> JumpEnsemble:
    """Advance the embedded jump chains of SIR paths from the rows
    ``init``, ignoring their times, or of ``n_paths`` fresh ones, until
    each is extinct or at the removal target, ceil(``target_level``).
    Given a ``base`` law's rates, the loop also sums the log rate ratio.

    At s susceptibles an event is an infection with a chance p(s) that
    does not depend on i, so the removals before the next infection are
    Geometric(p(s)): a run.  Each iteration draws one block of standard
    exponentials in path order, a row per live path and ``width`` =
    min(16, s + 1) columns for the largest live s; column k is the run at
    s - k, of length floor(E / -log(1 - p(s - k))), which never ends where p
    is 0 (past s = 0 too, so no column beyond is ever read).  A path takes
    the runs in turn, each closed by an infection, until the first run that
    holds all the removals it has room for, min(i, target - r), and stops
    inside it.  So every iteration ends a path or takes ``width`` infection
    steps from it, and the loop needs no iteration cap.  The tallies add,
    per run, its events times the table's per-event terms at its s.

    ``block`` holds the live paths' state as in ``_jump_loop``; the
    iteration's own arrays hold a row per run and a column per live path.
    With ``record``, each iteration appends one row per event, path by
    path, each run's removals then its infection."""
    if horizon < np.inf or window is not None:
        raise ValueError("a clock-free call takes no horizon or window")
    if target_axis not in (None, Axis.REMOVED):
        raise ValueError("a clock-free call stops only at a removal target")
    start = initial_row(model) if init is None else init
    # the rows an event log keeps; then the two rate integrals, when the
    # loop sums them, and the log rate ratio (base law)
    names = ("s", "i", "r", "t", "max_i", "path") + ("int_pair", "int_i") * rate_integrals + (
        "log_rate_ratio",) * (base is not None)
    out = _block(start, names, n_paths)
    out[3] = np.nan
    s_max = int(out[0].max(initial=0))
    table = _chain_table(rates, base, rate_integrals, s_max + 1)
    run_scale, terms = table[0], table[1:]
    target = np.array(np.inf if target_axis is None else np.ceil(target_level), dtype=float)
    log = _Log(names[:6]) if record else None
    finished = [out[:, :0]]
    block = out
    s, i, r, _, max_i = block[:5]
    # a path with s susceptibles ends within s // 16 + 1 iterations
    for _ in range(s_max // len(_RUNS) + 2):
        alive = (i > 0) & (r < target)
        (keep,) = alive.nonzero()
        if keep.size < block.shape[1]:
            finished.append(block.take((~alive).nonzero()[0], axis=1))
            block = block.take(keep, axis=1)
            s, i, r, _, max_i = block[:5]
        if not keep.size:
            break
        width = min(len(_RUNS), int(s.max()) + 1)
        draws = rng.standard_exponential((keep.size, width))
        # a zero draw would meet an inf scale where p is 0; the least
        # subnormal keeps that run endless and changes no other
        draws += _LEAST
        steps, removals, done, rise = _take_runs(block, draws, run_scale, terms, target)
        if record:
            _record_runs(log, block, steps, removals, done, rise)
        # a path that takes no run whole reads run 0, where i + rise is at most i
        top = rise.ravel()[np.maximum(steps - 1, 0) * keep.size + np.arange(keep.size)]
        np.maximum(max_i, i + top, out=max_i)
        s -= steps
        i += steps - removals
        r += removals
        # freed before the next block is drawn: held over, they cost about 6%
        # of a ce-abakaliki replication, through how the heap grows
        del draws, steps, removals, done, rise, top
    else:
        raise AssertionError("a chain iteration neither ended a path nor took 16 infections")

    return _ensemble(out, finished, names, start, log, rates.other_kind)


def _take_runs(block, draws, run_scale, terms, target):
    """The runs of the paths in ``block`` from their ``draws``, a row per path
    and a column per run; adds their tallies to ``block``.  Returns, per
    path, its infections (``steps``) and removals, and per run and path,
    the removals ``done`` through the run and ``rise``, the most that i has
    risen over its start right after the infections closing this run and
    those before it, read only for the runs the path takes whole."""
    m, width = draws.shape
    s, i, r = block[:3]
    at = s.astype(np.intp)
    k = _RUNS[:width, None]
    done = run_scale[:width].take(at, axis=1)
    done *= draws.T
    np.floor(done, out=done)
    # removals through each run, inf from the first that never ends
    _accumulate_runs(np.add, done)
    # the removals a path has room for up to the infection closing run k;
    # it takes each run whole until one does not fit
    room = np.minimum(i + k, target - r)
    whole = done < room
    _accumulate_runs(np.logical_and, whole)
    steps = whole.sum(axis=0)
    # removals through each run, capped at the room of the run the path
    # stops in (or at its last run, where it takes them all)
    capped = np.minimum(done, room, out=room)
    removals = capped.ravel()[np.minimum(steps, width - 1) * m + np.arange(m)]
    rise = (k + 1) - done
    _accumulate_runs(np.maximum, rise)
    if len(terms):
        through = np.zeros((width + 1, m))
        np.minimum(capped, removals, out=through[1:])
        events = through[1:] - through[:-1]
        events += whole
        block[6:] += np.einsum("tkm,km->tm", terms[:, :width].take(at, axis=2), events)
    return steps, removals, done, rise


def _record_runs(log, block, steps, removals, done, rise):
    """Append to ``log`` one row per event of the paths in ``block`` through
    their runs, path by path: each run's removals, then the infection
    closing it, for the ``steps`` runs a path takes whole.  Per path,
    ``steps`` and ``removals`` count its infections and removals; per run
    and path, ``done`` counts the removals through the run and ``rise`` is
    the most that i has risen over its start after the infection."""
    m = len(steps)
    per_path = (steps + removals).astype(np.intp)
    last = np.cumsum(per_path)
    state, is_inf = np.empty((len(log.names), int(last[-1]))), np.empty(int(last[-1]), bool)
    log.append(state, is_inf)
    first, before = last - per_path, np.cumsum(steps) - steps
    # the path's k infections and the removals through run k come before
    # the infection closing it
    p = np.repeat(np.arange(m), steps)
    k = np.arange(len(p)) - np.repeat(before, steps)
    is_inf[:] = False
    is_inf[np.repeat(first, steps) + k + done.ravel()[k * m + p].astype(np.intp)] = True
    # per event, the infections so far, over all paths, and the events that
    # were not; a path's own are these less their values before its first
    # event
    infections = is_inf.astype(float)
    np.cumsum(infections, out=infections)
    others = np.arange(1.0, len(is_inf) + 1) - infections
    s, i, r, _, max_i, path = block[:6]
    np.subtract(np.repeat(s + before, per_path), infections, out=state[0])
    np.add(np.repeat(i + first - 2 * before, per_path), infections - others, out=state[1])
    np.add(np.repeat(r - first + before, per_path), others, out=state[2])
    state[3] = np.nan
    # after a path's j-th infection here, the most of i it has held
    running = np.empty((len(rise) + 1, m))
    running[0] = max_i
    np.add(rise, i, out=running[1:])
    np.maximum(running[1:], max_i, out=running[1:])
    at = np.repeat(np.arange(m) - before * m, per_path) + infections * m
    np.take(running.ravel(), at.astype(np.intp), out=state[4])
    state[5] = np.repeat(path, per_path)


def _sir_rates(params: SirParams) -> _Rates:
    mass_action = params.scaling is Scaling.MASS_ACTION
    return _Rates(
        coef=params.lam / params.population if mass_action else params.lam,
        gamma=params.gamma,
        other_kind=EventKind.REMOVAL.value,
        pair_scale=1.0 / params.population if mass_action else None,
    )


def sir_ensemble(
    params: SirParams,
    n_paths: int | None,
    rng: np.random.Generator,
    *,
    init: Row | None = None,
    base: SirParams | None = None,
    **stop,
) -> JumpEnsemble:
    """Advance an ensemble of SIR paths to extinction, horizon, or target.

    ``stop`` takes the keywords ``horizon``, ``target_axis``,
    ``target_level``, ``window``, ``record``, ``rate_integrals`` (False
    leaves ``int_pair`` and ``int_i`` at zero, for callers that do not
    weight paths, and saves the loop two sums) and ``clock_free`` (simulate
    the jump chain alone, one run of removals and its closing infection at
    a time, up to 16 per path per iteration, in ``_chain_loop``; no horizon
    or window, and no target but a removal count).  A clock-free call given
    the ``base`` law also sums ``log_rate_ratio`` against it.  ``init``
    holds event-log rows, one per path, to continue cut paths from (a
    clock-free call ignores their times); otherwise paths start fresh.
    """
    rates = _sir_rates(params)
    if stop.pop("clock_free", False):
        base_rates = None if base is None else _sir_rates(base)
        return _chain_loop(rates, params, n_paths, rng, init=init, base=base_rates, **stop)
    if base is not None:
        raise ValueError("a base law's rate ratio is summed only by a clock-free call")
    return _jump_loop(rates, params, n_paths, rng, init=init, **stop)


def hiv_ensemble(
    params: HivParams,
    n_paths: int | None,
    rng: np.random.Generator,
    *,
    init: Row | None = None,
    **stop,
) -> JumpEnsemble:
    """Advance contact-tracing paths by thinning, in lockstep.

    State carries, per path, the decayed contact-tracing sum
    sum(exp(-c * age)); between jumps it only decays, so the rate at the
    last jump bounds the rate until the next and rejected proposals simply
    re-tighten the bound.  ``stop`` and ``init`` are read as by
    ``sir_ensemble``, ``init``'s ``decayed`` too.
    """
    if stop.pop("clock_free", False):
        raise ValueError("contact tracing has no clock-free mode: its removals need a clock")
    rates = _Rates(
        coef=params.lam, gamma=params.gamma1, other_kind=EventKind.DETECTION.value,
        traced=params.gamma2, decay=params.c,
    )
    # with no spontaneous detection a path can be left with infectives and no
    # event rate, and draws an infinite wait (with c = 0, a NaN decay factor)
    quiet = np.errstate(divide="ignore", invalid="ignore")
    loop = _jump_loop if params.gamma1 > 0 else quiet(_jump_loop)
    return loop(rates, params, n_paths, rng, init=init, **stop)


def rf_advance(
    s: np.ndarray, i: np.ndarray, q: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One Reed-Frost generation for an ensemble of (s, i) states."""
    p_infect = -np.expm1(i * np.log(q)) if q < 1.0 else np.zeros(len(i))
    new_inf = rng.binomial(s, p_infect)
    return s - new_inf, new_inf


def rf_chains(
    params: ReedFrostParams, t_max: int, n_paths: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate n_paths Reed-Frost chains; returns (S, I) arrays of shape
    (n_paths, t_max + 1)."""
    S = np.zeros((n_paths, t_max + 1), dtype=np.int64)
    I = np.zeros((n_paths, t_max + 1), dtype=np.int64)
    S[:, 0] = params.s0
    I[:, 0] = params.i0
    for g in range(t_max):
        S[:, g + 1], I[:, g + 1] = rf_advance(S[:, g], I[:, g], params.q, rng)
    return S, I


def rf_loglik(S: np.ndarray, I: np.ndarray, q: float) -> np.ndarray:
    """Log-likelihood of each Reed-Frost chain under escape probability q.

    Generations with no infectives contribute nothing.  q = 1 sends any chain
    with a subsequent infection to -inf.
    """
    # imported on use: only Reed-Frost needs it, and `import epirare` stays numpy-only
    from scipy.special import gammaln

    s_t, i_t, i_next = S[:, :-1], I[:, :-1], I[:, 1:]
    live = i_t > 0
    out = np.zeros(S.shape[0])
    if q >= 1.0:
        out[np.any(live & (i_next > 0), axis=1)] = -np.inf
        return out
    log_q = np.log(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.log(-np.expm1(i_t * log_q))
        comb = gammaln(s_t + 1) - gammaln(i_next + 1) - gammaln(s_t - i_next + 1)
        terms = comb + i_next * log_p + (s_t - i_next) * i_t * log_q
    terms = np.where(live, terms, 0.0)
    # absorbed rows produce 0 * log(0) above; anything left is a true log(0)
    terms = np.where(np.isnan(terms), -np.inf, terms)
    return terms.sum(axis=1)
