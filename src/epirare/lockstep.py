"""Vectorized ensemble simulation: many paths advanced in lockstep.

These engines simulate every path the package produces, tracking exactly the
per-path summaries the estimators need (running maxima, event counts, rate
integrals, and with ``record=True`` what an event log needs).  A row is the
engine's own state of a path right after one of its events, as the loop
holds it.  A call hands back what it recorded in the loop's order
(``Recorded``); grouping it by path into an ``EventLog`` happens on
request, for every path or for the few a caller reads.  Each path starts
from such a row (``Row``): ``initial_row``'s, or one a caller cut it at.
A call stops each path where the event it is given is decided, at
extinction without one, and tallies what the likelihood ratio against its
``base`` law needs, given one.  A final size is decided once r + i, the
count ever infected, reaches its threshold, and a diagnoses increment once
the window's removals reach theirs (``_stop``).  Every jump-process batch
from outside this module goes through one entry, ``jump_ensemble``, which
picks the model's engine; ``wait_out`` takes rows on to a time with no event.

SIR and contact tracing share one loop, ``_jump_loop``, and plug into it
through their rate constants, ``_Rates``; only contact tracing, whose rates
decay between jumps, runs by thinning.  The loop keeps the live paths' state
compacted, a column per live path in path order, and writes each path's
column into the call's output as it finishes.  Each iteration draws
uniforms for exactly the live paths: waiting times, then (thinning only)
acceptances, then event kinds, each in path order.  ``tests/test_golden.py``
pins the outputs of this order.  Once at most ``_NARROW`` paths are live,
the loop goes on in Python floats (``_narrow_loop``), where a numpy call
would cost more than its few columns' arithmetic: the same draws and the
same IEEE operations in the same order, so the same bytes, and one kept
block for all of those iterations.

An SIR final size depends on the embedded jump chain alone, so that call
runs clock-free, in a loop of its own, ``_chain_loop``.  On SIR the chance
that an event is an infection, c*s/(c*s + gamma), does not depend on i, so
the removals between two infections are geometric: a run.  Each iteration
draws one block of standard exponentials, a row per live path in path
order and a column per run, up to 4 of them in a call's first iteration,
where most paths end, and up to 16 in every later one, and takes every live
path forward run by run, an infection closing each, until the run it stops
in.  It takes the live paths in column chunks of at most ``_CHUNK``, each
drawing its own rows of that block, in one work area per thread that
outlives the call.  The loop reads the runs' rates and every per-event
tally from one small table indexed by s.  Recording, it keeps its runs
rather than rows, and a log expands into rows only the runs of the paths
it is asked for.  Such a call has no times: its ``t`` is NaN and its log
has no ``t`` column, until ``clock`` draws them given the chain.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import EventKind, HivParams, ReedFrostParams, Scaling, SimulationError, SirParams
from .events import DiagnosesIncrement, Duration, EventSpec, FinalSize, Incidence

__all__ = [
    "EventLog", "JumpEnsemble", "Recorded", "Row", "clock", "hiv_ensemble", "initial_row",
    "jump_ensemble", "rf_advance", "rf_chains", "rf_loglik", "sir_ensemble", "wait_out",
]

_ITERATION_CAP = 100_000_000
# the runs a clock-free iteration draws per path, at most: it takes a path
# forward by at most this many infections
_RUNS = np.arange(16)
# the runs a call's first clock-free iteration draws per path, at most: most
# paths end within their first few
_FIRST_RUNS = 4
# the least subnormal double
_LEAST = np.nextafter(0.0, 1.0)
# the clock-free columns a log expands at once
_PIECE = 4096
# the live columns a clock-free iteration takes at once, at most
_CHUNK = 2048
# the live paths at or below which the clocked loop goes on in Python floats
_NARROW = 16


class Row(NamedTuple):
    """Paths' state right after one of their events, or at their start, by
    event-log column, each one value for every path or one per path; None
    where there is no such column (``t`` on a clock-free log).  The engines
    start from a ``Row``; a clock-free call reads no ``t``."""

    s: np.ndarray | int
    i: np.ndarray | int
    r: np.ndarray | int
    t: np.ndarray | float | None
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
    only).  A clock-free batch has no times: ``t`` is None and ``t_stop``
    NaN.
    """

    path: np.ndarray
    t: np.ndarray | None
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
        ``start``'s where ``n_rows[j]`` is 0; None where the log has no such
        column."""
        has_rows = n_rows > 0
        rows = (self.offsets[paths] + n_rows - 1)[has_rows]
        state = dict.fromkeys(self.STATE)
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
        if tail is not None and not len(tail.path):
            tail = None  # nothing to join
        base = self.offsets[paths]
        head_start = base if start is None else base + start
        head_len = (self.offsets[paths + 1] if stop is None else base + stop) - head_start
        tail_len = 0 if tail is None else np.diff(tail.offsets)
        per_path = head_len + tail_len
        offsets = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum(per_path, out=offsets[1:])
        names = [name for name in ("kind", *self.STATE) if getattr(self, name) is not None]
        head_rows = _ranges(head_start, head_len)
        if tail is None:
            columns = {name: getattr(self, name)[head_rows] for name in names}
        else:
            # path j's head rows, then its tail rows, each gathered from its
            # own columns straight into place
            head_at = _ranges(offsets[:-1], head_len)
            tail_at = _ranges(offsets[:-1] + head_len, tail_len)
            tail_rows = _ranges(tail.offsets[:-1], tail_len)
            columns = {}
            for name in names:
                head, rest = getattr(self, name), getattr(tail, name)
                column = columns[name] = np.empty(offsets[-1], np.result_type(head, rest))
                column[head_at] = head[head_rows]
                column[tail_at] = rest[tail_rows]
        return dataclasses.replace(
            self,
            path=np.repeat(np.arange(len(paths)), per_path),
            offsets=offsets,
            t_stop=self.t_stop[paths],
            **columns,
        )


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices starts[j], ..., starts[j] + lengths[j] - 1, range after
    range."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


@dataclass
class Recorded:
    """What one recording engine call kept of its paths' events, in the
    loop's order, an entry of ``kept`` per iteration (on a clock-free call,
    per chunk of an iteration; on a clocked one, one for all the iterations
    of its narrow phase, ``_narrow_loop``); ``log`` groups it by path.

    A clocked call keeps rows: per iteration, a block whose row k is the
    logged quantity ``names[k]`` of the paths that jumped, right after the
    jump, an event-log column (``Row``) or ``path``, the path's index in the
    call, and whether each jump was an infection.  A path's rows come in
    time order, interleaved with the other paths' rows.  The blocks are
    joined when a log is first read, and kept joined, so a call no log
    reads never joins them.

    A clock-free call, one without ``t`` in ``names``, keeps its runs
    instead: per chunk of an iteration, the chunk's paths' rows ``names``
    at its start and, of ``_take_runs``' outputs, each path's infections
    and removals and the removals through each of its runs, a row per run
    of the iteration's block (at most 4 in the first iteration, 16 in
    later ones).  ``log`` expands into rows only the runs of the paths it
    is asked for, so rows nobody reads are never made.

    Arrays of the size each iteration fills, not one buffer sized ahead for
    the call and doubled when full: with such a buffer a recorded call's
    speed followed where the heap placed it, so on a 2-core Xeon VM one
    ibps-abakaliki process took 5.0 ms a replication and the next 6.5 ms at
    the same seed, when the chain loop still kept rows; with one block per
    iteration, 5.1 to 5.6 ms.

    Events other than infections are of ``other_kind``; ``t_stop`` holds
    the time each path stopped at, NaN on a clock-free call.
    """

    names: tuple[str, ...]
    other_kind: int
    kept: list[tuple[np.ndarray, ...]] = dataclasses.field(default_factory=list)
    t_stop: np.ndarray | None = None

    def log(self, paths: np.ndarray) -> EventLog:
        """The rows grouped by path: path j of the log holds the rows of this
        call's path ``paths[j]``, or none where that is -1 (its ``t_stop`` is
        then nan); no path may appear twice."""
        # each call path's position in ``paths``; the extra last entry is
        # where -1 points, and stays -1
        at = np.full(len(self.t_stop) + 1, -1, dtype=np.intp)
        at[paths] = np.arange(len(paths))
        at[-1] = -1
        n = len(paths)
        if "t" in self.names:
            per_path, columns, is_inf = self._group(at, n)
        else:
            per_path, columns, is_inf = _expand_runs(self.kept, at, n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per_path, out=offsets[1:])
        kind = np.where(is_inf, np.int8(EventKind.INFECTION.value), np.int8(self.other_kind))
        return EventLog(
            path=np.repeat(np.arange(n), per_path), kind=kind, offsets=offsets,
            t_stop=np.append(self.t_stop, np.nan)[paths],
            **{name: columns.get(name) for name in EventLog.STATE},
        )

    def _group(self, at: np.ndarray, n: int) -> tuple[np.ndarray, dict, np.ndarray]:
        """The kept rows of the paths at ``at`` >= 0, sorted by that place:
        their count per place, their columns and their infection flags."""
        rows = np.concatenate(
            [np.empty((len(self.names), 0)), *(block for block, _ in self.kept)], axis=1
        )
        is_inf = np.concatenate([np.empty(0, bool), *(flags for _, flags in self.kept)])
        # kept joined: the blocks are freed before the columns are taken, so
        # a read does not hold both copies, and a second read joins nothing
        self.kept = [(rows, is_inf)]
        row = dict(zip(self.names, rows))
        key = at[row["path"].astype(np.intp)]
        (picked,) = (key >= 0).nonzero()
        key = key[picked]
        order = picked[np.argsort(key, kind="stable")]
        # one row at a time: a sorted copy of the whole block would double
        # the log's peak memory; counts come back as integers
        columns = {name: row[name][order].astype(
            float if name in ("t", "decayed") else np.int64, copy=False
        ) for name in EventLog.STATE if name in row}
        return np.bincount(key, minlength=n), columns, is_inf[order]


@dataclass
class JumpEnsemble:
    """Per-path summaries of a batch of jump-process simulations.

    A recording call also hands back what it kept, ungrouped, as
    ``recorded``; ``log`` groups every path's rows on first use.

    ``int_pair`` and ``int_i`` are summed only by a call given a base law,
    and are 0 otherwise.  A clocked call sums the rate integrals of its own
    paths.  A clock-free call keeps no time: ``t`` is NaN.  Its ``int_pair``
    and ``int_i`` are the sums over events of (pair_scale times)
    s/(c_b*s + gamma_b) and 1/(c_b*s + gamma_b), at the base law's rates:
    the conditional expectations, given the jump chain, of the two rate
    integrals times the whole path's likelihood ratio, divided by the
    chain's.  It also sums ``log_rate_ratio``, over events, the log of the
    base over the simulated total event rate per infective,
    log((c_b*s + gamma_b)/(c*s + gamma)); None on every other call.
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


def wait_out(model: SirParams | HivParams, row: Row, t: float) -> Row:
    """``row`` waited out to the time ``t``: contact tracing's sum decays on to it."""
    if row.decayed is not None:
        row = row._replace(decayed=row.decayed * np.exp(-model.c * (t - row.t)))
    return row._replace(t=np.full(len(row.s), t))


@dataclass(frozen=True)
class _Rates:
    """The rates of one model: infections at ``coef * s * i``, removals
    (detections) at ``gamma * i + traced * i * decayed``.  With a ``decay``
    rate of the decayed sum the loop thins; without, every proposal is a
    jump and the loop can sum the rate integrals importance sampling needs,
    the pair integral scaled by ``pair_scale`` (1 without mass action).

    The rates are held as 0-d arrays: numpy converts a Python float beside a
    row on every call, which the loop would pay each iteration."""

    coef: float
    gamma: float
    other_kind: int
    pair_scale: float = 1.0
    traced: float = 0.0
    decay: float | None = None

    def __post_init__(self) -> None:
        for name in ("coef", "gamma", "pair_scale", "traced", "decay"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))


def _chain_table(rates: _Rates, base: _Rates | None, n_s: int) -> np.ndarray:
    """Per run k = 0..15 of a chain iteration and susceptible count s in
    0..n_s-1, what the chain loop reads at s - k (at 0 past it): first the
    inverse of the rate -log(1 - p) of the removal runs there, where
    p = c*s/(c*s + gamma) is the chance that an event is an infection (inf
    where p is 0), then, given a ``base`` law, what the call adds up per
    event: the rate integrals' increments and the log rate ratio against it.

    An integral's increment is its expected growth over the holding time
    before the event, at the base law's rates: given the chain, the whole
    path's ratio times a holding time has the mean of the holding time
    under the base law, so these are the conditional expectations of the
    integrals weighted by the ratio."""
    s = np.arange(n_s, dtype=float)
    # 1 - p = gamma/(c*s + gamma), so -log(1 - p) = log1p(c*s/gamma)
    run_rate = np.log1p(rates.coef * s / rates.gamma)
    rows = [np.divide(1.0, run_rate, out=np.full(n_s, np.inf), where=run_rate > 0)]
    if base is not None:
        per_infective = base.coef * s + base.gamma
        holding = 1.0 / per_infective
        pair = s * holding * rates.pair_scale
        rows += [pair, holding, np.log(per_infective / (rates.coef * s + rates.gamma))]
    # mode clip reads s = 0 where s - k is negative
    return np.array(rows).take(np.arange(n_s) - _RUNS[:, None], axis=1, mode="clip")


def _block(start: Row, names: tuple[str, ...], n_paths: int | None) -> np.ndarray:
    """The paths' state, a row per quantity in ``names`` and a column per
    path of ``start`` (``n_paths`` if it holds scalars): its event-log
    columns, each path's index as ``path``, and 0 for the tallies and the
    columns ``start`` does not have."""
    n = len(start.s) if np.ndim(start.s) else int(n_paths)
    block = np.zeros((len(names), n))
    for row, name in zip(block, names):
        if name == "path":
            row[...] = np.arange(n)
        elif getattr(start, name, None) is not None:
            row[...] = getattr(start, name)
    return block


class _WorkArea(threading.local):
    """A thread's work array for the chain loop, kept from call to call and
    grown to the most a chunk has asked of it.  Made fresh each iteration,
    the loop's (16, m) arrays had glibc hand their pages back to the system
    and fault them in again: 640-840 minor page faults per ce-abakaliki
    replication on a 2-core Xeon VM, and none with this area.  Each thread
    has its own, so calls in parallel threads never share one."""

    def __init__(self) -> None:
        self.flat = np.empty(0)

    def floats(self, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous float array of ``shape``, holding whatever the
        last caller left."""
        n = math.prod(shape)
        if n > len(self.flat):
            self.flat = np.empty(n)
        return self.flat[:n].reshape(shape)


_WORK = _WorkArea()


def _compact(out: np.ndarray, block: np.ndarray, alive: np.ndarray, path: int):
    """The indices of the ``alive`` columns of ``block`` and a block of just
    those; each other column is finished and goes to ``out``, at its path."""
    (keep,) = alive.nonzero()
    if keep.size < block.shape[1]:
        gone = block.take((~alive).nonzero()[0], axis=1)
        out[:, gone[path].astype(np.intp)] = gone
        block = block.take(keep, axis=1)
    return keep, block


def _ensemble(out, names, start: Row, recorded: Recorded | None) -> JumpEnsemble:
    """The call's ensemble from ``out``, every path's finished column in
    path order, read by their ``names``; n_inf and n_rem count
    from ``start``; ``t`` is NaN where ``names`` has no times, and is the
    ``recorded`` paths' ``t_stop``."""
    row = dict(zip(names, out))
    s, i, r, max_i = (row[name].astype(np.int64) for name in ("s", "i", "r", "max_i"))
    t = row.get("t", np.full(len(s), np.nan))
    if recorded is not None:
        recorded.t_stop = t
    # a call that sums no rate integrals reports them as 0
    sums = (row["int_pair"], row["int_i"]) if "int_pair" in row else np.zeros((2, len(s)))
    return JumpEnsemble(
        s, i, r, t, max_i,
        np.asarray(start.s, dtype=np.int64) - s, r - np.asarray(start.r, dtype=np.int64),
        *sums,
        row["window_rem"].astype(np.int64) if "window_rem" in row else None,
        row.get("decayed"),
        recorded=recorded, log_rate_ratio=row.get("log_rate_ratio"),
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


def _jump_loop(
    rates: _Rates,
    model: SirParams | HivParams,
    n_paths: int | None,
    rng: np.random.Generator,
    *,
    init: Row | None = None,
    horizon: float = np.inf,
    target: tuple[str, ...] | None = None,
    target_level: float | None = None,
    window: tuple[float, float] | None = None,
    record: bool = False,
    base: _Rates | None = None,
) -> JumpEnsemble:
    """Advance paths from the rows ``init``, which need times, every column
    (max_i and the window's removals go on from there), or ``n_paths`` fresh
    ones, until each is extinct, at the horizon or at the target: the sum of
    its ``target`` columns at ``target_level``.  Given a ``base`` law, the
    loop sums each path's two rate integrals (without thinning).

    ``block`` holds the live paths' state, a row per quantity and a column
    per path (counts are exact in float64); a finished column goes straight
    to ``out``, the call's output, at its path's place (``_compact``).  With
    ``record``, each iteration keeps the logged rows of the columns that
    jumped, after the jump, and whether each jump was an infection, in the
    call's ``Recorded``.  A path with infectives and no event rate waits
    forever: it ends at the horizon, and without one fails the call.

    The loop runs once per event of the slowest path, mostly on a handful
    of live paths, so it keeps numpy's fixed cost per call down: constants
    are 0-d arrays, and a ufunc writes in place through ``out=``, not
    through a temporary and a copy.  Once an iteration starts with at most
    ``_NARROW`` live paths, ``_narrow_loop`` runs this and every later
    iteration on Python floats, and keeps their rows as one block; the
    iteration cap counts its iterations too."""
    if init is not None and init.t is None:
        raise ValueError("a clocked call starts from rows with times")
    thinning = rates.decay is not None
    start = initial_row(model) if init is None else init
    sums = base is not None and not thinning
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
    stop_rows = None if target is None else [names.index(name) for name in target]
    out = _block(start, names, n_paths)
    recorded = Recorded(logged, rates.other_kind) if record else None
    block = out
    # views of the block's rows, taken again only when the block is compacted
    s, i, r, t, max_i, path, *extra = block
    for it in range(_ITERATION_CAP + 1):
        alive = i > 0
        alive &= t < horizon
        if stop_rows is not None:
            # one target column is read in place; only r + i adds rows
            first, *more = stop_rows
            alive &= sum((block[k] for k in more), block[first]) < target_level
        keep, block = _compact(out, block, alive, 5)
        if keep.size < alive.size:
            s, i, r, t, max_i, path, *extra = block
        if not keep.size:
            break
        if keep.size <= _NARROW:
            _narrow_loop(
                rates, block, out, rng, _ITERATION_CAP + 1 - it, horizon=horizon,
                stop_rows=stop_rows, target_level=target_level, window=window,
                recorded=recorded, sums=sums,
            )
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
            if np.count_nonzero(rate_tot > bound * slack):
                raise AssertionError("thinning bound fell below the instantaneous rate")
            jump &= u[1] * bound < rate_tot
        if sums:
            extra[-2] += s * i * dt * rates.pair_scale
            extra[-1] += i * dt
        is_inf = u[-1] * rate_tot < rate_inf
        t[...] = t_next
        inf, rem = jump & is_inf, jump > is_inf
        s -= inf
        i += inf
        i -= rem
        r += rem
        np.maximum(max_i, i, out=max_i)
        if thinning:
            decayed += rem
        if window is not None:
            extra[thinning] += rem & (t > opens) & (t <= closes)
        if record:
            recorded.kept.append((block[:len(logged)].compress(jump, axis=1), is_inf[jump]))
    else:
        raise SimulationError("iteration cap exceeded in ensemble simulation")

    ens = _ensemble(out, names, start, recorded)
    if np.isinf(ens.t).any():
        raise SimulationError("a path can never end: it has infectives but no event rate")
    return ens


def _narrow_loop(
    rates: _Rates, block, out, rng, iterations, *, horizon, stop_rows, target_level, window,
    recorded, sums,
) -> None:
    """``_jump_loop``'s iterations from one that starts with the live
    columns ``block``, in Python floats, until every path has ended or
    ``iterations``, what is left of the iteration cap, have run; each
    finished column goes to ``out`` at its path.

    Each iteration draws the block the vector loop draws, and applies
    numpy's ``log1p`` and ``exp`` to the row of its live paths as that loop
    does: ``math``'s differ from them in the last bits.  Every other step is
    the IEEE operation the vector loop makes, in its order.  The horizon
    caps a wait as ``np.minimum`` does, which keeps a NaN, and a wait over a
    zero rate, where Python would raise, is divided in numpy, under the
    caller's error state.  With ``recorded``, the rows of all these
    iterations are kept as one block."""
    thinning = rates.decay is not None
    coef, gamma, traced, pair_scale = (
        float(x) for x in (rates.coef, rates.gamma, rates.traced, rates.pair_scale))
    neg_decay, slack = (-float(rates.decay), 1.0 + 1e-12) if thinning else (None, None)
    horizon = float(horizon)
    if stop_rows is not None:
        (first, *more), target_level = stop_rows, float(target_level)
    if window is not None:
        opens, closes, w = float(window[0]), float(window[1]), 6 + thinning
    n_logged = len(recorded.names) if recorded is not None else 0
    live, finished, rows, flags = block.T.tolist(), [], [], []
    for _ in range(iterations):
        if not live:
            break
        u = rng.random((3 if thinning else 2, len(live)))
        log_u = np.log1p(-u[0]).tolist()
        *_, accept, kind = u.tolist()
        # the wait, to the horizon at most, and whether it ends in a proposal
        proposed, args = [], []
        for col, lg in zip(live, log_u):
            s, i, t = col[0], col[1], col[3]
            rate_inf = coef * s * i
            rate_rem = gamma * i
            rate_tot = rate_inf + rate_rem
            if thinning:
                rate_tot += traced * i * col[6]
            try:
                t_new = t - lg / rate_tot
            except ZeroDivisionError:
                t_new = t - float(np.float64(lg) / rate_tot)
            t_next = horizon if t_new > horizon else t_new
            dt = t_next - t
            proposed.append((rate_inf, rate_rem, rate_tot, t_next, dt, t_new <= horizon))
            if thinning:
                args.append(neg_decay * dt)
        factors = np.exp(np.array(args)).tolist() if thinning else None
        survivors = []
        for j, col in enumerate(live):
            rate_inf, rate_rem, rate_tot, t_next, dt, jump = proposed[j]
            s, i, r, max_i = col[0], col[1], col[2], col[4]
            if thinning:
                bound = rate_tot
                col[6] *= factors[j]
                rate_tot = rate_inf + (rate_rem + traced * i * col[6])
                if rate_tot > bound * slack:
                    raise AssertionError("thinning bound fell below the instantaneous rate")
                jump = jump and accept[j] * bound < rate_tot
            if sums:
                col[-2] += s * i * dt * pair_scale
                col[-1] += i * dt
            is_inf = kind[j] * rate_tot < rate_inf
            inf, rem = jump and is_inf, jump and not is_inf
            col[0] = s - inf
            col[1] = i = i + inf - rem
            col[2] = r + rem
            col[3] = t_next
            if i > max_i:
                col[4] = i
            if thinning:
                col[6] += rem
            if window is not None:
                col[w] += rem and opens < t_next <= closes
            if jump and n_logged:
                rows.append(col[:n_logged])
                flags.append(is_inf)
            if stop_rows is None:
                alive = True
            else:
                progress = col[first]
                for k in more:
                    progress += col[k]
                alive = progress < target_level
            (survivors if alive and i > 0 and t_next < horizon else finished).append(col)
        live = survivors
    else:
        raise SimulationError("iteration cap exceeded in ensemble simulation")
    done = np.array(finished).T
    out[:, done[5].astype(np.intp)] = done
    if recorded is not None:
        recorded.kept.append(
            (np.array(rows).reshape(-1, n_logged).T, np.array(flags, dtype=bool)))


def _chain_loop(
    rates: _Rates,
    model: SirParams,
    n_paths: int | None,
    rng: np.random.Generator,
    *,
    target: tuple[str, ...],
    target_level: float,
    init: Row | None = None,
    record: bool = False,
    base: _Rates | None = None,
) -> JumpEnsemble:
    """Advance the embedded jump chains of SIR paths from the rows
    ``init``, which need no times, or of ``n_paths`` fresh ones, until each
    is extinct or r + i, the sum of its ``target`` columns, is at
    ceil(``target_level``).  Given a ``base`` law's rates, the loop sums
    the tallies of ``_chain_table``.

    At s susceptibles an event is an infection with a chance p(s) that
    does not depend on i, so the removals before the next infection are
    Geometric(p(s)): a run.  Each iteration draws one block of standard
    exponentials in path order, a row per live path and ``width`` =
    min(w, s + 1) columns for the largest live s.  w is ``_FIRST_RUNS`` = 4
    in the call's first iteration, where most paths end, and 16 in every
    later one: it follows the iteration's index alone, not the paths beside
    a path.  Column k is the run at s - k, of length
    floor(E / -log(1 - p(s - k))), which never ends where p is 0 (past
    s = 0 too, so no column beyond is ever read).  A path takes
    the runs in turn, each closed by an infection.  Only infections raise
    r + i, so a path has room for i removals and D = target - r - i
    infections: it stops inside the first run that holds its i, or right
    after the infection closing run D - 1, the decision, without a removal
    of run D.  So every iteration ends a path or takes ``width`` infection
    steps from it, and the loop needs no iteration cap.  The tallies add,
    per run, its events times the table's per-event terms at its s.

    ``block`` holds the live paths' state, and ``out`` the finished ones',
    as in ``_jump_loop``, but no times.  An iteration takes the live columns
    in chunks of near-equal width, at most ``_CHUNK``, in path order
    (``_take_runs``); each chunk draws its own rows of the block, so the
    draws are those of one block.  With ``record``, each chunk keeps its
    runs: a copy of its paths' rows before it takes them, and per path and
    run the removals through the run; ``Recorded.log`` expands the runs of
    the paths it is asked for into one row per event."""
    start = initial_row(model) if init is None else init
    # the rows an event log keeps; then, given a base law, the two rate
    # integrals and the log rate ratio
    names = ("s", "i", "r", "max_i", "path") + (
        "int_pair", "int_i", "log_rate_ratio") * (base is not None)
    out = _block(start, names, n_paths)
    s_max = int(out[0].max(initial=0))
    table = _chain_table(rates, base, s_max + 1)
    run_scale, terms = table[0], table[1:]
    target = np.array(np.ceil(target_level), dtype=float)
    recorded = Recorded(names[:5], rates.other_kind) if record else None
    block = out
    s, i, r = block[:3]
    # a path with s susceptibles ends within (s - 4) // 16 + 2 iterations
    for it in range((s_max + len(_RUNS) - _FIRST_RUNS) // len(_RUNS) + 2):
        alive = (i > 0) & (r + i < target)
        keep, block = _compact(out, block, alive, 4)
        if keep.size < alive.size:
            s, i, r = block[:3]
        if not keep.size:
            break
        width = min(len(_RUNS) if it else _FIRST_RUNS, int(s.max()) + 1)
        # chunks of near-equal width; a path draws and tallies the same bits
        # whatever the width of its chunk
        n_chunks = -(-keep.size // _CHUNK)
        bounds = [keep.size * j // n_chunks for j in range(n_chunks + 1)]
        for a, b in zip(bounds, bounds[1:]):
            chunk = block[:, a:b]
            rows = chunk[:5].copy() if record else None
            runs = _take_runs(chunk, rng, width, run_scale, terms, target, record)
            if record:
                recorded.kept.append((rows, *runs))
    else:
        raise AssertionError("a chain iteration neither ended a path nor took `width` infections")

    return _ensemble(out, names, start, recorded)


def clock(log: EventLog, model: SirParams, rng: np.random.Generator) -> EventLog:
    """A clock-free log with event times: given the jump chain, a path's
    holding times are independent exponentials at the model's total event
    rate in the state before each event.  One draw per row, in log order;
    a path stops at its last event (at 0 with none)."""
    start = initial_row(model)
    length = np.diff(log.offsets)
    first = log.offsets[:-1][length > 0]
    s_before, i_before = np.roll(log.s, 1), np.roll(log.i, 1)
    s_before[first], i_before[first] = start.s, start.i
    rate = model.pair_rate(s_before, i_before) + model.gamma * i_before
    hold = rng.standard_exponential(len(rate)) / rate
    # each path's holding times summed along a row of its own after a 0, padded
    # with zeros: exactly the path's own cumulative sums, its stop time last
    column = np.arange(len(hold)) - np.repeat(log.offsets[:-1], length) + 1
    padded = np.zeros((len(length), length.max(initial=0) + 1))
    padded[log.path, column] = hold
    times = np.cumsum(padded, axis=1)
    return dataclasses.replace(log, t=times[log.path, column], t_stop=times[:, -1])


def _take_runs(block, rng, width, run_scale, terms, target, record):
    """Take the paths in ``block`` through their runs, up to the target on
    r + i: draw their standard exponentials, a row per path and ``width``
    columns, advance their s, i, r and max_i and add their tallies.
    Returns, per path, its infections (``steps``) and removals, and per run
    and path the removals ``done`` through the run: what a record keeps.
    The arrays of a row per run are views of the thread's work area, which
    the next chunk overwrites; with ``record``, ``done`` has its own."""
    m = block.shape[1]
    s, i, r, max_i = block[:4]
    # per run: its draws, the removals through it, the room, the rise and,
    # given tallies, its events and the terms at its s
    tallied = len(terms) + 1 if len(terms) else 0
    runs = _WORK.floats((4 + tallied, width, m))
    draws, done, room, rise = runs[:4]
    if record:
        done = np.empty((width, m))
    at = s.astype(np.intp)
    k = _RUNS[:width, None]
    draws = draws.reshape(m, width)
    rng.standard_exponential(out=draws)
    # a zero draw would meet an inf scale where p is 0; the least subnormal
    # keeps that run endless and changes no other
    draws += _LEAST
    # every index is in range; mode clip takes straight into ``out``, where
    # the default mode would go through a buffer of its own
    run_scale[:width].take(at, axis=1, out=done, mode="clip")
    done *= draws.T
    np.floor(done, out=done)
    # removals through each run, inf from the first that never ends
    _accumulate_runs(np.add, done)
    # the removals a path has room for up to the infection closing run k;
    # it takes each run whole until one does not fit, or until the infection
    # closing run D - 1, which decides the path
    decisive = target - r - i
    np.add(i, k, out=room)
    whole = (done < room) & (k < decisive)
    last = (np.minimum(decisive, width) - 1).astype(np.intp)
    _accumulate_runs(np.logical_and, whole)
    steps = whole.sum(axis=0)
    # removals through each run, capped at the room of the run the path
    # stops in (or at run D - 1, the decision, or its last run, where it
    # takes them all)
    capped = np.minimum(done, room, out=room)
    removals = capped.ravel()[np.minimum(steps, last) * m + np.arange(m)]
    # the most that i has risen over its start right after the infections
    # closing each run and those before it, read only for the runs the path
    # takes whole
    np.subtract(k + 1, done, out=rise)
    _accumulate_runs(np.maximum, rise)
    if len(terms):
        # per run, the removals the path takes of it, and its infection if
        # it takes the run whole
        events, taken = runs[4], runs[5:]
        through = np.minimum(capped, removals, out=capped)
        events[0] = through[0]
        np.subtract(through[1:], through[:-1], out=events[1:])
        events += whole
        terms[:, :width].take(at, axis=2, out=taken, mode="clip")
        if m == 1:
            # einsum sums a lone contiguous column in another order than
            # columns side by side; beside a copy of itself it sums in theirs
            taken, events = taken.repeat(2, axis=2), events.repeat(2, axis=1)
        block[5:] += np.einsum("tkm,km->tm", taken, events)[:, :m]
    # a path that takes no run whole reads run 0, where i + rise is at most i
    top = rise.ravel()[np.maximum(steps - 1, 0) * m + np.arange(m)]
    np.maximum(max_i, i + top, out=max_i)
    s -= steps
    i += steps - removals
    r += removals
    return steps, removals, done


def _expand_runs(runs, at: np.ndarray, n: int) -> tuple[np.ndarray, dict, np.ndarray]:
    """The rows of the paths at ``at`` >= 0 in a clock-free call's ``runs``,
    sorted by that place: their count per place, their columns and their
    infection flags.

    Only those paths' columns are taken from each entry, into one block
    ordered by place and, for a place, by iteration, so their runs expand
    straight into each path's rows in event order; no row is sorted.  The
    block expands ``_PIECE`` columns at a time, which bounds what the
    expansion holds besides the rows it returns."""
    keys, picks = [], []
    for start, *_ in runs:
        key = at[start[4].astype(np.intp)]
        (picked,) = (key >= 0).nonzero()
        keys.append(key[picked])
        picks.append(picked)
    key = np.concatenate([np.empty(0, np.intp), *keys])
    m = len(key)
    # each picked column's place in the block
    place = np.empty(m, np.intp)
    place[np.argsort(key, kind="stable")] = np.arange(m)
    start_rows, steps, removals = np.empty((4, m)), np.empty(m, np.intp), np.empty(m)
    # rows past an iteration's runs are never read
    done = np.zeros((len(_RUNS), m))
    j = 0
    for (start, it_steps, it_removals, it_done), picked in zip(runs, picks):
        to = place[j:j + len(picked)]
        j += len(picked)
        start_rows[:, to] = start[:4, picked]
        steps[to] = it_steps[picked]
        removals[to] = it_removals[picked]
        done[:len(it_done), to] = it_done[:, picked]
    events = steps + removals
    ends = np.cumsum(events).astype(np.intp)
    n_rows = int(ends[-1]) if m else 0
    columns = {name: np.empty(n_rows, np.int64) for name in ("s", "i", "r", "max_i")}
    is_inf = np.empty(n_rows, bool)
    for a in range(0, m, _PIECE):
        b = min(a + _PIECE, m)
        rows = slice(ends[a] - int(events[a]), ends[b - 1])
        state, flags = _record_runs(start_rows[:, a:b], steps[a:b], removals[a:b], done[:, a:b])
        is_inf[rows] = flags
        for column, values in zip(columns.values(), state):
            column[rows] = values
    per_path = np.bincount(np.sort(key), weights=events, minlength=n).astype(np.int64)
    return per_path, columns, is_inf


def _record_runs(start, steps, removals, done):
    """One row per event of the columns' paths through their runs, column
    by column: each run's removals, then the infection closing it, for the
    ``steps`` runs a path takes whole.  Per column, ``start`` holds the
    path's s, i, r and max_i before the runs, ``steps`` and ``removals``
    count its infections and removals, and ``done`` the removals through
    each run.  Returns the rows' s, i, r and max_i, a row each, and whether
    each event was an infection."""
    m = len(steps)
    per_path = (steps + removals).astype(np.intp)
    last = np.cumsum(per_path)
    state, is_inf = np.empty((4, int(last[-1]))), np.zeros(int(last[-1]), bool)
    first, before = last - per_path, np.cumsum(steps) - steps
    # the path's k infections and the removals through run k come before
    # the infection closing it
    p = np.repeat(np.arange(m), steps)
    k = np.arange(len(p)) - np.repeat(before, steps)
    is_inf[np.repeat(first, steps) + k + done.ravel()[k * m + p].astype(np.intp)] = True
    # per event, the infections so far, over all paths, and the events that
    # were not; a path's own are these less their values before its first
    # event
    infections = is_inf.astype(float)
    np.cumsum(infections, out=infections)
    others = np.arange(1.0, len(is_inf) + 1) - infections
    s, i, r, max_i = start
    np.subtract(np.repeat(s + before, per_path), infections, out=state[0])
    np.add(np.repeat(i + first - 2 * before, per_path), infections - others, out=state[1])
    np.add(np.repeat(r - first + before, per_path), others, out=state[2])
    # the most that i has risen over its start right after the infection
    # closing each run and those before it; then, after a path's j-th
    # infection here, the most of i it has held
    rise = (_RUNS[:len(done), None] + 1) - done
    _accumulate_runs(np.maximum, rise)
    running = np.empty((len(rise) + 1, m))
    running[0] = max_i
    np.add(rise, i, out=running[1:])
    np.maximum(running[1:], max_i, out=running[1:])
    at = np.repeat(np.arange(m) - before * m, per_path) + infections * m
    np.take(running.ravel(), at.astype(np.intp), out=state[3])
    return state, is_inf


def _sir_rates(params: SirParams) -> _Rates:
    mass_action = params.scaling is Scaling.MASS_ACTION
    return _Rates(
        coef=params.lam / params.population if mass_action else params.lam,
        gamma=params.gamma,
        other_kind=EventKind.REMOVAL.value,
        pair_scale=1.0 / params.population if mass_action else 1.0,
    )


def _hiv_rates(params: HivParams) -> _Rates:
    return _Rates(
        coef=params.lam, gamma=params.gamma1, other_kind=EventKind.DETECTION.value,
        traced=params.gamma2, decay=params.c,
    )


def _stop(event: EventSpec | None) -> dict:
    """The loops' stop keywords under which ``event`` is decided: none
    without an event, so every path runs to extinction.

    A final size is decided once r + i, the count ever infected, reaches
    n_c: it only rises, and it is r at extinction.  A diagnoses increment is
    decided once the window's removals reach n_r, and otherwise at the end
    of the window.  An incidence stops on its ``progress``, max_i.
    Stopping where the event is decided keeps the likelihood ratio's value
    at that stopping time, the conditional expectation of its later one,
    and saves the events after it; splitting's score of a stopped path,
    ``events.event_progress``, is then the threshold or its final value."""
    if event is None:
        return {}
    if isinstance(event, FinalSize):
        return dict(target=("r", "i"), target_level=event.n_c)
    if isinstance(event, Incidence):
        return dict(horizon=event.T, target=(event.progress,), target_level=event.n_i)
    if isinstance(event, Duration):
        return dict(horizon=event.T)
    if isinstance(event, DiagnosesIncrement):
        return dict(
            horizon=event.t + event.u, window=(event.t, event.t + event.u),
            target=(event.progress,), target_level=event.n_r,
        )
    raise TypeError(f"no jump-process stop rule for {event}")


def sir_ensemble(
    params: SirParams,
    n_paths: int | None,
    rng: np.random.Generator,
    event: EventSpec | None = None,
    *,
    init: Row | None = None,
    base: SirParams | None = None,
    record: bool = False,
) -> JumpEnsemble:
    """Advance an ensemble of SIR paths until ``event`` is decided on each,
    or to extinction without one: a final size once r + i reaches n_c, a
    diagnoses increment once its window's removals reach n_r (``_stop``).

    A final size depends on the embedded jump chain alone: that call runs
    clock-free, one run of removals and its closing infection at a time, up
    to 4 per path in its first iteration and 16 in each later one, in
    ``_chain_loop``; every other call runs ``_jump_loop``.  Given the
    ``base`` law, the call sums what the likelihood ratio against it needs
    (``JumpEnsemble``).  ``init`` holds event-log rows, one per path, to
    continue cut paths from; otherwise paths start fresh.  ``record`` keeps
    what every event's row needs.
    """
    rates = _sir_rates(params)
    base_rates = None if base is None else _sir_rates(base)
    loop = _chain_loop if isinstance(event, FinalSize) else _jump_loop
    return loop(
        rates, params, n_paths, rng, init=init, record=record, base=base_rates,
        **_stop(event),
    )


def hiv_ensemble(
    params: HivParams,
    n_paths: int | None,
    rng: np.random.Generator,
    event: EventSpec | None = None,
    *,
    init: Row | None = None,
    record: bool = False,
) -> JumpEnsemble:
    """Advance contact-tracing paths by thinning, in lockstep.

    State carries, per path, the decayed contact-tracing sum
    sum(exp(-c * age)); between jumps it only decays, so the rate at the
    last jump bounds the rate until the next and rejected proposals simply
    re-tighten the bound.  ``event``, ``init`` and ``record`` are read as
    by ``sir_ensemble``, ``init``'s ``decayed`` too; every call is clocked.
    """
    # with no spontaneous detection a path can be left with infectives and no
    # event rate, and draws an infinite wait (with c = 0, a NaN decay factor)
    quiet = np.errstate(divide="ignore", invalid="ignore")
    loop = _jump_loop if params.gamma1 > 0 else quiet(_jump_loop)
    return loop(
        _hiv_rates(params), params, n_paths, rng, init=init, record=record,
        **_stop(event),
    )


def jump_ensemble(model: SirParams | HivParams, n_paths: int | None, rng: np.random.Generator,
                  event: EventSpec | None = None, *, init: Row | None = None,
                  base: SirParams | None = None, record: bool = False) -> JumpEnsemble:
    """``sir_ensemble`` or ``hiv_ensemble`` by the model, found by name at call
    time so that a wrapper bound to either name sees the call; only SIR takes ``base``."""
    if isinstance(model, SirParams):
        return sir_ensemble(model, n_paths, rng, event, init=init, base=base, record=record)
    if isinstance(model, HivParams) and base is None:
        return hiv_ensemble(model, n_paths, rng, event, init=init, record=record)
    raise TypeError(f"no jump engine for {model}" + ("" if base is None else " with a base law"))


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
