"""Vectorized ensemble simulation: many paths advanced in lockstep.

The single-path samplers in ``models`` are the reference implementations;
these engines produce the same processes in bulk for the estimator hot loops,
tracking exactly the per-path summaries the estimators need (running maxima,
event counts, rate integrals, and with ``record=True`` a flat event log).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .core import Axis, EventKind, HivParams, ReedFrostParams, Scaling, SirParams

__all__ = [
    "EventLog", "JumpEnsemble", "hiv_ensemble", "rf_advance", "rf_chains", "rf_loglik",
    "sir_ensemble",
]

_INF = EventKind.INFECTION.value
_REM = EventKind.REMOVAL.value
_DET = EventKind.DETECTION.value

_ITERATION_CAP = 100_000_000


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

    STATE = ("s", "i", "r", "t", "decayed", "max_i", "window_rem")

    def count(self, mask: np.ndarray) -> np.ndarray:
        """Per path, the number of its rows where ``mask`` holds."""
        return np.bincount(self.path[mask], minlength=len(self.offsets) - 1)

    def state_after(
        self, paths: np.ndarray, n_rows: np.ndarray, start: dict, columns=STATE
    ) -> dict:
        """State of path ``paths[j]`` after its first ``n_rows[j]`` rows, by
        column; ``start[column]`` where ``n_rows[j]`` is 0."""
        has_rows = n_rows > 0
        rows = (self.offsets[paths] + n_rows - 1)[has_rows]
        state = {}
        for name in columns:
            col = getattr(self, name)
            if col is not None:
                state[name] = np.full(len(paths), start[name], dtype=col.dtype)
                state[name][has_rows] = col[rows]
        return state

    def splice(
        self,
        targets: np.ndarray,
        parents: np.ndarray,
        keep: np.ndarray,
        tail: "EventLog | None" = None,
        whole: bool = True,
    ) -> "EventLog":
        """This log with path ``targets[j]`` replaced by the first ``keep[j]``
        rows of path ``parents[j]`` followed by path j of ``tail``, or by all
        of the parent when there is no tail.

        ``whole=False`` keeps only the last of those parent rows: the state a
        later cut needs, since cuts never move back in time.
        """
        n = len(self.offsets) - 1
        head_len = np.diff(self.offsets)
        head_len[targets] = keep if whole else np.minimum(keep, 1)
        head_start = self.offsets[:-1].copy()
        head_start[targets] = self.offsets[parents] + keep - head_len[targets]
        tail_start = np.zeros(n, dtype=np.int64)
        tail_len = np.zeros(n, dtype=np.int64)
        t_stop = self.t_stop.copy()
        t_stop[targets] = self.t_stop[parents] if tail is None else tail.t_stop
        columns = {
            name: getattr(self, name)
            for name in ("kind", *self.STATE) if getattr(self, name) is not None
        }
        if tail is not None:
            tail_start[targets] = len(self.t) + tail.offsets[:-1]
            tail_len[targets] = np.diff(tail.offsets)
            columns = {
                name: np.concatenate([col, getattr(tail, name)])
                for name, col in columns.items()
            }
        # new rows: path k's head range, then its tail range
        starts = np.column_stack([head_start, tail_start]).ravel()
        lengths = np.column_stack([head_len, tail_len]).ravel()
        ends = np.cumsum(lengths)
        rows = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
        per_path = head_len + tail_len
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per_path, out=offsets[1:])
        return dataclasses.replace(
            self,
            path=np.repeat(np.arange(n), per_path),
            offsets=offsets,
            t_stop=t_stop,
            **{name: col[rows] for name, col in columns.items()},
        )


@dataclass
class JumpEnsemble:
    """Per-path summaries of a batch of jump-process simulations."""

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
    log: EventLog | None = None
    decayed: np.ndarray | None = None

    @property
    def extinct(self) -> np.ndarray:
        return self.i == 0

    def extinction_times(self, alive_value: float = np.inf) -> np.ndarray:
        """Last event time where extinct, ``alive_value`` elsewhere."""
        return np.where(self.extinct, self.t, alive_value)


def _segment_cumsum(x: np.ndarray, path: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Running sum of ``x`` along each path's rows."""
    total = np.cumsum(x, dtype=np.int64)
    before = np.concatenate(([0], total))[offsets[:-1]]
    return total - before[path]


def _event_log(
    init: tuple[np.ndarray, np.ndarray, np.ndarray],
    rec: tuple[list[np.ndarray], ...],
    window: tuple[float, float] | None,
    t_stop: np.ndarray,
) -> EventLog:
    """Group the per-iteration records by path and derive post-event states.

    ``init`` holds each path's starting (s, i, r); ``rec`` the recorded path
    indices, times, kinds and, for contact tracing, decayed sums.
    """
    s0, i0, r0 = init
    n = len(s0)
    idx, times, kinds, *decayed = (
        np.concatenate(col) if col else np.empty(0, dtype)
        for col, dtype in zip(rec, (np.int64, float, np.int8, float))
    )
    order = np.argsort(idx, kind="stable")
    path, t, kind = idx[order], times[order], kinds[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(path, minlength=n), out=offsets[1:])
    is_inf = kind == _INF
    n_inf = _segment_cumsum(is_inf, path, offsets)
    n_rem = np.arange(1, len(path) + 1) - offsets[path] - n_inf
    i = i0[path] + n_inf - n_rem
    # a running maximum restarted per path: lift path p's values above all of
    # path p-1's, accumulate once, and drop the lift again
    lift = path * (int(i.max(initial=0)) + 1)
    max_i = np.maximum(np.maximum.accumulate(i + lift) - lift, i0[path])
    in_window = None
    if window is not None:
        in_window = _segment_cumsum(
            ~is_inf & (t > window[0]) & (t <= window[1]), path, offsets
        )
    return EventLog(
        path, t, kind, s0[path] - n_inf, i, r0[path] + n_rem, max_i, in_window,
        decayed[0][order] if decayed else None, offsets, t_stop,
    )


def _target_hit(axis: Axis | None, level: float | None, i: np.ndarray, r: np.ndarray) -> np.ndarray:
    if axis is None:
        return np.zeros(i.shape, dtype=bool)
    values = i if axis is Axis.INFECTED else r
    return values >= level


def sir_ensemble(
    params: SirParams,
    n_paths: int | None,
    rng: np.random.Generator,
    *,
    horizon: float = np.inf,
    target_axis: Axis | None = None,
    target_level: float | None = None,
    window: tuple[float, float] | None = None,
    record: bool = False,
    init: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> JumpEnsemble:
    """Advance an ensemble of SIR paths to extinction, horizon, or target.

    ``init`` supplies per-path (s, i, r, t) start points for continuing
    truncated paths; otherwise all paths start fresh at (s0, i0, 0, 0).
    """
    if init is not None:
        s = np.array(init[0], dtype=np.int64)
        i = np.array(init[1], dtype=np.int64)
        r = np.array(init[2], dtype=np.int64)
        t = np.array(init[3], dtype=float)
        n = len(t)
    else:
        n = int(n_paths)
        s = np.full(n, params.s0, dtype=np.int64)
        i = np.full(n, params.i0, dtype=np.int64)
        r = np.zeros(n, dtype=np.int64)
        t = np.zeros(n)
    coef = params.lam / params.population if params.scaling is Scaling.MASS_ACTION else params.lam
    max_i = i.copy()
    n_inf = np.zeros(n, dtype=np.int64)
    n_rem = np.zeros(n, dtype=np.int64)
    int_pair = np.zeros(n)
    int_i = np.zeros(n)
    window_rem = np.zeros(n, dtype=np.int64) if window is not None else None
    start = (s.copy(), i.copy(), r.copy()) if record else None
    rec_idx: list[np.ndarray] = []
    rec_t: list[np.ndarray] = []
    rec_k: list[np.ndarray] = []

    active = (i > 0) & (t < horizon) & ~_target_hit(target_axis, target_level, i, r)
    iterations = 0
    while active.any():
        iterations += 1
        if iterations > _ITERATION_CAP:
            raise RuntimeError("iteration cap exceeded in ensemble simulation")
        idx = np.flatnonzero(active)
        s_a, i_a = s[idx], i[idx]
        rate_inf = coef * s_a * i_a
        rate_tot = rate_inf + params.gamma * i_a
        dt = -np.log1p(-rng.random(idx.size)) / rate_tot
        t_new = t[idx] + dt
        over = t_new > horizon
        dt_eff = np.minimum(t_new, horizon) - t[idx]
        int_pair[idx] += (s_a * i_a * dt_eff) * (1.0 / params.population if params.scaling is Scaling.MASS_ACTION else 1.0)
        int_i[idx] += i_a * dt_eff
        is_inf = rng.random(idx.size) * rate_tot < rate_inf

        hit_inf = idx[~over & is_inf]
        hit_rem = idx[~over & ~is_inf]
        s[hit_inf] -= 1
        i[hit_inf] += 1
        n_inf[hit_inf] += 1
        max_i[hit_inf] = np.maximum(max_i[hit_inf], i[hit_inf])
        i[hit_rem] -= 1
        r[hit_rem] += 1
        n_rem[hit_rem] += 1
        t[idx] = np.minimum(t_new, horizon)
        if window is not None and hit_rem.size:
            t_rem = t[hit_rem]
            window_rem[hit_rem] += (t_rem > window[0]) & (t_rem <= window[1])
        if record:
            ev = idx[~over]
            rec_idx.append(ev)
            rec_t.append(t[ev])
            rec_k.append(np.where(is_inf[~over], _INF, _REM).astype(np.int8))
        active = (i > 0) & (t < horizon) & ~_target_hit(target_axis, target_level, i, r)

    log = _event_log(start, (rec_idx, rec_t, rec_k), window, t) if record else None
    return JumpEnsemble(s, i, r, t, max_i, n_inf, n_rem, int_pair, int_i, window_rem, log)


def hiv_ensemble(
    params: HivParams,
    n_paths: int | None,
    rng: np.random.Generator,
    *,
    horizon: float = np.inf,
    target_axis: Axis | None = None,
    target_level: float | None = None,
    window: tuple[float, float] | None = None,
    record: bool = False,
    init: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> JumpEnsemble:
    """Advance contact-tracing paths by thinning, in lockstep.

    State carries, per path, the decayed contact-tracing sum
    sum(exp(-c * age)); between jumps it only decays, so the rate at the
    last jump bounds the rate until the next and rejected proposals simply
    re-tighten the bound.  ``init`` supplies (s, i, r, t, decayed).
    """
    if init is not None:
        s = np.array(init[0], dtype=np.int64)
        i = np.array(init[1], dtype=np.int64)
        r = np.array(init[2], dtype=np.int64)
        t = np.array(init[3], dtype=float)
        decayed = np.array(init[4], dtype=float)
        n = len(t)
    else:
        n = int(n_paths)
        s = np.full(n, params.s0, dtype=np.int64)
        i = np.full(n, params.i0, dtype=np.int64)
        r = np.full(n, params.r0_count, dtype=np.int64)
        t = np.zeros(n)
        decayed = np.full(n, float(sum(np.exp(-params.c * a) for a in params.initial_detection_ages)))
    max_i = i.copy()
    n_inf = np.zeros(n, dtype=np.int64)
    n_rem = np.zeros(n, dtype=np.int64)
    int_pair = np.zeros(n)
    int_i = np.zeros(n)
    window_rem = np.zeros(n, dtype=np.int64) if window is not None else None
    start = (s.copy(), i.copy(), r.copy()) if record else None
    rec_idx: list[np.ndarray] = []
    rec_t: list[np.ndarray] = []
    rec_k: list[np.ndarray] = []
    rec_d: list[np.ndarray] = []

    active = (i > 0) & (t < horizon) & ~_target_hit(target_axis, target_level, i, r)
    iterations = 0
    while active.any():
        iterations += 1
        if iterations > _ITERATION_CAP:
            raise RuntimeError("iteration cap exceeded in ensemble simulation")
        idx = np.flatnonzero(active)
        i_a = i[idx]
        rate_inf = params.lam * s[idx] * i_a
        bound = rate_inf + params.gamma1 * i_a + params.gamma2 * i_a * decayed[idx]
        dt = -np.log1p(-rng.random(idx.size)) / bound
        t_new = t[idx] + dt
        over = t_new > horizon
        dt_eff = np.minimum(t_new, horizon) - t[idx]
        decay_factor = np.exp(-params.c * dt_eff)
        decayed[idx] *= decay_factor
        t[idx] = np.minimum(t_new, horizon)
        rate_det = params.gamma1 * i_a + params.gamma2 * i_a * decayed[idx]
        rate_tot = rate_inf + rate_det
        if np.any(rate_tot > bound * (1.0 + 1e-12)):
            raise AssertionError("thinning bound fell below the instantaneous rate")
        accepted = ~over & (rng.random(idx.size) * bound < rate_tot)
        is_inf = rng.random(idx.size) * rate_tot < rate_inf

        hit_inf = idx[accepted & is_inf]
        hit_det = idx[accepted & ~is_inf]
        s[hit_inf] -= 1
        i[hit_inf] += 1
        n_inf[hit_inf] += 1
        max_i[hit_inf] = np.maximum(max_i[hit_inf], i[hit_inf])
        i[hit_det] -= 1
        r[hit_det] += 1
        n_rem[hit_det] += 1
        decayed[hit_det] += 1.0
        if window is not None and hit_det.size:
            t_det = t[hit_det]
            window_rem[hit_det] += (t_det > window[0]) & (t_det <= window[1])
        if record and (accepted.any()):
            ev = idx[accepted]
            rec_idx.append(ev)
            rec_t.append(t[ev])
            rec_k.append(np.where(is_inf[accepted], _INF, _DET).astype(np.int8))
            rec_d.append(decayed[ev])
        active = (i > 0) & (t < horizon) & ~_target_hit(target_axis, target_level, i, r)

    log = _event_log(start, (rec_idx, rec_t, rec_k, rec_d), window, t) if record else None
    return JumpEnsemble(
        s, i, r, t, max_i, n_inf, n_rem, int_pair, int_i, window_rem, log, decayed
    )


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
