"""Properties of the splitting ensembles' event log and branch primitive.

Every check compares the vectorised log against a direct replay of one path
at a time: the state after each event, the cut a refill starts from, and the
contact-tracing sum re-summed over the detections of the history.  A branch
reads its parents' cuts from the engine calls they ran in, and scores
slots by the engine's end states; only with whole histories kept does a
slot carry its ancestral line, from which the histories are joined.  So
the checks compare the cuts and end states with the joined histories:
each stage runs an ensemble that keeps them beside one that does not, each
from its own engine call at the same seed (a refill drops rows from the
calls it reads), and requires the two to agree.  On an SIR final size the
engine runs clock-free and histories carry no times, so there, and only
there, the checks require a log without a ``t`` column and NaN stop times,
read no time order and compare NaN as equal.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epirare import (
    DiagnosesIncrement,
    Duration,
    EventKind,
    FinalSize,
    HivParams,
    Incidence,
    Scaling,
    SeedSpec,
    SirParams,
)
from epirare.events import event_progress
from epirare.lockstep import EventLog, Row, initial_row, jump_ensemble, wait_out
from epirare.splitting import _branch, _level_cut, _Slots

MODELS = {
    "sir": SirParams(lam=0.035, gamma=1.0, s0=30, i0=2, scaling=Scaling.UNSCALED),
    "hiv": HivParams(
        lam=0.05, gamma1=1.0, gamma2=0.5, c=1.0, s0=25, i0=2,
        initial_detection_ages=(0.5, 2.0),
    ),
}
EVENTS = {
    "final_size": FinalSize(n_c=16),
    "incidence": Incidence(T=3.0, n_i=12),
    "diagnoses": DiagnosesIncrement(t=0.5, u=2.0, n_r=10),
}
_INF = EventKind.INFECTION.value


def _rows(log, k):
    a, b = log.offsets[k], log.offsets[k + 1]
    return {
        name: getattr(log, name)[a:b]
        for name in ("t", "kind", *log.STATE) if getattr(log, name) is not None
    }


def _replay(model, window, times, kinds):
    """Post-event states of one history, event by event."""
    state = initial_row(model)._asdict()
    out = []
    for t, kind in zip(times, kinds):
        infection = kind == _INF
        state = dict(state, t=t)
        state["s"] -= infection
        state["i"] += 1 if infection else -1
        state["r"] += not infection
        state["max_i"] = max(state["max_i"], state["i"])
        if window is not None and not infection and window[0] < t <= window[1]:
            state["window_rem"] += 1
        out.append(dict(state))
    return out


def _decayed_at(model, times, kinds, t_cut):
    """Contact-tracing sum at t_cut, re-summed over the detections before it."""
    det = times[(kinds != _INF) & (times <= t_cut)]
    total = float(np.sum(np.exp(-model.c * (t_cut - det))))
    return total + sum(math.exp(-model.c * (t_cut + a)) for a in model.initial_detection_ages)


def _clock_free(model, spec):
    return isinstance(model, SirParams) and isinstance(spec, FinalSize)


def _check_history(log, model, k, spec=None):
    """Slot k's rows are a time-ordered history that replays to its columns;
    a clock-free one has no times."""
    rows = _rows(log, k)
    if spec is not None and _clock_free(model, spec):
        assert log.t is None
    else:
        assert np.all(np.diff(rows["t"]) >= 0)
    assert np.all(log.path[log.offsets[k]:log.offsets[k + 1]] == k)
    window = (spec.t, spec.t + spec.u) if isinstance(spec, DiagnosesIncrement) else None
    times = rows.get("t", [None] * len(rows["kind"]))
    for n, state in enumerate(_replay(model, window, times, rows["kind"])):
        for name in ("s", "i", "r", "max_i"):
            assert rows[name][n] == state[name]
        if log.window_rem is not None:
            assert rows["window_rem"][n] == state["window_rem"]
        if log.decayed is not None:
            expected = _decayed_at(model, rows["t"], rows["kind"], rows["t"][n])
            assert rows["decayed"][n] == pytest.approx(expected, rel=1e-9)


def _start(model_name, event_name, n, seed):
    model, spec = MODELS[model_name], EVENTS[event_name]
    ens = jump_ensemble(model, n, SeedSpec(seed).generator(), spec, record=True)
    return model, spec, ens


def _pair(model, spec, n, seed):
    """An ensemble that keeps whole histories and one that does not, each
    from its own engine call at the same seed: a cut of one drops rows of
    its calls that the other may still read."""
    return tuple(
        _Slots.start(jump_ensemble(model, n, SeedSpec(seed).generator(), spec, record=True),
                     model, whole)
        for whole in (True, False)
    )


def _grouped(slots, model, spec):
    """Every slot's history; checks that a slot's end state is its last row's,
    save its stop time and the decayed sum there, and that grouping some
    slots gives their rows in the whole log."""
    # clock-free histories have no times and NaN stop times, which compare
    # equal there
    clock_free = _clock_free(model, spec)
    n = len(slots.member)
    log = slots.histories(np.arange(n))
    last = log.state_after(np.arange(n), np.diff(log.offsets), initial_row(model))
    for name in Row._fields:
        if name not in ("t", "decayed") and getattr(slots.end, name) is not None:
            assert np.array_equal(getattr(slots.end, name), getattr(last, name))
    if clock_free:
        assert log.t is None and np.isnan(log.t_stop).all()
    assert np.array_equal(log.t_stop, slots.end.t, equal_nan=clock_free)
    some = np.arange(n)[::-3]
    rows = np.diff(log.offsets)[some]
    part = slots.histories(some)
    expected = EventLog.join([log], log.offsets[some], np.ones_like(some), rows)
    expected.t_stop = log.t_stop[some]
    for name in ("path", "t", "kind", *log.STATE, "offsets", "t_stop"):
        got, want = getattr(part, name), getattr(expected, name)
        assert (got is None and want is None) or np.array_equal(
            got, want, equal_nan=clock_free
        )
    return log


def _same_row(got, want, nan=False):
    for name in Row._fields:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=nan), name


def _cut(slots, log, model, spec, level, paths):
    """The record's cut of slots ``paths`` is the grouped log's: each one's
    row there and, after the rows its history holds before its own, its
    count; returns the cut."""
    row, count = slots.cut(paths, spec, level)
    if isinstance(spec, Duration):
        keep = log.count(log.t <= level)[paths]
    else:
        keep = _level_cut(log, model, spec, level)[paths]
    assert np.array_equal(slots.line[2][:, paths].sum(axis=0) + count, keep)
    _same_row(row, log.state_after(paths, keep, initial_row(model)))
    return row, count


def _agree(slots, plain, paths, spec, level):
    """An ensemble without histories holds the slots, their end states and
    their cuts of one with them.  The one with them also keeps the calls
    its lines read, so a slot's call is compared by its order among the
    calls the slots run in."""
    assert plain.line is None
    calls, order = np.unique(slots.batch, return_inverse=True)
    assert np.array_equal(plain.batch, order)
    assert np.array_equal(plain.member, slots.member)
    _same_row(plain.end, slots.end, nan=True)
    for mine, theirs in zip(plain.starts, [slots.starts[b] for b in calls], strict=True):
        _same_row(mine, theirs)
    (row, count), (want, want_count) = plain.cut(paths, spec, level), slots.cut(paths, spec, level)
    _same_row(row, want)
    assert np.array_equal(count, want_count)


def _start_row(slots, k):
    """The row slot k started from."""
    return slots.starts[slots.batch[k]].take(np.array([slots.member[k]]))


def _pick_parents(data, candidates, size):
    picks = data.draw(
        st.lists(st.integers(0, candidates.size - 1), min_size=size, max_size=size)
    )
    return candidates[np.array(picks, dtype=np.int64)]


@settings(max_examples=40, deadline=None)
@given(
    model_name=st.sampled_from(sorted(MODELS)),
    event_name=st.sampled_from(sorted(EVENTS)),
    n=st.integers(2, 25),
    seed=st.integers(0, 2**32 - 1),
    level=st.integers(1, 6),
    data=st.data(),
)
def test_level_branch(model_name, event_name, n, seed, level, data):
    model, spec = MODELS[model_name], EVENTS[event_name]
    slots, plain = _pair(model, spec, n, seed)
    log = _grouped(slots, model, spec)
    clock_free = _clock_free(model, spec)
    progress = event_progress(spec, slots.end)
    assume(np.any(progress >= level) and np.any(progress < level))
    targets = np.flatnonzero(progress < level)
    surv = np.flatnonzero(progress >= level)
    parents = _pick_parents(data, surv, targets.size)
    keep = _level_cut(log, model, spec, level)
    _cut(slots, log, model, spec, level, surv)
    _agree(slots, plain, surv, spec, level)
    branched = _branch(
        slots, surv, targets, parents, model, spec, level, SeedSpec(seed, replication=1).generator()
    )
    flat = _branch(
        plain, surv, targets, parents, model, spec, level, SeedSpec(seed, replication=1).generator()
    )
    new = _grouped(branched, model, spec)
    # a child starts at its parent's cut, so its start row already reaches
    # the level: it cuts there, with none of its own events
    _, count = _cut(branched, new, model, spec, level, np.arange(n))
    assert np.all(count[targets] == 0)
    _agree(branched, flat, np.arange(n), spec, level)

    total = model.s0 + model.i0 + initial_row(model).r
    assert np.all(new.s + new.i + new.r == total)
    for k in np.setdiff1d(np.arange(n), targets):
        before, after = _rows(log, k), _rows(new, k)
        assert all(np.array_equal(before[name], after[name]) for name in before)
    initial = initial_row(model)
    row_progress = event_progress(spec, log)
    for child, parent in zip(targets, parents):
        cut = keep[parent]
        old, fresh = _rows(log, parent), _rows(new, child)
        for name, col in old.items():
            assert np.array_equal(fresh[name][:cut], col[:cut])
        # the parent's state at the cut, which the child starts from
        at_cut = log.state_after(np.array([parent]), np.array([cut]), initial)
        _same_row(_start_row(flat, child), at_cut)
        assert event_progress(spec, at_cut)[0] >= level
        if cut > 0:
            assert cut == 1 or row_progress[log.offsets[parent] + cut - 2] < level
            if not clock_free:
                assert np.all(fresh["t"][cut:] >= old["t"][cut - 1])
        assert event_progress(spec, branched.end)[child] >= level
        _check_history(new, model, child, spec)


@settings(max_examples=30, deadline=None)
@given(
    model_name=st.sampled_from(sorted(MODELS)),
    event_name=st.sampled_from(sorted(EVENTS)),
    n=st.integers(2, 25),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_branches_stack(model_name, event_name, n, seed, data):
    # each later cut reads survivors that ran in calls of earlier stages,
    # and joins histories from lines that read rows of up to three calls,
    # some of which no slot runs in any more
    model, spec = MODELS[model_name], EVENTS[event_name]
    slots, plain = _pair(model, spec, n, seed)
    log = _grouped(slots, model, spec)
    level = 0
    for stage in (1, 2, 3):
        progress = event_progress(spec, slots.end)
        assume(progress.max() > level)
        level = data.draw(st.integers(level + 1, int(progress.max())), label=f"level {stage}")
        assume(np.any(progress < level))
        surv = np.flatnonzero(progress >= level)
        targets = np.flatnonzero(progress < level)
        parents = _pick_parents(data, surv, targets.size)
        _cut(slots, log, model, spec, level, surv)
        _agree(slots, plain, surv, spec, level)
        rng = SeedSpec(seed, replication=stage)
        slots = _branch(slots, surv, targets, parents, model, spec, level, rng.generator())
        plain = _branch(plain, surv, targets, parents, model, spec, level, rng.generator())
        log = _grouped(slots, model, spec)
        assert np.all(event_progress(spec, slots.end) >= level)
        # only the calls some slot runs in, or some line reads rows of, are kept
        call, _, count = slots.line
        read = np.union1d(slots.batch, call[count > 0])
        assert np.array_equal(read, np.arange(len(slots.batches)))
        assert np.array_equal(np.unique(plain.batch), np.arange(len(plain.batches)))
        assert len(slots.batches) == len(slots.starts) <= stage + 1
    _cut(slots, log, model, spec, level, np.arange(n))
    _agree(slots, plain, np.arange(n), spec, level)
    total = model.s0 + model.i0 + initial_row(model).r
    assert np.all(log.s + log.i + log.r == total)
    for k in range(n):
        _check_history(log, model, k, spec)


@settings(max_examples=40, deadline=None)
@given(
    model_name=st.sampled_from(sorted(MODELS)),
    n=st.integers(2, 25),
    seed=st.integers(0, 2**32 - 1),
    t_cut=st.floats(0.05, 2.5),
    later=st.floats(0.0, 1.0),
    data=st.data(),
)
def test_time_branch(model_name, n, seed, t_cut, later, data):
    model, spec = MODELS[model_name], Duration(3.0)
    slots, plain = _pair(model, spec, n, seed)
    log = _grouped(slots, model, spec)
    ext = np.where(slots.end.i == 0, slots.end.t, math.inf)
    assume(np.any(ext > t_cut) and np.any(ext <= t_cut))
    targets = np.flatnonzero(ext <= t_cut)
    surv = np.flatnonzero(ext > t_cut)
    parents = _pick_parents(data, surv, targets.size)
    keep = log.count(log.t <= t_cut)
    _cut(slots, log, model, spec, t_cut, surv)
    _agree(slots, plain, surv, spec, t_cut)
    rng = SeedSpec(seed, replication=1)
    branched = _branch(slots, surv, targets, parents, model, spec, t_cut, rng.generator())
    flat = _branch(plain, surv, targets, parents, model, spec, t_cut, rng.generator())
    new = _grouped(branched, model, spec)
    # a child's own events all come after the time it was cut at, so a cut
    # there is its start row: its parent's, not waited out to the time
    row, count = _cut(branched, new, model, spec, t_cut, np.arange(n))
    assert np.all(count[targets] == 0)
    parent_rows = log.state_after(parents, keep[parents], initial_row(model))
    assert np.array_equal(row.t[targets], parent_rows.t)
    waited = wait_out(model, row.take(targets), t_cut)
    assert np.all(waited.t == t_cut) and np.all(row.t[targets] <= t_cut)
    _agree(branched, flat, np.arange(n), spec, t_cut)
    t_later = t_cut + later * (3.0 - t_cut)
    _cut(branched, new, model, spec, t_later, np.arange(n))
    _agree(branched, flat, np.arange(n), spec, t_later)

    total = model.s0 + model.i0 + initial_row(model).r
    assert np.all(new.s + new.i + new.r == total)
    for child, parent in zip(targets, parents):
        cut = keep[parent]
        old, fresh = _rows(log, parent), _rows(new, child)
        assert np.all(old["t"][:cut] <= t_cut) and np.all(old["t"][cut:] > t_cut)
        for name, col in old.items():
            assert np.array_equal(fresh[name][:cut], col[:cut])
        assert np.all(fresh["t"][cut:] > t_cut)
        assert new.t_stop[child] == pytest.approx(3.0) or fresh["i"][-1] == 0
        _check_history(new, model, child)


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("event_name", sorted(EVENTS))
def test_engine_log_replays(model_name, event_name):
    model, spec, ens = _start(model_name, event_name, 30, 7)
    log = ens.log
    assert log.offsets[-1] == len(log.path)
    for k in range(30):
        _check_history(log, model, k, spec)


def test_level_cut_counts_from_the_initial_state():
    # two initial detections: the initial state already has r = 2
    model, spec, ens = _start("hiv", "final_size", 20, 3)
    log = ens.log
    assert np.all(_level_cut(log, model, spec, 2) == 0)
    first_removal = log.count(log.r < 3) + 1
    assert np.array_equal(_level_cut(log, model, spec, 2.5), first_removal)
    assert np.array_equal(_level_cut(log, model, spec, 3), first_removal)
    # the record cuts there too: at the initial state, with no event of its own
    slots, every = _Slots.start(ens, model, True), np.arange(20)
    for level, counts in ((1, 0), (2, 0), (2.5, first_removal), (3, first_removal)):
        row, count = _cut(slots, log, model, spec, level, every)
        assert np.array_equal(count, np.broadcast_to(counts, 20))
    row, _ = slots.cut(every, spec, 2)
    assert np.all(row.r == 2) and np.all(row.decayed == initial_row(model).decayed)


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_a_decided_slot_branches_at_its_decision(model_name):
    # a final size stops a path at its decision, the infection that brings
    # r + i to n_c, with r short of n_c: it scores n_c, a level above its r
    # cuts it at that last row, and a child branched there starts decided,
    # stops at once and ends at its cut row, with the parent's rows
    model, spec, n = MODELS[model_name], FinalSize(n_c=8), 40
    ens = jump_ensemble(model, n, SeedSpec(11).generator(), spec, record=True)
    slots, plain = _Slots.start(ens, model, True), _pair(model, spec, n, 11)[1]
    log = _grouped(slots, model, spec)
    progress = event_progress(spec, slots.end)
    decided = (ens.r + ens.i >= spec.n_c) & (ens.r < spec.n_c)
    assert decided.any()
    assert np.all(progress[decided] == spec.n_c) and np.all(progress[~decided] < spec.n_c)
    level = spec.n_c - 1
    parent = int(np.flatnonzero(decided & (ens.r < level))[0])
    rows = np.diff(log.offsets)
    assert _level_cut(log, model, spec, level)[parent] == rows[parent]
    surv, targets = np.flatnonzero(progress >= level), np.flatnonzero(progress < level)
    assert targets.size
    _, count = _cut(slots, log, model, spec, level, surv)
    # the decision is the parent's last event
    assert count[np.searchsorted(surv, parent)] == rows[parent]
    _agree(slots, plain, surv, spec, level)
    parents = np.full(targets.size, parent)
    branched = _branch(slots, surv, targets, parents, model, spec, level, SeedSpec(12).generator())
    flat = _branch(plain, surv, targets, parents, model, spec, level, SeedSpec(12).generator())
    new = _grouped(branched, model, spec)
    assert np.all(np.diff(new.offsets)[targets] == rows[parent])
    for child in targets:
        fresh, old = _rows(new, child), _rows(log, parent)
        assert all(np.array_equal(fresh[name], old[name]) for name in old)
    assert np.all(event_progress(spec, branched.end)[targets] == spec.n_c)
    # a child starts decided, past every level up to the threshold: it cuts
    # at its start row, the decision, with no event of its own
    for later in (level, spec.n_c):
        row, count = _cut(branched, new, model, spec, later, targets)
        assert np.all(count == 0)
        assert np.all(row.r + row.i == spec.n_c)
        _agree(branched, flat, targets, spec, later)
