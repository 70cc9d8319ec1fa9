"""Edge cases of the lockstep jump engine, on both models.

Every case checks the invariants a compacted engine could break: s+i+r is
conserved per path, the event counts match the compartment changes, no path
runs past the horizon, and the event log agrees with the per-path summaries.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare, ks_2samp

from epirare import (
    CumulativeInfections,
    DiagnosesIncrement,
    Duration,
    EventKind,
    FinalSize,
    HivParams,
    Incidence,
    Scaling,
    SeedSpec,
    SimulationError,
    SirParams,
    cmc,
    exact_final_size,
    lockstep,
    tail_pf,
)
from epirare.estimators import _sir_log_ratio
from reference import CompartmentState, StopRule, epidemic_path, sir_chain_ratio, sir_simulate

SIR = SirParams(lam=0.035, gamma=1.0, s0=30, i0=2, scaling=Scaling.UNSCALED)
HIV = HivParams(
    lam=0.05, gamma1=1.0, gamma2=0.5, c=1.0, s0=25, i0=2,
    initial_detection_ages=(0.5, 2.0),
)
MODELS = {"sir": SIR, "hiv": HIV}


def _simulate(name, n_paths, seed, event=None, init=None):
    engine = getattr(lockstep, f"{name}_ensemble")
    rng = SeedSpec(seed).generator()
    return engine(MODELS[name], n_paths, rng, event, init=init, record=True)


def _jump_loop(name, n_paths, rng, init=None, **stop):
    """The clocked loop, recorded, at stop keywords no event sets."""
    model = MODELS[name]
    rates = lockstep._sir_rates(model) if name == "sir" else lockstep._hiv_rates(model)
    return lockstep._jump_loop(rates, model, n_paths, rng, init=init, record=True, **stop)


def _fresh_start(name, n):
    model = MODELS[name]
    r0 = model.r0_count if name == "hiv" else 0
    return (np.full(n, model.s0), np.full(n, model.i0), np.full(n, r0), np.zeros(n))


def _check(ens, start, horizon=np.inf, clock_free=False):
    s0, i0, r0, t0 = start[:4]
    np.testing.assert_array_equal(ens.s + ens.i + ens.r, s0 + i0 + r0)
    np.testing.assert_array_equal(ens.n_inf, s0 - ens.s)
    np.testing.assert_array_equal(ens.n_rem, ens.r - r0)
    log = ens.log
    if clock_free:
        # a clock-free call has no times
        assert np.isnan(ens.t).all() and log.t is None
    else:
        assert np.all(ens.t <= horizon)
        assert np.all(ens.t >= t0)
        assert np.all(log.t <= horizon)
    assert np.all(ens.max_i >= np.maximum(ens.i, i0))
    np.testing.assert_array_equal(np.diff(log.offsets), ens.n_inf + ens.n_rem)
    np.testing.assert_array_equal(log.s + log.i + log.r, (s0 + i0 + r0)[log.path])
    # each path's last row is its state after its last event
    last = log.offsets[1:][np.diff(log.offsets) > 0] - 1
    at = log.path[last]
    columns = ["s", "i", "r", "max_i"] + ["window_rem"] * (ens.window_rem is not None)
    for name in columns:
        np.testing.assert_array_equal(getattr(log, name)[last], getattr(ens, name)[at])
    if not clock_free:
        assert np.all(log.t[last] <= ens.t[at])
    if ens.decayed is not None:
        # between its last event and its stop a path's decayed sum only decays
        np.testing.assert_allclose(
            log.decayed[last] * np.exp(-HIV.c * (ens.t[at] - log.t[last])),
            ens.decayed[at], rtol=1e-12,
        )


@pytest.mark.parametrize("name", sorted(MODELS))
def test_every_path_finished_at_init(name):
    # extinct, at the horizon, or at the removal target
    i = np.array([0, 0, 2, 2, 3, 1])
    r = np.array([2, 3, 1, 2, 10, 15])
    t = np.array([0.0, 0.5, 3.0, 3.0, 0.2, 0.1])
    s0, i0, r0, _ = (x[0] for x in _fresh_start(name, 1))
    decayed = np.full(len(t), 0.7) if name == "hiv" else None
    init = lockstep.Row(s0 + i0 + r0 - i - r, i, r, t, i, decayed, window_rem=0)
    rng = SeedSpec(31).generator()
    ens = _jump_loop(name, None, rng, init, horizon=3.0, target="r", target_level=10)
    _check(ens, init, horizon=3.0)
    np.testing.assert_array_equal(ens.s, init[0])
    np.testing.assert_array_equal(ens.t, t)
    assert len(ens.log.t) == 0
    # no path was live, so no uniform was drawn
    assert rng.random() == SeedSpec(31).generator().random()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_incidence_start_past_its_threshold_finishes_at_init(name):
    # an incidence stops on its progress, max_i: a start whose running
    # maximum reached n_i has had the event, whatever i is now
    i, max_i = np.array([1, 2, 3]), np.array([4, 6, 4])
    s0, i0, r0, _ = (x[0] for x in _fresh_start(name, 1))
    r = np.full(3, r0 + 2)
    decayed = np.full(3, 0.7) if name == "hiv" else None
    init = lockstep.Row(s0 + i0 + r0 - i - r, i, r, np.full(3, 0.5), max_i, decayed)
    engine, rng = getattr(lockstep, f"{name}_ensemble"), SeedSpec(33).generator()
    ens = engine(MODELS[name], None, rng, Incidence(T=3.0, n_i=4), init=init, record=True)
    np.testing.assert_array_equal(ens.i, i)
    np.testing.assert_array_equal(ens.t, init.t)
    assert len(ens.log.t) == 0
    # no path was live, so no uniform was drawn
    assert rng.random() == SeedSpec(33).generator().random()


def test_clocked_call_rejects_start_rows_without_times():
    # a clock-free final-size log has no times; a clocked call used to start
    # its rows at t = 0
    toy = SirParams(lam=0.12, gamma=1.0, s0=9, i0=1, scaling=Scaling.UNSCALED)
    log = lockstep.sir_ensemble(toy, 5, SeedSpec(34).generator(), FinalSize(10), record=True).log
    row = log.state_after(np.arange(5), np.diff(log.offsets), lockstep.initial_row(toy))
    assert row.t is None
    with pytest.raises(ValueError, match="times"):
        lockstep.sir_ensemble(toy, None, SeedSpec(35).generator(), Duration(0.5), init=row)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_single_path(name):
    for seed in range(20):
        ens = _simulate(name, 1, seed)
        _check(ens, _fresh_start(name, 1))
        assert ens.i[0] == 0


@pytest.mark.parametrize("name", sorted(MODELS))
def test_finite_horizon_cuts_paths_mid_flight(name):
    n, horizon = 400, 0.7
    ens = _simulate(name, n, 32, Duration(horizon))
    _check(ens, _fresh_start(name, n), horizon)
    cut = ens.i > 0
    assert cut.any() and (~cut).any()
    np.testing.assert_array_equal(ens.t[cut], horizon)
    assert np.all(ens.t[~cut] < horizon)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_window_without_removals(name):
    n, window = 400, (0.0, 0.1)
    ens = _simulate(name, n, 33, DiagnosesIncrement(*window, n_r=1))
    _check(ens, _fresh_start(name, n), window[1])
    log = ens.log
    removals = log.count(log.kind != EventKind.INFECTION.value)
    np.testing.assert_array_equal(ens.window_rem, removals)
    # windows with infections but no removal count zero
    assert np.any((ens.window_rem == 0) & (ens.n_inf > 0))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_iteration_cap_raises(monkeypatch, name):
    monkeypatch.setattr(lockstep, "_ITERATION_CAP", 3)
    with pytest.raises(SimulationError, match="iteration cap"):
        _simulate(name, 50, 34)


def test_path_that_can_never_end_fails_without_a_horizon(monkeypatch):
    # no spontaneous detection and, once everyone is infected, nothing to
    # trace: the event rate is 0 with infectives left
    monkeypatch.setattr(lockstep, "_ITERATION_CAP", 1000)
    model = HivParams(lam=0.5, gamma1=0.0, gamma2=1.0, c=1.0, s0=5, i0=1)
    with pytest.raises(SimulationError, match="can never end"):
        lockstep.hiv_ensemble(model, 3, SeedSpec(49).generator(), record=True)
    # with a horizon every path waits out to it
    ens = lockstep.hiv_ensemble(model, 3, SeedSpec(49).generator(), Duration(5.0), record=True)
    np.testing.assert_array_equal(ens.t, 5.0)
    np.testing.assert_array_equal(ens.i, 6)
    np.testing.assert_array_equal(ens.n_rem, 0)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_start_rows_carry_max_i_and_window_removals(name):
    # paths continued from rows whose max_i is above i and whose window has
    # already counted removals: both columns go on from the row's values,
    # in every recorded row and in the end states
    n, window = 200, (0.2, 1.5)
    cut = _jump_loop(name, n, SeedSpec(50).generator(), horizon=0.6, window=window)
    start = lockstep.Row(
        cut.s, cut.i, cut.r, cut.t, cut.max_i + 3, cut.decayed, cut.window_rem + 2
    )
    assert np.all(start.max_i > start.i) and np.all(start.window_rem > 0)
    engine = getattr(lockstep, f"{name}_ensemble")
    # a threshold no path reaches, so every path runs to the window's end
    event = DiagnosesIncrement(window[0], window[1] - window[0], n_r=10**6)
    ens = engine(MODELS[name], None, SeedSpec(51).generator(), event, init=start, record=True)
    _check(ens, start, window[1])
    log = ens.log
    inside = (log.kind != EventKind.INFECTION.value) & (log.t > window[0]) & (log.t <= window[1])
    assert inside.any() and (np.diff(log.offsets) == 0).any()
    for k in range(n):
        rows = slice(log.offsets[k], log.offsets[k + 1])
        running = np.maximum.accumulate(np.append(start.max_i[k], log.i[rows]))
        np.testing.assert_array_equal(log.max_i[rows], running[1:])
        np.testing.assert_array_equal(
            log.window_rem[rows], start.window_rem[k] + np.cumsum(inside[rows])
        )
        assert ens.max_i[k] == running[-1]
    np.testing.assert_array_equal(ens.window_rem, start.window_rem + log.count(inside))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_epidemic_path_replays_the_log(name):
    n, horizon = 40, 1.5
    ens = _simulate(name, n, 35, Duration(horizon))
    assert np.any(ens.i == 0) and np.any(ens.i > 0)
    log = ens.log
    for k in range(n):
        path = epidemic_path(log, k, MODELS[name])
        rows = slice(log.offsets[k], log.offsets[k + 1])
        assert [e.time for e in path.events] == log.t[rows].tolist()
        assert [e.state_after for e in path.events] == [
            CompartmentState(*x) for x in zip(log.s[rows], log.i[rows], log.r[rows])
        ]
        assert path.final_state == CompartmentState(ens.s[k], ens.i[k], ens.r[k])
        assert path.horizon == (math.inf if ens.i[k] == 0 else horizon)
        assert path.initial_detection_times == ((-0.5, -2.0) if name == "hiv" else ())


def _final_size_from_rows():
    # rows that go on, rows extinct and rows already at the target
    target = 20
    cut = _simulate("sir", 30, 45, FinalSize(3))
    done = _simulate("sir", 30, 43, FinalSize(target))
    init = lockstep.Row(
        *(np.concatenate([getattr(cut, name), getattr(done, name)]) for name in "sir"),
        None, np.concatenate([cut.max_i, done.max_i]),
    )
    live, ever = init.i > 0, init.r + init.i
    assert (~live).any() and (live & (ever >= target)).any() and (live & (ever < target)).any()
    return _simulate("sir", None, 44, FinalSize(target), init=init)


# recorded calls of 60 paths each: clocked on both models, and clock-free
# from fresh paths and from rows
GROUPED = {
    "hiv": lambda: _simulate("hiv", 60, 36, DiagnosesIncrement(0.5, 1.0, n_r=1)),
    "sir": lambda: _simulate("sir", 60, 36, DiagnosesIncrement(0.5, 1.0, n_r=1)),
    "sir-final-size": lambda: _simulate("sir", 60, 37, FinalSize(20)),
    "sir-final-size-init": _final_size_from_rows,
}


@pytest.mark.parametrize("name", sorted(GROUPED))
def test_recorded_rows_grouped_for_some_paths(name, monkeypatch):
    # a path's rows, grouped on their own, are its rows in the whole log,
    # read before it or after
    ens = GROUPED[name]()
    clocked = not name.startswith("sir-final-size")
    iterations = len(ens.recorded.kept)
    first = ens.recorded.log(np.array([41, -1, 7]))
    # a clocked call's blocks are joined by the first read, not by the call
    assert iterations > 1 and len(ens.recorded.kept) == (1 if clocked else iterations)
    whole = ens.log
    if not clocked:
        # a clock-free path's runs span iterations
        assert (ens.n_inf > len(lockstep._RUNS)).any()
    requests = [
        np.array([41, -1, 7, 0, 59, -1, 12]), np.array([5]), np.arange(60),
        np.arange(60)[::-1], np.array([], dtype=np.intp),
    ]
    for pieces in (None, 3):
        if pieces is not None:
            # clock-free columns expanded a few at a time give the same rows
            monkeypatch.setattr(lockstep, "_PIECE", pieces)
        for paths in requests:
            some = ens.recorded.log(paths)
            per_path = np.diff(some.offsets)
            assert np.array_equal(some.path, np.repeat(np.arange(len(paths)), per_path))
            assert np.array_equal(
                some.t_stop, np.append(whole.t_stop, np.nan)[paths], equal_nan=True
            )
            for column in ("t", "kind", *whole.STATE):
                expected = getattr(whole, column)
                if expected is None:
                    assert getattr(some, column) is None
                    continue
                expected = np.concatenate([expected[:0]] + [
                    expected[whole.offsets[k]:whole.offsets[k + 1]] for k in paths if k >= 0
                ])
                got = getattr(some, column)
                assert got.dtype == expected.dtype and np.array_equal(got, expected)
            assert (per_path[paths < 0] == 0).all()
    # a second read of the same paths gives the same log
    again = ens.recorded.log(np.array([41, -1, 7]))
    for column in ("path", "offsets", "t_stop", "t", "kind", *whole.STATE):
        expected, got = getattr(first, column), getattr(again, column)
        assert got is expected is None or np.array_equal(got, expected, equal_nan=True)


def test_clock_free_logs_expand_only_the_paths_asked_for(monkeypatch):
    # a clock-free call keeps its runs; only a log asked of it expands
    # them, and only the asked paths' columns
    expanded, record_runs = [], lockstep._record_runs

    def counted(start, steps, removals, done):
        expanded.append(len(steps))
        return record_runs(start, steps, removals, done)

    monkeypatch.setattr(lockstep, "_record_runs", counted)
    ens = _simulate("sir", 60, 37, FinalSize(20))
    assert expanded == []
    # the longest path spans two iterations
    most = np.argsort(ens.n_inf)
    paths = np.array([most[-1], -1, most[0], most[-2]])
    ens.recorded.log(paths)
    live = sum(np.isin(start[4], paths).sum() for start, *_ in ens.recorded.kept)
    assert sum(expanded) == live > 3
    expanded.clear()
    ens.log
    assert sum(expanded) == sum(len(steps) for _, steps, *_ in ens.recorded.kept)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_take_rows_of_paths(name):
    ens = _simulate(name, 12, 37, Duration(1.5))
    log = ens.log
    paths = np.array([3, 3, 0, 11, 5])
    start = np.array([0, 1, 0, 2, 0])
    stop = np.minimum(np.diff(log.offsets)[paths], np.array([2, 4, 0, 9, 9]))
    start = np.minimum(start, stop)
    tail = ens.recorded.log(np.array([1, -1, 2, 4, 6]))
    for with_tail in (None, tail):
        taken = log.take(paths, start, stop, with_tail)
        for j, k in enumerate(paths):
            a = log.offsets[k]
            for column in ("t", "kind", *log.STATE):
                col = getattr(log, column)
                if col is None:
                    continue
                expected = col[a + start[j]:a + stop[j]]
                if with_tail is not None:
                    rows = slice(with_tail.offsets[j], with_tail.offsets[j + 1])
                    expected = np.concatenate([expected, getattr(with_tail, column)[rows]])
                got = getattr(taken, column)[taken.offsets[j]:taken.offsets[j + 1]]
                assert np.array_equal(got, expected)
        assert np.array_equal(taken.t_stop, log.t_stop[paths])


def test_base_changes_only_the_tallies():
    # a call given a base law sums what the likelihood ratio against it
    # needs, on either loop; no draw moves
    base = dataclasses.replace(SIR, lam=0.06, gamma=0.8)
    for event in (Duration(1.5), FinalSize(16)):
        bare = lockstep.sir_ensemble(SIR, 80, SeedSpec(38).generator(), event, record=True)
        weighted = lockstep.sir_ensemble(
            SIR, 80, SeedSpec(38).generator(), event, base=base, record=True
        )
        assert weighted.int_pair.any() and weighted.int_i.any()
        assert not bare.int_pair.any() and not bare.int_i.any()
        assert bare.log_rate_ratio is None
        if isinstance(event, FinalSize):
            assert weighted.log_rate_ratio.any()
        else:
            assert weighted.log_rate_ratio is None
        for field in dataclasses.fields(bare):
            if field.name not in ("int_pair", "int_i"):
                a, b = getattr(bare, field.name), getattr(weighted, field.name)
                assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True)
        for field in dataclasses.fields(bare.log):
            a, b = getattr(bare.log, field.name), getattr(weighted.log, field.name)
            assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True)


# clock-free calls: the embedded jump chain alone

MASS_ACTION = SirParams(lam=1.5, gamma=1.0, s0=50, i0=1, n=60)
CHAIN_MODELS = {
    "toy": SirParams(lam=0.12, gamma=1.0, s0=9, i0=1, scaling=Scaling.UNSCALED),
    "abakaliki": SirParams(
        lam=0.0008254, gamma=0.087613, s0=119, i0=1, scaling=Scaling.UNSCALED
    ),
    "mass_action": MASS_ACTION,
}


@pytest.mark.parametrize("name", sorted(CHAIN_MODELS))
def test_clock_free_final_sizes_follow_the_exact_law(name):
    # crude Monte-Carlo's engine call on a final size no path reaches, so
    # every path runs to extinction
    model = CHAIN_MODELS[name]
    spec = FinalSize(n_c=model.s0 + model.i0 + 1)
    n = 20_000
    ens = lockstep.sir_ensemble(model, n, SeedSpec(37).generator(), spec)
    assert np.all(ens.i == 0) and np.isnan(ens.t).all()
    expected = exact_final_size(model) * n
    observed = np.bincount(ens.n_inf, minlength=len(expected)).astype(float)
    # pool neighbouring sizes until each cell expects at least 5 paths
    cells = np.cumsum(expected) // 5
    cells = np.minimum(cells, cells[-1] - 1)
    pooled_obs = np.bincount(cells.astype(int), weights=observed)
    pooled_exp = np.bincount(cells.astype(int), weights=expected)
    keep = pooled_exp > 0
    assert chisquare(pooled_obs[keep], pooled_exp[keep]).pvalue > 1e-3


def test_fractional_removal_target_stops_at_its_ceiling():
    # the first integer at or above 5.5 is 6: the same event, the same draws
    model, n = SirParams(lam=1.5, gamma=1.0, s0=20, i0=1), 2000
    values = [cmc(model, FinalSize(n_c), 20_000, SeedSpec(3)).value for n_c in (5.5, 6)]
    assert values[0] == values[1] > 0
    at = {
        level: lockstep.sir_ensemble(
            model, n, SeedSpec(3).generator(), FinalSize(level), record=True
        )
        for level in (5.5, 6)
    }
    _check(at[5.5], tuple(np.full(n, x) for x in (20, 1, 0, 0.0)), clock_free=True)
    for field in ("s", "i", "r", "max_i"):
        np.testing.assert_array_equal(getattr(at[5.5], field), getattr(at[6], field))


# removal targets that stop most paths that reach them inside a run
STOP_INSIDE_A_RUN = {"toy": 4, "abakaliki": 30, "mass_action": 20}


@pytest.mark.parametrize("name", sorted(CHAIN_MODELS))
def test_cmc_final_size_stopping_inside_a_run(name):
    model, n = CHAIN_MODELS[name], 20_000
    spec = FinalSize(n_c=STOP_INSIDE_A_RUN[name])
    exact = tail_pf(exact_final_size(model), model.i0, spec.n_c)
    assert 0.01 < exact < 0.99
    value = cmc(model, spec, n, SeedSpec(42)).value
    assert abs(value - exact) < 4 * math.sqrt(exact * (1 - exact) / n), (value, exact)


def test_chain_loop_matches_the_per_event_chain():
    # Two samples from the same start states, under an instrumental law and
    # weighted against a base law: the chain loop's, and the reference's
    # event-by-event simulation with its chain ratio and rate integrals,
    # each stopped at the decision, the infection that brings r + i to the
    # target.  Their end states, event counts and the three tallies must
    # share one law.
    base, instr = SIR, dataclasses.replace(SIR, lam=0.06, gamma=0.8)
    starts = [(30, 2, 0), (20, 5, 7), (10, 3, 19), (25, 1, 6), (3, 4, 25)]
    target, per_start = 24, 600
    init = tuple(np.repeat(column, per_start) for column in zip(*starts))
    ens = lockstep.sir_ensemble(
        instr, None, SeedSpec(43, replication=1).generator(), FinalSize(target),
        init=lockstep.Row(*init, t=None, max_i=init[1]), base=base,
    )
    engine = np.column_stack([
        ens.s, ens.i, ens.r, ens.n_inf + ens.n_rem, _sir_log_ratio(ens, base, instr),
        ens.int_pair, ens.int_i,
    ])
    # the infection that brings r + i to the target stops a path, short of
    # r's target
    live, moved = ens.i > 0, ens.n_inf + ens.n_rem > 0
    assert (live & (ens.r < target)).any()
    assert np.all((ens.r + ens.i)[live & moved] == target)
    rng = SeedSpec(44, replication=1).generator()
    reference = []
    for start in zip(*init):
        initial = CompartmentState(*(int(x) for x in start))
        path = sir_simulate(instr, StopRule.decision(target), rng, initial=initial)
        chain = [initial] + [event.state_after for event in path.events]
        end = chain[-1]
        reference.append(
            (end.s, end.i, end.r, len(path.events), *sir_chain_ratio(chain, base, instr))
        )
    reference = np.array(reference)
    # end states: a two-sample chi-square over the states both reach often
    states, cells = np.unique(np.vstack([engine[:, :3], reference[:, :3]]), axis=0,
                              return_inverse=True)
    counts = np.array([np.bincount(half, minlength=len(states))
                       for half in np.split(cells.ravel(), 2)])
    common = counts.sum(axis=0) >= 10
    table = np.column_stack([counts[:, common], counts[:, ~common].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    assert table.shape[1] > 10
    assert chi2_contingency(table).pvalue > 1e-3
    for column in range(3, 7):
        assert ks_2samp(engine[:, column], reference[:, column]).pvalue > 1e-3


class _ZeroDraws:
    """A generator whose standard exponentials are all exactly zero."""

    def standard_exponential(self, shape):
        return np.zeros(shape)


def test_clock_free_degenerate_rates():
    # Each call must end every path where the chain says, with finite
    # tallies; a run that never ends may not meet inf - inf, 0 * inf or
    # any other invalid operation, nor a division by zero, on the way.
    base = CHAIN_MODELS["toy"]
    s0, i0 = base.s0, base.i0
    huge = 1e20
    assert huge * s0 / (huge * s0 + base.gamma) == 1.0
    cases = {
        # p = 0 everywhere: no path infects anyone
        "no infection": (dataclasses.replace(base, lam=0.0), SeedSpec(45).generator(), 0),
        # paths infect everyone, then p = 0 at s = 0 ends their runs
        "to s = 0": (dataclasses.replace(base, lam=1e6), SeedSpec(46).generator(), s0),
        # p rounds to 1, and a run of removals would need a draw above
        # log(c*s/gamma), 46 or 690
        "p is 1": (dataclasses.replace(base, lam=huge), SeedSpec(47).generator(), s0),
        "p is 1, far": (dataclasses.replace(base, lam=1e300), SeedSpec(48).generator(), s0),
        # a zero draw: runs of 0 where p > 0, endless where p is 0
        "zero draws": (base, _ZeroDraws(), s0),
    }
    for name, (model, rng, final_size) in cases.items():
        with np.errstate(invalid="raise", divide="raise"):
            ens = lockstep.sir_ensemble(
                model, 200, rng, FinalSize(s0 + i0 + 1), base=base, record=True
            )
        assert np.all(ens.i == 0) and np.all(ens.n_inf == final_size), name
        np.testing.assert_array_equal(ens.r, final_size + i0)
        for tally in (ens.int_pair, ens.int_i, ens.log_rate_ratio):
            assert np.isfinite(tally).all(), name
        _check(ens, tuple(np.full(200, x) for x in (s0, i0, 0, 0.0)), clock_free=True)


def test_clock_free_draws_one_exponential_block_per_iteration():
    # replay: each iteration draws one block of standard exponentials, a
    # row per live path in path order and min(16, s + 1) columns for the
    # largest live s; column k is the run of removals at s - k, of length
    # floor(E / -log(1 - p)) by inverse CDF with p = c*s/(c*s + gamma), and
    # endless where p is 0; a path takes each run and the infection closing
    # it until a run holds all the removals it has room for, i, since
    # removals do not raise r + i, and stops there, or until the infection
    # that brings r + i to the target, the decision
    model = SirParams(lam=6.0, gamma=1.0, s0=50, i0=1, n=60)
    coef, target = model.lam / model.population, 30
    s0 = np.array([0, 1, 2, 3, 5, 8, 13, 17, 20, 24, 28, 31])
    n = len(s0)
    init = lockstep.Row(s0, np.full(n, 2), np.arange(n), None, np.full(n, 2))
    engine_rng = SeedSpec(39).generator()
    ens = lockstep.sir_ensemble(
        model, None, engine_rng, FinalSize(target), init=init, record=True
    )
    rng = SeedSpec(39).generator()
    s, i, r = ([int(x) for x in column] for column in init[:3])
    kinds = [[] for _ in range(n)]
    iterations = 0
    while live := [k for k in range(n) if i[k] > 0 and r[k] + i[k] < target]:
        iterations += 1
        width = min(16, max(s[k] for k in live) + 1)
        for k, row in zip(live, rng.standard_exponential((len(live), width))):
            for e in row:
                p = coef * s[k] / (coef * s[k] + model.gamma)
                run = math.floor(e / -math.log1p(-p)) if p > 0 else math.inf
                room = i[k]
                removed = min(run, room)
                kinds[k] += [EventKind.REMOVAL.value] * removed
                i[k], r[k] = i[k] - removed, r[k] + removed
                if run >= room:
                    break
                kinds[k].append(EventKind.INFECTION.value)
                s[k], i[k] = s[k] - 1, i[k] + 1
                if r[k] + i[k] >= target:
                    break
    log = ens.log
    for k in range(n):
        assert log.kind[log.offsets[k]:log.offsets[k + 1]].tolist() == kinds[k]
    for got, want in zip((ens.s, ens.i, ens.r), (s, i, r)):
        np.testing.assert_array_equal(got, want)
    _check(ens, init, clock_free=True)
    # the replay covered extinction at s = 0, a path the decision stopped
    # short of r's target, and a path that took a whole block of 16
    # infections
    assert iterations > 1 and ((ens.s == 0) & (ens.i == 0)).any()
    assert ((ens.i > 0) & (ens.r < target) & (ens.r + ens.i == target)).any()
    assert (ens.n_inf > 16).any()
    # and nothing else was drawn
    assert engine_rng.random() == rng.random()


@pytest.mark.parametrize("record", [False, True])
def test_clock_free_call_has_no_times(record):
    ens = lockstep.sir_ensemble(SIR, 50, SeedSpec(40).generator(), FinalSize(16), record=record)
    assert np.all((ens.i == 0) | (ens.r + ens.i >= 16))
    assert len(ens.t) == 50 and np.isnan(ens.t).all()
    assert ens.log_rate_ratio is None
    with pytest.raises(ValueError, match="clock-free"):
        ens.extinction_times()
    if record:
        _check(ens, _fresh_start("sir", 50), clock_free=True)


def test_engines_reject_an_event_they_cannot_decide():
    rng = SeedSpec(41).generator()
    for engine, model in ((lockstep.sir_ensemble, SIR), (lockstep.hiv_ensemble, HIV)):
        with pytest.raises(TypeError, match="no jump-process stop rule"):
            engine(model, 5, rng, CumulativeInfections(t=3, n_c=2))
