"""Edge cases of the lockstep jump engine, on both models.

Every case checks the invariants a compacted engine could break: s+i+r is
conserved per path, the event counts match the compartment changes, no path
runs past the horizon, and the event log agrees with the per-path summaries.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from epirare import (
    Axis,
    CompartmentState,
    EventKind,
    FinalSize,
    HivParams,
    Scaling,
    SeedSpec,
    SimulationError,
    SirParams,
    exact_final_size,
    lockstep,
)
from epirare.estimators import _stop_config

SIR = SirParams(lam=0.035, gamma=1.0, s0=30, i0=2, scaling=Scaling.UNSCALED)
HIV = HivParams(
    lam=0.05, gamma1=1.0, gamma2=0.5, c=1.0, s0=25, i0=2,
    initial_detection_ages=(0.5, 2.0),
)
MODELS = {"sir": SIR, "hiv": HIV}


def _simulate(name, n_paths, seed, init=None, **stop):
    engine = getattr(lockstep, f"{name}_ensemble")
    rng = SeedSpec(seed).generator()
    return engine(MODELS[name], n_paths, rng, record=True, init=init, **stop)


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
        assert np.isnan(ens.t).all() and np.isnan(log.t).all()
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
    init = (s0 + i0 + r0 - i - r, i, r, t)
    if name == "hiv":
        init += (np.full(len(t), 0.7),)
    rng = SeedSpec(31).generator()
    engine = getattr(lockstep, f"{name}_ensemble")
    ens = engine(
        MODELS[name], None, rng, record=True, init=init,
        horizon=3.0, target_axis=Axis.REMOVED, target_level=10,
    )
    _check(ens, init, horizon=3.0)
    np.testing.assert_array_equal(ens.s, init[0])
    np.testing.assert_array_equal(ens.t, t)
    assert len(ens.log.t) == 0
    # no path was live, so no uniform was drawn
    assert rng.random() == SeedSpec(31).generator().random()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_single_path(name):
    for seed in range(20):
        ens = _simulate(name, 1, seed)
        _check(ens, _fresh_start(name, 1))
        assert ens.i[0] == 0


@pytest.mark.parametrize("name", sorted(MODELS))
def test_finite_horizon_cuts_paths_mid_flight(name):
    n, horizon = 400, 0.7
    ens = _simulate(name, n, 32, horizon=horizon)
    _check(ens, _fresh_start(name, n), horizon)
    cut = ens.i > 0
    assert cut.any() and (~cut).any()
    np.testing.assert_array_equal(ens.t[cut], horizon)
    assert np.all(ens.t[~cut] < horizon)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_window_without_removals(name):
    n, window = 400, (0.0, 0.1)
    ens = _simulate(name, n, 33, horizon=window[1], window=window)
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


@pytest.mark.parametrize("name", sorted(MODELS))
def test_epidemic_path_replays_the_log(name):
    n, horizon = 40, 1.5
    ens = _simulate(name, n, 35, horizon=horizon)
    assert np.any(ens.i == 0) and np.any(ens.i > 0)
    log = ens.log
    for k in range(n):
        path = log.epidemic_path(k, MODELS[name])
        rows = slice(log.offsets[k], log.offsets[k + 1])
        assert [e.time for e in path.events] == log.t[rows].tolist()
        assert [e.state_after for e in path.events] == [
            CompartmentState(*x) for x in zip(log.s[rows], log.i[rows], log.r[rows])
        ]
        assert path.final_state == CompartmentState(ens.s[k], ens.i[k], ens.r[k])
        assert path.horizon == (math.inf if ens.i[k] == 0 else horizon)
        assert path.initial_detection_times == ((-0.5, -2.0) if name == "hiv" else ())


@pytest.mark.parametrize("name", sorted(MODELS))
def test_recorded_rows_grouped_for_some_paths(name):
    # a path's rows, grouped on their own, are its rows in the whole log
    n, horizon = 60, 1.5
    ens = _simulate(name, n, 36, horizon=horizon, window=(0.5, 1.5))
    paths = np.array([41, -1, 7, 0, 59, -1, 12])
    some, whole = ens.recorded.log(paths), ens.log
    assert np.array_equal(some.path, np.repeat(np.arange(len(paths)), np.diff(some.offsets)))
    for j, k in enumerate(paths):
        rows = slice(some.offsets[j], some.offsets[j + 1])
        if k < 0:
            assert rows.start == rows.stop and math.isnan(some.t_stop[j])
            continue
        assert some.t_stop[j] == whole.t_stop[k]
        for column in ("t", "kind", *whole.STATE):
            if getattr(whole, column) is None:
                assert getattr(some, column) is None
                continue
            expected = getattr(whole, column)[whole.offsets[k]:whole.offsets[k + 1]]
            got = getattr(some, column)[rows]
            assert got.dtype == expected.dtype and np.array_equal(got, expected)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_take_rows_of_paths(name):
    ens = _simulate(name, 12, 37, horizon=1.5)
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


def test_rate_integrals_off_changes_only_the_integrals():
    # callers that do not weight paths skip the two sums; no draw moves
    summed = _simulate("sir", 80, 38, horizon=1.5)
    bare = lockstep.sir_ensemble(
        SIR, 80, SeedSpec(38).generator(), record=True, horizon=1.5, rate_integrals=False
    )
    assert summed.int_pair.any() and summed.int_i.any()
    assert not bare.int_pair.any() and not bare.int_i.any()
    for field in dataclasses.fields(summed):
        if field.name not in ("int_pair", "int_i"):
            a, b = getattr(summed, field.name), getattr(bare, field.name)
            assert (a is None and b is None) or np.array_equal(a, b)
    for field in dataclasses.fields(summed.log):
        a, b = getattr(summed.log, field.name), getattr(bare.log, field.name)
        assert (a is None and b is None) or np.array_equal(a, b)


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
    ens = lockstep.sir_ensemble(
        model, n, SeedSpec(37).generator(), rate_integrals=False,
        **_stop_config(spec, model),
    )
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


def test_clock_free_draws_one_uniform_per_live_path():
    # replay: each iteration draws one uniform per live path, in path order,
    # and an event is an infection when it falls below c*s/(c*s + gamma)
    n = 12
    init = (np.arange(20, 20 + n), np.full(n, 2), np.zeros(n, dtype=int), np.zeros(n))
    engine_rng = SeedSpec(39).generator()
    ens = lockstep.sir_ensemble(
        MASS_ACTION, None, engine_rng, init=init, record=True, clock_free=True
    )
    rng = SeedSpec(39).generator()
    s, i = init[0].copy(), init[1].copy()
    coef = MASS_ACTION.lam / MASS_ACTION.population
    kinds = [[] for _ in range(n)]
    while (i > 0).any():
        (live,) = (i > 0).nonzero()
        pair = coef * s[live]
        infected = rng.random(live.size) < pair / (pair + MASS_ACTION.gamma)
        for k, inf in zip(live, infected):
            kinds[k].append(EventKind.INFECTION.value if inf else EventKind.REMOVAL.value)
        s[live] -= infected
        i[live] += 2 * infected - 1
    log = ens.log
    for k in range(n):
        assert log.kind[log.offsets[k]:log.offsets[k + 1]].tolist() == kinds[k]
    np.testing.assert_array_equal(ens.s, s)
    # and nothing else was drawn
    assert engine_rng.random() == rng.random()


@pytest.mark.parametrize("record", [False, True])
def test_clock_free_call_has_no_times(record):
    ens = lockstep.sir_ensemble(
        SIR, 50, SeedSpec(40).generator(), record=record, clock_free=True,
        target_axis=Axis.REMOVED, target_level=16,
    )
    assert np.all((ens.i == 0) | (ens.r >= 16))
    assert len(ens.t) == 50 and np.isnan(ens.t).all()
    assert ens.log_rate_ratio is None
    with pytest.raises(ValueError, match="clock-free"):
        ens.extinction_times()
    if record:
        _check(ens, _fresh_start("sir", 50), clock_free=True)
        # a path needs times: one built from a clock-free log fails
        k = int(np.argmax(ens.n_inf + ens.n_rem))
        with pytest.raises(ValueError, match="non-negative"):
            ens.log.epidemic_path(k, SIR)


def test_clock_free_rejects_what_needs_a_clock():
    rng = SeedSpec(41).generator()
    for stop in (dict(horizon=1.0), dict(horizon=2.0, window=(0.5, 2.0))):
        with pytest.raises(ValueError, match="clock-free"):
            lockstep.sir_ensemble(SIR, 5, rng, clock_free=True, **stop)
    with pytest.raises(ValueError, match="clock-free"):
        lockstep.hiv_ensemble(HIV, 5, rng, clock_free=True)
    with pytest.raises(ValueError, match="clock-free"):
        lockstep.sir_ensemble(SIR, 5, rng, base=SIR)
