"""Edge cases of the lockstep jump engine, on both models.

Every case checks the invariants a compacted engine could break: s+i+r is
conserved per path, the event counts match the compartment changes, no path
runs past the horizon, and the event log agrees with the per-path summaries.
"""

import math

import numpy as np
import pytest

from epirare import (
    Axis,
    CompartmentState,
    EventKind,
    HivParams,
    Scaling,
    SeedSpec,
    SimulationError,
    SirParams,
    lockstep,
)

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


def _check(ens, start, horizon=np.inf):
    s0, i0, r0, t0 = start[:4]
    np.testing.assert_array_equal(ens.s + ens.i + ens.r, s0 + i0 + r0)
    np.testing.assert_array_equal(ens.n_inf, s0 - ens.s)
    np.testing.assert_array_equal(ens.n_rem, ens.r - r0)
    assert np.all(ens.t <= horizon)
    assert np.all(ens.t >= t0)
    assert np.all(ens.max_i >= np.maximum(ens.i, i0))
    log = ens.log
    np.testing.assert_array_equal(np.diff(log.offsets), ens.n_inf + ens.n_rem)
    np.testing.assert_array_equal(log.s + log.i + log.r, (s0 + i0 + r0)[log.path])
    assert np.all(log.t <= horizon)
    # each path's last row is its state after its last event
    last = log.offsets[1:][np.diff(log.offsets) > 0] - 1
    at = log.path[last]
    columns = ["s", "i", "r", "max_i"] + ["window_rem"] * (ens.window_rem is not None)
    for name in columns:
        np.testing.assert_array_equal(getattr(log, name)[last], getattr(ens, name)[at])
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
