import dataclasses
import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import epirare
from epirare import (
    EventKind,
    HivParams,
    ParticleEnsemble,
    ReedFrostParams,
    Scaling,
    SeedSpec,
    SimulationError,
    SirParams,
)
from reference import (
    NEVER,
    CompartmentState,
    EpidemicPath,
    JumpEvent,
    StopRule,
    extinction_time,
    n_events,
    sir_simulate,
    state_at,
)


def _path(initial, moves, horizon=math.inf):
    """Build a path from (time, kind) moves, deriving the states."""
    state = initial
    events = []
    for t, kind in moves:
        if kind == EventKind.INFECTION:
            state = CompartmentState(state.s - 1, state.i + 1, state.r)
        else:
            state = CompartmentState(state.s, state.i - 1, state.r + 1)
        events.append(JumpEvent(t, kind, state))
    return EpidemicPath(initial, tuple(events), horizon)


def test_state_at_empty_path_returns_initial():
    path = EpidemicPath(CompartmentState(9, 1, 0), (), horizon=10.0)
    assert state_at(path, 5.0) == CompartmentState(9, 1, 0)


def test_state_at_is_inclusive_at_event_time():
    path = _path(CompartmentState(9, 1, 0), [(1.0, EventKind.INFECTION)])
    assert state_at(path, 1.0) == CompartmentState(8, 2, 0)


def test_state_at_between_events():
    path = _path(
        CompartmentState(9, 1, 0),
        [(1.0, EventKind.INFECTION), (2.0, EventKind.REMOVAL)],
    )
    # step-function evaluation, cross-checked by a linear scan
    for t in (1.0, 1.2, 1.5, 1.9999):
        expected = CompartmentState(9, 1, 0)
        for ev in path.events:
            if ev.time <= t:
                expected = ev.state_after
        assert state_at(path, t) == expected
    assert state_at(path, 1.5) == CompartmentState(8, 2, 0)


def test_state_at_right_continuity_straddling_events():
    rng = SeedSpec(31).generator()
    params = SirParams(lam=0.5, gamma=1.0, s0=8, i0=2, scaling=Scaling.UNSCALED)
    path = sir_simulate(params, StopRule.extinction(), rng)
    assert path.events
    eps = 1e-12
    previous = path.initial
    for ev in path.events:
        assert state_at(path, ev.time) == ev.state_after
        assert state_at(path, ev.time - eps) == previous
        previous = ev.state_after


def test_state_at_beyond_horizon_rejected():
    path = EpidemicPath(CompartmentState(3, 1, 0), (), horizon=2.0)
    with pytest.raises(SimulationError, match="not simulated this far"):
        state_at(path, 2.5)


def test_extinction_time_single_removal():
    path = _path(CompartmentState(0, 1, 0), [(0.7, EventKind.REMOVAL)])
    assert extinction_time(path) == 0.7


def test_extinction_time_alive_at_horizon_is_never():
    path = _path(
        CompartmentState(9, 1, 0), [(0.3, EventKind.INFECTION)], horizon=10.0
    )
    assert extinction_time(path) is NEVER


def test_extinction_time_traces_infective_count():
    path = _path(
        CompartmentState(1, 1, 0),
        [
            (0.3, EventKind.INFECTION),
            (0.9, EventKind.REMOVAL),
            (1.4, EventKind.REMOVAL),
        ],
    )
    assert extinction_time(path) == 1.4


def test_extinction_time_no_infectives_is_zero():
    path = EpidemicPath(CompartmentState(5, 0, 0), (), horizon=math.inf)
    assert extinction_time(path) == 0.0


def test_bookkeeping_closes_on_simulated_paths():
    params = SirParams(lam=1.0, gamma=1.0, s0=10, i0=2, scaling=Scaling.UNSCALED)
    for seed in range(20):
        rng = SeedSpec(7, replication=seed).generator()
        path = sir_simulate(params, StopRule.extinction(), rng)
        state = path.initial
        for ev in path.events:
            if ev.kind == EventKind.INFECTION:
                state = CompartmentState(state.s - 1, state.i + 1, state.r)
            else:
                state = CompartmentState(state.s, state.i - 1, state.r + 1)
            assert state == ev.state_after
        assert state.s + state.i + state.r == params.s0 + params.i0


def test_path_validation_rejects_bad_bookkeeping():
    bad = JumpEvent(1.0, EventKind.INFECTION, CompartmentState(9, 1, 0))
    with pytest.raises(ValueError, match="bookkeeping"):
        EpidemicPath(CompartmentState(9, 1, 0), (bad,), horizon=2.0)


def test_path_validation_rejects_non_increasing_times():
    s1 = CompartmentState(8, 2, 0)
    s2 = CompartmentState(7, 3, 0)
    events = (
        JumpEvent(1.0, EventKind.INFECTION, s1),
        JumpEvent(1.0, EventKind.INFECTION, s2),
    )
    with pytest.raises(ValueError, match="strictly increasing"):
        EpidemicPath(CompartmentState(9, 1, 0), events, horizon=2.0)


def test_event_rejects_nan_time():
    # a clock-free engine call leaves its times NaN: a path built from them fails
    with pytest.raises(ValueError, match="non-negative"):
        JumpEvent(math.nan, EventKind.INFECTION, CompartmentState(8, 2, 0))


def test_seedspec_reproducibility_bit_identical():
    params = SirParams(lam=1.0, gamma=1.0, s0=20, i0=1, scaling=Scaling.UNSCALED)
    spec = SeedSpec(1234, replication=3, particle=5, stage=2)
    path_a = sir_simulate(params, StopRule.extinction(), spec.generator())
    path_b = sir_simulate(params, StopRule.extinction(), spec.generator())
    assert path_a == path_b


def test_seedspec_distinct_streams_differ():
    spec = SeedSpec(1234)
    draws_a = spec.generator().random(8)
    draws_b = spec.stream(particle=1).generator().random(8)
    assert not np.allclose(draws_a, draws_b)


COORDINATES = ("master_seed", "replication", "particle", "stage")
_coordinate = st.integers(0, 2**32 - 1)
_address = st.builds(SeedSpec, _coordinate, _coordinate, _coordinate, _coordinate)


@settings(deadline=None)
@given(address=_address)
def test_seed_address_reproduces_its_draws(address):
    first, second = address.generator(), address.generator()
    assert np.array_equal(first.random(8), second.random(8))
    assert np.array_equal(first.integers(0, 2**62, 8), second.integers(0, 2**62, 8))


@settings(deadline=None)
@given(
    address=_address,
    override=st.fixed_dictionaries(
        {}, optional={name: _coordinate for name in COORDINATES[1:]}
    ),
)
def test_stream_equals_the_address_built_directly(address, override):
    direct = SeedSpec(
        address.master_seed,
        *(override.get(name, getattr(address, name)) for name in COORDINATES[1:]),
    )
    derived = address.stream(**override)
    assert derived == direct
    assert np.array_equal(derived.generator().random(8), direct.generator().random(8))


@settings(deadline=None)
@given(address=_address, name=st.sampled_from(COORDINATES), value=_coordinate)
def test_addresses_one_coordinate_apart_draw_differently(address, name, value):
    assume(getattr(address, name) != value)
    moved = dataclasses.replace(address, **{name: value})
    assert np.all(address.generator().random(8) != moved.generator().random(8))


def test_n_events_counts_jumps_up_to_time():
    path = _path(
        CompartmentState(5, 1, 0),
        [(0.5, EventKind.INFECTION), (1.5, EventKind.REMOVAL)],
    )
    assert n_events(path, 0.4) == 0
    assert n_events(path, 0.5) == 1
    assert n_events(path, 2.0) == 2


def test_compartment_state_rejects_negative_counts():
    with pytest.raises(ValueError):
        CompartmentState(-1, 0, 0)


def test_package_root_exports():
    for name in epirare.__all__:
        getattr(epirare, name)
    # the per-path samplers, likelihoods, event semantics and the final-size
    # solve live in tests/reference.py
    for name in (
        "EVENT_CAP", "StopRule", "hiv_rates", "hiv_simulate", "rf_simulate", "rf_step",
        "sir_rates", "sir_simulate", "sir_importance_ratio", "rf_log_likelihood",
        "UnstableSolveError", "brute_force_final_size", "NoProgressError",
        "score", "indicator", "hitting_time", "state_at", "extinction_time",
        # the per-path form of a path, and its CSV reader and writer
        "EpidemicPath", "JumpEvent", "CompartmentState", "Never", "NEVER",
        "path_from_arrays", "read_path_csv", "write_path_csv", "Particle",
    ):
        assert not hasattr(epirare, name), name
        assert not hasattr(epirare.core, name), name
    assert not hasattr(epirare.lockstep.EventLog, "epidemic_path")
    # an event names its own progress column: no axis, no schedule type
    for name in ("Axis", "LevelSchedule", "event_axis"):
        for module in (epirare, epirare.core, epirare.events):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(epirare.estimators, "_PROGRESS")
    fields = {f.name for f in dataclasses.fields(ParticleEnsemble)}
    for name in ("particles", "model", "stage"):
        assert name not in fields and not hasattr(ParticleEnsemble, name), name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("epirare.models")


@pytest.mark.parametrize(
    "module", ["epirare"] + [f"epirare.{m.name}" for m in pkgutil.iter_modules(epirare.__path__)]
)
def test_module_all_is_complete(module):
    # every listed name exists, and every public class or function the
    # module defines itself is listed
    mod = importlib.import_module(module)
    for name in mod.__all__:
        assert hasattr(mod, name), name
    for name, value in vars(mod).items():
        if (
            not name.startswith("_")
            and (inspect.isclass(value) or inspect.isfunction(value))
            and value.__module__ == module
        ):
            assert name in mod.__all__, name


def test_import_loads_no_scipy_submodule_or_mpmath():
    # Reed-Frost imports scipy.optimize and scipy.special where it uses them
    code = (
        "import sys, epirare; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.special', 'mpmath') "
        "if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_non_finite_rates(value):
    for name in ("lam", "gamma"):
        rates = {"lam": 0.5, "gamma": 1.0, name: value}
        with pytest.raises(ValueError, match="finite"):
            SirParams(**rates, s0=5, i0=1)
    for name in ("lam", "gamma1", "gamma2", "c"):
        rates = {"lam": 0.5, "gamma1": 1.0, "gamma2": 1.0, "c": 1.0, name: value}
        with pytest.raises(ValueError, match="finite"):
            HivParams(**rates, s0=5, i0=1)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ReedFrostParams(q=0.0, s0=5, i0=1), "q must lie in"),
        (lambda: ReedFrostParams(q=1.5, s0=5, i0=1), "q must lie in"),
        (lambda: ReedFrostParams(q=0.9, s0=-1, i0=1), "initial counts"),
        (lambda: SirParams(lam=1.0, gamma=1.0, s0=5, i0=1, n=0), "n must be positive"),
        (lambda: SirParams(lam=1.0, gamma=1.0, s0=5, i0=1, n=-3), "n must be positive"),
        (lambda: HivParams(lam=0.5, gamma1=1.0, gamma2=1.0, c=1.0, s0=5, i0=-1),
         "initial counts"),
    ],
    ids=["rf-q-zero", "rf-q-above-one", "rf-negative-count", "sir-zero-n", "sir-negative-n",
         "hiv-negative-count"],
)
def test_params_reject_out_of_range_values(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_sir_params_reject_population_below_initial_counts():
    with pytest.raises(ValueError, match=r"smaller than s0 \+ i0"):
        SirParams(lam=1.0, gamma=1.0, s0=40, i0=1, n=5)
    assert SirParams(lam=1.0, gamma=1.0, s0=40, i0=1, n=41).population == 41


def test_sir_params_reject_population_without_mass_action():
    # n used to be accepted and ignored under the unscaled rate lambda*S*I
    with pytest.raises(ValueError, match="mass-action"):
        SirParams(lam=1.0, gamma=1.0, s0=40, i0=1, scaling=Scaling.UNSCALED, n=41)
    assert SirParams(lam=1.0, gamma=1.0, s0=40, i0=1, scaling=Scaling.UNSCALED).n is None


def test_hiv_params_reject_nan_detection_age():
    # an infinite age would make the decayed sum exp(-0 * inf) = nan at c = 0
    for age in (math.nan, math.inf):
        with pytest.raises(ValueError, match="detection ages"):
            HivParams(lam=0.5, gamma1=1.0, gamma2=1.0, c=1.0, s0=5, i0=1,
                      initial_detection_ages=(1.0, age))
