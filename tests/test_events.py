import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    lockstep,
    quantile_levels,
)
from epirare.events import event_progress, event_threshold
from epirare.estimators import _batch_indicators
from reference import (
    NEVER, CompartmentState, EpidemicPath, JumpEvent, StopRule, epidemic_path, hitting_time,
    indicator, progress_hitting_time, score, sir_simulate,
)


def _path(initial, moves, horizon=math.inf):
    state = initial
    events = []
    for t, kind in moves:
        if kind == EventKind.INFECTION:
            state = CompartmentState(state.s - 1, state.i + 1, state.r)
        else:
            state = CompartmentState(state.s, state.i - 1, state.r + 1)
        events.append(JumpEvent(t, kind, state))
    return EpidemicPath(initial, tuple(events), horizon)


INF, REM = EventKind.INFECTION, EventKind.REMOVAL


def test_score_incidence_flat_path():
    path = _path(CompartmentState(5, 2, 0), [(0.5, REM), (0.8, REM)])
    assert score(path, Incidence(T=1.0, n_i=3)) == 2.0


def test_score_incidence_peak():
    path = _path(
        CompartmentState(5, 1, 0),
        [(0.2, INF), (0.4, INF), (0.9, REM)],
    )
    assert score(path, Incidence(T=1.0, n_i=5)) == 3.0


def test_score_diagnoses_window():
    path = _path(
        CompartmentState(0, 3, 0),
        [(1.0, REM), (1.5, REM), (4.0, REM)],
    )
    assert score(path, DiagnosesIncrement(t=0.5, u=2.0, n_r=2)) == 2.0


def test_score_final_size_and_duration():
    path = _path(CompartmentState(1, 1, 0), [(0.3, INF), (0.9, REM), (1.4, REM)])
    assert score(path, FinalSize(n_c=2)) == 2.0
    assert score(path, Duration(T=1.0)) == 1.4
    alive = _path(CompartmentState(9, 1, 0), [(0.1, INF)], horizon=2.0)
    assert score(alive, Duration(T=2.0)) == math.inf


def test_score_cumulative_infections():
    chain = [(9, 1), (7, 2), (5, 2), (5, 0)]
    assert score(chain, CumulativeInfections(t=3, n_c=4)) == 5.0
    assert score(chain, CumulativeInfections(t=4, n_c=4)) == 5.0


def test_score_undersimulated_path_rejected():
    alive = _path(CompartmentState(9, 1, 0), [(0.1, INF)], horizon=0.5)
    with pytest.raises(SimulationError, match="under-simulated"):
        score(alive, FinalSize(n_c=5))
    with pytest.raises(SimulationError, match="under-simulated"):
        score(alive, Incidence(T=1.0, n_i=5))
    with pytest.raises(SimulationError, match="under-simulated"):
        score(alive, Duration(T=1.0))


def test_indicator_final_size_at_initial_count_is_certain():
    path = _path(CompartmentState(3, 2, 0), [(0.4, REM), (0.6, REM)])
    assert indicator(path, FinalSize(n_c=2)) == 1


def test_indicator_duration_strict():
    path = _path(CompartmentState(0, 1, 0), [(1.0, REM)])
    assert indicator(path, Duration(T=1.0)) == 0
    path2 = _path(CompartmentState(0, 1, 0), [(1.5, REM)])
    assert indicator(path2, Duration(T=1.0)) == 1
    extinct_at_zero = EpidemicPath(CompartmentState(3, 0, 0), (), horizon=math.inf)
    assert indicator(extinct_at_zero, Duration(T=1.0)) == 0


def test_hitting_time_initial_state_counts():
    path = _path(CompartmentState(9, 1, 0), [(0.4, INF)])
    assert hitting_time(path, "i", 1) == 0.0
    assert hitting_time(path, "i", 2) == 0.4


def test_hitting_time_never_reached():
    path = _path(CompartmentState(9, 1, 0), [(0.7, REM)])
    assert hitting_time(path, "i", 2) is NEVER
    assert hitting_time(path, "r", 2) is NEVER


def test_hitting_time_cumulative_axis():
    chain = [(9, 1), (7, 2), (5, 2)]
    assert hitting_time(chain, "cumulative_infections", 1) == 0.0
    assert hitting_time(chain, "cumulative_infections", 3) == 1.0
    assert hitting_time(chain, "cumulative_infections", 9) is NEVER


def test_indicator_equals_hitting_within_horizon():
    # the level-crossing equivalence, on simulated paths
    params = SirParams(lam=0.8, gamma=1.0, s0=10, i0=1, scaling=Scaling.UNSCALED)
    inc = Incidence(T=2.0, n_i=4)
    fs = FinalSize(n_c=6)
    for seed in range(60):
        rng = SeedSpec(23, replication=seed).generator()
        path = sir_simulate(params, StopRule.extinction(), rng)
        hit_i = hitting_time(path, "i", inc.n_i)
        expected_inc = hit_i is not NEVER and hit_i <= inc.T
        assert indicator(path, inc) == int(expected_inc)
        hit_r = hitting_time(path, "r", fs.n_c)
        assert indicator(path, fs) == int(hit_r is not NEVER)


def test_score_monotone_under_extension():
    # simulating further never lowers progress (window events excluded)
    params = SirParams(lam=1.0, gamma=1.0, s0=10, i0=1, scaling=Scaling.UNSCALED)
    for seed in range(30):
        rng = SeedSpec(24, replication=seed).generator()
        full = sir_simulate(params, StopRule.extinction(), rng)
        if len(full.events) < 2:
            continue
        cut = len(full.events) // 2
        partial = EpidemicPath(full.initial, full.events[:cut], full.events[cut - 1].time)
        inc = Incidence(T=full.events[-1].time + 1.0, n_i=1)
        if partial.final_state.i > 0:
            # partial paths resolve the incidence score once they hit n_i=1 at t=0
            assert score(partial, inc) <= score(full, inc)


def test_indicator_frequency_matches_exact_tail_at_scale():
    # smallpox-outbreak parameters: 1e6 paths against the exact tail
    from epirare import cmc, exact_final_size, tail_pf, threshold_for_tail

    model = SirParams(
        lam=0.0008254, gamma=0.087613, s0=119, i0=1, scaling=Scaling.UNSCALED
    )
    dist = exact_final_size(model)
    n_c = threshold_for_tail(dist, model.i0, 2.5e-3)
    exact = tail_pf(dist, model.i0, n_c)
    est = cmc(model, FinalSize(n_c=n_c), 1_000_000, SeedSpec(26))
    se = (exact * (1 - exact) / 1_000_000) ** 0.5
    assert abs(est.value - exact) < 3 * se


def test_quantile_levels_top_one():
    assert quantile_levels([5, 4, 3, 2, 1], 0.2) == 5


def test_quantile_levels_tie_multiset():
    scores = [3, 3, 3, 1]
    level = quantile_levels(scores, 0.5)
    assert level == 3
    assert sum(s >= level for s in scores) == 3
    assert quantile_levels([4, 4, 4], 0.5) == 4
    assert quantile_levels([4, 5, 4], 0.5) == 4


def test_quantile_levels_order_statistic():
    scores = list(range(1, 101))
    assert quantile_levels(scores, 0.05) == 96


def test_quantile_levels_returns_member_of_multiset():
    rng = SeedSpec(25).generator()
    scores = rng.integers(0, 40, size=137).tolist()
    for keep in (0.01, 0.2, 0.5, 0.9):
        assert quantile_levels(scores, keep) in scores


def test_quantile_levels_matches_sorted_reference_on_ties():
    rng = SeedSpec(27).generator()
    for size in (1, 2, 7, 100):
        scores = rng.integers(0, 4, size=size).tolist()
        for keep in (0.01, 0.3, 0.5, 0.99):
            reference = sorted(scores, reverse=True)[math.ceil(keep * size) - 1]
            assert quantile_levels(scores, keep) == reference
            assert quantile_levels(np.array(scores, dtype=float), keep) == reference


def test_quantile_levels_validates_inputs():
    with pytest.raises(ValueError):
        quantile_levels([], 0.5)
    with pytest.raises(ValueError):
        quantile_levels([1.0], 1.0)


def test_event_spec_validation():
    with pytest.raises(ValueError):
        FinalSize(n_c=0)
    with pytest.raises(ValueError):
        Duration(T=0.0)
    with pytest.raises(ValueError):
        Incidence(T=1.0, n_i=0)
    with pytest.raises(ValueError):
        DiagnosesIncrement(t=1.0, u=0.0, n_r=1)
    with pytest.raises(ValueError):
        CumulativeInfections(t=0, n_c=1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Duration(math.nan),
        lambda: Incidence(T=math.nan, n_i=3),
        lambda: Incidence(T=1.0, n_i=math.nan),
        lambda: DiagnosesIncrement(t=math.nan, u=1.0, n_r=1),
        lambda: DiagnosesIncrement(t=0.0, u=math.nan, n_r=1),
        lambda: DiagnosesIncrement(t=0.0, u=1.0, n_r=math.nan),
        lambda: FinalSize(n_c=math.nan),
        lambda: CumulativeInfections(t=math.nan, n_c=2),
        lambda: CumulativeInfections(t=2, n_c=math.nan),
    ],
    ids=[
        "duration-T", "incidence-T", "incidence-n_i", "diagnoses-t", "diagnoses-u",
        "diagnoses-n_r", "final-size-n_c", "cumulative-t", "cumulative-n_c",
    ],
)
def test_event_parameters_reject_nan(make):
    with pytest.raises(ValueError):
        make()


def test_diagnoses_progress_counts_only_the_window():
    # a removal before the window opens reaches r = 1 early, but the
    # windowed count reaches 1 only at the removal inside (1, 2]
    path = _path(
        CompartmentState(8, 2, 0), [(0.5, REM), (0.8, INF), (1.5, REM), (2.5, REM)]
    )
    spec = DiagnosesIncrement(t=1.0, u=1.0, n_r=1)
    assert hitting_time(path, "r", 1) == 0.5
    assert progress_hitting_time(path, spec, 1) == 1.5
    assert progress_hitting_time(path, spec, 2) is NEVER
    assert progress_hitting_time(path, spec, 0) == 0.0
    # a final size's progress reaches 2 with r, at 1.5, unless the event is
    # decided first: r + i reaches 3 at the infection at 0.8
    assert progress_hitting_time(path, FinalSize(n_c=4), 2) == 1.5
    assert progress_hitting_time(path, FinalSize(n_c=3), 2) == 0.8


ENGINE_MODELS = {
    "sir": SirParams(lam=0.035, gamma=1.0, s0=30, i0=2, scaling=Scaling.UNSCALED),
    "hiv": HivParams(
        lam=0.05, gamma1=1.0, gamma2=0.5, c=1.0, s0=25, i0=2,
        initial_detection_ages=(0.5, 2.0),
    ),
}
_horizon = st.floats(0.25, 4.0)
EVENT_SPECS = st.one_of(
    st.builds(FinalSize, st.integers(1, 34)),
    st.builds(Incidence, _horizon, st.integers(1, 20)),
    st.builds(Duration, _horizon),
    st.builds(DiagnosesIncrement, st.floats(0.0, 2.0), _horizon, st.integers(1, 15)),
)


@settings(max_examples=60, deadline=None)
@given(
    model_name=st.sampled_from(sorted(ENGINE_MODELS)),
    spec=EVENT_SPECS,
    n=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_engine_columns_decide_events_as_the_reference(model_name, spec, n, seed):
    # the engine's indicator and progress against the per-path rules, with
    # paths stopped where the event is decided; SIR final sizes run clocked
    # here, since a clock-free path has no times
    model = ENGINE_MODELS[model_name]
    rng = SeedSpec(seed).generator()
    if isinstance(model, SirParams) and isinstance(spec, FinalSize):
        ens = lockstep._jump_loop(
            lockstep._sir_rates(model), model, n, rng, record=True, **lockstep._stop(spec)
        )
    else:
        ens = lockstep.jump_ensemble(model, n, rng, spec, record=True)
    hits = _batch_indicators(ens, spec)
    if isinstance(spec, Duration):
        progress = ens.extinction_times()
    else:
        progress = event_progress(spec, ens)
    for k in range(n):
        path = epidemic_path(ens.log, k, model)
        assert hits[k] == indicator(path, spec)
        assert progress[k] == score(path, spec)
    if isinstance(spec, (FinalSize, DiagnosesIncrement)):
        # a path that moved and stopped alive before any horizon stopped at
        # the event that decided it, not later
        stopped = (ens.i > 0) & (ens.t < lockstep._stop(spec).get("horizon", np.inf))
        stopped &= np.diff(ens.log.offsets) > 0
        decision = ens.r + ens.i if isinstance(spec, FinalSize) else ens.window_rem
        assert np.all(decision[stopped] == event_threshold(spec))
