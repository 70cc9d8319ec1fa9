import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

import reference
from epirare import (
    Duration,
    HivParams,
    ReedFrostParams,
    Scaling,
    SeedSpec,
    SimulationError,
    SirParams,
    exact_final_size,
)
from epirare import lockstep
from reference import (
    NEVER,
    CompartmentState,
    StopRule,
    epidemic_path,
    extinction_time,
    hiv_rates,
    hiv_simulate,
    rf_simulate,
    rf_step,
    sir_rates,
    sir_simulate,
)


def test_rf_step_absorbing_without_infectives():
    rng = SeedSpec(0).generator()
    for _ in range(10):
        assert rf_step((5, 0), 0.3, rng) == (5, 0)


def test_rf_step_q_one_never_infects():
    rng = SeedSpec(1).generator()
    for _ in range(10):
        assert rf_step((4, 3), 1.0, rng) == (4, 0)


def test_rf_step_binomial_distribution():
    # (s=2, i=1, q=0.5): next infectives ~ Binomial(2, 0.5)
    rng = SeedSpec(2).generator()
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        _, new_inf = rf_step((2, 1), 0.5, rng)
        counts[new_inf] += 1
    freq = counts / n
    for value, expected in zip(freq, (0.25, 0.50, 0.25)):
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(value - expected) < 3 * se


def test_rf_step_rejects_bad_q():
    rng = SeedSpec(3).generator()
    with pytest.raises(ValueError):
        rf_step((2, 1), 0.0, rng)
    with pytest.raises(ValueError):
        rf_step((2, 1), 1.2, rng)


def test_rf_simulate_q_one_dies_immediately():
    chain = rf_simulate(ReedFrostParams(q=1.0, s0=10, i0=1), 5, SeedSpec(4).generator())
    assert len(chain) == 6
    assert all(i == 0 for _, i in chain[1:])
    assert all(s == 10 for s, _ in chain)


def test_rf_simulate_no_susceptibles():
    chain = rf_simulate(ReedFrostParams(q=0.5, s0=0, i0=3), 5, SeedSpec(5).generator())
    assert chain[1] == (0, 0)
    assert all(s == 0 for s, _ in chain)


def test_rf_simulate_first_generation_mean():
    # E[I_1] = s0 * (1 - q**i0) = 10 * 0.1 = 1.0
    params = ReedFrostParams(q=0.9, s0=10, i0=1)
    rng = SeedSpec(6).generator()
    n = 100_000
    total = 0
    for _ in range(n):
        total += rf_simulate(params, 1, rng)[1][1]
    mean = total / n
    var = 10 * 0.1 * 0.9  # binomial variance
    assert abs(mean - 1.0) < 3 * math.sqrt(var / n)


def test_sir_rates_toy_parameters():
    params = SirParams(lam=0.12, gamma=1.0, s0=9, i0=1, scaling=Scaling.UNSCALED)
    rate_inf, rate_rem = sir_rates(CompartmentState(9, 1, 0), params)
    assert rate_inf == pytest.approx(1.08)
    assert rate_rem == pytest.approx(1.0)


def test_sir_rates_vanish_without_infectives():
    params = SirParams(lam=5.0, gamma=2.0, s0=5, i0=0, scaling=Scaling.MASS_ACTION)
    assert sir_rates(CompartmentState(5, 0, 3), params) == (0.0, 0.0)


def test_sir_rates_abakaliki_parameters():
    params = SirParams(
        lam=0.0008254, gamma=0.087613, s0=119, i0=1, scaling=Scaling.UNSCALED
    )
    rate_inf, rate_rem = sir_rates(CompartmentState(119, 1, 0), params)
    assert rate_inf == pytest.approx(0.0008254 * 119)
    assert rate_rem == pytest.approx(0.087613)


def test_sir_simulate_single_clock_mean():
    # With no susceptibles the only clock is Exponential(gamma)
    params = SirParams(lam=1.0, gamma=2.0, s0=0, i0=1, scaling=Scaling.UNSCALED)
    rng = SeedSpec(7).generator()
    n = 100_000
    total = 0.0
    for _ in range(n):
        path = sir_simulate(params, StopRule.extinction(), rng)
        assert len(path.events) == 1
        total += path.events[0].time
    assert abs(total / n - 0.5) < 3 * 0.5 / math.sqrt(n)


def test_sir_simulate_no_infectives_is_empty():
    params = SirParams(lam=1.0, gamma=1.0, s0=5, i0=0, scaling=Scaling.UNSCALED)
    path = sir_simulate(params, StopRule.extinction(), SeedSpec(8).generator())
    assert path.events == ()
    assert extinction_time(path) == 0.0


def test_sir_simulate_first_event_split():
    # P{first event is an infection} = 1.08 / 2.08
    params = SirParams(lam=0.12, gamma=1.0, s0=9, i0=1, scaling=Scaling.UNSCALED)
    rng = SeedSpec(9).generator()
    n = 100_000
    infections = 0
    holding = 0.0
    for _ in range(n):
        path = sir_simulate(
            params, StopRule.at_time(math.inf), rng
        )
        infections += path.events[0].kind == 1
        holding += path.events[0].time
    p = 1.08 / 2.08
    assert abs(infections / n - p) < 3 * math.sqrt(p * (1 - p) / n)
    # first holding time ~ Exponential(2.08)
    mean = 1 / 2.08
    assert abs(holding / n - mean) < 3 * mean / math.sqrt(n)


def test_sir_simulate_stops_at_first_passage():
    params = SirParams(lam=5.0, gamma=0.1, s0=30, i0=1, scaling=Scaling.UNSCALED)
    for seed in range(5):
        path = sir_simulate(
            params,
            StopRule.first_passage("i", 5),
            SeedSpec(10, replication=seed).generator(),
        )
        final = path.final_state
        assert final.i >= 5 or final.i == 0


def test_sir_absorption_with_extinction_stop():
    params = SirParams(lam=1.0, gamma=1.0, s0=15, i0=2, scaling=Scaling.UNSCALED)
    for seed in range(50):
        path = sir_simulate(params, StopRule.extinction(), SeedSpec(11, replication=seed).generator())
        assert path.final_state.i == 0


def test_event_cap_raises(monkeypatch):
    monkeypatch.setattr(reference, "EVENT_CAP", 3)
    params = SirParams(lam=5.0, gamma=0.01, s0=50, i0=1, scaling=Scaling.UNSCALED)
    with pytest.raises(SimulationError, match="event cap"):
        sir_simulate(params, StopRule.extinction(), SeedSpec(12).generator())


def _sellke_final_size(
    lam_pair: float, gamma: float, s0: int, i0: int, rng: np.random.Generator
) -> int:
    """Individual-clock construction of the SIR final size.

    Each susceptible carries a unit-exponential infection-pressure threshold
    and each individual an Exponential(gamma) infectious period, all sampled
    by inversion; with shared uniforms, raising the pairwise rate can only
    enlarge the final size.
    """
    thresholds = np.sort(-np.log1p(-rng.random(s0)))
    periods = -np.log1p(-rng.random(s0 + i0)) / gamma
    pressure = lam_pair * np.cumsum(periods)
    for k in range(s0):
        if thresholds[k] > pressure[i0 + k - 1]:
            return k
    return s0


def test_monotone_coupling_final_size_in_lambda():
    gamma, s0, i0 = 1.0, 12, 1
    lam_grid = (0.05, 0.1, 0.2, 0.4, 0.8)
    for seed in range(500):
        sizes = []
        for lam in lam_grid:
            rng = SeedSpec(13, replication=seed).generator()
            sizes.append(_sellke_final_size(lam, gamma, s0, i0, rng))
        assert sizes == sorted(sizes), f"seed {seed}: {sizes}"


def test_sellke_construction_matches_oracle():
    params = SirParams(lam=0.3, gamma=1.0, s0=6, i0=1, scaling=Scaling.UNSCALED)
    dist = exact_final_size(params)
    rng = SeedSpec(14).generator()
    n = 60_000
    counts = np.zeros(params.s0 + 1)
    for _ in range(n):
        counts[_sellke_final_size(params.lam, params.gamma, params.s0, params.i0, rng)] += 1
    freq = counts / n
    for k, expected in enumerate(dist):
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(freq[k] - expected) < 3 * se + 1e-12


def test_sir_simulate_matches_oracle_distribution():
    params = SirParams(lam=0.3, gamma=1.0, s0=6, i0=1, scaling=Scaling.UNSCALED)
    dist = exact_final_size(params)
    rng = SeedSpec(15).generator()
    n = 60_000
    counts = np.zeros(params.s0 + 1)
    for _ in range(n):
        path = sir_simulate(params, StopRule.extinction(), rng)
        counts[path.final_state.r - params.i0] += 1
    freq = counts / n
    for k, expected in enumerate(dist):
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(freq[k] - expected) < 3 * se + 1e-12


def test_lockstep_sir_matches_oracle_distribution():
    params = SirParams(lam=1.0, gamma=1.0, s0=8, i0=2, scaling=Scaling.MASS_ACTION)
    dist = exact_final_size(params)
    ens = lockstep.sir_ensemble(params, 60_000, SeedSpec(16).generator())
    sizes = ens.r - params.i0
    n = len(sizes)
    for k, expected in enumerate(dist):
        freq = float(np.mean(sizes == k))
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(freq - expected) < 3 * se + 1e-12


def test_hiv_rates_no_detections():
    params = HivParams(lam=0.0, gamma1=0.13, gamma2=0.19, c=1.0, s0=10, i0=10)
    _, rate_det = hiv_rates(CompartmentState(10, 10, 0), (), 0.0, params)
    assert rate_det == pytest.approx(1.3)


def test_hiv_rates_fresh_detection_counts_fully():
    params = HivParams(lam=0.0, gamma1=0.0, gamma2=0.19, c=1.0, s0=10, i0=1)
    _, rate_det = hiv_rates(CompartmentState(10, 1, 1), (0.0,), 0.0, params)
    assert rate_det == pytest.approx(0.19)


def test_hiv_rates_detection_age_decay():
    params = HivParams(lam=0.0, gamma1=0.0, gamma2=0.19, c=1.0, s0=10, i0=1)
    _, rate_det = hiv_rates(CompartmentState(10, 1, 1), (0.0,), math.log(2), params)
    assert rate_det == pytest.approx(0.095)


def test_hiv_rates_reject_future_detections():
    params = HivParams(lam=0.0, gamma1=0.1, gamma2=0.1, c=1.0, s0=10, i0=1)
    with pytest.raises(ValueError):
        hiv_rates(CompartmentState(10, 1, 0), (2.0,), 1.0, params)


def _reference_extinctions(params, seed, n, horizon=math.inf):
    simulate = hiv_simulate if isinstance(params, HivParams) else sir_simulate
    out = np.empty(n)
    rng = SeedSpec(seed).generator()
    for j in range(n):
        ext = extinction_time(simulate(params, StopRule.at_time(horizon), rng))
        out[j] = math.inf if ext is NEVER else ext
    return out


def _engine_extinctions(params, seed, n, horizon=math.inf):
    ens = lockstep.jump_ensemble(params, n, SeedSpec(seed).generator(), Duration(horizon))
    return ens.extinction_times()


def test_hiv_without_tracing_reduces_to_sir():
    # gamma2 = 0 makes the detection rate plain gamma1 * I
    n = 10_000
    hiv = HivParams(lam=0.05, gamma1=1.0, gamma2=0.0, c=1.0, s0=20, i0=2)
    sir = SirParams(lam=0.05, gamma=1.0, s0=20, i0=2, scaling=Scaling.UNSCALED)
    for sample in (_reference_extinctions, _engine_extinctions):
        ext_hiv = sample(hiv, 17, n)
        ext_sir = sample(sir, 18, n)
        assert ks_2samp(ext_hiv, ext_sir).pvalue > 0.01, sample.__name__


def test_hiv_fast_decay_matches_no_tracing():
    # c huge kills every contact-tracing summand before it matters
    n = 10_000
    fast = HivParams(lam=0.05, gamma1=1.0, gamma2=0.8, c=1e6, s0=20, i0=2)
    plain = HivParams(lam=0.05, gamma1=1.0, gamma2=0.0, c=1.0, s0=20, i0=2)
    for sample in (_reference_extinctions, _engine_extinctions):
        ext_fast = sample(fast, 19, n)
        ext_plain = sample(plain, 20, n)
        assert ks_2samp(ext_fast, ext_plain).pvalue > 0.01, sample.__name__


def test_hiv_engine_matches_reference_extinction_times():
    # the contact-tracing desk model to T = 90; paths alive there count as inf
    params = HivParams(lam=1.3e-5, gamma1=0.13, gamma2=0.19, c=1.0, s0=10_000, i0=3)
    n = 4_000
    ext_ref = _reference_extinctions(params, 23, n, horizon=90.0)
    ext_engine = _engine_extinctions(params, 24, n, horizon=90.0)
    assert ks_2samp(ext_ref, ext_engine).pvalue > 0.01


TOY_SIR = SirParams(lam=0.12, gamma=1.0, s0=9, i0=1, scaling=Scaling.UNSCALED)
ABAKALIKI = SirParams(lam=0.0008254, gamma=0.087613, s0=119, i0=1, scaling=Scaling.UNSCALED)


@pytest.mark.parametrize(
    "params,horizon",
    [(TOY_SIR, None), (TOY_SIR, 1.0), (ABAKALIKI, None), (ABAKALIKI, 20.0)],
    ids=["toy", "toy-horizon", "abakaliki", "abakaliki-horizon"],
)
def test_sir_engine_matches_reference_event_for_event(params, horizon):
    # Both draw a waiting time and then a kind per event from one stream, so
    # one-path engine runs replay the reference up to the rounding of log1p.
    event = None if horizon is None else Duration(horizon)
    rule = StopRule.extinction() if horizon is None else StopRule.at_time(horizon)
    for seed in range(50):
        ref = sir_simulate(params, rule, SeedSpec(seed).generator())
        log = lockstep.sir_ensemble(params, 1, SeedSpec(seed).generator(), event, record=True).log
        path = epidemic_path(log, 0, params)
        assert path.initial == ref.initial
        assert [(e.kind, e.state_after) for e in path.events] == [
            (e.kind, e.state_after) for e in ref.events
        ]
        np.testing.assert_allclose(
            [e.time for e in path.events], [e.time for e in ref.events], rtol=1e-15, atol=0
        )
        assert path.horizon == ref.horizon


def test_hiv_simulate_no_infectives_is_empty():
    params = HivParams(lam=0.1, gamma1=0.1, gamma2=0.1, c=1.0, s0=5, i0=0)
    path = hiv_simulate(params, StopRule.extinction(), SeedSpec(21).generator())
    assert path.events == ()


def test_hiv_initial_detections_raise_early_detection_rate():
    # Initial detections at age 0 add gamma2 * i to the detection rate
    params = HivParams(
        lam=0.0, gamma1=0.5, gamma2=2.0, c=0.5, s0=3, i0=4,
        initial_detection_ages=(0.0, 1.0),
    )
    rate_inf, rate_det = hiv_rates(
        CompartmentState(3, 4, 2), (0.0, -1.0), 0.0, params
    )
    assert rate_inf == 0.0
    expected = 0.5 * 4 + 2.0 * 4 * (1.0 + math.exp(-0.5))
    assert rate_det == pytest.approx(expected)
    path = hiv_simulate(params, StopRule.extinction(), SeedSpec(22).generator())
    assert path.initial.r == 2
    assert path.final_state.i == 0
