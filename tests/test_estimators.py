import dataclasses
import math

import numpy as np
import pytest

from epirare import (
    CompartmentState,
    CumulativeInfections,
    EpidemicPath,
    EventKind,
    FinalSize,
    JumpEvent,
    ReedFrostParams,
    Scaling,
    SeedSpec,
    SirParams,
    ce_estimate,
    cmc,
    exact_final_size,
    indicator,
    is_estimate,
    tail_pf,
)
from epirare.estimators import Diagnostics, Estimate, _sir_log_ratio
from epirare import lockstep
from reference import StopRule, rf_log_likelihood, sir_importance_ratio, sir_simulate

TOY = SirParams(lam=0.12, gamma=1.0, s0=9, i0=1, scaling=Scaling.UNSCALED)


def test_cmc_certain_event_is_one():
    est = cmc(TOY, FinalSize(n_c=1), 500, SeedSpec(0))
    assert est.value == 1.0
    assert est.diagnostics.zero_runs == 0


def test_cmc_toy_sir_matches_oracle():
    dist = exact_final_size(TOY)
    exact = tail_pf(dist, TOY.i0, 10)
    est = cmc(TOY, FinalSize(n_c=10), 10_000, SeedSpec(1))
    se = math.sqrt(exact * (1 - exact) / 10_000)
    assert abs(est.value - exact) < 3 * se


def test_cmc_impossible_event_counts_zero_run():
    est = cmc(TOY, FinalSize(n_c=11), 200, SeedSpec(2))
    assert est.value == 0.0
    assert est.diagnostics.zero_runs == 1


def test_cmc_reed_frost_cumulative():
    params = ReedFrostParams(q=0.5, s0=4, i0=1)
    # exhaustive check is unwieldy; P(sum >= 1) = 1 by construction
    est = cmc(params, CumulativeInfections(t=3, n_c=1), 400, SeedSpec(3))
    assert est.value == 1.0


@pytest.mark.parametrize(
    "model, spec",
    [
        (TOY, FinalSize(n_c=5)),
        (ReedFrostParams(q=0.5, s0=4, i0=1), CumulativeInfections(t=3, n_c=2)),
    ],
)
def test_every_monte_carlo_estimator_rejects_zero_paths(model, spec):
    calls = [
        lambda: cmc(model, spec, 0, SeedSpec(4)),
        lambda: is_estimate(model, spec, model, 0, SeedSpec(4)),
        lambda: ce_estimate(model, spec, 0, 2, SeedSpec(4)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="n_paths must be at least 1"):
            call()


def _check_engine_ratio(base, instr, seed, n_paths=40, **stop):
    """``_sir_log_ratio`` on an engine batch simulated under ``instr`` against
    the reference ratio of each recorded path; returns the batch."""
    batch = lockstep.sir_ensemble(instr, n_paths, SeedSpec(seed).generator(), record=True, **stop)
    ratio = np.exp(_sir_log_ratio(batch, base, instr))
    for k in range(n_paths):
        expected = sir_importance_ratio(batch.log.epidemic_path(k, instr), base, instr)
        assert ratio[k] == pytest.approx(expected, rel=1e-12)
    return batch


def test_importance_ratio_identity_when_laws_match():
    path = sir_simulate(TOY, StopRule.extinction(), SeedSpec(4).generator())
    assert sir_importance_ratio(path, TOY, TOY) == 1.0
    batch = _check_engine_ratio(TOY, TOY, 4)
    assert np.all(_sir_log_ratio(batch, TOY, TOY) == 0.0)


def test_importance_ratio_zero_event_closed_form():
    base = SirParams(lam=0.4, gamma=1.5, s0=1, i0=1, scaling=Scaling.UNSCALED)
    instr = SirParams(lam=0.9, gamma=0.5, s0=1, i0=1, scaling=Scaling.UNSCALED)
    t = 0.37
    path = EpidemicPath(CompartmentState(1, 1, 0), (), horizon=t)
    expected = math.exp(-((0.4 - 0.9) * 1 * 1 + (1.5 - 0.5) * 1) * t)
    assert sir_importance_ratio(path, base, instr) == pytest.approx(expected, rel=1e-12)
    batch = _check_engine_ratio(base, instr, 8, horizon=t)
    quiet = batch.n_inf + batch.n_rem == 0
    assert quiet.any()
    ratio = np.exp(_sir_log_ratio(batch, base, instr))[quiet]
    np.testing.assert_allclose(ratio, expected, rtol=1e-12)


def test_importance_ratio_counts_event_kinds():
    base = SirParams(lam=1.0, gamma=1.0, s0=2, i0=1, scaling=Scaling.UNSCALED)
    instr = SirParams(lam=2.0, gamma=0.5, s0=2, i0=1, scaling=Scaling.UNSCALED)
    s1 = CompartmentState(1, 2, 0)
    s2 = CompartmentState(1, 1, 1)
    path = EpidemicPath(
        CompartmentState(2, 1, 0),
        (
            JumpEvent(0.25, EventKind.INFECTION, s1),
            JumpEvent(0.75, EventKind.REMOVAL, s2),
        ),
        horizon=1.0,
    )
    # piecewise-constant integrals by hand over [0, .25], [.25, .75], [.75, 1]
    int_pair = 2 * 1 * 0.25 + 1 * 2 * 0.5 + 1 * 1 * 0.25
    int_i = 1 * 0.25 + 2 * 0.5 + 1 * 0.25
    expected = (
        math.exp(-((1.0 - 2.0) * int_pair + (1.0 - 0.5) * int_i))
        * (1.0 / 2.0) ** 1
        * (1.0 / 0.5) ** 1
    )
    assert sir_importance_ratio(path, base, instr) == pytest.approx(expected, rel=1e-12)
    batch = _check_engine_ratio(base, instr, 9, horizon=1.0)
    assert np.any((batch.n_inf > 0) & (batch.n_rem > 0) & (batch.i > 0))


def test_importance_ratio_absolute_continuity_edge():
    base = SirParams(lam=0.0, gamma=1.0, s0=2, i0=1, scaling=Scaling.UNSCALED)
    instr = SirParams(lam=1.0, gamma=1.0, s0=2, i0=1, scaling=Scaling.UNSCALED)
    path = sir_simulate(instr, StopRule.extinction(), SeedSpec(5).generator())
    ratio = sir_importance_ratio(path, base, instr)
    if any(ev.kind == EventKind.INFECTION for ev in path.events):
        assert ratio == 0.0
    batch = _check_engine_ratio(base, instr, 5)
    assert np.any(batch.n_inf > 0) and np.any(batch.n_inf == 0)


def test_importance_ratio_rejects_bad_instrumental():
    bad = dataclasses.replace(TOY, lam=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        sir_importance_ratio(EpidemicPath(CompartmentState(1, 1, 0), (), 1.0), TOY, bad)
    with pytest.raises(ValueError, match="must be positive"):
        is_estimate(TOY, FinalSize(n_c=5), bad, 10, SeedSpec(10))
    mass_action = dataclasses.replace(TOY, scaling=Scaling.MASS_ACTION)
    with pytest.raises(ValueError, match="share scaling"):
        is_estimate(TOY, FinalSize(n_c=5), mass_action, 10, SeedSpec(10))


def test_importance_ratio_unbiased_against_oracle():
    base = SirParams(lam=1.0, gamma=1.0, s0=2, i0=1, scaling=Scaling.UNSCALED)
    instr = SirParams(lam=2.0, gamma=0.5, s0=2, i0=1, scaling=Scaling.UNSCALED)
    spec = FinalSize(n_c=3)
    exact = tail_pf(exact_final_size(base), base.i0, spec.n_c)
    # path-level route
    rng = SeedSpec(6).generator()
    n = 20_000
    total = 0.0
    total_sq = 0.0
    for _ in range(n):
        path = sir_simulate(instr, StopRule.extinction(), rng)
        value = sir_importance_ratio(path, base, instr) * indicator(path, spec)
        total += value
        total_sq += value * value
    mean = total / n
    se = math.sqrt((total_sq / n - mean**2) / n)
    assert abs(mean - exact) < 3 * se
    _check_engine_ratio(base, instr, 6)
    # lockstep route must agree with the same target
    est = is_estimate(base, spec, instr, 1_000_000, SeedSpec(7))
    assert abs(est.value - exact) < 3 * se


def _rf_loglik_checked(chain, q):
    """``rf_log_likelihood`` of a chain, checked against ``lockstep.rf_loglik``."""
    value = rf_log_likelihood(chain, q)
    S, I = (np.array([column]) for column in zip(*chain))
    assert lockstep.rf_loglik(S, I, q)[0] == pytest.approx(value, rel=1e-12)
    return value


def test_rf_log_likelihood_absorbed_chain_is_zero():
    assert _rf_loglik_checked([(5, 0), (5, 0), (5, 0)], 0.5) == 0.0


def test_rf_log_likelihood_single_step():
    # s=2, i=1, i'=1: C(2,1) * 0.5 * 0.5
    assert _rf_loglik_checked([(2, 1), (1, 1)], 0.5) == pytest.approx(math.log(0.5))


def test_rf_log_likelihood_q_one_marker():
    assert _rf_loglik_checked([(2, 1), (1, 1)], 1.0) == -math.inf
    assert _rf_loglik_checked([(2, 1), (2, 0)], 1.0) == 0.0


def test_rf_log_likelihood_rejects_inconsistent_chain():
    with pytest.raises(ValueError, match="bookkeeping"):
        rf_log_likelihood([(2, 1), (2, 1)], 0.5)
    with pytest.raises(ValueError):
        rf_log_likelihood([(2, 1), (1, 3)], 0.5)


def test_rf_likelihood_ratio_identity():
    # change-of-measure: E_new[ratio * ind] equals the plain frequency under q
    params = ReedFrostParams(q=0.9, s0=10, i0=1)
    instr = ReedFrostParams(q=0.8, s0=10, i0=1)
    spec = CumulativeInfections(t=5, n_c=6)
    n = 200_000
    rng = SeedSpec(8).generator()
    S, I = lockstep.rf_chains(params, spec.t - 1, n, rng)
    p_direct = float(np.mean(I.sum(axis=1) >= spec.n_c))
    est = is_estimate(params, spec, instr, n, SeedSpec(9))
    se = math.sqrt(p_direct * (1 - p_direct) / n)
    assert abs(est.value - p_direct) < 4 * se


def test_is_estimate_counts_overflow():
    base = SirParams(lam=1.0, gamma=1.0, s0=3, i0=1, scaling=Scaling.UNSCALED)
    instr = dataclasses.replace(base, lam=1e-12, gamma=400.0)
    est = is_estimate(base, FinalSize(n_c=2), instr, 2_000, SeedSpec(10))
    assert est.diagnostics.likelihood_overflows in (0, 1)


def test_ce_single_iteration_on_common_event_matches_cmc():
    spec = FinalSize(n_c=2)  # P ~ .52 for the toy model
    exact = tail_pf(exact_final_size(TOY), TOY.i0, spec.n_c)
    est, trace = ce_estimate(TOY, spec, 5_000, 1, SeedSpec(11))
    se = math.sqrt(exact * (1 - exact) / 5_000)
    assert abs(est.value - exact) < 3 * se
    assert len(trace) == 2


def test_ce_degenerate_event_is_exactly_one():
    est, trace = ce_estimate(TOY, FinalSize(n_c=1), 2_000, 1, SeedSpec(12))
    assert est.value == 1.0
    # refit on the full ensemble stays near the nominal parameters
    fitted = trace[-1]
    assert fitted.lam == pytest.approx(TOY.lam, rel=0.25)
    assert fitted.gamma == pytest.approx(TOY.gamma, rel=0.25)


def test_ce_adapts_and_stays_unbiased():
    base = SirParams(lam=0.5, gamma=1.0, s0=5, i0=1, scaling=Scaling.UNSCALED)
    spec = FinalSize(n_c=6)
    exact = tail_pf(exact_final_size(base), base.i0, spec.n_c)
    values = []
    for rep in range(200):
        est, _ = ce_estimate(base, spec, 500, 4, SeedSpec(13, replication=rep))
        values.append(est.value)
    values = np.array(values)
    sem = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - exact) < 3 * sem


def test_ce_reed_frost_adapts_and_stays_unbiased():
    params = ReedFrostParams(q=0.9, s0=10, i0=1)
    spec = CumulativeInfections(t=5, n_c=8)
    rng = SeedSpec(14).generator()
    S, I = lockstep.rf_chains(params, spec.t - 1, 2_000_000, rng)
    p_ref = float(np.mean(I.sum(axis=1) >= spec.n_c))
    values = []
    traces = []
    for rep in range(200):
        est, trace = ce_estimate(params, spec, 500, 4, SeedSpec(15, replication=rep))
        values.append(est.value)
        traces.append(trace[-1].q)
    values = np.array(values)
    sem = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - p_ref) < 3 * sem + 3 * math.sqrt(p_ref / 2e6)
    # adaptation tilts toward infection (smaller escape probability)
    assert np.median(traces) < params.q


def test_ce_zero_weight_iteration_keeps_parameters():
    est, trace = ce_estimate(TOY, FinalSize(n_c=11), 200, 2, SeedSpec(16))
    assert est.value == 0.0
    assert est.diagnostics.zero_runs >= 2
    assert trace[-1] == TOY


def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(-0.1)
    with pytest.raises(ValueError):
        Estimate(0.1, per_level=(1.5,))
    diag = Diagnostics(extinct_ensembles=1).merged(Diagnostics(zero_runs=2))
    assert diag.extinct_ensembles == 1 and diag.zero_runs == 2


@pytest.mark.parametrize("value, std_error", [
    (math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan), (0.1, math.inf),
])
def test_estimate_rejects_non_finite(value, std_error):
    with pytest.raises(ValueError, match="finite"):
        Estimate(value, std_error)
