import dataclasses
import math

import numpy as np
import pytest

from epirare import (
    CumulativeInfections,
    DiagnosesIncrement,
    Duration,
    EventKind,
    FinalSize,
    Incidence,
    ReedFrostParams,
    Scaling,
    SeedSpec,
    SirParams,
    ce_estimate,
    cmc,
    exact_final_size,
    is_estimate,
    tail_pf,
)
from epirare.estimators import (
    Diagnostics, Estimate, _batch_indicators, _sir_log_ratio, _weight_sd,
)
from epirare import lockstep
from reference import (
    CompartmentState, EpidemicPath, JumpEvent, StopRule, epidemic_path, indicator,
    rf_log_likelihood, sir_chain_ratio, sir_importance_ratio, sir_simulate,
)

TOY = SirParams(lam=0.12, gamma=1.0, s0=9, i0=1, scaling=Scaling.UNSCALED)
ABAKALIKI = SirParams(lam=0.0008254, gamma=0.087613, s0=119, i0=1, scaling=Scaling.UNSCALED)


def test_cmc_certain_event_is_one():
    est = cmc(TOY, FinalSize(n_c=1), 500, SeedSpec(0))
    assert est.value == 1.0


def test_cmc_toy_sir_matches_oracle():
    dist = exact_final_size(TOY)
    exact = tail_pf(dist, TOY.i0, 10)
    est = cmc(TOY, FinalSize(n_c=10), 10_000, SeedSpec(1))
    se = math.sqrt(exact * (1 - exact) / 10_000)
    assert abs(est.value - exact) < 3 * se


def test_cmc_impossible_event_counts_zero_run():
    est = cmc(TOY, FinalSize(n_c=11), 200, SeedSpec(2))
    assert est.value == 0.0


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


def _check_engine_ratio(base, instr, seed, event=None, n_paths=40):
    """``_sir_log_ratio`` on an engine batch simulated under ``instr`` against
    the reference ratio of each recorded path; returns the batch."""
    batch = lockstep.sir_ensemble(
        instr, n_paths, SeedSpec(seed).generator(), event, base=base, record=True
    )
    ratio = np.exp(_sir_log_ratio(batch, base, instr))
    for k in range(n_paths):
        expected = sir_importance_ratio(epidemic_path(batch.log, k, instr), base, instr)
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
    batch = _check_engine_ratio(base, instr, 8, Duration(t))
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
    batch = _check_engine_ratio(base, instr, 9, Duration(1.0))
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
    with pytest.raises(TypeError, match="match the model family"):
        is_estimate(TOY, FinalSize(n_c=5), ReedFrostParams(q=0.9, s0=TOY.s0, i0=TOY.i0), 10,
                    SeedSpec(10))
    with pytest.raises(ValueError, match="share the initial condition"):
        is_estimate(TOY, FinalSize(n_c=5), dataclasses.replace(TOY, s0=TOY.s0 + 1), 10,
                    SeedSpec(10))


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


CHAIN_LAWS = {
    # (base, instrumental)
    "unscaled": (
        SirParams(lam=0.035, gamma=1.0, s0=30, i0=2, scaling=Scaling.UNSCALED),
        SirParams(lam=0.06, gamma=0.8, s0=30, i0=2, scaling=Scaling.UNSCALED),
    ),
    "mass_action": (
        SirParams(lam=1.2, gamma=1.0, s0=30, i0=2, n=40),
        SirParams(lam=2.0, gamma=0.7, s0=30, i0=2, n=40),
    ),
    "no_infection": (
        SirParams(lam=0.0, gamma=1.0, s0=30, i0=2, scaling=Scaling.UNSCALED),
        SirParams(lam=0.06, gamma=0.8, s0=30, i0=2, scaling=Scaling.UNSCALED),
    ),
}


def _chain_batch(base, instr, seed, init=None, n_paths=60):
    """A recorded clock-free final-size batch under ``instr``, weighted
    against ``base``."""
    return lockstep.sir_ensemble(
        instr, n_paths, SeedSpec(seed).generator(), FinalSize(n_c=16), init=init, base=base,
        record=True,
    )


@pytest.mark.parametrize("start", ["fresh", "init"])
@pytest.mark.parametrize("law", sorted(CHAIN_LAWS))
def test_chain_ratio_matches_replay(law, start):
    base, instr = CHAIN_LAWS[law]
    init = None
    if start == "init":
        # clocked paths cut at time 0.3, some made extinct and some put at
        # the target; a clock-free call ignores their times
        cut = lockstep.sir_ensemble(instr, 60, SeedSpec(40).generator(), Duration(0.3))
        s, i, r = (x.copy() for x in (cut.s, cut.i, cut.r))
        assert (cut.n_inf + cut.n_rem > 0).any()
        i[:3], r[3:5] = 0, 16
        s[:5] = instr.s0 + instr.i0 - i[:5] - r[:5]
        init = lockstep.Row(s, i, r, cut.t, max_i=i, window_rem=0)
    batch = _chain_batch(base, instr, 41, init)
    assert np.isnan(batch.t).all() and batch.log.t is None
    log = batch.log
    starts = init or [np.full(60, x) for x in (instr.s0, instr.i0, 0)]
    log_ratio = _sir_log_ratio(batch, base, instr)
    for k in range(60):
        rows = range(log.offsets[k], log.offsets[k + 1])
        chain = [CompartmentState(*(int(x[k]) for x in starts[:3]))] + [
            CompartmentState(int(log.s[j]), int(log.i[j]), int(log.r[j])) for j in rows
        ]
        expected, int_pair, int_i = sir_chain_ratio(chain, base, instr)
        if expected == -math.inf:
            assert log_ratio[k] == -math.inf
        else:
            assert log_ratio[k] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert batch.int_pair[k] == pytest.approx(int_pair, rel=1e-12)
        assert batch.int_i[k] == pytest.approx(int_i, rel=1e-12)
    if law == "no_infection":
        # a base law without infections rules out every path that infects
        assert np.array_equal(log_ratio == -math.inf, batch.n_inf > 0)
        assert (batch.n_inf == 0).any()


def test_chain_ratio_identity_when_laws_match():
    base, _ = CHAIN_LAWS["mass_action"]
    assert np.all(_sir_log_ratio(_chain_batch(base, base, 42), base, base) == 0.0)


@pytest.mark.parametrize("law", ["unscaled", "mass_action"])
def test_chain_weighted_sums_have_the_base_laws_means(law):
    # The cross-entropy step divides weighted sums of n_inf and n_rem by
    # weighted sums of the rate integrals.  Under the instrumental law,
    # chain ratio x indicator x each sum must have the mean of indicator x
    # the same sum on clocked paths of the base law.  Integrals summed at
    # the instrumental rates miss it by 7 to 16 standard errors.
    base, instr = CHAIN_LAWS[law]
    if law == "mass_action":
        # a total rate per infective far enough from the base law's
        instr = dataclasses.replace(instr, lam=2.4, gamma=1.0)
    spec, n = FinalSize(n_c=16), 40_000
    chains = lockstep.sir_ensemble(instr, n, SeedSpec(47).generator(), spec, base=base)
    weights = np.exp(_sir_log_ratio(chains, base, instr)) * _batch_indicators(chains, spec)
    # the engine decides a final size clock-free; its jump loop, clocked,
    # stopping at the same decision
    rates = lockstep._sir_rates(base)
    clocked = lockstep._jump_loop(
        rates, base, n, SeedSpec(48).generator(), base=rates, **lockstep._stop(spec)
    )
    hits = _batch_indicators(clocked, spec)
    assert 0.05 < hits.mean() < 0.95
    for name in ("int_pair", "int_i", "n_inf", "n_rem"):
        a, b = weights * getattr(chains, name), hits * getattr(clocked, name)
        z = (a.mean() - b.mean()) / math.sqrt((a.var() + b.var()) / n)
        assert abs(z) < 4, f"{name}: {a.mean():.4f} vs {b.mean():.4f}, z {z:.1f}"


def test_decision_stop_rao_blackwellises_importance_sampling():
    # P(final size >= 81) on Abakaliki at a fixed instrumental law near the
    # cross-entropy method's converged one.  The likelihood ratio is a
    # martingale, so its value where the event is decided, the infection
    # that brings r + i to 81, is the conditional expectation of its value
    # at extinction: the same mean, and no more variance.  Per path, the
    # relative variance came out at 10.5 with paths run until r reached 81
    # and at 7.7 stopped at the decision, with standard errors of about 0.09
    # and 0.08 at this size (20 batches, three seeds).
    spec, n = FinalSize(81), 100_000
    exact = tail_pf(exact_final_size(ABAKALIKI), ABAKALIKI.i0, spec.n_c)
    instr = dataclasses.replace(ABAKALIKI, lam=0.00106, gamma=0.0707)
    batch = lockstep.sir_ensemble(instr, n, SeedSpec(50).generator(), spec, base=ABAKALIKI)
    ratio = np.exp(_sir_log_ratio(batch, ABAKALIKI, instr))
    decided = np.where(_batch_indicators(batch, spec), ratio, 0.0)
    # importance sampling stops where the event is decided
    assert is_estimate(ABAKALIKI, spec, instr, n, SeedSpec(50)).value == decided.mean()
    sem = decided.std() / math.sqrt(n)
    assert abs(decided.mean() - exact) < 4 * sem, (decided.mean(), exact, sem)
    relvar = sem**2 * n / decided.mean() ** 2
    assert 7.0 < relvar < 8.4, relvar


def test_is_deep_tail_matches_exact():
    # P(final size >= 100) on Abakaliki is about 5e-6.  Weighted by whole
    # paths, an instrumental law at 1.6 lambda gives heavy-tailed weights:
    # over 300 runs their relative variance per run came out at 6 to 25,
    # and a run of 300 that misses the rare huge weights sits standard
    # errors low.  The ratio of the jump chains, which the event depends on
    # alone, gave 0.034 to 0.036.
    spec = FinalSize(n_c=100)
    exact = tail_pf(exact_final_size(ABAKALIKI), ABAKALIKI.i0, spec.n_c)
    assert exact == pytest.approx(4.990e-6, rel=1e-3)
    instr = dataclasses.replace(ABAKALIKI, lam=1.6 * ABAKALIKI.lam)
    values = np.array([
        is_estimate(ABAKALIKI, spec, instr, 1000, SeedSpec(44, replication=rep)).value
        for rep in range(300)
    ])
    sem = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - exact) < 3 * sem, (
        f"mean {values.mean():.4e} vs exact {exact:.4e}, sem {sem:.1e}"
    )
    assert values.var(ddof=1) / values.mean() ** 2 < 0.1


def _rf_loglik_checked(chain, q):
    """``rf_log_likelihood`` of a chain, checked against ``lockstep.rf_loglik``."""
    value = rf_log_likelihood(chain, q)
    S, I = (np.array([column]) for column in zip(*chain))
    assert lockstep.rf_loglik(S, I, q)[0] == pytest.approx(value, rel=1e-12)
    return value


@pytest.mark.parametrize(
    "spec", [Duration(4.0), Incidence(3.0, 5), DiagnosesIncrement(0.5, 1.0, 4)],
    ids=["duration", "incidence", "diagnoses"],
)
def test_is_and_ce_on_clocked_events_match_crude_monte_carlo(spec):
    # Every other IS and CE test decides a final size or a Reed-Frost event,
    # so these are the only runs whose weights and cross-entropy step read
    # the clocked rate integrals int_pair and int_i.  Under the base law, the
    # step's optimum is the hits' infections per unit of int_pair and their
    # removals per unit of int_i; the learned law must land on it.
    n = 200_000
    ref = lockstep.sir_ensemble(TOY, n, SeedSpec(60).generator(), spec, base=TOY)
    hits = _batch_indicators(ref, spec)
    p_ref = hits.mean()
    assert 0.02 < p_ref < 0.2

    def check(name, values, expected, expected_se):
        se = math.sqrt(np.var(values, ddof=1) / len(values) + expected_se**2)
        z = (np.mean(values) - expected) / se
        assert abs(z) < 4, f"{name}: {np.mean(values):.4f} vs {expected:.4f}, z {z:.1f}"

    instr = dataclasses.replace(TOY, lam=0.18, gamma=0.8)
    is_values = [is_estimate(TOY, spec, instr, 2000, SeedSpec(61, replication=r)).value
                 for r in range(40)]
    check("is", is_values, p_ref, math.sqrt(p_ref * (1 - p_ref) / n))
    runs = [ce_estimate(TOY, spec, 2000, 3, SeedSpec(62, replication=r)) for r in range(20)]
    check("ce", [est.value for est, _ in runs], p_ref, math.sqrt(p_ref * (1 - p_ref) / n))
    for field, events, integral in (
        ("lam", ref.n_inf, ref.int_pair), ("gamma", ref.n_rem, ref.int_i)
    ):
        a, b = events * hits, integral * hits
        optimum = a.sum() / b.sum()
        # the ratio's delta-method standard error
        optimum_se = math.sqrt(np.var(a - optimum * b) / n) / b.mean()
        learned = [getattr(trace[-1], field) for _, trace in runs]
        check(f"ce {field}", learned, optimum, optimum_se)


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


CE_CASES = {
    "sir-final-size": (TOY, FinalSize(n_c=6), 200),
    "sir-duration": (TOY, Duration(4.0), 200),
    "reed-frost": (ReedFrostParams(q=0.9, s0=10, i0=1), CumulativeInfections(t=5, n_c=8), 200),
}


@pytest.mark.parametrize("iterations", [1, 2, 3, 5])
@pytest.mark.parametrize("case", sorted(CE_CASES))
def test_ce_returns_the_mean_of_its_last_half_of_iterations(case, iterations):
    # Iteration k samples stream `stage=k` under trace[k-1], so it is
    # importance sampling under that law; the estimate is the plain mean of
    # iterations K//2+1 ... K, bit for bit.
    model, spec, n = CE_CASES[case]
    seed = SeedSpec(17, replication=3)
    est, trace = ce_estimate(model, spec, n, iterations, seed)
    assert len(trace) == iterations + 1
    kept = [is_estimate(model, spec, trace[k - 1], n, seed.stream(stage=k))
            for k in range(iterations // 2 + 1, iterations + 1)]
    assert len(kept) == math.ceil(iterations / 2)
    assert est.value == math.fsum(e.value for e in kept) / len(kept)
    assert est.std_error == pytest.approx(
        math.hypot(*(e.std_error for e in kept)) / len(kept), rel=1e-12
    )


def test_ce_kept_iteration_without_hits_counts_as_zero():
    # At the first seed of the range whose iteration 2 of 3 has no hit in a
    # run whose value is not 0 (about one seed in 90): that iteration keeps
    # its law and enters the mean as 0; the run is no zero run.
    spec, n = FinalSize(n_c=6), 10
    for seed in map(SeedSpec, range(1000)):
        est, trace = ce_estimate(TOY, spec, n, 3, seed)
        second, third = (is_estimate(TOY, spec, trace[k - 1], n, seed.stream(stage=k))
                         for k in (2, 3))
        if second.value == 0.0 and est.value != 0.0:
            break
    else:
        pytest.fail("no seed below 1000 has a run whose iteration 2 of 3 has no hit")
    assert second.value == 0.0 and second.std_error == 0.0
    assert trace[2] == trace[1]
    assert third.value > 0.0
    assert est.value == math.fsum([0.0, third.value]) / 2


def test_ce_kept_half_beats_the_last_iteration_in_the_deep_tail():
    # P(final size >= 81) on Abakaliki, the benchmark's ce-abakaliki
    # workload.  The last iteration alone is rebuilt from the trace on the
    # same stream, so both estimators read the same paths.
    spec, n, reps = FinalSize(81), 1000, 300
    exact = tail_pf(exact_final_size(ABAKALIKI), ABAKALIKI.i0, spec.n_c)
    kept, last = [], []
    for rep in range(reps):
        seed = SeedSpec(2323, replication=rep)
        est, trace = ce_estimate(ABAKALIKI, spec, n, 5, seed)
        kept.append(est.value)
        last.append(is_estimate(ABAKALIKI, spec, trace[4], n, seed.stream(stage=5)).value)
    kept, last = np.array(kept), np.array(last)
    sem = kept.std(ddof=1) / math.sqrt(reps)
    assert abs(kept.mean() - exact) < 4 * sem, (
        f"mean {kept.mean():.4e} vs exact {exact:.4e}, sem {sem:.1e}"
    )
    ratio = kept.var(ddof=1) / kept.mean() ** 2 / (last.var(ddof=1) / last.mean() ** 2)
    assert ratio < 0.6, f"relative variance ratio {ratio:.2f}"


@pytest.mark.parametrize("method", ["cmc", "is", "ce"])
def test_per_run_std_error_matches_the_spread_across_runs(method):
    # Over 500 replications the mean squared per-run error bar estimates the
    # variance of one run's estimate.
    spec, n, reps = FinalSize(n_c=8), 200, 500
    instr = dataclasses.replace(TOY, lam=0.3)
    estimate = {
        "cmc": lambda r: cmc(TOY, spec, n, SeedSpec(4, replication=r)),
        "is": lambda r: is_estimate(TOY, spec, instr, n, SeedSpec(5, replication=r)),
        "ce": lambda r: ce_estimate(TOY, spec, n, 5, SeedSpec(6, replication=r))[0],
    }[method]
    runs = [estimate(r) for r in range(reps)]
    values = np.array([e.value for e in runs])
    mean_sq_error = np.mean([e.std_error**2 for e in runs])
    ratio = mean_sq_error / values.var(ddof=1)
    assert 0.75 < ratio < 1.25, f"mean std_error^2 / variance across runs = {ratio:.2f}"


def test_std_error_of_a_single_path_is_zero():
    instr = dataclasses.replace(TOY, lam=0.3)
    assert is_estimate(TOY, FinalSize(n_c=2), instr, 1, SeedSpec(3)).std_error == 0.0
    assert ce_estimate(TOY, FinalSize(n_c=2), 1, 3, SeedSpec(3))[0].std_error == 0.0


def test_weight_spread_near_the_overflow_flag_is_finite():
    # Squaring weights of 1e300 would overflow; the spread is taken of the
    # weights scaled by the largest.
    weights = np.array([1e300, 0.0, 5e299, 0.0])
    assert _weight_sd(weights) == pytest.approx(
        1e300 * np.std(weights / 1e300, ddof=1), rel=1e-12
    )


def test_ce_zero_weight_iteration_keeps_parameters():
    # no iteration hits: the run estimates 0 and keeps its law
    est, trace = ce_estimate(TOY, FinalSize(n_c=11), 200, 2, SeedSpec(16))
    assert est.value == 0.0
    assert trace[-1] == TOY


def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(-0.1)
    with pytest.raises(ValueError):
        Estimate(0.1, per_level=(1.5,))
    diag = Diagnostics(extinct_ensembles=1).merged(Diagnostics(likelihood_overflows=2))
    assert diag.extinct_ensembles == 1 and diag.likelihood_overflows == 2


@pytest.mark.parametrize("value, std_error", [
    (math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan), (0.1, math.inf),
])
def test_estimate_rejects_non_finite(value, std_error):
    with pytest.raises(ValueError, match="finite"):
        Estimate(value, std_error)
