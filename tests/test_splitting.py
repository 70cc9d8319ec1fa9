import math
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from epirare import (
    CumulativeInfections,
    DiagnosesIncrement,
    Duration,
    EventKind,
    FinalSize,
    HivParams,
    Incidence,
    ReedFrostParams,
    Scaling,
    SeedSpec,
    SirParams,
    ce_estimate,
    cmc,
    exact_final_size,
    ibps_estimate,
    is_estimate,
    tail_pf,
    temporal_split_estimate,
)
from epirare import lockstep, splitting
from reference import (
    NEVER,
    epidemic_path,
    indicator,
    progress_hitting_time,
    rf_cumulative_tail,
)
from test_golden import HIV, HIV_EVENTS, IBPS_CASES, SIR, SIR_EVENTS

TOY = SirParams(lam=0.12, gamma=1.0, s0=9, i0=1, scaling=Scaling.UNSCALED)
TOY_SPEC = FinalSize(n_c=10)

PURE_DEATH = SirParams(lam=0.0, gamma=1.0, s0=0, i0=1, scaling=Scaling.UNSCALED)


def test_single_level_matches_cmc_distributionally():
    # K = 0: one level at the target makes splitting plain Monte-Carlo
    schedule = (10,)
    split_vals, cmc_vals = [], []
    for seed in range(200):
        est, _ = ibps_estimate(
            TOY, TOY_SPEC, n_particles=1000, schedule=schedule,
            seed=SeedSpec(30, replication=seed), conditional_sample=False,
        )
        split_vals.append(est.value)
        cmc_vals.append(cmc(TOY, TOY_SPEC, 1000, SeedSpec(31, replication=seed)).value)
    assert ks_2samp(split_vals, cmc_vals).pvalue > 0.01


def test_reduction_identity_trivial_first_level():
    # a first level every path satisfies leaves the ensemble untouched
    lo = (1, 10)
    hi = (10,)
    for seed in range(20):
        est_two, _ = ibps_estimate(
            TOY, TOY_SPEC, n_particles=500, schedule=lo,
            seed=SeedSpec(32, replication=seed), conditional_sample=False,
        )
        est_one, _ = ibps_estimate(
            TOY, TOY_SPEC, n_particles=500, schedule=hi,
            seed=SeedSpec(32, replication=seed), conditional_sample=False,
        )
        assert est_two.per_level[0] == 1.0
        assert est_two.per_level[1:] == est_one.per_level
        assert est_two.value == est_one.value


def test_value_is_bitwise_product_of_survival_fractions():
    for seed in range(10):
        est, _ = ibps_estimate(
            TOY, TOY_SPEC, n_particles=400, keep_fraction=0.2,
            seed=SeedSpec(33, replication=seed), conditional_sample=False,
        )
        assert est.value == math.prod(est.per_level)
        assert all(0.0 <= p <= 1.0 for p in est.per_level)


def test_conditional_sample_satisfies_event():
    est, ensemble = ibps_estimate(
        TOY, TOY_SPEC, n_particles=300, keep_fraction=0.1, seed=SeedSpec(34)
    )
    assert est.value > 0
    assert len(ensemble.log.offsets) == 301
    for k in range(300):
        assert indicator(epidemic_path(ensemble.log, k, TOY), TOY_SPEC) == 1
    assert set(ensemble.weights) == {1.0}
    assert ensemble.levels[-1] == TOY_SPEC.n_c


def test_level_hit_times_cached_on_particles():
    _, ensemble = ibps_estimate(
        TOY, TOY_SPEC, n_particles=200, keep_fraction=0.2, seed=SeedSpec(35)
    )
    hits = ensemble.level_hit_times
    assert hits.shape == (200, len(ensemble.levels))
    # later levels are reached no earlier, and once one is never reached no
    # later one is
    assert (hits[:, 1:] >= hits[:, :-1]).all()


def test_desk_scale_unbiasedness_all_estimators():
    # mean over >= 500 independent runs within 3.89 empirical s.e. of the
    # oracle.  The test checks ten means, five estimators on two models;
    # at 3.89 s.e. each a correct mean falls outside with chance 1.0e-4, so
    # the test fails by chance at a family-wise rate of 1 - (1 - 1.0e-4)^10
    # = 0.1% (the Sidak bound), where 3 s.e. each gave 1 - 0.9973^10 = 2.7%.
    # A change that moves draws should not pass or fail it by luck.
    z = 3.89
    cells = (
        (SirParams(lam=1.0, gamma=1.0, s0=3, i0=1, scaling=Scaling.UNSCALED), 3),
        (SirParams(lam=0.5, gamma=1.0, s0=5, i0=2, scaling=Scaling.UNSCALED), 6),
    )
    runs, n_paths = 500, 200
    for model, n_c in cells:
        spec = FinalSize(n_c=n_c)
        exact = tail_pf(exact_final_size(model), model.i0, n_c)
        instr = SirParams(
            lam=2 * model.lam, gamma=model.gamma / 2, s0=model.s0, i0=model.i0,
            scaling=model.scaling,
        )

        def _ibps(variant, seed_base):
            def run(rep):
                est, _ = ibps_estimate(
                    model, spec, n_particles=n_paths, keep_fraction=0.3,
                    variant=variant, seed=SeedSpec(seed_base, replication=rep),
                    conditional_sample=False,
                )
                return est.value
            return run

        routes = {
            "cmc": lambda rep: cmc(model, spec, n_paths, SeedSpec(40, replication=rep)).value,
            "is": lambda rep: is_estimate(model, spec, instr, n_paths, SeedSpec(41, replication=rep)).value,
            "ce": lambda rep: ce_estimate(model, spec, n_paths, 3, SeedSpec(42, replication=rep))[0].value,
            "ibps-multinomial": _ibps("multinomial", 43),
            "ibps-keepall": _ibps("keepall", 44),
        }
        for name, route in routes.items():
            values = np.array([route(rep) for rep in range(runs)])
            sem = values.std(ddof=1) / math.sqrt(runs)
            assert abs(values.mean() - exact) < z * sem, (
                f"{name} on s0={model.s0}: mean {values.mean():.4e} vs exact {exact:.4e}"
            )


def test_keepall_has_larger_spread():
    vals = {v: [] for v in ("multinomial", "keepall")}
    for variant in vals:
        for rep in range(150):
            est, _ = ibps_estimate(
                TOY, TOY_SPEC, n_particles=1000, keep_fraction=0.05, variant=variant,
                seed=SeedSpec(45, replication=rep), conditional_sample=False,
            )
            vals[variant].append(est.value)
    assert np.std(vals["keepall"], ddof=1) > np.std(vals["multinomial"], ddof=1)


def test_keepall_final_refill_draws_a_parent_per_slot():
    # keepall shares one parent only before the final stage; the final
    # conditional-law refill copies an independently drawn survivor per slot
    est, ens = ibps_estimate(
        TOY, TOY_SPEC, n_particles=50, keep_fraction=0.3, variant="keepall", seed=SeedSpec(0)
    )
    dead = 50 - round(est.per_level[-1] * 50)
    offsets = ens.log.offsets.tolist()
    copies = Counter(tuple(ens.log.t[a:b].tolist()) for a, b in zip(offsets, offsets[1:]))
    assert dead > 1 and max(copies.values()) < 1 + dead


def test_potential_rule_alpha_zero_reduces_to_indicator():
    params = ReedFrostParams(q=0.9, s0=12, i0=1)
    spec = CumulativeInfections(t=5, n_c=9)
    indicator_vals, flat_v, flat_dv = [], [], []
    for rep in range(200):
        seed = SeedSpec(46, replication=rep)
        est_ind, _ = ibps_estimate(
            params, spec, n_particles=400, keep_fraction=0.5,
            weight_rule="indicator", seed=seed, conditional_sample=False,
        )
        est_v, _ = ibps_estimate(
            params, spec, n_particles=400, keep_fraction=0.5,
            weight_rule="potential_v", alpha=0.0, seed=SeedSpec(47, replication=rep),
            conditional_sample=False,
        )
        est_dv, _ = ibps_estimate(
            params, spec, n_particles=400, keep_fraction=0.5,
            weight_rule="potential_dv", alpha=0.0, seed=SeedSpec(48, replication=rep),
            conditional_sample=False,
        )
        indicator_vals.append(est_ind.value)
        flat_v.append(est_v.value)
        flat_dv.append(est_dv.value)
    assert ks_2samp(indicator_vals, flat_v).pvalue > 0.01
    assert ks_2samp(indicator_vals, flat_dv).pvalue > 0.01


def test_potential_rule_alpha_zero_identical_on_matched_seeds():
    params = ReedFrostParams(q=0.9, s0=12, i0=1)
    spec = CumulativeInfections(t=5, n_c=9)
    for rep in range(20):
        seed = SeedSpec(49, replication=rep)
        est_ind, _ = ibps_estimate(
            params, spec, n_particles=300, keep_fraction=0.5,
            weight_rule="indicator", seed=seed, conditional_sample=False,
        )
        est_v, _ = ibps_estimate(
            params, spec, n_particles=300, keep_fraction=0.5,
            weight_rule="potential_v", alpha=0.0, seed=seed, conditional_sample=False,
        )
        assert est_v.value == pytest.approx(est_ind.value, rel=1e-12)


def test_discrete_unbiasedness_with_potentials():
    params = ReedFrostParams(q=0.85, s0=10, i0=1)
    spec = CumulativeInfections(t=4, n_c=8)
    rng = SeedSpec(50).generator()
    _, infectives = lockstep.rf_chains(params, spec.t - 1, 1_000_000, rng)
    p_ref = float(np.mean(infectives.sum(axis=1) >= spec.n_c))
    for rule, alpha in (("indicator", 0.0), ("potential_v", 0.1), ("potential_dv", 0.1)):
        values = []
        for rep in range(500):
            est, _ = ibps_estimate(
                params, spec, n_particles=400, keep_fraction=0.9,
                weight_rule=rule, alpha=alpha,
                seed=SeedSpec(51, replication=rep), conditional_sample=False,
            )
            values.append(est.value)
        values = np.array(values)
        sem = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - p_ref) < 3 * sem + 3e-4, rule


def test_discrete_conditional_sample_chains():
    alive = ibps_estimate(
        ReedFrostParams(q=0.9, s0=12, i0=1), CumulativeInfections(t=5, n_c=6),
        n_particles=200, keep_fraction=0.5, seed=SeedSpec(52),
    )
    # every slot dies at the second generation: its chains stop there
    extinct = ibps_estimate(
        ReedFrostParams(q=0.99, s0=12, i0=1), CumulativeInfections(t=5, n_c=12),
        n_particles=20, schedule=(8, 9, 10, 12),
        seed=SeedSpec(1),
    )
    assert alive[0].value > 0 and extinct[0].value == 0
    for (_, ensemble), n, generations, n_c in ((alive, 200, 5, 6), (extinct, 20, 2, 12)):
        S, I = ensemble.chains
        assert S.shape == I.shape == (n, generations)
        # each generation's infections are the susceptibles it lost
        np.testing.assert_array_equal(S[:, :-1] - S[:, 1:], I[:, 1:])
        assert (S[:, 0] == 12).all() and (I[:, 0] == 1).all()
        np.testing.assert_array_equal(ensemble.weights, I.sum(axis=1) >= n_c)


def test_ensemble_extinction_policy_and_restart():
    # an effectively unreachable intermediate level kills every particle: the
    # run estimates 0 and counts one extinct ensemble, with no retry
    schedule = (50, 60)
    spec = FinalSize(n_c=60)
    big = SirParams(lam=0.005, gamma=1.0, s0=70, i0=1, scaling=Scaling.UNSCALED)
    est, _ = ibps_estimate(
        big, spec, n_particles=50, schedule=schedule, seed=SeedSpec(53),
        conditional_sample=False,
    )
    assert est.value == 0.0
    assert est.diagnostics.extinct_ensembles == 1


def test_ibps_final_stage_without_survivors_is_extinction():
    # particles pass level 2 but none reaches 60: an extinct ensemble, counted
    big = SirParams(lam=0.005, gamma=1.0, s0=70, i0=1, scaling=Scaling.UNSCALED)
    est, _ = ibps_estimate(
        big, FinalSize(n_c=60), n_particles=50,
        schedule=(2, 60), seed=SeedSpec(53),
        conditional_sample=False,
    )
    assert est.per_level[0] > 0.0 and est.per_level[-1] == 0.0
    assert est.value == 0.0
    assert est.diagnostics.extinct_ensembles == 1


@pytest.mark.parametrize(
    "spec", [FinalSize(n_c=3), Incidence(T=2.0, n_i=3), DiagnosesIncrement(t=0.5, u=1.0, n_r=3)]
)
def test_conditional_sample_without_any_event(spec):
    # no infective at the start: no path has an event, and the conditional
    # sample holds 50 empty paths that never attain it
    model = SirParams(lam=1.5, gamma=1.0, s0=20, i0=0)
    est, ensemble = ibps_estimate(
        model, spec, n_particles=50, keep_fraction=0.3, seed=SeedSpec(1)
    )
    assert est.value == 0.0
    assert len(ensemble.log.t) == 0 and not ensemble.weights.any()
    assert np.diff(ensemble.log.offsets).tolist() == [0] * 50


def test_incidence_event_agreement_with_cmc():
    model = SirParams(lam=0.035, gamma=1.0, s0=30, i0=2, scaling=Scaling.UNSCALED)
    spec = Incidence(T=2.0, n_i=12)
    p_ref = cmc(model, spec, 400_000, SeedSpec(54)).value
    values = []
    for rep in range(300):
        est, _ = ibps_estimate(
            model, spec, n_particles=500, keep_fraction=0.2,
            seed=SeedSpec(55, replication=rep), conditional_sample=False,
        )
        values.append(est.value)
    values = np.array(values)
    sem = values.std(ddof=1) / math.sqrt(len(values))
    se_ref = math.sqrt(p_ref * (1 - p_ref) / 400_000)
    assert abs(values.mean() - p_ref) < 3 * sem + 3 * se_ref


def test_diagnoses_increment_agreement_with_cmc():
    model = SirParams(lam=0.035, gamma=1.0, s0=30, i0=2, scaling=Scaling.UNSCALED)
    spec = DiagnosesIncrement(t=0.5, u=1.5, n_r=10)
    p_ref = cmc(model, spec, 400_000, SeedSpec(56)).value
    values = []
    for rep in range(300):
        est, _ = ibps_estimate(
            model, spec, n_particles=500, keep_fraction=0.2,
            seed=SeedSpec(57, replication=rep), conditional_sample=False,
        )
        values.append(est.value)
    values = np.array(values)
    sem = values.std(ddof=1) / math.sqrt(len(values))
    se_ref = math.sqrt(p_ref * (1 - p_ref) / 400_000)
    assert abs(values.mean() - p_ref) < 3 * sem + 3 * se_ref


def test_hiv_splitting_agreement_with_cmc():
    model = HivParams(lam=0.05, gamma1=1.0, gamma2=0.5, c=1.0, s0=25, i0=2)
    spec = FinalSize(n_c=18)
    rng = SeedSpec(58).generator()
    ens = lockstep.hiv_ensemble(model, 400_000, rng)
    p_ref = float(np.mean(ens.r >= spec.n_c))
    values = []
    for rep in range(300):
        est, _ = ibps_estimate(
            model, spec, n_particles=500, keep_fraction=0.1,
            seed=SeedSpec(59, replication=rep), conditional_sample=False,
        )
        values.append(est.value)
    values = np.array(values)
    sem = values.std(ddof=1) / math.sqrt(len(values))
    se_ref = math.sqrt(p_ref * (1 - p_ref) / 400_000)
    assert abs(values.mean() - p_ref) < 3 * sem + 3 * se_ref


def test_adaptive_stall_jumps_to_the_threshold():
    # without infections every final size is i0: the first adaptive level is
    # i0, and no particle can pass it, so the next level is the event threshold
    model = SirParams(lam=0.0, gamma=1.0, s0=5, i0=2, scaling=Scaling.UNSCALED)
    est, ensemble = ibps_estimate(
        model, FinalSize(n_c=4), n_particles=10, keep_fraction=0.5, seed=SeedSpec(3),
        conditional_sample=False,
    )
    assert ensemble.levels == (2.0, 4.0)
    assert est.per_level == (1.0, 0.0)
    assert est.value == 0.0


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_ibps_rejects_non_finite_alpha(alpha):
    # used to fail inside numpy's weighted draw with "Probabilities contain NaN"
    with pytest.raises(ValueError, match="alpha"):
        ibps_estimate(
            ReedFrostParams(q=0.9805, s0=99, i0=1), CumulativeInfections(t=10, n_c=90),
            n_particles=20,
            schedule=tuple(range(10, 100, 10)),
            weight_rule="potential_v", alpha=alpha, seed=SeedSpec(0),
        )


@pytest.mark.parametrize("alpha", [10.0, 30.0, -800.0])
def test_potential_weights_at_large_alpha(alpha):
    # weights held as logs: alpha = 10 used to overflow math.exp, alpha = 30
    # np.exp (then "Probabilities contain NaN"), and alpha = -800 underflowed
    # the weights of all 23 survivors of generation 1 to 0, an extinct run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, _ = ibps_estimate(
            ReedFrostParams(q=0.9805, s0=99, i0=1), CumulativeInfections(10, 90),
            n_particles=200,
            schedule=(5, 10, 20, 30, 40, 50, 60, 70, 90),
            weight_rule="potential_v", alpha=alpha, seed=SeedSpec(1),
        )
    assert math.isfinite(est.value)
    assert est.per_level[0] == 23 / 200 and len(est.per_level) > 1


RF = ReedFrostParams(q=0.9, s0=12, i0=1)
RF_SPEC = CumulativeInfections(t=5, n_c=8)


POTENTIAL_ONLY = "alpha applies only under a potential_v or potential_dv rule"


@pytest.mark.parametrize(
    "model, spec, options, unread, reason",
    [
        (RF, RF_SPEC, {"alpha": 5.0}, "alpha", POTENTIAL_ONLY),
        (RF, RF_SPEC, {"weight_rule": "indicator", "alpha": -0.5}, "alpha", POTENTIAL_ONLY),
        (RF, RF_SPEC, {"variant": "keepall", "weight_rule": "potential_v", "alpha": 0.1},
         "variant", "variants apply to jump-process events"),
        (TOY, TOY_SPEC, {"weight_rule": "potential_dv"}, "weight_rule",
         "weight rules apply to discrete-generation events"),
        (TOY, TOY_SPEC, {"variant": "keepall", "alpha": 0.1}, "alpha", POTENTIAL_ONLY),
    ],
    ids=["rf-indicator-alpha", "rf-indicator-negative-alpha", "rf-variant", "sir-weight-rule",
         "sir-alpha"],
)
def test_ibps_rejects_an_option_its_event_does_not_read(model, spec, options, unread, reason):
    # each used to run as if it were not set: alpha under the indicator rule,
    # a variant on a discrete-generation event and alpha on a jump process;
    # the message gives the reason of each unread option
    with pytest.raises(ValueError, match=rf"^ibps reads no {unread} on .*: {reason}$"):
        ibps_estimate(model, spec, n_particles=10, keep_fraction=0.5, seed=SeedSpec(0),
                      **options)


def test_ibps_accepts_an_unread_option_at_its_default():
    # the default of an option an event does not read is no setting
    for model, spec, options in (
        (RF, RF_SPEC, {"variant": "multinomial", "alpha": 0.0}),
        (TOY, TOY_SPEC, {"weight_rule": "indicator", "alpha": 0.0}),
    ):
        plain, _ = ibps_estimate(model, spec, n_particles=20, keep_fraction=0.5,
                                 seed=SeedSpec(3), conditional_sample=False)
        given_default, _ = ibps_estimate(model, spec, n_particles=20, keep_fraction=0.5,
                                         seed=SeedSpec(3), conditional_sample=False, **options)
        assert given_default == plain


def test_ibps_argument_validation():
    with pytest.raises(ValueError, match="exactly one"):
        ibps_estimate(TOY, TOY_SPEC, n_particles=10, seed=SeedSpec(0))
    with pytest.raises(ValueError, match="exactly one"):
        ibps_estimate(
            TOY, TOY_SPEC, n_particles=10, keep_fraction=0.1,
            schedule=(10,), seed=SeedSpec(0),
        )
    with pytest.raises(ValueError, match="variant"):
        ibps_estimate(
            TOY, TOY_SPEC, n_particles=10, keep_fraction=0.1, variant="bogus",
            seed=SeedSpec(0),
        )
    with pytest.raises(ValueError, match="time axis"):
        ibps_estimate(TOY, Duration(T=1.0), n_particles=10, keep_fraction=0.1, seed=SeedSpec(0))
    with pytest.raises(ValueError, match="discrete-generation"):
        ibps_estimate(
            TOY, TOY_SPEC, n_particles=10, keep_fraction=0.1,
            weight_rule="potential_v", alpha=0.1, seed=SeedSpec(0),
        )
    with pytest.raises(ValueError, match="one level per selection generation"):
        ibps_estimate(
            ReedFrostParams(q=0.9, s0=5, i0=1),
            CumulativeInfections(t=4, n_c=5),
            n_particles=10,
            schedule=(5,),
            seed=SeedSpec(0),
        )


@pytest.mark.parametrize(
    "schedule, message",
    [
        ((2, 2, 10), "strictly increasing"),
        ((2, math.nan, 10), "strictly increasing"),
        ((), "at least the target level"),
        ((2, 4, 9), "last level"),
    ],
    ids=["repeated", "nan", "empty", "wrong-last"],
)
def test_ibps_rejects_bad_schedule(schedule, message):
    with pytest.raises(ValueError, match=message):
        ibps_estimate(TOY, TOY_SPEC, n_particles=10, schedule=schedule, seed=SeedSpec(0))


@pytest.mark.parametrize("method", ["ibps", "temporal"])
def test_restart_on_extinction_is_no_option(method):
    # returning the first attempt whose ensemble survived biased the estimate
    # upwards (1.49x the exact value at one retry on a toy final size); an
    # extinct run estimates 0, and another replication is the retry
    with pytest.raises(TypeError, match="restart_on_extinction"):
        if method == "ibps":
            ibps_estimate(
                TOY, TOY_SPEC, n_particles=10, keep_fraction=0.1, seed=SeedSpec(0),
                restart_on_extinction=1,
            )
        else:
            temporal_split_estimate(
                TOY, 1.0, n_particles=10, keep_count=2, seed=SeedSpec(0),
                restart_on_extinction=1,
            )


def test_temporal_pure_death_matches_closed_form():
    # P{extinction time > 3} = exp(-3) for a unit-rate single lifetime
    values = []
    for rep in range(100):
        est = temporal_split_estimate(
            PURE_DEATH, 3.0, n_particles=1000, time_grid=(1.0, 2.0, 3.0),
            seed=SeedSpec(60, replication=rep),
        )
        values.append(est.value)
    values = np.array(values)
    sem = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - math.exp(-3)) < 3 * sem


def test_temporal_adaptive_matches_closed_form():
    values = []
    for rep in range(100):
        est = temporal_split_estimate(
            PURE_DEATH, 3.0, n_particles=1000, keep_count=700,
            seed=SeedSpec(61, replication=rep),
        )
        values.append(est.value)
    values = np.array(values)
    sem = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - math.exp(-3)) < 3 * sem


def test_temporal_single_stage_matches_cmc_distributionally():
    split_vals, cmc_vals = [], []
    for seed in range(200):
        est = temporal_split_estimate(
            PURE_DEATH, 1.0, n_particles=1000, time_grid=(1.0,),
            seed=SeedSpec(62, replication=seed),
        )
        split_vals.append(est.value)
        cmc_vals.append(
            cmc(PURE_DEATH, Duration(T=1.0), 1000, SeedSpec(63, replication=seed)).value
        )
    assert ks_2samp(split_vals, cmc_vals).pvalue > 0.01


def test_temporal_zero_horizon_edge():
    est = temporal_split_estimate(
        SirParams(lam=0.1, gamma=1.0, s0=3, i0=1, scaling=Scaling.UNSCALED),
        1e-9, n_particles=100, time_grid=(1e-9,), seed=SeedSpec(64),
    )
    assert est.value == 1.0


def test_temporal_extinct_ensemble_policy():
    est = temporal_split_estimate(
        PURE_DEATH, 10.0, n_particles=3, time_grid=(9.0, 10.0), seed=SeedSpec(65),
    )
    assert est.value == 0.0
    assert est.diagnostics.extinct_ensembles == 1


def test_temporal_final_stage_without_survivors_is_not_extinction():
    # some paths outlive t=1 but none the horizon: the value is 0, and the
    # ensemble is not counted as extinct
    est = temporal_split_estimate(
        PURE_DEATH, 10.0, n_particles=3, time_grid=(1.0, 10.0), seed=SeedSpec(0),
    )
    assert est.per_level[0] > 0.0 and est.per_level[-1] == 0.0
    assert est.value == 0.0
    assert est.diagnostics.extinct_ensembles == 0


def test_temporal_argument_validation():
    with pytest.raises(ValueError, match="exactly one"):
        temporal_split_estimate(PURE_DEATH, 1.0, n_particles=10, seed=SeedSpec(0))
    with pytest.raises(ValueError, match="end at the horizon"):
        temporal_split_estimate(
            PURE_DEATH, 2.0, n_particles=10, time_grid=(1.0, 1.5), seed=SeedSpec(0)
        )
    for grid in ((), (math.nan, 2.0), (1.0, math.nan, 2.0)):
        with pytest.raises(ValueError, match="time_grid"):
            temporal_split_estimate(
                PURE_DEATH, 2.0, n_particles=10, time_grid=grid, seed=SeedSpec(0)
            )
    with pytest.raises(ValueError, match="keep_count"):
        temporal_split_estimate(
            PURE_DEATH, 1.0, n_particles=10, keep_count=10, seed=SeedSpec(0)
        )
    # a NaN horizon used to pass every comparison and run to the stage cap
    for horizon in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="horizon must be positive"):
            temporal_split_estimate(
                PURE_DEATH, horizon, n_particles=10, keep_count=5, seed=SeedSpec(0)
            )


def test_temporal_rejects_an_infinite_horizon():
    # ran all 100,000 stages of the stage cap (about 60 s), then raised
    model = SirParams(lam=1.2, gamma=1.0, s0=30, i0=1)
    for time_grid, keep_count in ((None, 5), ((10.0, math.inf), None)):
        started = time.perf_counter()
        with pytest.raises(ValueError, match="^temporal splitting needs a finite horizon$"):
            temporal_split_estimate(
                model, math.inf, n_particles=20, time_grid=time_grid, keep_count=keep_count,
                seed=SeedSpec(1),
            )
        assert time.perf_counter() - started < 1.0
    # every path dies out, so crude Monte-Carlo still estimates the infinite horizon
    assert cmc(model, Duration(T=math.inf), 20, SeedSpec(1)).value == 0.0


@pytest.mark.parametrize("name", sorted(IBPS_CASES))
def test_fixed_schedule_reproduces_an_adaptive_run(name):
    # one selection-and-refill step per level, whether the level is fixed or
    # picked from the scores: an adaptive run's own levels, fed back as a
    # schedule at the same seed, replay it bit for bit
    model, spec, variant = IBPS_CASES[name]
    replayed = 0
    for rep in range(8):
        seed = SeedSpec(2027, replication=rep)
        adaptive, ensemble = ibps_estimate(
            model, spec, n_particles=40, keep_fraction=0.3, variant=variant, seed=seed
        )
        if adaptive.diagnostics.extinct_ensembles:
            continue  # its levels stop short of the threshold: no schedule
        fixed, replay = ibps_estimate(
            model, spec, n_particles=40, schedule=ensemble.levels, variant=variant, seed=seed
        )
        assert fixed.value == adaptive.value and fixed.per_level == adaptive.per_level
        assert replay.levels == ensemble.levels
        assert np.array_equal(replay.level_hit_times, ensemble.level_hit_times)
        replayed += 1
    assert replayed >= 3


@pytest.mark.parametrize("model, horizon", [(SIR, 6.0), (HIV, 4.0)], ids=["sir", "hiv"])
def test_fixed_time_grid_reproduces_an_adaptive_temporal_run(model, horizon, monkeypatch):
    # the levels come from the stage loop, as the estimator returns only the estimate
    ensembles = []
    stage_loop = splitting._stage_loop

    def recording_stage_loop(*args):
        estimate, ensemble = stage_loop(*args)
        ensembles.append(ensemble)
        return estimate, ensemble

    monkeypatch.setattr(splitting, "_stage_loop", recording_stage_loop)
    replayed = 0
    for rep in range(8):
        seed = SeedSpec(2028, replication=rep)
        adaptive = temporal_split_estimate(
            model, horizon, n_particles=60, keep_count=20, seed=seed
        )
        if adaptive.diagnostics.extinct_ensembles:
            continue
        grid = ensembles[-1].levels
        assert grid[-1] == horizon
        fixed = temporal_split_estimate(model, horizon, n_particles=60, time_grid=grid, seed=seed)
        assert fixed.value == adaptive.value and fixed.per_level == adaptive.per_level
        assert ensembles[-1].levels == grid
        replayed += 1
    assert replayed >= 3


RF_TAIL = ReedFrostParams(q=0.97, s0=40, i0=1)
RF_TAIL_SPEC = CumulativeInfections(t=8, n_c=30)


@pytest.mark.parametrize("arm", ["indicator", "potential_v", "potential_dv", "ce"])
def test_reed_frost_matches_the_exact_tail(arm):
    # at keep 0.95 (small keep fractions are biased on Reed-Frost by design:
    # acceptance criterion 7) and for cross-entropy, against the exact DP
    exact = rf_cumulative_tail(RF_TAIL, RF_TAIL_SPEC)
    assert exact == pytest.approx(0.0101595, rel=1e-5)
    if arm == "ce":
        values = [
            ce_estimate(RF_TAIL, RF_TAIL_SPEC, 300, 4, SeedSpec(71, replication=rep))[0].value
            for rep in range(100)
        ]
    else:
        values = [
            ibps_estimate(
                RF_TAIL, RF_TAIL_SPEC, n_particles=400, keep_fraction=0.95, weight_rule=arm,
                alpha=0.0 if arm == "indicator" else 0.01, seed=SeedSpec(70, replication=rep),
                conditional_sample=False,
            )[0].value
            for rep in range(300)
        ]
    values = np.array(values)
    sem = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - exact) < 4 * sem



@pytest.mark.parametrize("name", sorted(IBPS_CASES))
def test_conditional_sample_leaves_the_estimate_unchanged(name):
    # with the sample every slot's history is grouped, without it only the
    # survivors' at each cut: both must cut and draw alike
    model, spec, variant = IBPS_CASES[name]
    with_sample, bare = (
        ibps_estimate(
            model, spec, n_particles=120, keep_fraction=0.2, variant=variant,
            seed=SeedSpec(2024, replication=3), conditional_sample=flag,
        )[0]
        for flag in (True, False)
    )
    assert with_sample.per_level == bare.per_level
    assert with_sample.value == bare.value


def test_conditional_sample_times_follow_the_conditional_law():
    # On an SIR final size the engine keeps no clock, and the conditional
    # sample draws its holding times after the run.  Each path must end at
    # its decision, the infection that brings r + i to n_c, at a finite time,
    # and the first runs' paths must be valid EpidemicPaths.
    # The sample's law is checked through the unnormalised measure, the
    # quantity splitting estimates without bias: over runs, value times the
    # mean over the run's final paths of f(T), T the decision time (0 for a
    # run whose ensemble died), has the mean E[f(T); hit].  The normalised
    # sample, each surviving run's paths weighted alike, is the conditional
    # law only as N grows: at N = 50 its mean T runs about 10% long, 7 to 10
    # standard errors at these seeds.  f is T and 1{T <= x} at the clocked
    # quartiles x of T; the clocked side is paths stopped at their decision.
    clocked = lockstep._jump_loop(
        lockstep._sir_rates(TOY), TOY, 400_000, SeedSpec(46).generator(),
        **lockstep._stop(TOY_SPEC),
    )
    hit = clocked.r + clocked.i >= TOY_SPEC.n_c
    assert hit.sum() > 5000
    quartiles = np.quantile(clocked.t[hit], [0.25, 0.5, 0.75])

    def f_values(times: np.ndarray) -> np.ndarray:
        # f(T) per path, one row per f
        return np.vstack([times, *(times <= x for x in quartiles)])

    expected = f_values(clocked.t) * hit
    for master in (45, 145, 245):
        measure = []
        for rep in range(1000):
            estimate, ensemble = ibps_estimate(
                TOY, TOY_SPEC, n_particles=50, keep_fraction=0.1,
                seed=SeedSpec(master, replication=rep),
            )
            if not ensemble.weights.any():
                assert estimate.value == 0.0
                measure.append(np.zeros(len(expected)))
                continue
            log = ensemble.log
            last = log.offsets[1:] - 1
            assert np.isfinite(log.t[last]).all()
            assert (log.kind[last] == EventKind.INFECTION.value).all()
            assert (log.r[last] + log.i[last] == TOY_SPEC.n_c).all()
            for k in range(50 if rep < 30 else 0):
                assert epidemic_path(log, k, TOY).final_state.ever == TOY_SPEC.n_c
            measure.append(estimate.value * f_values(log.t[last]) @ ensemble.weights / 50)
        measure = np.array(measure).T
        for got, want in zip(measure, expected):
            se = math.sqrt(got.var(ddof=1) / got.size + want.var(ddof=1) / want.size)
            assert abs(got.mean() - want.mean()) < 4 * se, (master, got.mean(), want.mean(), se)


ABAKALIKI = SirParams(lam=0.0008254, gamma=0.087613, s0=119, i0=1, scaling=Scaling.UNSCALED)


@pytest.mark.parametrize(
    "model, spec, n, keep, seed",
    [
        (ABAKALIKI, FinalSize(81), 200, 0.05, SeedSpec(17)),
        # the ensemble dies at the last level, so that level is never hit
        (SIR, SIR_EVENTS["diagnoses"], 10, 0.3, SeedSpec(2026)),
    ],
)
def test_conditional_sample_columns_deep_and_dying(model, spec, n, keep, seed):
    _, ensemble = ibps_estimate(model, spec, n_particles=n, keep_fraction=keep, seed=seed)
    hits = ensemble.level_hit_times
    assert hits.shape == (n, len(ensemble.levels)) and len(ensemble.log.offsets) == n + 1
    if model is SIR:
        assert np.isinf(hits[:, -1]).all() and np.isfinite(hits[:, 0]).all()
    for k in range(n):
        path = epidemic_path(ensemble.log, k, model)
        for level, got in zip(ensemble.levels, hits[k]):
            expected = progress_hitting_time(path, spec, level)
            assert np.isinf(got) if expected is NEVER else got == expected
        assert ensemble.weights[k] == indicator(path, spec)


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(
        [(SIR, spec) for spec in SIR_EVENTS.values()]
        + [(HIV, spec) for spec in HIV_EVENTS.values()]
    ),
    n=st.integers(2, 30),
    keep=st.sampled_from([0.1, 0.3, 0.5]),
    variant=st.sampled_from(["multinomial", "keepall"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_conditional_sample_columns_match_the_reference(case, n, keep, variant, seed):
    # each hit-time column is the first event time at which the event's own
    # progress reaches the level, and each weight the path's indicator
    model, spec = case
    _, ensemble = ibps_estimate(
        model, spec, n_particles=n, keep_fraction=keep, variant=variant, seed=SeedSpec(seed)
    )
    for k in range(n):
        path = epidemic_path(ensemble.log, k, model)
        assert ensemble.weights[k] == indicator(path, spec)
        for j, level in enumerate(ensemble.levels):
            expected = progress_hitting_time(path, spec, level)
            got = ensemble.level_hit_times[k, j]
            assert np.isinf(got) if expected is NEVER else got == expected


@pytest.mark.parametrize(
    "levels", [{"keep_fraction": 0.01}, {"schedule": (30, 60, 81)}], ids=["adaptive", "schedule"]
)
def test_a_replication_makes_no_event_rows(levels, monkeypatch):
    # without the conditional sample, a refill reads its parents' cuts from
    # the engine's record: no call's rows are grouped into a log, and no
    # clock-free run is expanded into rows
    calls = []

    def counted(fn):
        def call(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(lockstep, "_expand_runs", counted(lockstep._expand_runs))
    monkeypatch.setattr(lockstep.Recorded, "log", counted(lockstep.Recorded.log))
    engine, refills = lockstep.jump_ensemble, []

    def refill(*args, init=None, **kwargs):
        refills.append(init is not None)
        return engine(*args, init=init, **kwargs)

    monkeypatch.setattr(lockstep, "jump_ensemble", refill)
    est, _ = ibps_estimate(
        ABAKALIKI, FinalSize(81), n_particles=1000, seed=SeedSpec(7), conditional_sample=False,
        **levels,
    )
    assert est.value > 0 and sum(refills) >= 1
    assert calls == []


@pytest.mark.parametrize("case", ["abakaliki-final_size", "hiv-incidence"])
def test_a_conditional_sample_logs_each_call_once_at_the_end(case, monkeypatch):
    # a conditional sample joins its final log once, from the slots'
    # ancestral lines: no refill logs a call, and the final log reads each
    # call it keeps once
    model, spec = (ABAKALIKI, FinalSize(81)) if case.startswith("abakaliki") else (
        HIV, HIV_EVENTS["incidence"])
    events, log, histories = [], lockstep.Recorded.log, splitting._Slots.histories

    def logged(self, paths):
        events.append("log")
        return log(self, paths)

    def joined(self, slots):
        events.append(("histories", len(self.batches)))
        return histories(self, slots)

    monkeypatch.setattr(lockstep.Recorded, "log", logged)
    monkeypatch.setattr(splitting._Slots, "histories", joined)
    est, ensemble = ibps_estimate(model, spec, n_particles=100, keep_fraction=0.2,
                                  seed=SeedSpec(8))
    assert est.value > 0 and len(est.per_level) >= 3
    (name, kept), *rest = events
    assert name == "histories" and kept >= 2 and rest == ["log"] * kept
